"""Every scenario's default tables at seed 0 against committed golden copies.

``tests/golden/<scenario>/<table>.csv`` holds the tables that
``qworkbench run <scenario> --seed 0`` writes at the default parameters.
The comment lines, the units and the column names must match exactly, and
so must every cell that is not a float (labels, indices, counts).  Floats
must match to the tolerance stated per table in ``TOLERANCES``,
``|value - golden| <= rtol |golden| + atol``: exact bytes are not
required, because a host with another CPU dispatch may round differently,
but a relative move of 1e-10 in a value of order one fails.

A change that moves a table regenerates the golden files in the same
commit, from the repository root::

    PYTHONPATH=src python tests/test_golden.py

and states which columns moved, and by how much.
"""
from pathlib import Path

import pytest

from qworkbench import harness

GOLDEN = Path(__file__).parent / "golden"

# (rtol, atol) per scenario.  The absolute floor covers the cells that are
# rounding noise around zero (abs_diff, imaginary parts, truncation shifts).
TOLERANCES = {
    "cqed-rabi": (1e-12, 1e-14),
    "daqs-heisenberg": (1e-12, 1e-14),
    "eqs-3tangle": (1e-12, 1e-14),
    "eqs-concurrence": (1e-12, 1e-14),
    "lindblad-bounds": (1e-12, 1e-14),
    "lindblad-reconstruction": (1e-12, 1e-14),
    "qrm-adiabatic": (1e-12, 1e-14),
    "qrm-regimes": (1e-12, 1e-14),
    "timecorr-2pt": (1e-12, 1e-14),
    "timecorr-3pt-grid": (1e-12, 1e-14),
    "twophoton-dynamics": (1e-12, 1e-14),
    "twophoton-spectrum": (1e-12, 1e-14),
}


def test_every_scenario_has_a_golden_table():
    assert sorted(TOLERANCES) == sorted(row[0] for row in harness.list_scenarios())
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(TOLERANCES)


def split(text: str):
    """Header lines (comments, units, column names) and the row cells."""
    lines = text.splitlines()
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:n_head], [line.split(",") for line in lines[n_head:]]


@pytest.mark.parametrize("scenario_id", sorted(TOLERANCES))
def test_default_tables_match_golden(scenario_id, tmp_path):
    rtol, atol = TOLERANCES[scenario_id]
    artifact = harness.run_scenario(harness.ScenarioConfig(scenario_id))
    root = artifact.write(tmp_path)
    assert sorted(p.name for p in (GOLDEN / scenario_id).glob("*.csv")) == \
        sorted(f"{table.name}.csv" for table in artifact.tables)
    for table in artifact.tables:
        name = f"{scenario_id}/{table.name}.csv"
        head, cells = split((root / f"{table.name}.csv").read_text())
        golden_head, golden_cells = split((GOLDEN / name).read_text())
        assert head == golden_head, name
        assert len(cells) == len(golden_cells), name
        for i, (values, row, golden_row) in enumerate(zip(table.rows, cells, golden_cells)):
            for column, value, cell, golden in zip(head[-1].split(","), values, row,
                                                   golden_row):
                where = f"{name} row {i} column {column}: {cell} against {golden}"
                if isinstance(value, float):
                    assert abs(value - float(golden)) <= rtol * abs(float(golden)) + atol, where
                else:
                    assert cell == golden, where


def regenerate():
    """Write every scenario's default tables at seed 0 under ``GOLDEN``."""
    for scenario_id, _, _ in harness.list_scenarios():
        root = harness.run_scenario(harness.ScenarioConfig(scenario_id)).write(GOLDEN)
        (root / "metadata.yaml").unlink()


if __name__ == "__main__":
    regenerate()
