"""Run artifacts: deterministic CSV tables plus a metadata sidecar.

Identical (config, seed) runs must reproduce every table byte for byte, so
floats are rendered with a fixed shortest-round-trip format and no
timestamps enter the tables; wall time lives only in the metadata file.
PyYAML loads only when :meth:`RunArtifact.write` writes that file, through
libyaml's ``CSafeDumper`` when PyYAML was built with it and its
``SafeDumper`` otherwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__


def _render(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{'+' if value.imag >= 0 else '-'}" \
               f"{format(abs(value.imag), '.17g')}j"
    return str(value)


@dataclass
class Table:
    name: str
    columns: tuple          # column names
    units: tuple            # one unit string per column ("1" for dimensionless)
    rows: list

    def render(self, meta_lines) -> str:
        if len(self.units) != len(self.columns):
            raise ValueError("one unit per column required")
        out = [f"# {line}" for line in meta_lines]
        out.append("# units: " + ",".join(self.units))
        out.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != {len(self.columns)}")
            out.append(",".join(_render(v) for v in row))
        return "\n".join(out) + "\n"


@dataclass
class RunArtifact:
    scenario: str
    config: dict
    master_seed: int
    threads: int
    tables: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def write(self, out_dir: str | Path) -> Path:
        import yaml

        root = Path(out_dir) / self.scenario
        root.mkdir(parents=True, exist_ok=True)
        meta_lines = [f"scenario: {self.scenario}", f"seed: {self.master_seed}"]
        for table in self.tables:
            (root / f"{table.name}.csv").write_text(table.render(meta_lines))
        # libyaml's emitter when PyYAML has it; both give the same bytes
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        (root / "metadata.yaml").write_text(yaml.dump(self.metadata(), Dumper=dumper,
                                                      sort_keys=True))
        return root

    def metadata(self) -> dict:
        """What ``write`` puts in ``metadata.yaml``."""
        return {
            "tool_version": __version__,
            "scenario": self.scenario,
            "config": self.config,
            "seed": self.master_seed,
            "threads": self.threads,
            "wall_time_s": round(self.wall_time, 3),
            "notes": self.notes,
            "tables": [t.name for t in self.tables],
        }


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False
