"""Registry, config validation, determinism, and CLI exit codes."""
import math
import warnings

import pytest

from qworkbench import harness
from qworkbench.harness.cli import main as cli_main


def test_registry_nonempty_unique_and_complete():
    listed = harness.list_scenarios()
    ids = [row[0] for row in listed]
    assert len(ids) == len(set(ids))
    required = {"timecorr-2pt", "timecorr-3pt-grid", "lindblad-reconstruction",
                "lindblad-bounds", "eqs-concurrence", "eqs-3tangle",
                "qrm-regimes", "qrm-adiabatic", "twophoton-spectrum",
                "twophoton-dynamics", "daqs-heisenberg", "cqed-rabi"}
    assert required <= set(ids)


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        harness.describe_scenario("no-such-scenario")


def test_unknown_parameter_rejected():
    config = harness.ScenarioConfig("timecorr-2pt", overrides={"bogus": 1})
    with pytest.raises(harness.ConfigError):
        harness.run_scenario(config)


SMOKE_OVERRIDES = {
    "timecorr-2pt": {"n_points": 5},
    "timecorr-3pt-grid": {"grid_points": 3},
    "lindblad-reconstruction": {"n_points": 4, "order": 2},
    "lindblad-bounds": {"n_models": 2, "max_order": 2},
    "eqs-concurrence": {"n_points": 9},
    "eqs-3tangle": {"n_points": 3, "trotter_steps": 3,
                    "gate_fidelities": [0.97], "crosstalk": [0.03]},
    "qrm-regimes": {"n_omega0": 5, "n_g": 5},
    "qrm-adiabatic": {"n_max": 8, "durations": [2.0, 4.0], "checkpoints": 4},
    "twophoton-spectrum": {"n_max": 60, "g_values": [0.1, 0.3]},
    "twophoton-dynamics": {"n_points": 11, "t_max": 6.0, "n_max": 30},
    "daqs-heisenberg": {"n_points": 3, "step_counts": [1, 2]},
    "cqed-rabi": {"step_counts": [2, 8], "n_max": 12},
}


@pytest.mark.parametrize("scenario_id", sorted(SMOKE_OVERRIDES))
def test_every_scenario_runs_small(scenario_id, tmp_path):
    config = harness.ScenarioConfig(scenario_id,
                                    overrides=dict(SMOKE_OVERRIDES[scenario_id]),
                                    master_seed=3, out_dir=str(tmp_path))
    artifact = harness.run_scenario(config)
    assert artifact.tables
    root = artifact.write(tmp_path)
    for table in artifact.tables:
        text = (root / f"{table.name}.csv").read_text()
        header_line = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header_line.split(",") == list(table.columns)
        assert any(line.startswith("# units:") for line in text.splitlines())
    assert (root / "metadata.yaml").exists()


def test_determinism_bit_for_bit(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        config = harness.ScenarioConfig("lindblad-bounds",
                                        overrides={"n_models": 2, "max_order": 2},
                                        master_seed=11, out_dir=str(out))
        harness.run_scenario(config).write(out)
    csv_a = (out_a / "lindblad-bounds" / "bounds.csv").read_bytes()
    csv_b = (out_b / "lindblad-bounds" / "bounds.csv").read_bytes()
    assert csv_a == csv_b


def test_thread_count_does_not_change_values(tmp_path):
    rows = {}
    for threads in (1, 4):
        config = harness.ScenarioConfig("timecorr-2pt", overrides={"n_points": 7},
                                        master_seed=2, threads=threads,
                                        out_dir=str(tmp_path / str(threads)))
        artifact = harness.run_scenario(config)
        rows[threads] = artifact.tables[0].rows
    assert rows[1] == rows[4]


def test_cli_list_and_describe(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "timecorr-2pt" in out
    assert cli_main(["describe", "eqs-concurrence"]) == 0
    out = capsys.readouterr().out
    assert "n_points" in out
    assert cli_main(["describe", "nope"]) == 2


def test_cli_run_and_exit_codes(tmp_path, capsys):
    code = cli_main(["run", "timecorr-2pt", "--set", "n_points=4",
                     "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "timecorr-2pt" / "two_point.csv").exists()
    # unknown scenario and unknown key are configuration errors
    assert cli_main(["run", "nope", "--out", str(tmp_path)]) == 2
    assert cli_main(["run", "timecorr-2pt", "--set", "bogus=1",
                     "--out", str(tmp_path)]) == 2
    # malformed --set
    assert cli_main(["run", "timecorr-2pt", "--set", "oops",
                     "--out", str(tmp_path)]) == 2


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: timecorr-2pt\nseed: 5\nparams:\n  n_points: 4\n")
    assert cli_main(["run", "timecorr-2pt", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    cfg_bad = tmp_path / "bad.yaml"
    cfg_bad.write_text("scenario: timecorr-2pt\nnot_a_key: 3\n")
    assert cli_main(["run", "timecorr-2pt", "--config", str(cfg_bad),
                     "--out", str(tmp_path)]) == 2


def test_invariant_breach_exit_code(tmp_path, monkeypatch):
    import qworkbench.harness.cli as cli_module

    def boom(config):
        raise harness.InvariantBreach("forced breach for the exit-code test")

    monkeypatch.setattr(cli_module, "run_scenario", boom)
    assert cli_module.main(["run", "timecorr-2pt", "--out", str(tmp_path)]) == 3


def test_truncation_guard_exit_code(tmp_path):
    # an absurdly small cutoff for the two-photon dynamics trips the guard
    code = cli_main(["run", "twophoton-dynamics", "--set", "n_max=12",
                     "--set", "g_over_omega=0.45", "--set", "t_max=12",
                     "--set", "n_points=7", "--out", str(tmp_path)])
    assert code == 4


# ---------------------------------------------------------------------------
# each command loads only what it uses: the registry is plain data, a run
# loads its own physics module(s), and YAML loads only to read or write
# ---------------------------------------------------------------------------

PHYSICS_MODULES = ("qworkbench.timecorr", "qworkbench.openmaster", "qworkbench.eqs",
                   "qworkbench.ionrabi", "qworkbench.daqs")
NUMERICAL_MODULES = ("numpy", "scipy", "qworkbench.qcore") + PHYSICS_MODULES
# list and describe need neither the configuration nor the artifact module,
# nor what those load: PyYAML and the dataclass machinery
UNUSED_BY_LIST = NUMERICAL_MODULES + ("yaml", "dataclasses", "qworkbench.harness.config",
                                      "qworkbench.harness.artifact")


def _loaded(names, modules) -> list:
    return [name for name in names
            if any(name == mod or name.startswith(mod + ".") for mod in modules)]


def _cli_imports(argv, timeout=60) -> tuple:
    """(stdout, modules imported) of ``python -X importtime -m
    qworkbench.harness.cli *argv``, which must exit 0."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qworkbench.harness.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2]
    return proc.stdout, imported


@pytest.mark.parametrize("argv", [["list"], ["describe", "eqs-3tangle"]])
def test_list_and_describe_import_no_numerical_module(argv):
    stdout, imported = _cli_imports(argv)
    assert "eqs-3tangle" in stdout
    assert "qworkbench.harness.scenarios" in imported
    assert _loaded(imported, UNUSED_BY_LIST) == []
    assert set(_loaded(imported, ("qworkbench",))) <= {
        "qworkbench", "qworkbench.harness", "qworkbench.harness.cli",
        "qworkbench.harness.scenarios"}


@pytest.mark.parametrize("scenario_id, physics", [
    ("qrm-regimes", ["qworkbench.ionrabi"]),
    ("timecorr-2pt", ["qworkbench.timecorr"]),
    ("daqs-heisenberg", ["qworkbench.daqs", "qworkbench.openmaster"]),
])
def test_run_loads_only_its_own_physics_modules(scenario_id, physics, tmp_path):
    _, imported = _cli_imports(["run", scenario_id, "--out", str(tmp_path)], timeout=120)
    assert sorted(_loaded(imported, PHYSICS_MODULES)) == sorted(physics)
    assert (tmp_path / scenario_id / "metadata.yaml").exists()


def test_importing_the_harness_loads_no_yaml():
    import json
    import subprocess
    import sys

    code = ("import json, sys\n"
            "import qworkbench.harness\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "qworkbench.harness.scenarios" in loaded
    assert _loaded(loaded, UNUSED_BY_LIST) == []


def test_deferred_public_names_still_resolve():
    from qworkbench import ionrabi, qcore
    from qworkbench.harness import artifact, config

    assert harness.ScenarioConfig is config.ScenarioConfig
    assert harness.load_config is config.load_config
    assert harness.ConfigError is config.ConfigError
    assert harness.Table is artifact.Table
    assert harness.RunArtifact is artifact.RunArtifact
    assert ionrabi.TruncationError is qcore.TruncationError
    assert all(getattr(harness, name) is not None for name in harness.__all__)
    with pytest.raises(AttributeError):
        harness.no_such_name


def test_every_runner_is_registered_and_every_registered_runner_exists():
    from qworkbench.harness import runners

    registered = {s.runner for s in harness.SCENARIOS.values()}
    assert all(callable(getattr(runners, name, None)) for name in registered)
    defined = {name for name, obj in vars(runners).items()
               if name.startswith("_run_") and callable(obj)}
    assert defined == registered


# ---------------------------------------------------------------------------
# malformed configuration is a configuration error (exit 2), not a crash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["nan", "1e400"])
def test_cli_non_finite_integer_override_is_config_error(value, tmp_path):
    assert cli_main(["run", "timecorr-2pt", "--set", f"n_points={value}",
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("line", ["seed: abc", "threads: x"])
def test_cli_yaml_non_integer_seed_or_threads_is_config_error(line, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"scenario: timecorr-2pt\n{line}\nparams:\n  n_points: 4\n")
    with pytest.raises(harness.ConfigError):
        harness.load_config(cfg)
    assert cli_main(["run", "timecorr-2pt", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_cli_yaml_scalar_for_list_parameter_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: cqed-rabi\nparams:\n  step_counts: 5\n")
    assert cli_main(["run", "cqed-rabi", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_yaml_list_elements_are_coerced_like_comma_strings(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: qrm-adiabatic\nparams:\n  durations: [3, '6']\n"
                   "  checkpoints: 4\n")
    config = harness.load_config(cfg)
    defaults = harness.describe_scenario("qrm-adiabatic").defaults
    durations = config.resolved(defaults)["durations"]
    assert durations == [3.0, 6.0]
    assert all(type(d) is float for d in durations)
    config = harness.ScenarioConfig("cqed-rabi", overrides={"step_counts": [2, 2.5]})
    with pytest.raises(harness.ConfigError):
        config.resolved(harness.describe_scenario("cqed-rabi").defaults)


def test_threads_below_one_is_config_error(tmp_path):
    assert cli_main(["run", "timecorr-2pt", "--set", "n_points=4", "--threads", "-3",
                     "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: timecorr-2pt\nthreads: 0\nparams:\n  n_points: 4\n")
    assert cli_main(["run", "timecorr-2pt", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "timecorr-2pt").exists()


def test_lindblad_bounds_uses_its_threads(monkeypatch):
    from qworkbench.harness import runners

    calls = []
    original = runners.parallel_map

    def recording(fn, items, threads):
        calls.append((len(items), threads))
        return original(fn, items, threads)

    monkeypatch.setattr(runners, "parallel_map", recording)
    rows = {}
    for threads in (1, 2):
        config = harness.ScenarioConfig("lindblad-bounds",
                                        overrides={"n_models": 3, "max_order": 2},
                                        master_seed=5, threads=threads)
        rows[threads] = harness.run_scenario(config).tables[0].rows
    assert calls == [(3, 1), (3, 2)]
    assert rows[1] == rows[2]


@pytest.mark.parametrize("scenario_id, overrides", [
    ("twophoton-spectrum", {"n_max": 40, "g_values": [0.1, 0.3, 0.45]}),
    ("qrm-regimes", {"n_omega0": 3, "n_g": 4}),
    ("twophoton-dynamics", {"n_points": 5, "t_max": 3.0, "n_max": 30}),
])
def test_serial_runners_use_their_threads(scenario_id, overrides, monkeypatch):
    from qworkbench.harness import runners

    calls = []
    original = runners.parallel_map

    def recording(fn, items, threads):
        calls.append(threads)
        return original(fn, items, threads)

    monkeypatch.setattr(runners, "parallel_map", recording)
    rows = {}
    for threads in (1, 2):
        config = harness.ScenarioConfig(scenario_id, overrides=dict(overrides),
                                        master_seed=0, threads=threads)
        rows[threads] = harness.run_scenario(config).tables[0].rows
    assert calls == [1, 2]
    assert rows[1] == rows[2]


def test_negative_seed_is_config_error(tmp_path):
    assert cli_main(["run", "lindblad-bounds", "--set", "n_models=1", "--seed", "-3",
                     "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: lindblad-bounds\nseed: -3\nparams:\n  n_models: 1\n")
    assert cli_main(["run", "lindblad-bounds", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "lindblad-bounds").exists()


@pytest.mark.parametrize("scenario_id, override", [
    ("qrm-adiabatic", "n_max=0"),
    ("twophoton-dynamics", "n_max=0"),
    ("cqed-rabi", "n_max=0"),
    ("twophoton-spectrum", "n_max=0"),
    ("twophoton-spectrum", "n_levels=61"),
    ("twophoton-dynamics", "n_points=0"),
    ("qrm-adiabatic", "durations="),
    ("cqed-rabi", "step_counts="),
    ("cqed-rabi", "step_counts=0,2"),
    ("timecorr-2pt", "n_points=0"),
    ("eqs-3tangle", "n_points=1"),
    ("daqs-heisenberg", "n_spins=3"),
    ("lindblad-reconstruction", "order=7"),
    ("daqs-heisenberg", "benchmark_state=2,0,0,0,0"),
    ("eqs-3tangle", "gate_fidelities=1.5"),
    ("eqs-3tangle", "gate_fidelities=0"),
    ("cqed-rabi", "g_t=-1"),
    ("timecorr-3pt-grid", "t_min=-1"),
    ("timecorr-2pt", "t_max=-1"),
    ("twophoton-dynamics", "t_max=-1"),
    ("daqs-heisenberg", "jt_min=-1"),
    ("timecorr-2pt", "t_max=nan"),
    ("twophoton-spectrum", "g_values=nan"),
    ("eqs-3tangle", "t_max=inf"),
    ("eqs-3tangle", "crosstalk=0.1,-inf"),
    ("qrm-regimes", "g_min=-1"),
    ("qrm-regimes", "g_min=0"),
    ("qrm-regimes", "g_max=0"),
    ("daqs-heisenberg", "alpha=0"),
    ("daqs-heisenberg", "alpha=-1"),
    ("daqs-heisenberg", "alpha=3"),
    ("twophoton-spectrum", "g_values=0.5"),
    ("lindblad-bounds", "max_order=7"),
    ("eqs-3tangle", "crosstalk="),
])
def test_bad_scenario_parameter_is_config_error(scenario_id, override, tmp_path):
    # each runner checks its counts, sizes and ranges before it does any
    # work, and no number may be NaN or infinite: no traceback, and no
    # scenario directory with an empty table
    assert cli_main(["run", scenario_id, "--set", override,
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / scenario_id).exists()


def test_digital_beating_digital_analog_is_an_invariant_breach(tmp_path):
    # at l = 1 and Jt = 3 the digital route wins: the run's claim fails and
    # says so (exit 3); the input itself is in range
    assert cli_main(["run", "daqs-heisenberg", "--set", "jt_min=3", "--set", "n_points=1",
                     "--set", "step_counts=1", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "daqs-heisenberg").exists()


def test_underflowing_depolarizing_weight_is_an_invariant_breach(tmp_path, capsys):
    # 1e-8 ** n_gates underflows to 0, so the rescaled column cannot be
    # formed: exit 3, no directory, and the message names eps and n_gates;
    # 1e-5 ** n_gates is still a normal number, and that run completes
    argv = ["run", "eqs-3tangle", "--set", "n_points=3", "--set", "crosstalk=0.03",
            "--out", str(tmp_path)]
    assert cli_main(argv + ["--set", "gate_fidelities=1e-8"]) == 3
    assert not (tmp_path / "eqs-3tangle").exists()
    assert "epsilon^n_gates = 1e-08^60 underflows" in capsys.readouterr().err
    assert cli_main(argv + ["--set", "gate_fidelities=1e-5"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_table_cell_is_an_invariant_breach(tmp_path, capsys):
    # omega0 = 1e308 is in its range, but the propagator's phases overflow;
    # the run names the first NaN cell, writes no table and prints no numpy
    # warning
    assert cli_main(["run", "timecorr-2pt", "--set", "omega0=1e308", "--set", "n_points=5",
                     "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "timecorr-2pt").exists()
    err = capsys.readouterr().err
    assert "table 'two_point', column 're_direct', row 3: non-finite value nan" in err


def test_overflowing_eigenbasis_phases_breach_with_no_numpy_warning():
    # at the defaults but omega0 = 1e308, w t overflows in the eigenbasis
    # phases exp(-i w t); the phases are formed with overflow ignored, so
    # the run's own check is what reports it
    config = harness.ScenarioConfig("timecorr-2pt", overrides={"omega0": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(harness.InvariantBreach,
                           match="table 'two_point', column 're_direct', row 29"):
            harness.run_scenario(config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", ["1e10", "1e14", "1e200"])
def test_exact_lindblad_trace_drift_is_an_invariant_breach(gamma, tmp_path, capsys):
    # the exponential's squarings amplify rounding as gamma * t grows, and
    # the exact state's trace shows it: a drift above qc.DEFAULT_TOL (1e10),
    # a trace grossly off 1 (1e14) and the scaling of 1e200, which
    # overflowed, all exit 3 with no directory and no numpy warning
    assert cli_main(["run", "lindblad-reconstruction", "--set", f"gamma={gamma}",
                     "--set", "n_points=3", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "lindblad-reconstruction").exists()
    assert "exact state" in capsys.readouterr().err


@pytest.mark.parametrize("scenario_id", sorted(row[0] for row in harness.list_scenarios()))
def test_metadata_renders_the_same_bytes_through_libyaml(scenario_id):
    # RunArtifact.write takes libyaml's CSafeDumper when PyYAML has it; it
    # must write what the pure-Python SafeDumper writes
    yaml = pytest.importorskip("yaml")
    if not hasattr(yaml, "CSafeDumper"):
        pytest.skip("PyYAML was built without libyaml")
    metadata = harness.run_scenario(harness.ScenarioConfig(scenario_id)).metadata()
    assert yaml.dump(metadata, Dumper=yaml.CSafeDumper, sort_keys=True) == \
        yaml.dump(metadata, Dumper=yaml.SafeDumper, sort_keys=True)


def test_exact_lindblad_trace_drift_is_recorded(tmp_path):
    import yaml

    from qworkbench import qcore as qc

    for argv in (["lindblad-reconstruction", "--set", "gamma=1e6", "--set", "n_points=3"],
                 ["lindblad-bounds", "--set", "n_models=2"]):
        assert cli_main(["run", *argv, "--out", str(tmp_path)]) == 0
        meta = yaml.safe_load((tmp_path / argv[0] / "metadata.yaml").read_text())
        assert 0.0 <= meta["notes"]["worst_trace_drift"] <= qc.DEFAULT_TOL


# ---------------------------------------------------------------------------
# every parameter's range is declared once, in the registry
# ---------------------------------------------------------------------------

def _interval(spec, params) -> tuple:
    """(low, high, closed_low, closed_high, count) of a registry range, its
    ends evaluated over the number parameters: the tests' own reading."""
    body, _, count = spec.partition(" * ")
    names = {k: v for k, v in params.items() if not isinstance(v, list)}
    low, high = (eval(end, {"inf": math.inf}, names) for end in body[1:-1].split(","))
    return low, high, body[0] == "[", body[-1] == "]", count or None


def _in_ranges(params, ranges) -> bool:
    for key, spec in ranges.items():
        low, high, closed_low, closed_high, count = _interval(spec, params)
        values = params[key] if isinstance(params[key], list) else [params[key]]
        if not values or (count and len(values) != params[count]):
            return False
        if not all(low < x < high or (closed_low and x == low) or (closed_high and x == high)
                   for x in values):
            return False
    return True


def test_every_parameter_declares_a_range_that_holds_its_default():
    for scenario in harness.SCENARIOS.values():
        assert set(scenario.ranges) == set(scenario.defaults), scenario.scenario_id
        assert _in_ranges(scenario.defaults, scenario.ranges), scenario.scenario_id
        start = dict(scenario.defaults, **SMOKE_OVERRIDES[scenario.scenario_id])
        assert _in_ranges(start, scenario.ranges), scenario.scenario_id


def test_registry_caps_are_the_physics_modules_caps():
    # the registry imports no physics module, so it writes the caps out
    from qworkbench import daqs, openmaster

    ranges = {sid: s.ranges for sid, s in harness.SCENARIOS.items()}
    for sid, key in (("lindblad-reconstruction", "order"), ("lindblad-bounds", "max_order")):
        assert _interval(ranges[sid][key], {})[:4] == (0, openmaster.MAX_ORDER, True, True)
    assert _interval(ranges["daqs-heisenberg"]["n_spins"], {})[1] == daqs.MAX_SPINS


def test_cli_describe_prints_each_range(capsys):
    assert cli_main(["describe", "twophoton-spectrum"]) == 0
    out = capsys.readouterr().out
    assert "n_levels = 8  in [1, (n_max + 1) / 2]" in out
    assert "g_values = [0.1, 0.2, 0.3, 0.4, 0.45, 0.49]  in (-0.5, 0.5)" in out


def _sweep_cases(scenario) -> list:
    """(key, value) overrides: 0, -1, each finite end and just past it, and
    nan, for every parameter (for a list, every element of the start list),
    and an empty list."""
    start = dict(scenario.defaults, **SMOKE_OVERRIDES[scenario.scenario_id])
    cases = []
    for key, default in scenario.defaults.items():
        is_list = isinstance(default, list)
        is_int = isinstance(default[0] if is_list else default, int)
        low, high, *_ = _interval(scenario.ranges[key], start)
        values = [0, -1, math.nan]
        for end, away in ((low, -1), (high, 1)):
            if math.isfinite(end):
                if is_int:
                    end = math.ceil(end) if away < 0 else math.floor(end)
                    values += [end, end + away]
                else:
                    values += [float(end), math.nextafter(end, away * math.inf)]
        for value in values:
            cases.append((key, [value] * len(start[key]) if is_list else value))
        if is_list:
            cases.append((key, []))
    return cases


def _as_text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


@pytest.mark.parametrize("scenario_id", sorted(SMOKE_OVERRIDES))
def test_override_sweep_never_crashes_or_writes_non_finite_cells(scenario_id, tmp_path):
    # each case starts from the smoke overrides; a case outside the declared
    # ranges exits 2 before any work, and one inside them exits 0, 3 or 4,
    # and never writes a NaN or infinite cell
    scenario = harness.describe_scenario(scenario_id)
    start = dict(scenario.defaults, **SMOKE_OVERRIDES[scenario_id])
    failures = []
    for i, (key, value) in enumerate(_sweep_cases(scenario)):
        out = tmp_path / str(i)
        argv = ["run", scenario_id, "--out", str(out)]
        for k, v in dict(SMOKE_OVERRIDES[scenario_id], **{key: value}).items():
            argv += ["--set", f"{k}={_as_text(v)}"]
        try:
            code = cli_main(argv)
        except Exception as exc:  # the CLI would exit 1 with a traceback
            failures.append(f"{key}={_as_text(value)}: {exc!r}")
            continue
        inside = _in_ranges(dict(start, **{key: value}), scenario.ranges)
        if code not in ((0, 3, 4) if inside else (2,)):
            failures.append(f"{key}={_as_text(value)}: exit {code}")
        elif code != 0:
            if (out / scenario_id).exists():
                failures.append(f"{key}={_as_text(value)}: exit {code} left a directory")
            continue
        for csv in (out / scenario_id).glob("*.csv"):
            for line in csv.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(number):
                        failures.append(f"{key}={_as_text(value)}: {cell} in {csv.name}")
    assert failures == []


# ---------------------------------------------------------------------------
# the physics runs on numpy alone: a run loads no scipy module
# ---------------------------------------------------------------------------

UNUSED_SCIPY = ("scipy",)


def _is_unused_scipy(name: str) -> bool:
    return any(name == mod or name.startswith(mod + ".") for mod in UNUSED_SCIPY)


def _subprocess_env() -> dict:
    import os
    from pathlib import Path

    import qworkbench

    return dict(os.environ, PYTHONPATH=str(Path(qworkbench.__file__).parents[1]),
                OPENBLAS_NUM_THREADS="1")


def test_run_with_the_stepper_imports_no_scipy_integrate(tmp_path):
    # qrm-adiabatic drives its ramp through qcore's adaptive stepper
    _, imported = _cli_imports(["run", "qrm-adiabatic", "--out", str(tmp_path)],
                               timeout=120)
    assert "qworkbench.qcore.evolve" in imported
    assert [name for name in imported if _is_unused_scipy(name)] == []


def test_no_scenario_loads_scipy_integrate():
    import json
    import subprocess
    import sys

    code = ("import json, sys\n"
            "from qworkbench import harness\n"
            "for sid, over in json.loads(sys.argv[1]).items():\n"
            "    harness.run_scenario(harness.ScenarioConfig(sid, overrides=over))\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(SMOKE_OVERRIDES)],
                          capture_output=True, text=True, env=_subprocess_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "qworkbench.harness.runners" in loaded
    assert [name for name in loaded if _is_unused_scipy(name)] == []
