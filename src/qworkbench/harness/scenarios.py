"""Scenario registry: canned numerical experiments producing data tables.

Each scenario exposes typed default parameters (the override schema), the
range of each parameter (see :func:`.config.check_ranges`), a description,
and the name of its runner in :mod:`.runners`.  The registry is plain data
and this module imports nothing beyond the standard library's ``math`` and
``collections``, so listing and describing scenarios loads no numerical
module, no configuration or artifact module and no YAML; :func:`run_scenario`
loads the runners and the artifact module on its first call, and each
runner loads only its own physics module(s).
"""
from __future__ import annotations

import math
from collections import namedtuple


class InvariantBreach(RuntimeError):
    """A scenario-level correctness guarantee failed during the run."""


# ranges: parameter -> interval string; runner: the name of a function in .runners
Scenario = namedtuple("Scenario", "scenario_id description details defaults ranges runner")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS: dict = {}


def _register(scenario_id, description, details, defaults, ranges, runner):
    SCENARIOS[scenario_id] = Scenario(scenario_id, description, details,
                                      defaults, ranges, runner)


_register(
    "timecorr-2pt",
    "two-time spin correlators: probe-qubit protocol vs direct evaluation",
    "<sx(t) sx(0)> under H = (omega0/2) sz from |+> and |0>; the protocol "
    "value must match the matrix oracle to 1e-9 at every grid point.",
    {"omega0": 2.0, "t_max": 6.0, "n_points": 49},
    {"omega0": "(-inf, inf)", "t_max": "[0, inf)", "n_points": "[1, inf)"},
    "_run_timecorr_2pt")

_register(
    "timecorr-3pt-grid",
    "three-time correlator grid in a two-level free evolution",
    "<sy(t1+t2) sy(t1) sz(0)> on a millisecond grid under H = -100 pi sz, "
    "protocol vs oracle.",
    {"t_min": 0.5e-3, "t_max": 5.0e-3, "grid_points": 10},
    {"t_min": "[0, inf)", "t_max": "[0, inf)", "grid_points": "[1, inf)"},
    "_run_timecorr_3pt")

_register(
    "lindblad-reconstruction",
    "observable reconstruction from the truncated dissipative series",
    "amplitude-damped qubit: exact <sz>(t) against cumulative series orders "
    "with the trace-distance bound alongside.",
    {"gamma": 0.25, "order": 3, "t_max": 1.2, "n_points": 13},
    # the grid drops t = 0, so one point would leave an empty table
    {"gamma": "[0, inf)", "order": "[0, 6]", "t_max": "[0, inf)", "n_points": "[2, inf)"},
    "_run_lindblad_reconstruction")

_register(
    "lindblad-bounds",
    "trace-distance bound audit on random dissipative models",
    "random 1-2 qubit models: measured D1(exact, series_n) against "
    "(2 gamma_bar N t)^(n+1)/(2 (n+1)!) for n = 0..max_order.",
    {"n_models": 12, "max_order": 3},
    {"n_models": "[1, inf)", "max_order": "[0, 6]"},
    "_run_lindblad_bounds")

_register(
    "eqs-concurrence",
    "embedded two-qubit concurrence dynamics",
    "three-qubit embedded run of the ZZ entangler from |++>; the two "
    "enlarged-space observables must reproduce |sin 2gt| to 1e-9 and the "
    "five-gate controlled-Z identity is checked to 1e-12.",
    {"n_points": 64},
    {"n_points": "[1, inf)"},
    "_run_eqs_concurrence")

_register(
    "eqs-3tangle",
    "three-tangle dynamics with depolarizing and crosstalk noise",
    "embedded four-qubit circuit driving GHZ-type entanglement; tangle "
    "traces for ideal, depolarizing (with exact rescaling) and crosstalk "
    "runs.",
    {"omega": 1.0, "g": 2.0, "t_max": 3.0, "n_points": 13, "trotter_steps": 6,
     "gate_fidelities": [0.99, 0.97], "crosstalk": [0.01, 0.05]},
    # the grid drops t = 0, so one point would leave an empty table
    {"omega": "(-inf, inf)", "g": "(-inf, inf)", "t_max": "[0, inf)", "n_points": "[2, inf)",
     "trotter_steps": "[1, inf)", "gate_fidelities": "(0, 1]", "crosstalk": "(-inf, inf)"},
    "_run_eqs_3tangle")

_register(
    "qrm-regimes",
    "coupling-regime labels over the Rabi parameter plane",
    "classifier labels on a (omega0/omega, g/omega) grid.",
    {"omega0_min": -2.0, "omega0_max": 2.0, "n_omega0": 21,
     "g_min": 1e-3, "g_max": 10.0, "n_g": 25},
    {"omega0_min": "(-inf, inf)", "omega0_max": "(-inf, inf)", "n_omega0": "[1, inf)",
     "g_min": "(0, inf)", "g_max": "(0, inf)", "n_g": "[1, inf)"},
    "_run_qrm_regimes")

_register(
    "qrm-adiabatic",
    "adiabatic ground-state preparation fidelity vs ramp duration",
    "linear coupling ramps into the strong-coupling ground state; longer "
    "ramps must not lose fidelity.",
    {"n_max": 16, "g_final": 1.0, "durations": [3.0, 6.0, 12.0, 24.0, 48.0],
     "checkpoints": 7},
    {"n_max": "[1, inf)", "g_final": "(-inf, inf)", "durations": "(0, inf)",
     "checkpoints": "[2, inf)"},
    "_run_qrm_adiabatic")

_register(
    "twophoton-spectrum",
    "two-photon model spectrum and parity labels up to the collapse point",
    "lowest levels vs coupling with generalized-parity labels and the "
    "truncation shift at n_max+10 reported per level.",
    {"omega_q": 1.9, "n_levels": 8, "n_max": 120,
     "g_values": [0.1, 0.2, 0.3, 0.4, 0.45, 0.49]},
    # at most a quarter of the 2 (n_max + 1) levels; the model collapses at g = omega/2
    {"omega_q": "(-inf, inf)", "n_levels": "[1, (n_max + 1) / 2]", "n_max": "[1, inf)",
     "g_values": "(-0.5, 0.5)"},
    "_run_twophoton_spectrum")

_register(
    "twophoton-dynamics",
    "two-photon exchange dynamics of the effective model",
    "phonon number and qubit inversion from |g,2> under the two-photon "
    "Hamiltonian, with the Fock-cutoff convergence guard.",
    {"omega_q": 2.0, "g_over_omega": 0.2, "t_max": 30.0, "n_points": 121,
     "n_max": 40},
    # the start state |g,2> needs two phonons
    {"omega_q": "(-inf, inf)", "g_over_omega": "(-inf, inf)", "t_max": "[0, inf)",
     "n_points": "[1, inf)", "n_max": "[2, inf)"},
    "_run_twophoton_dynamics")

_register(
    "daqs-heisenberg",
    "digital-analog vs fully digital Heisenberg digitization",
    "power-law chain: per-state fidelities and operator defects for both "
    "routes over a time grid; the digital-analog route must not lose.",
    {"n_spins": 5, "alpha": 0.6, "benchmark_state": [1, 1, 0, 1, 1],
     "step_counts": [1, 2, 3], "jt_min": 0.15, "jt_max": 2.0 * math.pi / 3.0,
     "n_points": 7},
    {"n_spins": "[1, 12]", "alpha": "(0, 3)", "benchmark_state": "[0, 1] * n_spins",
     "step_counts": "[1, inf)", "jt_min": "[0, inf)", "jt_max": "[0, inf)",
     "n_points": "[1, inf)"},
    "_run_daqs_heisenberg")

_register(
    "cqed-rabi",
    "digitized Rabi dynamics across coupling presets",
    "Jaynes-Cummings steps plus flips: infidelity vs step count for four "
    "coupling presets at a fixed simulated phase g*t.",
    {"g_t": 2.0, "step_counts": [2, 4, 8, 16, 32], "n_max": 24},
    {"g_t": "[0, inf)", "step_counts": "[1, inf)", "n_max": "[1, inf)"},
    "_run_cqed_rabi")


def list_scenarios() -> list:
    return [(s.scenario_id, s.description, s.details)
            for s in SCENARIOS.values()]


def describe_scenario(scenario_id: str) -> Scenario:
    if scenario_id not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_id!r}; "
                       f"known: {sorted(SCENARIOS)}")
    return SCENARIOS[scenario_id]


def run_scenario(config):
    """Run ``config``'s scenario and return its :class:`.artifact.RunArtifact`."""
    from . import runners
    from .artifact import Stopwatch

    scenario = describe_scenario(config.scenario)
    params = config.resolved(scenario.defaults, scenario.ranges)
    runner = getattr(runners, scenario.runner)
    with Stopwatch() as clock:
        artifact = runner(params, config.master_seed, config.threads)
    artifact.wall_time = clock.elapsed
    artifact.threads = config.threads
    artifact.notes.setdefault(
        "unit_policy",
        "frequencies are nondimensional, in units of the reference frequency "
        "named by each column's unit tag; times in its inverse unless a "
        "column says otherwise")
    return artifact
