"""Scenario runners: the numerical experiments behind the registry.

Each ``_run_<name>`` takes the resolved parameters, the master seed and the
thread count, and returns a :class:`RunArtifact`.  The registry in
:mod:`.scenarios` names its runner as a string, and ``run_scenario`` imports
this module on its first call, so that listing and describing scenarios
loads neither numpy nor the physics modules.  This module loads numpy and
``qcore`` only: each runner imports the physics module(s) it calls, so a
run loads its own scenario's modules and no other.  A runner checks none
of its parameters: the registry declares each one's range, and the
configuration has checked them all before the runner starts.  Grid sweeps
run through :func:`parallel_map`, which preserves input order so results
are identical for any thread count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .. import qcore as qc
from .artifact import RunArtifact, Table
from .scenarios import InvariantBreach


def parallel_map(fn: Callable, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# time-correlation scenarios
# ---------------------------------------------------------------------------

def _run_timecorr_2pt(params, seed, threads) -> RunArtifact:
    from .. import timecorr

    omega0 = params["omega0"]
    space = qc.HilbertSpace.qubits(1)
    h = qc.Schedule.constant(qc.OperatorSum.single(space, 0, "Z", omega0 / 2,
                                                   hermitian=True))
    x = qc.OperatorSum.pauli_string(space, "X")
    states = {"plus": qc.plus_state(), "excited": qc.basis_state(space, [0])}
    grid = np.linspace(0.0, params["t_max"], params["n_points"])

    def one(args):
        name, t = args
        spec = timecorr.CorrelationSpec(h, (0.0, float(t)), (x, x), states[name])
        exact = timecorr.correlation_exact(spec)
        ancilla = timecorr.correlation_ancilla(spec)
        return (name, float(t), exact.real, exact.imag, ancilla.real,
                ancilla.imag, abs(ancilla - exact))

    jobs = [(name, t) for name in ("plus", "excited") for t in grid]
    rows = parallel_map(one, jobs, threads)
    worst = max(r[-1] for r in rows)
    if worst > 1e-9:
        raise InvariantBreach(f"ancilla/direct mismatch {worst:.3e} above 1e-9")
    table = Table("two_point", ("state", "t", "re_direct", "im_direct",
                                "re_ancilla", "im_ancilla", "abs_diff"),
                  ("label", "s", "1", "1", "1", "1", "1"), rows)
    return RunArtifact("timecorr-2pt", params, seed, threads, [table],
                       notes={"worst_mismatch": worst})


def _run_timecorr_3pt(params, seed, threads) -> RunArtifact:
    from .. import timecorr

    space = qc.HilbertSpace.qubits(1)
    h = qc.Schedule.constant(qc.OperatorSum.single(space, 0, "Z", -100.0 * math.pi,
                                                   hermitian=True))
    state = qc.plus_state()
    ops = (qc.OperatorSum.pauli_string(space, "Z"),
           qc.OperatorSum.pauli_string(space, "Y"),
           qc.OperatorSum.pauli_string(space, "Y"))
    t_grid = np.linspace(params["t_min"], params["t_max"], params["grid_points"])

    def one(args):
        t1, t2 = args
        spec = timecorr.CorrelationSpec(h, (0.0, t1, t1 + t2), ops, state)
        val = timecorr.correlation_ancilla(spec)
        exact = timecorr.correlation_exact(spec)
        return (t1, t2, val.real, val.imag, abs(val - exact))

    jobs = [(float(t1), float(t2)) for t1 in t_grid for t2 in t_grid]
    rows = parallel_map(one, jobs, threads)
    worst = max(r[-1] for r in rows)
    if worst > 1e-9:
        raise InvariantBreach(f"ancilla/direct mismatch {worst:.3e} above 1e-9")
    table = Table("three_point_grid", ("t1", "t2", "re", "im", "abs_diff"),
                  ("s", "s", "1", "1", "1"), rows)
    return RunArtifact("timecorr-3pt-grid", params, seed, threads, [table],
                       notes={"worst_mismatch": worst})


# ---------------------------------------------------------------------------
# open-system scenarios
# ---------------------------------------------------------------------------

def _damping_model(gamma: float):
    from .. import openmaster

    space = qc.HilbertSpace.qubits(1)
    return openmaster.LindbladModel(
        qc.OperatorSum.zero(space),
        [(qc.OperatorSum.single(space, 0, "S-"), gamma)])


def _exact_state(model, rho0, t):
    """(``openmaster.lindblad_exact``'s state, its trace drift |Tr rho - 1|).

    The exponential's squarings amplify rounding as rate times time grows,
    and the trace shows it: a drift above ``qc.DEFAULT_TOL``, or a trace so
    far off 1 that no density matrix is formed, is an invariant breach.
    """
    from .. import openmaster

    try:
        exact = openmaster.lindblad_exact(model, rho0, t)
    except ValueError as exc:  # the trace is grossly off 1
        raise InvariantBreach(f"t = {t}: exact state: {exc}") from exc
    drift = exact.trace_error
    if not drift <= qc.DEFAULT_TOL:
        raise InvariantBreach(f"t = {t}: the exact state's trace drifts by {drift:.3g}, "
                              f"above {qc.DEFAULT_TOL:g}")
    return exact, drift


def _run_lindblad_reconstruction(params, seed, threads) -> RunArtifact:
    from .. import openmaster

    gamma = params["gamma"]
    order = params["order"]
    model = _damping_model(gamma)
    space = model.space
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    obs = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
    grid = np.linspace(0.0, params["t_max"], params["n_points"])[1:]

    def one(t):
        state, drift = _exact_state(model, rho0, t)
        exact = qc.expectation(state, obs).real
        rec = openmaster.reconstruct(model, obs, rho0, t, order)
        bound = openmaster.truncation_bound(order, t, model.gamma_bar(t),
                                            model.n_channels)
        row = [float(t), exact] + [float(v) for v in np.cumsum(rec.per_order)] \
            + [bound, abs(rec.value - exact)]
        if abs(rec.value - exact) > 2.0 * bound + 1e-12:
            raise InvariantBreach("series error escaped the trace-distance bound")
        return tuple(row), drift

    rows, drifts = zip(*parallel_map(one, list(grid), threads))
    cols = ("t", "exact") + tuple(f"series_order_{k}" for k in range(order + 1)) \
        + ("bound", "abs_error")
    table = Table("reconstruction", cols, ("s",) + ("1",) * (len(cols) - 1), list(rows))
    return RunArtifact("lindblad-reconstruction", params, seed, threads, [table],
                       notes={"worst_trace_drift": max(drifts)})


def _random_lindblad_model(rng):
    """(n_qubits, model, rho0, t) for one random 1-2 qubit dissipative model."""
    from .. import openmaster

    n_qubits = int(rng.integers(1, 3))
    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = qc.Schedule.constant(0.5 * (m + m.conj().T), space)
    channels = []
    for _ in range(int(rng.integers(1, 3))):
        labels = "IXYZ"
        terms = [(complex(*rng.standard_normal(2)),
                  tuple(rng.choice(list(labels), size=n_qubits)))
                 for _ in range(int(rng.integers(1, 3)))]
        op = qc.OperatorSum(space, terms)
        if op.norm_inf() < 1e-9:
            op = qc.OperatorSum.pauli_string(space, "X" * n_qubits)
        channels.append((op, float(rng.uniform(0.05, 0.4))))
    model = openmaster.LindbladModel(h, channels)
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = rho @ rho.conj().T
    rho0 = qc.DensityMatrix(space, rho / np.trace(rho).real)
    t = float(rng.uniform(0.2, 0.7))
    return n_qubits, model, rho0, t


def _run_lindblad_bounds(params, seed, threads) -> RunArtifact:
    from .. import openmaster

    # every model is drawn before any is evaluated, so the rng stream and
    # the table do not depend on the thread count
    rng = np.random.default_rng(seed)
    models = [(model_idx,) + _random_lindblad_model(rng)
              for model_idx in range(params["n_models"])]

    def one(args):
        model_idx, n_qubits, model, rho0, t = args
        exact, drift = _exact_state(model, rho0, t)
        gb = model.gamma_bar(t)
        states = openmaster.truncated_states(model, rho0, t, params["max_order"])
        rows = []
        for n, tilde in enumerate(states):
            d1 = qc.trace_distance(exact, qc.DensityMatrix(model.space, tilde,
                                                            check_trace=False))
            bound = openmaster.truncation_bound(n, t, gb, model.n_channels)
            rows.append((model_idx, n_qubits, model.n_channels, t, gb, n, d1,
                         bound, bound - d1))
        return rows, drift

    results = parallel_map(one, models, threads)
    rows = [row for model_rows, _ in results for row in model_rows]
    violations = sum(1 for *_, d1, bound, _ in rows if d1 > bound + 1e-9)
    if violations:
        raise InvariantBreach(f"{violations} trace-distance bound violations")
    table = Table("bounds", ("model", "n_qubits", "n_channels", "t", "gamma_bar",
                             "order", "d1", "bound", "margin"),
                  ("index", "1", "1", "s", "1/s", "1", "1", "1", "1"), rows)
    return RunArtifact("lindblad-bounds", params, seed, threads, [table],
                       notes={"violations": violations,
                              "worst_trace_drift": max(drift for _, drift in results)})


# ---------------------------------------------------------------------------
# embedding scenarios
# ---------------------------------------------------------------------------

def _run_eqs_concurrence(params, seed, threads) -> RunArtifact:
    from .. import eqs

    grid = np.linspace(0.0, math.pi, params["n_points"])
    # H = -g ZZ embeds as g YZZ; the dynamics depends only on gt
    h = qc.OperatorSum.pauli_string(qc.HilbertSpace.qubits(2), "ZZ", -1.0)
    h_tilde = qc.Schedule.constant(eqs.embed_hamiltonian(h))
    psi0 = eqs.embed_state(qc.all_plus_state(2))
    spec = eqs.MonotoneSpec("Concurrence2", 2)

    def one(gt):
        state = qc.evolve(psi0, h_tilde, 0.0, gt)
        # |<psi|YY K|psi>| from the enlarged-space observables ZYY and XYY
        c_eqs = eqs.monotone(state, spec).value
        direct = abs(math.sin(2.0 * gt))
        return (float(gt), c_eqs, direct, abs(c_eqs - direct))

    rows = parallel_map(one, [float(x) for x in grid], threads)
    worst = max(r[-1] for r in rows)
    if worst > 1e-9:
        raise InvariantBreach(f"embedded concurrence off by {worst:.3e}")
    circuit_dev = max(
        float(np.linalg.norm(eqs.reduced_circuit_unitary(phi)
                             - eqs.reduced_circuit_target(phi), ord=2))
        for phi in np.linspace(0.0, math.pi, 9))
    table = Table("concurrence", ("gt", "c_embedded", "c_closed_form", "abs_diff"),
                  ("rad", "1", "1", "1"), rows)
    return RunArtifact("eqs-concurrence", params, seed, threads, [table],
                       notes={"worst_mismatch": worst,
                              "circuit_identity_deviation": circuit_dev})


def _run_eqs_3tangle(params, seed, threads) -> RunArtifact:
    from .. import eqs

    omega, g = params["omega"], params["g"]
    # H = omega (YII + IYI + IIY) + g XXX on the register, embedded
    h_tilde = eqs.embed_hamiltonian(qc.OperatorSum(qc.HilbertSpace.qubits(3), [
        (omega, "YII"), (omega, "IYI"), (omega, "IIY"), (g, "XXX")]))
    terms = [(c.real, "".join(factors)) for c, factors in h_tilde.terms]
    psi0 = qc.basis_state(h_tilde.space, [0, 0, 0, 0])
    grid = np.linspace(0.0, params["t_max"], params["n_points"])[1:]
    steps = params["trotter_steps"]
    eps_list = list(params["gate_fidelities"])
    xtalk_list = list(params["crosstalk"])
    h = qc.Schedule.constant(h_tilde)
    # read from the pairs (Z mu YY, X mu YY), mu = I, X, Z
    spec = eqs.MonotoneSpec("Tangle3", 3)

    def one(t):
        ideal = qc.evolve(psi0, h, 0.0, t)
        row = [float(t), eqs.monotone(ideal, spec).value]
        # per-gate depolarizing folds into one channel on the noiseless output
        clean, n_gates = eqs.trotter_embedded_circuit(terms, t, steps, psi0)
        rho = clean.to_density_matrix()
        for eps in eps_list:
            noisy = eqs.apply_depolarizing(rho, eps, n_gates)
            row.append(eqs.monotone(noisy, spec).value)
            try:
                row.append(eqs.monotone(noisy, spec, rescale=(eps, n_gates)).value)
            except ValueError as exc:  # the weight eps^n_gates underflowed
                raise InvariantBreach(f"t = {t}: {exc}") from exc
        for delta0 in xtalk_list:
            skew, _ = eqs.trotter_embedded_circuit(terms, t, steps, psi0, crosstalk=delta0)
            row.append(eqs.monotone(skew, spec).value)
        return tuple(row)

    rows = parallel_map(one, [float(t) for t in grid], threads)
    cols = ["t", "tangle_ideal"]
    for eps in eps_list:
        cols += [f"tangle_eps_{eps}", f"tangle_eps_{eps}_rescaled"]
    cols += [f"tangle_xtalk_{d}" for d in xtalk_list]
    table = Table("three_tangle", tuple(cols), ("1/omega",) + ("1",) * (len(cols) - 1), rows)
    return RunArtifact("eqs-3tangle", params, seed, threads, [table])


# ---------------------------------------------------------------------------
# ion and Rabi scenarios
# ---------------------------------------------------------------------------

def _run_qrm_regimes(params, seed, threads) -> RunArtifact:
    from .. import ionrabi

    omega = 1.0
    ratios0 = np.linspace(params["omega0_min"], params["omega0_max"], params["n_omega0"])
    ratios_g = np.geomspace(params["g_min"], params["g_max"], params["n_g"])

    def one(args):
        w0, g = args
        return (w0, g, ionrabi.classify_regime(
            ionrabi.RabiParams(omega0_r=w0, omega_r=omega, g=g)))

    rows = parallel_map(one, [(float(w0), float(g)) for w0 in ratios0 for g in ratios_g],
                        threads)
    table = Table("regimes", ("omega0_over_omega", "g_over_omega", "label"),
                  ("1", "1", "label"), rows)
    return RunArtifact("qrm-regimes", params, seed, threads, [table])


def _run_qrm_adiabatic(params, seed, threads) -> RunArtifact:
    from .. import ionrabi

    fam_base = ionrabi.RabiParams(omega0_r=1.0, omega_r=1.0, g=0.0)
    space = qc.HilbertSpace.qubit_boson(n_max=params["n_max"])
    h0 = ionrabi.qrm_hamiltonian(fam_base, params["n_max"]).matrix()
    coupling = qc.OperatorSum(space, [(-1.0, ("Y", "x"))]).matrix()

    def one(duration):
        out = ionrabi.adiabatic_ground_state(h0, coupling, params["g_final"], float(duration),
                                             space, n_checkpoints=params["checkpoints"],
                                             tol=1e-8)
        return (float(duration), out.final_fidelity, float(np.min(out.gaps)))

    rows = parallel_map(one, list(params["durations"]), threads)
    fids = [r[1] for r in rows]
    if any(b < a - 1e-6 for a, b in zip(fids, fids[1:])):
        raise InvariantBreach("longer ramps must not lose fidelity")
    table = Table("adiabatic", ("duration", "final_fidelity", "min_gap"),
                  ("1/omega", "1", "omega"), rows)
    return RunArtifact("qrm-adiabatic", params, seed, threads, [table])


def _run_twophoton_spectrum(params, seed, threads) -> RunArtifact:
    from .. import ionrabi

    n_levels, g_values = params["n_levels"], params["g_values"]

    def spectrum(chunk):
        return ionrabi.two_photon_spectrum(1.0, params["omega_q"], 1, chunk, n_levels,
                                           params["n_max"], check_convergence=False)

    # each call builds its two cutoffs' sector blocks once, so the grid goes
    # out as one contiguous chunk per thread: one call at --threads 1
    size = math.ceil(len(g_values) / threads)
    chunks = [g_values[i:i + size] for i in range(0, len(g_values), size)]
    points = [point for chunk in parallel_map(spectrum, chunks, threads) for point in chunk]
    label = {1.0 + 0j: "+1", -1.0 + 0j: "-1", 1j: "+i", -1j: "-i"}
    rows = [(point.g, level, float(point.energies[level]),
             label[point.parities[level]], float(point.truncation_shifts[level]))
            for point in points for level in range(n_levels)]
    table = Table("spectrum", ("g_over_omega", "level", "energy_over_omega",
                               "parity", "truncation_shift"),
                  ("1", "index", "1", "label", "1"), rows)
    return RunArtifact("twophoton-spectrum", params, seed, threads, [table])


def _run_twophoton_dynamics(params, seed, threads) -> RunArtifact:
    from .. import ionrabi

    omega = 1.0
    tp = ionrabi.TwoPhotonParams(omega=omega, omega_q=params["omega_q"],
                                 g=params["g_over_omega"])
    grid = np.linspace(0.0, params["t_max"], params["n_points"])

    def trace_for(n_max: int):
        h = qc.Schedule.constant(ionrabi.two_photon_hamiltonian(tp, 1, n_max))
        space = h.space
        psi0 = qc.basis_state(space, [1, 2])
        n_diag = qc.OperatorSum.single(space, -1, "n").matrix().diagonal().real
        z_diag = qc.OperatorSum.single(space, 0, "Z").matrix().diagonal().real
        out = []
        for t in grid:
            prob = np.abs(qc.evolve(psi0, h, 0.0, float(t)).amplitudes) ** 2
            out.append((float(t), float(np.sum(n_diag * prob)),
                        float(np.sum(z_diag * prob))))
        return out

    n_max = params["n_max"]
    base, again = parallel_map(trace_for, [n_max, n_max + 10], threads)
    drift = max(abs(a[1] - b[1]) for a, b in zip(base, again))
    if drift > 1e-6:
        raise qc.TruncationError(
            f"two-photon dynamics drifted {drift:.2e} between n_max={n_max} and +10")
    table = Table("dynamics", ("t", "mean_phonons", "qubit_z"),
                  ("1/omega", "1", "1"), base)
    return RunArtifact("twophoton-dynamics", params, seed, threads, [table],
                       notes={"truncation_drift": drift})


# ---------------------------------------------------------------------------
# digital-analog scenarios
# ---------------------------------------------------------------------------

def _run_daqs_heisenberg(params, seed, threads) -> RunArtifact:
    from .. import daqs

    coupling = daqs.SpinCouplingMatrix.power_law(params["n_spins"], 1.0,
                                                 params["alpha"])
    state = qc.qubit_register_state(params["benchmark_state"])
    states = {"bench": state}
    grid = np.linspace(params["jt_min"], params["jt_max"], params["n_points"])

    def one(args):
        steps, jt = args
        da = daqs.daqs_heisenberg(coupling, jt, steps, states)
        dg = daqs.digital_heisenberg(coupling, jt, steps, states)
        return (steps, float(jt), da.fidelities["bench"], dg.fidelities["bench"],
                da.trotter_defect, dg.trotter_defect)

    jobs = [(steps, float(jt)) for steps in params["step_counts"] for jt in grid]
    rows = parallel_map(one, jobs, threads)
    for steps, jt, f_da, f_dg, *_ in rows:
        if f_da < f_dg - 1e-12:
            raise InvariantBreach(
                f"digital route beat the digital-analog one at l={steps}, Jt={jt}")
    table = Table("heisenberg", ("steps", "jt", "fidelity_daqs", "fidelity_digital",
                                 "defect_daqs", "defect_digital"),
                  ("1", "rad", "1", "1", "1", "1"), rows)
    return RunArtifact("daqs-heisenberg", params, seed, threads, [table])


def _run_cqed_rabi(params, seed, threads) -> RunArtifact:
    from .. import daqs

    presets = {
        "g=wr2=wq2": dict(omega_r=2.0, omega_q=2.0, g=1.0),
        "g=wr=wq": dict(omega_r=1.0, omega_q=1.0, g=1.0),
        "g=2wr=wq": dict(omega_r=0.5, omega_q=1.0, g=1.0),
        "g=2wr=1.5wq": dict(omega_r=0.5, omega_q=2.0 / 3.0, g=1.0),
    }

    def one(name):
        pr = presets[name]
        runs = daqs.cqed_rabi_step_sweep(**pr, t=params["g_t"] / pr["g"],
                                         step_counts=params["step_counts"],
                                         n_max=params["n_max"])
        return [(name, run.plan.steps, 1.0 - run.fidelity, run.observables["n"],
                 run.observables["z"]) for run in runs]

    rows = [row for rows in parallel_map(one, list(presets), threads) for row in rows]
    table = Table("digitization", ("preset", "steps", "infidelity",
                                   "mean_photons", "qubit_z"),
                  ("label", "1", "1", "1", "1"), rows)
    return RunArtifact("cqed-rabi", params, seed, threads, [table])
