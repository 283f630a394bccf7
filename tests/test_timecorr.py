"""Ancilla-protocol correlators: oracle equivalence, sampling, linear response."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qworkbench import qcore as qc
from qworkbench import timecorr as tc

from qcore_helpers import coherent_state, thermal_qubit


def qubit_schedule(coeff_z: float) -> qc.Schedule:
    space = qc.HilbertSpace.qubits(1)
    return qc.Schedule.constant(qc.OperatorSum.single(space, 0, "Z", coeff_z, hermitian=True))


def pauli_op(space, label, coeff=1.0):
    return qc.OperatorSum.pauli_string(space, label, coeff)


def random_hermitian_schedule(space, rng, scale=1.0) -> qc.Schedule:
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return qc.Schedule.constant(scale * 0.5 * (m + m.conj().T), space)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def test_exact_single_time_diagonal():
    # n=1, O=sigma_z, |0>, diagonal H, t=0 -> +1
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(0.73), (0.0,), (pauli_op(space, "Z"),),
                              qc.basis_state(space, [0]))
    assert abs(tc.correlation_exact(spec) - 1.0) < 1e-14


def test_exact_xx_correlator_plus_state():
    # <sigma_x(t) sigma_x(0)> with H=(w0/2) sigma_z on |+>: cos(w0 t).
    # Heisenberg rotation: sigma_x(t) = cos(w0 t) sigma_x - sin(w0 t) sigma_y
    # and <sigma_y sigma_x>_+ = i<sigma_z>_+ = 0, so the value is real.
    w0 = 1.7
    space = qc.HilbertSpace.qubits(1)
    for t in (0.0, 0.3, 1.1, 2.9):
        spec = tc.CorrelationSpec(qubit_schedule(w0 / 2), (0.0, t),
                                  (pauli_op(space, "X"), pauli_op(space, "X")),
                                  qc.plus_state())
        assert abs(tc.correlation_exact(spec) - math.cos(w0 * t)) < 1e-12


def test_exact_xx_correlator_complex_value():
    # Same correlator on |0>: exp(i w0 t)  (complex-valued correlator)
    w0 = 0.9
    space = qc.HilbertSpace.qubits(1)
    t = 1.3
    spec = tc.CorrelationSpec(qubit_schedule(w0 / 2), (0.0, t),
                              (pauli_op(space, "X"), pauli_op(space, "X")),
                              qc.basis_state(space, [0]))
    assert abs(tc.correlation_exact(spec) - np.exp(1j * w0 * t)) < 1e-12


def test_hermitian_symmetry():
    # <A(t)A(0)>* = <A(0)A(t)> for Hermitian A, via the general chain oracle
    rng = np.random.default_rng(42)
    space = qc.HilbertSpace.qubits(2)
    h = random_hermitian_schedule(space, rng)
    a = pauli_op(space, "XZ").matrix()
    state = qc.random_pure_state(space, rng)
    t = 0.8
    fwd = tc.heisenberg_chain_expectation(h, [(a, t), (a, 0.0)], state)
    rev = tc.heisenberg_chain_expectation(h, [(a, 0.0), (a, t)], state)
    assert abs(np.conj(fwd) - rev) < 1e-12


# ---------------------------------------------------------------------------
# ancilla protocol vs oracle
# ---------------------------------------------------------------------------

def test_ancilla_equals_exact_simple():
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(0.8), (0.0, 0.6),
                              (pauli_op(space, "X"), pauli_op(space, "Y")),
                              qc.plus_state())
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-12


def test_ancilla_equals_exact_randomized():
    rng = np.random.default_rng(123)
    labels = "IXYZ"
    for _ in range(60):
        n_qubits = int(rng.integers(1, 4))
        space = qc.HilbertSpace.qubits(n_qubits)
        h = random_hermitian_schedule(space, rng)
        n = int(rng.integers(1, 5))
        times = np.sort(rng.uniform(0.0, 2.0, size=n))
        ops = tuple(
            pauli_op(space, "".join(rng.choice(list(labels), size=n_qubits)))
            for _ in range(n)
        )
        state = qc.random_pure_state(space, rng)
        spec = tc.CorrelationSpec(h, tuple(times), ops, state)
        assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-9


def test_ancilla_mixed_state():
    rng = np.random.default_rng(7)
    space = qc.HilbertSpace.qubits(1)
    h = qubit_schedule(1.1)
    rho = thermal_qubit(0.35)
    spec = tc.CorrelationSpec(h, (0.0, 0.4, 0.9),
                              (pauli_op(space, "X"), pauli_op(space, "Y"),
                               pauli_op(space, "X")), rho)
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def test_ancilla_decomposes_non_pauli_operators():
    # sigma- is not unitary: the protocol must expand and sum
    space = qc.HilbertSpace.qubits(1)
    sm = qc.OperatorSum.single(space, 0, "S-")
    spec = tc.CorrelationSpec(qubit_schedule(0.9), (0.0, 0.7),
                              (sm, pauli_op(space, "X")), qc.plus_state())
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def test_ancilla_scalar_multiple_of_pauli():
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(0.9), (0.0, 0.5),
                              (pauli_op(space, "X", coeff=-2.5),
                               pauli_op(space, "Y", coeff=0.5j)),
                              qc.basis_state(space, [0]))
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def test_ancilla_zero_weight_pauli_string_is_zero():
    # a zero-coefficient string drops out of the expansion: the protocol
    # returns 0, as the exact oracle does, and divides by nothing
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(0.9), (0.0, 0.5),
                              (pauli_op(space, "X", coeff=0.0), pauli_op(space, "X")),
                              qc.plus_state())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tc.correlation_ancilla(spec) == 0.0 == tc.correlation_exact(spec)
        assert tc.correlation_ancilla(spec, tc.ShotPlan(shots=8)) == 0.0


def test_equal_times_match_single_time_product():
    # all t_k equal: correlator = <product of (Heisenberg) operators at that time>
    rng = np.random.default_rng(99)
    space = qc.HilbertSpace.qubits(2)
    h = random_hermitian_schedule(space, rng)
    state = qc.random_pure_state(space, rng)
    ops = (pauli_op(space, "XI"), pauli_op(space, "ZY"), pauli_op(space, "YY"))
    t = 0.75
    spec = tc.CorrelationSpec(h, (t, t, t), ops, state)
    got = tc.correlation_exact(spec)
    prod = ops[2].matrix() @ ops[1].matrix() @ ops[0].matrix()
    expected = tc.heisenberg_chain_expectation(h, [(prod, t)], state, t_ref=t)
    assert abs(got - expected) < 1e-12
    assert abs(tc.correlation_ancilla(spec) - expected) < 1e-10


def test_time_origin_shift_invariance():
    # constant H: shifting every time by the same offset leaves the
    # correlator unchanged (the state is prepared at the first time)
    rng = np.random.default_rng(71)
    space = qc.HilbertSpace.qubits(2)
    h = random_hermitian_schedule(space, rng)
    state = qc.random_pure_state(space, rng)
    ops = (pauli_op(space, "XZ"), pauli_op(space, "YI"), pauli_op(space, "ZZ"))
    base_times = (0.0, 0.4, 1.1)
    ref = tc.correlation_exact(tc.CorrelationSpec(h, base_times, ops, state))
    for shift in (0.7, 2.3):
        shifted = tuple(t + shift for t in base_times)
        spec = tc.CorrelationSpec(h, shifted, ops, state)
        assert abs(tc.correlation_exact(spec) - ref) < 1e-11
        assert abs(tc.correlation_ancilla(spec) - ref) < 1e-10


def test_ten_time_alternating_chain():
    # n=10 chain in the style of a two-level free evolution with fixed
    # 0.3 ms intervals under H = -100*pi*sigma_z (rad/s), initial
    # Rx(1.41*pi/2)|0>.  Operators alternate sigma_x (even slots) and
    # sigma_y (odd slots).
    space = qc.HilbertSpace.qubits(1)
    h = qubit_schedule(-100.0 * math.pi)
    theta = 1.41 * math.pi / 2.0
    rx = np.array([[math.cos(theta / 2), -1j * math.sin(theta / 2)],
                   [-1j * math.sin(theta / 2), math.cos(theta / 2)]])
    state = qc.PureState(space, rx @ np.array([1.0, 0.0]))
    times = tuple(0.3e-3 * k for k in range(10))
    ops = tuple(pauli_op(space, "X" if k % 2 == 0 else "Y") for k in range(10))
    spec = tc.CorrelationSpec(h, times, ops, state)
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def enlarged_space_coherence(spec, paulis):
    """<sigma_x> + i <sigma_y> of the explicit ancilla (x) system circuit.

    The ancilla (leftmost factor) starts in |+>, each gate is
    exp(-i |g><g| (x) (pi/2) P_k) on the 2d-dimensional space, and every
    segment evolves the system factor only.
    """
    d = spec.system.dim
    eye2 = np.eye(2)
    proj_g = np.diag([0.0, 1.0])
    gates = [expm(-0.5j * math.pi * np.kron(proj_g, p)) for p in paulis]
    segs = [np.kron(eye2, qc.propagator(spec.evolution, a, b))
            for a, b in zip(spec.times, spec.times[1:])]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    if isinstance(spec.initial, qc.PureState):
        rho = np.outer(np.kron(plus, spec.initial.amplitudes),
                       np.kron(plus, spec.initial.amplitudes).conj())
    else:
        rho = np.kron(np.outer(plus, plus), spec.initial.matrix)
    rho = gates[0] @ rho @ gates[0].conj().T
    for v, g in zip(segs, gates[1:]):
        u = g @ v
        rho = u @ rho @ u.conj().T
    sx = np.kron(qc.dense_pauli("X"), np.eye(d))
    sy = np.kron(qc.dense_pauli("Y"), np.eye(d))
    return np.trace(sx @ rho) + 1j * np.trace(sy @ rho)


def test_ancilla_matches_enlarged_space_circuit():
    rng = np.random.default_rng(2718)
    for trial in range(40):
        n_qubits = int(rng.integers(1, 3))
        space = qc.HilbertSpace.qubits(n_qubits)
        h = random_hermitian_schedule(space, rng)
        n = int(rng.integers(1, 5))
        times = tuple(np.sort(rng.uniform(0.0, 2.0, size=n)))
        labels = ["".join(rng.choice(list("IXYZ"), size=n_qubits)) for _ in range(n)]
        if trial % 2:
            state = qc.random_pure_state(space, rng)
        else:
            a = rng.standard_normal((space.dim,) * 2) + 1j * rng.standard_normal((space.dim,) * 2)
            rho = a @ a.conj().T
            state = qc.DensityMatrix(space, rho / np.trace(rho))
        spec = tc.CorrelationSpec(h, times, tuple(pauli_op(space, lbl) for lbl in labels), state)
        coherence = enlarged_space_coherence(spec, [qc.dense_pauli(lbl) for lbl in labels])
        assert abs(tc.correlation_ancilla(spec) - (1j ** n) * coherence) < 1e-12


def test_segment_propagators_computed_once(monkeypatch):
    calls = []
    real = tc.propagator

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tc, "propagator", counting)
    # sigma- expands into two Pauli chains
    space = qc.HilbertSpace.qubits(1)
    sm = qc.OperatorSum.single(space, 0, "S-")
    tc.correlation_ancilla(tc.CorrelationSpec(qubit_schedule(0.9), (0.0, 0.7),
                                              (sm, pauli_op(space, "X")), qc.plus_state()))
    assert len(calls) == 1
    # a spin-boson operator is the one gate -iB, so the protocol runs once
    calls.clear()
    jc_space = qc.HilbertSpace.qubit_boson(n_max=8)
    sx = qc.OperatorSum.single(jc_space, 0, "X")
    bx = qc.OperatorSum(jc_space, [(1.0, ("I", "x"))])
    tc.correlation_ancilla(tc.CorrelationSpec(jc_schedule(jc_space, 1.0), (0.0, 0.9), (sx, bx),
                                              qc.basis_state(jc_space, [0, 0])))
    assert len(calls) == 1
    # four Jordan-Wigner entries expand into sixteen Pauli chains
    calls.clear()
    space3 = qc.HilbertSpace.qubits(3)
    h3 = random_hermitian_schedule(space3, np.random.default_rng(3))
    entries = ((0, False, 0.0), (2, True, 0.3), (1, False, 0.7), (1, True, 1.1))
    tc.correlation_fermionic(h3, entries, qc.basis_state(space3, [0, 1, 0]))
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# sampled mode
# ---------------------------------------------------------------------------

def test_sampled_deterministic_and_near_exact():
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(1.0), (0.0, 0.4),
                              (pauli_op(space, "X"), pauli_op(space, "X")),
                              qc.plus_state())
    plan = tc.ShotPlan(shots=40000, master_seed=11)
    est1 = tc.correlation_ancilla(spec, plan)
    est2 = tc.correlation_ancilla(spec, plan)
    assert est1 == est2  # bit-identical reruns
    assert abs(est1 - tc.correlation_exact(spec)) < 0.03


def test_sampled_unbiased_and_scaling():
    # mean over seeds approaches the exact value at ~1/sqrt(shots)
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(1.0), (0.0, 0.9),
                              (pauli_op(space, "X"), pauli_op(space, "X")),
                              qc.plus_state())
    exact = tc.correlation_exact(spec)
    errs = {}
    for shots in (256, 4096):
        vals = [tc.correlation_ancilla(spec, tc.ShotPlan(shots, seed))
                for seed in range(160)]
        errs[shots] = np.sqrt(np.mean(np.abs(np.array(vals) - exact) ** 2))
        assert abs(np.mean(vals) - exact) < 5.0 * errs[shots] / math.sqrt(160)
    ratio = errs[256] / errs[4096]
    assert 2.0 < ratio < 8.0  # expect 4x for 16x shots


def test_shot_validity_bound():
    # L = ceil(4(1+c)/delta^2) observations per ancilla observable keep the
    # estimate within delta with failure probability <= e^{-c}; checked
    # empirically with a generous slack on 200 trials.
    c, delta = 3.0, 0.05
    L = math.ceil(4.0 * (1.0 + c) / delta ** 2)
    space = qc.HilbertSpace.qubits(1)
    spec = tc.CorrelationSpec(qubit_schedule(0.7), (0.0, 0.8),
                              (pauli_op(space, "X"), pauli_op(space, "X")),
                              qc.plus_state())
    exact = tc.correlation_exact(spec)
    failures = 0
    trials = 200
    for seed in range(trials):
        est = tc.correlation_ancilla(spec, tc.ShotPlan(shots=2 * L, master_seed=seed))
        if abs(est - exact) > delta:
            failures += 1
    assert failures / trials <= math.exp(-c) + 0.02


# ---------------------------------------------------------------------------
# spin-boson operators: the gate -iB
# ---------------------------------------------------------------------------

def jc_schedule(space, g):
    return qc.Schedule.constant(
        qc.OperatorSum(space, [(g, ("S+", "a")), (g, ("S-", "adag"))], hermitian=True))


def test_bosonic_coherent_mean():
    # <(a+a^dag)(0)> on |alpha>, real alpha -> 2 alpha
    alpha = 0.8
    state = coherent_state(20, alpha)
    space = state.space
    h = qc.Schedule.constant(qc.OperatorSum.single(space, 0, "n", 1.0, hermitian=True))
    op = qc.OperatorSum.single(space, 0, "x")
    spec = tc.CorrelationSpec(h, (0.0,), (op,), state)
    got = tc.correlation_ancilla(spec)
    assert abs(got - 2.0 * alpha) < 1e-12


def test_bosonic_two_time_vs_oracle():
    # <(a+a^dag)(t) sigma_x(0)> under a JC coupling from |e,0>
    space = qc.HilbertSpace.qubit_boson(n_max=12)
    h = jc_schedule(space, 1.0)
    state = qc.basis_state(space, [0, 0])
    sx = qc.OperatorSum.single(space, 0, "X")
    bx = qc.OperatorSum(space, [(1.0, ("I", "x"))])
    spec = tc.CorrelationSpec(h, (0.0, 0.9), (sx, bx), state)
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-12


def test_bosonic_flagged_pauli_factor():
    # flagged operator sigma_z (x) (a+a^dag)
    space = qc.HilbertSpace.qubit_boson(n_max=10)
    h = jc_schedule(space, 0.7)
    state = qc.basis_state(space, [0, 1])
    zb = qc.OperatorSum(space, [(1.0, ("Z", "x"))])
    sx = qc.OperatorSum.single(space, 0, "X")
    spec = tc.CorrelationSpec(h, (0.0, 0.5), (sx, zb), state)
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-12


def test_bosonic_zero_weight_flagged_operator_is_zero():
    # a flagged operator of weight 0 gives 0j, as the exact correlator
    # does, with no warning
    space = qc.HilbertSpace.qubit_boson(n_max=12)
    zero = qc.OperatorSum(space, [(0.0, ("I", "x"))])
    sx = qc.OperatorSum.single(space, 0, "X")
    spec = tc.CorrelationSpec(jc_schedule(space, 1.0), (0.0, 0.9), (sx, zero),
                              qc.basis_state(space, [0, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tc.correlation_ancilla(spec) == 0j
    assert tc.correlation_exact(spec) == 0j


def test_bosonic_zero_operator_is_zero():
    # no terms, no chains: 0j, as the exact correlator gives
    space = qc.HilbertSpace.qubit_boson(n_max=4)
    ops = (qc.OperatorSum.single(space, 0, "X"), qc.OperatorSum.zero(space))
    spec = tc.CorrelationSpec(jc_schedule(space, 1.0), (0.0, 0.6), ops,
                              qc.basis_state(space, [0, 1]))
    assert tc.correlation_ancilla(spec) == 0j
    assert tc.correlation_exact(spec) == 0j


def test_bosonic_sum_of_spin_boson_terms_matches_exact():
    # X (x) x + Y (x) x is read term by term, one gate -iB per term
    space = qc.HilbertSpace.qubit_boson(n_max=4)
    ops = (qc.OperatorSum(space, [(1.0, ("X", "x")), (1.0, ("Y", "x"))]),
           qc.OperatorSum.single(space, 0, "Z"))
    spec = tc.CorrelationSpec(jc_schedule(space, 0.8), (0.0, 0.7), ops,
                              seeded_low_photon_state(space, n_low=2))
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-12


def seeded_low_photon_state(space, n_low=3, seed=7):
    # random amplitudes on photon numbers 0..n_low of every qubit level
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    v[np.arange(space.dim) % space.factors[-1].dim > n_low] = 0
    return qc.PureState(space, v / np.linalg.norm(v))


def test_bosonic_three_flagged_operators_match_exact():
    # each flagged operator is the exact gate -iB, so the error is
    # roundoff, not a stencil's truncation or roundoff amplified as
    # eps/h^3 by nested differences of O(1) signals, which left 1.6e-6 here
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    ops = tuple(qc.OperatorSum(space, [(1.0, (p, "x"))]) for p in "IZX")
    spec = tc.CorrelationSpec(jc_schedule(space, 0.8), (0.0, 0.4, 0.9), ops,
                              seeded_low_photon_state(space))
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def test_bosonic_complex_weight_flagged_operator():
    space = qc.HilbertSpace.qubit_boson(n_max=8)
    ops = (qc.OperatorSum.single(space, 0, "X"), qc.OperatorSum(space, [(0.3 + 0.4j, ("Y", "x"))]))
    spec = tc.CorrelationSpec(jc_schedule(space, 0.8), (0.0, 0.7), ops,
                              seeded_low_photon_state(space))
    assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-10


def test_bosonic_protocol_runs_once_per_chain(monkeypatch):
    # one chain of single-term operators runs the protocol once; a signal
    # per point of a four-point stencil would take 4^2 = 16 runs
    calls = []
    real = tc._branch_coherence

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tc, "_branch_coherence", counting)
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    ops = (qc.OperatorSum(space, [(1.0, ("I", "x"))]), qc.OperatorSum.single(space, 0, "X"),
           qc.OperatorSum(space, [(1.0, ("Z", "x"))]))
    spec = tc.CorrelationSpec(jc_schedule(space, 0.8), (0.0, 0.4, 0.9), ops,
                              seeded_low_photon_state(space))
    tc.correlation_ancilla(spec)
    assert len(calls) == 1


def rabi_schedule(space, w, wq, g, g_anti):
    # w a^dag a + wq Z/2 with JC coupling g and anti-JC coupling g_anti
    return qc.Schedule.constant(qc.OperatorSum(space, [
        (w, ("I", "n")), (wq / 2, ("Z", "I")), (g, ("S+", "a")), (g, ("S-", "adag")),
        (g_anti, ("S+", "adag")), (g_anti, ("S-", "a"))], hermitian=True))


def rabi_sweep_specs(m):
    """20 seeded specs with m flagged operators (P, "x"): one qubit (x) one
    mode at n_max 6-13 under a Rabi-type H, 0-1 plain Pauli strings, unit
    or complex weights, pure or mixed low-photon states."""
    for seed in range(100 * m, 100 * m + 20):
        rng = np.random.default_rng(seed)
        space = qc.HilbertSpace.qubit_boson(n_max=int(rng.integers(6, 14)))
        h = rabi_schedule(space, *rng.uniform(0.5, 1.5, 2), *rng.uniform(0.1, 0.6, 2))
        terms = [(P, "x") for P in rng.choice(list("IXYZ"), size=m)]
        terms += [(P, "I") for P in rng.choice(list("XYZ"), size=int(rng.integers(0, 2)))]
        ops = []
        for k in rng.permutation(len(terms)):
            weight = 1.0 if rng.random() < 0.5 else complex(*rng.standard_normal(2))
            ops.append(qc.OperatorSum(space, [(weight, terms[k])]))
        times = tuple(np.sort(rng.uniform(0.0, 1.5, size=len(ops))))
        low = [seeded_low_photon_state(space, seed=int(rng.integers(1 << 30))).amplitudes
               for _ in range(3)]
        if seed % 2:
            state = qc.PureState(space, low[0])
        else:
            rho = sum(p * np.outer(v, v.conj()) for p, v in zip(rng.dirichlet(np.ones(3)), low))
            state = qc.DensityMatrix(space, rho)
        yield tc.CorrelationSpec(h, times, tuple(ops), state)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bosonic_sweep_matches_exact(m):
    # the gate -iB is exact: on 20 seeded Rabi-model specs per flagged
    # count, the protocol agrees with the direct evaluation to roundoff
    for spec in rabi_sweep_specs(m):
        assert abs(tc.correlation_ancilla(spec) - tc.correlation_exact(spec)) < 1e-12


def test_sampling_refuses_a_spin_boson_operator():
    # -iB is not unitary, so no shot outcomes can be drawn for it; the
    # error names the operator by its position and its term
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    ops = (qc.OperatorSum.single(space, 0, "X"), qc.OperatorSum(space, [(0.5, ("Z", "x"))]))
    spec = tc.CorrelationSpec(jc_schedule(space, 1.0), (0.0, 0.9), ops,
                              qc.basis_state(space, [0, 0]))
    with pytest.raises(ValueError, match=r"^operator 1, \(0\.5\+0j\) \* Z \(x\) x, is spin-boson"):
        tc.correlation_ancilla(spec, tc.ShotPlan(shots=8))
    # every term is checked, not only the first
    mixed = qc.OperatorSum(space, [(1.0, ("X", "I")), (0.5, ("Z", "x"))])
    with pytest.raises(ValueError, match=r"^operator 0, \(0\.5\+0j\) \* Z \(x\) x, is spin-boson"):
        tc.correlation_ancilla(tc.CorrelationSpec(spec.evolution, spec.times, (mixed, ops[0]),
                                                  spec.initial), tc.ShotPlan(shots=8))
    # Pauli strings on the same space still sample
    pauli_only = tc.CorrelationSpec(spec.evolution, spec.times, (ops[0], ops[0]), spec.initial)
    tc.correlation_ancilla(pauli_only, tc.ShotPlan(shots=8))


# ---------------------------------------------------------------------------
# fermionic variant
# ---------------------------------------------------------------------------

def test_fermionic_algebra():
    space = qc.HilbertSpace.qubits(3)
    for p in range(3):
        for q in range(3):
            bp = tc.fermion_operator_dense(space, p, dagger=False)
            bqd = tc.fermion_operator_dense(space, q, dagger=True)
            anti = bp @ bqd + bqd @ bp
            expected = np.eye(8) if p == q else np.zeros((8, 8))
            assert np.max(np.abs(anti - expected)) < 1e-14


def test_jordan_wigner_matches_dense():
    space = qc.HilbertSpace.qubits(3)
    for p in range(3):
        for dagger in (False, True):
            jw = sum(c * qc.dense_pauli(lbl)
                     for c, lbl in tc.jordan_wigner_terms(space, p, dagger))
            direct = tc.fermion_operator_dense(space, p, dagger)
            assert np.max(np.abs(jw - direct)) < 1e-14


def test_fermionic_occupation():
    space = qc.HilbertSpace.qubits(2)
    h = qc.Schedule.constant(qc.OperatorSum.zero(space))
    vacuum = qc.basis_state(space, [1, 1])      # all modes empty (|g> = |1>)
    occupied = qc.basis_state(space, [1, 0])    # mode 1 occupied
    # <b^dag_1(0) b_1(0)>
    entries = ((1, False, 0.0), (1, True, 0.0))
    assert abs(tc.correlation_fermionic(h, entries, vacuum)) < 1e-12
    assert abs(tc.correlation_fermionic(h, entries, occupied) - 1.0) < 1e-12


def test_fermionic_hopping_two_point():
    # <b^dag_1(t) b_0(0)> under H = J (b^dag_0 b_1 + b^dag_1 b_0),
    # ancilla path vs the dense occupation-number oracle
    space = qc.HilbertSpace.qubits(2)
    j = 0.9
    b0 = tc.fermion_operator_dense(space, 0, dagger=False)
    b1 = tc.fermion_operator_dense(space, 1, dagger=False)
    hmat = j * (b0.conj().T @ b1 + b1.conj().T @ b0)
    h = qc.Schedule.constant(hmat, space)
    state_amps = np.zeros(4, dtype=complex)
    # superposition of "mode 0 occupied" and "mode 1 occupied"
    occ0 = qc.basis_state(space, [0, 1]).amplitudes
    occ1 = qc.basis_state(space, [1, 0]).amplitudes
    state = qc.PureState(space, (occ0 + occ1) / math.sqrt(2.0))
    t = 0.6
    got = tc.correlation_fermionic(h, ((0, False, 0.0), (1, True, t)), state)
    expected = tc.heisenberg_chain_expectation(
        h, [(b1.conj().T, t), (b0, 0.0)], state)
    assert abs(got - expected) < 1e-10


def test_fermionic_chains_draw_distinct_streams(monkeypatch):
    # each Jordan-Wigner chain draws its shots from its own stream
    space = qc.HilbertSpace.qubits(3)
    rng = np.random.default_rng(17)
    h = random_hermitian_schedule(space, rng)
    state = qc.random_pure_state(space, rng)
    entries = ((2, False, 0.0), (0, True, 0.8))
    keys = []
    real = tc.shot_uniforms

    def spy(seed, stream, shape):
        keys.append((seed, stream))
        return real(seed, stream, shape)

    monkeypatch.setattr(tc, "shot_uniforms", spy)
    tc.correlation_fermionic(h, entries, state, plan=tc.ShotPlan(shots=64, master_seed=5))
    assert keys == [(5, 0), (5, 1), (5, 2), (5, 3)]
    b2 = tc.fermion_operator_dense(space, 2, dagger=False)
    b0d = tc.fermion_operator_dense(space, 0, dagger=True)
    expected = tc.heisenberg_chain_expectation(h, [(b0d, 0.8), (b2, 0.0)], state)
    assert abs(tc.correlation_fermionic(h, entries, state) - expected) < 1e-10


def test_fermionic_correlator_on_seven_modes_builds_no_pauli_basis(monkeypatch):
    # a ladder operator is a sum of two Pauli strings: it reaches the
    # protocol term by term, in sorted label order, read from its own terms
    # by qc.pauli_terms, so no dense operator and no 4^n basis is built
    space = qc.HilbertSpace.qubits(7)
    rng = np.random.default_rng(18)
    h = random_hermitian_schedule(space, rng)
    state = qc.random_pure_state(space, rng)

    def refuse(*args):
        raise AssertionError("a sum of Pauli strings was made dense")

    monkeypatch.setattr(qc.OperatorSum, "matrix", refuse)
    b6 = tc.fermion_operator_dense(space, 6, dagger=False)
    b1d = tc.fermion_operator_dense(space, 1, dagger=True)
    expected = tc.heisenberg_chain_expectation(h, [(b1d, 0.7), (b6, 0.0)], state)
    got = tc.correlation_fermionic(h, ((6, False, 0.0), (1, True, 0.7)), state)
    assert abs(got - expected) < 1e-10
    op = qc.OperatorSum(space, [(0.4, "ZIIIIIX"), (-0.2j, "IIIIIIY"), (0.3, "XIIIIII")])
    terms = tc._protocol_terms(op)
    assert [c for c, _ in terms] == [-0.2j, 0.3, 0.4]
    y = qc.random_pure_state(space, np.random.default_rng(19)).amplitudes
    for (_, action), lbl in zip(terms, ("IIIIIIY", "XIIIIII", "ZIIIIIX"), strict=True):
        assert np.array_equal(action(y), -1j * qc.dense_pauli(lbl) @ y)


# ---------------------------------------------------------------------------
# linear response
# ---------------------------------------------------------------------------

def test_response_commuting_observables_vanishes():
    space = qc.HilbertSpace.qubits(1)
    h = qubit_schedule(1.3)
    z = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
    grid = np.linspace(0.0, 2.0, 21)
    phi = tc.response_function(h, z, z, qc.basis_state(space, [0]), grid)
    assert np.max(np.abs(phi)) < 1e-12


def test_response_matches_analytic_sine():
    # A=B=sigma_x, H=(w0/2) sigma_z: phi(u) = -2 sin(w0 u) <sigma_z>, so
    # a thermal state just rescales the pure-state result by its polarization
    w0 = 1.9
    space = qc.HilbertSpace.qubits(1)
    h = qubit_schedule(w0 / 2)
    x = qc.OperatorSum.single(space, 0, "X", hermitian=True)
    grid = np.linspace(0.0, 3.0, 31)
    phi = tc.response_function(h, x, x, qc.basis_state(space, [0]), grid)
    assert np.max(np.abs(phi - (-2.0 * np.sin(w0 * grid)))) < 1e-10
    thermal = thermal_qubit(0.3)   # <sigma_z> = 0.4
    phi_th = tc.response_function(h, x, x, thermal, grid)
    assert np.max(np.abs(phi_th - (-0.8 * np.sin(w0 * grid)))) < 1e-10


def test_response_motional_operator():
    space = qc.HilbertSpace.qubit_boson(n_max=10)
    h = jc_schedule(space, 0.8)
    a_op = qc.OperatorSum.single(space, 0, "X", hermitian=True)
    b_op = qc.OperatorSum(space, [(1.0, ("I", "x"))], hermitian=True)
    state = qc.basis_state(space, [0, 0])
    grid = np.linspace(0.0, 1.5, 10)
    phi = tc.response_function(h, a_op, b_op, state, grid)
    # oracle: phi = i(<B(t)A> - <A B(t)>)
    for tau, val in zip(grid, phi):
        c = tc.heisenberg_chain_expectation(
            h, [(b_op.matrix(), tau), (a_op.matrix(), 0.0)], state)
        assert abs(val - (-2.0 * c.imag)) < 1e-6


def test_response_spin_boson_pair_matches_chain_oracle():
    # A and B both spin-boson, so each chain holds two non-unitary gates,
    # on a mixed state of a Rabi-type model
    space = qc.HilbertSpace.qubit_boson(n_max=9)
    h = rabi_schedule(space, 1.0, 0.8, 0.3, 0.1)
    a_op = qc.OperatorSum(space, [(0.6, ("X", "x"))], hermitian=True)
    b_op = qc.OperatorSum(space, [(-1.3, ("Z", "x"))], hermitian=True)
    low = [seeded_low_photon_state(space, seed=s).amplitudes for s in (3, 4)]
    state = qc.DensityMatrix(space, 0.7 * np.outer(low[0], low[0].conj())
                             + 0.3 * np.outer(low[1], low[1].conj()))
    grid = np.linspace(0.0, 2.0, 9)
    phi = tc.response_function(h, a_op, b_op, state, grid)
    for tau, val in zip(grid, phi):
        c = tc.heisenberg_chain_expectation(
            h, [(b_op.matrix(), tau), (a_op.matrix(), 0.0)], state)
        assert abs(val - (-2.0 * c.imag)) < 1e-12


def test_susceptibility_static_limit_and_nyquist():
    grid = np.linspace(0.0, 2.0, 101)
    phi = np.sin(1.5 * grid)
    chi0 = tc.susceptibility(phi, grid, 0.0)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    assert abs(chi0 - trapezoid(phi, grid)) < 1e-14
    with pytest.raises(ValueError):
        tc.susceptibility(phi, grid, omega=200.0)


def test_susceptibility_zero_response():
    grid = np.linspace(0.0, 1.0, 11)
    assert tc.susceptibility(np.zeros(11), grid, 0.7) == 0.0


def test_linear_response_rejects_a_time_dependent_h0():
    # the susceptibility integral is a convolution: it needs time-translation
    # invariance, so a driven h0 is refused before any work
    space = qc.HilbertSpace.qubits(1)
    x = qc.OperatorSum.single(space, 0, "X", hermitian=True)
    z = qc.OperatorSum.single(space, 0, "Z", hermitian=True).matrix()
    driven = qc.Schedule.from_terms(space, [(1.0, z), (math.cos, x.matrix())])
    with pytest.raises(ValueError, match="constant h0"):
        tc.linear_response_check(driven, x, x, qc.basis_state(space, [0]), 0.05, 0.9, 1.0)


def test_linear_response_first_order_scaling():
    # generic (tilted) initial state: the susceptibility prediction captures
    # a nonzero O(f) part and halving f shrinks the remainder ~4x
    w0, omega, t = 1.3, 0.9, 1.2
    space = qc.HilbertSpace.qubits(1)
    h = qubit_schedule(w0 / 2)
    x = qc.OperatorSum.single(space, 0, "X", hermitian=True)
    theta = 0.8
    state = qc.PureState(space, [math.cos(theta / 2), math.sin(theta / 2)])
    base = qc.expectation(qc.evolve(state, h, 0.0, t), x).real
    gaps = []
    for f in (0.08, 0.04):
        predicted, exact = tc.linear_response_check(h, x, x, state, f, omega, t,
                                                    n_grid=401, tol=1e-11)
        assert abs(predicted - base) > 3.0 * abs(exact - predicted)  # O(f) dominates
        gaps.append(abs(exact - predicted))
    assert 2.5 < gaps[0] / gaps[1] < 6.0

