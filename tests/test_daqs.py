"""Digital-analog Heisenberg and circuit-QED Rabi digitization."""
import importlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qworkbench import daqs, eqs, harness
from qworkbench import qcore as qc

from qcore_helpers import dense_carry


# ---------------------------------------------------------------------------
# couplings and blocks
# ---------------------------------------------------------------------------

def test_coupling_validation():
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))  # diagonal
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix.power_law(4, 1.0, 3.5)
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix.power_law(4, -1.0, 0.6)
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix(np.zeros((13, 13)))


def test_non_finite_couplings_rejected():
    # NaN passes every comparison-based check, so finiteness is checked first
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            daqs.SpinCouplingMatrix([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError):
            daqs.SpinCouplingMatrix.power_law(3, bad, 1.0)
        with pytest.raises(ValueError):
            daqs.SpinCouplingMatrix.power_law(3, 1.0, bad)
    with pytest.raises(ValueError):
        daqs.SpinCouplingMatrix.uniform(3, math.nan)


def test_coupling_copies_and_freezes_its_matrix():
    # a later write to the caller's array cannot reach the coupling or the
    # generators it has cached
    m = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.9], [0.2, 0.9, 0.0]])
    kept = m.copy()
    coupling = daqs.SpinCouplingMatrix(m)
    gens = coupling._generators()
    assert coupling.matrix is not m
    assert not coupling.matrix.flags.writeable
    with pytest.raises(ValueError):
        coupling.matrix[0, 1] = 7.0
    m[0, 1] = m[1, 0] = 7.0
    assert np.array_equal(coupling.matrix, kept)
    fresh = daqs.SpinCouplingMatrix(kept)._generators()
    assert np.array_equal(gens.xy.matrix_at(0.0), fresh.xy.matrix_at(0.0))


def test_couplings_compare_and_hash_by_bytes():
    a = daqs.SpinCouplingMatrix.uniform(3, 0.7)
    b = daqs.SpinCouplingMatrix(0.7 * (np.ones((3, 3)) - np.eye(3)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, daqs.SpinCouplingMatrix.power_law(3, 0.7, 1.0)}) == 2
    assert a != daqs.SpinCouplingMatrix.uniform(3, 0.8)
    assert a != daqs.SpinCouplingMatrix.uniform(2, 0.7)
    assert a.__eq__(a.matrix) is NotImplemented
    # a negative uniform coupling has -0.0 on its diagonal; it is stored as 0.0
    neg = daqs.SpinCouplingMatrix.uniform(2, -1.0)
    assert neg == daqs.SpinCouplingMatrix([[0.0, -1.0], [-1.0, 0.0]])
    assert {a: 1}[b] == 1


def test_two_spin_heisenberg_eigenvalues():
    # H = J (XX + YY + ZZ): eigenvalues {-3J, J, J, J}
    j = 0.8
    coupling = daqs.SpinCouplingMatrix.uniform(2, j)
    h = daqs.analog_block("XY", coupling) + daqs.analog_block("ZZ", coupling)
    evals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(evals, [-3 * j, j, j, j], atol=1e-12)


def test_zero_coupling_zero_operator():
    coupling = daqs.SpinCouplingMatrix(np.zeros((3, 3)))
    for kind in ("XX", "XY", "ZZ"):
        assert np.max(np.abs(daqs.analog_block(kind, coupling))) == 0.0


def test_zz_from_conjugated_xx():
    coupling = daqs.SpinCouplingMatrix.power_law(3, 1.0, 1.2)
    r_y = daqs.collective_y_rotation(3)
    h_xx = daqs.analog_block("XX", coupling)
    h_zz = daqs.analog_block("ZZ", coupling)
    assert np.max(np.abs(r_y @ h_xx @ r_y.conj().T - h_zz)) < 1e-12


def test_uniform_blocks_commute():
    coupling = daqs.SpinCouplingMatrix.uniform(4, 0.7)
    h_xy = daqs.analog_block("XY", coupling)
    h_zz = daqs.analog_block("ZZ", coupling)
    assert np.max(np.abs(h_xy @ h_zz - h_zz @ h_xy)) < 1e-12


# ---------------------------------------------------------------------------
# digitized Heisenberg
# ---------------------------------------------------------------------------

def test_uniform_single_step_exact():
    run = daqs.daqs_heisenberg(daqs.SpinCouplingMatrix.uniform(4, 0.7), 1.3, 1)
    assert run.trotter_defect < 1e-10


def test_identity_at_zero_time():
    run = daqs.daqs_heisenberg(daqs.SpinCouplingMatrix.power_law(3, 1.0, 0.6), 0.0, 2)
    assert np.max(np.abs(run.unitary - np.eye(8))) < 1e-12


def test_two_spin_digital_exact():
    # a single pair has no noncommuting split: exact for any step count
    coupling = daqs.SpinCouplingMatrix.uniform(2, 0.9)
    run = daqs.digital_heisenberg(coupling, 1.1, 1)
    assert run.trotter_defect < 1e-12


def test_defect_halves_when_steps_double():
    coupling = daqs.SpinCouplingMatrix.power_law(5, 1.0, 0.6)
    d8 = daqs.daqs_heisenberg(coupling, 1.5, 8).trotter_defect
    d16 = daqs.daqs_heisenberg(coupling, 1.5, 16).trotter_defect
    assert 0.8 * 2.0 <= d8 / d16 <= 1.2 * 2.0


def test_defect_below_commutator_estimate():
    coupling = daqs.SpinCouplingMatrix.power_law(5, 1.0, 0.6)
    for steps in (2, 4, 8):
        defect = daqs.daqs_heisenberg(coupling, 1.2, steps).trotter_defect
        assert defect <= daqs.commutator_defect_estimate(coupling, 1.2, steps)


def test_digital_error_vanishes_with_steps():
    coupling = daqs.SpinCouplingMatrix.power_law(4, 1.0, 0.6)
    defects = [daqs.digital_heisenberg(coupling, 1.0, l).trotter_defect
               for l in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    # first-order convergence: 64 steps cut the single-step defect ~60x
    assert defects[-1] < defects[0] / 40.0


def test_daqs_beats_digital_long_range():
    coupling = daqs.SpinCouplingMatrix.power_law(5, 1.0, 0.6)
    state = qc.qubit_register_state([1, 1, 0, 1, 1])
    states = {"bench": state}
    for steps in (1, 2, 3):
        for jt in np.linspace(0.15, 2.0 * math.pi / 3.0, 7):
            da = daqs.daqs_heisenberg(coupling, jt, steps, states).fidelities["bench"]
            dg = daqs.digital_heisenberg(coupling, jt, steps, states).fidelities["bench"]
            assert da >= dg - 1e-12


def test_gate_counts():
    coupling = daqs.SpinCouplingMatrix.power_law(5, 1.0, 0.6)
    da = daqs.daqs_heisenberg(coupling, 1.0, 3)
    dg = daqs.digital_heisenberg(coupling, 1.0, 3)
    assert da.plan.gate_count == 4 * 3
    assert dg.plan.gate_count == 3 * 10 * 3  # N(N-1)/2 = 10 pairs


def _oracle_couplings():
    """Power-law chains of 2-5 spins and a 4-spin coupling with a zero bond."""
    out = [daqs.SpinCouplingMatrix.power_law(n, 1.0, 0.6) for n in (2, 3, 4, 5)]
    m = np.array(daqs.SpinCouplingMatrix.power_law(4, 0.9, 1.3).matrix)
    m[0, 2] = m[2, 0] = 0.0
    return out + [daqs.SpinCouplingMatrix(m)]


def test_daqs_step_matches_literal_rotated_product():
    # the step is exp(-i H_XY tau) times the diagonal exp(-i H_ZZ tau); the
    # literal protocol rotates the XX block with the collective R_y
    for coupling in _oracle_couplings():
        r_y = daqs.collective_y_rotation(coupling.n_spins)
        h_xx = daqs.analog_block("XX", coupling)
        h_xy = daqs.analog_block("XY", coupling)
        for tau in (0.15, 0.7, 2.1):
            literal = qc.expm(-1j * h_xy * tau) @ r_y @ qc.expm(-1j * h_xx * tau) \
                @ r_y.conj().T
            run = daqs.daqs_heisenberg(coupling, tau, 1)
            assert np.max(np.abs(run.unitary - literal)) < 1e-13


def test_bond_closed_form_matches_dense_bond():
    # XX + YY + ZZ = 2 SWAP - I: each bond is a phase times cos/sin of a
    # row permutation; the oracle exponentiates the dense bond
    for coupling in _oracle_couplings():
        n = coupling.n_spins
        for tau in (0.15, 0.7, 2.1):
            literal = np.eye(2 ** n, dtype=complex)
            for i in range(n):
                for j in range(i + 1, n):
                    if coupling.matrix[i, j] == 0.0:
                        continue
                    bond = sum(qc.dense_pauli("".join(ch if k in (i, j) else "I"
                                                      for k in range(n)))
                               for ch in "XYZ")
                    literal = qc.expm(-1j * coupling.matrix[i, j] * tau * bond) @ literal
            run = daqs.digital_heisenberg(coupling, tau, 1)
            assert np.max(np.abs(run.unitary - literal)) < 1e-14
    zero_bond = _oracle_couplings()[-1]
    assert daqs.digital_heisenberg(zero_bond, 1.0, 2).plan.gate_count == 3 * 5 * 2


def test_heisenberg_scenario_diagonalizes_twice(monkeypatch):
    # one default run reuses one coupling: the eigh of H_XY serves every
    # digital-analog step and the eigh of H every exact propagator
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or real_eigh(m))
    harness.run_scenario(harness.ScenarioConfig("daqs-heisenberg"))
    assert len(eighs) <= 2


def test_coupling_generators_built_once_and_read_only():
    coupling = daqs.SpinCouplingMatrix.power_law(3, 1.0, 0.6)
    gens = coupling._generators()
    assert coupling._generators() is gens
    # each bond's row permutation is the dense SWAP = (I + XX + YY + ZZ) / 2
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert [j for j, _ in gens.bonds] == [coupling.matrix[p] for p in pairs]
    for (i, j), (_, perm) in zip(pairs, gens.bonds):
        swap = np.eye(8) + sum(qc.dense_pauli("".join(ch if k in (i, j) else "I"
                                                       for k in range(3)))
                               for ch in "XYZ")
        assert np.array_equal(swap / 2, np.eye(8)[perm])
    for a in (gens.zz,) + tuple(perm for _, perm in gens.bonds):
        with pytest.raises(ValueError):
            a[0] = 0
    assert np.array_equal(np.diag(gens.zz), daqs.analog_block("ZZ", coupling))
    assert np.array_equal(gens.full.matrix_at(0.0), daqs.analog_block("XY", coupling)
                          + daqs.analog_block("ZZ", coupling))


def test_generator_cache_shared_by_racing_threads():
    # parallel_map workers fill one coupling's cache concurrently: each must
    # see a fully built cache and give the serial result, bit for bit
    def run(coupling, jt, steps):
        return (daqs.daqs_heisenberg(coupling, jt, steps).unitary,
                daqs.digital_heisenberg(coupling, jt, steps).unitary)

    jobs = [(jt, steps) for jt in (0.3, 1.7) for steps in (1, 2, 3, 4)]
    serial = [run(daqs.SpinCouplingMatrix.power_law(4, 1.0, 0.6), *job) for job in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            coupling = daqs.SpinCouplingMatrix.power_law(4, 1.0, 0.6)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, coupling, *job) for job in jobs]
                results = [f.result(timeout=60) for f in futures]
            for got, want in zip(results, serial):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# physical XY block
# ---------------------------------------------------------------------------

def test_xy_block_infidelity_at_operating_point():
    # chain-scale coupling (J ~ 2pi*25 Hz) keeps J << delta_spin << delta_mode
    two_pi = 2 * math.pi
    j = two_pi * 25.0
    times = np.linspace(0.0, 2 * math.pi / j, 4)[1:]
    res = daqs.xy_block_physical(j_coupling=j, delta_mode=two_pi * 60e3,
                                 delta_spin=two_pi * 3e3, omega=two_pi * 62e3,
                                 n_spins=3, times=times, n_max=4, tol=3e-7)
    assert res.eta_eff < 0.05
    assert np.min(res.fidelities) > 1.0 - 0.05


def test_xy_block_improves_with_stiffer_mode():
    # raising Delta (and Omega to keep J) reduces the worst infidelity
    two_pi = 2 * math.pi
    j = two_pi * 200.0
    times = np.linspace(0.0, 1.5 * math.pi / j, 4)[1:]
    worst = []
    for delta_mode, omega in ((two_pi * 30e3, two_pi * 40e3),
                              (two_pi * 90e3, two_pi * 120e3)):
        res = daqs.xy_block_physical(j, delta_mode, two_pi * 2e3, omega,
                                     n_spins=2, times=times, n_max=7, tol=1e-7)
        worst.append(1.0 - np.min(res.fidelities))
    assert worst[1] < worst[0]


def closed_form_xy_drive_matrix(n_spins, db, strength, delta_mode, delta_spin, t):
    """The XY-block drive assembled densely at time t."""
    a = qc.boson_annihilation(db)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sp_total = sum(qc.kron_all([sp if k == q else np.eye(2) for k in range(n_spins)])
                   for q in range(n_spins))
    mode = a * np.exp(1j * delta_mode * t) + a.conj().T * np.exp(-1j * delta_mode * t)
    half = strength * np.kron(sp_total * np.exp(-1j * delta_spin * t), mode)
    return half + half.conj().T


def _on_qubit(op, q, n):
    """``op`` on qubit ``q`` of ``n``, identities elsewhere, by ``np.kron``."""
    out = np.ones((1, 1))
    for k in range(n):
        out = np.kron(out, op if k == q else np.eye(2))
    return out


_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _mode_ops(db):
    a = np.diag(np.sqrt(np.arange(1.0, db)), k=1).astype(complex)
    return a, np.diag(np.arange(db, dtype=complex))


@pytest.mark.parametrize("n_spins", [2, 3])
def test_xy_drive_factor_order(n_spins):
    # spins first, the mode last: the coupling sum_j (S+_j + S-_j) (x) (a + a^dag)
    # and the frame -delta_spin N_e - delta_mode n
    db, strength, delta_mode, delta_spin = 4, 0.7, 13.1, -2.3
    space = qc.HilbertSpace.qubit_boson(n_max=db - 1, n_qubits=n_spins)
    h = daqs._xy_drive_schedule(space, strength, delta_mode, delta_spin)
    a, _ = _mode_ops(db)
    sp_total = sum(_on_qubit(_SP, q, n_spins) for q in range(n_spins))
    half = np.kron(sp_total, a + a.conj().T)
    assert np.array_equal(h.matrix_at(0.0), strength * (half + half.conj().T))
    n_exc = sum(_on_qubit(np.diag([1.0, 0.0]), q, n_spins) for q in range(n_spins))
    frame = -delta_spin * np.kron(np.diag(n_exc), np.ones(db)) \
        - delta_mode * np.kron(np.ones(2 ** n_spins), np.arange(db, dtype=float))
    assert np.array_equal(h.exact_frame.frame, frame)


def test_cqed_builders_factor_order():
    n, db, g = 2, 5, 0.29
    a, num = _mode_ops(db)
    eye_s, eye_b = np.eye(2 ** n), np.eye(db)
    ref = 1.3 * np.kron(eye_s, num)
    for q in range(n):
        ref = ref + 0.5 * -0.7 * np.kron(_on_qubit(_Z, q, n), eye_b)
        ref = ref + g * np.kron(_on_qubit(_X, q, n), a + a.conj().T)
    assert np.array_equal(daqs.rabi_hamiltonian_dense(n, db, 1.3, -0.7, g), ref)
    ref = 0.37 * np.kron(eye_s, num)
    for q in range(n):
        ref = ref + -0.81 * np.kron(_on_qubit(_Z, q, n), eye_b)
        ref = ref + g * np.kron(_on_qubit(_SP, q, n), a)
        ref = ref + g * np.kron(_on_qubit(_SP.T, q, n), a.conj().T)
    assert np.array_equal(daqs._tavis_cummings(n, db, 0.37, -0.81, g), ref)


@pytest.mark.parametrize("n_spins", [2, 3])
def test_xy_drive_terms_match_closed_form(n_spins):
    two_pi = 2 * math.pi
    space = qc.HilbertSpace(tuple(qc.Qubit() for _ in range(n_spins)) + (qc.Boson(4),))
    args = (two_pi * 1.5e3, two_pi * 60e3, two_pi * 3e3)
    h = daqs._xy_drive_schedule(space, *args)
    for t in np.linspace(0.0, 4.1e-4, 5):
        oracle = closed_form_xy_drive_matrix(n_spins, 5, *args, t)
        assert np.max(np.abs(h.matrix_at(t) - oracle)) < 1e-12 * np.max(np.abs(oracle))
    first = h.matrix_at(1e-4)
    kept = first.copy()
    second = h.matrix_at(3e-4)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("n_spins", [2, 3])
def test_xy_static_route_matches_rk45(n_spins):
    # one eigh of the frame Hamiltonian against RK45 on the closed-form drive
    # matrix at tol 1e-10
    two_pi = 2 * math.pi
    space = qc.HilbertSpace(tuple(qc.Qubit() for _ in range(n_spins)) + (qc.Boson(3),))
    args = (two_pi * 4e3, two_pi * 60e3, two_pi * 3e3)
    h = daqs._xy_drive_schedule(space, *args)
    assert h.exact_frame.static is not None
    oracle = lambda t: closed_form_xy_drive_matrix(n_spins, 4, *args, t)
    psi = qc.random_pure_state(space, np.random.default_rng(80 + n_spins))
    for t0, t1 in ((0.0, 4e-5), (1.1e-5, 6e-5)):
        a, b = qc.evolve(psi, h, t0, t1), dense_carry(oracle, psi.amplitudes, t0, t1)
        assert np.max(np.abs(a.amplitudes - b)) < 1e-8
        u, v = qc.propagator(h, t0, t1), dense_carry(oracle, np.eye(space.dim), t0, t1)
        assert np.max(np.abs(u - v)) < 1e-8
    times = [0.0, 1.5e-5, 5e-5]
    b, t_prev = psi.amplitudes, 0.0
    for a, t in zip(qc.evolve_trace(psi, h, times), times):
        b, t_prev = dense_carry(oracle, b, t_prev, t), t
        assert np.max(np.abs(a.amplitudes - b)) < 1e-8


def test_xy_block_diagonalizes_once(monkeypatch):
    # every requested time of the block, and of the ideal XY evolution it is
    # compared with, reuses one eigh per Hamiltonian, and nothing is integrated
    eighs, runs = [], []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or real_eigh(m))
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    monkeypatch.setattr(evolve_module, "integrate", lambda *a: runs.append(a))
    two_pi = 2 * math.pi
    j = two_pi * 200.0
    daqs.xy_block_physical(j, two_pi * 60e3, two_pi * 3e3, two_pi * 62e3, n_spins=2,
                           times=np.linspace(0.0, math.pi / j, 7)[1:], n_max=4)
    assert eighs == [(20, 20), (4, 4)]
    assert runs == []


def test_xy_block_validation():
    two_pi = 2 * math.pi
    common = dict(omega=two_pi * 62e3, n_spins=2, times=[1e-4], n_max=4)
    for delta_mode, j in ((0.0, two_pi * 200.0), (two_pi * 60e3, -two_pi * 200.0),
                          (-two_pi * 60e3, two_pi * 200.0)):
        with pytest.raises(ValueError):
            daqs.xy_block_physical(j, delta_mode, two_pi * 3e3, **common)
    # the rotating-wave warning reads the size of the ratio, not its sign
    for ratio in (0.5, -0.5):
        with pytest.warns(UserWarning, match="delta_spin/delta_mode"):
            daqs.xy_block_physical(two_pi * 200.0, two_pi * 60e3, ratio * two_pi * 60e3,
                                   **common)


def test_xy_block_trivial_at_zero_coupling():
    res = daqs.xy_block_physical(j_coupling=1e-9, delta_mode=1e5, delta_spin=1e3,
                                 omega=1e5, n_spins=2, times=[1e-4], n_max=4)
    assert res.fidelities[0] > 1.0 - 1e-6


# ---------------------------------------------------------------------------
# circuit-QED digitization
# ---------------------------------------------------------------------------

def test_cqed_zero_coupling_exact():
    run = daqs.cqed_rabi_digitize(omega_r=1.0, omega_q=0.8, g=0.0, t=2.0,
                                  steps=3, n_max=6)
    assert run.fidelity > 1.0 - 1e-10


def test_cqed_convergence_trend():
    infids = [1.0 - daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, n, n_max=24).fidelity
              for n in (2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-3 for a, b in zip(infids, infids[1:]))
    assert infids[-1] < 0.01


def test_cqed_dsc_collapse_revival():
    # DSC preset g = wr, wq = 0 from |e,0>: the photon population peaks at
    # half the phonon period (<n> = (2g/wr)^2 = 4, displaced-oscillator
    # closed form) and revives to the vacuum at t = 2 pi / wr.  Fifteen
    # digital steps track the near-peak sample; the revival needs more
    # steps because the digital error accumulates over the full period.
    run_peak = daqs.cqed_rabi_digitize(1.0, 0.0, 1.0, math.pi, 15, n_max=24)
    assert abs(run_peak.observables["n"] - 4.0) < 0.1
    run_revival = daqs.cqed_rabi_digitize(1.0, 0.0, 1.0, 2.0 * math.pi, 40, n_max=24)
    assert run_revival.observables["n"] < 0.05
    assert run_revival.fidelity > 0.99


def test_cqed_revival_fidelity_unit_preset():
    t_rev = 2.0 * math.pi
    run = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, t_rev, 32, n_max=28)
    assert run.fidelity > 0.99


def test_cqed_split_constraint():
    with pytest.raises(ValueError):
        daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 1.0, 4, split=(0.3, 0.0))


def test_cqed_split_equivalence_with_frame_absorption():
    # identical derived parameters give bit-identical runs; a common offset
    # on both detunings keeps the simulated model and converges to it
    base = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 16, n_max=20)
    again = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 16, n_max=20)
    assert base.fidelity == again.fidelity
    shifted = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 16, n_max=20,
                                      split=(0.75, 0.25))
    assert abs(shifted.fidelity - base.fidelity) < 0.05
    # both splits converge to the same model
    fine_a = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 128, n_max=20).fidelity
    fine_b = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 128, n_max=20,
                                     split=(0.75, 0.25)).fidelity
    assert abs(fine_a - fine_b) < 2e-4


def test_cqed_dicke_two_qubits():
    run = daqs.cqed_rabi_digitize(1.0, 1.0, 0.7, 1.5, 24, n_qubits=2, n_max=10)
    assert run.fidelity > 0.98


def test_cqed_noisy_run_reduces_fidelity_smoothly():
    clean = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 8, n_max=12)
    noisy = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 2.0, 8, n_max=12,
                                    noise=daqs.CqedNoise(kappa=0.01, gamma_phi=0.005,
                                                         gamma_minus=0.002,
                                                         flip_duration=0.02),
                                    tol=1e-8)
    assert noisy.fidelity < clean.fidelity
    assert noisy.fidelity > 0.5
    tr = float(np.real(np.trace(noisy.state.matrix)))
    assert abs(tr - 1.0) < 1e-6


def test_cqed_depolarizing_annotation_inverts():
    # channel-wise depolarizing on the digitized output is exactly invertible
    run = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 1.0, 8, n_max=8)
    rho = run.state.to_density_matrix()
    eps = 0.97
    noisy = eqs.apply_depolarizing(rho, eps, run.plan.gate_count)
    z = np.kron(qc.SIGMA_Z, np.eye(9))
    measured = float(np.real(np.trace(z @ noisy.matrix)))
    ideal = float(np.real(np.trace(z @ rho.matrix)))
    recovered = eqs.rescale_expectation(measured, eps, run.plan.gate_count, z)
    assert abs(recovered - ideal) < 1e-12


# ---------------------------------------------------------------------------
# gate-count bound
# ---------------------------------------------------------------------------

def test_gate_count_bound_monotone_in_eps():
    n1, _ = daqs.gate_count_bound(1.0, 1.0, 1.0, 1.0, 3, 16, eps=0.1)
    n2, _ = daqs.gate_count_bound(1.0, 1.0, 1.0, 1.0, 3, 16, eps=0.2)
    assert n2 < n1


def test_gate_count_bound_time_scaling():
    # doubling t multiplies the bound by 2^{1.5} at k=1
    args = dict(omega_r=1.0, omega_q=1.0, g=1.0, n_qubits=3, m_excitations=16, eps=0.1)
    raw = lambda t: 2.0 * 25.0 * (2.0 * t * daqs.gate_count_bound(t=t, **args)[1]) ** 1.5 \
        / 0.1 ** 0.5
    assert raw(2.0) / raw(1.0) == pytest.approx(2.0 ** 1.5, rel=1e-12)


def test_gate_count_bound_regression_anchor():
    # N=3, M=16, wr=wq=g=1, t=1, eps=0.1: ||H|| = 16 + 3(1 + 2 sqrt(17))
    n_eps, norm = daqs.gate_count_bound(1.0, 1.0, 1.0, 1.0, 3, 16, eps=0.1)
    expected_norm = 16.0 + 3.0 * (1.0 + 2.0 * math.sqrt(17.0))
    assert norm == pytest.approx(expected_norm, rel=1e-12)
    expected = 2.0 * 25.0 * (2.0 * expected_norm) ** 1.5 / 0.1 ** 0.5
    assert n_eps == math.ceil(expected)


def _forbid_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigh called before the inputs were validated")

    monkeypatch.setattr(np.linalg, "eigh", fail)


def test_cqed_rejects_non_finite_inputs(monkeypatch):
    # NaN slips through the split check and inf through the step size, so
    # both are rejected before any generator is exponentiated
    _forbid_eigh(monkeypatch)
    base = dict(omega_r=1.0, omega_q=1.0, g=1.0, t=2.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in base:
            args = dict(base, **{name: bad})
            with pytest.raises(ValueError):
                daqs.cqed_rabi_digitize(**args, steps=4, n_max=6)
            with pytest.raises(ValueError):
                daqs.cqed_rabi_step_sweep(**args, step_counts=[2, 4], n_max=6)
        with pytest.raises(ValueError):
            daqs.cqed_rabi_digitize(**base, steps=4, n_max=6, split=(bad, bad))
    with pytest.raises(ValueError):
        daqs.cqed_rabi_step_sweep(**base, step_counts=[4, 0], n_max=6)


def test_cqed_rejects_non_integer_step_counts(monkeypatch):
    # 2.5 used to build every generator and then fail in matrix_power, and
    # True ran as one step: both are rejected before anything is built
    def fail(*args, **kwargs):
        raise AssertionError("a generator was built before the step counts were checked")

    monkeypatch.setattr(daqs, "_tavis_cummings", fail)
    base = dict(omega_r=1.0, omega_q=1.0, g=1.0, t=2.0, n_max=6)
    for bad in (2.5, 3.0, True, False, "4", None):
        with pytest.raises(ValueError):
            daqs.cqed_rabi_digitize(**base, steps=bad)
        with pytest.raises(ValueError):
            daqs.cqed_rabi_step_sweep(**base, step_counts=[2, bad])


def test_empty_coupling_names_its_spin_count():
    with pytest.raises(ValueError, match="0 spins"):
        daqs.SpinCouplingMatrix(np.zeros((0, 0)))


def _per_count_cqed(omega_r, omega_q, g, t, steps, n_qubits, n_max, split, noise, tol):
    """Test-local copy of the one-count digitization that rebuilt every
    generator, the flip, the reference and the observables per call."""
    if split is None:
        split = (0.5 * omega_q, 0.0)
    dq1, dq2 = split
    db = n_max + 1
    space = qc.HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits)
    initial = qc.basis_state(space, [0] * space.n_factors)
    tau = t / steps
    h1 = daqs._tavis_cummings(n_qubits, db, 0.5 * omega_r, dq1, g)
    h2_tilde = daqs._tavis_cummings(n_qubits, db, 0.5 * omega_r, dq2, g)
    flip = daqs._collective_flip(n_qubits, db)
    h_exact = daqs.rabi_hamiltonian_dense(n_qubits, db, omega_r, omega_q, g)
    reference = qc.evolve(initial, qc.Schedule.constant(h_exact, space), 0.0, t)
    if noise is None:
        u_step = (qc.propagator(qc.Schedule.constant(h1, space), 0.0, tau) @ flip
                  @ qc.propagator(qc.Schedule.constant(h2_tilde, space), 0.0, tau)
                  @ flip.conj().T)
        final = qc.PureState(space, np.linalg.matrix_power(u_step, steps) @ initial.amplitudes)
        fid = float(abs(np.vdot(reference.amplitudes, final.amplitudes)) ** 2)
    else:
        final = daqs._cqed_noisy_run(space, initial, h1, h2_tilde,
                                     daqs._collective_flip(n_qubits, db), n_qubits,
                                     tau, steps, noise, tol)
        fid = float(np.real(np.vdot(reference.amplitudes,
                                    final.matrix @ reference.amplitudes)))
    n_op = qc.OperatorSum.single(space, -1, "n")
    z_total = qc.OperatorSum(space, [(1.0, qc.on_factors(space, {q: "Z"}))
                                     for q in range(n_qubits)])
    obs = {"n": qc.expectation(final, n_op).real, "z": qc.expectation(final, z_total).real}
    return fid, final, reference, obs


@pytest.mark.parametrize("n_qubits, split, noise, counts", [
    (1, None, None, [1, 2, 5, 16]),
    (2, None, None, [3, 8]),
    (1, (0.9, 0.4), None, [2, 7]),
    (2, (0.7, 0.2), daqs.CqedNoise(kappa=0.05, gamma_phi=0.02, gamma_minus=0.01), [1, 2]),
    (1, None, daqs.CqedNoise(kappa=0.05, gamma_minus=0.02, flip_duration=0.05), [1, 3]),
])
def test_cqed_step_sweep_equals_per_count_runs(n_qubits, split, noise, counts):
    # sharing the step-independent pieces changes no bit of any run
    args = dict(omega_r=1.0, omega_q=1.0, g=0.8, t=1.5, n_qubits=n_qubits,
                n_max=4, split=split, noise=noise, tol=1e-6)
    runs = daqs.cqed_rabi_step_sweep(**args, step_counts=counts)
    assert [run.plan.steps for run in runs] == counts
    for steps, run in zip(counts, runs):
        fid, final, reference, obs = _per_count_cqed(steps=steps, **args)
        assert run.fidelity == fid
        assert run.observables == obs
        assert np.array_equal(run.reference.amplitudes, reference.amplitudes)
        got = run.state.amplitudes if noise is None else run.state.matrix
        want = final.amplitudes if noise is None else final.matrix
        assert np.array_equal(got, want)
        assert run.plan.gate_count == 4 * steps
        one = daqs.cqed_rabi_digitize(steps=steps, **args)
        assert one.fidelity == fid and one.observables == obs


def test_cqed_scenario_exponentiates_per_count_only(monkeypatch):
    # per preset (4 presets): one eigh for the flip, one for the exact
    # reference and one for each Jaynes-Cummings schedule, whatever the step
    # count, 16 in all; 48 when each of the 5 counts exponentiated its own
    # steps, 80 when every count rebuilt everything
    importlib.import_module("qworkbench.harness.runners")
    eighs = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or real_eigh(m))
    harness.run_scenario(harness.ScenarioConfig("cqed-rabi"))
    assert 0 < len(eighs) <= 16
