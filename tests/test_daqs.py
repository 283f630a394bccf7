"""Digital-analog Heisenberg and circuit-QED Rabi digitization."""
import importlib
import math

import numpy as np
import pytest

from qworkbench import daqs, eqs
from qworkbench import qcore as qc


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
        daqs.SpinCouplingMatrix.explicit(np.zeros((13, 13)))


def test_two_spin_heisenberg_eigenvalues():
    # H = J (XX + YY + ZZ): eigenvalues {-3J, J, J, J}
    j = 0.8
    coupling = daqs.SpinCouplingMatrix.uniform(2, j)
    evals = np.sort(np.linalg.eigvalsh(daqs.heisenberg(coupling)))
    assert np.allclose(evals, [-3 * j, j, j, j], atol=1e-12)


def test_zero_coupling_zero_operator():
    coupling = daqs.SpinCouplingMatrix.explicit(np.zeros((3, 3)))
    assert np.max(np.abs(daqs.heisenberg(coupling))) == 0.0


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
    oracle = qc.Schedule.time_dependent(
        space, lambda t: closed_form_xy_drive_matrix(n_spins, 4, *args, t))
    psi = qc.random_pure_state(space, np.random.default_rng(80 + n_spins))
    for t0, t1 in ((0.0, 4e-5), (1.1e-5, 6e-5)):
        a, b = qc.evolve(psi, h, t0, t1), qc.evolve(psi, oracle, t0, t1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8
        u, v = qc.propagator(h, t0, t1), qc.propagator(oracle, t0, t1)
        assert np.max(np.abs(u - v)) < 1e-8
    times = [0.0, 1.5e-5, 5e-5]
    for a, b in zip(qc.evolve_trace(psi, h, times), qc.evolve_trace(psi, oracle, times)):
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8


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
