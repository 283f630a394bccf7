"""Ion drives, effective Rabi models, spectra, parity, and regime labels."""
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qworkbench import harness
from qworkbench import ionrabi as ir
from qworkbench import qcore as qc
from qworkbench.harness.scenarios import SCENARIOS

from qcore_helpers import dense_carry

TWO_PI = 2.0 * math.pi


def jc_drive(eta=0.06, nu=TWO_PI * 3e6, omega=TWO_PI * 68e3, delta_b=-TWO_PI * 102e3):
    return ir.IonDriveParams(nu=nu, omega0=TWO_PI * 10e6, omega_r=omega, omega_b=omega,
                             eta=eta, delta_r=0.0, delta_b=delta_b)


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def test_effective_qrm_mapping_values():
    r = ir.effective_qrm(jc_drive())
    assert abs(r.omega0_r - TWO_PI * 51e3) < 1e-6
    assert abs(r.omega_r - TWO_PI * 51e3) < 1e-6
    assert abs(r.g - TWO_PI * 2.04e3) < 1e-6
    # the parameter maps give g/omega_R = 0.04 for these drive values
    assert abs(r.g / r.omega_r - 0.04) < 1e-12


def test_effective_two_photon_symmetric_detunings():
    x = TWO_PI * 1e3
    p = ir.IonDriveParams(nu=TWO_PI * 1e6, omega0=TWO_PI * 10e6,
                          omega_r=TWO_PI * 50e3, omega_b=TWO_PI * 50e3,
                          eta=0.04, delta_r=4 * x, delta_b=-4 * x, sideband_order=2)
    tp = ir.effective_two_photon(p)
    assert abs(tp.omega - 2 * x) < 1e-9
    assert abs(tp.omega_q) < 1e-9
    assert abs(tp.g - 0.04 ** 2 * TWO_PI * 50e3 / 4.0) < 1e-6


def test_drive_validation():
    with pytest.raises(ValueError):
        ir.IonDriveParams(nu=1.0, omega0=1.0, omega_r=1.0, omega_b=1.0, eta=0.0)
    with pytest.warns(UserWarning):
        ir.IonDriveParams(nu=1.0, omega0=1.0, omega_r=0.1, omega_b=0.1,
                          eta=0.05, delta_r=0.5)


# ---------------------------------------------------------------------------
# full drive Hamiltonian
# ---------------------------------------------------------------------------

def test_zero_drive_is_zero_hamiltonian():
    p = ir.IonDriveParams(nu=1.0, omega0=5.0, omega_r=0.0, omega_b=0.0, eta=0.1)
    h = ir.ion_hamiltonian(p, n_max=10)
    for t in (0.0, 0.3, 1.7):
        assert np.max(np.abs(h.matrix_at(t))) == 0.0


def linearized_drive_matrix(p, n_max, t):
    """Carrier plus first-order Lamb-Dicke terms of the bichromatic drive."""
    db = n_max + 1
    a = qc.boson_annihilation(db)
    at = a * np.exp(-1j * p.nu * t) + a.conj().T * np.exp(1j * p.nu * t)
    s = p.sideband_order
    block = np.zeros((db, db), dtype=complex)
    for omega_n, freq in ((p.omega_r, s * p.nu - p.delta_r),
                          (p.omega_b, -s * p.nu - p.delta_b)):
        block += 0.5 * omega_n * np.exp(1j * freq * t) * (np.eye(db) + 1j * p.eta * at)
    h = np.zeros((2 * db, 2 * db), dtype=complex)
    h[:db, db:] = block
    h[db:, :db] = block.conj().T
    return h


def test_small_eta_expansion_scaling():
    # || H_full - (carrier + linear) || = O(eta^2): halving eta cuts ~4x
    devs = {}
    for eta in (0.08, 0.04):
        p = ir.IonDriveParams(nu=1.0, omega0=10.0, omega_r=0.3, omega_b=0.3,
                              eta=eta, delta_r=0.02, delta_b=-0.03)
        h = ir.ion_hamiltonian(p, n_max=12)
        worst = 0.0
        for t in np.linspace(0.0, 5.0, 7):
            dev = np.linalg.norm(h.matrix_at(t) - linearized_drive_matrix(p, 12, t), ord=2)
            worst = max(worst, dev)
        devs[eta] = worst
    assert 3.0 < devs[0.08] / devs[0.04] < 5.0


def closed_form_drive_matrix(p, n_max, t):
    """The full drive assembled densely at time t: c(t) R D R^dag on the
    sigma^+ block, with R(t) = diag(e^{i nu t k})."""
    db = n_max + 1
    a = qc.boson_annihilation(db)
    disp = expm(1j * p.eta * (a + a.conj().T))
    phases = np.exp(1j * p.nu * t * np.arange(db))
    m = (phases[:, None] * disp) * phases.conj()[None, :]
    s = p.sideband_order
    c = 0.5 * p.omega_r * np.exp(1j * p.phi_r) * np.exp(1j * (s * p.nu - p.delta_r) * t) \
        + 0.5 * p.omega_b * np.exp(1j * p.phi_b) * np.exp(1j * (-s * p.nu - p.delta_b) * t)
    h = np.zeros((2 * db, 2 * db), dtype=complex)
    h[:db, db:] = c * m
    h[db:, :db] = (c * m).conj().T
    return h


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("order", [1, 2])
def test_drive_terms_match_closed_form(order):
    p = ir.IonDriveParams(nu=TWO_PI * 1e6, omega0=TWO_PI * 12e6,
                          omega_r=TWO_PI * 100e3, omega_b=TWO_PI * 80e3, eta=0.04,
                          delta_r=TWO_PI * 300.0, delta_b=-TWO_PI * 400.0,
                          sideband_order=order, phi_r=0.3, phi_b=-1.1)
    h = ir.ion_hamiltonian(p, n_max=14)
    for t in np.linspace(0.0, 3.7e-6, 5):
        assert relative_gap(h.matrix_at(t), closed_form_drive_matrix(p, 14, t)) < 1e-12
    first = h.matrix_at(1.1e-6)
    kept = first.copy()
    second = h.matrix_at(2.9e-6)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def detuned_drive(order):
    return ir.IonDriveParams(nu=TWO_PI * 1e6, omega0=TWO_PI * 12e6,
                             omega_r=TWO_PI * 100e3, omega_b=TWO_PI * 80e3, eta=0.04,
                             delta_r=TWO_PI * 20e3, delta_b=-TWO_PI * 35e3,
                             sideband_order=order, phi_r=0.3, phi_b=-1.1)


@pytest.mark.parametrize("order", [1, 2])
def test_periodic_route_matches_rk45(order):
    # the stroboscopic route of the full drive against RK45 on the
    # closed-form drive matrix, both at tol 1e-10
    p = detuned_drive(order)
    n_max = 11
    h = ir.ion_hamiltonian(p, n_max)
    s = p.sideband_order
    period = 4.0 * math.pi / abs(2.0 * s * p.nu - p.delta_r + p.delta_b)
    assert abs(h.exact_frame.period - period) < 1e-12 * period
    oracle = lambda t: closed_form_drive_matrix(p, n_max, t)
    rng = np.random.default_rng(70 + order)
    psi = qc.random_pure_state(h.space, rng)
    d = h.space.dim
    rho = qc.DensityMatrix(h.space, 0.6 * psi.to_density_matrix().matrix + 0.4 * np.eye(d) / d)
    windows = [(0.37 * period, 9.62 * period),   # off the period boundaries
               (1.2 * period, 1.9 * period),     # inside one period
               (2.7 * period, 3.1 * period)]     # shorter than a period, across a boundary
    for t0, t1 in windows:
        a, b = qc.evolve(psi, h, t0, t1), dense_carry(oracle, psi.amplitudes, t0, t1)
        assert np.max(np.abs(a.amplitudes - b)) < 1e-8
    t0, t1 = windows[0]
    u = dense_carry(oracle, np.eye(d), t0, t1)
    a, b = qc.evolve(rho, h, t0, t1), u @ rho.matrix @ u.conj().T
    assert np.max(np.abs(a.matrix - b)) < 1e-8
    assert np.max(np.abs(qc.propagator(h, t0, t1) - u)) < 1e-8
    times = np.array([0.3, 2.0, 2.45, 6.8]) * period
    b, t_prev = psi.amplitudes, 0.0
    for a, t in zip(qc.evolve_trace(psi, h, times), times):
        b, t_prev = dense_carry(oracle, b, t_prev, t), t
        assert np.max(np.abs(a.amplitudes - b)) < 1e-8


def test_one_period_propagator_built_once(monkeypatch):
    # criterion 03's twelve checkpoints and repeated evolve calls at one tol
    # integrate U(T) once; every other RK45 run is a partial period of a state
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    block_runs = []
    real = evolve_module.integrate

    def counting(rhs, y0, t0, t1, tol):
        block_runs.append(np.size(y0) == d * d)
        return real(rhs, y0, t0, t1, tol)

    monkeypatch.setattr(evolve_module, "integrate", counting)
    p = jc_drive()
    r = ir.effective_qrm(p)
    h = ir.ion_hamiltonian(p, 30)
    d = h.space.dim
    psi0 = qc.basis_state(h.space, [0, 0])
    checkpoints = np.linspace(0.0, 3.0 * math.pi / r.g, 13)[1:]
    qc.evolve_trace(psi0, h, checkpoints, tol=1e-6)
    qc.evolve(psi0, h, 0.0, 0.4 * checkpoints[-1], tol=1e-6)
    qc.evolve(psi0, h, 0.1 * checkpoints[-1], checkpoints[-1], tol=1e-6)
    assert sum(block_runs) == 1
    assert 0 < len(block_runs) - 1 <= 2 * 14
    qc.evolve(psi0, h, 0.0, checkpoints[0], tol=1e-7)   # a new tol builds its own
    assert sum(block_runs) == 2


@pytest.mark.parametrize("n_max", [12, 25])
def test_one_period_propagator_matches_the_dense_drive(n_max):
    # U_K(T, 0) of the second-sideband drive (the perfbench driven-rk45
    # drive), each term applied on its qubit quadrant, against RK45 on the
    # closed-form drive matrix over one period, at the same tolerance
    drive = TWO_PI * 100e3
    p = ir.IonDriveParams(nu=TWO_PI * 1e6, omega0=TWO_PI * 12e6, omega_r=drive,
                          omega_b=drive, eta=0.04, delta_r=0.0,
                          delta_b=-TWO_PI * 400.0, sideband_order=2)
    h = ir.ion_hamiltonian(p, n_max)
    db, d = n_max + 1, h.space.dim
    up, down = slice(0, db), slice(db, d)
    assert [t[:2] for t in h._terms.terms] == [(up, down), (down, up)]
    ef = h.exact_frame
    for tol in (2e-7, 1e-10):
        u = dense_carry(lambda t: closed_form_drive_matrix(p, n_max, t), np.eye(d),
                        0.0, ef.period, tol)
        assert np.max(np.abs(ef.one_period(tol) - ef.phase(-ef.period)[:, None] * u)) < 1e-12


def test_jc_regime_short_run():
    # half a Rabi oscillation of the full drive against the closed-form
    # resonant JC solution
    p = jc_drive()
    r = ir.effective_qrm(p)
    n_max = 25
    h = ir.ion_hamiltonian(p, n_max)
    psi0 = qc.basis_state(h.space, [0, 0])
    t_half = 0.5 * math.pi / r.g
    checkpoints = np.linspace(0.0, t_half, 6)[1:]
    states = qc.evolve_trace(psi0, h, checkpoints, tol=1e-6)
    for t, st in zip(checkpoints, states):
        ana = ir.jc_analytic_state(r.g, t, n_max)
        assert qc.fidelity(ana, st) > 0.99
    # Lamb-Dicke regime along the run: eta sqrt(<n>) < 0.12
    n_op = qc.OperatorSum.single(h.space, 1, "n", hermitian=True)
    assert max(p.eta ** 2 * qc.expectation(st, n_op).real for st in states) < 0.12 ** 2


def test_interaction_frame_equivalence_observables():
    # full drive vs effective Rabi model on sigma_z and phonon number
    p = jc_drive()
    r = ir.effective_qrm(p)
    n_max = 25
    h_full = ir.ion_hamiltonian(p, n_max)
    h_qrm = qc.Schedule.constant(ir.qrm_hamiltonian(r, n_max))
    psi0 = qc.basis_state(h_full.space, [0, 0])
    space = h_full.space
    z_op = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
    n_op = qc.OperatorSum.single(space, 1, "n", hermitian=True)
    for t in (0.2e-4, 1.2e-4):
        full = qc.evolve(psi0, h_full, 0.0, t, tol=1e-7)
        eff = qc.evolve(psi0, h_qrm, 0.0, t)
        for op in (z_op, n_op):
            assert abs(qc.expectation(full, op).real
                       - qc.expectation(eff, op).real) < 1e-2


def test_two_photon_full_drive_vs_effective():
    # second-sideband drive against the effective two-photon model at
    # g/omega = 0.4 (shortened window keeps the suite quick)
    nu = TWO_PI * 1e6
    omega_drive = TWO_PI * 100e3
    eta = 0.04
    p = ir.IonDriveParams(nu=nu, omega0=TWO_PI * 12e6, omega_r=omega_drive,
                          omega_b=omega_drive, eta=eta,
                          delta_r=0.0, delta_b=-TWO_PI * 400.0, sideband_order=2)
    tp = ir.effective_two_photon(p)
    assert abs(tp.g / tp.omega - 0.4) < 1e-9
    n_max = 25
    h_full = ir.ion_hamiltonian(p, n_max)
    h_eff = ir.two_photon_hamiltonian(tp, 1, n_max, simulation_frame=True).matrix()
    space = h_full.space
    psi0 = qc.basis_state(space, [1, 2])   # |g, 2>
    t = 0.35 / tp.g                        # a slice of the two-phonon exchange
    full = qc.evolve(psi0, h_full, 0.0, t, tol=2e-7)
    # simulation picture: psi_sim = exp(+i H0 t) psi_I
    db = n_max + 1
    h0_diag = np.kron(0.25 * (p.delta_b + p.delta_r) * np.array([1.0, -1.0]), np.ones(db)) \
        + np.kron(np.ones(2), 0.25 * (p.delta_b - p.delta_r) * np.arange(db))
    sim_frame = np.exp(1j * h0_diag * t)
    psi_sim = qc.PureState(space, sim_frame * full.amplitudes)
    ideal = qc.PureState(space, expm(-1j * h_eff * t) @ psi0.amplitudes)
    assert qc.fidelity(psi_sim, ideal) > 0.98


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def test_regime_examples():
    assert ir.classify_regime(ir.RabiParams(1.0, 0.5, 1.0)) == "DSC"     # g/w = 2
    assert ir.classify_regime(ir.RabiParams(0.7, 0.0, 0.3)) == "Dirac"   # w = 0
    assert ir.classify_regime(ir.RabiParams(0.0, 1.0, 0.01)) == "Decoupling"
    assert ir.classify_regime(ir.RabiParams(1.0, 1.0, 0.01)) == "JC"
    assert ir.classify_regime(ir.RabiParams(-1.0, 1.0, 0.01)) == "AJC"
    assert ir.classify_regime(ir.RabiParams(0.4, 1.0, 0.02)) == "TwoFoldDispersive"
    assert ir.classify_regime(ir.RabiParams(1.0, 1.0, 0.3)) == "USC"


def test_regime_total_function():
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = ir.RabiParams(omega0_r=float(rng.normal()), omega_r=float(rng.normal()),
                          g=float(abs(rng.normal())))
        assert ir.classify_regime(r) in ir.REGIME_LABELS


# ---------------------------------------------------------------------------
# adiabatic preparation
# ---------------------------------------------------------------------------

def qrm_family(omega, omega0, n_max):
    base = ir.RabiParams(omega0_r=omega0, omega_r=omega, g=0.0)
    h0 = ir.qrm_hamiltonian(base, n_max).matrix()
    db = n_max + 1
    coupling = -np.kron(qc.SIGMA_Y, qc.boson_annihilation(db)
                        + qc.boson_annihilation(db).conj().T)
    return h0, coupling


def test_adiabatic_zero_ramp():
    n_max = 10
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    out = ir.adiabatic_ground_state(h0, coupling, 0.0, 5.0, space, n_checkpoints=9)
    assert np.all(out.fidelities > 1.0 - 1e-7)


def test_adiabatic_duration_ladder():
    n_max = 16
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    finals = []
    for duration in (3.0, 6.0, 12.0, 24.0, 48.0):
        out = ir.adiabatic_ground_state(h0, coupling, 1.0, duration, space,
                                        n_checkpoints=7, tol=1e-8)
        finals.append(out.final_fidelity)
    assert all(b >= a - 1e-6 for a, b in zip(finals, finals[1:]))
    assert finals[-1] > 0.99


def test_adiabatic_ramp_at_the_scenario_tol_is_near_a_tight_reference():
    # the qrm-adiabatic defaults at the scenario's tol 1e-8: every final
    # fidelity lies within 1e-9 of the same ramp at tol 1e-12 (the
    # eighth-order pair errs by about 2e-11 here; a 5(4) pair at the same
    # tol errs by 9.5e-8 at duration 48)
    n_max = 16
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    for duration in (3.0, 6.0, 12.0, 24.0, 48.0):
        loose, tight = (ir.adiabatic_ground_state(h0, coupling, 1.0, duration, space,
                                                  n_checkpoints=7, tol=tol).final_fidelity
                        for tol in (1e-8, 1e-12))
        assert abs(loose - tight) < 1e-9, duration


def parity_sectors(space):
    """The two sectors of the Rabi parity sigma_z (x) exp(i pi a^dag a),
    whose eigenvalue on the product state |q, n> is (-1)^(q + n)."""
    q, n = np.divmod(np.arange(space.dim), space.factors[1].dim)
    return [np.flatnonzero((q + n) % 2 == k) for k in (0, 1)]


def test_adiabatic_dsc_parity_chain_support():
    # ramping into g/omega = 2 keeps the state exactly on the parity chain
    # of the initial ground state |g,0>
    n_max = 30
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    out = ir.adiabatic_ground_state(h0, coupling, 2.0, 60.0, space, n_checkpoints=5, tol=1e-9)
    evals, evecs = np.linalg.eigh(h0)
    final = dense_carry(lambda t: h0 + (2.0 * t / 60.0) * coupling, evecs[:, 0], 0.0, 60.0,
                        tol=1e-9)
    start = int(np.argmax(np.abs(evecs[:, 0])))
    off_chain = sum(float(np.sum(np.abs(final[sector]) ** 2))
                    for sector in parity_sectors(space) if start not in sector)
    assert off_chain < 1e-6


def term_blocks(sched):
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    d = sched.space.dim
    mats = []
    for rows, cols, block in sched._terms.terms:
        mats.append(np.zeros((d, d), dtype=complex))
        mats[-1][rows, cols] = block
    return evolve_module._invariant_blocks(d, mats)


def test_block_detection_finds_the_parity_sectors():
    # two sectors for the QRM ramp and the dispersive pulse, one block for
    # the full drive, whose displacement operator is dense
    n_max = 16
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    ramp = qc.Schedule.from_terms(space, [(1.0, h0), (lambda t: 0.1 * t, coupling)])
    pulse = ir._dispersive_pulse_schedule(space, 1.0, 6.0, 1.5, 19.0, 1.0)
    for sched in (ramp, pulse):
        blocks = term_blocks(sched)
        assert len(blocks) == 2
        assert all(np.array_equal(a, b) for a, b in zip(blocks, parity_sectors(space)))
        assert all(np.array_equal(a, b) for a, b in zip(sched._terms.index, blocks))
    drive = ir.ion_hamiltonian(jc_drive(), n_max=12)
    assert len(term_blocks(drive)) == 1 and drive._terms.index is None


def test_adiabatic_ramp_steps_one_parity_sector(monkeypatch):
    # the ground state of h0 is |g, 0>: every RK45 run of the ramp steps its
    # parity sector alone, half of the 2 (n_max + 1) amplitudes
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    sizes = []
    real = evolve_module.integrate

    def recording(rhs, y0, t0, t1, tol):
        sizes.append(y0.size)
        return real(rhs, y0, t0, t1, tol)

    monkeypatch.setattr(evolve_module, "integrate", recording)
    n_max = 16
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    out = ir.adiabatic_ground_state(h0, coupling, 1.0, 6.0, space, n_checkpoints=4, tol=1e-8)
    assert sizes == [n_max + 1] * 3
    assert out.final_fidelity > 0.9


BAD_RAMPS = [dict(n_checkpoints=1), dict(n_checkpoints=0), dict(n_checkpoints=True),
             dict(n_checkpoints=4.0), dict(duration=math.nan), dict(duration=math.inf),
             dict(duration=0.0), dict(g_final=math.nan), dict(g_final=-math.inf)]


@pytest.mark.parametrize("kwargs", BAD_RAMPS, ids=[
    ",".join(f"{k}={v}" for k, v in kw.items()) for kw in BAD_RAMPS])
def test_adiabatic_rejects_bad_inputs(kwargs, monkeypatch):
    # a ramp needs a start and an end checkpoint, and finite parameters
    n_max = 6
    h0, coupling = qrm_family(1.0, 1.0, n_max)
    args = dict(g_final=1.0, duration=5.0, n_checkpoints=5) | kwargs
    _forbid_eigh(monkeypatch)
    with pytest.raises(ValueError):
        ir.adiabatic_ground_state(h0, coupling, args["g_final"], args["duration"],
                                  qc.HilbertSpace.qubit_boson(n_max=n_max),
                                  n_checkpoints=args["n_checkpoints"])


@pytest.mark.parametrize("override", ["checkpoints=1", "checkpoints=0", "g_final=nan",
                                      "durations=3,nan", "durations=0"])
def test_qrm_adiabatic_bad_parameters_are_config_errors(override, tmp_path):
    from qworkbench.harness.cli import main as cli_main
    assert cli_main(["run", "qrm-adiabatic", "--set", override, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "qrm-adiabatic").exists()


# ---------------------------------------------------------------------------
# spectra and collapse diagnostics
# ---------------------------------------------------------------------------

def test_two_photon_decoupled_spectrum():
    pts = ir.two_photon_spectrum(1.0, 1.9, 1, [0.0], n_levels=8, n_max=40)
    expected = np.sort(np.concatenate([np.arange(6) + 0.95, np.arange(6) - 0.95]))[:8]
    assert np.max(np.abs(pts[0].energies - expected)) < 1e-10


def test_two_photon_parity_commutes_and_is_conserved():
    tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=0.3)
    n_max = 40
    h = ir.two_photon_hamiltonian(tp, 1, n_max).matrix()
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    diag = ir.generalized_parity_diagonal(space)
    pi_mat = np.diag(diag)
    assert np.max(np.abs(pi_mat @ h - h @ pi_mat)) < 1e-12
    # evolving a parity eigenstate keeps <Pi> fixed
    psi0 = qc.basis_state(space, [0, 1])  # parity -(+1)(i) = -i
    sched = qc.Schedule.constant(h, space)
    for t in (0.7, 2.3):
        st = qc.evolve(psi0, sched, 0.0, t)
        val = complex(np.sum(diag * np.abs(st.amplitudes) ** 2))
        assert abs(val - ir.parity_direct(psi0)) < 1e-10


def test_truncation_guard_fires_when_too_small():
    with pytest.raises(ir.TruncationError):
        ir.two_photon_spectrum(1.0, 1.9, 1, [0.45], n_levels=8, n_max=16)


def test_truncation_shifts_are_reported_without_the_check():
    # the guard above would raise here; without it the shifts are still filled
    n_levels, n_max = 8, 16
    for g, point in zip([0.1, 0.45], ir.two_photon_spectrum(
            1.0, 1.9, 1, [0.1, 0.45], n_levels, n_max, check_convergence=False)):
        again = ir.two_photon_spectrum(1.0, 1.9, 1, [g], n_levels, n_max + 10,
                                       check_convergence=False)[0]
        assert np.array_equal(point.truncation_shifts,
                              np.abs(point.energies - again.energies))
    assert np.max(point.truncation_shifts) > 1e-4


def test_collapse_compression_trend():
    diag = ir.collapse_diagnostics(1.0, 1.9, [0.10, 0.30, 0.49], n_levels=8, n_max=80)
    # the lowest-8 band compresses toward the collapse point
    span0 = diag.mean_occupations[0][1]
    assert diag.min_spacings[-1] < diag.min_spacings[0]
    # effective potential coefficient omega - 2g approaches zero
    assert np.all(np.diff(diag.potential_coefficients[:, 0]) < 0)
    assert diag.potential_coefficients[-1, 0] == pytest.approx(1.0 - 2 * 0.49)


def test_effective_potential_sign_structure():
    for g in (0.1, 0.3, 0.49):
        assert 1.0 - 2 * g > 0 and 1.0 + 2 * g > 0
    assert (1.0 - 2 * 0.5) == pytest.approx(0.0)


def test_energy_conservation_constant_model():
    tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=0.3)
    n_max = 40
    h_op = ir.two_photon_hamiltonian(tp, 1, n_max)
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    sched = qc.Schedule.constant(h_op.matrix(), space)
    psi0 = qc.basis_state(space, [1, 2])
    e0 = qc.expectation(psi0, h_op.matrix()).real
    st = qc.evolve(psi0, sched, 0.0, 3.1)
    assert abs(qc.expectation(st, h_op.matrix()).real - e0) < 1e-9


# ---------------------------------------------------------------------------
# characteristic exponents
# ---------------------------------------------------------------------------

def test_exponents_pure_point():
    out = ir.characteristic_exponents(4.0)
    expected = {2 + math.sqrt(3), 2 - math.sqrt(3), -2 + math.sqrt(3), -2 - math.sqrt(3)}
    got = {complex(g).real for g in out.exponents}
    assert all(min(abs(e - g) for g in got) < 1e-12 for e in expected)
    assert out.kind == "PurePoint"
    assert any(abs(g) < 1.0 for g in out.exponents)


def test_exponents_collapse_and_continuous():
    assert ir.characteristic_exponents(2.0).kind == "CollapsePoint"
    out = ir.characteristic_exponents(1.0)
    assert out.kind == "Continuous"
    assert all(abs(abs(g) - 1.0) < 1e-12 for g in out.exponents)


def test_exponents_random_classification():
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = float(rng.uniform(0.05, 6.0))
        out = ir.characteristic_exponents(w)
        normalizable = [g for g in out.exponents if abs(g) < 1.0 - 1e-12]
        if out.kind == "PurePoint":
            assert w / 2.0 > 1.0 and len(normalizable) == 2
        elif out.kind == "Continuous":
            assert w / 2.0 < 1.0 and not normalizable
        else:
            assert abs(w - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# parity measurement protocol
# ---------------------------------------------------------------------------

def test_parity_protocol_fock_states():
    space = qc.HilbertSpace.qubit_boson(n_max=16)
    for occ, expected in (([1, 0], 1.0), ([0, 1], -1.0j), ([1, 2], -1.0)):
        st = qc.basis_state(space, occ)
        direct = ir.parity_direct(st)
        assert abs(direct - expected) < 1e-12
        assert abs(ir.parity_measurement(st) - direct) < 1e-8


def test_parity_protocol_superpositions():
    rng = np.random.default_rng(13)
    space = qc.HilbertSpace.qubit_boson(n_max=16)
    for _ in range(5):
        st = qc.random_pure_state(space, rng)
        assert abs(ir.parity_measurement(st) - ir.parity_direct(st)) < 1e-8


def test_parity_protocol_sampled():
    space = qc.HilbertSpace.qubit_boson(n_max=10)
    st = qc.basis_state(space, [1, 0])
    est = ir.parity_measurement(st, shots=20000, master_seed=5)
    assert est == ir.parity_measurement(st, shots=20000, master_seed=5)
    assert abs(est - ir.parity_direct(st)) < 0.05


def test_parity_dispersive_low_manifold():
    space = qc.HilbertSpace.qubit_boson(n_max=14)
    for occ in ([1, 0], [0, 1], [1, 2]):
        st = qc.basis_state(space, occ)
        err = abs(ir.parity_measurement_dispersive(st) - ir.parity_direct(st))
        assert err < 2e-2, (occ, err)
    amps = np.zeros(30, dtype=complex)
    amps[[0, 1, 15, 16]] = [0.5, 0.5, 0.5, 0.5]
    st = qc.PureState(space, amps)
    err = abs(ir.parity_measurement_dispersive(st) - ir.parity_direct(st))
    assert err < 2e-2


def closed_form_dispersive_matrix(db, sign, delta, eps, duration, coupling, t):
    """The dispersive pulse assembled densely at time t."""
    a = qc.boson_annihilation(db)
    w = math.sin(math.pi * t / duration) ** 2
    mode = a * np.exp(-1j * eps * t) + a.conj().T * np.exp(1j * eps * t)
    block = (coupling * w) * np.exp(1j * sign * delta * t) * mode
    h = np.zeros((2 * db, 2 * db), dtype=complex)
    h[:db, db:] = block
    h[db:, :db] = block.conj().T
    return h


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dispersive_terms_match_closed_form(sign):
    space = qc.HilbertSpace.qubit_boson(n_max=9)
    args = (sign, 20.0, 5.0, 3.3, 0.8)
    h = ir._dispersive_pulse_schedule(space, *args)
    for t in np.linspace(0.1, 3.2, 5):
        oracle = closed_form_dispersive_matrix(10, *args, t)
        assert relative_gap(h.matrix_at(t), oracle) < 1e-12
    first = h.matrix_at(0.7)
    kept = first.copy()
    h.matrix_at(2.1)
    assert np.array_equal(first, kept)


def test_dispersive_calibration_keyed_by_tolerance(monkeypatch):
    # a readout at its default tolerance must not reuse a calibration made
    # at another tolerance
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    st = qc.basis_state(qc.HilbertSpace.qubit_boson(n_max=6), [1, 2])
    alone = ir.parity_measurement_dispersive(st, delta_ratio=6.0)
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    ir.parity_measurement_dispersive(st, delta_ratio=6.0, tol=1e-6)
    assert ir.parity_measurement_dispersive(st, delta_ratio=6.0) == alone


def test_dispersive_sign_flip_is_sigma_x_conjugation():
    # X H_-(t) X = H_+(t) exactly, so the -delta pulse is X U_+ X
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    args = (6.0, 1.5, 6.4, 1.0)
    h_plus = ir._dispersive_pulse_schedule(space, +1.0, *args)
    h_minus = ir._dispersive_pulse_schedule(space, -1.0, *args)
    x = np.kron(qc.operators.PAULIS["X"], np.eye(7))
    for t in (0.0, 0.37, 1.9, 3.2, 5.55, 6.4):
        assert np.max(np.abs(x @ h_minus.matrix_at(t) @ x - h_plus.matrix_at(t))) < 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dispersive_readout_operators_match_ket_oracle(sign, monkeypatch):
    # each cached operator against its pulse integrated ket by ket at a
    # tighter tolerance, from the closed-form matrix (no sigma_x symmetry)
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    db, delta_ratio, eps_frac = 7, 6.0, 0.25
    space = qc.HilbertSpace.qubit_boson(n_max=db - 1)
    cal = ir._dispersive_calibration(db, delta_ratio, eps_frac, 1e-9)
    delta = delta_ratio
    args = (db, sign, delta, eps_frac * delta, cal.duration, 1.0)
    oracle = lambda t: closed_form_dispersive_matrix(*args, t)
    axis_rot = np.kron(expm(-1j * math.pi / 4.0 * qc.operators.SIGMA_Y), np.eye(db))
    comp = np.repeat(np.exp(-1j * sign * np.array([cal.off_e, cal.off_g])), db)
    m = cal.m_plus if sign > 0 else cal.m_minus
    rng = np.random.default_rng(8)
    for _ in range(3):
        amps = rng.standard_normal(2 * db) + 1j * rng.standard_normal(2 * db)
        psi = qc.PureState(space, amps / np.linalg.norm(amps))
        start = qc.PureState(space, axis_rot.conj().T @ psi.amplitudes)
        ket = dense_carry(oracle, start.amplitudes, 0.0, cal.duration, tol=1e-12)
        expected = axis_rot @ (comp * ket)
        assert np.max(np.abs(m @ psi.amplitudes - expected)) < 1e-8


def test_dispersive_pulse_integrated_once_per_calibration(monkeypatch):
    # the calibration makes two RK45 runs (the Newton pulse and the final
    # propagator); readouts apply the cached operators and integrate nothing
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    runs = []
    real = evolve_module.integrate

    def counting(rhs, y0, t0, t1, tol):
        runs.append((t0, t1))
        return real(rhs, y0, t0, t1, tol)

    # the Newton pulse is carried by qcore too, so one patch counts both runs
    monkeypatch.setattr(evolve_module, "integrate", counting)
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    ir.parity_measurement_dispersive(qc.basis_state(space, [1, 0]), delta_ratio=6.0)
    assert len(runs) == 2
    for occ in ([0, 1], [1, 2], [0, 3]):
        ir.parity_measurement_dispersive(qc.basis_state(space, occ), delta_ratio=6.0)
    assert len(runs) == 2
    ir.parity_measurement_dispersive(qc.basis_state(space, [0, 1]), delta_ratio=6.0,
                                     tol=1e-7)   # a new tol calibrates again
    assert len(runs) == 4


@pytest.mark.parametrize("db", [7, 15])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dispersive_pulse_reflection_identity(sign, db):
    # H(T - t) = F(T) conj(H(t)) F(T)^dag with F(T) = exp(i T h0): the pulse
    # is real and symmetric about T/2 in its carrier frame, which is what
    # lets the calibration integrate only [0, T/2].  The phases T h0 reach
    # about 1600 rad here, so the two sides differ by their rounding: the
    # bound is 1e-14 per radian of the largest phase.
    delta, eps, duration = 20.0, 5.0, 19.87
    space = qc.HilbertSpace.qubit_boson(n_max=db - 1)
    h = ir._dispersive_pulse_schedule(space, sign, delta, eps, duration, 1.0)
    h0 = (0.5 * sign * delta * np.kron([1.0, -1.0], np.ones(db))
          + eps * np.kron(np.ones(2), np.arange(db)))
    f = np.exp(1j * duration * h0)
    bound = 1e-14 * duration * np.max(np.abs(h0))
    for t in (0.37, 2.5, 6.1, 9.0, 0.49 * duration):
        reflected = f[:, None] * h.matrix_at(t).conj() * f.conj()
        assert relative_gap(h.matrix_at(duration - t), reflected) < bound, t


def full_window_dispersive_calibration(db, delta_ratio, eps_frac, tol):
    """The calibration integrated over whole pulses: a Newton run over
    [0, T0] on the four low columns, then the propagator over [0, T]."""
    delta = delta_ratio
    eps = eps_frac * delta
    chi_eff = 1.0 / (delta - eps) + 1.0 / (delta + eps)
    t_star = math.pi / 4.0
    space = qc.HilbertSpace.qubit_boson(n_max=db - 1)
    low = [0, 1, db, db + 1]
    first = (8.0 / 3.0) * t_star / chi_eff
    pulse = ir._dispersive_pulse_schedule(space, 1.0, delta, eps, first, 1.0)
    shape = (2 * db, len(low))
    block = qc.integrate(lambda t, y: -1j * pulse.apply(t, y.reshape(shape)).reshape(-1),
                         np.eye(2 * db, dtype=complex)[:, low].reshape(-1),
                         0.0, first, tol).reshape(shape)
    ph = np.angle(block[low, range(4)])
    slope = 0.5 * (abs(ph[1] - ph[0]) + abs(ph[3] - ph[2]))
    duration = first * t_star / slope
    pulse = ir._dispersive_pulse_schedule(space, 1.0, delta, eps, duration, 1.0)
    u_plus = qc.propagator(pulse, 0.0, duration, tol)
    off_e, off_g = np.angle(u_plus[0, 0]), np.angle(u_plus[db, db])
    x = np.kron(qc.operators.PAULIS["X"], np.eye(db))
    axis_rot = np.kron(expm(-1j * t_star * qc.operators.SIGMA_Y), np.eye(db))
    readout = []
    for sign, u in ((1.0, u_plus), (-1.0, x @ u_plus @ x)):
        comp = np.repeat(np.exp(-1j * sign * np.array([off_e, off_g])), db)
        readout.append(axis_rot @ (comp[:, None] * u) @ axis_rot.conj().T)
    return first, duration, off_e, off_g, readout


def test_dispersive_calibration_matches_full_window(monkeypatch):
    # the half-pulse calibration against whole-pulse integrations written
    # here, and its two RK45 runs cover only [0, T0/2] and [0, T/2]
    db, delta_ratio, eps_frac, tol = 7, 6.0, 0.25, 1e-9
    first, duration, off_e, off_g, (m_plus, m_minus) = \
        full_window_dispersive_calibration(db, delta_ratio, eps_frac, tol)
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    runs = []
    real = evolve_module.integrate

    def counting(rhs, y0, t0, t1, tol):
        runs.append((t0, t1))
        return real(rhs, y0, t0, t1, tol)

    monkeypatch.setattr(evolve_module, "integrate", counting)
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    cal = ir._dispersive_calibration(db, delta_ratio, eps_frac, tol)
    assert abs(cal.duration - duration) < 1e-9
    assert abs(cal.off_e - off_e) < 1e-9
    assert abs(cal.off_g - off_g) < 1e-9
    assert np.max(np.abs(cal.m_plus - m_plus)) < 1e-9
    assert np.max(np.abs(cal.m_minus - m_minus)) < 1e-9
    assert runs == [(0.0, first / 2), (0.0, cal.duration / 2)]


@pytest.mark.parametrize("columns", ["low", "all", "both sectors"])
def test_dispersive_block_route_takes_the_dense_steps(columns, monkeypatch):
    # the packed carry over the first half-pulse against qc.integrate over
    # the dense pulse.apply, the oracle of the full-window test above: the
    # same right-hand-side evaluations and agreement to 1e-13
    db, delta, eps, tol = 7, 6.0, 1.5, 1e-9
    space = qc.HilbertSpace.qubit_boson(n_max=db - 1)
    duration = (8.0 / 3.0) * (math.pi / 4.0) / (1.0 / (delta - eps) + 1.0 / (delta + eps))
    pulse = ir._dispersive_pulse_schedule(space, 1.0, delta, eps, duration, 1.0)
    eye = np.eye(2 * db, dtype=complex)
    rng = np.random.default_rng(5)
    y = {"low": eye[:, [0, 1, db, db + 1]], "all": eye,
         "both sectors": np.stack([(eye[:, 0] + eye[:, db]) / math.sqrt(2.0),
                                   rng.standard_normal(2 * db)
                                   + 1j * rng.standard_normal(2 * db)], axis=1)}[columns]
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    real, counts = evolve_module.integrate, []

    def counting(rhs, y0, t0, t1, tol):
        def counted(t, v):
            counts.append(t)
            return rhs(t, v)
        return real(counted, y0, t0, t1, tol)

    monkeypatch.setattr(evolve_module, "integrate", counting)
    block = qc.carry(pulse, y, 0.0, duration / 2, tol)
    packed_evals = len(counts)
    counts.clear()
    shape = y.shape
    oracle = counting(lambda t, v: -1j * pulse.apply(t, v.reshape(shape)).reshape(-1),
                      y.reshape(-1), 0.0, duration / 2, tol).reshape(shape)
    assert packed_evals == len(counts) > 0
    assert np.max(np.abs(block - oracle)) < 1e-13


def test_dispersive_readout_operators_read_only(monkeypatch):
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    cal = ir._dispersive_calibration(5, 6.0, 0.25, 1e-6)
    for m in (cal.m_plus, cal.m_minus):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_parity_dispersive_rejects_bad_inputs(monkeypatch):
    monkeypatch.setattr(ir, "_DISPERSIVE_CAL_CACHE", {})
    two_qubits = qc.basis_state(qc.HilbertSpace.qubits(2), [1, 0])
    with pytest.raises(ValueError):
        ir.parity_measurement_dispersive(two_qubits)
    st = qc.basis_state(qc.HilbertSpace.qubit_boson(n_max=4), [1, 0])
    for bad in ({"eps_frac": 1.0}, {"eps_frac": -1.0}, {"eps_frac": float("nan")},
                {"delta_ratio": 0.0}, {"delta_ratio": -6.0},
                {"delta_ratio": float("nan")}):
        with pytest.raises(ValueError):
            ir.parity_measurement_dispersive(st, **bad)
    assert ir._DISPERSIVE_CAL_CACHE == {}   # rejected before any calibration


def test_pulse_propagator_keeps_no_step_history():
    # a 30-column propagator of the dispersive pulse takes about 700 steps
    # of the 8(5,3) pair; storing the 30 x 30 state of every step takes
    # 10 MB, and stacking them doubles that
    space = qc.HilbertSpace.qubit_boson(n_max=14)
    h = ir._dispersive_pulse_schedule(space, 1.0, 20.0, 5.0, 19.87, 1.0)
    tracemalloc.start()
    try:
        u = qc.propagator(h, 0.0, 19.87, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(u.conj().T @ u - np.eye(30))) < 1e-7
    assert peak < 10e6, peak


def _full_eigh_spectrum_point(omega, omega_q, g, n_levels, n_max, n_qubits=1):
    """Reference labelling of the lowest levels from a full complex eigh."""
    tp = ir.TwoPhotonParams(omega=omega, omega_q=omega_q, g=g)
    evals, evecs = np.linalg.eigh(ir.two_photon_hamiltonian(tp, n_qubits, n_max).matrix())
    diag = ir.generalized_parity_diagonal(
        qc.HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits))
    parities, weights = [], []
    for k in range(n_levels):
        probs = np.abs(evecs[:, k]) ** 2
        sector = [float(np.sum(probs[np.abs(diag - lam) < 1e-9]))
                  for lam in ir.PARITY_SECTORS]
        best = int(np.argmax(sector))
        parities.append(ir.PARITY_SECTORS[best])
        weights.append(sector[best])
    return evals[:n_levels], np.array(parities), np.array(weights)


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("simulation_frame", [False, True])
def test_two_photon_hamiltonian_factor_order(n_qubits, simulation_frame):
    # qubits first, the mode last, summed in the builder's term order
    tp = ir.TwoPhotonParams(omega=1.1, omega_q=-1.9, g=0.37)
    db = 9
    a = np.diag(np.sqrt(np.arange(1.0, db)), k=1).astype(complex)
    sq = a @ a + (a @ a).conj().T
    z, x, eye2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)

    def on_qubit(op, q):
        out = np.ones((1, 1))
        for k in range(n_qubits):
            out = np.kron(out, op if k == q else eye2)
        return out

    sign = -1.0 if simulation_frame else 1.0
    ref = tp.omega * np.kron(np.eye(2 ** n_qubits), np.diag(np.arange(db, dtype=complex)))
    for q in range(n_qubits):
        ref = ref + 0.5 * tp.omega_q * np.kron(on_qubit(z, q), np.eye(db))
        ref = ref + sign * (tp.g / n_qubits) * np.kron(on_qubit(x, q), sq)
    h = ir.two_photon_hamiltonian(tp, n_qubits, db - 1, simulation_frame=simulation_frame)
    assert np.array_equal(h.matrix(), ref)


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("simulation_frame", [False, True])
def test_two_photon_hamiltonian_is_real(n_qubits, simulation_frame):
    tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=0.3)
    h = ir.two_photon_hamiltonian(tp, n_qubits, 12, simulation_frame=simulation_frame)
    assert np.all(h.matrix().imag == 0.0)


def test_two_photon_subset_eigh_matches_full_at_scenario_defaults():
    params = SCENARIOS["twophoton-spectrum"].defaults
    n_levels = params["n_levels"]
    for n_max in (params["n_max"], params["n_max"] + 10):
        for g in params["g_values"]:
            point, = ir.two_photon_spectrum(1.0, params["omega_q"], 1, [g], n_levels, n_max,
                                            check_convergence=False)
            energies, parities, weights = _full_eigh_spectrum_point(
                1.0, params["omega_q"], g, n_levels, n_max)
            assert np.max(np.abs(point.energies - energies)) < 1e-12
            assert np.array_equal(point.parities, parities)
            assert np.max(np.abs(weights - 1.0)) < 1e-12


def test_collapse_diagnostics_subset_matches_full_eigh():
    n_max, n_levels, g_values = 40, 6, [0.1, 0.3, 0.45]
    diag = ir.collapse_diagnostics(1.0, 1.9, g_values, n_levels=n_levels, n_max=n_max)
    n_diag = np.kron(np.ones(2), np.arange(n_max + 1))
    for i, g in enumerate(g_values):
        tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=g)
        evals, evecs = np.linalg.eigh(ir.two_photon_hamiltonian(tp, 1, n_max).matrix())
        assert abs(diag.min_spacings[i] - np.min(np.diff(evals[:n_levels]))) < 1e-12
        occ = [np.sum(n_diag * np.abs(evecs[:, k]) ** 2) for k in range(n_levels)]
        assert np.max(np.abs(diag.mean_occupations[i] - occ)) < 1e-10


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_two_photon_hamiltonian_has_no_element_between_parity_sectors(n_qubits):
    n_max = 30
    tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=0.45)
    h = ir.two_photon_hamiltonian(tp, n_qubits, n_max).matrix()
    diag = ir.generalized_parity_diagonal(
        qc.HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits))
    sectors = [np.flatnonzero(np.abs(diag - lam) < 1e-9) for lam in ir.PARITY_SECTORS]
    assert sorted(np.concatenate(sectors).tolist()) == list(range(h.shape[0]))
    for i, a in enumerate(sectors):
        for j, b in enumerate(sectors):
            if i != j:
                assert not h[np.ix_(a, b)].any()


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_two_photon_sector_solve_matches_dense_eigvalsh(n_qubits):
    n_max, n_levels = 40, 10
    for g in (0.0, 0.1, 0.3, 0.45):
        point, = ir.two_photon_spectrum(1.0, 1.9, n_qubits, [g], n_levels, n_max,
                                        check_convergence=False)
        tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=g)
        dense = np.linalg.eigvalsh(ir.two_photon_hamiltonian(tp, n_qubits, n_max).matrix())
        assert np.max(np.abs(point.energies - dense[:n_levels])) < 1e-12
        _, parities, _ = _full_eigh_spectrum_point(1.0, 1.9, g, n_levels, n_max, n_qubits)
        assert np.array_equal(point.parities, parities)


def _forbid_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigh called before the inputs were validated")

    monkeypatch.setattr(np.linalg, "eigh", fail)


def test_two_photon_spectrum_rejects_bad_n_levels(monkeypatch):
    _forbid_eigh(monkeypatch)
    for n_levels in (0, -1, 11):  # a quarter of d = 42 is 10
        with pytest.raises(ValueError):
            ir.two_photon_spectrum(1.0, 1.9, 1, [0.2], n_levels=n_levels, n_max=20)


def test_collapse_diagnostics_rejects_bad_n_levels(monkeypatch):
    _forbid_eigh(monkeypatch)
    for n_levels in (0, 1, 43, 100):  # d = 42 at n_max = 20
        with pytest.raises(ValueError):
            ir.collapse_diagnostics(1.0, 1.9, [0.2], n_levels=n_levels, n_max=20)


def test_two_photon_rejects_non_finite_inputs(monkeypatch):
    # NaN slips through every comparison, so finiteness is checked before
    # any sector is solved, also for a grid whose first point is fine
    _forbid_eigh(monkeypatch)
    for bad in (math.nan, math.inf, -math.inf):
        for omega, omega_q, grid in ((1.0, 1.9, [bad]), (1.0, 1.9, [0.2, bad]),
                                     (bad, 1.9, [0.2]), (1.0, bad, [0.2])):
            with pytest.raises(ValueError):
                ir.two_photon_spectrum(omega, omega_q, 1, grid, n_levels=4, n_max=20)
            with pytest.raises(ValueError):
                ir.collapse_diagnostics(omega, omega_q, grid, n_levels=4, n_max=20)
        with pytest.raises(ValueError):
            ir.two_photon_spectrum(1.0, 1.9, 2, [bad], 4, 20, check_convergence=False)


def _dense_sectors(tp, n_qubits, n_max):
    """Test-local gather: the real part of the dense Hamiltonian on each
    generalized-parity sector, with the sector's product-basis indices."""
    h = ir.two_photon_hamiltonian(tp, n_qubits, n_max).matrix()
    diag = ir.generalized_parity_diagonal(
        qc.HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits))
    index = [np.flatnonzero(np.abs(diag - lam) < 1e-9) for lam in ir.PARITY_SECTORS]
    return index, [h.real[np.ix_(idx, idx)] for idx in index]


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_parity_sector_blocks_equal_dense_gather(n_qubits):
    # the term blocks, built once and summed per coupling, are the dense
    # Hamiltonian's sectors bit for bit, signed zeros included
    n_max = 24
    sectors = ir._ParitySectors.build(n_qubits, n_max)
    for a in (*sectors.index, *(b for blocks in sectors.blocks for b in blocks)):
        assert not a.flags.writeable
    for g in (0.0, 0.1, 0.3, 0.45, 0.49, 0.7):
        for omega, omega_q in ((1.0, 1.9), (1.3, -0.4)):
            tp = ir.TwoPhotonParams(omega=omega, omega_q=omega_q, g=g)
            index, dense = _dense_sectors(tp, n_qubits, n_max)
            assert all(np.array_equal(a, b) for a, b in zip(sectors.index, index))
            for block, gathered in zip(sectors.hamiltonian_blocks(tp), dense):
                assert np.array_equal(block, gathered)
                assert block.tobytes() == gathered.tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_parity_sectors_form_no_dense_matrix(n_qubits, monkeypatch):
    # each term's sector blocks are gathered from its factors by
    # OperatorSum.blocks: with OperatorSum.matrix and kron_all refused (the
    # parity diagonal may still join its 1-D factors), the build gives the
    # same blocks, bit for bit
    n_max = 24
    expected = ir._ParitySectors.build(n_qubits, n_max)
    real_kron_all = qc.kron_all

    def refuse(*args):
        raise AssertionError("a dense d x d matrix was formed")

    def vectors_only(mats):
        if any(np.ndim(m) != 1 for m in mats):
            refuse()
        return real_kron_all(mats)

    monkeypatch.setattr(qc.OperatorSum, "matrix", refuse)
    monkeypatch.setattr(qc.operators, "kron_all", refuse)
    monkeypatch.setattr(ir, "kron_all", vectors_only)
    sectors = ir._ParitySectors.build(n_qubits, n_max)
    assert all(np.array_equal(a, b) for a, b in zip(sectors.index, expected.index,
                                                    strict=True))
    for got, want in zip(sectors.blocks, expected.blocks, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_two_photon_spectrum_equals_dense_sector_solve(n_qubits):
    # a test-local copy of the per-coupling solve that gathered each sector
    # out of the dense H: the same eigh inputs give the same bits
    n_max, n_levels, grid = 30, 6, [0.0, 0.2, 0.45, 0.49]

    def lowest(g, cutoff):
        tp = ir.TwoPhotonParams(omega=1.0, omega_q=1.9, g=g)
        energies, parities = [], []
        for lam, block in zip(ir.PARITY_SECTORS, _dense_sectors(tp, n_qubits, cutoff)[1]):
            keep = min(n_levels, block.shape[0])
            energies.append(np.linalg.eigh(block)[0][:keep])
            parities += [lam] * keep
        order = np.argsort(np.concatenate(energies), kind="stable")[:n_levels]
        return np.concatenate(energies)[order], np.array(parities)[order]

    points = ir.two_photon_spectrum(1.0, 1.9, n_qubits, grid, n_levels, n_max,
                                    check_convergence=False)
    for g, point in zip(grid, points):
        energies, parities = lowest(g, n_max)
        again, _ = lowest(g, n_max + 10)
        assert point.g == g
        assert np.array_equal(point.energies, energies)
        assert np.array_equal(point.parities, parities)
        assert np.array_equal(point.truncation_shifts, np.abs(energies - again))


def test_two_photon_scenario_builds_each_cutoff_once(monkeypatch):
    # a default run builds the three terms and the parity diagonal once per
    # cutoff: 8 Kronecker products, where a dense H per coupling and cutoff
    # took 48 (the runners are imported first: eqs builds gates at import)
    importlib.import_module("qworkbench.harness.runners")
    real = qc.kron_all
    calls = []

    def counting(mats):
        calls.append(len(mats))
        return real(mats)

    for module in (qc, qc.operators, ir):
        monkeypatch.setattr(module, "kron_all", counting)
    harness.run_scenario(harness.ScenarioConfig("twophoton-spectrum"))
    assert 0 < len(calls) <= 8
