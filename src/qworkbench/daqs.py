"""Digital-analog Trotterization: Heisenberg chains from XX/XY analog
blocks with collective rotations, and Rabi/Dicke digitization from
Jaynes-Cummings steps interleaved with qubit flips, with error, noise and
gate-count accounting.

The Heisenberg split is ``H = H_XY + H_ZZ`` with ``H_ZZ`` generated by
conjugating the XX block with the collective rotation ``R_y(pi/4) =
exp(-i (pi/4) sum_i sigma_y^i)``; a Trotter step reads
``exp(-i H_XY t/l) R_y exp(-i H_XX t/l) R_y^dag``.  For uniform couplings
the two halves commute and a single step is exact.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    PureState,
    Schedule,
    dense_pauli,
    evolve_trace,
    expectation,
    expm,
    integrate,
    kron_all,
    on_factors,
    partial_trace,
    propagator,
)
from .qcore.operators import PAULIS

MAX_SPINS = 12


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinCouplingMatrix:
    """Symmetric spin-spin couplings J_ij (zero diagonal)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coupling matrix must be square")
        if m.shape[0] > MAX_SPINS:
            raise ValueError(f"at most {MAX_SPINS} spins are supported densely")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diag(m))) > 0.0:
            raise ValueError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "matrix", m)

    @property
    def n_spins(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def explicit(matrix) -> "SpinCouplingMatrix":
        return SpinCouplingMatrix(np.asarray(matrix, dtype=float))

    @staticmethod
    def power_law(n_spins: int, j: float, alpha: float) -> "SpinCouplingMatrix":
        """J_ij = j / |i-j|^alpha with 0 < alpha < 3 and j > 0."""
        if j <= 0.0:
            raise ValueError("power-law strength must be positive")
        if not (0.0 < alpha < 3.0):
            raise ValueError("power-law exponent must sit in (0, 3)")
        m = np.zeros((n_spins, n_spins))
        for i in range(n_spins):
            for k in range(i + 1, n_spins):
                m[i, k] = m[k, i] = j / abs(i - k) ** alpha
        return SpinCouplingMatrix(m)

    @staticmethod
    def uniform(n_spins: int, j: float) -> "SpinCouplingMatrix":
        m = j * (np.ones((n_spins, n_spins)) - np.eye(n_spins))
        return SpinCouplingMatrix(m)


def _pair_string(n: int, i: int, j: int, letter: str) -> np.ndarray:
    label = "".join(letter if k in (i, j) else "I" for k in range(n))
    return dense_pauli(label)


def analog_block(kind: str, coupling: SpinCouplingMatrix) -> np.ndarray:
    """Dense H_XX, H_XY, or H_ZZ for the given couplings."""
    n = coupling.n_spins
    letters = {"XX": ("X",), "XY": ("X", "Y"), "ZZ": ("Z",)}
    if kind not in letters:
        raise ValueError("kind must be one of XX, XY, ZZ")
    d = 2 ** n
    acc = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if coupling.matrix[i, j] == 0.0:
                continue
            for letter in letters[kind]:
                acc += coupling.matrix[i, j] * _pair_string(n, i, j, letter)
    return acc


def heisenberg(coupling: SpinCouplingMatrix) -> np.ndarray:
    """sum_{i<j} J_ij (XX + YY + ZZ)."""
    return analog_block(kind="XY", coupling=coupling) + \
        analog_block(kind="ZZ", coupling=coupling)


def collective_y_rotation(n: int, theta: float = math.pi / 4.0) -> np.ndarray:
    gen = sum(dense_pauli("".join("Y" if k == q else "I" for k in range(n)))
              for q in range(n))
    return expm(-1j * theta * gen)


# ---------------------------------------------------------------------------
# Heisenberg digitization
# ---------------------------------------------------------------------------

@dataclass
class TrotterPlan:
    """Ordered per-step blocks (label, duration-or-angle) and the gate count."""

    steps: int
    blocks: tuple
    gate_count: int


@dataclass
class HeisenbergRun:
    plan: TrotterPlan
    unitary: np.ndarray
    trotter_defect: float
    fidelities: dict


def _state_fidelities(u_approx: np.ndarray, u_exact: np.ndarray, states: dict) -> dict:
    out = {}
    for name, psi in states.items():
        amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi)
        out[name] = float(abs(np.vdot(u_exact @ amps, u_approx @ amps)) ** 2)
    return out


def daqs_heisenberg(coupling: SpinCouplingMatrix, t: float, steps: int,
                    states: dict | None = None) -> HeisenbergRun:
    """Digital-analog evolution: two analog blocks and two collective
    rotations per Trotter step.

    Returns the composed unitary, the operator-norm Trotter defect against
    ``exp(-i H t)``, and per-state fidelities.  The gate count treats
    each analog block and each collective rotation as one gate.
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    n = coupling.n_spins
    h_xx = analog_block("XX", coupling)
    h_xy = analog_block("XY", coupling)
    r_y = collective_y_rotation(n)
    tau = t / steps
    step = expm(-1j * h_xy * tau) @ r_y @ expm(-1j * h_xx * tau) @ r_y.conj().T
    u = np.linalg.matrix_power(step, steps)
    exact = expm(-1j * heisenberg(coupling) * t)
    defect = float(np.linalg.norm(u - exact, ord=2))
    plan = TrotterPlan(steps=steps,
                       blocks=(("XY", tau), ("Ry", math.pi / 4), ("XX", tau),
                               ("Ry", -math.pi / 4)),
                       gate_count=4 * steps)
    fids = _state_fidelities(u, exact, states or {})
    return HeisenbergRun(plan=plan, unitary=u, trotter_defect=defect, fidelities=fids)


def digital_heisenberg(coupling: SpinCouplingMatrix, t: float, steps: int,
                       states: dict | None = None) -> HeisenbergRun:
    """Fully digital baseline: per step, exponentials of every pairwise
    Heisenberg bond in lexicographic order (three two-qubit gates each)."""
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    n = coupling.n_spins
    d = 2 ** n
    tau = t / steps
    step = np.eye(d, dtype=complex)
    n_pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            if coupling.matrix[i, j] == 0.0:
                continue
            n_pairs += 1
            bond = sum(coupling.matrix[i, j] * _pair_string(n, i, j, letter)
                       for letter in "XYZ")
            step = expm(-1j * bond * tau) @ step
    u = np.linalg.matrix_power(step, steps)
    exact = expm(-1j * heisenberg(coupling) * t)
    plan = TrotterPlan(steps=steps, blocks=(("pairwise", tau),),
                       gate_count=3 * n_pairs * steps)
    return HeisenbergRun(plan=plan, unitary=u,
                         trotter_defect=float(np.linalg.norm(u - exact, ord=2)),
                         fidelities=_state_fidelities(u, exact, states or {}))


def commutator_defect_estimate(coupling: SpinCouplingMatrix, t: float, steps: int) -> float:
    """First-order Trotter estimate ||[H_XY, H_ZZ]|| t^2 / (2 l)."""
    h_xy = analog_block("XY", coupling)
    h_zz = analog_block("ZZ", coupling)
    comm = h_xy @ h_zz - h_zz @ h_xy
    return float(np.linalg.norm(comm, ord=2)) * t * t / (2.0 * steps)


# ---------------------------------------------------------------------------
# physical XY block (single effective mode)
# ---------------------------------------------------------------------------

@dataclass
class XYBlockResult:
    times: np.ndarray
    fidelities: np.ndarray
    eta_eff: float


def _xy_drive_schedule(space: HilbertSpace, strength: float, delta_mode: float,
                       delta_spin: float) -> Schedule:
    """``strength S+ (x) (a e^{i(delta_mode - delta_spin)t} + a^dag
    e^{-i(delta_mode + delta_spin)t}) + h.c.`` on spins (x) one mode, with
    ``S+ = sum_j sigma+_j``.

    In the frame ``G = -delta_spin N_e - delta_mode n`` (``N_e`` counts the
    excited spins) the phases become static: one term
    ``strength (S+ (x) (a + a^dag) + h.c.)`` with a constant coefficient,
    so ``evolve`` takes the static route.  ``matrix_at`` is still the
    lab-frame H(t).
    """
    spins = range(space.n_factors - 1)
    coupling = OperatorSum(space, [(1.0, on_factors(space, {q: s, -1: "x"}))
                                   for s in ("S+", "S-") for q in spins])
    n_exc = OperatorSum(space, [(1.0, on_factors(space, {q: "Pe"})) for q in spins])
    n_mode = OperatorSum.single(space, -1, "n")
    frame = -delta_spin * n_exc.matrix().diagonal().real \
        - delta_mode * n_mode.matrix().diagonal().real
    return Schedule.from_terms(space, [(strength, coupling.matrix())], frame=frame)


def xy_block_physical(j_coupling: float, delta_mode: float, delta_spin: float,
                      omega: float, n_spins: int, times: Sequence[float],
                      n_max: int = 8, tol: float = 1e-8) -> XYBlockResult:
    """Fidelity of the bichromatic spin-boson block against the ideal
    (1/2) H_XY with uniform couplings.

    The chain's modes are folded into one effective mode with
    ``eta_eff = sqrt(J delta_mode / 2) / omega``; the drive
    ``omega eta_eff sum_j (sigma+_j e^{-i delta_spin t} + h.c.)
    (a e^{+i delta_mode t} + a^dag e^{-i delta_mode t})`` starts from the
    phonon vacuum, and the reduced spin state is compared with the ideal
    evolution at each requested time.
    """
    if not j_coupling * delta_mode > 0.0:
        raise ValueError("j_coupling and delta_mode must be nonzero and of one sign: "
                         "the folded mode needs eta_eff^2 = J delta_mode / (2 omega^2) > 0")
    if abs(delta_spin / delta_mode) > 0.2:
        warnings.warn("|delta_spin/delta_mode| > 0.2: the second rotating-wave "
                      "step behind the XY block is getting shaky", stacklevel=2)
    eta_eff = math.sqrt(j_coupling * delta_mode / 2.0) / omega
    space = HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_spins)
    db = n_max + 1
    d_spin = 2 ** n_spins
    sched = _xy_drive_schedule(space, omega * eta_eff, delta_mode, delta_spin)

    coupling = SpinCouplingMatrix.uniform(n_spins, j_coupling)
    ideal_sched = Schedule.constant(0.5 * analog_block("XY", coupling),
                                    HilbertSpace.qubits(n_spins))

    # benchmark state: all spins down except the middle one
    flipped = ["1"] * n_spins
    flipped[n_spins // 2] = "0"
    spin0 = np.zeros(d_spin, dtype=complex)
    spin0[int("".join(flipped), 2)] = 1.0
    vac = np.zeros(db, dtype=complex)
    vac[0] = 1.0
    psi0 = PureState(space, np.kron(spin0, vac))

    times = np.asarray(list(times), dtype=float)
    trace = evolve_trace(psi0, sched, times, tol=tol)
    fids = np.empty(times.size)
    for k, (t, st) in enumerate(zip(times, trace)):
        ideal = propagator(ideal_sched, 0.0, t) @ spin0
        rho_spin = partial_trace(st.to_density_matrix(), list(range(n_spins)))
        fids[k] = float(np.real(np.vdot(ideal, rho_spin.matrix @ ideal)))
    return XYBlockResult(times=times, fidelities=fids, eta_eff=eta_eff)


# ---------------------------------------------------------------------------
# circuit-QED Rabi/Dicke digitization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CqedNoise:
    kappa: float = 0.0          # resonator loss
    gamma_phi: float = 0.0      # qubit dephasing
    gamma_minus: float = 0.0    # qubit relaxation
    flip_duration: float = 0.0  # finite pi-pulse length (0: instantaneous)


@dataclass
class CqedRun:
    fidelity: float
    state: PureState | DensityMatrix
    reference: PureState
    plan: TrotterPlan
    observables: dict


def _tavis_cummings(n_qubits: int, db: int, omega_r_half: float, dq: float,
                    g: float) -> np.ndarray:
    """``omega_r_half n + sum_q [dq Z_q + g (S+_q a + S-_q a^dag)]`` on qubits (x) one mode."""
    space = HilbertSpace.qubit_boson(n_max=db - 1, n_qubits=n_qubits)
    terms = [(omega_r_half, on_factors(space, {-1: "n"}))]
    for q in range(n_qubits):
        terms += [(dq, on_factors(space, {q: "Z"})),
                  (g, on_factors(space, {q: "S+", -1: "a"})),
                  (g, on_factors(space, {q: "S-", -1: "adag"}))]
    return OperatorSum(space, terms).matrix()


def rabi_hamiltonian_dense(n_qubits: int, db: int, omega_r: float, omega_q: float,
                           g: float) -> np.ndarray:
    """``omega_r n + sum_q [(omega_q/2) Z_q + g X_q (a + a^dag)]`` on qubits (x) one mode."""
    space = HilbertSpace.qubit_boson(n_max=db - 1, n_qubits=n_qubits)
    terms = [(omega_r, on_factors(space, {-1: "n"}))]
    for q in range(n_qubits):
        terms += [(0.5 * omega_q, on_factors(space, {q: "Z"})),
                  (g, on_factors(space, {q: "X", -1: "x"}))]
    return OperatorSum(space, terms).matrix()


def _collective_flip(n_qubits: int, db: int) -> np.ndarray:
    x = expm(-1j * math.pi / 2.0 * PAULIS["X"])
    return kron_all([x] * n_qubits + [np.eye(db, dtype=complex)])


def cqed_rabi_digitize(omega_r: float, omega_q: float, g: float, t: float,
                       steps: int, n_qubits: int = 1, n_max: int = 20,
                       split: tuple | None = None,
                       initial: PureState | None = None,
                       noise: CqedNoise | None = None,
                       tol: float = 1e-9) -> CqedRun:
    """Interleaved Jaynes-Cummings steps and pi flips approximating the
    quantum Rabi (Dicke) dynamics.

    Each Trotter step runs the flip-conjugated counter-rotating part
    ``exp(-i H2 tau)`` first and the plain Jaynes-Cummings part
    ``exp(-i H1 tau)`` second, with qubit detunings ``split = (dq1, dq2)``
    satisfying ``dq1 - dq2 = omega_q/2`` (default ``(omega_q/2, 0)``).
    Both orderings are first-order; the counter-rotating-first one tracks
    the long-time revivals measurably better and is fixed here.
    ``noise`` switches to a density-matrix integration with resonator
    loss, qubit dephasing/relaxation, and finite raised-cosine flip pulses.
    The reference is the exact Rabi evolution at the simulated time.
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    if split is None:
        split = (0.5 * omega_q, 0.0)
    dq1, dq2 = split
    if abs((dq1 - dq2) - 0.5 * omega_q) > 1e-12 * max(1.0, abs(omega_q)):
        raise ValueError("split must satisfy dq1 - dq2 = omega_q/2")
    db = n_max + 1
    space = HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits)
    d = space.dim
    if initial is None:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0  # all qubits excited, vacuum mode
        initial = PureState(space, amps)

    tau = t / steps
    h1 = _tavis_cummings(n_qubits, db, 0.5 * omega_r, dq1, g)
    h2_tilde = _tavis_cummings(n_qubits, db, 0.5 * omega_r, dq2, g)
    flip = _collective_flip(n_qubits, db)
    h_exact = rabi_hamiltonian_dense(n_qubits, db, omega_r, omega_q, g)
    reference = PureState(space, expm(-1j * h_exact * t) @ initial.amplitudes,)

    blocks = (("Flip", math.pi), ("JC-rot", tau), ("Flip", math.pi), ("JC", tau))
    gate_count = 4 * steps
    plan = TrotterPlan(steps=steps, blocks=blocks, gate_count=gate_count)

    if noise is None:
        u_step = expm(-1j * h1 * tau) @ flip @ expm(-1j * h2_tilde * tau) @ flip.conj().T
        u = np.linalg.matrix_power(u_step, steps)
        final = PureState(space, u @ initial.amplitudes)
        fid = float(abs(np.vdot(reference.amplitudes, final.amplitudes)) ** 2)
    else:
        final = _cqed_noisy_run(space, initial, h1, h2_tilde, n_qubits, db,
                                tau, steps, noise, tol)
        fid = float(np.real(np.vdot(reference.amplitudes,
                                    final.matrix @ reference.amplitudes)))

    n_op = OperatorSum.single(space, -1, "n")
    z_total = OperatorSum(space, [(1.0, on_factors(space, {q: "Z"})) for q in range(n_qubits)])
    obs = {"n": expectation(final, n_op).real, "z": expectation(final, z_total).real}
    return CqedRun(fidelity=fid, state=final, reference=reference, plan=plan,
                   observables=obs)


def _cqed_noisy_run(space, initial, h1, h2_tilde, n_qubits, db, tau, steps,
                    noise: CqedNoise, tol: float) -> DensityMatrix:
    d = space.dim
    qubits = range(n_qubits)
    collapse = [(noise.kappa, OperatorSum.single(space, -1, "a").matrix())] + \
        [(noise.gamma_phi, OperatorSum.single(space, q, "Z").matrix()) for q in qubits] + \
        [(noise.gamma_minus, OperatorSum.single(space, q, "S-").matrix()) for q in qubits]
    collapse = [(r, op) for r, op in collapse if r > 0.0]
    sx_total = OperatorSum(space, [(1.0, on_factors(space, {q: "X"})) for q in qubits]).matrix()

    def dissipator(rho):
        acc = np.zeros_like(rho)
        for rate, op in collapse:
            od = op.conj().T
            acc += rate * 0.5 * (2.0 * op @ rho @ od - od @ op @ rho - rho @ od @ op)
        return acc

    def run_segment(rho, h_of_t, duration):
        def rhs(s, y):
            m = y.reshape(d, d)
            h = h_of_t(s)
            out = -1j * (h @ m - m @ h) + dissipator(m)
            return out.reshape(-1)

        out = integrate(rhs, rho.reshape(-1), 0.0, duration, tol).reshape(d, d)
        return 0.5 * (out + out.conj().T)

    t_f = noise.flip_duration

    def flip_envelope(s):
        # raised cosine with integral pi/2 over [0, t_f]
        return (math.pi / (2.0 * t_f)) * (1.0 - math.cos(2.0 * math.pi * s / t_f))

    rho = initial.to_density_matrix().matrix
    flip_exact = _collective_flip(n_qubits, db)

    def apply_flip(rho):
        if t_f > 0.0:
            return run_segment(rho, lambda s: flip_envelope(s) * sx_total, t_f)
        return flip_exact @ rho @ flip_exact.conj().T

    for _ in range(steps):
        # counter-rotating step first, matching the noiseless ordering
        rho = apply_flip(rho)
        rho = run_segment(rho, lambda s: h2_tilde, tau)
        rho = apply_flip(rho)
        rho = run_segment(rho, lambda s: h1, tau)
    return DensityMatrix(space, rho, check_trace=False)


def gate_count_bound(t: float, omega_r: float, omega_q: float, g: float,
                     n_qubits: int, m_excitations: int, eps: float,
                     k: int = 1) -> tuple:
    """(N_eps, norm_bound): gates needed for digital error below ``eps``.

    ``N_eps = 2 * 5^{2k} (2 t ||H||)^{1 + 1/2k} / eps^{1/2k}`` with the
    norm bound ``||H|| <= omega_r M + N (omega_q + 2|g| sqrt(M+1))``.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if m_excitations < 1:
        raise ValueError("the excitation cutoff must be at least 1")
    norm_bound = omega_r * m_excitations + n_qubits * (
        omega_q + 2.0 * abs(g) * math.sqrt(m_excitations + 1.0))
    n_eps = 2.0 * 5.0 ** (2 * k) * (2.0 * t * norm_bound) ** (1.0 + 0.5 / k) \
        / eps ** (0.5 / k)
    return int(math.ceil(n_eps)), norm_bound
