"""Digital-analog Trotterization: Heisenberg chains from XX/XY analog
blocks with collective rotations, and Rabi/Dicke digitization from
Jaynes-Cummings steps interleaved with qubit flips (an index permutation),
with error, noise and gate-count accounting.  The noisy digitization writes
no master equation: its segments are ``openmaster.LindbladModel``s, evolved
by ``openmaster.lindblad_exact``.

The Heisenberg split is ``H = H_XY + H_ZZ`` with ``H_ZZ`` generated by
conjugating the XX block with the collective rotation ``R_y(pi/4) =
exp(-i (pi/4) sum_i sigma_y^i)``; a Trotter step reads
``exp(-i H_XY t/l) R_y exp(-i H_XX t/l) R_y^dag``.  For uniform couplings
the two halves commute and a single step is exact.  Since
``R_y H_XX R_y^dag = H_ZZ`` exactly, the rotated half is computed as
``exp(-i H_ZZ t/l)``, a diagonal: one column scaling of
``exp(-i H_XY t/l)``.  The fully digital baseline exponentiates each bond
in closed form: ``XX + YY + ZZ = 2 SWAP - I`` and ``SWAP^2 = I`` give
``exp(-i theta (2 SWAP - I)) = e^{i theta} (cos 2theta - i sin 2theta SWAP)``
with ``theta = J_ij t/l``, where ``SWAP`` permutes rows; ``R_y`` itself is the
tensor power of the one-spin rotation.

Each coupling builds what these loops reuse (the constant schedules of
``H_XY`` and ``H``, the ``H_ZZ`` diagonal and one SWAP permutation per
bond) on first use and keeps it, read-only, for the coupling's lifetime.
"""
from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    PureState,
    Schedule,
    basis_state,
    evolve,
    evolve_trace,
    expectation,
    kron_all,
    on_factors,
    partial_trace,
    pauli_rotation,
    propagator,
)
from .openmaster import LindbladModel, lindblad_exact

MAX_SPINS = 12


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpinCouplingMatrix:
    """Symmetric spin-spin couplings J_ij (zero diagonal), finite.

    The matrix is the coupling's own read-only copy, so the Trotter
    generators, built on first use and kept (``_generators``) as
    ``OperatorSum`` keeps its matrix, cannot go stale.  Two couplings are
    equal, and hash alike, when their matrices have the same shape and
    bytes.
    """

    matrix: np.ndarray
    _cache: "_Generators | None" = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        # a new array; adding 0.0 also turns -0.0 into 0.0, so equal
        # couplings have equal bytes
        m = np.asarray(self.matrix, dtype=float) + 0.0
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coupling matrix must be square")
        if m.shape[0] < 1:
            raise ValueError("a coupling matrix needs at least one spin; this one has 0 spins")
        if m.shape[0] > MAX_SPINS:
            raise ValueError(f"at most {MAX_SPINS} spins are supported densely")
        if not np.isfinite(m).all():
            raise ValueError("coupling matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diag(m))) > 0.0:
            raise ValueError("coupling matrix must have zero diagonal")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        if not isinstance(other, SpinCouplingMatrix):
            return NotImplemented
        return (self.matrix.shape == other.matrix.shape
                and self.matrix.tobytes() == other.matrix.tobytes())

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))

    @property
    def n_spins(self) -> int:
        return self.matrix.shape[0]

    def _generators(self) -> "_Generators":
        """The coupling's Trotter generators, built once.  The cache is
        assigned only when fully built, and every array in it is read-only,
        so concurrent callers share it safely."""
        if self._cache is None:
            object.__setattr__(self, "_cache", _Generators.build(self))
        return self._cache

    @staticmethod
    def power_law(n_spins: int, j: float, alpha: float) -> "SpinCouplingMatrix":
        """J_ij = j / |i-j|^alpha with 0 < alpha < 3 and j > 0."""
        if not j > 0.0:
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


def analog_block(kind: str, coupling: SpinCouplingMatrix) -> np.ndarray:
    """Dense H_XX, H_XY, or H_ZZ for the given couplings (read-only), summed
    from one ``OperatorSum`` term J_ij P_i P_j per nonzero bond and letter."""
    n = coupling.n_spins
    letters = {"XX": ("X",), "XY": ("X", "Y"), "ZZ": ("Z",)}
    if kind not in letters:
        raise ValueError("kind must be one of XX, XY, ZZ")
    space = HilbertSpace.qubits(n)
    return OperatorSum(space, [
        (coupling.matrix[i, j], on_factors(space, {i: letter, j: letter}))
        for i in range(n) for j in range(i + 1, n) if coupling.matrix[i, j] != 0.0
        for letter in letters[kind]]).matrix()


@dataclass(frozen=True)
class _Generators:
    """What the Heisenberg Trotter loops of one coupling reuse."""

    xy: Schedule      # constant schedule of H_XY
    full: Schedule    # constant schedule of H = H_XY + H_ZZ
    zz: np.ndarray    # diagonal of H_ZZ
    bonds: tuple      # (J_ij, SWAP_ij row permutation) per nonzero bond, i < j

    @staticmethod
    def build(coupling: SpinCouplingMatrix) -> "_Generators":
        n = coupling.n_spins
        space = HilbertSpace.qubits(n)
        h_xy = analog_block("XY", coupling)
        h_zz = analog_block("ZZ", coupling)
        zz = h_zz.diagonal().real.copy()
        zz.setflags(write=False)
        # axis k of the reshaped index array is qubit k, the k-th tensor factor
        index = np.arange(space.dim).reshape((2,) * n)
        bonds = []
        for i in range(n):
            for j in range(i + 1, n):
                if coupling.matrix[i, j] == 0.0:
                    continue
                perm = np.swapaxes(index, i, j).reshape(-1)
                perm.setflags(write=False)
                bonds.append((float(coupling.matrix[i, j]), perm))
        return _Generators(xy=Schedule.constant(h_xy, space),
                           full=Schedule.constant(h_xy + h_zz, space),
                           zz=zz, bonds=tuple(bonds))


def collective_y_rotation(n: int) -> np.ndarray:
    """R_y(pi/4) = exp(-i (pi/4) sum_i sigma_y^i) on ``n`` spins, in closed form."""
    return kron_all([pauli_rotation("Y", math.pi / 4.0)] * n)


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


def _heisenberg_run(coupling: SpinCouplingMatrix, t: float, step: np.ndarray,
                    plan: TrotterPlan, states: dict | None) -> HeisenbergRun:
    """``plan.steps`` repetitions of one Trotter ``step`` against the exact
    exp(-i H t), H = H_XY + H_ZZ: the operator-norm defect and
    the fidelity of each named state."""
    u = np.linalg.matrix_power(step, plan.steps)
    exact = propagator(coupling._generators().full, 0.0, t)
    fids = {}
    for name, psi in (states or {}).items():
        amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi)
        fids[name] = float(abs(np.vdot(exact @ amps, u @ amps)) ** 2)
    return HeisenbergRun(plan=plan, unitary=u,
                         trotter_defect=float(np.linalg.norm(u - exact, ord=2)),
                         fidelities=fids)


def daqs_heisenberg(coupling: SpinCouplingMatrix, t: float, steps: int,
                    states: dict | None = None) -> HeisenbergRun:
    """Digital-analog evolution: two analog blocks and two collective
    rotations per Trotter step.

    Returns the composed unitary, the operator-norm Trotter defect against
    ``exp(-i H t)``, and per-state fidelities.  The gate count treats
    each analog block and each collective rotation as one gate.  The
    rotated XX block is applied as the diagonal ``exp(-i H_ZZ t/l)``
    (module docstring).
    """
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    gens = coupling._generators()
    tau = t / steps
    step = propagator(gens.xy, 0.0, tau) * np.exp(-1j * tau * gens.zz)
    plan = TrotterPlan(steps=steps,
                       blocks=(("XY", tau), ("Ry", math.pi / 4), ("XX", tau),
                               ("Ry", -math.pi / 4)),
                       gate_count=4 * steps)
    return _heisenberg_run(coupling, t, step, plan, states)


def digital_heisenberg(coupling: SpinCouplingMatrix, t: float, steps: int,
                       states: dict | None = None) -> HeisenbergRun:
    """Fully digital baseline: per step, exponentials of every pairwise
    Heisenberg bond in lexicographic order (three two-qubit gates each),
    each in the closed SWAP form of the module docstring."""
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    gens = coupling._generators()
    tau = t / steps
    step = np.eye(2 ** coupling.n_spins, dtype=complex)
    for j_ij, perm in gens.bonds:
        theta = j_ij * tau
        step = cmath.exp(1j * theta) * (math.cos(2.0 * theta) * step
                                        - 1j * math.sin(2.0 * theta) * step[perm])
    plan = TrotterPlan(steps=steps, blocks=(("pairwise", tau),),
                       gate_count=3 * len(gens.bonds) * steps)
    return _heisenberg_run(coupling, t, step, plan, states)


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
    sched = _xy_drive_schedule(space, omega * eta_eff, delta_mode, delta_spin)

    coupling = SpinCouplingMatrix.uniform(n_spins, j_coupling)
    ideal_sched = Schedule.constant(0.5 * analog_block("XY", coupling),
                                    HilbertSpace.qubits(n_spins))

    # benchmark state: all spins down except the middle one, phonon vacuum
    flipped = [1] * n_spins
    flipped[n_spins // 2] = 0
    spin0 = basis_state(ideal_sched.space, flipped)
    psi0 = basis_state(space, flipped + [0])

    times = np.asarray(list(times), dtype=float)
    trace = evolve_trace(psi0, sched, times, tol=tol)
    ideals = evolve_trace(spin0, ideal_sched, times)
    fids = np.empty(times.size)
    for k, (st, ideal) in enumerate(zip(trace, ideals)):
        rho_spin = partial_trace(st.to_density_matrix(), list(range(n_spins))).matrix
        fids[k] = float(np.real(np.vdot(ideal.amplitudes, rho_spin @ ideal.amplitudes)))
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
    """The pi flip ``F = (-i)^N X^(x)N (x) 1`` as the permutation reversing the
    qubit blocks; its phase cancels in every ``F M F^dag = M[perm][:, perm]``."""
    return np.arange(2 ** n_qubits * db).reshape(2 ** n_qubits, db)[::-1].reshape(-1)


def cqed_rabi_digitize(omega_r: float, omega_q: float, g: float, t: float,
                       steps: int, n_qubits: int = 1, n_max: int = 20,
                       split: tuple | None = None,
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
    The run starts with every qubit excited and the resonator in its
    vacuum.  ``noise`` switches to a density-matrix integration with
    resonator loss, qubit dephasing/relaxation, and finite raised-cosine
    flip pulses.  The reference is the exact Rabi evolution at the
    simulated time.  This is :func:`cqed_rabi_step_sweep` at one step
    count.
    """
    run, = cqed_rabi_step_sweep(omega_r, omega_q, g, t, [steps], n_qubits=n_qubits,
                                n_max=n_max, split=split, noise=noise, tol=tol)
    return run


def cqed_rabi_step_sweep(omega_r: float, omega_q: float, g: float, t: float,
                         step_counts: Sequence[int], n_qubits: int = 1,
                         n_max: int = 20, split: tuple | None = None,
                         noise: CqedNoise | None = None,
                         tol: float = 1e-9) -> list:
    """:func:`cqed_rabi_digitize` at each of ``step_counts``, one
    :class:`CqedRun` per count in order.

    What does not depend on the step count is built once: the two
    Jaynes-Cummings schedules, whose eigenbases give every count's steps,
    the collective flip, the exact reference and the observables.  A
    count's steps depend on nothing else, so every run equals the
    one-count call bit for bit.  ``tol`` is read only with ``noise``: it is
    the stepper tolerance of the Lindblad segments, and the noiseless steps
    are exact.
    """
    step_counts = list(step_counts)
    if any(isinstance(steps, bool) or not isinstance(steps, numbers.Integral)
           for steps in step_counts):
        raise ValueError(f"step counts must be integers, got {step_counts}")
    if any(steps < 1 for steps in step_counts):
        raise ValueError("need at least one Trotter step")
    if split is None:
        split = (0.5 * omega_q, 0.0)
    dq1, dq2 = split
    if not np.isfinite([omega_r, omega_q, g, t, dq1, dq2]).all():
        raise ValueError("frequencies, coupling, time and split must be finite")
    if abs((dq1 - dq2) - 0.5 * omega_q) > 1e-12 * max(1.0, abs(omega_q)):
        raise ValueError("split must satisfy dq1 - dq2 = omega_q/2")
    db = n_max + 1
    space = HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits)
    initial = basis_state(space, [0] * space.n_factors)

    h1 = _tavis_cummings(n_qubits, db, 0.5 * omega_r, dq1, g)
    h2_tilde = _tavis_cummings(n_qubits, db, 0.5 * omega_r, dq2, g)
    jc1, jc2 = Schedule.constant(h1, space), Schedule.constant(h2_tilde, space)
    flip = _collective_flip(n_qubits, db)
    h_exact = rabi_hamiltonian_dense(n_qubits, db, omega_r, omega_q, g)
    reference = evolve(initial, Schedule.constant(h_exact, space), 0.0, t)
    n_op = OperatorSum.single(space, -1, "n")
    z_total = OperatorSum(space, [(1.0, on_factors(space, {q: "Z"})) for q in range(n_qubits)])

    runs = []
    for steps in step_counts:
        tau = t / steps
        blocks = (("Flip", math.pi), ("JC-rot", tau), ("Flip", math.pi), ("JC", tau))
        plan = TrotterPlan(steps=steps, blocks=blocks, gate_count=4 * steps)
        if noise is None:
            u_step = propagator(jc1, 0.0, tau) @ propagator(jc2, 0.0, tau)[np.ix_(flip, flip)]
            u = np.linalg.matrix_power(u_step, steps)
            final = PureState(space, u @ initial.amplitudes)
            fid = float(abs(np.vdot(reference.amplitudes, final.amplitudes)) ** 2)
        else:
            final = _cqed_noisy_run(space, initial, h1, h2_tilde, flip, n_qubits,
                                    tau, steps, noise, tol)
            fid = float(np.real(np.vdot(reference.amplitudes,
                                        final.matrix @ reference.amplitudes)))
        obs = {"n": expectation(final, n_op).real, "z": expectation(final, z_total).real}
        runs.append(CqedRun(fidelity=fid, state=final, reference=reference, plan=plan,
                            observables=obs))
    return runs


def _cqed_noisy_run(space, initial, h1, h2_tilde, flip, n_qubits, tau, steps,
                    noise: CqedNoise, tol: float) -> DensityMatrix:
    """``steps`` noisy Trotter steps: each Jaynes-Cummings step and finite flip is
    a ``LindbladModel`` with the run's collapse channels, evolved at ``tol``; an
    instantaneous flip gathers rows and columns by ``flip``."""
    qubits = range(n_qubits)
    collapse = [(OperatorSum.single(space, -1, "a"), noise.kappa)] + \
        [(OperatorSum.single(space, q, "Z"), noise.gamma_phi) for q in qubits] + \
        [(OperatorSum.single(space, q, "S-"), noise.gamma_minus) for q in qubits]
    collapse = [(op, rate) for op, rate in collapse if rate > 0.0]
    jc1, jc2 = (LindbladModel(Schedule.constant(h, space), collapse) for h in (h1, h2_tilde))
    t_f = noise.flip_duration
    if t_f > 0.0:
        def envelope(s):
            # raised cosine with integral pi/2 over [0, t_f]
            return (math.pi / (2.0 * t_f)) * (1.0 - math.cos(2.0 * math.pi * s / t_f))

        sx_total = OperatorSum(space, [(1.0, on_factors(space, {q: "X"})) for q in qubits])
        pulse = LindbladModel(Schedule.from_terms(space, [(envelope, sx_total.matrix())]),
                              collapse)

    def apply_flip(rho):
        if t_f > 0.0:
            return lindblad_exact(pulse, rho, t_f, tol)
        return DensityMatrix(space, rho.matrix[np.ix_(flip, flip)], check_trace=False)

    rho = initial.to_density_matrix()
    for _ in range(steps):
        # counter-rotating step first, matching the noiseless ordering
        rho = lindblad_exact(jc2, apply_flip(rho), tau, tol)
        rho = lindblad_exact(jc1, apply_flip(rho), tau, tol)
    return rho


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
