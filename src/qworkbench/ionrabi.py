"""Trapped-ion laser drives and the (two-photon) quantum Rabi family.

The full bichromatic interaction-picture Hamiltonian

    H(t) = sum_{n in {r,b}} (Omega_n/2) exp(i eta [a e^{-i nu t} + a^dag e^{i nu t}])
           exp(i (omega_0 - omega_n) t) e^{i phi_n} sigma^+  +  h.c.

is materialized exactly on the truncated mode: the displacement exponential
at time t is the phase conjugation ``R(t) D R(t)^dag`` of the static
``D = exp(i eta (a + a^dag))`` with ``R(t) = diag(e^{i nu t k})``, which
keeps it exactly unitary at the truncation edge.  The schedule is in term
form: two fixed matrices built from ``D`` and the frame ``nu a^dag a``.

First sidebands with detunings (delta_r, delta_b) realize the quantum Rabi
model with ``omega_0^R = -(delta_r + delta_b)/2``, ``omega^R =
(delta_r - delta_b)/2``, ``g = eta Omega / 2``; second sidebands give the
two-photon model with ``omega = (delta_r - delta_b)/4``, ``omega_q =
-(delta_r + delta_b)/2``, ``g = eta^2 Omega / 4``.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .qcore import (
    Boson,
    HilbertSpace,
    OperatorSum,
    PureState,
    Qubit,
    Schedule,
    boson_annihilation,
    evolve,
    expectation,
)
from .qcore.operators import PAULIS, SIGMA_M, SIGMA_P, SIGMA_Y, SIGMA_Z, kron_all


class TruncationError(RuntimeError):
    """Observable shifted beyond tolerance when the Fock cutoff increased."""


# ---------------------------------------------------------------------------
# drive parameters and effective-model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IonDriveParams:
    """Bichromatic sideband drive on a single trapped ion."""

    nu: float                 # trap frequency (rad/s)
    omega0: float             # qubit splitting (rad/s)
    omega_r: float            # red-sideband Rabi strength (rad/s)
    omega_b: float            # blue-sideband Rabi strength (rad/s)
    eta: float                # Lamb-Dicke parameter
    delta_r: float = 0.0      # red detuning (rad/s)
    delta_b: float = 0.0      # blue detuning (rad/s)
    sideband_order: int = 1   # 1: first sidebands (Rabi), 2: second (two-photon)
    phi_r: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("Lamb-Dicke parameter must be positive")
        if self.sideband_order not in (1, 2):
            raise ValueError("sideband_order must be 1 or 2")
        worst = max(abs(self.delta_r), abs(self.delta_b))
        if self.nu > 0 and worst / self.nu > 0.1:
            warnings.warn(
                f"detuning/trap ratio {worst / self.nu:.3f} > 0.1: the "
                "vibrational rotating-wave step is getting shaky", stacklevel=2)


@dataclass(frozen=True)
class RabiParams:
    """Effective quantum Rabi parameters (with provenance in `source`)."""

    omega0_r: float
    omega_r: float
    g: float
    n_qubits: int = 1
    source: IonDriveParams | None = None


@dataclass(frozen=True)
class TwoPhotonParams:
    omega: float
    omega_q: float
    g: float
    n_qubits: int = 1
    source: IonDriveParams | None = None

    @property
    def collapse_flag(self) -> bool:
        """True at or beyond g = omega/2, where the spectrum is unbounded below."""
        return self.g >= 0.5 * self.omega


def effective_qrm(p: IonDriveParams) -> RabiParams:
    """First-sideband mapping to the quantum Rabi model."""
    if p.sideband_order != 1:
        raise ValueError("first-sideband drive required")
    _require_balanced(p)
    return RabiParams(
        omega0_r=-(p.delta_r + p.delta_b) / 2.0,
        omega_r=(p.delta_r - p.delta_b) / 2.0,
        g=p.eta * p.omega_r / 2.0,
        source=p,
    )


def effective_two_photon(p: IonDriveParams) -> TwoPhotonParams:
    """Second-sideband mapping to the two-photon quantum Rabi model."""
    if p.sideband_order != 2:
        raise ValueError("second-sideband drive required")
    _require_balanced(p)
    return TwoPhotonParams(
        omega=(p.delta_r - p.delta_b) / 4.0,
        omega_q=-(p.delta_r + p.delta_b) / 2.0,
        g=p.eta ** 2 * p.omega_r / 4.0,
        source=p,
    )


def _require_balanced(p: IonDriveParams):
    scale = max(abs(p.omega_r), abs(p.omega_b), 1e-300)
    if abs(p.omega_r - p.omega_b) > 1e-9 * scale:
        raise ValueError("the effective mappings assume equal sideband strengths")


# ---------------------------------------------------------------------------
# full drive Hamiltonian
# ---------------------------------------------------------------------------

def ion_hamiltonian(p: IonDriveParams, n_max: int) -> Schedule:
    """Schedule for the full interaction-picture bichromatic drive.

    In term form: ``c(t) sigma^+ (x) D + conj(c(t)) sigma^- (x) D^dag`` in
    the frame ``nu a^dag a`` on both qubit levels, which turns the static
    ``D`` into ``R(t) D R(t)^dag``; ``c(t)`` sums the two sideband tones.
    """
    if n_max < 10:
        raise ValueError("n_max >= 10 required for the full drive")
    space = HilbertSpace.qubit_boson(n_max=n_max)
    db = n_max + 1
    a = boson_annihilation(db)
    disp = expm(1j * p.eta * (a + a.conj().T))
    s = p.sideband_order
    # omega_0 - omega_r = s*nu - delta_r ; omega_0 - omega_b = -s*nu - delta_b
    freq_r = s * p.nu - p.delta_r
    freq_b = -s * p.nu - p.delta_b
    amp_r = 0.5 * p.omega_r * cmath.exp(1j * p.phi_r)
    amp_b = 0.5 * p.omega_b * cmath.exp(1j * p.phi_b)

    def c(t: float) -> complex:
        return amp_r * cmath.exp(1j * freq_r * t) + amp_b * cmath.exp(1j * freq_b * t)

    frame = np.tile(p.nu * np.arange(db, dtype=float), 2)
    return Schedule.from_terms(space, [
        (c, np.kron(SIGMA_P, disp)),
        (lambda t: c(t).conjugate(), np.kron(SIGMA_M, disp.conj().T)),
    ], frame=frame)


def lamb_dicke_monitor(p: IonDriveParams, states: Sequence[PureState]) -> float:
    """max over states of eta * sqrt(<a^dag a>), the regime-validity figure."""
    worst = 0.0
    for st in states:
        space = st.space
        n_op = OperatorSum.single(space, space.n_factors - 1, "n", hermitian=True)
        worst = max(worst, p.eta * math.sqrt(max(expectation(st, n_op).real, 0.0)))
    return worst


# ---------------------------------------------------------------------------
# effective-model Hamiltonians
# ---------------------------------------------------------------------------

def qrm_hamiltonian(r: RabiParams, n_max: int) -> OperatorSum:
    """(omega0/2) sigma_z + omega a^dag a + i g (sigma^+ - sigma^-)(a + a^dag).

    The coupling ``i g (sigma^+ - sigma^-) = -g sigma_y``.
    """
    space = HilbertSpace.qubit_boson(n_max=n_max)
    return OperatorSum(space, [
        (0.5 * r.omega0_r, ("Z", "I")),
        (r.omega_r, ("I", "n")),
        (-r.g, ("Y", "x")),
    ], hermitian=True)


def two_photon_hamiltonian(tp: TwoPhotonParams, n_qubits: int, n_max: int,
                           simulation_frame: bool = False) -> OperatorSum:
    """omega a^dag a + sum_n (omega_q/2) sigma_z^n
    + (g/N) sum_n sigma_x^n (a^2 + a^dag^2).

    ``simulation_frame`` flips the coupling sign, matching the Hamiltonian
    realized by the second-sideband drive in its simulation picture.
    """
    space = HilbertSpace(tuple(Qubit() for _ in range(n_qubits)) + (Boson(n_max),))
    db = n_max + 1
    a = boson_annihilation(db)
    sq = a @ a + (a @ a).conj().T
    # a^2 + a^dag^2 is not a single primitive: assemble densely
    mat = np.kron(np.eye(2 ** n_qubits, dtype=complex),
                  tp.omega * np.diag(np.arange(db, dtype=complex)))
    for q in range(n_qubits):
        zq = [np.eye(2, dtype=complex)] * n_qubits
        zq[q] = PAULIS["Z"]
        mat += 0.5 * tp.omega_q * np.kron(kron_all(zq), np.eye(db))
        xq = [np.eye(2, dtype=complex)] * n_qubits
        xq[q] = PAULIS["X"]
        sign = -1.0 if simulation_frame else 1.0
        mat += sign * (tp.g / n_qubits) * np.kron(kron_all(xq), sq)
    return _DenseOperator(space, mat)


class _DenseOperator:
    """Minimal OperatorSum-compatible wrapper for assembled dense matrices."""

    def __init__(self, space: HilbertSpace, mat: np.ndarray, hermitian: bool = True):
        self.space = space
        self._mat = mat
        self.hermitian = hermitian

    def matrix(self) -> np.ndarray:
        return self._mat

    def norm_inf(self) -> float:
        return float(np.linalg.norm(self._mat, ord=2))


def qrm_frame_rotation(n_max: int) -> np.ndarray:
    """Local z rotation mapping the -g sigma_y (a+a^dag) coupling form onto
    the +g sigma_x (a+a^dag) form: R H_y R^dag = H_x."""
    r = expm(-1j * math.pi / 4.0 * SIGMA_Z)
    return np.kron(r, np.eye(n_max + 1, dtype=complex))


def jc_analytic_state(g: float, t: float, n_max: int,
                      initial: str = "e0") -> PureState:
    """Closed-form resonant Jaynes-Cummings evolution in the drive's
    interaction frame: coupling i g (sigma^+ a - sigma^- a^dag).

    On each pair {|e,n>, |g,n+1>} the block is -g sqrt(n+1) sigma_y, so
    |e,n> -> cos(theta)|e,n> - sin(theta)|g,n+1> with theta = g sqrt(n+1) t.
    """
    space = HilbertSpace.qubit_boson(n_max=n_max)
    db = n_max + 1
    amps = np.zeros(2 * db, dtype=complex)
    if initial == "e0":
        theta = g * t
        amps[0] = math.cos(theta)            # |e,0>
        amps[db + 1] = -math.sin(theta)      # |g,1>
    elif initial == "g1":
        theta = g * t
        amps[0] = math.sin(theta)
        amps[db + 1] = math.cos(theta)
    else:
        raise ValueError("initial must be 'e0' or 'g1'")
    return PureState(space, amps)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

REGIME_LABELS = ("Dirac", "JC", "AJC", "Decoupling", "TwoFoldDispersive",
                 "DSC", "USC", "Intermediate")


def classify_regime(r: RabiParams, small: float = 0.1) -> str:
    """One label per parameter point, under a fixed precedence.

    Order: Dirac -> JC -> AJC -> Decoupling -> TwoFoldDispersive -> DSC ->
    USC -> Intermediate.  "Much smaller" is operationalized as a ratio
    below ``small``; near/anti-resonance compares |w -+ w0| against
    |w +- w0| with the same threshold.
    """
    w, w0, g = r.omega_r, r.omega0_r, abs(r.g)
    scale = max(abs(w), abs(w0), g, 1e-300)
    if abs(w) <= 1e-12 * scale:
        return "Dirac"
    weak = g < small * min(abs(w), abs(w0)) if min(abs(w), abs(w0)) > 0 else False
    if weak and abs(w - w0) < small * abs(w + w0):
        return "JC"
    if weak and abs(w + w0) < small * abs(w - w0):
        return "AJC"
    if abs(w0) < small * g and g < small * abs(w):
        return "Decoupling"
    if g < small * min(abs(w), abs(w0), abs(w - w0), abs(w + w0)):
        return "TwoFoldDispersive"
    if abs(w) < g:
        return "DSC"
    if abs(w) < 10.0 * g:
        return "USC"
    return "Intermediate"


# ---------------------------------------------------------------------------
# adiabatic ground-state preparation
# ---------------------------------------------------------------------------

@dataclass
class AdiabaticResult:
    final_fidelity: float
    times: np.ndarray
    fidelities: np.ndarray
    gaps: np.ndarray
    degenerate: np.ndarray  # bool per checkpoint (gap below resolution)


def adiabatic_ground_state(h_of_g: Callable[[float], np.ndarray], g_final: float,
                           duration: float, space: HilbertSpace,
                           n_checkpoints: int = 33, tol: float = 1e-9,
                           gap_resolution: float = 1e-10) -> AdiabaticResult:
    """Linear ramp g(t) = g_final * t / duration from the g=0+ ground state.

    The instantaneous ground state at each checkpoint comes from full
    diagonalization, with its phase fixed by positive overlap with the
    previous checkpoint.  Degenerate ground spaces are flagged, not
    resolved (the fidelity there refers to an arbitrary member).
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")

    def g_of_t(t: float) -> float:
        return g_final * t / duration

    h0 = np.asarray(h_of_g(0.0), dtype=complex)
    evals, evecs = np.linalg.eigh(h0)
    psi = PureState(space, evecs[:, 0])
    reference = evecs[:, 0]

    times = np.linspace(0.0, duration, n_checkpoints)
    builder = lambda t: np.asarray(h_of_g(g_of_t(t)), dtype=complex)
    schedule = Schedule.time_dependent(space, builder)

    fids = np.empty(n_checkpoints)
    gaps = np.empty(n_checkpoints)
    degenerate = np.zeros(n_checkpoints, dtype=bool)
    current = psi
    prev_t = 0.0
    for i, t in enumerate(times):
        if t > prev_t:
            current = evolve(current, schedule, prev_t, t, tol)
            prev_t = t
        evals, evecs = np.linalg.eigh(builder(t))
        ground = evecs[:, 0]
        if np.vdot(reference, ground).real < 0.0:
            ground = -ground
        reference = ground
        gap = float(evals[1] - evals[0])
        gaps[i] = gap
        degenerate[i] = gap < gap_resolution * max(1.0, abs(evals[0]))
        fids[i] = abs(np.vdot(ground, current.amplitudes)) ** 2
    return AdiabaticResult(final_fidelity=float(fids[-1]), times=times,
                           fidelities=fids, gaps=gaps, degenerate=degenerate)


def parity_chain_weight(state: PureState, parity: complex) -> float:
    """Population inside one generalized-parity chain (diagonal projector)."""
    eigs = generalized_parity_diagonal(state.space)
    mask = np.abs(eigs - parity) < 1e-9
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


# ---------------------------------------------------------------------------
# spectra and collapse diagnostics
# ---------------------------------------------------------------------------

def qrm_parity_diagonal(space: HilbertSpace) -> np.ndarray:
    """Eigenvalues of the standard Rabi parity sigma_z (x) exp(i pi a^dag a)
    on the product basis (a Z2 symmetry; the two-photon model refines it to
    the Z4 generalized parity below)."""
    *qubit_factors, boson = space.factors
    n_q = len(qubit_factors)
    qubit_diag = np.array([1.0])
    for _ in range(n_q):
        qubit_diag = np.kron(qubit_diag, np.array([1.0, -1.0]))
    fock_sign = (-1.0) ** np.arange(boson.dim)
    return np.kron(qubit_diag, fock_sign)


def generalized_parity_diagonal(space: HilbertSpace) -> np.ndarray:
    """Eigenvalues of Pi = (-1)^N (x)_n sigma_z^n exp(i pi/2 a^dag a) on the
    product basis (the operator is diagonal there)."""
    *qubit_factors, boson = space.factors
    if not isinstance(boson, Boson) or not all(isinstance(f, Qubit) for f in qubit_factors):
        raise ValueError("expected qubits (x) one trailing boson factor")
    n_q = len(qubit_factors)
    qubit_diag = np.array([1.0])
    for _ in range(n_q):
        qubit_diag = np.kron(qubit_diag, np.array([1.0, -1.0]))
    fock_phase = 1j ** np.arange(boson.dim)
    return ((-1.0) ** n_q) * np.kron(qubit_diag, fock_phase)


PARITY_SECTORS = (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


@dataclass
class SpectrumPoint:
    g: float
    energies: np.ndarray
    parities: np.ndarray          # one of +-1, +-i per level
    parity_weights: np.ndarray    # dominant-sector weight per level
    mixing_flags: np.ndarray      # weight < 0.999: truncation trouble


def two_photon_spectrum(omega: float, omega_q: float, n_qubits: int,
                        g_values: Sequence[float], n_levels: int, n_max: int,
                        check_convergence: bool = True,
                        convergence_tol: float | None = None) -> list:
    """Lowest eigenvalues with generalized-parity labels over a coupling grid.

    With ``check_convergence`` each point is recomputed at n_max+10 and a
    :class:`TruncationError` raised when any retained level moved by more
    than ``convergence_tol`` (default 1e-4 * omega) -- near the collapse
    point that failure is the physical signature, so callers wanting the
    trend pass False and read the reported shifts instead.
    """
    if convergence_tol is None:
        convergence_tol = 1e-4 * abs(omega)
    out = []
    for g in g_values:
        point = _two_photon_point(omega, omega_q, n_qubits, g, n_levels, n_max)
        if check_convergence:
            again = _two_photon_point(omega, omega_q, n_qubits, g, n_levels, n_max + 10)
            shift = float(np.max(np.abs(point.energies - again.energies)))
            if shift > convergence_tol:
                raise TruncationError(
                    f"levels shifted by {shift:.3e} between n_max={n_max} and "
                    f"{n_max + 10} at g={g}")
        out.append(point)
    return out


def _two_photon_point(omega, omega_q, n_qubits, g, n_levels, n_max) -> SpectrumPoint:
    tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=g, n_qubits=n_qubits)
    h = two_photon_hamiltonian(tp, n_qubits, n_max).matrix()
    dim = h.shape[0]
    if n_levels > dim // 4:
        raise ValueError("n_levels must not exceed a quarter of the dimension")
    evals, evecs = np.linalg.eigh(h)
    diag = generalized_parity_diagonal(
        HilbertSpace(tuple(Qubit() for _ in range(n_qubits)) + (Boson(n_max),)))
    energies = evals[:n_levels]
    parities = np.empty(n_levels, dtype=complex)
    weights = np.empty(n_levels)
    for k in range(n_levels):
        probs = np.abs(evecs[:, k]) ** 2
        sector_weights = [float(np.sum(probs[np.abs(diag - lam) < 1e-9]))
                          for lam in PARITY_SECTORS]
        best = int(np.argmax(sector_weights))
        parities[k] = PARITY_SECTORS[best]
        weights[k] = sector_weights[best]
    return SpectrumPoint(g=float(g), energies=energies, parities=parities,
                         parity_weights=weights,
                         mixing_flags=weights < 0.999)


@dataclass
class CollapseDiagnostics:
    g_values: np.ndarray
    min_spacings: np.ndarray
    mean_occupations: np.ndarray      # <a^dag a> of the lowest levels, per g
    potential_coefficients: np.ndarray  # (omega - 2g, omega + 2g) per g


def collapse_diagnostics(omega: float, omega_q: float, g_values: Sequence[float],
                         n_levels: int = 8, n_max: int = 120) -> CollapseDiagnostics:
    """Level-spacing and occupation trends on the way to the collapse point.

    No convergence gate here: the non-convergence near g = omega/2 is the
    signal being reported.
    """
    spacings, occupations = [], []
    space = HilbertSpace.qubit_boson(n_max=n_max)
    n_diag = np.kron(np.ones(2), np.arange(n_max + 1))
    for g in g_values:
        tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=float(g))
        h = two_photon_hamiltonian(tp, 1, n_max).matrix()
        evals, evecs = np.linalg.eigh(h)
        lowest = evals[:n_levels]
        spacings.append(float(np.min(np.diff(lowest))))
        occupations.append([float(np.sum(n_diag * np.abs(evecs[:, k]) ** 2))
                            for k in range(n_levels)])
    g_arr = np.asarray(list(g_values), dtype=float)
    coeffs = np.stack([omega - 2.0 * g_arr, omega + 2.0 * g_arr], axis=1)
    return CollapseDiagnostics(g_values=g_arr,
                               min_spacings=np.asarray(spacings),
                               mean_occupations=np.asarray(occupations),
                               potential_coefficients=coeffs)


# ---------------------------------------------------------------------------
# Bargmann-space characteristic exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentClassification:
    exponents: tuple
    kind: str  # PurePoint | CollapsePoint | Continuous


def characteristic_exponents(omega_bar: float) -> ExponentClassification:
    """Roots of x^4 + (2 - w^2) x^2 + 1 = 0 for w = omega/g:
    gamma = +-w/2 +- sqrt(w^2/4 - 1).

    Normalizable asymptotics need |gamma| < 1: a pure point spectrum for
    w/2 > 1, the collapse point at w/2 = 1 (all roots join +-1), and a
    continuous spectrum for w/2 < 1 (all roots on the unit circle).
    """
    if omega_bar <= 0.0:
        raise ValueError("omega/g must be positive")
    w = omega_bar
    root = cmath.sqrt(w * w / 4.0 - 1.0)
    gammas = (w / 2.0 + root, w / 2.0 - root, -w / 2.0 + root, -w / 2.0 - root)
    if abs(w / 2.0 - 1.0) <= 1e-12:
        kind = "CollapsePoint"
    elif w / 2.0 > 1.0:
        kind = "PurePoint"
    else:
        kind = "Continuous"
    return ExponentClassification(exponents=gammas, kind=kind)


# ---------------------------------------------------------------------------
# generalized-parity measurement protocol
# ---------------------------------------------------------------------------

def _n_sigma_generator(space: HilbertSpace, axis: str) -> np.ndarray:
    db = space.factors[1].dim
    return np.kron(PAULIS[axis], np.diag(np.arange(db, dtype=complex)))


def parity_measurement(state: PureState, shots: int | None = None,
                       master_seed: int = 0) -> complex:
    """(Re Pi, Im Pi) of the single-ion generalized parity from four
    single-qubit expectation values after number-conditioned rotations.

    Pi = -sigma_z exp(i pi/2 n) splits as
    Re Pi = -(1/2)(<e^{+i n sx pi/2} sz> + <e^{-i n sx pi/2} sz>) and
    Im Pi = +(1/2)(<e^{+i n sx pi/2} sy> - <e^{-i n sx pi/2} sy>);
    each bracket is read after evolving under H = (+-) n sigma_x for a
    time pi/4.  Optional shot sampling draws +-1 outcomes per observable.
    """
    space = state.space
    if space.n_factors != 2 or not isinstance(space.factors[1], Boson):
        raise ValueError("expected a single qubit (x) boson register")
    gen = _n_sigma_generator(space, "X")
    t_star = math.pi / 4.0
    psi_plus = expm(-1j * gen * t_star) @ state.amplitudes   # for the e^{+...} bracket
    psi_minus = expm(1j * gen * t_star) @ state.amplitudes
    db = space.factors[1].dim
    sz = np.kron(SIGMA_Z, np.eye(db))
    sy = np.kron(SIGMA_Y, np.eye(db))

    def ev(vec, op, stream):
        mean = float(np.real(np.vdot(vec, op @ vec)))
        if shots is None:
            return mean
        gen_rng = np.random.Generator(np.random.Philox(
            key=np.asarray((master_seed, stream), dtype=np.uint64)))
        outcomes = np.where(gen_rng.random(shots) < 0.5 * (1.0 + mean), 1.0, -1.0)
        return float(np.mean(outcomes))

    re_part = -0.5 * (ev(psi_plus, sz, 0) + ev(psi_minus, sz, 1))
    im_part = 0.5 * (ev(psi_plus, sy, 2) - ev(psi_minus, sy, 3))
    return complex(re_part, im_part)


def parity_direct(state: PureState) -> complex:
    diag = generalized_parity_diagonal(state.space)
    return complex(np.sum(diag * np.abs(state.amplitudes) ** 2))


_DISPERSIVE_CAL_CACHE: dict = {}


def _dispersive_pulse_schedule(space: HilbertSpace, sign: float, delta: float,
                               eps: float, duration: float, coupling: float) -> Schedule:
    """``sigma^+ (x) B(t) + h.c.`` with ``B(t) = coupling w(t) e^{i sign delta t}
    (a e^{-i eps t} + a^dag e^{i eps t})`` and ``w = sin^2(pi t / duration)``,
    as four terms over fixed matrices."""
    db = space.factors[1].dim
    a = boson_annihilation(db)
    w_lo, w_hi = sign * delta - eps, sign * delta + eps

    def f_lo(t: float) -> complex:
        return coupling * math.sin(math.pi * t / duration) ** 2 * cmath.exp(1j * w_lo * t)

    def f_hi(t: float) -> complex:
        return coupling * math.sin(math.pi * t / duration) ** 2 * cmath.exp(1j * w_hi * t)

    return Schedule.from_terms(space, [
        (f_lo, np.kron(SIGMA_P, a)),
        (f_hi, np.kron(SIGMA_P, a.conj().T)),
        (lambda t: f_lo(t).conjugate(), np.kron(SIGMA_M, a.conj().T)),
        (lambda t: f_hi(t).conjugate(), np.kron(SIGMA_M, a)),
    ])


def _dispersive_calibration(db: int, delta_ratio: float, eps_frac: float,
                            tol: float) -> tuple:
    """(duration, offset_e, offset_g): pulse length tuned so the realized
    phase advances by pi/4 per phonon, plus the measured n=0 offsets.

    This mirrors an experimental Ramsey calibration on the n = 0, 1
    manifold; both are cached per parameter set and tolerance.
    """
    key = (db, delta_ratio, eps_frac, tol)
    if key in _DISPERSIVE_CAL_CACHE:
        return _DISPERSIVE_CAL_CACHE[key]
    coupling = 1.0
    delta = delta_ratio * coupling
    eps = eps_frac * delta
    chi_eff = coupling ** 2 * (1.0 / (delta - eps) + 1.0 / (delta + eps))
    t_star = math.pi / 4.0
    space = HilbertSpace.qubit_boson(n_max=db - 1)
    duration = (8.0 / 3.0) * t_star / chi_eff   # int of sin^4 envelope = 3T/8

    def phases(T: float) -> dict:
        sched = _dispersive_pulse_schedule(space, +1.0, delta, eps, T, coupling)
        out = {}
        for q in (0, 1):
            for n in (0, 1):
                amps = np.zeros(2 * db, dtype=complex)
                amps[q * db + n] = 1.0
                ev = evolve(PureState(space, amps), sched, 0.0, T, tol=tol).amplitudes
                out[(q, n)] = float(np.angle(ev[q * db + n]))
        return out

    ph = phases(duration)
    slope = 0.5 * (abs(ph[(0, 1)] - ph[(0, 0)]) + abs(ph[(1, 1)] - ph[(1, 0)]))
    duration *= t_star / slope               # one Newton step; slope ~ T
    ph = phases(duration)
    result = (duration, ph[(0, 0)], ph[(1, 0)])
    _DISPERSIVE_CAL_CACHE[key] = result
    return result


def parity_measurement_dispersive(state: PureState, delta_ratio: float = 20.0,
                                  eps_frac: float = 0.25,
                                  tol: float = 1e-9) -> complex:
    """Parity through the second-order (dispersive) realization of the
    number-conditioned rotations.

    A raised-cosine bichromatic pulse ``(eta Omega_0/2) w(t)
    (a e^{-i eps t} + a^dag e^{i eps t}) sigma^+ e^{+- i delta t} + h.c.``
    averages, for couplings far below ``delta``, to an AC-Stark generator
    ``chi (2 a^dag a + 1) sigma_z`` whose sign follows the detuning; the
    smooth envelope closes the micromotion, a Ramsey-style calibration on
    the n = 0, 1 manifold tunes the pulse length and strips the measured
    offsets, and perfect local pi/4 pulses move the rotation axis to
    sigma_x.  Residual error is the quartic light shift, growing like
    n(n-1): about 2e-2 on the n <= 2 manifold at ``delta_ratio = 20``.
    """
    space = state.space
    db = space.factors[1].dim
    coupling = 1.0
    delta = delta_ratio * coupling
    eps = eps_frac * delta
    duration, off_e, off_g = _dispersive_calibration(db, delta_ratio, eps_frac, tol)
    axis_rot = np.kron(expm(-1j * math.pi / 4.0 * SIGMA_Y), np.eye(db))  # u sz u^dag = sx
    sz = np.kron(SIGMA_Z, np.eye(db))
    sy = np.kron(SIGMA_Y, np.eye(db))

    def realized_rotation(sign: float) -> np.ndarray:
        """~ exp(-i sign n sigma_x t*)|psi>: u [comp U_disp(sign)] u^dag |psi>."""
        sched = _dispersive_pulse_schedule(space, sign, delta, eps, duration, coupling)
        start = PureState(space, axis_rot.conj().T @ state.amplitudes)
        evolved = evolve(start, sched, 0.0, duration, tol=tol).amplitudes
        comp = np.kron(np.diag([cmath.exp(-1j * sign * off_e),
                                cmath.exp(-1j * sign * off_g)]), np.eye(db))
        return axis_rot @ (comp @ evolved)

    psi_plus = realized_rotation(+1.0)
    psi_minus = realized_rotation(-1.0)

    def ev(vec, op):
        return float(np.real(np.vdot(vec, op @ vec)))

    re_part = -0.5 * (ev(psi_plus, sz) + ev(psi_minus, sz))
    im_part = 0.5 * (ev(psi_plus, sy) - ev(psi_minus, sy))
    return complex(re_part, im_part)


# ---------------------------------------------------------------------------
# collective-mode guard for multi-ion chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeGuardReport:
    delta_first: float     # distance of the drive from the breathing mode's 1st sideband
    delta_second: float    # ... from its 2nd sideband
    nearest_ratio: float   # Omega / min(detunings)
    flagged: bool


def dicke_mode_guard(n_ions: int, nu: float, omega_drive: float = 0.0,
                     warn_ratio: float = 0.1) -> ModeGuardReport:
    """Detuning of a second-sideband drive from the breathing mode.

    The drive sits 2*nu from the carrier; the breathing mode at sqrt(3)*nu
    has sidebands at sqrt(3)*nu and 2*sqrt(3)*nu, leaving margins
    Delta_1 = (2 - sqrt(3)) nu ~ 0.27 nu and Delta_2 = (2 sqrt(3) - 2) nu
    ~ 1.46 nu.  Single ions have no spectator mode: the guard is inert.
    """
    if n_ions < 2:
        return ModeGuardReport(math.inf, math.inf, 0.0, False)
    d1 = (2.0 - math.sqrt(3.0)) * nu
    d2 = abs(2.0 - 2.0 * math.sqrt(3.0)) * nu
    nearest = min(d1, d2)
    ratio = omega_drive / nearest if nearest > 0 else math.inf
    return ModeGuardReport(delta_first=d1, delta_second=d2,
                           nearest_ratio=ratio, flagged=ratio > warn_ratio)


# ---------------------------------------------------------------------------
# quadratures for relativistic-limit traces
# ---------------------------------------------------------------------------

def position_quadrature(space: HilbertSpace) -> OperatorSum:
    return OperatorSum.single(space, space.n_factors - 1, "x", hermitian=True)


def momentum_quadrature(space: HilbertSpace) -> OperatorSum:
    return OperatorSum.single(space, space.n_factors - 1, "p", hermitian=True)
