"""Trapped-ion laser drives and the (two-photon) quantum Rabi family.

The full bichromatic interaction-picture Hamiltonian

    H(t) = sum_{n in {r,b}} (Omega_n/2) exp(i eta [a e^{-i nu t} + a^dag e^{i nu t}])
           exp(i (omega_0 - omega_n) t) e^{i phi_n} sigma^+  +  h.c.

is materialized exactly on the truncated mode: the displacement exponential
at time t is the phase conjugation ``R(t) D R(t)^dag`` of the static
``D = exp(i eta (a + a^dag))`` with ``R(t) = diag(e^{i nu t k})``, which
keeps it exactly unitary at the truncation edge.  The schedule is in term
form: two fixed matrices built from ``D`` in the frame ``nu a^dag a`` plus
a rotation of the excited level that leaves the coefficients exactly
periodic, so ``qcore.evolve`` powers a one-period propagator instead of
integrating every sideband period.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    expm,
    integrate,
    kron_all,
    on_factors,
    propagator,
)
from .qcore.operators import PAULIS, PROJ_E, SIGMA_M, SIGMA_P, SIGMA_X, SIGMA_Y, SIGMA_Z


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
    the frame ``nu a^dag a + beta P_e``, which turns the static ``D`` into
    ``R(t) D R(t)^dag``.  The drive's two tones sit at ``f_r = s nu -
    delta_r`` and ``f_b = -s nu - delta_b``; rotating the excited level by
    ``beta = (f_r + f_b)/2`` leaves ``c(t)`` only the tones
    ``+-(f_r - f_b)/2``.  So the frame Hamiltonian is exactly periodic with
    ``T = 4 pi/|f_r - f_b|`` for any detunings, and ``evolve`` takes the
    periodic route.  ``matrix_at`` is still the lab-frame H(t).
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
    beta = 0.5 * (freq_r + freq_b)
    tone = 0.5 * (freq_r - freq_b)
    amp_r = 0.5 * p.omega_r * cmath.exp(1j * p.phi_r)
    amp_b = 0.5 * p.omega_b * cmath.exp(1j * p.phi_b)

    def c(t: float) -> complex:
        return amp_r * cmath.exp(1j * tone * t) + amp_b * cmath.exp(-1j * tone * t)

    # sigma^+ raises into the level PROJ_E selects, so beta rotates that level
    frame = np.tile(p.nu * np.arange(db, dtype=float), 2) \
        + beta * np.kron(np.diag(PROJ_E).real, np.ones(db))
    return Schedule.from_terms(space, [
        (c, np.kron(SIGMA_P, disp)),
        (lambda t: c(t).conjugate(), np.kron(SIGMA_M, disp.conj().T)),
    ], frame=frame, period=2.0 * math.pi / abs(tone) if tone else None)


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
    realized by the second-sideband drive in its simulation picture.  The
    operator is not flagged Hermitian (every caller takes ``.matrix()``,
    and the flag would cost a dense check), and its ``.matrix()`` is the
    cached buffer of the ``OperatorSum``: never write to it.
    """
    space = HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits)
    sign = -1.0 if simulation_frame else 1.0
    terms = [(tp.omega, on_factors(space, {-1: "n"}))]
    for q in range(n_qubits):
        terms += [(0.5 * tp.omega_q, on_factors(space, {q: "Z"})),
                  (sign * (tp.g / n_qubits), on_factors(space, {q: "X", -1: "sq"}))]
    return OperatorSum(space, terms)


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
                           n_checkpoints: int = 33, tol: float = 1e-9) -> AdiabaticResult:
    """Linear ramp g(t) = g_final * t / duration from the g=0+ ground state.

    The instantaneous ground state at each checkpoint comes from full
    diagonalization, with its phase fixed by positive overlap with the
    previous checkpoint.  Degenerate ground spaces (a gap below 1e-10 of
    ``max(1, |E_0|)``) are flagged, not resolved (the fidelity there refers
    to an arbitrary member).
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
        degenerate[i] = gap < 1e-10 * max(1.0, abs(evals[0]))
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
    return kron_all([np.array([1.0, -1.0])] * len(qubit_factors)
                    + [(-1.0) ** np.arange(boson.dim)])


def generalized_parity_diagonal(space: HilbertSpace) -> np.ndarray:
    """Eigenvalues of Pi = (-1)^N (x)_n sigma_z^n exp(i pi/2 a^dag a) on the
    product basis (the operator is diagonal there)."""
    *qubit_factors, boson = space.factors
    if not isinstance(boson, Boson) or not all(isinstance(f, Qubit) for f in qubit_factors):
        raise ValueError("expected qubits (x) one trailing boson factor")
    n_q = len(qubit_factors)
    return ((-1.0) ** n_q) * kron_all([np.array([1.0, -1.0])] * n_q
                                      + [1j ** np.arange(boson.dim)])


PARITY_SECTORS = (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


@dataclass
class SpectrumPoint:
    g: float
    energies: np.ndarray
    parities: np.ndarray          # one of +-1, +-i per level
    truncation_shifts: np.ndarray  # |E(n_max) - E(n_max + 10)| per level


def two_photon_spectrum(omega: float, omega_q: float, n_qubits: int,
                        g_values: Sequence[float], n_levels: int, n_max: int,
                        check_convergence: bool = True) -> list:
    """Lowest eigenvalues with generalized-parity labels over a coupling grid.

    Each point is also solved at n_max+10, and ``truncation_shifts`` holds
    how far each retained level moved.  With ``check_convergence`` a
    :class:`TruncationError` is raised when any of them exceeds
    ``1e-4 * |omega|`` -- near the collapse point that failure is the
    physical signature, so callers wanting the trend pass False and read
    the shifts instead.  Every level lies wholly in its labelled parity
    sector (see :func:`_two_photon_levels`).
    """
    convergence_tol = 1e-4 * abs(omega)
    out = []
    for g in g_values:
        point = _two_photon_point(omega, omega_q, n_qubits, g, n_levels, n_max)
        if check_convergence:
            shift = float(np.max(point.truncation_shifts))
            if shift > convergence_tol:
                raise TruncationError(
                    f"levels shifted by {shift:.3e} between n_max={n_max} and "
                    f"{n_max + 10} at g={g}")
        out.append(point)
    return out


def _parity_sector_eigh(h: np.ndarray, diag: np.ndarray, n_levels: int) -> tuple:
    """Lowest ``n_levels`` eigenpairs of a real symmetric ``h`` that commutes
    with the generalized parity, whose eigenvalues on the product basis are
    ``diag``, with the parity of each level.

    ``h`` has no element between two parity sectors, so each sector block
    is solved by one ``eigh`` and the lowest levels of all sectors are
    merged by energy.  Returns (energies, parities, eigenvectors); each
    eigenvector is zero outside its sector, so its label is exact.
    """
    energies, parities, vectors = [], [], []
    for lam in PARITY_SECTORS:
        idx = np.flatnonzero(np.abs(diag - lam) < 1e-9)
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        keep = min(n_levels, idx.size)
        energies.append(w[:keep])
        parities += [lam] * keep
        full = np.zeros((h.shape[0], keep))
        full[idx] = v[:, :keep]
        vectors.append(full)
    order = np.argsort(np.concatenate(energies), kind="stable")[:n_levels]
    return (np.concatenate(energies)[order], np.array(parities)[order],
            np.concatenate(vectors, axis=1)[:, order])


def _two_photon_point(omega, omega_q, n_qubits, g, n_levels, n_max) -> SpectrumPoint:
    """Lowest ``n_levels`` levels of the two-photon model at coupling ``g``,
    with their shifts against the same levels at n_max+10."""
    energies, parities = _two_photon_levels(omega, omega_q, n_qubits, g, n_levels, n_max)
    again, _ = _two_photon_levels(omega, omega_q, n_qubits, g, n_levels, n_max + 10)
    return SpectrumPoint(g=float(g), energies=energies, parities=parities,
                         truncation_shifts=np.abs(energies - again))


def _two_photon_levels(omega, omega_q, n_qubits, g, n_levels, n_max) -> tuple:
    """(energies, parities) of the lowest ``n_levels`` levels at cutoff ``n_max``.

    The Hamiltonian is real by construction and conserves the generalized
    parity, so it is solved sector by sector (:func:`_parity_sector_eigh`):
    every level lies wholly in its labelled sector.
    """
    tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=g, n_qubits=n_qubits)
    h = two_photon_hamiltonian(tp, n_qubits, n_max).matrix()
    dim = h.shape[0]
    if not 1 <= n_levels <= dim // 4:
        raise ValueError(f"n_levels must lie in [1, {dim // 4}] (a quarter of the "
                         f"dimension), got {n_levels}")
    diag = generalized_parity_diagonal(
        HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits))
    evals, parities, _ = _parity_sector_eigh(h.real, diag, n_levels)
    return evals, parities


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
    signal being reported.  The (real) Hamiltonian is solved by
    generalized-parity sector (:func:`_parity_sector_eigh`).
    """
    dim = 2 * (n_max + 1)
    if not 2 <= n_levels <= dim:
        raise ValueError(f"n_levels must lie in [2, {dim}], got {n_levels}")
    spacings, occupations = [], []
    n_diag = np.kron(np.ones(2), np.arange(n_max + 1))
    parity = generalized_parity_diagonal(HilbertSpace.qubit_boson(n_max=n_max))
    for g in g_values:
        tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=float(g))
        h = two_photon_hamiltonian(tp, 1, n_max).matrix()
        evals, _, evecs = _parity_sector_eigh(h.real, parity, n_levels)
        spacings.append(float(np.min(np.diff(evals))))
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


def _require_qubit_boson(space: HilbertSpace):
    if (space.n_factors != 2 or not isinstance(space.factors[0], Qubit)
            or not isinstance(space.factors[1], Boson)):
        raise ValueError("expected a single qubit (x) boson register")


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
    _require_qubit_boson(space)
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


class _DispersiveCalibration(NamedTuple):
    duration: float        # pulse length: the phase advances by pi/4 per phonon
    off_e: float           # phase of |e,0> after the +delta pulse
    off_g: float           # phase of |g,0> after the +delta pulse
    m_plus: np.ndarray     # axis_rot comp_+ U_+ axis_rot^dag, read-only
    m_minus: np.ndarray    # axis_rot comp_- U_- axis_rot^dag, read-only


_DISPERSIVE_CAL_CACHE: dict = {}


def _dispersive_frame(db: int, sign: float, delta: float, eps: float) -> np.ndarray:
    """Diagonal of ``h0 = (sign delta / 2) sigma_z (x) 1 + eps 1 (x) n``, the
    frame of the pulse's carrier.  The two signs give the same numbers with
    the qubit blocks swapped, bit for bit."""
    half, mode = 0.5 * sign * delta, eps * np.arange(db, dtype=float)
    return np.concatenate([half + mode, -half + mode])


def _dispersive_pulse_schedule(space: HilbertSpace, sign: float, delta: float,
                               eps: float, duration: float, coupling: float) -> Schedule:
    """``sigma^+ (x) B(t) + h.c.`` with ``B(t) = coupling w(t) e^{i sign delta t}
    (a e^{-i eps t} + a^dag e^{i eps t})`` and ``w = sin^2(pi t / duration)``.

    In term form this is one real term in the carrier frame:
    ``H(t) = F(t) [w(t) V] F(t)^dag`` with ``V = coupling sigma_x (x) (a + a^dag)``
    and ``F(t) = exp(i t diag(h0))``, ``h0`` from ``_dispersive_frame``.  So
    ``K(t) = diag(h0) + w(t) V`` is real, and ``K(duration - t) = K(t)``."""
    db = space.factors[1].dim
    a = boson_annihilation(db)
    return Schedule.from_terms(
        space, [(lambda t: math.sin(math.pi * t / duration) ** 2,
                 coupling * np.kron(SIGMA_X, a + a.conj().T))],
        frame=_dispersive_frame(db, sign, delta, eps))


def _dispersive_calibration(db: int, delta_ratio: float, eps_frac: float,
                            tol: float) -> _DispersiveCalibration:
    """Pulse length, n = 0 offsets and the two readout operators, cached per
    ``(db, delta_ratio, eps_frac, tol)``.

    This mirrors an experimental Ramsey calibration on the n = 0, 1
    manifold.  A first pulse of the sin^4-area length carries only the four
    columns |q, n>, q, n in {0, 1}, and one Newton step on their phases
    sets the duration so the phase advances by pi/4 per phonon.  The pulse
    of that duration gives the full propagator U_+ of the +delta detuning;
    the offsets are the phases of its |e,0> and |g,0> diagonal entries.

    Both runs integrate only the first half of the pulse.  In its carrier
    frame the pulse is ``K(t) = diag(h0) + w(t) V``, real, with
    ``K(T - t) = K(t)``, so its second half is the transpose of its first:
    ``U_K(T, T/2) = U_K(T/2, 0)^T``.  With ``U_h = U(T/2, 0)`` stepped in the
    lab frame and ``p = diag F(T) = exp(i T h0)``, the reflection gives
    ``U_+ = F(T) U_h^T F(T)^dag U_h``; a diagonal entry needs only its own
    column of ``U_h``, ``U_+[j, j] = p_j sum_k conj(p_k) U_h[k, j]^2``, which
    is all the Newton step reads.  The -delta pulse needs no integration:
    ``B_-(t) = B_+(t)^dag``, so ``X H_-(t) X = H_+(t)`` with
    ``X = sigma_x (x) 1`` and ``U_- = X U_+ X``.  The readout operators
    ``M_+- = axis_rot comp_+- U_+- axis_rot^dag`` fold in the offset
    compensation ``comp_+- = exp(-+i diag(off_e, off_g)) (x) 1`` and the
    local pi/4 pulses ``axis_rot`` that move the rotation axis to sigma_x.
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
    low = [0, 1, db, db + 1]                  # |e,0>, |e,1>, |g,0>, |g,1>
    duration = (8.0 / 3.0) * t_star / chi_eff   # int of sin^4 envelope = 3T/8
    frame = _dispersive_frame(db, +1.0, delta, eps)

    pulse = _dispersive_pulse_schedule(space, +1.0, delta, eps, duration, coupling)
    shape = (2 * db, len(low))
    block = np.eye(2 * db, dtype=complex)[:, low].reshape(-1)
    block = integrate(lambda t, y: -1j * pulse.apply(t, y.reshape(shape)).reshape(-1),
                      block, 0.0, duration / 2, tol).reshape(shape)
    p = np.exp(1j * duration * frame)         # F(T)
    ph = np.angle(p[low] * (p.conj() @ block ** 2))   # U_+[j, j], by the reflection
    slope = 0.5 * (abs(ph[1] - ph[0]) + abs(ph[3] - ph[2]))
    duration *= t_star / slope               # one Newton step; slope ~ T

    pulse = _dispersive_pulse_schedule(space, +1.0, delta, eps, duration, coupling)
    u_half = propagator(pulse, 0.0, duration / 2, tol)
    p = np.exp(1j * duration * frame)
    u_plus = (p[:, None] * u_half.T * p.conj()) @ u_half   # F(T) U_h^T F(T)^dag U_h
    off_e, off_g = float(np.angle(u_plus[0, 0])), float(np.angle(u_plus[db, db]))
    flip = np.r_[db:2 * db, 0:db]             # X = sigma_x (x) 1 as an index swap
    u_minus = u_plus[np.ix_(flip, flip)]
    axis_rot = np.kron(expm(-1j * t_star * SIGMA_Y), np.eye(db))  # u sz u^dag = sx
    readout = []
    for sign, u in ((1.0, u_plus), (-1.0, u_minus)):
        comp = np.repeat([cmath.exp(-1j * sign * off_e), cmath.exp(-1j * sign * off_g)], db)
        m = axis_rot @ (comp[:, None] * u) @ axis_rot.conj().T
        m.setflags(write=False)
        readout.append(m)
    result = _DispersiveCalibration(duration, off_e, off_g, *readout)
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

    The pulse does not depend on the state: ``_dispersive_calibration``
    builds it once per parameter set and tolerance, from an integration of
    its first half only (the pulse is time-reversal symmetric in its
    carrier frame, so the second half is the transpose of the first), and
    keeps the two composite operators ``M_+-`` (pulse, offset compensation
    and axis rotation), so a readout is two matrix-vector products and runs
    no integrator.  Raises ``ValueError`` unless the state lives on one
    qubit (x) boson, ``delta_ratio > 0`` and ``|eps_frac| < 1``.
    """
    space = state.space
    _require_qubit_boson(space)
    if not delta_ratio > 0.0:
        raise ValueError("delta_ratio must be positive")
    if not abs(eps_frac) < 1.0:
        raise ValueError("eps_frac must lie strictly between -1 and 1")
    db = space.factors[1].dim
    cal = _dispersive_calibration(db, delta_ratio, eps_frac, tol)
    psi_plus = cal.m_plus @ state.amplitudes     # ~ exp(-i n sigma_x t*)|psi>
    psi_minus = cal.m_minus @ state.amplitudes   # ~ exp(+i n sigma_x t*)|psi>
    sz = np.kron(SIGMA_Z, np.eye(db))
    sy = np.kron(SIGMA_Y, np.eye(db))

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


def dicke_mode_guard(n_ions: int, nu: float, omega_drive: float = 0.0) -> ModeGuardReport:
    """Detuning of a second-sideband drive from the breathing mode.

    The drive sits 2*nu from the carrier; the breathing mode at sqrt(3)*nu
    has sidebands at sqrt(3)*nu and 2*sqrt(3)*nu, leaving margins
    Delta_1 = (2 - sqrt(3)) nu ~ 0.27 nu and Delta_2 = (2 sqrt(3) - 2) nu
    ~ 1.46 nu.  The report is flagged when ``omega_drive`` exceeds 0.1 of
    the nearer margin.  Single ions have no spectator mode: the guard is
    inert.
    """
    if n_ions < 2:
        return ModeGuardReport(math.inf, math.inf, 0.0, False)
    d1 = (2.0 - math.sqrt(3.0)) * nu
    d2 = abs(2.0 - 2.0 * math.sqrt(3.0)) * nu
    nearest = min(d1, d2)
    ratio = omega_drive / nearest if nearest > 0 else math.inf
    return ModeGuardReport(delta_first=d1, delta_second=d2,
                           nearest_ratio=ratio, flagged=ratio > 0.1)


# ---------------------------------------------------------------------------
# quadratures for relativistic-limit traces
# ---------------------------------------------------------------------------

def position_quadrature(space: HilbertSpace) -> OperatorSum:
    return OperatorSum.single(space, space.n_factors - 1, "x", hermitian=True)


def momentum_quadrature(space: HilbertSpace) -> OperatorSum:
    return OperatorSum.single(space, space.n_factors - 1, "p", hermitian=True)
