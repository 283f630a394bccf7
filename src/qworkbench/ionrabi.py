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
import numbers
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
    TruncationError,
    carry,
    evolve,
    kron_all,
    on_factors,
    pauli_rotation,
    propagator,
    shot_means,
    shot_uniforms,
)


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
    source: IonDriveParams | None = None


@dataclass(frozen=True)
class TwoPhotonParams:
    omega: float
    omega_q: float
    g: float
    source: IonDriveParams | None = None


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
    s = p.sideband_order
    # omega_0 - omega_r = s*nu - delta_r ; omega_0 - omega_b = -s*nu - delta_b
    freq_r = s * p.nu - p.delta_r
    freq_b = -s * p.nu - p.delta_b
    beta = 0.5 * (freq_r + freq_b)
    tone = 0.5 * (freq_r - freq_b)
    amp_r = 0.5 * p.omega_r * cmath.exp(1j * p.phi_r)
    amp_b = 0.5 * p.omega_b * cmath.exp(1j * p.phi_b)

    def c(t: float) -> complex:
        # conj(exp(i x)) is exp(-i x) to the bit, at one exponential's cost
        e = cmath.exp(1j * tone * t)
        return amp_r * e + amp_b * e.conjugate()

    # sigma^+ raises into the level Pe selects, so beta rotates that level
    frame = OperatorSum(space, [(p.nu, ("I", "n")), (beta, ("Pe", "I"))]).matrix()
    up = OperatorSum(space, [(1.0, ("S+", ("disp", p.eta)))]).matrix()
    return Schedule.from_terms(space, [
        (c, up),
        (lambda t: c(t).conjugate(), up.conj().T),
    ], frame=frame.diagonal().real, period=2.0 * math.pi / abs(tone) if tone else None)


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
    and the flag would cost a dense check); its ``.matrix()`` is the
    read-only cached buffer of the ``OperatorSum``.
    """
    space = HilbertSpace.qubit_boson(n_max=n_max, n_qubits=n_qubits)
    sign = -1.0 if simulation_frame else 1.0
    terms = [(tp.omega, on_factors(space, {-1: "n"}))]
    for q in range(n_qubits):
        terms += [(0.5 * tp.omega_q, on_factors(space, {q: "Z"})),
                  (sign * (tp.g / n_qubits), on_factors(space, {q: "X", -1: "sq"}))]
    return OperatorSum(space, terms)


def jc_analytic_state(g: float, t: float, n_max: int) -> PureState:
    """Closed-form resonant Jaynes-Cummings evolution of |e,0> in the
    drive's interaction frame: coupling i g (sigma^+ a - sigma^- a^dag).

    On each pair {|e,n>, |g,n+1>} the block is -g sqrt(n+1) sigma_y, so
    |e,n> -> cos(theta)|e,n> - sin(theta)|g,n+1> with theta = g sqrt(n+1) t;
    from |e,0> that is cos(g t)|e,0> - sin(g t)|g,1>.
    """
    space = HilbertSpace.qubit_boson(n_max=n_max)
    db = n_max + 1
    amps = np.zeros(2 * db, dtype=complex)
    amps[0] = math.cos(g * t)            # |e,0>
    amps[db + 1] = -math.sin(g * t)      # |g,1>
    return PureState(space, amps)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

REGIME_LABELS = ("Dirac", "JC", "AJC", "Decoupling", "TwoFoldDispersive",
                 "DSC", "USC", "Intermediate")


def classify_regime(r: RabiParams) -> str:
    """One label per parameter point, under a fixed precedence.

    Order: Dirac -> JC -> AJC -> Decoupling -> TwoFoldDispersive -> DSC ->
    USC -> Intermediate.  "Much smaller" is operationalized as a ratio
    below 0.1; near/anti-resonance compares |w -+ w0| against |w +- w0|
    with the same threshold.
    """
    small = 0.1
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


def adiabatic_ground_state(h0: np.ndarray, coupling: np.ndarray, g_final: float,
                           duration: float, space: HilbertSpace,
                           n_checkpoints: int = 33, tol: float = 1e-9) -> AdiabaticResult:
    """Ramp ``H(g) = h0 + g * coupling`` linearly, g(t) = g_final * t / duration,
    from the g = 0 ground state, checking at ``n_checkpoints`` equally spaced
    times from 0 to ``duration``.

    The ramp is a term-form schedule, ``h0`` with coefficient 1 and
    ``coupling`` with coefficient g(t), so no Hamiltonian is formed while it
    is integrated, and ``qcore`` steps only the blocks the two matrices
    leave invariant (the parity sectors of the quantum Rabi ramp).  The
    instantaneous ground state at each checkpoint comes from full
    diagonalization of ``h0 + g * coupling``, with its phase fixed by
    positive overlap with the previous checkpoint.  Degenerate ground
    spaces (a gap below 1e-10 of ``max(1, |E_0|)``) are flagged, not
    resolved (the fidelity there refers to an arbitrary member).  Raises
    ``ValueError`` unless ``n_checkpoints`` is an integer of at least 2,
    ``g_final`` is finite and ``duration`` is finite and positive.
    """
    if isinstance(n_checkpoints, bool) or not isinstance(n_checkpoints, numbers.Integral) \
            or n_checkpoints < 2:
        raise ValueError("n_checkpoints must be an integer of at least 2: the ramp "
                         "is checked at its start and its end")
    if not math.isfinite(g_final):
        raise ValueError("g_final must be finite")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError("duration must be finite and positive")
    h0 = np.asarray(h0, dtype=complex)
    coupling = np.asarray(coupling, dtype=complex)

    def g_of_t(t: float) -> float:
        return g_final * t / duration

    schedule = Schedule.from_terms(space, [(1.0, h0), (g_of_t, coupling)])
    times = np.linspace(0.0, duration, n_checkpoints)
    fids = np.empty(n_checkpoints)
    gaps = np.empty(n_checkpoints)
    degenerate = np.zeros(n_checkpoints, dtype=bool)
    current = reference = None
    for i, t in enumerate(times):
        evals, evecs = np.linalg.eigh(h0 + g_of_t(t) * coupling)
        ground = evecs[:, 0]
        if i == 0:  # times[0] = 0: the ramp starts in this ground state
            current = PureState(space, ground)
        else:
            if np.vdot(reference, ground).real < 0.0:
                ground = -ground
            current = evolve(current, schedule, times[i - 1], t, tol)
        reference = ground
        gap = float(evals[1] - evals[0])
        gaps[i] = gap
        degenerate[i] = gap < 1e-10 * max(1.0, abs(evals[0]))
        fids[i] = abs(np.vdot(ground, current.amplitudes)) ** 2
    return AdiabaticResult(final_fidelity=float(fids[-1]), times=times,
                           fidelities=fids, gaps=gaps, degenerate=degenerate)


# ---------------------------------------------------------------------------
# spectra and collapse diagnostics
# ---------------------------------------------------------------------------

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
    sector.  The sector blocks of each term are built once per cutoff
    (:class:`_ParitySectors`); each coupling only sums and solves them.
    """
    g_values = [float(g) for g in g_values]
    if not np.isfinite([omega, omega_q, *g_values]).all():
        raise ValueError("omega, omega_q and every coupling must be finite")
    dim = 2 ** n_qubits * (n_max + 1)
    if not 1 <= n_levels <= dim // 4:
        raise ValueError(f"n_levels must lie in [1, {dim // 4}] (a quarter of the "
                         f"dimension), got {n_levels}")
    base = _ParitySectors.build(n_qubits, n_max)
    wider = _ParitySectors.build(n_qubits, n_max + 10)
    convergence_tol = 1e-4 * abs(omega)
    out = []
    for g in g_values:
        tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=g)
        energies, parities, _ = base.lowest(tp, n_levels)
        again, _, _ = wider.lowest(tp, n_levels)
        point = SpectrumPoint(g=g, energies=energies, parities=parities,
                              truncation_shifts=np.abs(energies - again))
        if check_convergence:
            shift = float(np.max(point.truncation_shifts))
            if shift > convergence_tol:
                raise TruncationError(
                    f"levels shifted by {shift:.3e} between n_max={n_max} and "
                    f"{n_max + 10} at g={g}")
        out.append(point)
    return out


@dataclass(frozen=True)
class _ParitySectors:
    """The terms of :func:`two_photon_hamiltonian` at one cutoff, cut into
    generalized-parity sectors once and kept read-only.

    The Hamiltonian is real and has no element between two sectors, so
    each sector block is solved by one ``eigh``.  ``blocks[s][k]`` is the
    real block of term ``k`` on sector ``PARITY_SECTORS[s]``, whose
    product-basis indices are ``index[s]``, gathered from the term's
    factors by ``OperatorSum.blocks``, so no d x d matrix is formed.  The
    coefficients and term matrices are real, so summing ``c_k *
    blocks[s][k]`` in term order from zero repeats, bit for bit, the real
    part of ``OperatorSum.matrix``'s sum gathered onto the sector.
    """

    n_qubits: int
    n_max: int
    index: tuple     # per sector, its product-basis indices
    blocks: tuple    # per sector, per term, the real block

    @staticmethod
    def build(n_qubits: int, n_max: int) -> "_ParitySectors":
        template = two_photon_hamiltonian(TwoPhotonParams(1.0, 1.0, 1.0), n_qubits, n_max)
        space = template.space
        diag = generalized_parity_diagonal(space)
        index = tuple(np.flatnonzero(np.abs(diag - lam) < 1e-9) for lam in PARITY_SECTORS)

        def gather(factors) -> list:
            return [b.real.copy() for b in OperatorSum(space, [(1.0, factors)]).blocks(index)]

        blocks = tuple(zip(*(gather(factors) for _, factors in template.terms)))
        for a in (*index, *(b for sector in blocks for b in sector)):
            a.setflags(write=False)
        return _ParitySectors(n_qubits=n_qubits, n_max=n_max, index=index, blocks=blocks)

    def hamiltonian_blocks(self, tp: TwoPhotonParams) -> list:
        """The real sector blocks of the two-photon Hamiltonian at ``tp``,
        one per sector in ``PARITY_SECTORS`` order."""
        h = two_photon_hamiltonian(tp, self.n_qubits, self.n_max)
        coeffs = [c.real for c, _ in h.terms]
        out = []
        for idx, sector in zip(self.index, self.blocks):
            acc = np.zeros((idx.size, idx.size))
            for c, b in zip(coeffs, sector):
                acc += c * b
            out.append(acc)
        return out

    def lowest(self, tp: TwoPhotonParams, n_levels: int) -> tuple:
        """Lowest ``n_levels`` eigenpairs at ``tp``, one ``eigh`` per sector
        merged by energy: (energies, parities, eigenvectors).  Each
        eigenvector is zero outside its sector, so its label is exact."""
        dim = sum(idx.size for idx in self.index)
        energies, parities, vectors = [], [], []
        for lam, idx, block in zip(PARITY_SECTORS, self.index, self.hamiltonian_blocks(tp)):
            w, v = np.linalg.eigh(block)
            keep = min(n_levels, idx.size)
            energies.append(w[:keep])
            parities += [lam] * keep
            full = np.zeros((dim, keep))
            full[idx] = v[:, :keep]
            vectors.append(full)
        order = np.argsort(np.concatenate(energies), kind="stable")[:n_levels]
        return (np.concatenate(energies)[order], np.array(parities)[order],
                np.concatenate(vectors, axis=1)[:, order])


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
    generalized-parity sector, from sector blocks built once
    (:class:`_ParitySectors`).
    """
    g_values = [float(g) for g in g_values]
    if not np.isfinite([omega, omega_q, *g_values]).all():
        raise ValueError("omega, omega_q and every coupling must be finite")
    dim = 2 * (n_max + 1)
    if not 2 <= n_levels <= dim:
        raise ValueError(f"n_levels must lie in [2, {dim}], got {n_levels}")
    spacings, occupations = [], []
    space = HilbertSpace.qubit_boson(n_max=n_max)
    n_diag = OperatorSum.single(space, -1, "n").matrix().diagonal().real
    sectors = _ParitySectors.build(1, n_max)
    for g in g_values:
        tp = TwoPhotonParams(omega=omega, omega_q=omega_q, g=g)
        evals, _, evecs = sectors.lowest(tp, n_levels)
        spacings.append(float(np.min(np.diff(evals))))
        occupations.append([float(np.sum(n_diag * np.abs(evecs[:, k]) ** 2))
                            for k in range(n_levels)])
    g_arr = np.asarray(g_values, dtype=float)
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
    n_sigma_x = Schedule.constant(OperatorSum(space, [(1.0, ("X", "n"))]))
    u = propagator(n_sigma_x, 0.0, math.pi / 4.0)
    psi_plus = u @ state.amplitudes               # for the e^{+...} bracket
    psi_minus = u.conj().T @ state.amplitudes

    def ev(vec, op, stream):
        mean = float(np.real(np.vdot(vec, op @ vec)))
        if shots is None:
            return mean
        return float(shot_means(mean, shot_uniforms(master_seed, stream, shots)))

    return _parity_readout(space, psi_plus, psi_minus, ev)


def _parity_readout(space: HilbertSpace, psi_plus: np.ndarray, psi_minus: np.ndarray,
                    ev: Callable) -> complex:
    """Re Pi = -(<sz>_+ + <sz>_-)/2 and Im Pi = (<sy>_+ - <sy>_-)/2 from the
    two rotated states; ``ev(vec, op, stream)`` estimates <vec|op|vec>, and
    the four readouts take streams 0-3 in that order."""
    sz = OperatorSum.single(space, 0, "Z").matrix()
    sy = OperatorSum.single(space, 0, "Y").matrix()
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
    return Schedule.from_terms(
        space, [(lambda t: math.sin(math.pi * t / duration) ** 2,
                 OperatorSum(space, [(coupling, ("X", "x"))]).matrix())],
        frame=_dispersive_frame(space.factors[1].dim, sign, delta, eps))


def _dispersive_calibration(db: int, delta_ratio: float, eps_frac: float,
                            tol: float) -> _DispersiveCalibration:
    """Pulse length, n = 0 offsets and the two readout operators, cached per
    ``(db, delta_ratio, eps_frac, tol)``.

    This mirrors an experimental Ramsey calibration on the n = 0, 1
    manifold.  ``qcore.carry`` takes only the four columns |q, n>, q, n in
    {0, 1}, through a first pulse of the sin^4-area length, and one Newton
    step on their phases sets the duration so the phase advances by pi/4
    per phonon.  The pulse of that duration gives the full propagator U_+
    of the +delta detuning; the offsets are the phases of its |e,0> and
    |g,0> diagonal entries.

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
    block = carry(pulse, np.eye(2 * db, dtype=complex)[:, low], 0.0, duration / 2, tol)
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
    axis_rot = kron_all([pauli_rotation("Y", t_star), np.eye(db)])  # u sz u^dag = sx
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
    return _parity_readout(space, psi_plus, psi_minus,
                           lambda vec, op, stream: float(np.real(np.vdot(vec, op @ vec))))
