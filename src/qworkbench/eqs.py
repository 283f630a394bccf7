"""Real-embedding simulator: one extra qubit makes complex conjugation a
physical gate, so antilinear entanglement monotones become two-observable
measurements.

The embedding stacks real and imaginary amplitude parts,
``psi -> (Re psi; Im psi)``, with decode matrix ``M = (1, i) (x) I`` and
conjugation gate ``K~ = sigma_z (x) I``; a Hermitian ``H = A + iB`` maps to
the purely imaginary Hermitian ``H~ = i I (x) B - sigma_y (x) A`` which
intertwines ``M H~ = H M`` and keeps real vectors real.  The embedding
qubit is subsystem 0 of the enlarged register.

An antilinear term ``<psi|P K|psi>`` is ``<psi~|(sigma_z - i sigma_x) (x) P|psi~>``,
so it is read from the pair of plain observables ``Z+P`` and ``X+P``
(Di Candia et al., PRL 111, 240502 (2013)); ``monotone`` is the one place
that forms a concurrence-type monotone from those pairs, with the metric
diag(-1, 1, 0, 1) of Osterloh & Siewert, PRA 72, 012337 (2005).

Also here: the entangling-gate compiler from collective-spin interactions,
the controlled-Z circuit identity for the three-qubit embedded evolution,
single-site readout of dressed Pauli observables, the depolarizing channel
with its exact inversion, and the embedded Trotter circuit, a list of Pauli
rotations each applied to the ket in O(d) by ``qcore.pauli_apply``, whose
single-qubit z rotations leak onto their neighbors (crosstalk).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    PureState,
    dense_pauli,
    expectation,
    expm,
    kron_all,
    on_factors,
    pauli_apply,
    pauli_product,
    pauli_rotation,
)
from .qcore.operators import PAULI_LABELS, PAULIS

#: metric weights over (I, X, Y, Z) used by the antilinear monotone family
METRIC_DIAGONAL = (-1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the embedding map
# ---------------------------------------------------------------------------

def embed_state(psi: PureState | np.ndarray) -> PureState:
    """(Re psi; Im psi) on the enlarged register (one extra qubit, index 0)."""
    if isinstance(psi, PureState):
        amps = psi.amplitudes
        n = psi.space.n_factors
        if not psi.space.is_qubit_only:
            raise ValueError("the embedding is defined for qubit registers")
    else:
        amps = np.asarray(psi, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size)))
        if 2 ** n != amps.size:
            raise ValueError("amplitude vector length must be a power of two")
    enlarged = HilbertSpace.qubits(n + 1)
    stacked = np.concatenate([amps.real, amps.imag]).astype(complex)
    return PureState(enlarged, stacked)


def decode_state(psi_tilde: PureState | np.ndarray) -> np.ndarray:
    """Inverse map: psi = (first half) + i (second half)."""
    amps = psi_tilde.amplitudes if isinstance(psi_tilde, PureState) else \
        np.asarray(psi_tilde, dtype=complex).reshape(-1)
    half = amps.size // 2
    return amps[:half] + 1j * amps[half:]


def decode_matrix(n_qubits: int) -> np.ndarray:
    """M = (1, i) (x) I_{2^n} as a dense (2^n, 2^{n+1}) matrix."""
    eye = np.eye(2 ** n_qubits, dtype=complex)
    return np.concatenate([eye, 1j * eye], axis=1)


def conjugation_gate(n_qubits: int) -> np.ndarray:
    """K~ = sigma_z (x) I on the enlarged register."""
    return kron_all([PAULIS["Z"], np.eye(2 ** n_qubits, dtype=complex)])


def embed_hamiltonian(h: OperatorSum) -> OperatorSum:
    """H~ = i I (x) B - sigma_y (x) A for H = A + iB, term by term.

    ``h`` is a sum of Pauli strings with real coefficients on a qubit
    register.  A string with an even number of Y's is a real matrix, so
    ``c P -> -c Y (x) P``; one with an odd number is imaginary, so
    ``c P -> c I (x) P``.  The result lives on one more qubit (index 0),
    keeps the term order, is purely imaginary and satisfies the
    intertwining relation M H~ = H M.  Raises ``ValueError`` for a complex
    coefficient, a code other than ``I X Y Z`` or a space with a mode.
    """
    if not h.space.is_qubit_only:
        raise ValueError("the embedding is defined for qubit registers")
    terms = []
    for coeff, factors in h.terms:
        if coeff.imag != 0.0:
            raise ValueError(f"coefficient {coeff} of {factors} is not real")
        if any(code not in PAULI_LABELS for code in factors):
            raise ValueError(f"{factors} is not a Pauli string")
        if factors.count("Y") % 2:
            terms.append((coeff, ("I",) + factors))
        else:
            terms.append((-coeff, ("Y",) + factors))
    return OperatorSum(HilbertSpace.qubits(h.space.n_factors + 1), terms,
                       hermitian=h.hermitian)


# ---------------------------------------------------------------------------
# entanglement monotones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneSpec:
    """Which antilinear monotone to evaluate on an N-qubit register."""

    kind: str  # Concurrence2 | SecondOrder2 | Tangle3 | EvenN | OddN
    n_qubits: int

    def __post_init__(self):
        kind, n = self.kind, self.n_qubits
        if kind == "Concurrence2" and n != 2:
            raise ValueError("the concurrence is a two-qubit monotone")
        if kind == "SecondOrder2" and n != 2:
            raise ValueError("the second-order monotone is two-qubit")
        if kind == "Tangle3" and n != 3:
            raise ValueError("the 3-tangle is a three-qubit monotone")
        if kind == "EvenN" and n % 2 != 0:
            raise ValueError("EvenN requires an even register")
        if kind == "OddN" and n % 2 == 0:
            raise ValueError("OddN requires an odd register")
        if kind not in ("Concurrence2", "SecondOrder2", "Tangle3", "EvenN", "OddN"):
            raise ValueError(f"unknown monotone kind {self.kind!r}")


@dataclass(frozen=True)
class MonotoneResult:
    value: float
    observables: tuple   # enlarged-space Pauli strings the protocol measures

    @property
    def observables_measured(self) -> int:
        return len(self.observables)


@lru_cache(maxsize=None)
def _readout(kind: str, n: int) -> tuple:
    """Weights, enlarged-space labels and read-only matrices of the readout.

    Each antilinear term w <psi|P K|psi> of the monotone is read as the pair
    Z+P, X+P; the terms with a zero metric weight are not measured.
    """
    if kind in ("Concurrence2", "EvenN"):  # the concurrence is EvenN at n = 2
        terms = [(1.0, "Y" * n)]
    elif kind in ("Tangle3", "OddN"):
        terms = [(g, mu + "Y" * (n - 1)) for g, mu in zip(METRIC_DIAGONAL, PAULI_LABELS)]
    else:  # SecondOrder2: double metric contraction of squared terms
        terms = [(gi * gj, mi + mj) for gi, mi in zip(METRIC_DIAGONAL, PAULI_LABELS)
                 for gj, mj in zip(METRIC_DIAGONAL, PAULI_LABELS)]
    terms = [(w, lbl) for w, lbl in terms if w != 0.0]
    observables = tuple(axis + lbl for _, lbl in terms for axis in "ZX")
    matrices = tuple(dense_pauli(lbl) for lbl in observables)
    for m in matrices:
        m.setflags(write=False)
    return tuple(w for w, _ in terms), observables, matrices


def monotone(state: PureState | DensityMatrix, spec: MonotoneSpec,
             rescale: tuple | None = None) -> MonotoneResult:
    """Evaluate the monotone from the embedding protocol's readout pairs.

    Each antilinear term <psi|P K|psi> is <Z+P> - i <X+P> on the enlarged
    register (two plain expectation values); the monotone is |c| for
    ``Concurrence2``/``EvenN`` and |sum w c^2| over the metric weights w
    otherwise.  ``state`` is the embedded image (one extra qubit, a
    ``PureState`` or a ``DensityMatrix``) or a register ``PureState``, which
    is embedded first; the register size tells them apart.  With
    ``rescale=(epsilon, n_gates)`` every readout is first passed through
    ``rescale_expectation``, which inverts the circuit's depolarizing noise.

    For a density matrix the value is this readout formula's value, what
    the protocol measures on a mixed state, and not a convex-roof monotone.
    """
    n = spec.n_qubits
    if isinstance(state, PureState) and state.space.n_factors == n:
        state = embed_state(state)
    if state.space.n_factors != n + 1 or not state.space.is_qubit_only:
        raise ValueError(f"the {spec.kind} readout needs the {n + 1}-qubit embedded "
                         f"state or a {n}-qubit register ket")
    weights, observables, matrices = _readout(spec.kind, n)
    vals = []
    for m in matrices:
        v = expectation(state, m).real
        if rescale is not None:
            v = rescale_expectation(v, *rescale, m)
        vals.append(v)
    terms = [complex(vz, -vx) for vz, vx in zip(vals[::2], vals[1::2])]
    if spec.kind in ("Concurrence2", "EvenN"):
        value = abs(terms[0])
    else:
        value = abs(sum(w * c * c for w, c in zip(weights, terms)))
    return MonotoneResult(float(value), observables)


def concurrence_direct(psi: PureState | np.ndarray) -> float:
    """|<psi|sigma_y (x) sigma_y|psi*>| evaluated without the embedding."""
    amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, complex)
    return float(abs(np.vdot(amps, pauli_apply("YY", amps.conj()))))


# ---------------------------------------------------------------------------
# controlled-Z circuit identity
# ---------------------------------------------------------------------------

def _cz(i: int, j: int, n: int) -> np.ndarray:
    """|0><0|_i (x) 1 + |1><1|_i (x) sigma_z_j on n qubits (|0> = |e>: ``Pe``)."""
    space = HilbertSpace.qubits(n)
    return OperatorSum(space, [(1.0, on_factors(space, {i: "Pe"})),
                               (1.0, on_factors(space, {i: "Pg", j: "Z"}))]).matrix()


def reduced_circuit_unitary(phi: float) -> np.ndarray:
    """CZ_02 CZ_01 Ry0(phi) CZ_01 CZ_02 on three qubits,
    with Ry(phi) = exp(-i phi sigma_y); equals exp(-i phi Y (x) Z (x) Z)."""
    ry = pauli_rotation("YII", phi)
    cz01, cz02 = _cz(0, 1, 3), _cz(0, 2, 3)
    return cz02 @ cz01 @ ry @ cz01 @ cz02


def reduced_circuit_target(phi: float) -> np.ndarray:
    return pauli_rotation("YZZ", phi)


# ---------------------------------------------------------------------------
# entangling-gate compiler (collective-spin sandwich)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    kind: str          # "ms" | "rotation" | "local"
    matrix: np.ndarray
    description: str


def collective_spin_gate(theta: float, phi: float, k: int) -> np.ndarray:
    """exp(-i theta (cos(phi) Sx + sin(phi) Sy)^2 / 4) on k qubits."""
    space = HilbertSpace.qubits(k)
    sx, sy = (OperatorSum(space, [(1.0, on_factors(space, {q: p})) for q in range(k)]).matrix()
              for p in "XY")
    s = math.cos(phi) * sx + math.sin(phi) * sy
    return expm(-1j * theta * (s @ s) / 4.0)


_AXIS_TO_BASE = {
    # unitary u with u BASE u^dag = target axis; BASE is Z for site 0, X elsewhere
    ("Z", "X"): pauli_rotation("Y", math.pi / 4.0),
    ("Z", "Y"): pauli_rotation("X", -math.pi / 4.0),
    ("Z", "Z"): np.eye(2, dtype=complex),
    ("X", "X"): np.eye(2, dtype=complex),
    ("X", "Y"): pauli_rotation("Z", math.pi / 4.0),
    ("X", "Z"): pauli_rotation("Y", -math.pi / 4.0),
}


def ms_compile(label: str, phi: float, boson_quadrature: bool = False,
               n_max: int = 30) -> list:
    """Gate sequence for exp(i phi P) with P the Pauli string ``label``
    (no identity letters), built from two collective entangling gates and
    one central rotation, plus local basis changes.

    With ``boson_quadrature`` the central rotation generator is multiplied
    by ``(a + a^dag)`` on an attached mode, producing
    ``exp(i phi P (x) (a + a^dag))``.
    """
    k = len(label)
    if k < 2:
        raise ValueError("need at least two qubits")
    for ch in label:
        if ch == "I":
            raise ValueError("identity letters are not compiled here; dress the "
                             "readout instead (see measure_via_anticommutation)")
        if ch not in "XYZ":
            raise ValueError(f"bad Pauli letter {ch!r} in {label!r}")

    # MS = e^{-i pi k/8} prod_{i<j} exp(-i pi/4 X_i X_j), so the conjugated
    # central operator MS^dag sigma_c^{(0)} MS is sign * Z X...X
    central_letter = "Z" if k % 2 == 1 else "Y"
    ms_plus = collective_spin_gate(math.pi / 2.0, 0.0, k)
    ms_minus = ms_plus.conj().T
    pairs = ["I" * i + "X" + "I" * (j - i - 1) + "X" + "I" * (k - j - 1)
             for i in range(k) for j in range(i + 1, k)]
    sign, _ = _conjugated(central_letter + "I" * (k - 1), pairs)

    locals_per_site = [_AXIS_TO_BASE[("Z" if q == 0 else "X", label[q])] for q in range(k)]
    local_change = kron_all(locals_per_site)

    phi_central = sign.real * phi
    if boson_quadrature:
        space = HilbertSpace.qubit_boson(n_max, n_qubits=k)
        codes = on_factors(space, {0: central_letter, -1: "x"})
        rot = expm(1j * phi_central * OperatorSum(space, [(1.0, codes)]).matrix())
        eye_b = np.eye(n_max + 1, dtype=complex)
        pad, mode = (lambda m: kron_all([m, eye_b])), " (a+adag)"
    else:
        rot = pauli_rotation(central_letter + "I" * (k - 1), -phi_central)
        pad, mode = (lambda m: m), ""
    return [
        Gate("local", pad(local_change.conj().T), "basis change in"),
        Gate("ms", pad(ms_plus), "collective gate (+pi/2)"),
        Gate("rotation", rot, f"exp(i {phi_central:+.6f} {central_letter}0{mode})"),
        Gate("ms", pad(ms_minus), "collective gate (-pi/2)"),
        Gate("local", pad(local_change), "basis change out"),
    ]


def ms_target(label: str, phi: float, boson_quadrature: bool = False,
              n_max: int = 30) -> np.ndarray:
    if not boson_quadrature:
        return pauli_rotation(label, -phi)
    space = HilbertSpace.qubit_boson(n_max, n_qubits=len(label))
    return expm(1j * phi * OperatorSum(space, [(1.0, tuple(label) + ("x",))]).matrix())


def ms_verify(gates: Sequence[Gate], target: np.ndarray) -> float:
    """Spectral-norm distance between the compiled product and the target."""
    acc = np.eye(target.shape[0], dtype=complex)
    for g in gates:
        acc = g.matrix @ acc
    return float(np.linalg.norm(acc - target, ord=2))


# ---------------------------------------------------------------------------
# dressed single-site readout of Pauli observables
# ---------------------------------------------------------------------------

def _other_two(letter: str) -> tuple:
    return tuple(ch for ch in "XYZ" if ch != letter)


def _conjugated(label: str, rotations: Sequence[str]) -> tuple:
    """(phase, label') with U^dag P(label) U = phase * P(label') for
    U = prod_j exp(-i pi/4 P_j), read from the labels alone: a P_j that
    anticommutes with the current string S maps it to -i S P_j, one that
    commutes leaves it."""
    phase = 1
    for p in rotations:
        q, product = pauli_product(label, p)
        if q.imag:  # an imaginary phase: S and P_j anticommute
            phase, label = phase * -1j * q, product
    return phase, label


@dataclass(frozen=True)
class DressedReadout:
    value: float
    n_evolutions: int
    readout: str         # Pauli string actually measured (identities elsewhere)
    evolutions: tuple    # the dressing Pauli strings


def _dressing(theta_label: str) -> tuple:
    """(sign, readout, dressings) of the Pauli string ``theta_label``, from
    the labels alone: <Theta> = sign <U^dag S U>, sign = +-1, for the
    readout S (one or two sites) and U = prod_j exp(-i pi/4 P_j) over the
    dressings, which commute and each anticommute with S.  Raises
    ``ValueError`` for a letter other than ``I X Y Z``, an all-identity
    string or a string the rule cannot dress."""
    n = len(theta_label)
    for ch in theta_label:
        if ch not in PAULI_LABELS:
            raise ValueError(f"bad Pauli letter {ch!r} in {theta_label!r}")
    support = [i for i, ch in enumerate(theta_label) if ch != "I"]
    if not support:
        raise ValueError("nothing to measure")

    if len(support) == 1:
        readout, dressings = theta_label, ()
    elif len(support) == n:
        # single dressing: measure sigma_beta at site a after exp(-i pi/4 P1)
        a = support[0]
        beta, gamma = _other_two(theta_label[a])
        readout = "I" * a + beta + "I" * (n - a - 1)
        dressings = (theta_label[:a] + gamma + theta_label[a + 1:],)
    else:
        # identity slots: two commuting dressings, one- or two-site readout
        a = support[0]
        read_sites = [a] if len(support) % 2 == 1 else [a, support[1]]
        p1, p2 = [], []
        for i, ch in enumerate(theta_label):
            if i == a:
                # anticommuting site: both dressings share a letter != Theta_a
                beta = _other_two(ch)[0]
                p1.append(beta)
                p2.append(beta)
            elif i in read_sites:
                p1.append(ch)   # commuting at the second readout site
                p2.append(ch)
            elif ch == "I":
                p1.append("Y")
                p2.append("Y")
            else:
                b, g = _other_two(ch)
                p1.append(b)
                p2.append(g)
        readout = "".join(theta_label[i] if i in read_sites else "I" for i in range(n))
        dressings = ("".join(p1), "".join(p2))

    sign, label = _conjugated(readout, dressings)
    if label != theta_label or sign.imag:
        raise ValueError(f"no valid dressing found for {theta_label!r}")
    return sign.real, readout, dressings


def measure_via_anticommutation(theta_label: str, state: PureState) -> DressedReadout:
    """Expectation of the Pauli string ``theta_label`` from one- or two-site
    readout after at most two commuting pi/4 dressing evolutions, each
    anticommuting with the readout (``_dressing``: none for a single-site
    string, one for an identity-free one, two otherwise).  ``state`` must
    be a register of ``len(theta_label)`` qubits.
    """
    sign, readout, dressings = _dressing(theta_label)
    n = len(theta_label)
    if state.space.n_factors != n or not state.space.is_qubit_only:
        raise ValueError(f"the observable {theta_label!r} needs a {n}-qubit register")
    evolved = state.amplitudes
    for p in reversed(dressings):  # U = R1 R2 acts on the ket R2 first
        evolved = pauli_rotation(p, math.pi / 4.0) @ evolved
    raw = float(np.real(np.vdot(evolved, dense_pauli(readout) @ evolved)))
    return DressedReadout(sign * raw, len(dressings), readout, dressings)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def apply_depolarizing(rho: DensityMatrix, epsilon: float, n_gates: int) -> DensityMatrix:
    """n_gates-fold per-gate depolarizing: eps^n rho + (1 - eps^n) I/d.

    Each channel ``D(rho) = eps rho + (1 - eps) I/d`` maps ``I/d`` to itself
    and commutes with every unitary conjugation, so the channels after the
    ``n_gates`` gates of a circuit compose to this one channel on its
    noiseless output.  Raises ``ValueError`` unless ``epsilon`` is in (0, 1].
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must sit in (0, 1]")
    weight = epsilon ** n_gates
    d = rho.space.dim
    return DensityMatrix(rho.space, weight * rho.matrix + (1.0 - weight) * np.eye(d) / d)


def rescale_expectation(measured: float, epsilon: float, n_gates: int,
                        observable: np.ndarray | OperatorSum) -> float:
    """Exact inversion of the depolarizing channel on an expectation value.

    For traceless observables this is measured / eps^n; in general the
    identity's contribution ``(1 - eps^n) Tr(O)/d`` is subtracted first.
    A weight eps^n that underflows to zero or to a subnormal number has
    lost its digits, and raises ``ValueError``.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    weight = epsilon ** n_gates
    if weight < sys.float_info.min:
        raise ValueError(f"the depolarizing weight epsilon^n_gates = {epsilon}^{n_gates} "
                         f"underflows to {weight}; the noise cannot be inverted")
    omat = observable.matrix() if isinstance(observable, OperatorSum) else \
        np.asarray(observable, dtype=complex)
    d = omat.shape[0]
    tr = complex(np.trace(omat)).real
    return (measured - (1.0 - weight) * tr / d) / weight


def cost_ratio(n_qubits: int, n_observables: int, epsilon: float, delta: float) -> float:
    """Measurement-cost ratio of the embedding route versus full tomography,
    ``l (delta / (sqrt(3) eps))^{2 N}``, with a gate count that grows like
    the register size N."""
    if not (0.0 < epsilon <= 1.0) or not (0.0 < delta <= 1.0):
        raise ValueError("fidelities must sit in (0, 1]")
    return n_observables * (delta ** (2 * n_qubits)) \
        / (3 ** n_qubits * epsilon ** (2 * n_qubits))


# ---------------------------------------------------------------------------
# embedded Trotter circuit with crosstalk
# ---------------------------------------------------------------------------

def trotter_embedded_circuit(terms: Sequence, t: float, steps: int,
                             initial: PureState, crosstalk: float = 0.0):
    """First-order Trotter evolution of a sum of Pauli-string terms.

    ``terms`` is a list of (coeff, label), each label one letter of ``IXYZ``
    per register qubit; each of the ``steps >= 1`` steps applies
    ``exp(-i coeff label dt)``, dt = t/steps, for every term.  Every gate is
    a Pauli rotation exp(-i phi P), applied to the ket as
    ``cos(phi) psi - i sin(phi) P psi`` with ``pauli_apply``, so no d x d
    matrix is formed.  A single-qubit rotation is compiled as U Rz U^dag
    (U sigma_z U^dag = the axis; 3 gates, 1 for a z axis), and its Rz leaks
    a fraction ``crosstalk`` onto each nearest neighbor; the leaked
    exp(-i crosstalk coeff dt sigma_z^k) commutes with U, so it follows the
    rotation as one more Pauli rotation.

    Depolarizing noise after each gate is ``apply_depolarizing`` of the
    output with the returned gate count, the compiled circuit's.  Returns
    ``(state, n_gates)``; raises ``ValueError`` for ``steps < 1``, a bad
    label or a non-finite ``crosstalk``.
    """
    n = initial.space.n_factors
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(crosstalk):
        raise ValueError("crosstalk strength must be finite")
    for _, label in terms:
        if len(label) != n or any(ch not in PAULI_LABELS for ch in label):
            raise ValueError(f"label {label!r} needs one letter of IXYZ for each "
                             f"of the {n} register qubits")
    dt = t / steps
    rotations, n_gates = [], 0  # (phi, label) for exp(-i phi P(label))
    for coeff, label in terms:
        rotations.append((coeff * dt, label))
        support = [i for i, ch in enumerate(label) if ch != "I"]
        if len(support) == 1:
            q = support[0]
            n_gates += 1 if label[q] == "Z" else 3
            if crosstalk:
                rotations += [(crosstalk * coeff * dt, "I" * k + "Z" + "I" * (n - k - 1))
                              for k in (q - 1, q + 1) if 0 <= k < n]
        else:
            n_gates += 1

    psi = initial.amplitudes
    for _ in range(steps):
        for phi, label in rotations:
            psi = math.cos(phi) * psi - 1j * math.sin(phi) * pauli_apply(label, psi)
    return PureState(initial.space, psi), steps * n_gates
