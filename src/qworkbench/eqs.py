"""Real-embedding simulator: one extra qubit makes complex conjugation a
physical gate, so antilinear entanglement monotones become two-observable
measurements.

The embedding stacks real and imaginary amplitude parts,
``psi -> (Re psi; Im psi)``, with decode matrix ``M = (1, i) (x) I`` and
conjugation gate ``K~ = sigma_z (x) I``; a Hermitian ``H = A + iB`` maps to
the purely imaginary Hermitian ``H~ = i I (x) B - sigma_y (x) A`` which
intertwines ``M H~ = H M`` and keeps real vectors real.  The embedding
qubit is subsystem 0 of the enlarged register.

Also here: the entangling-gate compiler from collective-spin interactions,
the controlled-Z circuit identity for the three-qubit embedded evolution,
single-site readout of dressed Pauli observables, and the depolarizing /
crosstalk error models with their exact inversion.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    PureState,
    dense_pauli,
    expm,
    kron_all,
    on_factors,
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


def conj_expectation(psi_tilde: PureState, observable: np.ndarray | OperatorSum) -> complex:
    """<psi|O K|psi> = <psi~|(sigma_z - i sigma_x) (x) O|psi~>."""
    omat = observable.matrix() if isinstance(observable, OperatorSum) else \
        np.asarray(observable, dtype=complex)
    big = kron_all([PAULIS["Z"] - 1j * PAULIS["X"], omat])
    v = psi_tilde.amplitudes
    return complex(np.vdot(v, big @ v))


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


def _enlarged_observables(labels) -> tuple:
    """Each antilinear term <psi|P K|psi> costs the pair Z+P and X+P."""
    return tuple(axis + lbl for lbl in labels for axis in "ZX")


def _conj_values(psi: np.ndarray, labels: Sequence[str]) -> list:
    """<psi|P|psi*> for each Pauli-string label, via direct conjugation."""
    conj = psi.conj()
    return [complex(np.vdot(psi, dense_pauli(lbl) @ conj)) for lbl in labels]


def monotone(state: PureState, spec: MonotoneSpec) -> MonotoneResult:
    """Evaluate the monotone, reporting how many enlarged-space observables
    the embedding protocol would have measured (two per antilinear term).

    ``state`` may be the simulated register state or its embedded image;
    the register size tells them apart (one extra qubit: embedded).
    """
    n = spec.n_qubits
    embedded = state.space.n_factors == n + 1
    psi = decode_state(state) if embedded else state.amplitudes
    if psi.size != 2 ** n:
        raise ValueError("state does not match the monotone's register size")
    nrm = np.linalg.norm(psi)
    psi = psi / nrm

    if spec.kind in ("Concurrence2", "EvenN"):  # the concurrence is EvenN at n = 2
        val = abs(_conj_values(psi, ["Y" * n])[0])
        return MonotoneResult(float(val), _enlarged_observables(["Y" * n]))

    if spec.kind in ("Tangle3", "OddN"):
        labels = [mu + "Y" * (n - 1) for mu in "IXYZ"]
        vals = _conj_values(psi, labels)
        acc = sum(g * v * v for g, v in zip(METRIC_DIAGONAL, vals))
        metered = [lbl for lbl, g in zip(labels, METRIC_DIAGONAL) if g != 0.0]
        return MonotoneResult(float(abs(acc)), _enlarged_observables(metered))

    # SecondOrder2: double metric contraction of squared conjugation values
    labels, weights = [], []
    letters = "IXYZ"
    for i, gi in enumerate(METRIC_DIAGONAL):
        for j, gj in enumerate(METRIC_DIAGONAL):
            if gi == 0.0 or gj == 0.0:
                continue
            labels.append(letters[i] + letters[j])
            weights.append(gi * gj)
    vals = _conj_values(psi, labels)
    acc = sum(w * v * v for w, v in zip(weights, vals))
    return MonotoneResult(float(abs(acc)), _enlarged_observables(labels))


def concurrence_direct(psi: PureState | np.ndarray) -> float:
    """|<psi|sigma_y (x) sigma_y|psi*>| evaluated without the embedding."""
    amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, complex)
    return float(abs(np.vdot(amps, dense_pauli("YY") @ amps.conj())))


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
    sx = sum(_single_site("X", q, k) for q in range(k))
    sy = sum(_single_site("Y", q, k) for q in range(k))
    s = math.cos(phi) * sx + math.sin(phi) * sy
    return expm(-1j * theta * (s @ s) / 4.0)


def _single_site(letter: str, site: int, n: int) -> np.ndarray:
    """The Pauli ``letter`` on qubit ``site`` of ``n``, identity elsewhere."""
    return dense_pauli("I" * site + letter + "I" * (n - site - 1))


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
    if any(ch not in "XYZ" for ch in label):
        raise ValueError("identity letters are not compiled here; dress the "
                         "readout instead (see measure_via_anticommutation)")

    # conjugated central operator: V sigma_c^{(0)} V^dag = sign * Z X...X
    central_letter = "Z" if k % 2 == 1 else "Y"
    ms_plus = collective_spin_gate(math.pi / 2.0, 0.0, k)
    ms_minus = ms_plus.conj().T
    central = _single_site(central_letter, 0, k)
    conj = ms_minus @ central @ ms_plus
    base = dense_pauli("Z" + "X" * (k - 1))
    sign = None
    for s in (1.0, -1.0):
        if np.max(np.abs(conj - s * base)) < 1e-10:
            sign = s
            break
    if sign is None:
        raise AssertionError("collective-gate conjugation did not produce the base string")

    locals_per_site = [_AXIS_TO_BASE[("Z" if q == 0 else "X", label[q])] for q in range(k)]
    local_change = kron_all(locals_per_site)

    phi_central = sign * phi
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

_EPS_LEVI = {("X", "Y"): ("Z", 1.0), ("Y", "Z"): ("X", 1.0), ("Z", "X"): ("Y", 1.0),
             ("Y", "X"): ("Z", -1.0), ("Z", "Y"): ("X", -1.0), ("X", "Z"): ("Y", -1.0)}


def _other_two(letter: str) -> tuple:
    return tuple(ch for ch in "XYZ" if ch != letter)


@dataclass(frozen=True)
class DressedReadout:
    value: float
    n_evolutions: int
    readout: str         # Pauli string actually measured (identities elsewhere)
    evolutions: tuple    # the dressing Pauli strings


def measure_via_anticommutation(theta_label: str, state: PureState) -> DressedReadout:
    """Expectation of the Pauli string ``theta_label`` from one- or two-site
    readout after at most two commuting pi/4 dressing evolutions, each
    anticommuting with the readout.

    Identity-free strings need a single evolution; strings with identity
    slots take two.  Single-site observables pass straight through.
    """
    n = len(theta_label)
    if state.space.dim != 2 ** n:
        raise ValueError("state register does not match the observable")
    support = [i for i, ch in enumerate(theta_label) if ch != "I"]
    if not support:
        raise ValueError("nothing to measure")
    psi = state.amplitudes

    def expect(label: str) -> float:
        return float(np.real(np.vdot(psi, dense_pauli(label) @ psi)))

    if len(support) == 1:
        return DressedReadout(expect(theta_label), 0, theta_label, ())

    full_support = len(support) == n
    if full_support:
        # single dressing: measure sigma_beta at site a after exp(-i pi/4 P1)
        a = support[0]
        alpha = theta_label[a]
        beta, gamma = _other_two(alpha)
        # choose (beta, gamma) so that sigma_beta sigma_gamma = i eps sigma_alpha
        target, eps = _EPS_LEVI[(beta, gamma)]
        if target != alpha:
            beta, gamma = gamma, beta
            target, eps = _EPS_LEVI[(beta, gamma)]
        p1 = theta_label[:a] + gamma + theta_label[a + 1:]
        readout = "I" * a + beta + "I" * (n - a - 1)
        u1 = pauli_rotation(p1, math.pi / 4.0)
        evolved = u1 @ psi
        raw = float(np.real(np.vdot(evolved, dense_pauli(readout) @ evolved)))
        # <U1^dag S U1> = <S (-i P1)> = -i <S P1>;  S P1 = i eps Theta
        value = eps * raw
        return DressedReadout(value, 1, readout, (p1,))

    # identity slots: two commuting dressings, one- or two-site readout
    odd_weight = len(support) % 2 == 1
    a = support[0]
    if odd_weight:
        read_sites = [a]
    else:
        read_sites = [a, support[1]]
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
    p1, p2 = "".join(p1), "".join(p2)
    readout = "".join(theta_label[i] if i in read_sites else "I" for i in range(n))

    s_mat = dense_pauli(readout)
    p1_mat, p2_mat = dense_pauli(p1), dense_pauli(p2)
    if np.max(np.abs(p1_mat @ p2_mat - p2_mat @ p1_mat)) > 1e-12:
        raise ValueError("no valid dressing found: evolutions do not commute")
    for pm in (p1_mat, p2_mat):
        if np.max(np.abs(s_mat @ pm + pm @ s_mat)) > 1e-12:
            raise ValueError("no valid dressing found: readout fails to anticommute")
    # measured = <S (-iP1)(-iP2)> = -<S P1 P2>; S P1 P2 = c * Theta with c = +-1
    prod = s_mat @ p1_mat @ p2_mat
    theta_mat = dense_pauli(theta_label)
    c = complex(np.trace(theta_mat @ prod)) / theta_mat.shape[0]
    if abs(abs(c) - 1.0) > 1e-12 or abs(c.imag) > 1e-12:
        raise ValueError("no valid dressing found: product does not reproduce the target")
    u = pauli_rotation(p1, math.pi / 4.0) @ pauli_rotation(p2, math.pi / 4.0)
    evolved = u @ psi
    raw = float(np.real(np.vdot(evolved, s_mat @ evolved)))
    return DressedReadout(-float(c.real) * raw, 2, readout, (p1, p2))


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing fidelity and nearest-neighbor crosstalk strength."""

    gate_fidelity: float = 1.0   # epsilon in (0, 1]
    crosstalk: float = 0.0       # Delta_0

    def __post_init__(self):
        if not (0.0 < self.gate_fidelity <= 1.0):
            raise ValueError("gate fidelity must sit in (0, 1]")
        if not math.isfinite(self.crosstalk):
            raise ValueError("crosstalk strength must be finite")

    def crosstalk_matrix(self, n: int) -> np.ndarray:
        delta = np.eye(n)
        for k in range(n - 1):
            delta[k, k + 1] = self.crosstalk
            delta[k + 1, k] = self.crosstalk
        return delta


def _depolarize(rho: np.ndarray, weight: float) -> np.ndarray:
    """weight rho + (1 - weight) I/d for a d x d matrix ``rho``."""
    d = rho.shape[0]
    return weight * rho + (1.0 - weight) * np.eye(d) / d


def apply_depolarizing(rho: DensityMatrix, epsilon: float, n_gates: int) -> DensityMatrix:
    """n_gates-fold per-gate depolarizing: eps^n rho + (1 - eps^n) I/d."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must sit in (0, 1]")
    return DensityMatrix(rho.space, _depolarize(rho.matrix, epsilon ** n_gates))


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


def crosstalk_z_rotation(theta: float, qubit: int, n: int, delta0: float) -> np.ndarray:
    """exp(-i theta/2 sum_k Delta_{k,qubit} sigma_z^k): leakage of a
    single-qubit z rotation onto nearest neighbors.

    The generator is a sum of z's, so the rotation is the diagonal matrix
    of its phases; no exponential is computed."""
    model = NoiseModel(crosstalk=delta0)
    delta = model.crosstalk_matrix(n)
    z, one = PAULIS["Z"].diagonal(), PAULIS["I"].diagonal()
    gen = sum(delta[k, qubit] * kron_all([z if j == k else one for j in range(n)])
              for k in range(n) if delta[k, qubit] != 0.0)
    return np.diag(np.exp(-1j * 0.5 * theta * gen))


def cost_ratio(n_qubits: int, n_observables: int, epsilon: float, delta: float) -> float:
    """Measurement-cost ratio of the embedding route versus full tomography,
    ``l (delta / (sqrt(3) eps))^{2 N}``, with a gate count that grows like
    the register size N."""
    if not (0.0 < epsilon <= 1.0) or not (0.0 < delta <= 1.0):
        raise ValueError("fidelities must sit in (0, 1]")
    return n_observables * (delta ** (2 * n_qubits)) \
        / (3 ** n_qubits * epsilon ** (2 * n_qubits))


# ---------------------------------------------------------------------------
# embedded Trotter circuit with noise annotations
# ---------------------------------------------------------------------------

def trotter_embedded_circuit(terms: Sequence, t: float, steps: int,
                             initial: PureState, noise: NoiseModel | None = None):
    """First-order Trotter evolution of a sum of Pauli-string terms.

    ``terms`` is a list of (coeff, label), each label one letter of ``IXYZ``
    per register qubit; each of the ``steps >= 1`` steps applies
    ``exp(-i coeff label t/steps)`` for every term.  Single-qubit rotations
    are compiled through z rotations so the crosstalk model (which affects
    only z rotations) acts on them; multi-qubit exponentials are applied
    exactly.  Every gate is built once, in closed form, before the step
    loop (``pauli_rotation`` for Pauli exponentials, a diagonal for the z
    rotations), and each step applies the same list to the ket.

    With depolarizing noise each gate is followed by the channel
    ``D(rho) = eps rho + (1 - eps) I/d``.  ``D`` maps ``I/d`` to itself and
    commutes with every unitary conjugation, so the ``n_gates`` channels
    compose to one: the result is
    ``eps^n_gates |psi><psi| + (1 - eps^n_gates) I/d`` for the noiseless
    output ket ``psi``, the same identity ``rescale_expectation`` inverts.

    Returns ``(state_or_rho, n_gates)``.
    """
    n = initial.space.n_factors
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    for _, label in terms:
        if len(label) != n or any(ch not in PAULI_LABELS for ch in label):
            raise ValueError(f"label {label!r} needs one letter of IXYZ for each "
                             f"of the {n} register qubits")
    eps = noise.gate_fidelity if noise else 1.0
    delta0 = noise.crosstalk if noise else 0.0
    dt = t / steps
    gates = []
    for coeff, label in terms:
        support = [i for i, ch in enumerate(label) if ch != "I"]
        theta = 2.0 * coeff * dt  # exp(-i coeff P dt) = Rp(2 coeff dt) convention
        if len(support) == 1:
            # single-qubit rotations run through Rz so the crosstalk model
            # (which leaks z rotations onto neighbors) acts on them:
            # exp(-i theta/2 sigma_axis) = U Rz(theta) U^dag with
            # U sigma_z U^dag = sigma_axis; gates are listed first-applied
            # first, so the list reads [U^dag, Rz, U].
            q, axis = support[0], label[support[0]]
            rz = crosstalk_z_rotation(theta, q, n, delta0)
            if axis == "Z":
                gates.append(rz)
            else:
                gen = "Y" if axis == "X" else "X"
                angle = math.pi / 4.0 if axis == "X" else -math.pi / 4.0
                u = pauli_rotation("I" * q + gen + "I" * (n - q - 1), angle)
                gates.extend([u.conj().T, rz, u])
        else:
            gates.append(pauli_rotation(label, coeff * dt))

    psi = initial.amplitudes
    for u in gates * steps:
        psi = u @ psi
    n_gates = steps * len(gates)
    if eps < 1.0:
        rho = np.outer(psi, psi.conj())
        return DensityMatrix(initial.space, _depolarize(rho, eps ** n_gates)), n_gates
    return PureState(initial.space, psi), n_gates
