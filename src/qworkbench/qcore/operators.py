"""Operators as weighted sums of tensor-product primitives, plus Pauli strings.

Every dense operator of the package is built here: ``OperatorSum`` turns
primitive codes into matrices in the factor order of ``qcore.spaces``, or
into chosen principal blocks of that matrix, gathered factor by factor
with no d x d matrix (``OperatorSum.blocks``),
``on_factors`` places codes on chosen factors with ``"I"`` on the rest,
and ``dense_pauli`` and ``kron_all`` cover Pauli labels and explicit
factor lists; ``pauli_rotation`` exponentiates a Pauli label in closed
form, and ``pauli_apply`` applies one to a ket or a column block in O(d)
work per column, with no d x d matrix.  No module outside ``qcore`` pads
with identities by hand.
``pauli_terms`` reads a qubit operator as a sum of Pauli strings from its
own terms, and ``pauli_product`` multiplies two Pauli strings, both
symbolically.

Primitive codes: on a qubit ``I X Y Z S+ S- Pe Pg``; on a mode ``I a adag
n x p sq`` (``sq = a^2 + a^dag^2``) and ``("disp", eta)``.

Global matrix conventions (fixed for the whole package):

* computational basis index 0 is the excited level |e>, index 1 the ground
  level |g>;
* ``sigma_y = [[0, -1j], [1j, 0]]``;
* ``sigma_plus = (sigma_x + 1j*sigma_y)/2 = |e><g|`` raises g -> e;
* bosonic quadratures ``x = a + a^dag`` and ``p = 1j*(a^dag - a)``;
* ``exp(1j*eta*(a + a^dag))`` is materialized by exponentiating the
  truncated ``a + a^dag`` matrix, which keeps it exactly unitary at the
  truncation boundary.
"""
from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import expm
from .spaces import HilbertSpace, Qubit

# ---------------------------------------------------------------------------
# dense single-factor matrices
# ---------------------------------------------------------------------------

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_P = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |e><g|
SIGMA_M = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
PROJ_E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_G = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULI_LETTERS = frozenset(PAULI_LABELS)

_QUBIT_MATS = {
    "I": SIGMA_I,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
    "S+": SIGMA_P,
    "S-": SIGMA_M,
    "Pe": PROJ_E,
    "Pg": PROJ_G,
}


def boson_annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def boson_number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=complex))


def boson_displacement_generator(dim: int, eta: float) -> np.ndarray:
    """exp(1j*eta*(a + a^dag)) on the truncated mode (exactly unitary)."""
    a = boson_annihilation(dim)
    return expm(1j * eta * (a + a.conj().T))


def _boson_matrix(code, dim: int) -> np.ndarray:
    if isinstance(code, tuple):
        return boson_displacement_generator(dim, float(code[1]))
    if code == "I":
        return np.eye(dim, dtype=complex)
    if code == "n":
        return boson_number(dim)
    if code == "sq":
        # a^2 + a^dag^2 in closed form: (a^2)[k, k + 2] = sqrt(k + 1) sqrt(k + 2)
        # is the one nonzero product in that entry of a @ a, so the bits match it
        sq = np.zeros((dim, dim), dtype=complex)
        k = np.arange(dim - 2)
        sq[k, k + 2] = np.sqrt(k + 1.0) * np.sqrt(k + 2.0)
        return sq + sq.T
    a = boson_annihilation(dim)
    if code == "a":
        return a
    if code == "adag":
        return a.conj().T
    if code == "x":
        return a + a.conj().T
    return 1j * (a.conj().T - a)  # "p"


_BOSON_CODES = {"I", "a", "adag", "n", "x", "p", "sq"}


def _check_code(factor, code) -> None:
    """Raise ``ValueError`` unless ``code`` names a primitive of ``factor``."""
    if isinstance(factor, Qubit):
        if not (isinstance(code, str) and code in _QUBIT_MATS):
            raise ValueError(f"unknown qubit primitive {code!r}")
    elif isinstance(code, tuple):
        if len(code) != 2 or code[0] != "disp" or not isinstance(code[1], numbers.Real):
            raise ValueError(f"unknown bosonic primitive {code!r}")
    elif not (isinstance(code, str) and code in _BOSON_CODES):
        raise ValueError(f"unknown bosonic primitive {code!r}")


def _factor_matrix(factor, code) -> np.ndarray:
    if isinstance(factor, Qubit):
        return _QUBIT_MATS[code]
    return _boson_matrix(code, factor.dim)


def on_factors(space: HilbertSpace, codes: dict) -> tuple:
    """Factor codes of one term: ``codes[k]`` on factor ``k``, ``"I"`` elsewhere.

    Keys index ``space.factors`` and may be negative, so ``{0: "X", -1: "a"}``
    is sigma_x on the first qubit times ``a`` on a trailing mode.
    """
    factors = ["I"] * space.n_factors
    for index, code in codes.items():
        factors[index] = code
    return tuple(factors)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of factors that are all 2-D matrices or all 1-D vectors.

    Each factor is joined by one broadcast product,
    ``out[:, None, :, None] * m[None, :, None, :]`` (``np.multiply.outer``
    for vectors).  These are the elementwise products ``np.kron`` forms, so
    the result is byte-identical to a chained ``np.kron``, signed zeros
    included, without its per-call shape handling.  The result is always a
    new array, also for a single factor, so a caller may write to it.
    Raises ``ValueError`` for an empty list.
    """
    if not len(mats):
        raise ValueError("kron_all needs at least one factor")
    out = mats[0]
    ndim = out.ndim
    if ndim not in (1, 2) or any(m.ndim != ndim for m in mats[1:]):
        raise ValueError("kron_all factors must be all 2-D matrices or all 1-D vectors")
    if len(mats) == 1:
        return out.copy()
    for m in mats[1:]:
        if ndim == 1:
            out = np.multiply.outer(out, m).reshape(-1)
        else:
            (r1, c1), (r2, c2) = out.shape, m.shape
            out = (out[:, None, :, None] * m[None, :, None, :]).reshape(r1 * r2, c1 * c2)
    return out


# ---------------------------------------------------------------------------
# OperatorSum
# ---------------------------------------------------------------------------

class OperatorSum:
    """Weighted sum of tensor-product terms over a fixed space.

    Each term is ``(coeff, factors)`` with exactly one primitive per
    subsystem.  The object is immutable; the dense matrix is materialized
    lazily and cached read-only, so every caller shares one buffer that none
    can write to.  Products of operators are done at the dense level
    (this is the dense substrate, not a symbolic algebra).
    """

    __slots__ = ("space", "terms", "hermitian", "_matrix")

    def __init__(self, space: HilbertSpace, terms: Iterable, hermitian: bool | None = None):
        self.space = space
        cleaned = []
        for coeff, factors in terms:
            factors = tuple(factors)
            if len(factors) != space.n_factors:
                raise ValueError(
                    f"term has {len(factors)} factors for a space with "
                    f"{space.n_factors} subsystems"
                )
            for f, code in zip(space.factors, factors):
                _check_code(f, code)
            cleaned.append((complex(coeff), factors))
        self.terms = tuple(cleaned)
        self.hermitian = hermitian
        self._matrix = None

    # -- construction helpers -----------------------------------------------------

    @staticmethod
    def zero(space: HilbertSpace) -> "OperatorSum":
        return OperatorSum(space, [], hermitian=True)

    @staticmethod
    def single(space: HilbertSpace, index: int, code, coeff: complex = 1.0,
               hermitian: bool | None = None) -> "OperatorSum":
        """``coeff`` times the primitive ``code`` on subsystem ``index``."""
        return OperatorSum(space, [(coeff, on_factors(space, {index: code}))],
                           hermitian=hermitian)

    @staticmethod
    def pauli_string(space: HilbertSpace, label: str, coeff: complex = 1.0) -> "OperatorSum":
        """Pauli string from a label like ``"XIZ"`` on a qubit-only space."""
        if len(label) != space.n_factors:
            raise ValueError(f"label {label!r} does not match {space.n_factors} factors")
        for ch, f in zip(label, space.factors):
            if not isinstance(f, Qubit):
                raise ValueError("pauli_string requires a qubit-only space")
            if ch not in PAULI_LABELS:
                raise ValueError(f"bad Pauli letter {ch!r}")
        herm = abs(complex(coeff).imag) < 1e-300
        return OperatorSum(space, [(coeff, tuple(label))], hermitian=herm or None)

    # -- algebra -------------------------------------------------------------------

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if self.space != other.space:
            raise ValueError("cannot add operators on different spaces")
        herm = True if (self.hermitian and other.hermitian) else None
        return OperatorSum(self.space, self.terms + other.terms, hermitian=herm)

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-1.0) * other

    def __neg__(self) -> "OperatorSum":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "OperatorSum":
        scalar = complex(scalar)
        herm = self.hermitian if scalar.imag == 0.0 else None
        return OperatorSum(self.space,
                           [(scalar * c, f) for c, f in self.terms],
                           hermitian=herm)

    __rmul__ = __mul__

    # -- materialization ------------------------------------------------------------

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            d = self.space.dim
            acc = np.zeros((d, d), dtype=complex)
            for coeff, factors in self.terms:
                term = kron_all([_factor_matrix(f, code)
                                 for f, code in zip(self.space.factors, factors)])
                # in place, scalar first: the bytes of ``coeff * term``
                acc += np.multiply(coeff, term, out=term)
            if self.hermitian:
                herm_defect = np.max(np.abs(acc - acc.conj().T)) if d else 0.0
                if herm_defect > 1e-10:
                    raise ValueError(
                        f"operator flagged Hermitian has Hermiticity defect {herm_defect:.3e}"
                    )
            acc.setflags(write=False)
            self._matrix = acc
        return self._matrix

    def blocks(self, indices) -> list:
        """``[matrix()[np.ix_(idx, idx)] for idx in indices]``, with no d x d matrix.

        Each index array (1-D, in any order, possibly empty) is split into
        one digit array per factor; each term builds its factor matrices
        once, gathers each factor's entries at those digits, multiplies the
        gathered factors left to right as ``kron_all`` multiplies them, and
        is added into every block as ``matrix()`` adds it, scaled first.  A
        block is therefore the dense gather bit for bit, in O(m^2) work per
        factor for an m-index block.  The Hermiticity flag is not checked
        here, since a block does not see the whole matrix.
        """
        digits = []
        for idx in indices:
            idx = np.asarray(idx, dtype=np.intp)
            if idx.ndim != 1:
                raise ValueError("each index set must be a 1-D array")
            digits.append(np.unravel_index(idx, self.space.dims))
        out = [np.zeros((ds[0].size, ds[0].size), dtype=complex) for ds in digits]
        for coeff, factors in self.terms:
            mats = [_factor_matrix(f, code) for f, code in zip(self.space.factors, factors)]
            for acc, ds in zip(out, digits):
                # out of place: numpy's in-place product of one-element
                # arrays rounds differently from its vector loop
                term = mats[0][np.ix_(ds[0], ds[0])]
                for m, k in zip(mats[1:], ds[1:]):
                    term = term * m[np.ix_(k, k)]
                acc += coeff * term
        return out

    def norm_inf(self) -> float:
        """Spectral norm (largest singular value) of the dense matrix."""
        return float(np.linalg.norm(self.matrix(), ord=2))

    def __repr__(self) -> str:
        return f"OperatorSum({len(self.terms)} terms on dims {self.space.dims})"


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def dense_pauli(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string label such as ``"XIY"``."""
    try:
        mats = [PAULIS[ch] for ch in label]
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r} in {label!r}") from None
    return kron_all(mats)


def pauli_rotation(label: str, theta: float) -> np.ndarray:
    """exp(-i theta P) = cos(theta) I - i sin(theta) P for the Pauli string
    ``label``, in closed form: P squares to the identity, so no ``eigh``."""
    u = dense_pauli(label)
    u *= -1j * math.sin(theta)
    u.flat[::u.shape[0] + 1] += math.cos(theta)  # the diagonal
    return u


@lru_cache(maxsize=256)
def _pauli_action(label: str) -> tuple:
    """(perm, phase), read-only, with P(label) @ y = phase * y[perm].

    Row r of a Pauli matrix has its one nonzero entry in column r ^ f, f = 1
    for X and Y, so P maps row k to column k xor x, x marking the X and Y
    letters (qubit 0 the most significant bit).  ``phase`` is ``kron_all``
    of those entries, i^(n_Y) times a vector of +-1."""
    if not label:
        raise ValueError("a Pauli label needs at least one letter")
    try:
        mats = [PAULIS[ch] for ch in label]
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r} in {label!r}") from None
    flips = [int(ch in "XY") for ch in label]
    phase = kron_all([m[(0, 1), (f, 1 - f)] for m, f in zip(mats, flips)])
    perm = np.arange(phase.size) ^ int("".join(map(str, flips)), 2)
    phase.setflags(write=False)
    perm.setflags(write=False)
    return perm, phase


def pauli_apply(label: str, y: np.ndarray) -> np.ndarray:
    """P(label) @ y for a ket of shape (d,) or a column block of shape (d, m),
    in O(d) work per column and with no d x d matrix: one index permutation
    and one phase vector, cached per label.  Equal to ``dense_pauli(label) @
    y`` exactly, since each row of P has one nonzero entry, a power of i.
    Raises ``ValueError`` for an empty label, a letter other than ``I X Y Z``
    or a ``y`` whose first axis is not 2^len(label) long."""
    perm, phase = _pauli_action(label)
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[0] != phase.size:
        raise ValueError(f"{label!r} acts on {phase.size} rows, not on shape {y.shape}")
    return (phase if y.ndim == 1 else phase[:, None]) * y[perm]


def pauli_product(a: str, b: str) -> tuple:
    """(phase, label) with P(a) P(b) = phase * P(label), letter by letter:
    PP = I, IP = PI = P, and XY = iZ, YX = -iZ and cyclically.  The phase
    is real exactly when the two strings commute.  Raises ``ValueError``
    for strings of unequal length or a letter other than ``I X Y Z``."""
    if len(a) != len(b) or not _PAULI_LETTERS.issuperset(a + b):
        raise ValueError(f"{a!r} and {b!r} are not Pauli strings of one length")
    phase, letters = 1, []
    for x, y in zip(a, b):
        if x == y:
            letters.append("I")
        elif "I" in (x, y):
            letters.append(x if y == "I" else y)
        else:
            letters.append(({"X", "Y", "Z"} - {x, y}).pop())
            phase *= 1j if x + y in ("XY", "YZ", "ZX") else -1j
    return phase, "".join(letters)


#: each qubit code as Pauli letters: S+- = (X +- iY)/2, Pe/Pg = (I +- Z)/2
_QUBIT_PAULIS = {
    "I": ((1, "I"),), "X": ((1, "X"),), "Y": ((1, "Y"),), "Z": ((1, "Z"),),
    "S+": ((0.5, "X"), (0.5j, "Y")), "S-": ((0.5, "X"), (-0.5j, "Y")),
    "Pe": ((0.5, "I"), (0.5, "Z")), "Pg": ((0.5, "I"), (-0.5, "Z")),
}


def pauli_terms(op: OperatorSum) -> list:
    """``[(q_k, label_k), ...]`` with ``op = sum_k q_k * P(label_k)``, read
    from the operator's own terms.

    Each term is expanded factor by factor through ``_QUBIT_PAULIS`` (the
    table's weights are powers of two, so a product of a term's coefficient
    with them is exact), equal labels are summed in term order, |q_k| <=
    1e-12 is dropped, and labels come in sorted order (I < X < Y < Z per
    letter).  No d x d matrix is formed.  Qubit-only spaces only.
    """
    if not op.space.is_qubit_only:
        raise ValueError("pauli_terms requires a qubit-only space")
    merged: dict = {}
    for coeff, factors in op.terms:
        strings = [(coeff, "")]
        for code in factors:
            strings = [(c if w == 1 else c * w, lbl + ch)
                       for c, lbl in strings for w, ch in _QUBIT_PAULIS[code]]
        for c, lbl in strings:
            merged[lbl] = merged[lbl] + c if lbl in merged else c
    return [(merged[lbl], lbl) for lbl in sorted(merged) if abs(merged[lbl]) > 1e-12]
