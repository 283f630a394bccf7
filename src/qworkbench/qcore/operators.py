"""Operators as weighted sums of tensor-product primitives, plus dense Pauli helpers.

Every dense operator of the package is built here: ``OperatorSum`` turns
primitive codes into matrices in the factor order of ``qcore.spaces``,
``on_factors`` places codes on chosen factors with ``"I"`` on the rest,
and ``dense_pauli`` and ``kron_all`` cover Pauli labels and explicit
factor lists.  No module outside ``qcore`` pads with identities by hand.

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

_QUBIT_DAGGER = {
    "I": "I", "X": "X", "Y": "Y", "Z": "Z",
    "S+": "S-", "S-": "S+", "Pe": "Pe", "Pg": "Pg",
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
    a = boson_annihilation(dim)
    if code == "a":
        return a
    if code == "adag":
        return a.conj().T
    if code == "x":
        return a + a.conj().T
    if code == "p":
        return 1j * (a.conj().T - a)
    a2 = a @ a
    return a2 + a2.conj().T  # "sq"


_BOSON_DAGGER = {"I": "I", "a": "adag", "adag": "a", "n": "n", "x": "x", "p": "p", "sq": "sq"}


def _boson_dagger(code):
    if isinstance(code, tuple):
        return ("disp", -float(code[1]))
    return _BOSON_DAGGER[code]


def _check_code(factor, code) -> None:
    """Raise ``ValueError`` unless ``code`` names a primitive of ``factor``."""
    if isinstance(factor, Qubit):
        if not (isinstance(code, str) and code in _QUBIT_MATS):
            raise ValueError(f"unknown qubit primitive {code!r}")
    elif isinstance(code, tuple):
        if len(code) != 2 or code[0] != "disp" or not isinstance(code[1], numbers.Real):
            raise ValueError(f"unknown bosonic primitive {code!r}")
    elif not (isinstance(code, str) and code in _BOSON_DAGGER):
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
    """
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
    lazily and cached.  Products of operators are done at the dense level
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
    def identity(space: HilbertSpace) -> "OperatorSum":
        return OperatorSum(space, [(1.0, ("I",) * space.n_factors)], hermitian=True)

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

    def dagger(self) -> "OperatorSum":
        out = []
        for coeff, factors in self.terms:
            new_factors = tuple(
                _QUBIT_DAGGER[code] if isinstance(f, Qubit) else _boson_dagger(code)
                for f, code in zip(self.space.factors, factors)
            )
            out.append((np.conj(coeff), new_factors))
        return OperatorSum(self.space, out, hermitian=self.hermitian)

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
            self._matrix = acc
        return self._matrix

    def norm_inf(self) -> float:
        """Spectral norm (largest singular value) of the dense matrix."""
        return float(np.linalg.norm(self.matrix(), ord=2))

    def __repr__(self) -> str:
        return f"OperatorSum({len(self.terms)} terms on dims {self.space.dims})"


# ---------------------------------------------------------------------------
# dense Pauli-string helpers (used by decompositions and oracles)
# ---------------------------------------------------------------------------

def dense_pauli(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string label such as ``"XIY"``."""
    try:
        mats = [PAULIS[ch] for ch in label]
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r} in {label!r}") from None
    return kron_all(mats)


def all_pauli_labels(n: int) -> list:
    labels = [""]
    for _ in range(n):
        labels = [s + ch for s in labels for ch in PAULI_LABELS]
    return labels
