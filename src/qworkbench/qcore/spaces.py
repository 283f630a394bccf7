"""Composite Hilbert spaces built from qubit and truncated-boson factors.

Factor order is fixed and significant: tensor index 0 is the leftmost
factor, and every dense matrix of the package follows this ordering
(numpy ``kron`` over the factor list, left to right).  Only ``qcore``
turns factors into dense matrices: ``qcore.operators`` builds every
operator from primitive codes (``OperatorSum``, ``on_factors``,
``dense_pauli``, ``kron_all``), including the mode primitive
``"sq" = a^2 + a^dag^2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: Hard cap on the total dense dimension.  Everything in this package is
#: dense linear algebra; beyond this size the memory/cpu cost is no longer
#: desk scale and the request is almost certainly a mistake.
DIMENSION_CAP = 16384

#: Default truncation for bosonic factors when the caller does not choose one.
DEFAULT_N_MAX = 40


class DimensionCapError(ValueError):
    """Total Hilbert-space dimension exceeds :data:`DIMENSION_CAP`."""


class DimensionMismatchError(ValueError):
    """Two objects that must live on the same space do not."""


@dataclass(frozen=True)
class Qubit:
    """Two-level factor.  Index 0 is |e> (excited), index 1 is |g>."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Boson:
    """Bosonic mode truncated at Fock state ``n_max`` (dimension n_max+1)."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"bosonic truncation n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of :class:`Qubit` and :class:`Boson` factors."""

    factors: tuple

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a HilbertSpace needs at least one factor")
        for f in self.factors:
            if not isinstance(f, (Qubit, Boson)):
                raise TypeError(f"unsupported factor {f!r}")
        if self.dim > DIMENSION_CAP:
            raise DimensionCapError(
                f"total dimension {self.dim} exceeds the dense cap {DIMENSION_CAP}"
            )

    @property
    def dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def is_qubit_only(self) -> bool:
        return all(isinstance(f, Qubit) for f in self.factors)

    # -- convenience constructors -------------------------------------------------

    @staticmethod
    def qubits(n: int) -> "HilbertSpace":
        return HilbertSpace(tuple(Qubit() for _ in range(n)))

    @staticmethod
    def single_boson(n_max: int = DEFAULT_N_MAX) -> "HilbertSpace":
        return HilbertSpace((Boson(n_max),))

    @staticmethod
    def qubit_boson(n_max: int = DEFAULT_N_MAX, n_qubits: int = 1) -> "HilbertSpace":
        return HilbertSpace(tuple(Qubit() for _ in range(n_qubits)) + (Boson(n_max),))


def check_same_space(a, b) -> None:
    """Raise :class:`DimensionMismatchError` unless ``a.space == b.space``."""
    if a.space != b.space:
        raise DimensionMismatchError(f"space mismatch: {a.space} vs {b.space}")
