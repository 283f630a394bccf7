"""Pure states and density matrices on composite spaces.

Norms and traces are monitored rather than silently renormalized: states
carry a ``norm_error`` / ``trace_error`` the caller can inspect, and
construction only rejects gross violations that indicate a bug.
"""
from __future__ import annotations

import math

import numpy as np

from .spaces import HilbertSpace

#: Constructor rejection threshold for gross norm/trace violations.
#: Well-formed inputs sit at ~1e-9 and the default-tolerance integrator
#: drifts at most ~1e-8 over long scenarios, but callers may legitimately
#: integrate at loosened tolerance; only outright bugs are rejected here,
#: everything else stays visible through norm_error / trace_error.
_GROSS = 1e-4

EXCITED = 0   # computational |0> is |e>
GROUND = 1    # computational |1> is |g>


class PureState:
    __slots__ = ("space", "amplitudes")

    def __init__(self, space: HilbertSpace, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.size != space.dim:
            raise ValueError(f"amplitude vector of length {amplitudes.size} "
                             f"on a space of dimension {space.dim}")
        self.space = space
        self.amplitudes = amplitudes
        if self.norm_error > _GROSS:
            raise ValueError(f"state norm {np.linalg.norm(amplitudes):.6f} is not close to 1")

    @property
    def norm_error(self) -> float:
        return abs(float(np.linalg.norm(self.amplitudes)) - 1.0)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def tensor(self, other: "PureState") -> "PureState":
        space = HilbertSpace(self.space.factors + other.space.factors)
        return PureState(space, np.kron(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"PureState(dim={self.space.dim})"


class DensityMatrix:
    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix, check_trace: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(f"matrix of shape {matrix.shape} on a space of dimension {space.dim}")
        herm_defect = float(np.max(np.abs(matrix - matrix.conj().T)))
        if herm_defect > 1e-10:
            raise ValueError(f"density matrix has Hermiticity defect {herm_defect:.3e}")
        self.space = space
        self.matrix = matrix
        if check_trace and self.trace_error > _GROSS:
            raise ValueError(f"density matrix trace {np.trace(matrix).real:.6f} is not close to 1")

    @property
    def trace_error(self) -> float:
        return abs(complex(np.trace(self.matrix)) - 1.0)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        space = HilbertSpace(self.space.factors + other.space.factors)
        return DensityMatrix(space, np.kron(self.matrix, other.matrix),
                             check_trace=False)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.space.dim})"


# ---------------------------------------------------------------------------
# constructors the runs use (tests/qcore_helpers.py holds those only tests build)
# ---------------------------------------------------------------------------

def basis_state(space: HilbertSpace, occupations) -> PureState:
    """Product basis state given one level index per factor.

    For qubits use 0 (= |e>) or 1 (= |g>); for bosons the Fock number.
    """
    occupations = tuple(occupations)
    if len(occupations) != space.n_factors:
        raise ValueError("one occupation index per factor required")
    index = 0
    for occ, f in zip(occupations, space.factors):
        if not (0 <= occ < f.dim):
            raise ValueError(f"occupation {occ} out of range for factor {f}")
        index = index * f.dim + occ
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(space, amps)


def qubit_register_state(bits) -> PureState:
    """Computational-basis state of a qubit register from a bit sequence."""
    space = HilbertSpace.qubits(len(tuple(bits)))
    return basis_state(space, bits)


def plus_state() -> PureState:
    space = HilbertSpace.qubits(1)
    return PureState(space, np.array([1.0, 1.0]) / math.sqrt(2.0))


def all_plus_state(n: int) -> PureState:
    space = HilbertSpace.qubits(n)
    return PureState(space, np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex))


def random_pure_state(space: HilbertSpace, rng: np.random.Generator) -> PureState:
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return PureState(space, amps / np.linalg.norm(amps))
