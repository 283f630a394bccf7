"""States, the identity operator, the dense Pauli decomposition and
recomposition and a dense evolution that only the tests use.

No scenario, demo or benchmark needs them, so they are not part of
``qworkbench.qcore`` (``test_reachability.py``); the tests import them
from here.  ``pauli_decompose`` projects a dense matrix onto all 4^n
Pauli strings: it is the oracle of ``qc.pauli_terms``, which reads the
same sum from an operator's own terms.  ``dense_carry`` is the oracle of
a driven ``qc.Schedule``: the Hamiltonian assembled densely by the test,
stepped by ``qc.integrate``.
"""
import math

import numpy as np

from qworkbench import qcore as qc


def bell_state() -> qc.PureState:
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return qc.PureState(qc.HilbertSpace.qubits(2), amps)


def ghz_state(n: int = 3) -> qc.PureState:
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return qc.PureState(qc.HilbertSpace.qubits(n), amps)


def coherent_state(n_max: int, alpha: complex) -> qc.PureState:
    """Coherent state on a single truncated mode (renormalized in truncation)."""
    if abs(alpha) ** 2 > 0.5 * n_max:
        raise ValueError(f"|alpha|^2 = {abs(alpha)**2:.2f} too large for n_max = {n_max}")
    if alpha == 0:
        amps = np.concatenate(([1.0], np.zeros(n_max))).astype(complex)
    else:
        n = np.arange(n_max + 1)
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_max + 1)))))
        amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact)
    amps = np.asarray(amps, dtype=complex)
    amps /= np.linalg.norm(amps)
    return qc.PureState(qc.HilbertSpace((qc.Boson(n_max),)), amps)


def random_product_state(n_qubits: int, rng: np.random.Generator) -> qc.PureState:
    amps = np.array([1.0], dtype=complex)
    for _ in range(n_qubits):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, q / np.linalg.norm(q))
    return qc.PureState(qc.HilbertSpace.qubits(n_qubits), amps)


def identity_operator(space: qc.HilbertSpace) -> qc.OperatorSum:
    """The identity as a one-term Hermitian ``OperatorSum`` on ``space``."""
    return qc.OperatorSum(space, [(1.0, ("I",) * space.n_factors)], hermitian=True)


def maximally_mixed(space: qc.HilbertSpace) -> qc.DensityMatrix:
    d = space.dim
    return qc.DensityMatrix(space, np.eye(d, dtype=complex) / d)


def thermal_qubit(p_ground: float) -> qc.DensityMatrix:
    """Diagonal qubit state with ground-level population ``p_ground``."""
    return qc.DensityMatrix(qc.HilbertSpace.qubits(1),
                            np.diag([1.0 - p_ground, p_ground]).astype(complex))


def all_pauli_labels(n: int) -> list:
    """The 4^n Pauli labels on n qubits, in sorted order (I < X < Y < Z)."""
    labels = [""]
    for _ in range(n):
        labels = [s + ch for s in labels for ch in "IXYZ"]
    return labels


_PAULI_BASIS_CACHE: dict = {}


def _pauli_basis(n: int):
    """Stacked conjugated Pauli strings as a (4^n, d^2) matrix (cached, n <= 6)."""
    if n not in _PAULI_BASIS_CACHE:
        labels = all_pauli_labels(n)
        stack = np.stack([qc.dense_pauli(lbl).conj().reshape(-1) for lbl in labels])
        stack.setflags(write=False)
        _PAULI_BASIS_CACHE[n] = (labels, stack)
    return _PAULI_BASIS_CACHE[n]


def pauli_decompose(op, space: qc.HilbertSpace | None = None) -> list:
    """Expansion coefficients over orthogonal Pauli strings, by projection.

    ``op`` is an ``OperatorSum`` or a raw matrix on ``space``.  Returns
    ``[(q_k, label_k), ...]`` with |q_k| > 1e-12 only, such that
    ``op = sum_k q_k * P(label_k)``.  Qubit-only spaces of at most 6
    qubits (the 4^n x d^2 basis).
    """
    if isinstance(op, qc.OperatorSum):
        space = op.space
        mat = op.matrix()
    else:
        if space is None:
            raise ValueError("space required when passing a raw matrix")
        mat = np.asarray(op, dtype=complex)
    if not space.is_qubit_only:
        raise ValueError("pauli_decompose requires a qubit-only space")
    n = space.n_factors
    if n > 6:
        raise ValueError("Pauli decomposition capped at 6 qubits (4^n strings)")
    labels, stack = _pauli_basis(n)
    coeffs = (stack @ mat.reshape(-1)) / (2 ** n)
    return [(complex(q), lbl) for q, lbl in zip(coeffs, labels) if abs(q) > 1e-12]


def pauli_recompose(terms, n: int) -> np.ndarray:
    """Dense matrix from ``[(q_k, label_k), ...]`` (inverse of ``pauli_decompose``)."""
    acc = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for q, lbl in terms:
        acc += q * qc.dense_pauli(lbl)
    return acc


def dense_carry(builder, y, t0: float, t1: float, tol: float = qc.DEFAULT_TOL) -> np.ndarray:
    """U(t1, t0) @ y for a ket or a column block ``y`` under the dense
    H(t) = ``builder(t)``, by ``qc.integrate`` on ``y' = -i H(t) y``."""
    y = np.asarray(y, dtype=complex)
    shape = y.shape
    return qc.integrate(lambda t, v: (-1j * (builder(t) @ v.reshape(shape))).reshape(-1),
                        y.reshape(-1), t0, t1, tol).reshape(shape)
