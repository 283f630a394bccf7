"""States, the identity operator, a Pauli recomposition and a dense evolution
that only the tests use.

No scenario, demo or benchmark needs them, so they are not part of
``qworkbench.qcore`` (``test_reachability.py``); the tests import them
from here.  ``dense_carry`` is the oracle of a driven ``qc.Schedule``: the
Hamiltonian assembled densely by the test, stepped by ``qc.integrate``.
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


def pauli_recompose(terms, n: int) -> np.ndarray:
    """Dense matrix from ``[(q_k, label_k), ...]`` (inverse of ``qc.pauli_decompose``)."""
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
