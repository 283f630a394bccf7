"""Expectation values, state metrics, partial trace."""
from __future__ import annotations

import numpy as np

from .operators import OperatorSum, _pauli_action, pauli_apply
from .spaces import DimensionMismatchError, HilbertSpace, check_same_space
from .states import DensityMatrix, PureState


def expectation(state: PureState | DensityMatrix,
                op: OperatorSum | np.ndarray | str) -> complex:
    """<psi|O|psi> or Tr(O rho).

    ``op`` may be a Pauli label such as ``"ZIY"``; the state must then be a
    register of ``len(op)`` qubits, or ``DimensionMismatchError`` is raised
    (a qubit (x) mode space of the same dimension is not a register).  A
    label is read with no d x d matrix: on a ket as ``vdot(psi,
    pauli_apply(op, psi))``, on a density matrix as the O(d) gather Tr(P rho)
    = sum_r phase_r rho[perm_r, r] over P's one entry per row.

    When ``op`` is a label or an OperatorSum flagged Hermitian the imaginary
    part must be numerical dust (< 1e-10) and is returned as exactly zero.
    """
    if isinstance(op, str):
        if not state.space.is_qubit_only or state.space.n_factors != len(op):
            raise DimensionMismatchError(
                f"the Pauli label {op!r} needs a register of {len(op)} qubits")
        hermitian = True
    elif isinstance(op, OperatorSum):
        if op.space != state.space:
            raise DimensionMismatchError("state and operator live on different spaces")
        mat = op.matrix()
        hermitian = bool(op.hermitian)
    else:
        mat = np.asarray(op, dtype=complex)
        if mat.shape != (state.space.dim,) * 2:
            raise DimensionMismatchError("operator matrix does not match the state's space")
        hermitian = False

    if isinstance(op, str) and isinstance(state, PureState):
        value = complex(np.vdot(state.amplitudes, pauli_apply(op, state.amplitudes)))
    elif isinstance(op, str):
        perm, phase = _pauli_action(op)  # P[r, perm[r]] = phase[r]: d work
        value = complex((phase * state.matrix[perm, np.arange(perm.size)]).sum())
    elif isinstance(state, PureState):
        value = complex(np.vdot(state.amplitudes, mat @ state.amplitudes))
    else:
        value = complex((mat * state.matrix.T).sum())  # sum_ij O_ij rho_ji: d^2 work

    if hermitian:
        if abs(value.imag) >= 1e-10:
            raise ValueError(
                f"Hermitian-flagged expectation has imaginary part {value.imag:.3e}"
            )
        return complex(value.real, 0.0)
    return value


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2."""
    check_same_space(a, b)
    return float(abs(a.overlap(b)) ** 2)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """D1 = ||rho1 - rho2||_1 / 2 via singular values."""
    check_same_space(rho1, rho2)
    return float(0.5 * np.sum(np.linalg.svd(rho1.matrix - rho2.matrix, compute_uv=False)))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the ``keep`` subsystem indices (order preserved)."""
    keep = sorted(set(keep))
    dims = rho.space.dims
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range")
    tensor = rho.matrix.reshape(dims + dims)
    # contract every traced-out subsystem: row index i matches column index n+i
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        # after each trace two axes disappear; recompute current positions
        offset = i - count
        current_n = n - count
        tensor = np.trace(tensor, axis1=offset, axis2=offset + current_n)
    kept_factors = tuple(rho.space.factors[i] for i in keep)
    new_space = HilbertSpace(kept_factors)
    d = new_space.dim
    return DensityMatrix(new_space, tensor.reshape(d, d), check_trace=False)


def operator_infinity_norm(mat: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(mat, ord=2))
