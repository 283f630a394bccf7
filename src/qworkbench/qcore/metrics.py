"""Expectation values, state metrics, partial trace."""
from __future__ import annotations

import numpy as np

from .operators import OperatorSum
from .spaces import DimensionMismatchError, HilbertSpace, check_same_space
from .states import DensityMatrix, PureState


def expectation(state: PureState | DensityMatrix, op: OperatorSum | np.ndarray) -> complex:
    """<psi|O|psi> or Tr(O rho).

    When ``op`` is an OperatorSum flagged Hermitian the imaginary part must
    be numerical dust (< 1e-10) and is returned as exactly zero.
    """
    if isinstance(op, OperatorSum):
        if op.space != state.space:
            raise DimensionMismatchError("state and operator live on different spaces")
        mat = op.matrix()
        hermitian = bool(op.hermitian)
    else:
        mat = np.asarray(op, dtype=complex)
        if mat.shape != (state.space.dim,) * 2:
            raise DimensionMismatchError("operator matrix does not match the state's space")
        hermitian = False

    if isinstance(state, PureState):
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
