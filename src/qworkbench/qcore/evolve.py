"""Exact time evolution: matrix exponentials and adaptive integration.

Constant generators are propagated with ``scipy.linalg.expm`` (scaling and
squaring).  Time-dependent generators are integrated with an embedded 4(5)
adaptive Runge-Kutta pair (scipy's RK45) at a caller-chosen local tolerance,
default 1e-10: the perturbative error bounds checked elsewhere in the
package are meaningless if this oracle layer is loose.

A time-dependent schedule acts through one right-hand side per state kind:
each piece exposes ``apply(t, y) = H(t) @ y`` for a vector or a column
block.  Pieces come in two forms.  A builder ``t -> dense H(t)`` acts as
``builder(t) @ y``.  The term form ``H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag``
(scalar coefficients over fixed matrices, with an optional diagonal frame
``F(t) = exp(i t diag(frame))``) acts as one product of the stacked ``H_k``
with ``F(t)^dag y`` and one contraction with the coefficient vector, so no
Hamiltonian is rebuilt at a Runge-Kutta stage and nothing is shared
between evaluations.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .operators import OperatorSum
from .spaces import DimensionMismatchError, HilbertSpace
from .states import DensityMatrix, PureState

DEFAULT_TOL = 1e-10


class ToleranceError(RuntimeError):
    """The adaptive integrator failed to meet the requested tolerance."""


class SchedulePiece:
    """One time interval of a schedule and its action ``apply(t, y) = H(t) @ y``.

    ``y`` is a state vector or a column block (shape ``(d,)`` or ``(d, m)``);
    the result has the same shape and is a new array.
    """

    __slots__ = ("t_start", "t_end", "apply")

    def __init__(self, t_start: float, t_end: float,
                 apply: Callable[[float, np.ndarray], np.ndarray]):
        if not t_end > t_start:
            raise ValueError("schedule piece must have t_end > t_start")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.apply = apply


def _term_action(d: int, terms, frame) -> Callable[[float, np.ndarray], np.ndarray]:
    """``apply`` for H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag, F = exp(i t diag(frame))."""
    coeffs = tuple(f for f, _ in terms)
    # rows k*d .. (k+1)*d - 1 hold H_k: one product serves every term
    stack = np.concatenate([m for _, m in terms], axis=0)
    n_terms = len(coeffs)
    i_frame = None if frame is None else 1j * frame

    def apply(t: float, y: np.ndarray) -> np.ndarray:
        c = np.array([f(t) for f in coeffs], dtype=complex)
        if i_frame is None:
            return (c @ (stack @ y).reshape(n_terms, -1)).reshape(y.shape)
        phase = np.exp(t * i_frame).reshape((d,) + (1,) * (y.ndim - 1))
        y = phase.conj() * y
        return phase * (c @ (stack @ y).reshape(n_terms, -1)).reshape(y.shape)

    return apply


class Schedule:
    """Hamiltonian over time: a constant operator or contiguous pieces.

    Each piece acts through ``apply(t, y) = H(t) @ y``.  Two forms build
    pieces:

    * ``Schedule.time_dependent(space, builder)`` wraps a callable
      ``t -> dense H(t)``; its action is ``builder(t) @ y``.
    * ``Schedule.from_terms(space, terms, frame)`` stands for
      ``H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag`` with scalar coefficient
      functions ``f_k`` over fixed matrices ``H_k`` (QuTiP's list format)
      and an optional diagonal frame ``F(t) = exp(i t diag(frame))``.  Its
      action is one stacked product of the fixed matrices with
      ``F(t)^dag y`` contracted with the coefficient vector, so no matrix
      is rebuilt per evaluation.

    Pieces must be contiguous and non-overlapping; the last piece is
    extended to any later time the caller asks for.  On a time-dependent
    schedule ``matrix_at`` returns a new array on every call.
    """

    def __init__(self, space: HilbertSpace, constant: OperatorSum | np.ndarray | None = None,
                 pieces: Sequence[SchedulePiece] | None = None):
        if (constant is None) == (pieces is None):
            raise ValueError("give either a constant operator or a list of pieces")
        self.space = space
        if constant is not None:
            # any object exposing .matrix() (OperatorSum or a dense wrapper) works
            mat = constant.matrix() if hasattr(constant, "matrix") else \
                np.asarray(constant, dtype=complex)
            if mat.shape != (space.dim, space.dim):
                raise DimensionMismatchError("constant Hamiltonian does not match the space")
            self.constant_matrix = mat
            self.pieces = None
        else:
            pieces = list(pieces)
            for prev, nxt in zip(pieces, pieces[1:]):
                if abs(prev.t_end - nxt.t_start) > 1e-15:
                    raise ValueError("schedule pieces must be contiguous and non-overlapping")
            self.constant_matrix = None
            self.pieces = pieces

    @staticmethod
    def constant(op, space: HilbertSpace | None = None) -> "Schedule":
        if space is None:
            space = getattr(op, "space", None)
            if space is None:
                raise ValueError("space required when passing a raw matrix")
        return Schedule(space, constant=op)

    @staticmethod
    def time_dependent(space: HilbertSpace, builder: Callable[[float], np.ndarray],
                       t_start: float = 0.0, t_end: float = np.inf) -> "Schedule":
        return Schedule(space, pieces=[
            SchedulePiece(t_start, t_end, lambda t, y: builder(t) @ y)])

    @staticmethod
    def from_terms(space: HilbertSpace, terms: Sequence[tuple], frame=None) -> "Schedule":
        """H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag from ``(f_k, H_k)`` pairs.

        Each ``f_k`` maps a time to a (complex) scalar; each ``H_k`` is a
        fixed ``d x d`` matrix, of which the schedule keeps its own copy.
        The sum must be Hermitian at every time, though single terms need
        not be.  ``frame`` is a real length-``d`` vector:
        ``F(t) = exp(i t diag(frame))``.
        """
        d = space.dim
        terms = [(f, np.asarray(m, dtype=complex)) for f, m in terms]
        if not terms:
            raise ValueError("give at least one term")
        if any(m.shape != (d, d) for _, m in terms):
            raise DimensionMismatchError("term matrix does not match the space")
        if frame is not None:
            if np.iscomplexobj(frame):
                raise ValueError("frame must be real")
            frame = np.array(frame, dtype=float)
            if frame.shape != (d,):
                raise DimensionMismatchError("frame does not match the space")
        return Schedule(space, pieces=[
            SchedulePiece(0.0, np.inf, _term_action(d, terms, frame))])

    @property
    def is_constant(self) -> bool:
        return self.constant_matrix is not None

    def matrix_at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.constant_matrix
        for piece in self.pieces:
            if piece.t_start <= t <= piece.t_end:
                break
        else:  # extend the last piece beyond its nominal end
            piece = self.pieces[-1]
        return piece.apply(t, np.eye(self.space.dim, dtype=complex))

    def _segments(self, t0: float, t1: float):
        """Yield (a, b, apply) sub-intervals covering [t0, t1] of a
        time-dependent schedule."""
        t = t0
        for piece in self.pieces:
            if piece.t_end <= t or piece.t_start >= t1:
                continue
            a, b = max(t, piece.t_start), min(t1, piece.t_end)
            if b > a:
                yield a, b, piece.apply
                t = b
        if t < t1:  # beyond the last piece
            yield t, t1, self.pieces[-1].apply


def _integrate(rhs, y0: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """Final state of ``y' = rhs(t, y)`` from ``y0`` at ``t0`` to ``t1``."""
    sol = solve_ivp(rhs, (t0, t1), y0, method="RK45", rtol=tol,
                    atol=tol * 1e-2, dense_output=False)
    if not sol.success:
        raise ToleranceError(f"adaptive integration failed: {sol.message}")
    return sol.y[:, -1]


def evolve(state: PureState | DensityMatrix, h: Schedule, t0: float, t1: float,
           tol: float = DEFAULT_TOL):
    """Propagate ``state`` under ``h`` from ``t0`` to ``t1``.

    Returns the same kind of state.  Norm/trace drift is monitored through
    the returned object's ``norm_error`` / ``trace_error``.  A density
    matrix is integrated as ``-i (H rho - rho H)`` with ``rho H`` taken as
    ``(H rho^dag)^dag``, so both products are one action on a column block.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if state.space != h.space:
        raise DimensionMismatchError("state and schedule live on different spaces")
    if t1 == t0:
        return state

    if isinstance(state, PureState):
        psi = state.amplitudes
        if h.is_constant:
            psi = expm(-1j * h.constant_matrix * (t1 - t0)) @ psi
        else:
            for a, b, apply in h._segments(t0, t1):
                psi = _integrate(lambda t, y: -1j * apply(t, y), psi, a, b, tol)
        return PureState(state.space, psi)

    rho = state.matrix
    if h.is_constant:
        u = expm(-1j * h.constant_matrix * (t1 - t0))
        rho = u @ rho @ u.conj().T
    else:
        d = state.space.dim

        def make_rhs(apply):
            def rhs(t, y):
                m = y.reshape(d, d)
                both = apply(t, np.concatenate([m, m.conj().T], axis=1))
                return (-1j * (both[:, :d] - both[:, d:].conj().T)).reshape(-1)
            return rhs

        y = rho.reshape(-1)
        for a, b, apply in h._segments(t0, t1):
            y = _integrate(make_rhs(apply), y, a, b, tol)
        rho = y.reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)  # remove integrator's Hermiticity dust
    return DensityMatrix(state.space, rho)


def evolve_trace(state: PureState, h: Schedule, times: Sequence[float],
                 tol: float = DEFAULT_TOL) -> list:
    """States at each checkpoint of a nondecreasing ``times`` grid (pure only)."""
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nondecreasing")
    out = []
    current = state
    t_prev = times[0]
    current = evolve(state, h, 0.0, t_prev, tol) if t_prev > 0 else state
    out.append(current)
    for t in times[1:]:
        current = evolve(current, h, t_prev, t, tol)
        out.append(current)
        t_prev = t
    return out


def propagator(h: Schedule, t0: float, t1: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense unitary U(t1; t0) of the schedule.

    Constant schedules get a single matrix exponential; time-dependent ones
    integrate the full matrix column block through the adaptive stepper.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    d = h.space.dim
    if t1 == t0:
        return np.eye(d, dtype=complex)
    if h.is_constant:
        return expm(-1j * h.constant_matrix * (t1 - t0))
    u = np.eye(d, dtype=complex)
    for a, b, apply in h._segments(t0, t1):
        def rhs(t, y):
            return -1j * apply(t, y.reshape(d, d)).reshape(-1)
        u = _integrate(rhs, u.reshape(-1), a, b, tol).reshape(d, d)
    return u
