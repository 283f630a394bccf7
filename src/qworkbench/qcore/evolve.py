"""Exact time evolution: eigenbasis propagators, exact frames and adaptive integration.

A constant Hamiltonian is diagonalized once: one ``eigh``, cached on the
schedule, gives U(t) at every time, and ``propagator_stack`` gives a whole
stack of them in one ``einsum``.  Time-dependent generators are
integrated by ``integrate``, an
adaptive embedded 4(5) Runge-Kutta stepper written here: the Dormand-Prince
5(4) pair (RK45) under the step control of Hairer, Norsett & Wanner, at a
caller-chosen local tolerance, default 1e-10.  The perturbative error
bounds checked elsewhere in the package are meaningless if this oracle
layer is loose.  ``integrate`` is the one place that runs the stepper; the
master-equation integrators of other modules call it too.  It keeps no step
history and returns the stepped state at the end of the window.  This
module imports nothing but numpy.

A time-dependent schedule is one lab-frame action ``apply(t, y) = H(t) @ y``
for a vector or a column block, valid at every time.  Two forms build it.
A builder ``t -> dense H(t)`` acts as ``builder(t) @ y``.  The term form
``H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag`` (scalar coefficients over
fixed matrices, with an optional diagonal frame
``F(t) = exp(i t diag(frame))``) acts as one product of the stacked ``H_k``
with ``F(t)^dag y`` and one contraction with the coefficient vector, so no
Hamiltonian is rebuilt at a Runge-Kutta stage and nothing is shared
between evaluations.

In the frame of ``F`` a term-form Hamiltonian reads
``K(t) = diag(frame) + sum_k f_k(t) H_k``, and
``U(t1, t0) = F(t1) U_K(t1, t0) F(t0)^dag``.  A ket or a column block is
carried by one of three routes:

* static: the schedule is constant (K = H, no frame), or every coefficient
  of a term form is a number, so K is constant.  One ``eigh`` of K, cached
  on the schedule, gives U_K at every time.
* periodic: the term form declares the common period T of its
  coefficients, so ``K(t + T) = K(t)`` and a window splits into whole
  periods and at most one partial period at each end.  ``U_K(T, 0)`` is
  integrated once per tolerance and cached on the schedule; whole periods
  are its powers (Floquet stroboscopy: Shirley, Phys. Rev. 138 (1965)
  B979), and the partial periods are integrated on times shifted into
  ``[0, T]``.
* RK45 over the whole window: every other schedule.

RK45 always steps the lab-frame action, also on the partial periods and
for ``U_K(T, 0)``.  There a drive's fast phases sit in small off-resonant
terms, while in the frame of K they are large diagonal phases that the
stepper has to resolve: on the ion drive that costs about twenty times the
steps per period.

A density matrix is never integrated itself: ``evolve`` conjugates it by
the propagator, ``rho -> U rho U^dag``, for every kind of schedule.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .operators import OperatorSum
from .spaces import DimensionMismatchError, HilbertSpace
from .states import DensityMatrix, PureState

DEFAULT_TOL = 1e-10

# fractions of the period at which from_terms checks f(t + T) = f(t)
_PERIOD_PROBES = (0.0, 0.1377, 0.5, 0.7813)
_PERIOD_RTOL = 1e-9


# the Dormand-Prince 5(4) pair, J. Comput. Appl. Math. 6 (1980) 19: stage
# times, stage coefficients, fifth-order weights and the difference of the
# fifth- and fourth-order weights over the seven stages (the seventh, FSAL,
# is f at the new point)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


class ToleranceError(RuntimeError):
    """The adaptive integrator failed to meet the requested tolerance."""


def _term_action(d: int, terms, frame) -> Callable[[float, np.ndarray], np.ndarray]:
    """``apply`` for H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag, F = exp(i t diag(frame))."""
    coeffs = tuple(f if callable(f) else (lambda t, c=f: c) for f, _ in terms)
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


def _is_hermitian(k: np.ndarray) -> bool:
    """k = k^dag to 1e-12 of its largest element (or absolutely, below 1)."""
    return np.max(np.abs(k - k.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(k)))


def _is_periodic(f: Callable[[float], complex], period: float) -> bool:
    """f(t + T) = f(t) at the probe times, to ``_PERIOD_RTOL`` of the largest value."""
    pairs = [(complex(f(x * period)), complex(f(x * period + period)))
             for x in _PERIOD_PROBES]
    scale = max(max(abs(a), abs(b)) for a, b in pairs)
    return all(abs(b - a) <= _PERIOD_RTOL * scale for a, b in pairs)


class _ExactFrame:
    """What the static and periodic routes need of a schedule.

    ``frame`` is the diagonal of the frame generator and ``apply`` the
    lab-frame action; both are None for a constant schedule, whose K is
    its Hamiltonian.  ``static`` is the constant ``K = diag(frame) +
    sum_k c_k H_k`` when every coefficient is a number (else None);
    ``period`` is the common period T of the coefficients otherwise.  The
    ``eigh`` of a static K, and ``U_K(T, 0)`` per tolerance, are computed
    on first use and kept here.
    """

    __slots__ = ("frame", "apply", "static", "period", "_eig", "_one_period")

    def __init__(self, frame: np.ndarray | None, apply, static: np.ndarray | None,
                 period: float | None):
        self.frame = frame
        self.apply = apply
        self.static = static
        self.period = period
        self._eig = None
        self._one_period: dict = {}

    def phase(self, t: float) -> np.ndarray:
        """Diagonal of F(t) = exp(i t diag(frame))."""
        return np.exp(1j * t * self.frame)

    def eig(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.static)
        return self._eig

    def unitary(self, dt: float) -> np.ndarray:
        """U_K(dt) = V diag(exp(-i w dt)) V^dag of a static K."""
        w, v = self.eig()
        return (v * np.exp(-1j * dt * w)) @ v.conj().T

    def one_period(self, tol: float) -> np.ndarray:
        """U_K(T, 0) = F(T)^dag U(T, 0), integrated once per tolerance."""
        w = self._one_period.get(tol)
        if w is None:
            u = _integrate_ket(self.apply, np.eye(self.frame.size, dtype=complex),
                               0.0, self.period, tol)
            w = self._one_period[tol] = self.phase(-self.period)[:, None] * u
        return w


class Schedule:
    """Hamiltonian over time: a constant operator or one lab-frame action.

    A time-dependent schedule acts through ``apply(t, y) = H(t) @ y`` on a
    vector or a column block, at every time; ``evolve`` carries kets with
    it and conjugates a density matrix by the propagator.  Two forms build
    it:

    * ``Schedule.constant(op, space)`` holds one Hermitian matrix; its
      ``exact_frame`` has no frame, and the cached ``eigh`` of the matrix
      gives the propagator at every time.
    * ``Schedule.time_dependent(space, builder)`` wraps a callable
      ``t -> dense H(t)``; its action is ``builder(t) @ y``.
    * ``Schedule.from_terms(space, terms, frame, period)`` stands for
      ``H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag`` with scalar coefficients
      ``f_k`` over fixed matrices ``H_k`` (QuTiP's list format) and an
      optional diagonal frame ``F(t) = exp(i t diag(frame))``.  Its action
      is one stacked product of the fixed matrices with ``F(t)^dag y``
      contracted with the coefficient vector, so no matrix is rebuilt per
      evaluation.  In the frame the Hamiltonian is
      ``K(t) = diag(frame) + sum_k f_k(t) H_k``; if every coefficient is a
      number K is static, and with a ``period`` it is periodic.  Either
      way ``exact_frame`` holds what the exact routes of ``evolve`` and
      ``propagator`` need, and their cached ``eigh`` or one-period
      propagator; it is None for every other time-dependent schedule.

    ``matrix_at`` returns the stored matrix of a constant schedule and, on
    a time-dependent one, the lab-frame H(t) as a new array on every call.
    """

    def __init__(self, space: HilbertSpace, constant: OperatorSum | np.ndarray | None = None,
                 apply: Callable[[float, np.ndarray], np.ndarray] | None = None):
        if (constant is None) == (apply is None):
            raise ValueError("give either a constant operator or an action")
        self.space = space
        self.exact_frame: _ExactFrame | None = None
        self.apply = apply
        self.constant_matrix = None
        if constant is not None:
            mat = constant.matrix() if isinstance(constant, OperatorSum) else \
                np.asarray(constant, dtype=complex)
            if mat.shape != (space.dim, space.dim):
                raise DimensionMismatchError("constant Hamiltonian does not match the space")
            if not _is_hermitian(mat):
                raise ValueError("a constant Hamiltonian must be Hermitian")
            self.constant_matrix = mat
            self.exact_frame = _ExactFrame(None, None, mat, None)

    @staticmethod
    def constant(op, space: HilbertSpace | None = None) -> "Schedule":
        if space is None:
            if not isinstance(op, OperatorSum):
                raise ValueError("space required when passing a raw matrix")
            space = op.space
        return Schedule(space, constant=op)

    @staticmethod
    def time_dependent(space: HilbertSpace,
                       builder: Callable[[float], np.ndarray]) -> "Schedule":
        """H(t) = ``builder(t)``, a dense matrix, at every time."""
        return Schedule(space, apply=lambda t, y: builder(t) @ y)

    @staticmethod
    def from_terms(space: HilbertSpace, terms: Sequence[tuple], frame=None,
                   period: float | None = None) -> "Schedule":
        """H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag from ``(f_k, H_k)`` pairs.

        Each ``f_k`` is a number (a constant coefficient) or maps a time to
        a (complex) scalar; each ``H_k`` is a fixed ``d x d`` matrix, of
        which the schedule keeps its own copy.  The sum must be Hermitian
        at every time, though single terms need not be.  ``frame`` is a
        real length-``d`` vector: ``F(t) = exp(i t diag(frame))``.
        ``period`` is the common period T of the coefficients, so that
        ``K(t) = diag(frame) + sum_k f_k(t) H_k`` is T-periodic; it is
        checked as ``f_k(t + T) = f_k(t)`` at a few times, to 1e-9 of the
        coefficient's scale.  Neither constancy nor the period is an
        option: both describe the Hamiltonian, and they select the static
        or the periodic route of ``evolve`` and ``propagator``.
        """
        d = space.dim
        terms = [(f if callable(f) else complex(f), np.asarray(m, dtype=complex))
                 for f, m in terms]
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
        if period is not None:
            period = float(period)
            if not (math.isfinite(period) and period > 0.0):
                raise ValueError("period must be finite and positive")
            if not all(_is_periodic(f, period) for f, _ in terms if callable(f)):
                raise ValueError("a coefficient does not repeat with the given period")
        apply = _term_action(d, terms, frame)
        sched = Schedule(space, apply=apply)
        diag = np.zeros(d) if frame is None else frame
        if not any(callable(f) for f, _ in terms):
            k = np.diag(diag).astype(complex) + sum(c * m for c, m in terms)
            if not _is_hermitian(k):
                raise ValueError("constant terms must sum to a Hermitian matrix")
            sched.exact_frame = _ExactFrame(diag, apply, k, None)
        elif period is not None:
            sched.exact_frame = _ExactFrame(diag, apply, None, period)
        return sched

    @property
    def is_constant(self) -> bool:
        return self.constant_matrix is not None

    def matrix_at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.constant_matrix
        return self.apply(t, np.eye(self.space.dim, dtype=complex))


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def integrate(rhs, y0: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """Final state of ``y' = rhs(t, y)`` from a 1-D ``y0`` at ``t0`` to ``t1 >= t0``.

    Dormand-Prince 5(4) with local extrapolation: each step is taken with
    the fifth-order solution and its error estimated against the embedded
    fourth-order one, in the RMS norm over ``atol + max(|y|, |y_new|) rtol``
    at ``rtol=tol``, ``atol=tol*1e-2``.  The step control is that of
    Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4: their initial
    step, safety factor 0.9, step factors clamped to [0.2, 10], and no
    growth on the step accepted right after a rejection.  A step below ten
    ulps of the current time (or a NaN step size) raises
    ``ToleranceError``.  The state returned is the last step's, at ``t1``;
    no step history is kept.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    if t1 == t0:
        return y.copy()
    t, t1 = float(t0), float(t1)
    rtol, atol = tol, tol * 1e-2
    f = rhs(t, y)
    # initial step (Hairer, Norsett & Wanner II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else \
        (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t)
    k = np.empty((7, y.size), dtype=y.dtype)
    while t < t1:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ToleranceError(f"step size fell below {min_step:.3g} at t = {t!r}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            k[0] = f
            for s in range(1, 6):
                k[s] = rhs(t + _DP_C[s] * h, y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:6].T, _DP_B)
            f_new = k[6] = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(k.T, _DP_E) * h / scale)
            # the embedded error is O(h^5): a step scales by err^(-1/5)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            # max() keeps 0.2 when err is NaN
            h_abs = h * max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def _integrate_ket(apply, y: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """``y' = -i H y`` for a state vector or a column block."""
    if y.ndim == 1:
        return integrate(lambda t, v: -1j * apply(t, v), y, t0, t1, tol)
    shape = y.shape

    def rhs(t, v):
        return -1j * apply(t, v.reshape(shape)).reshape(-1)
    return integrate(rhs, y.reshape(-1), t0, t1, tol).reshape(shape)


def _exact_route(ef: _ExactFrame, y: np.ndarray, t0: float, t1: float,
                 tol: float) -> np.ndarray:
    """Carry a lab-frame ket or column block ``y`` from t0 to t1 by the
    static or the periodic route."""
    def diag(p, y):
        return p.reshape((-1,) + (1,) * (y.ndim - 1)) * y

    y = diag(ef.phase(-t0), y)  # into the frame
    if ef.static is not None:
        return diag(ef.phase(t1), ef.unitary(t1 - t0) @ y)

    period = ef.period

    def within(y, a, b):
        """U_K(b, a) on a window shifted into one period, stepped in the lab frame."""
        if b <= a:
            return y
        y = _integrate_ket(ef.apply, diag(ef.phase(a), y), a, b, tol)
        return diag(ef.phase(-b), y)

    first, last = math.ceil(t0 / period), math.floor(t1 / period)
    if first > last:  # no period boundary inside (t0, t1)
        y = within(y, t0 - last * period, t1 - last * period)
    else:
        y = within(y, t0 - (first - 1) * period, period)
        whole = last - first
        if whole:
            w = ef.one_period(tol)
            if y.ndim == 1:
                for _ in range(whole):
                    y = w @ y
            else:  # repeated squaring
                y = np.linalg.matrix_power(w, whole) @ y
        y = within(y, 0.0, t1 - last * period)
    return diag(ef.phase(t1), y)


def _carry(h: Schedule, y: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """U(t1, t0) @ y for a ket or a column block ``y``, with t1 > t0."""
    if h.is_constant:
        return h.exact_frame.unitary(t1 - t0) @ y
    if h.exact_frame is not None:
        return _exact_route(h.exact_frame, y, t0, t1, tol)
    return _integrate_ket(h.apply, y, t0, t1, tol)


def evolve(state: PureState | DensityMatrix, h: Schedule, t0: float, t1: float,
           tol: float = DEFAULT_TOL):
    """Propagate ``state`` under ``h`` from ``t0`` to ``t1``.

    Returns the same kind of state: a pure state is carried directly, a
    density matrix is conjugated by ``propagator``, ``U rho U^dag``.
    Norm/trace drift is monitored through the returned object's
    ``norm_error`` / ``trace_error``.  A static or periodic term form takes
    its exact route (module docstring); on the periodic one ``tol`` governs
    U(T) and the partial periods.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if state.space != h.space:
        raise DimensionMismatchError("state and schedule live on different spaces")
    if t1 == t0:
        return state
    if isinstance(state, DensityMatrix):
        u = propagator(h, t0, t1, tol)
        return DensityMatrix(state.space, u @ state.matrix @ u.conj().T)
    return PureState(state.space, _carry(h, state.amplitudes, t0, t1, tol))


def evolve_trace(state: PureState, h: Schedule, times: Sequence[float],
                 tol: float = DEFAULT_TOL) -> list:
    """States at each checkpoint of a nonempty, nonnegative, nondecreasing
    ``times`` grid, for a pure ``state`` given at t = 0."""
    times = list(times)
    if not times:
        raise ValueError("times must not be empty")
    if times[0] < 0:
        raise ValueError("times must be >= 0: the state is given at t = 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nondecreasing")
    out = []
    current, t_prev = state, 0.0
    for t in times:
        current = evolve(current, h, t_prev, t, tol)
        out.append(current)
        t_prev = t
    return out


def propagator(h: Schedule, t0: float, t1: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense unitary U(t1; t0) of the schedule.

    Constant schedules get their cached eigenbasis, static and periodic
    term forms their exact route, and other time-dependent ones integrate
    the full matrix column block through the adaptive stepper.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    u = np.eye(h.space.dim, dtype=complex)
    if t1 == t0:
        return u
    if h.is_constant:  # the unitary itself, with no product with the identity
        return h.exact_frame.unitary(t1 - t0)
    return _carry(h, u, t0, t1, tol)


def propagator_stack(h: Schedule, times, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stacked U(t; 0) for every time of a nonnegative 1-D ``times``,
    shape ``(len(times), d, d)``.

    A constant schedule gives every unitary from its cached eigenbasis in
    one ``einsum``; any other schedule gets one ``propagator`` per time.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0: the stack starts at t = 0")
    if h.is_constant:
        w, v = h.exact_frame.eig()
        phases = np.exp(-1j * np.multiply.outer(times, w))
        return np.einsum("ij,mj,kj->mik", v, phases, v.conj())
    return np.stack([propagator(h, 0.0, t, tol) for t in times])
