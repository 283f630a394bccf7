"""Exact time evolution: eigenbasis propagators, exact frames and adaptive integration.

Every schedule is one term form,
``H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag``: scalar coefficients over
fixed matrices, with an optional diagonal frame
``F(t) = exp(i t diag(frame))``.  A constant Hamiltonian is its one-term
case, with coefficient 1 and no frame.  The schedule acts as one lab-frame
action ``apply(t, y) = H(t) @ y`` for a vector or a column block, valid at
every time: each term adds ``f_k(t) H_k @ (F(t)^dag y)`` into ``F(t)^dag
H(t) y``, so no Hamiltonian is rebuilt at a Runge-Kutta stage and nothing
is shared between evaluations.  When a coefficient depends on time, each
``H_k`` is kept on its support, the smallest row range x column range
that holds its nonzero entries, found once by ``from_terms``: the product
reads only the columns of ``y`` in that range and writes only the rows,
so a term in one qubit quadrant, like the ion drive's
``sigma^+ (x) D``, costs a quarter of a dense product.

Time-dependent generators are integrated by ``integrate``, an adaptive
embedded 4(5) Runge-Kutta stepper written here: the Dormand-Prince 5(4)
pair (RK45) under the step control of Hairer, Norsett & Wanner, at a
caller-chosen local tolerance, default 1e-10.  The perturbative error
bounds checked elsewhere in the package are meaningless if this oracle
layer is loose.  ``integrate`` is the one place that runs the stepper; the
master-equation integrators of other modules call it too.  It keeps no step
history and returns the stepped state at the end of the window.  This
module imports nothing but numpy.

In the frame of ``F`` the Hamiltonian reads
``K(t) = diag(frame) + sum_k f_k(t) H_k``, and
``U(t1, t0) = F(t1) U_K(t1, t0) F(t0)^dag``.  ``carry`` takes a ket or a
column block by the schedule's exact frame, if it has one, or by RK45:

* static: every coefficient is a number, so K is constant; with no frame
  the schedule is constant and K = H.  One ``eigh`` of K, cached on the
  schedule, serves every time: a ket or a column block is carried as
  ``V (exp(-i w dt) * (V^dag y))``, two products with the eigenvectors,
  and the d x d ``U_K`` is formed only where ``propagator`` and
  ``propagator_stack`` of a constant schedule return it, the latter for
  a whole stack of times in one gemm against ``V^dag``.
* periodic: the schedule declares the common period T of its
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

The terms of a schedule may leave blocks of basis states invariant: the
connected components of the union of their nonzero patterns, which
``from_terms`` finds once (the frame is diagonal and joins none).  The
parity sectors of the dispersive pulse ``sigma_x (x) (a + a^dag)`` and of
the quantum Rabi ramp are two such blocks.  With more than one block,
every RK45 run of the schedule (the whole window, the partial periods and
``U_K(T, 0)``) steps only the parts of the columns inside the blocks: the
part of each column in each block where it has support goes into one
zero-padded ``(n_blocks, size, cols)`` array, each term acts on it by one
batched product with its blocks, and the parts are put back in place at
the end.  What is left out is exactly zero and stays zero.  The step
control still measures the full d x m state: its error norm is an RMS,
and the entries left out and the padding are zero in every stage and in
the error, so at the tolerance ``tol * sqrt(d m / packed size)`` the
packed state's RMS norm is the full state's at ``tol``, initial step
included.  The packed run therefore takes the steps of the unpacked one,
and its numbers differ from it only by rounding.  A schedule with one
block, like the ion drive with its dense displacement operator, is
stepped whole, each term on its support.

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

# the tables as the stepper reads them: _DP_ONE + h * _DP_ROWS holds, in row
# s = 1..5, the coefficients (1, h a_s) of stage s over [y; k_0; ...], and in
# row 6 those of the fifth-order solution, (1, h b); row 0 is unused
_DP_ROWS = np.zeros((7, 7))
_DP_ROWS[1:6, 1:6] = _DP_A[1:]
_DP_ROWS[6, 1:] = _DP_B
_DP_ONE = np.zeros((7, 7))
_DP_ONE[:, 0] = 1.0
_DP_TIMES = tuple(float(c) for c in _DP_C)


class ToleranceError(RuntimeError):
    """The adaptive integrator failed to meet the requested tolerance."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only: a schedule's caches are shared by every caller."""
    a.setflags(write=False)
    return a


def _invariant_blocks(d: int, mats) -> list:
    """Sorted index arrays of the connected components of the union of the
    matrices' nonzero patterns, in order of their first index.  No nonzero
    entry of any matrix links two blocks, so every block is invariant."""
    linked = np.eye(d, dtype=bool)
    for m in mats:
        linked |= m != 0
    linked |= linked.T
    # each index takes the smallest label among its neighbours, then the
    # label of that label, until nothing changes: a block ends up labelled
    # by its smallest index
    index = np.arange(d)
    labels = index
    while True:
        new = np.where(linked, labels, d).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            return [np.flatnonzero(labels == b) for b in np.flatnonzero(labels == index)]
        labels = new


def _span(index: np.ndarray) -> slice:
    """The smallest range that holds the sorted ``index``; empty if it is."""
    return slice(int(index[0]), int(index[-1]) + 1) if index.size else slice(0, 0)


def _support(m: np.ndarray) -> tuple:
    """(rows, cols, block): the smallest row range x column range that holds
    the nonzero entries of ``m``, and ``m`` on it, copied and read-only."""
    nonzero = m != 0
    rows = _span(np.flatnonzero(nonzero.any(axis=1)))
    cols = _span(np.flatnonzero(nonzero.any(axis=0)))
    return rows, cols, _frozen(m[rows, cols].copy())


class _TermForm:
    """H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag, F = exp(i t diag(frame)):
    the lab-frame action ``apply`` and the RK45 carrier ``step``.

    ``terms`` holds each H_k once, as ``(rows, cols, block)``: when some
    coefficient depends on time, the smallest row range x column range
    that holds the term's nonzero entries and H_k on it (``_support``), so
    ``apply`` adds ``f_k(t) block @ y[cols]`` into ``rows`` and multiplies
    no entry outside the support; a static K never steps, and its terms
    are kept whole.  When the terms also leave more than one block
    invariant (``_invariant_blocks``), ``step`` integrates only the parts
    of the columns inside the blocks, packed as in the module docstring;
    the zero-padded ``(n_blocks, n_terms * size, size)`` ``block_stack``
    holds each term's block of the generator -i H_k, and ``index`` the rows
    of each block.  The blocks are used only if, padded to the largest,
    they hold no more entries than a d x d term.  ``mats`` are the
    schedule's own copies of the H_k.
    """

    __slots__ = ("d", "coeffs", "terms", "i_frame", "index", "block_stack", "block_frame")

    def __init__(self, d: int, coeffs, mats, frame):
        self.d = d
        self.coeffs = tuple(f if callable(f) else (lambda t, c=f: c) for f in coeffs)
        self.i_frame = None if frame is None else 1j * frame
        self.index = self.block_stack = self.block_frame = None
        if not any(callable(f) for f in coeffs):
            # a static K takes the eigenbasis route and never steps
            whole = slice(0, d)
            self.terms = tuple((whole, whole, _frozen(m)) for m in mats)
            return
        self.terms = tuple(_support(m) for m in mats)
        blocks = _invariant_blocks(d, mats)
        size = max(b.size for b in blocks)
        if len(blocks) < 2 or len(blocks) * size * size > d * d:
            return
        stack = np.zeros((len(blocks), len(mats), size, size), dtype=complex)
        for b, idx in enumerate(blocks):
            for k, m in enumerate(mats):
                stack[b, k, :idx.size, :idx.size] = m[np.ix_(idx, idx)]
        self.index = [_frozen(idx) for idx in blocks]
        self.block_stack = _frozen(-1j * stack.reshape(len(blocks), len(mats) * size, size))
        if frame is not None:
            packed = np.zeros((len(blocks), size, 1), dtype=complex)
            for b, idx in enumerate(blocks):
                packed[b, :idx.size, 0] = 1j * frame[idx]
            self.block_frame = _frozen(packed)

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        if self.i_frame is not None:
            phase = np.exp(t * self.i_frame).reshape((self.d,) + (1,) * (y.ndim - 1))
            y = phase.conj() * y
        out = np.zeros(y.shape, dtype=complex)
        for f, (rows, cols, block) in zip(self.coeffs, self.terms):
            out[rows] += f(t) * (block @ y[cols])
        return out if self.i_frame is None else phase * out

    def step(self, y: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
        """U(t1, t0) @ y by RK45, for a ket or a column block ``y``."""
        if self.index is None:
            return _integrate_ket(self.apply, y, t0, t1, tol)
        cols = y.reshape(self.d, -1)
        live, parts = [], []  # the blocks stepped: their rows, and the columns with support
        for b, rows in enumerate(self.index):
            support = np.flatnonzero((cols[rows] != 0).any(axis=0))
            if support.size:
                live.append(b)
                parts.append((rows, support))
        out = np.zeros(cols.shape, dtype=complex)
        if not parts:
            return out.reshape(y.shape)
        stack, frame = self.block_stack, self.block_frame
        if len(live) < len(self.index):
            stack = stack[live]
            frame = None if frame is None else frame[live]
        size = stack.shape[2]
        packed = np.zeros((len(live), size, max(s.size for _, s in parts)), dtype=complex)
        for i, (rows, support) in enumerate(parts):
            packed[i, :rows.size, :support.size] = cols[np.ix_(rows, support)]
        shape, n_terms, coeffs = packed.shape, len(self.coeffs), self.coeffs

        def rhs(t, v):
            x = v.reshape(shape)
            if frame is not None:
                phase = np.exp(t * frame)
                x = phase.conj() * x
            hx = stack @ x  # -i H_k x for every term k, stacked along the rows
            if n_terms == 1:
                hx *= coeffs[0](t)
            else:
                c = np.array([f(t) for f in coeffs], dtype=complex)
                hx = (c @ hx.reshape(len(live), n_terms, -1)).reshape(shape)
            return (hx if frame is None else phase * hx).reshape(-1)

        # the RMS error norm of the full d x m state at tol, over the packed one
        packed = integrate(rhs, packed.reshape(-1), t0, t1,
                           tol * math.sqrt(cols.size / packed.size)).reshape(shape)
        for i, (rows, support) in enumerate(parts):
            out[np.ix_(rows, support)] = packed[i, :rows.size, :support.size]
        return out.reshape(y.shape)


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

    ``frame`` is the diagonal of the frame generator and ``step`` the
    schedule's RK45 carrier ``(y, t0, t1, tol) -> U(t1, t0) y`` in the lab
    frame.  ``static`` is the constant ``K = diag(frame) + sum_k c_k H_k``
    when every coefficient is a number (else None); ``period`` is the
    common period T of the coefficients otherwise.  ``frame`` is None only
    for a static K with no frame: a constant schedule, whose K is its
    Hamiltonian.  The ``eigh`` of a static K, and ``U_K(T, 0)`` per
    tolerance, are computed on first use and kept here.
    """

    __slots__ = ("frame", "step", "static", "period", "_eig", "_one_period")

    def __init__(self, frame: np.ndarray | None, step, static: np.ndarray | None,
                 period: float | None):
        self.frame = frame
        self.step = step
        self.static = static
        self.period = period
        self._eig = None
        self._one_period: dict = {}

    def phase(self, t: float) -> np.ndarray:
        """Diagonal of F(t) = exp(i t diag(frame))."""
        return np.exp(1j * t * self.frame)

    def eig(self):
        """(w, V, V^dag) of a static K, computed on first use, read-only."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.static)
            self._eig = (_frozen(w), _frozen(v), _frozen(v.conj().T))
        return self._eig

    def unitary(self, dt: float) -> np.ndarray:
        """U_K(dt) = V diag(exp(-i w dt)) V^dag of a static K."""
        w, v, vh = self.eig()
        return (v * np.exp(-1j * dt * w)) @ vh

    def carry(self, dt: float, y: np.ndarray) -> np.ndarray:
        """U_K(dt) @ y = V (exp(-i w dt) * (V^dag y)) for a ket or a column
        block, without forming U_K."""
        w, v, vh = self.eig()
        phase = np.exp(-1j * dt * w).reshape((-1,) + (1,) * (y.ndim - 1))
        return v @ (phase * (vh @ y))

    def one_period(self, tol: float) -> np.ndarray:
        """U_K(T, 0) = F(T)^dag U(T, 0), integrated once per tolerance."""
        w = self._one_period.get(tol)
        if w is None:
            u = self.step(np.eye(self.frame.size, dtype=complex), 0.0, self.period, tol)
            w = self._one_period[tol] = _frozen(self.phase(-self.period)[:, None] * u)
        return w


class Schedule:
    """Hamiltonian over time, in one form: H(t) = F(t) [sum_k f_k(t) H_k] F(t)^dag.

    The ``f_k`` are scalar coefficients, numbers or functions of time, over
    fixed matrices ``H_k`` (QuTiP's list format), and
    ``F(t) = exp(i t diag(frame))`` is an optional diagonal frame.  In the
    frame the Hamiltonian is ``K(t) = diag(frame) + sum_k f_k(t) H_k``.  A
    schedule acts through ``apply(t, y) = H(t) @ y`` on a vector or a
    column block, at every time: one product of each fixed matrix, on its
    support when a coefficient depends on time, with ``F(t)^dag y``, scaled
    by its coefficient, so no matrix is rebuilt per evaluation.  ``evolve``
    carries kets with it and conjugates a density matrix by the
    propagator.  Two constructors build it:

    * ``Schedule.from_terms(space, terms, frame, period)``, the general
      form.
    * ``Schedule.constant(op, space)``, one Hermitian matrix as the one
      term, with coefficient 1 and no frame: K is that matrix itself, held
      in one read-only copy.

    ``exact_frame`` holds what the exact routes of ``evolve`` and
    ``propagator`` need, with their cached ``eigh`` or one-period
    propagator: K is static when every coefficient is a number, and
    periodic when the coefficients declare a common ``period``.  It is None
    for every other schedule, which RK45 steps.  ``is_constant`` holds when
    K is static with no frame, so H(t) = K at every time.  ``matrix_at``
    returns that stored K of a constant schedule and, on any other, the
    lab-frame H(t) as a new array on every call.
    """

    def __init__(self, space: HilbertSpace, terms: _TermForm, exact_frame: _ExactFrame | None):
        self.space = space
        self._terms = terms
        self.apply = terms.apply
        self.exact_frame = exact_frame

    @staticmethod
    def constant(op, space: HilbertSpace | None = None) -> "Schedule":
        """H(t) = ``op`` at every time: an ``OperatorSum``, or a raw Hermitian
        matrix on ``space``, which is copied, so a caller's array is never
        frozen."""
        if space is None:
            if not isinstance(op, OperatorSum):
                raise ValueError("space required when passing a raw matrix")
            space = op.space
        mat = _frozen(op.matrix() if isinstance(op, OperatorSum) else
                      np.array(op, dtype=complex))
        if mat.shape != (space.dim, space.dim):
            raise DimensionMismatchError("constant Hamiltonian does not match the space")
        if not _is_hermitian(mat):
            raise ValueError("a constant Hamiltonian must be Hermitian")
        form = _TermForm(space.dim, (1.0,), [mat], None)
        return Schedule(space, form, _ExactFrame(None, form.step, mat, None))

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
        or the periodic route of ``evolve`` and ``propagator``.  If a
        coefficient depends on time, the support of each term and the
        blocks of basis states that the terms leave invariant are found
        here, once: ``apply`` multiplies each term on its support, and the
        RK45 runs step only the blocks (module docstring).
        """
        d = space.dim
        terms = [(f if callable(f) else complex(f), np.array(m, dtype=complex))
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
        form = _TermForm(d, [f for f, _ in terms], [m for _, m in terms], frame)
        exact = None
        if not any(callable(f) for f, _ in terms):
            k = sum(c * m for c, m in terms)
            if frame is not None:
                k = np.diag(frame).astype(complex) + k
            if not _is_hermitian(k):
                raise ValueError("constant terms must sum to a Hermitian matrix")
            exact = _ExactFrame(frame, form.step, _frozen(k), None)
        elif period is not None:
            exact = _ExactFrame(np.zeros(d) if frame is None else frame, form.step, None, period)
        return Schedule(space, form, exact)

    @property
    def is_constant(self) -> bool:
        return self.exact_frame is not None and self.exact_frame.frame is None

    def matrix_at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.exact_frame.static
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
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t)
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else \
        (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t)
    # w = [y; k_0; ...; k_6].  Stage s evaluates f at (1, h a_s) . w[:s+1] and
    # the step's fifth-order solution is (1, h b) . w[:7]: one product of a
    # real coefficient row with real rows, which is a complex state's
    # float view
    n = y.size
    w = np.empty((8, n), dtype=y.dtype)
    w[0], w[1] = y, f
    rows = w.view(float)
    heads = [rows[:s + 1] for s in range(7)]
    ks = rows[1:]
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ToleranceError(f"step size fell below {min_step:.3g} at t = {t!r}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            coef = _DP_ONE + h * _DP_ROWS
            for s in range(1, 6):
                w[s + 1] = rhs(t + _DP_TIMES[s] * h, (coef[s, :s + 1] @ heads[s]).view(y.dtype))
            y_new = (coef[6] @ heads[6]).view(y.dtype)
            w[7] = rhs(t + h, y_new)
            abs_new = np.abs(y_new)
            e = ((h * _DP_E) @ ks).view(y.dtype) / (atol + np.maximum(abs_y, abs_new) * rtol)
            err = math.sqrt(np.vdot(e, e).real / n)
            # the embedded error is O(h^5): a step scales by err^(-1/5)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            # max() keeps 0.2 when err is NaN
            h_abs = h * max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t, y, abs_y = t_new, y_new, abs_new
        w[0], w[1] = y, w[7]
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
    if ef.frame is None:  # a constant schedule: K = H
        return ef.carry(t1 - t0, y)

    def diag(p, y):
        return p.reshape((-1,) + (1,) * (y.ndim - 1)) * y

    y = diag(ef.phase(-t0), y)  # into the frame
    if ef.static is not None:
        return diag(ef.phase(t1), ef.carry(t1 - t0, y))

    period = ef.period

    def within(y, a, b):
        """U_K(b, a) on a window shifted into one period, stepped in the lab frame."""
        if b <= a:
            return y
        y = ef.step(diag(ef.phase(a), y), a, b, tol)
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


def carry(h: Schedule, y: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """U(t1, t0) @ y for a ket or a ``d x k`` column block ``y``, by the route
    of ``h`` (module docstring), without forming the d x d propagator.
    Raises ``ValueError`` for t1 < t0 and ``DimensionMismatchError`` unless
    ``y`` has ``d`` rows."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[0] != h.space.dim:
        raise DimensionMismatchError("vector or column block does not match the schedule")
    if t1 == t0:
        return y.copy()
    if h.exact_frame is not None:
        return _exact_route(h.exact_frame, y, t0, t1, tol)
    return h._terms.step(y, t0, t1, tol)


def evolve(state: PureState | DensityMatrix, h: Schedule, t0: float, t1: float,
           tol: float = DEFAULT_TOL):
    """Propagate ``state`` under ``h`` from ``t0`` to ``t1``.

    Returns the same kind of state: a pure state is carried directly, a
    density matrix is conjugated by ``propagator``, ``U rho U^dag``.
    Norm/trace drift is monitored through the returned object's
    ``norm_error`` / ``trace_error``.  A static or periodic schedule takes
    its exact route (module docstring); on the periodic one ``tol`` governs
    U(T) and the partial periods.  Raises ``ValueError`` for t1 < t0.
    """
    if state.space != h.space:
        raise DimensionMismatchError("state and schedule live on different spaces")
    if t1 == t0:
        return state
    if isinstance(state, DensityMatrix):
        u = propagator(h, t0, t1, tol)
        return DensityMatrix(state.space, u @ state.matrix @ u.conj().T)
    return PureState(state.space, carry(h, state.amplitudes, t0, t1, tol))


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
    ones their exact route, and every other schedule integrates the full
    matrix column block through the adaptive stepper.
    """
    if h.is_constant and t1 > t0:  # the unitary itself, with no product with the identity
        return h.exact_frame.unitary(t1 - t0)
    return carry(h, np.eye(h.space.dim, dtype=complex), t0, t1, tol)


def propagator_stack(h: Schedule, times, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Stacked U(t; 0) for every time of a nonnegative 1-D ``times``,
    shape ``(len(times), d, d)``.

    A constant schedule gives every unitary from its cached eigenbasis in
    one gemm, the rows of ``V diag(exp(-i w t))`` of all times against
    ``V^dag``, so a unitary keeps its bits whatever times share its stack;
    any other schedule gets one ``propagator`` per time.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0: the stack starts at t = 0")
    if h.is_constant:
        w, v, vh = h.exact_frame.eig()
        phases = np.exp(-1j * np.multiply.outer(times, w))[:, None, :]
        return ((v * phases).reshape(-1, w.size) @ vh).reshape(-1, w.size, w.size)
    return np.stack([propagator(h, 0.0, t, tol) for t in times])
