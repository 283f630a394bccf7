"""Open-system dynamics by unitary means: exact Lindblad propagation, the
truncated Volterra/Dyson reconstruction of observables from multi-time
correlators, single-shot Monte-Carlo integration over the time simplex,
and the rigorous error-bound calculators (trace-distance, observable,
sample-size, measurement totals, and the non-Hermitian variant).

The master equation is written once, as actions on a d x d matrix or a
stack of them: L_H x = -i[H(t), x], and L_D x, the sum of ``apply_dissipator``
over the channels.  The series terms are exact: for a generator L0(s) + LP(s)
truncated at order n, the block stack [rho0, 0, ..., 0] obeys
d xi_k/ds = L0 xi_k + LP xi_(k-1), so block k is the order-k simplex integral
(Van Loan, IEEE TAC 23 (1978) 395).  A time-dependent generator is stepped on
the stack, and so is a constant one on more than ``_EXPONENTIAL_MAX_DIM``
levels.  A smaller constant one generates the lower block-triangular Toeplitz
matrix ``I_(n+1) kron L0 + S kron LP`` (S the sub-diagonal shift), which is
never assembled: ``qcore.expm_block_toeplitz`` exponentiates its first block
column, the stack [L0 t, LP t, 0, ..., 0], and block k of the result applied
to vec(rho0) is xi_k(t).  L0 and LP there and ``liouvillian_matrix`` are the
only superoperator matrices, in column stacking: ``vec(A X B) =
(B^T kron A) vec(X)``.  ``lindblad_exact``, order 0 of the same routine, is
the package's one master-equation solver; ``daqs``'s noisy runs use it too.

The Monte-Carlo estimator samples the simplex instead.  Order n draws one
block of uniforms from stream ``(master_seed, n)`` of ``qcore.shot_uniforms``,
one row per sample (channel indices, times, shot uniforms; see
``MonteCarloPlan``).
O and every channel operator are read as Pauli strings from their own
terms (``qcore.pauli_terms``), the nested dissipators are expanded into
Pauli-string chains once per channel combination, and the chain means of
all samples sharing that combination are evaluated together on the
stacked propagators U(0, tau) of ``qcore.propagator_stack``; a string P is
conjugated as (P U)^dag U, where P U is a row gather (``qcore.pauli_apply``)
and not a product.  Before any product is formed, adjacent factors of a
chain at one time slot multiply symbolically into one Pauli string and a
phase (X X = I drops out), so a chain forms one stacked product per
remaining factor but the last, which enters the trace as an elementwise
sum.  Order 0 is not sampled:
xi_0(t) = U(t) rho0 U(t)^dag, the state ``qcore.evolve`` returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    Schedule,
    check_count,
    check_stream_key,
    evolve,
    expectation,
    expm,
    expm_block_toeplitz,
    integrate,
    pauli_apply,
    pauli_product,
    pauli_terms,
    propagator,
    propagator_stack,
    shot_means,
    shot_uniforms,
)
from .qcore.metrics import operator_infinity_norm

_GAMMA_SUP_SAMPLES = 1024

#: largest dimension d whose constant generator ``_dyson_blocks``
#: exponentiates; above it the stepper is faster at every order
_EXPONENTIAL_MAX_DIM = 8

#: highest series order ``reconstruct`` evaluates (a cost guard)
MAX_ORDER = 6


@dataclass(frozen=True)
class Channel:
    operator: OperatorSum
    rate: Callable[[float], float]


class LindbladModel:
    """Hermitian generator plus (Lindblad operator, rate) channels.

    Each Lindblad operator is rescaled at construction to infinity norm 1,
    the factor being absorbed into the rate (the master equation is
    invariant under ``L -> L/s, gamma -> s^2 gamma``).  Each rate is a
    number or a callable of time, and may be transiently negative.

    ``is_constant`` is True when H is a constant schedule and every rate
    was given as a number; then the generator is one matrix for all times
    and the exact routes exponentiate it once, up to ``_EXPONENTIAL_MAX_DIM``
    levels (``_dyson_blocks``).  A callable rate is never taken for constant,
    whatever values it returns: it always takes the adaptive stepper.
    """

    def __init__(self, h: Schedule | OperatorSum, channels: Sequence):
        if isinstance(h, OperatorSum):
            h = Schedule.constant(h)
        self.h = h
        self.space: HilbertSpace = h.space
        self._number_rates = not any(callable(g) for _, g in channels)
        self.is_constant = h.is_constant and self._number_rates
        built = []
        for op, gamma in channels:
            scale = op.norm_inf()
            if scale <= 0.0:
                raise ValueError("Lindblad operator must be nonzero")
            rate = (lambda t, r=gamma, s=scale: (s ** 2) * r(t)) if callable(gamma) else \
                (lambda t, g=(scale ** 2) * float(gamma): g)
            built.append(Channel(operator=(1.0 / scale) * op, rate=rate))
        self.channels = tuple(built)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def gamma_bar(self, t: float) -> float:
        """max_i sup_{s in [0,t]} |gamma_i(s)|.

        Read once when every rate is a number, else approximated by dense
        sampling (1024 intervals, endpoints included): an exact supremum is
        not available for arbitrary rate callables.
        """
        if not self.channels:
            return 0.0
        grid = [0.0] if self._number_rates else np.linspace(0.0, t, _GAMMA_SUP_SAMPLES + 1)
        return float(np.max(np.abs([[ch.rate(s) for s in grid] for ch in self.channels])))


# ---------------------------------------------------------------------------
# the generator and the exact oracle
# ---------------------------------------------------------------------------

def _expectation(omat: np.ndarray, xi: np.ndarray) -> float:
    """Re Tr(O xi) as the d^2 sum of O_ij xi_ji, as ``qcore.expectation``
    forms it; a Dyson term is no density matrix, so it stays a raw array."""
    return float((omat * xi.T).sum().real)


def apply_dissipator(l: np.ndarray, l_dag: np.ndarray, ldl: np.ndarray, g: float,
                     xi: np.ndarray) -> np.ndarray:
    """g (L xi L^dag - {ldl, xi}/2) on a matrix or a stack, the package's one dissipator
    formula.  With ldl = L^dag L it is the dissipator; with L and L^dag swapped, its adjoint."""
    return g * (l @ xi @ l_dag - 0.5 * (ldl @ xi + xi @ ldl))


def _generator_actions(model: LindbladModel) -> tuple:
    """(L_H, L_D) as actions (s, x) -> L(s) x on a d x d matrix or a stack of
    them.  Each channel's L^dag and L^dag L are formed once; a time s reads
    H(s) and the rates."""
    channels = [(l, l.conj().T, l.conj().T @ l, ch.rate)
                for ch in model.channels for l in [ch.operator.matrix()]]

    def l_h(s, x):
        m = model.h.matrix_at(s)
        return -1j * (m @ x - x @ m)

    def l_d(s, x):
        acc = np.zeros_like(x)
        for l, l_dag, ldl, rate in channels:
            acc += apply_dissipator(l, l_dag, ldl, rate(s), x)
        return acc

    return l_h, l_d


def _superoperator(action: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Matrix of a linear map on d x d matrices, column stacking: column
    i + d j is vec(action(E_ij)), the map applied to the d^2 unit matrices."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d).transpose(0, 2, 1)
    return action(units).transpose(2, 1, 0).reshape(d * d, d * d)


def _generator_parts(model: LindbladModel, t: float) -> tuple:
    """(L_H, L_D): the Hamiltonian and dissipator superoperators at time ``t``."""
    d = model.space.dim
    return tuple(_superoperator(lambda x: action(t, x), d)
                 for action in _generator_actions(model))


def liouvillian_matrix(model: LindbladModel, t: float) -> np.ndarray:
    """Dense superoperator of the master equation at time ``t`` (column stacking)."""
    l_h, l_d = _generator_parts(model, t)
    return l_h + l_d


def _dyson_blocks(parts: tuple, rho0: np.ndarray, t: float,
                  order: int, tol: float, constant: bool) -> np.ndarray:
    """Dyson terms [xi_0(t), ..., xi_order(t)] of dx/ds = (L0(s) + LP(s)) x, x(0) = rho0.

    ``parts`` holds the actions (s, x) -> L0(s) x and (s, x) -> LP(s) x; LP
    is not read at order 0.  A ``constant`` generator on d <=
    ``_EXPONENTIAL_MAX_DIM`` gets one block-Toeplitz exponential; any other is
    stepped on the block stack at ``rtol=tol``, ``atol=tol*1e-2``.  The size
    alone decides: the exponential costs O(d^6), a stepper evaluation a few
    d x d products.  On random two-channel models at t = 0.6 (one BLAS
    thread) they tie at d = 8 and order 3, and from d = 16 the stepper wins
    at every order.  It is explicit, so a large stiff constant generator
    (rate * t >> 1) takes many small steps where the exponential would
    square; no caller has one.  A negative ``t`` raises ``ValueError``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    d = rho0.shape[0]
    if constant and d <= _EXPONENTIAL_MAX_DIM:
        blocks = np.zeros((order + 1, d * d, d * d), dtype=complex)
        for k, action in enumerate(parts[:order + 1]):
            blocks[k] = _superoperator(lambda x: action(0.0, x), d) * t
        e = expm_block_toeplitz(blocks)
        v = e.reshape(-1, d * d) @ rho0.T.reshape(-1)
        return v.reshape(order + 1, d, d).transpose(0, 2, 1)

    x0 = np.zeros((order + 1, d, d), dtype=complex)
    x0[0] = rho0
    l0, lp = parts

    def rhs(s, y):
        x = y.reshape(order + 1, d, d)
        dx = l0(s, x)
        if order:
            dx[1:] += lp(s, x[:-1])
        return dx.reshape(-1)

    return integrate(rhs, x0.reshape(-1), 0.0, t, tol).reshape(order + 1, d, d)


def lindblad_exact(model: LindbladModel, rho0: DensityMatrix, t: float,
                   tol: float = 1e-10) -> DensityMatrix:
    """rho(t), symmetrized: order 0 of ``_dyson_blocks`` with L0 = L_H + L_D, so a
    model is exponentiated only if constant and on at most ``_EXPONENTIAL_MAX_DIM``
    levels, and else stepped at ``tol``.  A negative ``t`` raises ``ValueError``."""
    if rho0.space != model.space:
        raise ValueError("initial state does not live on the model's space")
    if t == 0.0:
        return rho0
    l_h, l_d = _generator_actions(model)
    rho = _dyson_blocks((lambda s, x: l_h(s, x) + l_d(s, x), None), rho0.matrix, t, 0, tol,
                        model.is_constant)[0]
    return DensityMatrix(model.space, 0.5 * (rho + rho.conj().T))


def _lindblad_terms(model: LindbladModel, rho0: DensityMatrix, t: float, order: int):
    """Dyson terms of the master equation with L0 = L_H and LP = L_D."""
    return _dyson_blocks(_generator_actions(model), rho0.matrix, t, order, DEFAULT_TOL,
                         model.is_constant)


# ---------------------------------------------------------------------------
# Dyson terms
# ---------------------------------------------------------------------------

def dyson_term(model: LindbladModel, observable: OperatorSum | np.ndarray,
               rho0: DensityMatrix, channel_indices: Sequence[int],
               times: Sequence[float], t: float) -> float:
    """Integrand <A_{[i_1..i_n]}(s_1..s_n)> of the order-n Volterra term.

    ``times`` must be sorted descending (t >= s_1 >= ... >= s_n >= 0); the
    chain applies the channel dissipators at those instants between unitary
    segments and closes with Tr[O ...].
    """
    times = [float(s) for s in times]
    n = len(times)
    if len(channel_indices) != n:
        raise ValueError("one channel index per time required")
    if any(b > a for a, b in zip(times, times[1:])) or (n and times[0] > t):
        raise ValueError("times must satisfy t >= s_1 >= ... >= s_n >= 0")
    omat = observable.matrix() if isinstance(observable, OperatorSum) else np.asarray(observable)

    def conjugate(mat, a, b):
        u = propagator(model.h, a, b)
        return u @ mat @ u.conj().T

    xi = rho0.matrix
    current = 0.0
    for k in range(n - 1, -1, -1):
        s_k = times[k]
        xi = conjugate(xi, current, s_k)
        ch = model.channels[channel_indices[k]]
        l = ch.operator.matrix()
        xi = apply_dissipator(l, l.conj().T, l.conj().T @ l, ch.rate(s_k), xi)
        current = s_k
    return _expectation(omat, conjugate(xi, current, t))


def _pauli_chains(o_terms: list, slot_terms: Sequence[list]) -> list:
    """Nested dissipators expanded into Pauli-string operator chains.

    ``o_terms`` is the Pauli expansion of O, read at time slot 0 (time t);
    ``slot_terms[k - 1]`` is that of the Lindblad operator applied at slot
    k (time s_k, with t >= s_1 >= ... >= s_n).  Returns ``(coeff, ops)``
    pairs, ops being ``(label, slot)`` pairs read left to right.  Chains are
    built outward from O: each dissipator contributes an L^dag ... L
    sandwich and the two halves of -1/2 {L^dag L, .} (Pauli strings are
    Hermitian, so L^dag = sum conj(q) P).  The coefficients are rate-free:
    a sample's chain weight is ``coeff * prod_k gamma_(i_k)(s_k)``.
    """
    chains = [(q, [(lbl, 0)], []) for q, lbl in o_terms]
    for slot, l_terms in enumerate(slot_terms, start=1):
        new_chains = []
        for coeff, left, right in chains:
            for ql, lbl_l in l_terms:
                for qr, lbl_r in l_terms:
                    c = coeff * np.conj(ql) * qr
                    a, b = (lbl_l, slot), (lbl_r, slot)
                    new_chains.append((c, [a] + left, right + [b]))
                    new_chains.append((-0.5 * c, [a, b] + left, right))
                    new_chains.append((-0.5 * c, left, right + [a, b]))
        chains = new_chains
    return [(coeff, left + right) for coeff, left, right in chains]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloPlan:
    """Uniform simplex sampling, ``samples_per_order`` samples per order n >= 1.

    Order n draws all its uniforms at once, one ``(samples_per_order, w)``
    block from stream ``(master_seed, n)`` of ``qcore.shot_uniforms``.  Row
    j belongs to sample j: n channel indices ``floor(u * N)``, then n times
    ``u * t`` sorted descending, then (with k shots) 2k uniforms per Pauli
    chain, real parts first.  The width w is fixed by the model and k, not
    by what was drawn, so sample j is a pure function of (master_seed, n, j)
    and a plan with fewer samples sees a prefix of the same rows.
    """
    samples_per_order: int
    master_seed: int = 0
    shots_per_value: int | None = None  # None: exact single-sample values

    def __post_init__(self):
        check_count(self.samples_per_order, "samples_per_order")
        if self.shots_per_value is not None:
            check_count(self.shots_per_value, "shots_per_value")
        check_stream_key(self.master_seed, "master_seed")


@dataclass
class Reconstruction:
    value: float
    per_order: list


def _merged_chain(ops) -> tuple:
    """(phase, ops) with adjacent factors at one slot multiplied symbolically
    (U^dag P_a U U^dag P_b U = U^dag P_a P_b U) and identity strings dropped."""
    phase, merged = 1, []
    for lbl, slot in ops:
        if merged and merged[-1][1] == slot:
            p, lbl = pauli_product(merged.pop()[0], lbl)
            phase *= p
        if lbl.strip("I"):
            merged.append((lbl, slot))
    return phase, tuple(merged)


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over (broadcast) stacks of d x d matrices, each matrix of the
    stack multiplied on its own.  At d = 2 it is the broadcast sum of two
    outer products, several times faster than numpy's stacked 2 x 2 matmul
    loop; from d = 4 up ``@`` is as fast or faster."""
    if a.shape[-1] != 2:
        return a @ b
    return a[..., :1] * b[..., :1, :] + a[..., 1:] * b[..., 1:, :]


def _heisenberg(u: np.ndarray, lbl: str) -> np.ndarray:
    """U^dag P U over a stack of unitaries, for the Pauli string ``lbl``,
    formed as (P U)^dag U.  P U is a gather of U's rows
    (``qcore.pauli_apply``), so the stack takes one product."""
    return _stack_product(pauli_apply(lbl, u).conj().transpose(0, 2, 1), u)


def _chain_sums(chains, rho0, times, h, slot0, shots, uniforms) -> np.ndarray:
    """Re sum_c coeff_c * mean_c for samples sharing one channel combination.

    ``times`` is (M, n), sorted descending per row.  Each chain is first
    merged (``_merged_chain``): its adjacent same-slot factors, such as the
    two halves of L^dag L, multiply out to one Pauli string and a phase, and
    identities drop.  Each distinct merged string is conjugated once per
    time slot over the stacked U(0, tau) (one stack of M d x d matrices per
    string and slot; ``slot0`` holds O's strings at time t, formed once per
    order).  Every chain is multiplied against rho0 for all M samples at once
    up to its last factor F, and Tr(F acc) is an elementwise sum, so that
    last product is never formed.  The merged phase stays inside the mean.
    With ``shots`` the chain means' real and imaginary parts become means
    of k +-1 coherence outcomes drawn from ``uniforms`` (M, 2k * chains),
    one block per chain of ``chains`` in its given order.
    """
    us = [propagator_stack(h, times[:, k]) for k in range(times.shape[1])]
    heis = dict(slot0)

    def heisenberg(key):
        if key not in heis:
            heis[key] = _heisenberg(us[key[1] - 1], key[0])
        return heis[key]

    # sample-major, so every reduction below runs along one sample's row and
    # a sample's value does not depend on how many samples share its batch
    means = np.empty((len(times), len(chains)), dtype=complex)
    for c, (_, ops) in enumerate(chains):
        phase, ops = _merged_chain(ops)
        acc = rho0.matrix
        for key in reversed(ops[1:]):
            acc = _stack_product(heisenberg(key), acc)
        means[:, c] = phase * (np.sum(heisenberg(ops[0]) * np.swapaxes(acc, -1, -2),
                                      axis=(-2, -1)) if ops else np.trace(acc))
    if shots is not None:
        u = uniforms[:, :2 * shots * len(chains)].reshape(len(times), len(chains), 2, shots)
        outcomes = shot_means(np.stack([means.real, means.imag], axis=-1), u)
        means = outcomes[..., 0] + 1j * outcomes[..., 1]
    coeffs = np.array([coeff for coeff, _ in chains])
    return np.real(np.sum(means * coeffs, axis=1))


def _chain_terms(model, observable, t) -> tuple:
    """What every sampled order of one estimate shares: the Pauli strings of
    O and of each channel operator (``qcore.pauli_terms``), and slot 0 of
    every chain (O's strings conjugated to time t)."""
    o_terms = pauli_terms(observable)
    l_terms = [pauli_terms(ch.operator) for ch in model.channels]
    u_t = propagator_stack(model.h, [t])
    slot0 = {(lbl, 0): _heisenberg(u_t, lbl) for _, lbl in o_terms if lbl.strip("I")}
    return o_terms, l_terms, slot0


def _sample_values(model, terms, rho0, order, t, plan) -> np.ndarray:
    """Per-sample Dyson integrands of order ``order >= 1`` under ``plan``.

    ``terms`` is ``_chain_terms(model, observable, t)``.  Draws the
    ``MonteCarloPlan`` row block, expands the Pauli chains once per channel
    combination and evaluates all samples of a combination together; each
    sample's rates prod_k gamma_(i_k)(s_k) are evaluated at its own times,
    or read once from an array when every rate is a number.
    """
    o_terms, l_terms, slot0 = terms
    shots = plan.shots_per_value
    width = 2 * order
    if shots is not None:
        max_chains = len(o_terms) * max(3 * len(terms) ** 2 for terms in l_terms) ** order
        width += 2 * shots * max_chains
    rows = shot_uniforms(plan.master_seed, order, (plan.samples_per_order, width))
    indices = (rows[:, :order] * model.n_channels).astype(np.int64)
    times = np.sort(rows[:, order:2 * order] * t, axis=1)[:, ::-1]
    values = np.ones(plan.samples_per_order)
    if model._number_rates:
        rates = np.array([ch.rate(0.0) for ch in model.channels])
        for k in range(order):
            values *= rates[indices[:, k]]
    else:
        for k in range(order):
            values *= [model.channels[i].rate(s) for i, s in zip(indices[:, k], times[:, k])]
    keys = np.ravel_multi_index(tuple(indices.T), (model.n_channels,) * order)
    # the keys that occur, in ascending order (np.unique would load numpy.ma)
    for key in np.flatnonzero(np.bincount(keys)):
        sel = np.flatnonzero(keys == key)
        chains = _pauli_chains(o_terms, [l_terms[i] for i in indices[sel[0]]])
        values[sel] *= _chain_sums(chains, rho0, times[sel], model.h, slot0, shots,
                                   rows[sel, 2 * order:])
    return values


def _monte_carlo_orders(model, observable, rho0, orders, t, plan) -> list:
    """The plan's estimate of each order in ``orders``.

    Order 0 is the closed form xi_0(t) = U(t) rho0 U(t)^dag; order n >= 1 is
    (N t)^n / n! times the mean of its sampled values, all orders sharing
    one ``_chain_terms``.
    """
    terms = None
    out = []
    for n in orders:
        if n == 0:
            if t < 0.0:
                raise ValueError(f"t must be >= 0, got {t}")
            out.append(expectation(evolve(rho0, model.h, 0.0, t), observable).real)
        elif model.n_channels == 0:
            out.append(0.0)
        else:
            if terms is None:
                terms = _chain_terms(model, observable, t)
            volume_factor = (model.n_channels * t) ** n / math.factorial(n)
            values = _sample_values(model, terms, rho0, n, t, plan)
            out.append(volume_factor * float(np.mean(values)))
    return out


def reconstruct(model: LindbladModel, observable: OperatorSum,
                rho0: DensityMatrix, t: float, order: int,
                plan: MonteCarloPlan | None = None) -> Reconstruction:
    """Estimate <O>_rho(t) from the Volterra series truncated at ``order``.

    Without a plan ``per_order[n]`` is Re Tr[O xi_n(t)] with xi_n the exact
    order-n term of the block-generator propagation (Van Loan 1978; see the
    module docstring); with a plan each order n >= 1 uses uniform simplex
    sampling with the ``(N t)^n / (n! |Omega_n|) sum`` estimator, optionally
    replacing each sampled value by a k-shot coherence estimate.  Sample j
    of order n is row j of the uniform block drawn from stream
    ``(master_seed, n)`` of ``qcore.shot_uniforms``, so it depends only on
    (master_seed, n, j) (see ``MonteCarloPlan``).  Sampled values come from
    Pauli-string chains, read from the terms of O and of each Lindblad
    operator by ``qcore.pauli_terms``, so a plan needs a qubit-only space.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError(f"order capped at {MAX_ORDER} (cost guard)")
    if plan is None:
        per_order = [_expectation(observable.matrix(), xi)
                     for xi in _lindblad_terms(model, rho0, t, order)]
    else:
        per_order = _monte_carlo_orders(model, observable, rho0, range(order + 1), t, plan)
    return Reconstruction(value=float(sum(per_order)), per_order=per_order)


def truncated_states(model: LindbladModel, rho0: DensityMatrix, t: float,
                     max_order: int) -> list:
    """Dense series states [rho~_0(t), rho~_1(t), ..., rho~_max_order(t)].

    Entry n is the cumulative sum of the exact Dyson terms 0..n, all taken
    from one block-generator propagation (Van Loan 1978; see the module
    docstring).  The truncated states are not exactly trace one or
    positive; that is the point of the bounds.
    """
    return list(np.cumsum(_lindblad_terms(model, rho0, t, max_order), axis=0))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def sample_size_bound(delta_n: float, beta: float, n: int, t: float, n_channels: int,
                      m_lindblad: int, m_observable: int, gamma_bar: float) -> int:
    """Smallest |Omega_n| meeting the concentration bound
    ``36 M_O^2 (2+beta) / delta_n^2 * (2 gamma_bar M N t)^(2n) / (n!)^2``.

    Valid only for ``delta_n <= (2 gamma_bar N t)^n / n!``; larger targets
    are rejected (the concentration argument behind the formula needs it).
    """
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    validity = (2.0 * gamma_bar * n_channels * t) ** n / math.factorial(n)
    if delta_n > validity * (1.0 + 1e-12):
        raise ValueError(
            f"delta_n = {delta_n} exceeds the validity limit {validity:.6g} "
            "of the concentration bound")
    raw = (36.0 * m_observable ** 2 * (2.0 + beta) / delta_n ** 2
           * (2.0 * gamma_bar * m_lindblad * n_channels * t) ** (2 * n)
           / math.factorial(n) ** 2)
    return int(math.ceil(raw - 1e-9))


def truncation_bound(n: int, t: float, gamma_bar: float, n_channels: int) -> float:
    """Trace-distance bound (2 gamma_bar N t)^(n+1) / (2 (n+1)!)."""
    if t < 0 or gamma_bar < 0 or n_channels < 0:
        raise ValueError("arguments must be nonnegative")
    x = 2.0 * gamma_bar * n_channels * t
    return x ** (n + 1) / (2.0 * math.factorial(n + 1))


def truncation_order(eps_prime: float, t: float, gamma_bar: float, n_channels: int) -> int:
    """Smallest truncation order K with guaranteed trace-distance error
    below ``eps_prime``: K = ceil(2e gamma_bar N t + log(1/(2 eps')) - 1)."""
    if not (0.0 < eps_prime):
        raise ValueError("eps_prime must be positive")
    value = 2.0 * math.e * gamma_bar * n_channels * t + math.log(1.0 / (2.0 * eps_prime)) - 1.0
    return max(0, int(math.ceil(value)))


def total_measurements(eps: float, t: float, gamma_bar: float, n_channels: int,
                       m_lindblad: int, m_observable: int, beta: float) -> int:
    """Σ_{n=0}^K 3^n |Omega_n| with the error split evenly, c = 1/2:
    eps' = c*eps to truncation and delta_n = (1-c) eps / (K+1) to sampling."""
    if not (0.0 < eps < 1.0):
        raise ValueError("total error budget must satisfy 0 < eps < 1")
    c = 0.5
    k = truncation_order(c * eps, t, gamma_bar, n_channels)
    delta_n = (1.0 - c) * eps / (k + 1)
    total = 0
    for n in range(k + 1):
        validity = (2.0 * gamma_bar * n_channels * t) ** n / math.factorial(n)
        dn = min(delta_n, validity)  # the error split never exceeds the validity range
        total += 3 ** n * sample_size_bound(dn, beta, n, t, n_channels,
                                            m_lindblad, m_observable, gamma_bar)
    return total


def dissipator_adjoint(model: LindbladModel, omat: np.ndarray, t: float) -> np.ndarray:
    """L_D^dag applied to an observable at time ``t``."""
    acc = np.zeros_like(omat)
    for ch in model.channels:
        l = ch.operator.matrix()
        acc += apply_dissipator(l.conj().T, l, l.conj().T @ l, ch.rate(t), omat)
    return acc


def observable_bound(model: LindbladModel, observable: OperatorSum | np.ndarray,
                     n: int, t: float) -> float:
    """(||L_D^dag O||_inf / ||O||_inf) (2 gamma_bar N)^n t^(n+1) / (2(n+1)!).

    ``||L_D^dag O||_inf`` is evaluated densely, once when every rate is a
    number, else maximized over 32 equal intervals of [0, t].
    """
    omat = observable.matrix() if isinstance(observable, OperatorSum) else np.asarray(observable)
    o_norm = operator_infinity_norm(omat)
    if o_norm == 0.0:
        raise ValueError("observable must be nonzero")
    if np.max(np.abs(omat - omat.conj().T)) > 1e-10:
        raise ValueError("observable must be Hermitian")
    grid = [0.0] if model._number_rates else np.linspace(0.0, t, 33)
    ld_norm = max(operator_infinity_norm(dissipator_adjoint(model, omat, s)) for s in grid)
    gb = model.gamma_bar(t)
    return (ld_norm / o_norm) * (2.0 * gb * model.n_channels) ** n \
        * t ** (n + 1) / (2.0 * math.factorial(n + 1))


# ---------------------------------------------------------------------------
# non-Hermitian Hamiltonians
# ---------------------------------------------------------------------------

def nonhermitian_evolve(h: OperatorSum, gamma_op: OperatorSum, rho0: DensityMatrix,
                        t: float, order: int | None = None) -> DensityMatrix | np.ndarray:
    """d rho/dt = -i[H, rho] - {Gamma, rho} with J = H - i Gamma.

    ``order=None`` propagates exactly: rho(t) = e^{-iJt} rho0 e^{+iJ^dag t}
    (trace decays for positive semidefinite Gamma).  An integer order
    treats -{Gamma, .} as the perturbation of -i[H, .] and sums the exact
    Dyson terms 0..order of the block-generator propagation (Van Loan
    1978; see the module docstring).  A negative ``t`` raises ``ValueError``
    on both routes.
    """
    hm, gm = h.matrix(), gamma_op.matrix()
    for name, m in (("H", hm), ("Gamma", gm)):
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError(f"{name} must be Hermitian")
    gamma_psd = bool(np.linalg.eigvalsh(gm)[0] >= -1e-12)

    if order is None:
        if t < 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        j = hm - 1j * gm
        u = expm(-1j * j * t)
        rho = u @ rho0.matrix @ u.conj().T
        tr = float(np.real(np.trace(rho)))
        if gamma_psd and tr > 1.0 + 1e-6:
            raise ValueError(
                f"trace grew to {tr:.8f} although Gamma is positive semidefinite; "
                "check the inputs")
        return DensityMatrix(h.space, 0.5 * (rho + rho.conj().T), check_trace=False)

    parts = (lambda s, x: -1j * (hm @ x - x @ hm), lambda s, x: -(gm @ x + x @ gm))
    return sum(_dyson_blocks(parts, rho0.matrix, t, order, DEFAULT_TOL, constant=True))


def nonhermitian_bound(gamma_op: OperatorSum, n: int, t: float) -> float:
    """(2 ||Gamma||_inf t)^(n+1) / (2 (n+1)!) from ||L_Gamma||_{1->1} <= 2||Gamma||_inf."""
    g_norm = gamma_op.norm_inf()
    return (2.0 * g_norm * t) ** (n + 1) / (2.0 * math.factorial(n + 1))
