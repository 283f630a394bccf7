"""Open-system dynamics by unitary means: exact Lindblad propagation, the
truncated Volterra/Dyson reconstruction of observables from multi-time
correlators, single-shot Monte-Carlo integration over the time simplex,
and the rigorous error-bound calculators (trace-distance, observable,
sample-size, measurement totals, and the non-Hermitian variant).

The series terms themselves are computed exactly: for a generator
L0(s) + LP(s) truncated at order n, [vec rho0, 0, ..., 0] is propagated
under the block-bidiagonal generator ``B(s) = I_(n+1) kron L0(s) +
S kron LP(s)`` (S the sub-diagonal shift), and block k of the result is
the order-k simplex integral (Van Loan, IEEE TAC 23 (1978) 395).

The Monte-Carlo estimator samples the simplex instead.  Order n draws one
block of uniforms from ``Philox(key=(master_seed, n))``, one row per
sample (channel indices, times, shot uniforms; see ``MonteCarloPlan``).
The nested dissipators are expanded into Pauli-string chains once per
channel combination, and the chain means of all samples sharing that
combination are evaluated together on the stacked propagators U(0, tau)
of ``qcore.propagator_stack``.

Vectorization is column-stacking throughout: ``vec(A X B) = (B^T kron A)
vec(X)``, so superoperator matrices are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    Schedule,
    dense_pauli,
    expm,
    integrate,
    kron_all,
    pauli_decompose,
    propagator,
    propagator_stack,
)
from .qcore.metrics import operator_infinity_norm
from .timecorr import heisenberg_chain_expectation

_GAMMA_SUP_SAMPLES = 1024


def _as_rate(gamma) -> Callable[[float], float]:
    if callable(gamma):
        return gamma
    g = float(gamma)
    return lambda t: g


@dataclass(frozen=True)
class Channel:
    operator: OperatorSum
    rate: Callable[[float], float]
    norm_scale: float  # infinity norm absorbed from the raw operator


class LindbladModel:
    """Hermitian generator plus (Lindblad operator, rate) channels.

    Each Lindblad operator is rescaled at construction to infinity norm 1,
    the factor being absorbed into the rate (the master equation is
    invariant under ``L -> L/s, gamma -> s^2 gamma``).  Rates may be
    time-dependent and transiently negative; ``has_negative_rates`` records
    the sign pattern seen on a dense sampling grid.
    """

    def __init__(self, h: Schedule | OperatorSum, channels: Sequence,
                 horizon: float = 1.0):
        if isinstance(h, OperatorSum):
            h = Schedule.constant(h)
        self.h = h
        self.space: HilbertSpace = h.space
        built = []
        for op, gamma in channels:
            scale = op.norm_inf()
            if scale <= 0.0:
                raise ValueError("Lindblad operator must be nonzero")
            rate = _as_rate(gamma)
            built.append(Channel(operator=(1.0 / scale) * op,
                                 rate=(lambda t, r=rate, s=scale: (s ** 2) * r(t)),
                                 norm_scale=scale))
        self.channels = tuple(built)
        self.horizon = float(horizon)
        self.has_negative_rates = bool(
            (self._rate_samples(self.horizon) < 0.0).any()) if built else False

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def _rate_samples(self, t: float) -> np.ndarray:
        grid = np.linspace(0.0, t, _GAMMA_SUP_SAMPLES + 1)
        return np.array([[ch.rate(s) for s in grid] for ch in self.channels])

    def gamma_bar(self, t: float | None = None) -> float:
        """max_i sup_{s in [0,t]} |gamma_i(s)|.

        Approximated by dense sampling (1024 intervals, endpoints included);
        an exact supremum is not available for arbitrary rate callables.
        """
        if not self.channels:
            return 0.0
        return float(np.max(np.abs(self._rate_samples(self.horizon if t is None else t))))


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, d, order="F")


def _expectation(omat: np.ndarray, xi: np.ndarray) -> float:
    return float(np.real(np.trace(omat @ xi)))


def _commutator_generator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, .] (column stacking)."""
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (kron_all([eye, h]) - kron_all([h.T, eye]))


def _generator_parts(model: LindbladModel, t: float) -> tuple:
    """(L_H, L_D): the Hamiltonian and dissipator superoperators at time ``t``."""
    d = model.space.dim
    eye = np.eye(d, dtype=complex)
    l_h = _commutator_generator(model.h.matrix_at(t))
    l_d = np.zeros_like(l_h)
    for ch in model.channels:
        l = ch.operator.matrix()
        g = ch.rate(t)
        ldl = l.conj().T @ l
        l_d += g * (kron_all([l.conj(), l])
                    - 0.5 * kron_all([eye, ldl])
                    - 0.5 * kron_all([ldl.T, eye]))
    return l_h, l_d


def liouvillian_matrix(model: LindbladModel, t: float) -> np.ndarray:
    """Dense superoperator of the master equation at time ``t`` (column stacking)."""
    l_h, l_d = _generator_parts(model, t)
    return l_h + l_d


def _rates_constant(model: LindbladModel, t: float) -> bool:
    """True when H is constant and every rate takes one value at 7 times in [0, t]."""
    if model.h.is_constant is False:
        return False
    for ch in model.channels:
        vals = [ch.rate(s) for s in np.linspace(0.0, t, 7)]
        if max(vals) - min(vals) > 1e-14 * max(1.0, abs(vals[0])):
            return False
    return True


def _propagate(generator: Callable[[float], np.ndarray], v0: np.ndarray, t: float,
               tol: float, constant: bool) -> np.ndarray:
    """v(t) for dv/ds = generator(s) v, v(0) = v0.

    A constant generator gets one matrix exponential; otherwise the
    adaptive stepper runs at ``rtol=tol``, ``atol=tol*1e-2``.  A negative
    ``t`` raises ``ValueError``: the master equation is not run backwards.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if constant:
        return expm(generator(0.0) * t) @ v0
    return integrate(lambda s, y: generator(s) @ y, v0, 0.0, t, tol)


def lindblad_exact(model: LindbladModel, rho0: DensityMatrix, t: float,
                   tol: float = 1e-10) -> DensityMatrix:
    """Integrate the master equation on the vectorized superoperator.

    Time-independent generators get one matrix exponential; otherwise the
    adaptive stepper runs on vec(rho).  A negative ``t`` raises ``ValueError``.
    """
    if rho0.space != model.space:
        raise ValueError("initial state does not live on the model's space")
    if t == 0.0:
        return rho0
    v = _propagate(lambda s: liouvillian_matrix(model, s), _vec(rho0.matrix), t, tol,
                   _rates_constant(model, t))
    rho = _unvec(v, model.space.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(model.space, rho)


def _dyson_blocks(parts: Callable[[float], tuple], rho0: np.ndarray, t: float,
                  order: int, tol: float, constant: bool) -> list:
    """Dyson terms [xi_0(t), ..., xi_order(t)] of dx/ds = (L0(s) + LP(s)) x, x(0) = rho0.

    ``parts(s)`` returns (L0(s), LP(s)); xi_k holds k insertions of LP.
    [vec rho0, 0, ..., 0] is propagated under B(s) = I kron L0(s) +
    S kron LP(s), S the sub-diagonal shift, so block k obeys
    d xi_k/ds = L0 xi_k + LP xi_(k-1): exactly the order-k simplex integral
    (Van Loan, IEEE TAC 23 (1978) 395).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    d = rho0.shape[0]
    eye, shift = np.eye(order + 1), np.eye(order + 1, k=-1)

    def generator(s):
        l0, lp = parts(s)
        return kron_all([eye, l0]) + kron_all([shift, lp])

    v0 = np.zeros((order + 1) * d * d, dtype=complex)
    v0[:d * d] = _vec(rho0)
    v = _propagate(generator, v0, t, tol, constant)
    return [_unvec(block, d) for block in v.reshape(order + 1, d * d)]


def _lindblad_terms(model: LindbladModel, rho0: DensityMatrix, t: float, order: int,
                    tol: float) -> list:
    """Dyson terms of the master equation with L0 = L_H and LP = L_D."""
    return _dyson_blocks(lambda s: _generator_parts(model, s), rho0.matrix, t, order,
                         tol, _rates_constant(model, t))


# ---------------------------------------------------------------------------
# Dyson terms
# ---------------------------------------------------------------------------

def _dissipator_apply(l: np.ndarray, ldl: np.ndarray, g: float, xi: np.ndarray) -> np.ndarray:
    return g * (l @ xi @ l.conj().T - 0.5 * (ldl @ xi + xi @ ldl))


def dyson_term(model: LindbladModel, observable: OperatorSum | np.ndarray,
               rho0: DensityMatrix, channel_indices: Sequence[int],
               times: Sequence[float], t: float, tol: float = 1e-10,
               debug_expand: bool = False) -> float:
    """Integrand <A_{[i_1..i_n]}(s_1..s_n)> of the order-n Volterra term.

    ``times`` must be sorted descending (t >= s_1 >= ... >= s_n >= 0); the
    chain applies the channel dissipators at those instants between unitary
    segments and closes with Tr[O ...].  With ``debug_expand`` the same
    quantity is recomputed through Pauli-expanded multi-time correlators
    and the two paths are asserted to agree.
    """
    times = [float(s) for s in times]
    n = len(times)
    if len(channel_indices) != n:
        raise ValueError("one channel index per time required")
    if any(b > a for a, b in zip(times, times[1:])) or (n and times[0] > t):
        raise ValueError("times must satisfy t >= s_1 >= ... >= s_n >= 0")
    omat = observable.matrix() if isinstance(observable, OperatorSum) else np.asarray(observable)

    def conjugate(mat, a, b):
        u = propagator(model.h, a, b, tol)
        return u @ mat @ u.conj().T

    xi = rho0.matrix
    current = 0.0
    for k in range(n - 1, -1, -1):
        s_k = times[k]
        xi = conjugate(xi, current, s_k)
        ch = model.channels[channel_indices[k]]
        l = ch.operator.matrix()
        xi = _dissipator_apply(l, l.conj().T @ l, ch.rate(s_k), xi)
        current = s_k
    value = _expectation(omat, conjugate(xi, current, t))

    if debug_expand:
        alt = _dyson_term_by_correlators(model, omat, rho0, channel_indices, times, t, tol)
        if abs(alt - value) > 1e-8 * max(1.0, abs(value)):
            raise AssertionError(
                f"dual-path mismatch: superoperator {value:.3e} vs expansion {alt:.3e}")
    return value


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


def _dyson_term_by_correlators(model, omat, rho0, channel_indices, times, t, tol) -> float:
    """Same quantity as a sum of Pauli-string multi-time correlators.

    Every chain from ``_pauli_chains`` is evaluated by the generic
    Heisenberg-chain oracle.
    """
    chains = _pauli_chains(pauli_decompose(omat, model.space),
                           [pauli_decompose(model.channels[i].operator)
                            for i in channel_indices])
    slot_times = [t] + list(times)
    weight = math.prod(model.channels[i].rate(s) for i, s in zip(channel_indices, times))
    total = 0.0 + 0.0j
    for coeff, ops in chains:
        total += coeff * heisenberg_chain_expectation(
            model.h, [(dense_pauli(lbl), slot_times[slot]) for lbl, slot in ops], rho0,
            t_ref=0.0, tol=tol)
    return float(np.real(weight * total))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloPlan:
    """Uniform simplex sampling, ``samples_per_order`` samples per order n >= 1.

    Order n draws all its uniforms at once, one ``(samples_per_order, w)``
    block from ``Philox(key=(master_seed, n))``.  Row j belongs to sample j:
    n channel indices ``floor(u * N)``, then n times ``u * t`` sorted
    descending, then (with k shots) 2k uniforms per Pauli chain, real parts
    first.  The width w is fixed by the model and k, not by what was drawn,
    so sample j is a pure function of (master_seed, n, j) and a plan with
    fewer samples sees a prefix of the same rows.
    """
    samples_per_order: int
    master_seed: int = 0
    shots_per_value: int | None = None  # None: exact single-sample values

    def __post_init__(self):
        if self.samples_per_order < 1:
            raise ValueError("samples_per_order must be >= 1")
        if self.shots_per_value is not None and self.shots_per_value < 1:
            raise ValueError("shots_per_value must be None or >= 1")


@dataclass
class Reconstruction:
    value: float
    per_order: list
    mode: str


def _chain_sums(chains, paulis, rho0, times, t, h, tol, shots, uniforms) -> np.ndarray:
    """Re sum_c coeff_c * mean_c for samples sharing one channel combination.

    ``times`` is (M, n), sorted descending per row.  Each distinct Pauli is
    conjugated once per time slot over the stacked U(0, tau); every chain is
    multiplied against rho0 for all M samples at once.  With ``shots`` the
    chain means' real and imaginary parts become means of k +-1 coherence
    outcomes drawn from ``uniforms`` (M, 2k * chains).
    """
    us = [propagator_stack(h, [t], tol)] + [propagator_stack(h, times[:, k], tol)
                                            for k in range(times.shape[1])]
    heis = {}
    # sample-major, so every reduction below runs along one sample's row and
    # a sample's value does not depend on how many samples share its batch
    means = np.empty((len(times), len(chains)), dtype=complex)
    for c, (_, ops) in enumerate(chains):
        acc = rho0.matrix
        for key in reversed(ops):
            if key not in heis:
                lbl, slot = key
                heis[key] = us[slot].conj().transpose(0, 2, 1) @ paulis[lbl] @ us[slot]
            acc = heis[key] @ acc
        means[:, c] = np.einsum("mii->m", acc)
    if shots is not None:
        u = uniforms[:, :2 * shots * len(chains)].reshape(len(times), len(chains), 2, shots)
        p = np.clip(0.5 * (1.0 + np.clip(np.stack([means.real, means.imag], axis=-1),
                                          -1.0, 1.0)), 0.0, 1.0)
        outcomes = np.where(u < p[..., None], 1.0, -1.0).mean(axis=-1)
        means = outcomes[..., 0] + 1j * outcomes[..., 1]
    coeffs = np.array([coeff for coeff, _ in chains])
    return np.real(np.sum(means * coeffs, axis=1))


def _sample_values(model, omat, rho0, order, t, plan, tol) -> np.ndarray:
    """Per-sample Dyson integrands of order ``order >= 1`` under ``plan``.

    Draws the ``MonteCarloPlan`` row block, expands the Pauli chains once per
    channel combination and evaluates all samples of a combination together;
    each sample's rates prod_k gamma_(i_k)(s_k) are evaluated at its own times.
    """
    o_terms = pauli_decompose(omat, model.space)
    l_terms = [pauli_decompose(ch.operator) for ch in model.channels]
    paulis = {lbl: dense_pauli(lbl) for _, lbl in o_terms + sum(l_terms, [])}
    shots = plan.shots_per_value
    width = 2 * order
    if shots is not None:
        max_chains = len(o_terms) * max(3 * len(terms) ** 2 for terms in l_terms) ** order
        width += 2 * shots * max_chains
    rng = np.random.Generator(np.random.Philox(key=(plan.master_seed, order)))
    rows = rng.random((plan.samples_per_order, width))
    indices = (rows[:, :order] * model.n_channels).astype(np.int64)
    times = np.sort(rows[:, order:2 * order] * t, axis=1)[:, ::-1]
    values = np.ones(plan.samples_per_order)
    for k in range(order):
        values *= [model.channels[i].rate(s) for i, s in zip(indices[:, k], times[:, k])]
    combos, which = np.unique(indices, axis=0, return_inverse=True)
    for c, combo in enumerate(combos):
        sel = np.flatnonzero(which.reshape(-1) == c)
        chains = _pauli_chains(o_terms, [l_terms[i] for i in combo])
        values[sel] *= _chain_sums(chains, paulis, rho0, times[sel], t, model.h, tol,
                                   shots, rows[sel, 2 * order:])
    return values


def _order_contribution_monte_carlo(model, omat, rho0, order, t, plan, tol) -> float:
    if order == 0:
        return _expectation(omat, _lindblad_terms(model, rho0, t, 0, tol)[0])
    n_ch = model.n_channels
    if n_ch == 0:
        return 0.0
    volume_factor = (n_ch * t) ** order / math.factorial(order)
    values = _sample_values(model, omat, rho0, order, t, plan, tol)
    return volume_factor * float(np.mean(values))


def reconstruct(model: LindbladModel, observable: OperatorSum | np.ndarray,
                rho0: DensityMatrix, t: float, order: int,
                plan: MonteCarloPlan | None = None, tol: float = 1e-10) -> Reconstruction:
    """Estimate <O>_rho(t) from the Volterra series truncated at ``order``.

    Without a plan ``per_order[n]`` is Re Tr[O xi_n(t)] with xi_n the exact
    order-n term of the block-generator propagation (Van Loan 1978; see the
    module docstring); with a plan each order n >= 1 uses uniform simplex
    sampling with the ``(N t)^n / (n! |Omega_n|) sum`` estimator, optionally
    replacing each sampled value by a k-shot coherence estimate.  Sample j
    of order n is row j of the uniform block drawn from
    ``Philox(key=(master_seed, n))``, so it depends only on
    (master_seed, n, j) (see ``MonteCarloPlan``).  Sampled values come from
    Pauli-string chains, so a plan needs a qubit-only space (at most 6
    qubits, the ``pauli_decompose`` cap).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > 6:
        raise ValueError("order capped at 6 (cost guard)")
    omat = observable.matrix() if isinstance(observable, OperatorSum) else np.asarray(observable)
    if plan is None:
        per_order = [_expectation(omat, xi)
                     for xi in _lindblad_terms(model, rho0, t, order, tol)]
    else:
        per_order = [_order_contribution_monte_carlo(model, omat, rho0, n, t, plan, tol)
                     for n in range(order + 1)]
    return Reconstruction(value=float(sum(per_order)), per_order=per_order,
                          mode="exact" if plan is None else "monte-carlo")


def truncated_states(model: LindbladModel, rho0: DensityMatrix, t: float,
                     max_order: int, tol: float = 1e-10) -> list:
    """Dense series states [rho~_0(t), rho~_1(t), ..., rho~_max_order(t)].

    Entry n is the cumulative sum of the exact Dyson terms 0..n, all taken
    from one block-generator propagation (Van Loan 1978; see the module
    docstring).  The truncated states are not exactly trace one or
    positive; that is the point of the bounds.
    """
    return list(np.cumsum(_lindblad_terms(model, rho0, t, max_order, tol), axis=0))


def truncated_state(model: LindbladModel, rho0: DensityMatrix, t: float,
                    order: int, tol: float = 1e-10) -> np.ndarray:
    """Dense matrix of the series state truncated at ``order``."""
    return truncated_states(model, rho0, t, order, tol)[-1]


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
                       m_lindblad: int, m_observable: int, beta: float,
                       c: float = 0.5) -> int:
    """Σ_{n=0}^K 3^n |Omega_n| with the error split eps' = c*eps and
    delta_n = (1-c) eps / (K+1)."""
    if not (0.0 < eps < 1.0):
        raise ValueError("total error budget must satisfy 0 < eps < 1")
    if not (0.0 < c < 1.0):
        raise ValueError("c must sit strictly between 0 and 1")
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
        ldl = l.conj().T @ l
        acc += ch.rate(t) * (l.conj().T @ omat @ l - 0.5 * (ldl @ omat + omat @ ldl))
    return acc


def observable_bound(model: LindbladModel, observable: OperatorSum | np.ndarray,
                     n: int, t: float) -> float:
    """(||L_D^dag O||_inf / ||O||_inf) (2 gamma_bar N)^n t^(n+1) / (2(n+1)!).

    ``||L_D^dag O||_inf`` is evaluated densely and maximized over the
    rate-sampling grid when rates are time-dependent.
    """
    omat = observable.matrix() if isinstance(observable, OperatorSum) else np.asarray(observable)
    o_norm = operator_infinity_norm(omat)
    if o_norm == 0.0:
        raise ValueError("observable must be nonzero")
    if np.max(np.abs(omat - omat.conj().T)) > 1e-10:
        raise ValueError("observable must be Hermitian")
    grid = np.linspace(0.0, t, 33)
    ld_norm = max(operator_infinity_norm(dissipator_adjoint(model, omat, s)) for s in grid)
    gb = model.gamma_bar(t)
    return (ld_norm / o_norm) * (2.0 * gb * model.n_channels) ** n \
        * t ** (n + 1) / (2.0 * math.factorial(n + 1))


# ---------------------------------------------------------------------------
# non-Hermitian Hamiltonians
# ---------------------------------------------------------------------------

def nonhermitian_evolve(h: OperatorSum, gamma_op: OperatorSum, rho0: DensityMatrix,
                        t: float, order: int | None = None,
                        tol: float = 1e-10) -> DensityMatrix | np.ndarray:
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
    space = h.space

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
        return DensityMatrix(space, 0.5 * (rho + rho.conj().T), check_trace=False)

    eye = np.eye(space.dim, dtype=complex)
    parts = (_commutator_generator(hm), -(kron_all([eye, gm]) + kron_all([gm.T, eye])))
    return np.asarray(sum(_dyson_blocks(lambda s: parts, rho0.matrix, t, order, tol,
                                        constant=True)))


def nonhermitian_bound(gamma_op: OperatorSum, n: int, t: float) -> float:
    """(2 ||Gamma||_inf t)^(n+1) / (2 (n+1)!) from ||L_Gamma||_{1->1} <= 2||Gamma||_inf."""
    g_norm = gamma_op.norm_inf()
    return (2.0 * g_norm * t) ** (n + 1) / (2.0 * math.factorial(n + 1))
