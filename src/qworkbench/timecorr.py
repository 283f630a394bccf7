"""Ancilla-based n-time correlation functions and linear-response quantities.

The protocol measures ``<O_{n-1}(t_{n-1}) ... O_0(t_0)>`` by entangling the
system with one probe qubit: the ancilla starts in ``(|e> + |g>)/sqrt(2)``,
controlled gates ``exp(-i |g><g| (x) (pi/2) O_k)`` interleave with segments
of the system evolution, and the correlator is read off the final ancilla
coherence as ``i^n (<sigma_x> + i <sigma_y>)``.

The ancilla is only ever a control, so the protocol is simulated on the
system space alone.  Its two branches evolve separately: the |e> branch
sees only the segment propagators, the |g> branch sees the gates
interleaved with them, and the coherence ``<sigma_x> + i <sigma_y> =
2 rho_ge`` is the branch overlap ``<psi_e|psi_g>`` (``Tr(U_e^dag W rho)``
for a mixed state).  The segment propagators depend only on the evolution
and the times, so each correlator computes them once and every chain of
gates reuses them.  One loop, ``_protocol_sum``, runs every chain; the
bosonic variant puts its finite-difference stencil into the gate.

Conventions fixed here:

* controlled gates act on the ``|g> = |1>`` branch;
* operator times are nondecreasing, the LEFTMOST operator in the
  correlator carries the LATEST time, and Heisenberg operators are taken
  relative to the first time in the list (the state is prepared at
  ``t = times[0]``).

Shot sampling draws chain j's outcomes from stream ``(master_seed, j)`` of
``qcore.shot_uniforms``, so results are bit-identical under any parallel
evaluation order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    HilbertSpace,
    OperatorSum,
    PureState,
    Qubit,
    Schedule,
    check_count,
    check_stream_key,
    evolve,
    expectation,
    expm,
    pauli_terms,
    propagator,
    shot_means,
    shot_uniforms,
)
from .qcore.operators import PAULI_LABELS, dense_pauli
from .qcore.spaces import DimensionMismatchError


@dataclass(frozen=True)
class ShotPlan:
    """Sampling plan: total shots, split evenly between sigma_x and sigma_y."""

    shots: int
    master_seed: int = 0

    def __post_init__(self):
        check_count(self.shots, "shots")
        check_stream_key(self.master_seed, "master_seed")


@dataclass(frozen=True)
class CorrelationSpec:
    """What to correlate: evolution, ordered times, operators, initial state."""

    evolution: Schedule
    times: tuple
    operators: tuple
    initial: PureState | DensityMatrix
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "operators", tuple(self.operators))
        n = len(self.times)
        if n < 1 or len(self.operators) != n:
            raise ValueError("need n >= 1 operators with one time each")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be nondecreasing")
        for op in self.operators:
            if op.space != self.system:
                raise DimensionMismatchError("operator does not live on the system space")
        if self.initial.space != self.system:
            raise DimensionMismatchError("initial state does not live on the system space")

    @property
    def system(self) -> HilbertSpace:
        return self.evolution.space

    @property
    def order(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def heisenberg_chain_expectation(evolution: Schedule, chain: Sequence,
                                 initial: PureState | DensityMatrix,
                                 t_ref: float = 0.0, tol: float = 1e-10) -> complex:
    """<M_1(tau_1) M_2(tau_2) ... M_m(tau_m)> for an arbitrary left-to-right chain.

    ``chain`` is a sequence of ``(matrix, time)``; times may be in any
    order (backward propagators are the adjoints of forward ones).  This is
    the package's general-purpose matrix oracle for multi-time products.
    """
    us = {}  # U(t; t_ref), one per distinct time
    for _, t in chain:
        if t not in us:
            us[t] = propagator(evolution, t_ref, t, tol) if t >= t_ref else \
                propagator(evolution, t, t_ref, tol).conj().T
    mats = [us[t].conj().T @ np.asarray(m, dtype=complex) @ us[t] for m, t in chain]
    if isinstance(initial, PureState):
        vec = initial.amplitudes
        acc = vec
        for m in reversed(mats):
            acc = m @ acc
        return complex(np.vdot(vec, acc))
    acc = initial.matrix
    for m in reversed(mats):
        acc = m @ acc
    return complex(np.trace(acc))


def correlation_exact(spec: CorrelationSpec) -> complex:
    """Direct matrix evaluation of ``<O_{n-1}(t_{n-1}) ... O_0(t_0)>``."""
    chain = [(op.matrix(), t) for op, t in
             zip(reversed(spec.operators), reversed(spec.times))]
    return heisenberg_chain_expectation(spec.evolution, chain, spec.initial,
                                        t_ref=spec.times[0], tol=spec.tol)


# ---------------------------------------------------------------------------
# ancilla protocol
# ---------------------------------------------------------------------------

def _protocol_terms(op: OperatorSum) -> list:
    """Expand an operator into ``(coeff, unitary-Hermitian matrix)`` terms.

    On a qubit-only space these are the Pauli strings of
    ``qcore.pauli_terms``, in its sorted label order, so chain j of a
    correlator keeps its shot stream.  With bosonic factors only a scalar
    multiple of a Pauli string (identity on every mode) is accepted, as one
    term.
    """
    space = op.space
    if space.is_qubit_only:
        return [(q, dense_pauli(lbl)) for q, lbl in pauli_terms(op)]
    if len(op.terms) == 1:
        coeff, factors = op.terms[0]
        if all((code in PAULI_LABELS) if isinstance(f, Qubit) else (code == "I")
               for f, code in zip(space.factors, factors)):
            return [(coeff, OperatorSum(space, [(1.0, factors)]).matrix())]
    raise ValueError(
        "operator is not a scalar multiple of a Pauli string and the "
        "space has bosonic factors; cannot expand for the ancilla protocol"
    )


def _segment_propagators(spec: CorrelationSpec) -> list:
    """V_k = U(t_{k+1}, t_k) for the n-1 evolution segments of ``spec``."""
    return [propagator(spec.evolution, a, b, spec.tol)
            for a, b in zip(spec.times, spec.times[1:])]


def _branch_coherence(initial, gates: Sequence[np.ndarray],
                      segments: Sequence[np.ndarray]) -> complex:
    """Final ancilla coherence ``<sigma_x> + i <sigma_y>`` of the protocol.

    The |e> branch gets only the segment propagators, the |g> branch the
    gates interleaved with them; the coherence is their overlap.  A mixed
    state starts |e> from the identity and |g> from rho, so the same
    ``vdot`` gives ``Tr(U_e^dag W rho)``.
    """
    if isinstance(initial, PureState):
        e = g = initial.amplitudes
    else:
        e, g = np.eye(initial.space.dim, dtype=complex), initial.matrix
    g = gates[0] @ g
    for v, gate in zip(segments, gates[1:]):
        e = v @ e
        g = gate @ (v @ g)
    return complex(np.vdot(e, g))


def _protocol_sum(spec: CorrelationSpec, per_op: Sequence,
                  plan: ShotPlan | None = None) -> complex:
    """Sum over chains of ``i^n`` x coefficient product x ancilla coherence.

    ``per_op[k]`` lists operator k's ``(coeff, gate)`` terms; a chain takes
    one term per operator, in ``itertools.product`` order, and runs the
    protocol once over segment propagators computed once for all chains.
    With ``plan`` the coherence of chain j is estimated from
    ``ceil(shots/2)`` sigma_x outcomes and as many sigma_y outcomes
    (physically one cannot measure both in the same shot), drawn from the
    stream ``(master_seed, j)``.
    """
    phase = 1j ** spec.order
    segments = _segment_propagators(spec)
    total = 0.0 + 0.0j
    for chain_idx, combo in enumerate(itertools.product(*per_op)):
        coeff = 1.0 + 0.0j
        gates = []
        for c, gate in combo:
            coeff *= c
            gates.append(gate)
        coherence = _branch_coherence(spec.initial, gates, segments)
        if plan is not None:  # ceil(shots/2) sigma_x, then as many sigma_y outcomes
            u = shot_uniforms(plan.master_seed, chain_idx, (2, -(-plan.shots // 2)))
            coherence = complex(*shot_means([coherence.real, coherence.imag], u))
        total += coeff * phase * coherence
    return total


def correlation_ancilla(spec: CorrelationSpec, plan: ShotPlan | None = None) -> complex:
    """Correlator via the probe-qubit protocol.

    On a qubit-only space each operator is read as its Pauli strings
    (``qcore.pauli_terms``; a zero-weight string drops out); with bosonic
    factors it must be a scalar multiple of one Pauli string.  Each string
    P is the gate ``exp(-i (pi/2) P) = -i P``, and :func:`_protocol_sum`
    sums the products of the expansions, so with ``plan`` chain j draws
    from the stream ``(master_seed, j)``.
    """
    per_op = [[(c, -1j * pauli) for c, pauli in _protocol_terms(op)]
              for op in spec.operators]
    return _protocol_sum(spec, per_op, plan)


# ---------------------------------------------------------------------------
# bosonic variant: derivative of the ancilla signal
# ---------------------------------------------------------------------------

def _is_flagged_bosonic(op: OperatorSum) -> bool:
    """True for a single term: Pauli letters on qubits, one (a+a^dag) factor."""
    if len(op.terms) != 1:
        return False
    _, factors = op.terms[0]
    n_x = 0
    for f, code in zip(op.space.factors, factors):
        if isinstance(f, Qubit):
            if code not in PAULI_LABELS:
                return False
        else:
            if code == "x":
                n_x += 1
            elif code != "I":
                return False
    return n_x == 1


def correlation_bosonic(spec: CorrelationSpec, h: float = 1e-3,
                        richardson: int = 1) -> complex:
    """Correlator with spin-boson factors ``P (x) (a + a^dag)``.

    A flagged operator ``c B``, ``B = P (x) (a + a^dag)``, is the derivative
    of the ancilla signal with respect to the angle theta of its gate
    ``exp(-i theta B)`` at zero: a central difference with step ``h``
    (finite, >= 1e-8), extrapolated by one Richardson level if
    ``richardson`` is 1 and not if it is 0.  The coherence is linear in
    each gate and the signals here are exact, so the stencil may act on
    the gate: the operator becomes one term ``(c, G)``, G the stencil of
    gates, and the protocol runs once per chain.  Were shots sampled, each
    stencil point would be its own experiment with its own stream.  Other
    operators must be plain Pauli strings, with pi/2 gates.  A flagged
    operator of weight 0 gives 0j, as in ``correlation_exact``.
    """
    if richardson not in (0, 1):
        raise ValueError(f"richardson must be 0 or 1, got {richardson!r}")
    if not (math.isfinite(h) and h >= 1e-8):
        raise ValueError(f"h must be a finite derivative step >= 1e-8, got {h!r}")

    def central(b: np.ndarray, s: float) -> np.ndarray:
        return (expm(-1j * s * b) - expm(1j * s * b)) / (2.0 * s)

    per_op = []
    for op in spec.operators:
        if _is_flagged_bosonic(op):
            coeff, factors = op.terms[0]
            b = OperatorSum(spec.system, [(1.0, factors)]).matrix()
            gate = central(b, h)
            if richardson:
                gate = (4.0 * central(b, h / 2.0) - gate) / 3.0
            per_op.append([(coeff, gate)] if coeff else [])
        else:
            terms = _protocol_terms(op)
            if len(terms) != 1:
                raise ValueError("non-flagged operators must be plain Pauli strings here")
            per_op.append([(c, -1j * pauli) for c, pauli in terms])
    return _protocol_sum(spec, per_op)


# ---------------------------------------------------------------------------
# fermionic variant: Jordan-Wigner expansion
# ---------------------------------------------------------------------------

def jordan_wigner_terms(space: HilbertSpace, mode: int, dagger: bool) -> list:
    """(coeff, label) Pauli expansion of b_mode or b^dag_mode.

    ``b^dag_p -> sigma^+_p (x) prod_{r<p} sigma^z_r`` with the occupied
    level at the computational |0> (= |e>).  sigma^pm = (X +- iY)/2 expands
    each ladder operator into two Pauli strings.
    """
    m = space.n_factors
    if not space.is_qubit_only or mode >= m or mode < 0:
        raise ValueError("mode index out of range for the qubit register")
    prefix = "Z" * mode
    suffix = "I" * (m - mode - 1)
    sign = 1.0j if dagger else -1.0j
    return [(0.5, prefix + "X" + suffix), (0.5 * sign, prefix + "Y" + suffix)]


def fermion_operator_dense(space: HilbertSpace, mode: int, dagger: bool) -> np.ndarray:
    """Occupation-number construction of the same operator (oracle path).

    Walks computational basis states, applying the phase
    ``prod_{r<mode} (+1 if occupied else -1)`` and flipping the target
    occupation; no Pauli matrices involved.
    """
    m = space.n_factors
    d = 2 ** m
    out = np.zeros((d, d), dtype=complex)
    for idx in range(d):
        bits = [(idx >> (m - 1 - r)) & 1 for r in range(m)]  # 0 = occupied (|e>)
        occupied = bits[mode] == 0
        if dagger == occupied:
            continue  # annihilating an empty mode or creating on an occupied one
        phase = 1.0
        for r in range(mode):
            phase *= 1.0 if bits[r] == 0 else -1.0
        new_bits = list(bits)
        new_bits[mode] = 0 if dagger else 1
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        out[new_idx, idx] = phase
    return out


def correlation_fermionic(evolution: Schedule, entries: Sequence, state,
                          plan: ShotPlan | None = None) -> complex:
    """``<b(dag)_{p_{n-1}}(t_{n-1}) ... b(dag)_{p_0}(t_0)>`` via the ancilla protocol.

    ``entries`` is a sequence of ``(mode, dagger, time)`` with nondecreasing
    times, ordered like the operator list of :class:`CorrelationSpec`
    (entry 0 = earliest = rightmost in the correlator).  Each Jordan-Wigner
    operator becomes an ``OperatorSum`` of its two Pauli strings, and the
    correlator is :func:`correlation_ancilla` of them, so with ``plan``
    chain j draws from the stream ``(master_seed, j)``.
    """
    space = evolution.space
    ops = tuple(OperatorSum(space, [(c, tuple(lbl)) for c, lbl in
                                    jordan_wigner_terms(space, p, dg)])
                for p, dg, _ in entries)
    spec = CorrelationSpec(evolution, tuple(t for _, _, t in entries), ops, state)
    return correlation_ancilla(spec, plan)


# ---------------------------------------------------------------------------
# linear response
# ---------------------------------------------------------------------------

def _two_time_correlator(h0: Schedule, a: OperatorSum, b: OperatorSum, state,
                         tau: float, tol: float) -> complex:
    """<B(tau) A(0)> through the protocol machinery."""
    spec = CorrelationSpec(h0, (0.0, tau), (a, b), state, tol=tol)
    if _is_flagged_bosonic(b) or _is_flagged_bosonic(a):
        return correlation_bosonic(spec)
    return correlation_ancilla(spec)


def response_function(h0: Schedule, a: OperatorSum, b: OperatorSum, state,
                      t_grid: Sequence, tol: float = 1e-10) -> np.ndarray:
    """phi(t) = i <[B(t), A(0)]> on the grid, from ancilla correlators.

    For Hermitian A and B the commutator expectation is ``2i Im <B(t)A(0)>``
    so a single protocol per grid point suffices; the conjugate ordering is
    implied.
    """
    for name, op in (("A", a), ("B", b)):
        mat = op.matrix()
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError(f"{name} must be Hermitian")
    out = np.empty(len(t_grid), dtype=float)
    for i, tau in enumerate(t_grid):
        c = _two_time_correlator(h0, a, b, state, float(tau), tol)
        out[i] = -2.0 * c.imag  # i*(c - conj(c))
    return out


def susceptibility(phi: np.ndarray, t_grid: Sequence, omega: float) -> complex:
    """chi(omega) = int_0^t phi(u) exp(-i omega u) du by the trapezoid rule."""
    t_grid = np.asarray(t_grid, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if t_grid.size < 2 or phi.shape != t_grid.shape:
        raise ValueError("need matching phi/time grids with at least two points")
    dt_max = float(np.max(np.diff(t_grid)))
    if abs(omega) * dt_max >= math.pi:
        raise ValueError("response grid too coarse for this frequency (Nyquist)")
    integrand = phi * np.exp(-1j * omega * t_grid)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return complex(trapezoid(integrand, t_grid))


def linear_response_check(h0: Schedule, a: OperatorSum, b: OperatorSum, state,
                          f: float, omega: float, t: float,
                          n_grid: int = 201, tol: float = 1e-10) -> tuple:
    """(predicted, exact) <B(t)> under the drive ``2 f cos(omega s) A``.

    ``predicted`` combines the unperturbed value with the first-order
    susceptibility integral; ``exact`` integrates the perturbed Schroedinger
    equation.  Their gap is the quadratic remainder, O(f^2).  ``h0`` must
    be constant (``ValueError`` otherwise): the susceptibility integral is
    a convolution, which holds only under time-translation invariance.
    """
    if not h0.is_constant:
        raise ValueError("linear response needs a constant h0: the Kubo "
                         "convolution assumes time-translation invariance")
    grid = np.linspace(0.0, t, n_grid)
    phi = response_function(h0, a, b, state, grid, tol=tol)
    chi = susceptibility(phi, grid, omega)
    evolved = evolve(state, h0, 0.0, t, tol)
    base = expectation(evolved, b).real
    predicted = base - 2.0 * f * (np.exp(1j * omega * t) * chi).real

    perturbed = Schedule.from_terms(h0.space, [
        (1.0, h0.matrix_at(0.0)), (lambda s: 2.0 * f * math.cos(omega * s), a.matrix())])
    exact_state = evolve(state, perturbed, 0.0, t, tol)
    exact = expectation(exact_state, b).real
    return float(predicted), float(exact)
