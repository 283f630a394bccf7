"""Substrate tests: spaces, states, operators, evolution, metrics."""
import ast
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm

from qworkbench import qcore as qc

from qcore_helpers import (all_pauli_labels, bell_state, dense_carry, ghz_state,
                           identity_operator, maximally_mixed, pauli_decompose,
                           pauli_recompose, thermal_qubit)


def dense(op):
    return op.matrix()


# ---------------------------------------------------------------------------
# spaces and states
# ---------------------------------------------------------------------------

def test_space_dimensions():
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(4)))
    assert space.dims == (2, 5)
    assert space.dim == 10


def test_dimension_cap():
    with pytest.raises(qc.DimensionCapError):
        qc.HilbertSpace.qubits(15)  # 32768 > 16384


def test_boson_truncation_floor():
    with pytest.raises(ValueError):
        qc.Boson(0)


def test_norm_monitoring():
    space = qc.HilbertSpace.qubits(1)
    with pytest.raises(ValueError):
        qc.PureState(space, [1.0, 1.0])  # norm sqrt(2), grossly off
    st = qc.PureState(space, [1.0, 0.0])
    assert st.norm_error < 1e-15


def test_density_matrix_invariants():
    space = qc.HilbertSpace.qubits(1)
    with pytest.raises(ValueError):
        qc.DensityMatrix(space, [[0.5, 0.3j], [0.3j, 0.5]])  # not Hermitian
    rho = thermal_qubit(0.3)
    assert rho.trace_error < 1e-15
    assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_zero_generator():
    space = qc.HilbertSpace.qubits(1)
    psi = qc.basis_state(space, [0])
    h = qc.Schedule.constant(qc.OperatorSum.zero(space))
    out = qc.evolve(psi, h, 0.0, 3.7)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_evolve_sigma_z_full_period_phase():
    # H = (w/2) sigma_z for t = 2*pi/w sends |0> to exp(-i*pi)|0>
    w = 2.0
    space = qc.HilbertSpace.qubits(1)
    psi = qc.basis_state(space, [0])
    h = qc.Schedule.constant(qc.OperatorSum.single(space, 0, "Z", 0.5 * w, hermitian=True))
    out = qc.evolve(psi, h, 0.0, 2.0 * math.pi / w)
    assert abs(out.amplitudes[0] - np.exp(-1j * math.pi)) < 1e-12


def jc_resonant_hamiltonian(space, g):
    """g*(sigma+ a + sigma- a^dag) on a qubit (x) boson space."""
    return qc.OperatorSum(space, [(g, ("S+", "a")), (g, ("S-", "adag"))], hermitian=True)


def test_evolve_matches_closed_form_jc():
    # Closed-form resonant JC on the |e,0>/|g,1> pair: amplitudes
    # cos(g t) and -i sin(g t).  (Derived by diagonalizing the 2x2 block
    # g*[[0,1],[1,0]]: exp(-iHt) = cos(gt) I - i sin(gt) X.)
    g = 1.3
    space = qc.HilbertSpace.qubit_boson(n_max=6)
    h = qc.Schedule.constant(jc_resonant_hamiltonian(space, g))
    t = math.pi / (4.0 * g)  # quarter Rabi period: equal weights
    out = qc.evolve(qc.basis_state(space, [0, 0]), h, 0.0, t)
    e0 = out.amplitudes[0]          # |e,0> has index 0*7+0
    g1 = out.amplitudes[7 + 1]      # |g,1> has index 1*7+1
    assert abs(e0 - math.cos(g * t)) < 1e-12
    assert abs(g1 - (-1j) * math.sin(g * t)) < 1e-12
    assert abs(abs(e0) ** 2 - 0.5) < 1e-12 and abs(abs(g1) ** 2 - 0.5) < 1e-12


def test_time_dependent_evolution_against_constant():
    # A callable coefficient that happens to be constant (so RK45 steps the
    # schedule) must agree with the eigenbasis path.
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hmat = 0.5 * (m + m.conj().T)
    psi = qc.random_pure_state(space, rng)
    exact = qc.evolve(psi, qc.Schedule.constant(hmat, space), 0.0, 0.8)
    stepped = qc.Schedule.from_terms(space, [(lambda t: 1.0, hmat)])
    assert stepped.exact_frame is None
    via_ivp = qc.evolve(psi, stepped, 0.0, 0.8)
    assert np.linalg.norm(exact.amplitudes - via_ivp.amplitudes) < 1e-8


def test_group_law():
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = qc.Schedule.constant(0.5 * (m + m.conj().T), space)
    psi = qc.random_pure_state(space, rng)
    one_hop = qc.evolve(psi, h, 0.0, 1.1)
    two_hops = qc.evolve(qc.evolve(psi, h, 0.0, 0.4), h, 0.4, 1.1)
    assert np.linalg.norm(one_hop.amplitudes - two_hops.amplitudes) < 1e-9


def test_norm_preservation_time_dependent():
    space = qc.HilbertSpace.qubit_boson(n_max=8)
    zmat = qc.OperatorSum.single(space, 0, "Z").matrix()
    xmat = qc.OperatorSum.single(space, 1, "x").matrix()
    h = qc.Schedule.from_terms(space, [(lambda t: math.cos(3.0 * t), zmat), (math.sin, xmat)])
    psi = qc.basis_state(space, [0, 1])
    out = qc.evolve(psi, h, 0.0, 2.0)
    assert out.norm_error < 1e-8


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("dims", [(qc.Qubit(), qc.Qubit()),
                                  (qc.Qubit(), qc.Boson(2)),
                                  (qc.Boson(4),)])
@pytest.mark.parametrize("with_frame", [False, True])
def test_term_form_matches_builder(dims, with_frame):
    # H(t) = F(t) [cos(3t) H_0 + sin(2t) H_1 + exp(-t/2) H_2] F(t)^dag in term
    # form against the same Hamiltonian assembled densely by a builder and
    # stepped by qc.integrate
    space = qc.HilbertSpace(dims)
    d = space.dim
    rng = np.random.default_rng(40 + d + 10 * with_frame)
    mats = [random_hermitian(rng, d) for _ in range(3)]
    coeffs = (lambda t: math.cos(3.0 * t), lambda t: math.sin(2.0 * t),
              lambda t: math.exp(-0.5 * t))
    frame = 4.0 * rng.standard_normal(d) if with_frame else np.zeros(d)

    def builder(t):
        phase = np.exp(1j * t * frame)
        h = sum(f(t) * m for f, m in zip(coeffs, mats))
        return phase[:, None] * h * phase.conj()[None, :]

    terms = qc.Schedule.from_terms(space, list(zip(coeffs, mats)),
                                   frame=frame if with_frame else None)
    for t in (0.0, 0.37, 1.9):
        assert np.max(np.abs(terms.matrix_at(t) - builder(t))) < 1e-10
    psi = qc.random_pure_state(space, rng)
    a = qc.evolve(psi, terms, 0.1, 1.4)
    b = dense_carry(builder, psi.amplitudes, 0.1, 1.4)
    assert np.max(np.abs(a.amplitudes - b)) < 1e-10
    rho = qc.DensityMatrix(space, 0.6 * psi.to_density_matrix().matrix
                           + 0.4 * np.eye(d) / d)
    u_dense = dense_carry(builder, np.eye(d), 0.1, 1.4)
    a = qc.evolve(rho, terms, 0.1, 1.4)
    b = u_dense @ rho.matrix @ u_dense.conj().T
    assert np.max(np.abs(a.matrix - b)) < 1e-10
    u = qc.propagator(terms, 0.1, 1.4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-8
    assert np.max(np.abs(a.matrix - u @ rho.matrix @ u.conj().T)) < 1e-8
    assert np.max(np.abs(u - u_dense)) < 1e-10


def test_term_form_apply_shapes_and_fresh_results():
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(3)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    sched = qc.Schedule.from_terms(space, [(math.cos, h0), (math.sin, h1)],
                                   frame=[0.5, -1.0, 2.0, 0.0])
    apply = sched.apply
    block = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = apply(0.8, block)
    assert out.shape == (4, 3)
    for j in range(3):
        assert np.max(np.abs(out[:, j] - apply(0.8, block[:, j]))) < 1e-14
    first = sched.matrix_at(0.3)
    kept = first.copy()
    second = sched.matrix_at(1.2)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


def test_term_form_validation():
    space = qc.HilbertSpace.qubits(1)
    z = qc.SIGMA_Z
    with pytest.raises(ValueError):
        qc.Schedule.from_terms(space, [])
    with pytest.raises(qc.DimensionMismatchError):
        qc.Schedule.from_terms(space, [(math.cos, np.eye(4))])
    with pytest.raises(qc.DimensionMismatchError):
        qc.Schedule.from_terms(space, [(math.cos, z)], frame=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        qc.Schedule.from_terms(space, [(math.cos, z)], frame=[1j, 0.0])


def periodic_terms(rng, d, omega):
    """cos(omega t) H_0 + sin(2 omega t) H_1 + (0.8 e^{i omega t} M + h.c.):
    every coefficient repeats with T = 2 pi / omega."""
    h0, h1 = random_hermitian(rng, d), random_hermitian(rng, d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return [(lambda t: math.cos(omega * t), h0),
            (lambda t: math.sin(2.0 * omega * t), h1),
            (lambda t: 0.8 * np.exp(1j * omega * t), m),
            (lambda t: 0.8 * np.exp(-1j * omega * t), m.conj().T)]


def test_periodic_route_matches_rk45():
    # the stroboscopic route against RK45 over the whole window (the same
    # terms without a period), both at tol 1e-10
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(2)))
    d = space.dim
    rng = np.random.default_rng(61)
    omega = 9.0
    period = 2.0 * math.pi / omega
    terms = periodic_terms(rng, d, omega)
    frame = 5.0 * rng.standard_normal(d)
    strobe = qc.Schedule.from_terms(space, terms, frame=frame, period=period)
    rk45 = qc.Schedule.from_terms(space, terms, frame=frame)
    assert strobe.exact_frame.period == period and rk45.exact_frame is None
    psi = qc.random_pure_state(space, rng)
    rho = qc.DensityMatrix(space, 0.7 * psi.to_density_matrix().matrix + 0.3 * np.eye(d) / d)
    windows = [(0.37 * period, 6.81 * period),   # ends off the period boundaries
               (2.0 * period, 5.0 * period),     # ends on them
               (1.2 * period, 1.7 * period),     # inside one period
               (3.8 * period, 4.3 * period),     # shorter than a period, across a boundary
               (0.0, 0.6 * period)]
    for t0, t1 in windows:
        a, b = qc.evolve(psi, strobe, t0, t1), qc.evolve(psi, rk45, t0, t1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8
        a, b = qc.evolve(rho, strobe, t0, t1), qc.evolve(rho, rk45, t0, t1)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-8
        u, v = qc.propagator(strobe, t0, t1), qc.propagator(rk45, t0, t1)
        assert np.max(np.abs(u - v)) < 1e-8
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-8
    times = np.array([0.0, 0.41, 2.3, 3.0, 7.95]) * period
    for a, b in zip(qc.evolve_trace(psi, strobe, times), qc.evolve_trace(psi, rk45, times)):
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8


# ---------------------------------------------------------------------------
# the term form: each term applied on its support
# ---------------------------------------------------------------------------

def support_terms(rng, d):
    """Random terms on a d = 16 basis with time-dependent coefficients, and
    the row and column range of each: one quadrant, a rectangle with zeros
    inside, the whole matrix, nothing, and a square that overlaps the first
    two."""
    def on(rows, cols, sparse=False):
        m = np.zeros((d, d), dtype=complex)
        block = rng.standard_normal((rows.stop - rows.start, cols.stop - cols.start)) \
            + 1j * rng.standard_normal((rows.stop - rows.start, cols.stop - cols.start))
        if sparse:  # zeros inside, but the corners fix the ranges
            block[1:-1, 1:-1] *= rng.random(block[1:-1, 1:-1].shape) < 0.4
        m[rows, cols] = block
        return m

    supports = [(slice(0, 8), slice(8, 16)), (slice(3, 7), slice(1, 14)),
                (slice(0, 16), slice(0, 16)), (slice(0, 0), slice(0, 0)),
                (slice(5, 13), slice(5, 13))]
    mats = [on(r, c, sparse=(k == 1)) for k, (r, c) in enumerate(supports)]
    coeffs = [lambda t: np.exp(1.3j * t), lambda t: math.cos(2.0 * t), lambda t: 0.7 - 0.2j * t,
              lambda t: 5.0, lambda t: t * t]
    return list(zip(coeffs, mats)), supports


@pytest.mark.parametrize("framed", [False, True])
def test_term_form_applies_each_term_on_its_support(framed):
    # apply and matrix_at against the dense sum sum_k f_k(t) F H_k F^dag y,
    # on a ket and on a column block
    rng = np.random.default_rng(81)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    d = space.dim
    terms, supports = support_terms(rng, d)
    frame = 4.0 * rng.standard_normal(d) if framed else None
    sched = qc.Schedule.from_terms(space, terms, frame=frame)
    for (rows, cols, block), (r, c), (_, m) in zip(sched._terms.terms, supports, terms):
        assert (rows, cols) == (r, c)
        assert np.array_equal(block, m[r, c]) and not block.flags.writeable
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    cols = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    for t in (0.0, 0.37, 2.9):
        f = np.ones(d) if frame is None else np.exp(1j * t * frame)
        h = sum(c(t) * (f[:, None] * m * f.conj()) for c, m in terms)
        for y in (ket, cols):
            want = h @ y
            assert np.max(np.abs(sched.apply(t, y) - want)) <= 1e-15 * np.max(np.abs(want))
        got = sched.matrix_at(t)
        assert np.max(np.abs(got - h)) <= 1e-15 * np.max(np.abs(h))


def test_static_terms_are_kept_whole(monkeypatch):
    # a static K takes the eigenbasis route and never steps: building it
    # finds no support, and its terms are the schedule's own whole copies
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")

    def refuse(m):
        raise AssertionError("a static schedule looked for a support")

    monkeypatch.setattr(evolve_module, "_support", refuse)
    rng = np.random.default_rng(82)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    terms, _ = support_terms(rng, space.dim)
    mats = [m + m.conj().T for _, m in terms]
    sched = qc.Schedule.from_terms(space, [(0.5, m) for m in mats], frame=np.arange(16.0))
    assert sched.exact_frame.static is not None
    for (rows, cols, block), m in zip(sched._terms.terms, mats):
        assert rows == cols == slice(0, 16) and np.array_equal(block, m)
        assert block is not m and not block.flags.writeable
    daqs = importlib.import_module("qworkbench.daqs")
    daqs.xy_block_physical(j_coupling=1.0, delta_mode=60.0, delta_spin=3.0, omega=62.0,
                           n_spins=2, times=[0.5], n_max=4, tol=3e-7)


# ---------------------------------------------------------------------------
# the block route: RK45 on the blocks a term form leaves invariant
# ---------------------------------------------------------------------------

def block_terms(rng, sizes, omega):
    """``periodic_terms`` cut to blocks of ``sizes`` on a shuffled basis, and
    the blocks as sorted index arrays in order of their first index."""
    d = sum(sizes)
    order = rng.permutation(d)
    mask = np.zeros((d, d), dtype=bool)
    blocks = []
    for start, n in zip(np.cumsum((0,) + tuple(sizes)), sizes):
        idx = np.sort(order[start:start + n])
        mask[np.ix_(idx, idx)] = True
        blocks.append(idx)
    blocks.sort(key=lambda idx: idx[0])
    return [(f, np.where(mask, m, 0.0)) for f, m in periodic_terms(rng, d, omega)], blocks


def _counting_integrate(monkeypatch):
    """Wrap ``qcore.evolve.integrate``; each run appends its number of
    right-hand-side evaluations to the returned list."""
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")
    real, counts = evolve_module.integrate, []

    def counting(rhs, y0, t0, t1, tol):
        counts.append(0)

        def counted(t, y):
            counts[-1] += 1
            return rhs(t, y)
        return real(counted, y0, t0, t1, tol)

    monkeypatch.setattr(evolve_module, "integrate", counting)
    return counts


def dense_rk45(sched, y, t0, t1, tol):
    """The oracle: ``qc.integrate`` over the schedule's dense ``apply``, and
    its number of right-hand-side evaluations."""
    shape, count = y.shape, [0]

    def rhs(t, v):
        count[0] += 1
        return -1j * sched.apply(t, v.reshape(shape)).reshape(-1)
    return qc.integrate(rhs, y.reshape(-1), t0, t1, tol).reshape(shape), count[0]


def test_term_form_finds_its_invariant_blocks():
    rng = np.random.default_rng(71)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    terms, blocks = block_terms(rng, (7, 5, 4), 3.0)
    sched = qc.Schedule.from_terms(space, terms, frame=rng.standard_normal(16))
    assert len(sched._terms.index) == 3
    assert all(np.array_equal(a, b) for a, b in zip(sched._terms.index, blocks))
    # number coefficients: a static K, never stepped, so no blocks are kept
    static = qc.Schedule.from_terms(space, [(1.0, m) for _, m in terms[:2]])
    assert static.exact_frame.static is not None and static._terms.index is None
    # padding a 6-block and a 1-block to 6 x 6 would grow the term stack
    terms, _ = block_terms(rng, (6, 1), 3.0)
    lopsided = qc.Schedule.from_terms(qc.HilbertSpace((qc.Boson(6),)), terms)
    assert lopsided._terms.index is None


def test_block_route_takes_the_dense_steps(monkeypatch):
    # the packed carry against RK45 over the full d x m state: the same
    # right-hand-side evaluations, agreement to rounding, and exact zeros
    # outside the blocks a column starts in
    rng = np.random.default_rng(72)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    terms, blocks = block_terms(rng, (7, 5, 4), 3.0)
    sched = qc.Schedule.from_terms(space, terms, frame=3.0 * rng.standard_normal(16))
    counts = _counting_integrate(monkeypatch)
    eye = np.eye(16, dtype=complex)
    ket = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    inside = np.zeros(16, dtype=complex)
    inside[blocks[1]] = ket[blocks[1]]
    cases = [eye,                              # every column in one block
             eye[:, [blocks[2][0], blocks[0][1], blocks[0][3]]],  # two blocks live
             inside,                           # a ket in one block
             ket,                              # a ket with support in all three
             np.stack([ket, inside, np.zeros(16)], axis=1)]
    for y in cases:
        for tol in (1e-6, 1e-10):
            out = qc.carry(sched, y, 0.2, 1.9, tol)
            oracle, n_eval = dense_rk45(sched, y, 0.2, 1.9, tol)
            assert counts[-1] == n_eval
            assert np.max(np.abs(out - oracle)) < 1e-13
            cols = y.reshape(16, -1)
            outside = np.ones(out.reshape(16, -1).shape, dtype=bool)
            for rows in blocks:
                live = (cols[rows] != 0).any(axis=0)
                outside[np.ix_(rows, np.flatnonzero(live))] = False
            assert np.all(out.reshape(16, -1)[outside] == 0)
    assert len(counts) == 2 * len(cases)


def test_block_route_on_the_periodic_route():
    # U_K(T, 0) and the partial periods on the blocks, against RK45 over
    # the whole window, as test_periodic_route_matches_rk45 does it densely
    rng = np.random.default_rng(73)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    omega = 9.0
    period = 2.0 * math.pi / omega
    terms, _ = block_terms(rng, (6, 6, 4), omega)
    frame = 5.0 * rng.standard_normal(16)
    strobe = qc.Schedule.from_terms(space, terms, frame=frame, period=period)
    rk45 = qc.Schedule.from_terms(space, terms, frame=frame)
    assert len(strobe._terms.index) == 3
    psi = qc.random_pure_state(space, rng)
    for t0, t1 in [(0.37 * period, 4.81 * period), (1.2 * period, 1.7 * period)]:
        a, b = qc.evolve(psi, strobe, t0, t1), qc.evolve(psi, rk45, t0, t1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8
        u, v = qc.propagator(strobe, t0, t1), qc.propagator(rk45, t0, t1)
        assert np.max(np.abs(u - v)) < 1e-8
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-8


def test_static_route_matches_rk45():
    # number coefficients: one eigh of K = diag(frame) + sum c_k H_k against
    # RK45 on the same terms with constant callables, both at tol 1e-10
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(62)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h0 = random_hermitian(rng, 4)
    frame = 3.0 * rng.standard_normal(4)
    static = qc.Schedule.from_terms(space, [(1.3, h0), (0.5j, m), (-0.5j, m.conj().T)],
                                    frame=frame)
    rk45 = qc.Schedule.from_terms(space, [(lambda t: 1.3, h0), (lambda t: 0.5j, m),
                                          (lambda t: -0.5j, m.conj().T)], frame=frame)
    assert static.exact_frame.static is not None and rk45.exact_frame is None
    for t in (0.0, 0.8, 2.1):
        assert np.max(np.abs(static.matrix_at(t) - rk45.matrix_at(t))) < 1e-14
    psi = qc.random_pure_state(space, rng)
    rho = qc.DensityMatrix(space, 0.5 * psi.to_density_matrix().matrix + 0.5 * np.eye(4) / 4)
    for t0, t1 in ((0.0, 1.7), (0.45, 3.2)):
        a, b = qc.evolve(psi, static, t0, t1), qc.evolve(psi, rk45, t0, t1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8
        a, b = qc.evolve(rho, static, t0, t1), qc.evolve(rho, rk45, t0, t1)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-8
        assert np.max(np.abs(qc.propagator(static, t0, t1) - qc.propagator(rk45, t0, t1))) < 1e-8


def test_propagator_stack_matches_propagator_on_every_route():
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(63)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    frame = 3.0 * rng.standard_normal(4)
    constant = qc.Schedule.constant(h0, space)
    driven = qc.Schedule.from_terms(space, [(1.0, h0), (lambda t: math.cos(2.0 * t), h1)])
    static = qc.Schedule.from_terms(space, [(1.3, h0), (0.4, h1)], frame=frame)
    times = np.array([0.0, 0.3, 1.1, 2.6])
    stack = qc.propagator_stack(constant, times)
    assert stack.shape == (4, 4, 4)
    for u, t in zip(stack, times):
        assert np.max(np.abs(u - qc.propagator(constant, 0.0, t))) < 1e-13
    for sched in (driven, static):
        stack = qc.propagator_stack(sched, times)
        assert np.array_equal(stack, np.stack([qc.propagator(sched, 0.0, t) for t in times]))
        assert np.array_equal(stack[0], np.eye(4))
    assert np.max(np.abs(qc.propagator_stack(constant, [0.0])[0] - np.eye(4))) < 1e-14
    for sched in (constant, driven, static):
        with pytest.raises(ValueError):
            qc.propagator_stack(sched, [0.5, -0.1])


@pytest.mark.parametrize("n_qubits", [1, 3, 6])
def test_propagator_stack_of_a_constant_schedule_is_batch_independent(n_qubits):
    # d = 2, 8 and 64: the one gemm agrees with the per-time propagator, and
    # a unitary keeps its bits whatever times share its stack
    space = qc.HilbertSpace.qubits(n_qubits)
    rng = np.random.default_rng(71 + n_qubits)
    h = qc.Schedule.constant(random_hermitian(rng, space.dim), space)
    times = np.sort(rng.uniform(0.0, 3.0, size=9))
    for ts in (times[4:5], times):
        for u, t in zip(qc.propagator_stack(h, ts), ts, strict=True):
            assert np.max(np.abs(u - qc.propagator(h, 0.0, t))) < 1e-13
    stack = qc.propagator_stack(h, times)
    for k in (1, 2, 3):
        for i in range(len(times) - k + 1):
            assert np.array_equal(stack[i:i + k], qc.propagator_stack(h, times[i:i + k]))


def _ket_route_schedules(rng):
    """A constant schedule at d = 82 (the twophoton-dynamics size) and a
    static term form with a frame, each with a random ket."""
    big = qc.HilbertSpace.qubit_boson(n_max=40)
    constant = qc.Schedule.constant(random_hermitian(rng, 82), big)
    space = qc.HilbertSpace.qubits(3)
    h0, h1 = random_hermitian(rng, 8), random_hermitian(rng, 8)
    frame = 3.0 * rng.standard_normal(8)
    static = qc.Schedule.from_terms(space, [(1.3, h0), (0.4, h1)], frame=frame)
    k = np.diag(frame) + 1.3 * h0 + 0.4 * h1
    return [(constant, qc.random_pure_state(big, rng)),
            (static, qc.random_pure_state(space, rng))], frame, k


def test_evolve_carries_a_ket_as_the_propagator_does():
    rng = np.random.default_rng(64)
    cases, frame, k = _ket_route_schedules(rng)
    t0, t1 = 0.37, 1.9
    for sched, psi in cases:
        u = qc.propagator(sched, t0, t1)
        assert np.max(np.abs(qc.evolve(psi, sched, t0, t1).amplitudes
                             - u @ psi.amplitudes)) < 1e-13
    # the static propagator carries the identity block: F(t1) U_K(t1 - t0) F(t0)^dag
    w, v = np.linalg.eigh(k)
    u_k = (v * np.exp(-1j * (t1 - t0) * w)) @ v.conj().T
    expected = np.exp(1j * t1 * frame)[:, None] * u_k * np.exp(-1j * t0 * frame)
    assert np.max(np.abs(qc.propagator(cases[1][0], t0, t1) - expected)) < 1e-13


def test_evolve_never_forms_the_unitary_of_a_ket(monkeypatch):
    # a constant or static schedule carries a ket by two products with the
    # eigenvectors; the d x d U is only built for propagator
    rng = np.random.default_rng(65)
    cases, _, _ = _ket_route_schedules(rng)
    kets = [qc.evolve(psi, sched, 0.2, 1.4).amplitudes for sched, psi in cases]
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")

    def refuse(self, dt):
        raise AssertionError("a ket was carried through the full unitary")

    monkeypatch.setattr(evolve_module._ExactFrame, "unitary", refuse)
    for (sched, psi), ket in zip(cases, kets):
        assert np.array_equal(qc.evolve(psi, sched, 0.2, 1.4).amplitudes, ket)
        trace = qc.evolve_trace(psi, sched, [0.5, 1.0])
        assert np.max(np.abs(trace[-1].amplitudes
                             - qc.evolve(psi, sched, 0.0, 1.0).amplitudes)) < 1e-13


def test_evolve_trace_carries_a_static_grid_in_one_product(monkeypatch):
    # a constant schedule and a static K in a frame: every time of a grid
    # with zeros and repeated times is carried from t = 0 in one product, as
    # a per-time evolve carries it, and the input state stands at t = 0
    rng = np.random.default_rng(66)
    cases, _, _ = _ket_route_schedules(rng)
    times = [0.0, 0.0, 0.3, 0.3, 1.1, 2.5, 2.5, 7.0]
    evolve_module = importlib.import_module("qworkbench.qcore.evolve")

    def refuse(*args, **kwargs):
        raise AssertionError("a static grid went time by time")

    for sched, psi in cases:
        expected = [qc.evolve(psi, sched, 0.0, t).amplitudes for t in times]
        with monkeypatch.context() as patch:
            patch.setattr(evolve_module, "evolve", refuse)
            trace = qc.evolve_trace(psi, sched, times)
        assert trace[0] is psi and trace[1] is psi
        assert all(state is not psi for state in trace[2:])
        for state, ket in zip(trace, expected, strict=True):
            assert state.space == psi.space
            assert np.max(np.abs(state.amplitudes - ket)) < 1e-14
        other = qc.random_pure_state(qc.HilbertSpace.qubits(2), rng)
        with pytest.raises(qc.DimensionMismatchError):
            qc.evolve_trace(other, sched, times)


def test_overflowing_eigenbasis_phases_raise_no_numpy_warning():
    # w t overflows past 1.8e308: every exact route gives a non-finite
    # phase, which the caller's checks report, with no RuntimeWarning
    space = qc.HilbertSpace.qubits(1)
    h = qc.Schedule.constant(qc.OperatorSum.single(space, 0, "Z", 1e308, hermitian=True))
    psi = qc.plus_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [qc.propagator(h, 0.0, 5.0), qc.propagator_stack(h, [0.5, 5.0]),
                   qc.evolve(psi, h, 0.0, 5.0).amplitudes,
                   qc.evolve_trace(psi, h, [0.0, 0.5, 5.0])[-1].amplitudes]
    assert all(not np.isfinite(r).all() for r in results)


def test_no_module_calls_np_kron():
    # kron_all is the one Kronecker product: OperatorSum, on_factors and
    # dense_pauli build on it, and any np.kron, in any module of the
    # package (qcore included) or in a demo, writes the factor order again
    package = Path(qc.__file__).parent.parent
    demos = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    assert demos
    modules = sorted(package.rglob("*.py"))
    assert any("qcore" in path.relative_to(package).parts for path in modules)
    sites = []
    for path in modules + demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "kron"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def test_quadrature_operators():
    # x = a + a^dag and p = i (a^dag - a) on a trailing mode: Hermitian,
    # with [x, p] = 2i away from the truncation edge of each qubit block
    n_max = 8
    space = qc.HilbertSpace.qubit_boson(n_max=n_max)
    x = qc.OperatorSum.single(space, -1, "x", hermitian=True).matrix()
    p = qc.OperatorSum.single(space, -1, "p", hermitian=True).matrix()
    assert np.max(np.abs(x - x.conj().T)) < 1e-14
    assert np.max(np.abs(p - p.conj().T)) < 1e-14
    comm = np.real(np.diag((x @ p - p @ x) / 2j))
    fock = qc.OperatorSum.single(space, -1, "n").matrix().diagonal().real
    assert np.max(np.abs(comm[fock < n_max] - 1.0)) < 1e-12


def test_pauli_rotation_matches_expm():
    # cos(theta) I - i sin(theta) P against the eigh route of qcore.expm
    for n in (1, 2, 3):
        for label in all_pauli_labels(n):
            p = qc.dense_pauli(label)
            for theta in (0.0, 0.37, -1.2, math.pi / 4, 2.9):
                u = qc.pauli_rotation(label, theta)
                assert np.max(np.abs(u - qc.expm(-1j * theta * p))) < 1e-15


def test_pauli_apply_equals_the_dense_product():
    # one index permutation and one phase vector give dense_pauli(label) @ y
    # exactly: every label of 1-4 qubits and 50 random 8-qubit labels, on a
    # ket and on a (d, 3) column block
    rng = np.random.default_rng(38)
    labels = [label for n in range(1, 5) for label in all_pauli_labels(n)]
    labels += ["".join(rng.choice(list("IXYZ"), size=8)) for _ in range(50)]
    for label in labels:
        d = 2 ** len(label)
        for shape in ((d,), (d, 3)):
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(qc.pauli_apply(label, y), qc.dense_pauli(label) @ y)


def test_pauli_apply_checks_its_inputs_and_caches_read_only_arrays():
    with pytest.raises(ValueError, match="bad Pauli letter"):
        qc.pauli_apply("XQ", np.ones(4))
    with pytest.raises(ValueError, match="at least one letter"):
        qc.pauli_apply("", np.ones(1))
    for bad in (np.ones(8), np.ones((2, 2)), np.ones((4, 2, 2))):
        with pytest.raises(ValueError):
            qc.pauli_apply("XY", bad)
    operators = importlib.import_module("qworkbench.qcore.operators")
    perm, phase = operators._pauli_action("XYZ")
    assert operators._pauli_action("XYZ")[1] is phase
    for cached in (perm, phase):
        with pytest.raises(ValueError):
            cached[0] = 0


def test_no_module_outside_qcore_exponentiates_dense_pauli():
    # qcore.pauli_rotation is the one way to exponentiate a Pauli string;
    # an expm of a dense_pauli(...) expression writes it out again
    package = Path(qc.__file__).parent.parent

    def name_of(func):
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    sites = []
    for path in sorted(package.rglob("*.py")):
        if "qcore" in path.relative_to(package).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and name_of(node.func) == "expm"):
                continue
            if any(isinstance(inner, ast.Call) and name_of(inner.func) == "dense_pauli"
                   for arg in node.args for inner in ast.walk(arg)):
                sites.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not sites, sites


def test_carry_takes_a_column_block_and_checks_its_inputs():
    # carry moves a few columns by the schedule's route, as the propagator's
    # columns; a time-dependent schedule steps the block through RK45
    rng = np.random.default_rng(66)
    cases, _, _ = _ket_route_schedules(rng)
    static = cases[1][0]
    drive = qc.Schedule.from_terms(static.space, [
        (lambda t: math.cos(1.3 * t), static.matrix_at(0.0)), (0.2, np.eye(8))])
    for sched in (cases[0][0], static, drive):
        d = sched.space.dim
        cols = [0, 3, d - 1]
        block = np.eye(d, dtype=complex)[:, cols]
        u = qc.propagator(sched, 0.37, 1.9, 1e-11)
        assert np.max(np.abs(qc.carry(sched, block, 0.37, 1.9, 1e-11) - u[:, cols])) < 1e-9
        assert np.array_equal(qc.carry(sched, block, 0.5, 0.5, 1e-11), block)
        with pytest.raises(ValueError):
            qc.carry(sched, block, 1.0, 0.5, 1e-11)
        with pytest.raises(qc.DimensionMismatchError):
            qc.carry(sched, block[:-1], 0.0, 0.5, 1e-11)


def test_no_module_outside_qcore_reads_apply():
    # only qcore carries a state through a schedule's action (carry, evolve,
    # propagator); a module that reads Schedule.apply steps its own copy
    package = Path(qc.__file__).parent.parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        if "qcore" in path.relative_to(package).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "apply":
                sites.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not sites, sites


def test_constant_schedule_is_the_one_term_form():
    # Schedule.constant(H) and the one-term form from_terms(space, [(1, H)])
    # are the same static schedule with no frame: both carry a ket and a
    # column block alike
    space = qc.HilbertSpace.qubit_boson(n_max=4)
    rng = np.random.default_rng(19)
    hmat = random_hermitian(rng, space.dim)
    constant = qc.Schedule.constant(hmat, space)
    terms = qc.Schedule.from_terms(space, [(1.0, hmat)])
    assert constant.is_constant and terms.is_constant
    ket = qc.random_pure_state(space, rng).amplitudes
    block = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
    for y in (ket, block):
        for t0, t1 in ((0.0, 0.7), (0.3, 2.9)):
            a = qc.carry(constant, y, t0, t1, qc.DEFAULT_TOL)
            b = qc.carry(terms, y, t0, t1, qc.DEFAULT_TOL)
            assert np.max(np.abs(a - b)) < 1e-13


def test_cached_matrices_are_read_only():
    # what qcore caches is shared by every caller: writing into it raises,
    # and a caller's own raw matrix is copied, never frozen
    space = qc.HilbertSpace.qubit_boson(n_max=3)
    op = qc.OperatorSum(space, [(0.5, ("Z", "I")), (1.0, ("X", "x"))])
    with pytest.raises(ValueError):
        op.matrix()[0, 0] = 1.0
    sched = qc.Schedule.constant(op)
    # the one term is the operator's own matrix: no copy is made
    assert sched.matrix_at(0.3) is op.matrix() and sched._terms.terms[0][2] is op.matrix()
    qc.propagator(sched, 0.0, 1.0)
    for a in sched.exact_frame.eig() + (sched.matrix_at(0.3),):
        with pytest.raises(ValueError):
            a[0] = 0.0
    raw = np.array(op.matrix())
    qc.Schedule.constant(raw, space)
    raw[0, 0] = 2.0


def test_shot_uniforms_keys_must_be_integers():
    # np.asarray(..., uint64) would cast 1.5 and True onto seed 1's stream
    for bad in (1.5, True, np.bool_(False), -1, 2 ** 64, None):
        with pytest.raises(ValueError):
            qc.shot_uniforms(bad, 0, 3)
        with pytest.raises(ValueError):
            qc.shot_uniforms(0, bad, 3)
    ref = qc.shot_uniforms(1, 2, 3)
    assert np.array_equal(qc.shot_uniforms(np.int64(1), np.uint8(2), 3), ref)
    qc.shot_uniforms(2 ** 64 - 1, np.uint64(2 ** 64 - 1), 3)


def test_no_module_outside_qcore_names_philox():
    # only qcore.shot_uniforms turns a seed into a random stream; any other
    # Philox site keys its own stream and can drift from the contract
    package = Path(qc.__file__).parent.parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        if "qcore" in path.relative_to(package).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ((isinstance(node, ast.Attribute) and node.attr == "Philox")
                    or (isinstance(node, ast.alias) and node.name == "Philox")):
                sites.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not sites, sites


def test_from_terms_period_validation():
    space = qc.HilbertSpace.qubits(1)
    omega = 3.0
    period = 2.0 * math.pi / omega
    terms = [(lambda t: math.cos(omega * t), qc.SIGMA_X), (0.4, qc.SIGMA_Z)]
    assert qc.Schedule.from_terms(space, terms, period=period).exact_frame.period == period
    assert qc.Schedule.from_terms(space, terms, period=3 * period).exact_frame is not None
    for bad in (0.0, -period, math.inf, math.nan):
        with pytest.raises(ValueError):
            qc.Schedule.from_terms(space, terms, period=bad)
    with pytest.raises(ValueError):  # cos(omega (t + T/2)) = -cos(omega t)
        qc.Schedule.from_terms(space, terms, period=0.5 * period)
    with pytest.raises(ValueError):  # a tone that does not share the period
        qc.Schedule.from_terms(space, terms + [(lambda t: math.sin(math.sqrt(2) * omega * t),
                                                qc.SIGMA_Y)], period=period)
    # callables without a period, or numbers only
    assert qc.Schedule.from_terms(space, terms).exact_frame is None
    assert qc.Schedule.from_terms(space, [(0.4, qc.SIGMA_Z)]).exact_frame.static is not None
    with pytest.raises(ValueError):  # a static K must be Hermitian
        qc.Schedule.from_terms(space, [(1.0, qc.SIGMA_P)])


def test_term_form_covers_negative_times():
    # a window across t = 0 used to skip the part before 0, and a window
    # wholly before 0 to be evolved under the wrong part of a builder
    space = qc.HilbertSpace.qubits(1)
    psi = qc.basis_state(space, [0])
    constant = qc.Schedule.constant(qc.SIGMA_X, space)
    schedules = [qc.Schedule.from_terms(space, [(coeff, qc.SIGMA_X)])
                 for coeff in (1.0, lambda t: 1.0)]
    for t0, t1 in ((-1.0, 0.5), (-2.0, -1.0)):
        exact = qc.evolve(psi, constant, t0, t1)
        dense = dense_carry(lambda t: qc.SIGMA_X, psi.amplitudes, t0, t1)
        assert np.max(np.abs(dense - exact.amplitudes)) < 1e-8
        for h in schedules:
            assert np.max(np.abs(qc.evolve(psi, h, t0, t1).amplitudes - exact.amplitudes)) < 1e-8


def test_evolve_trace_rejects_bad_grids():
    # the input state is given at t = 0: a negative first checkpoint used to
    # come back unchanged and shift every later one; an empty grid used to
    # raise IndexError
    space = qc.HilbertSpace.qubits(1)
    h = qc.Schedule.from_terms(space, [(math.cos, qc.SIGMA_X)])
    psi = qc.basis_state(space, [0])
    with pytest.raises(ValueError):
        qc.evolve_trace(psi, h, [-1.0, 0.5])
    with pytest.raises(ValueError):
        qc.evolve_trace(psi, h, [])
    first, second = qc.evolve_trace(psi, h, [0.0, 0.5])
    assert first is psi
    assert np.max(np.abs(second.amplitudes - qc.evolve(psi, h, 0.0, 0.5).amplitudes)) < 1e-12


def test_dimension_mismatch_rejected():
    s1, s2 = qc.HilbertSpace.qubits(1), qc.HilbertSpace.qubits(2)
    h = qc.Schedule.constant(qc.OperatorSum.zero(s2))
    with pytest.raises(qc.DimensionMismatchError):
        qc.evolve(qc.basis_state(s1, [0]), h, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the adaptive stepper against scipy's DOP853 (the oracle: same pair, same control)
# ---------------------------------------------------------------------------

def _recording(rhs, times):
    def f(t, y):
        times.append(t)
        return rhs(t, y)
    return f


def _step_counts(times):
    """(nfev, accepted, rejected) from the times at which a DOP853 run
    evaluated its right-hand side: f(t0) and one initial-step probe, then
    twelve evaluations per attempted step, the last at t + h.  An attempt
    was accepted when the next one starts past its end, rejected when the
    next one retries from the same t with a shorter step."""
    attempts = [times[i:i + 12] for i in range(2, len(times), 12)]
    accepted = sum(1 for a, b in zip(attempts, attempts[1:]) if b[0] > a[-1]) + 1
    return len(times), accepted, len(attempts) - accepted


def _against_solve_ivp(rhs, y0, t1, tol):
    """qcore's and scipy's counts and final states over [0, t1]."""
    scipy_times, times = [], []
    sol = solve_ivp(_recording(rhs, scipy_times), (0.0, t1), y0, method="DOP853",
                    rtol=tol, atol=tol * 1e-2)
    assert sol.success
    accepted = len(sol.t) - 1
    scipy_counts = (sol.nfev, accepted, (sol.nfev - 2) // 12 - accepted)
    assert _step_counts(scipy_times) == scipy_counts
    y = qc.integrate(_recording(rhs, times), y0, 0.0, t1, tol)
    return _step_counts(times), scipy_counts, np.max(np.abs(y - sol.y[:, -1]))


def test_stepper_tableau_is_dormand_prince():
    evolve = importlib.import_module("qworkbench.qcore.evolve")
    for ours, theirs in ((evolve._RK_A, DOP853.A), (evolve._RK_B, DOP853.B),
                         (evolve._RK_C, DOP853.C), (evolve._RK_E3, DOP853.E3),
                         (evolve._RK_E5, DOP853.E5)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def test_stepper_matches_solve_ivp_on_a_tanh_switch():
    # a fast switch of the transverse field makes the control reject steps
    def rhs(t, y):
        return -1j * ((0.5 * qc.SIGMA_Z + 1.3 * math.tanh(20.0 * (t - 1.5)) * qc.SIGMA_X) @ y)

    ours, theirs, diff = _against_solve_ivp(rhs, np.array([1.0, 0.0], dtype=complex),
                                            3.0, 1e-9)
    assert ours == theirs
    assert theirs[2] > 0
    assert diff < 1e-14


def test_stepper_matches_solve_ivp_on_a_random_drive():
    rng = np.random.default_rng(11)
    d = 8
    h0, h1 = (m + m.conj().T for m in (rng.standard_normal((d, d))
                                        + 1j * rng.standard_normal((d, d)) for _ in range(2)))
    y0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y0 /= np.linalg.norm(y0)

    def rhs(t, y):
        return -1j * ((h0 + math.cos(2.3 * t) * h1) @ y)

    ours, theirs, diff = _against_solve_ivp(rhs, y0, 1.5, 1e-9)
    assert ours == theirs
    assert diff < 1e-14


@pytest.mark.parametrize("t_nan", [0.0, 0.8])
def test_stepper_raises_on_a_nan_right_hand_side(t_nan):
    # NaN from the start or partway: the step shrinks to its floor and the
    # stepper gives up, rather than looping or returning NaN
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 100_000:
            raise RuntimeError("the stepper does not stop")
        return -1j * y if t < t_nan else np.full_like(y, np.nan)

    with pytest.raises(qc.ToleranceError), np.errstate(invalid="ignore"):
        qc.integrate(rhs, np.array([1.0 + 0j]), 0.0, 2.0, 1e-9)


def test_stepper_trivial_window_and_direction():
    y0 = np.array([1.0, 2.0])
    y = qc.integrate(lambda t, y: -y, y0, 0.5, 0.5, 1e-9)
    assert np.array_equal(y, y0) and y is not y0
    with pytest.raises(ValueError):
        qc.integrate(lambda t, y: -y, y0, 1.0, 0.5, 1e-9)
    assert np.max(np.abs(qc.integrate(lambda t, y: -y, y0, 0.0, 1.0, 1e-10)
                         - y0 * math.exp(-1.0))) < 1e-10


# ---------------------------------------------------------------------------
# qcore's matrix exponential against scipy's (the oracle)
# ---------------------------------------------------------------------------

def _expm_rel_error(a) -> float:
    reference = expm(a)
    return np.linalg.norm(qc.expm(a) - reference) / np.linalg.norm(reference)


def _count_eighs(monkeypatch) -> list:
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or real_eigh(m))
    return calls


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
def test_expm_anti_hermitian_is_unitary_and_matches_scipy(d, monkeypatch):
    rng = np.random.default_rng(100 + d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (m + m.conj().T) / np.linalg.norm(m + m.conj().T, 2)
    for t in (0.01, 1.0, 10.0):
        a = -1j * t * h
        assert _expm_rel_error(a) < 1e-13
        eighs = _count_eighs(monkeypatch)
        u = qc.expm(a)
        assert eighs == [(d, d)]  # the eigh route, one solve
        monkeypatch.undo()
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-14


def test_expm_pade_degrees_match_scipy(monkeypatch):
    # 1-norms on both sides of each degree's threshold, and past the last
    # one, where the argument is scaled and the result squared
    from qworkbench.qcore.linalg import _THETA, _THETA_13

    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m /= np.linalg.norm(m, 1)
    for _, theta in _THETA + ((13, _THETA_13),):
        for side in (0.9, 1.1):
            assert _expm_rel_error(side * theta * m) < 1e-13
    assert _expm_rel_error(50.0 * m) < 1e-13
    eighs = _count_eighs(monkeypatch)
    qc.expm(m)
    assert eighs == []  # not anti-Hermitian: no eigh
    real = rng.standard_normal((5, 5))
    assert qc.expm(real).dtype == float
    assert _expm_rel_error(real) < 1e-13


def test_expm_non_normal_large_norm_matches_scipy():
    rng = np.random.default_rng(11)
    d = 10
    a = np.triu(rng.standard_normal((d, d)), 1) * 10.0 + np.diag(rng.uniform(-3.0, 0.0, d))
    assert np.linalg.norm(a, 1) > 8 * 5.371920351148152  # three squarings at least
    assert _expm_rel_error(a) < 1e-13
    assert _expm_rel_error((1.0 + 0.5j) * a) < 1e-13


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_expm_van_loan_block_matches_scipy(n_qubits):
    # the generator the dissipative series exponentiates: a random model of
    # the lindblad-bounds kind, at order 3
    from qworkbench import openmaster as om

    rng = np.random.default_rng(5 + n_qubits)
    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    channels = [(qc.OperatorSum.pauli_string(space, label, complex(*rng.standard_normal(2))),
                 0.3) for label in ("X" * n_qubits, "Y" * n_qubits)]
    model = om.LindbladModel(qc.Schedule.constant(0.5 * (m + m.conj().T), space), channels)
    l0, lp = om._generator_parts(model, 0.0)
    order = 3
    block = qc.kron_all([np.eye(order + 1), l0]) \
        + qc.kron_all([np.eye(order + 1, k=-1), lp])
    for t in (0.2, 0.7):
        assert _expm_rel_error(block * t) < 1e-13
        assert _expm_rel_error((l0 + lp) * t) < 1e-13


def _random_lindblad_parts(rng, n_qubits) -> tuple:
    """(L_H, L_D) superoperators of a random model of the lindblad-bounds kind."""
    from qworkbench import openmaster as om

    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    channels = [(qc.OperatorSum.pauli_string(space, label, complex(*rng.standard_normal(2))),
                 float(rng.uniform(0.05, 0.4))) for label in ("X" * n_qubits, "Z" * n_qubits)]
    model = om.LindbladModel(qc.Schedule.constant(0.5 * (m + m.conj().T), space), channels)
    return om._generator_parts(model, 0.0)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_expm_block_toeplitz_is_the_first_block_column_of_expm(n_qubits):
    # the stack [L0 t, LP t, 0, ...] against qc.expm of the kron_all-assembled
    # Van Loan matrix, at 1-norms below each Pade degree's threshold, and
    # past the last one without and with scaling; the stack's 1-norm is the
    # dense matrix's, so both pick the same degree and scaling
    from qworkbench.qcore.linalg import _THETA, _THETA_13

    rng = np.random.default_rng(40 + n_qubits)
    l0, lp = _random_lindblad_parts(rng, n_qubits)
    dim = l0.shape[0]
    targets = [0.9 * theta for _, theta in _THETA] + [0.9 * _THETA_13, 3.0 * _THETA_13]
    for order in range(6):
        blocks = np.zeros((order + 1, dim, dim), dtype=complex)
        blocks[0] = l0
        if order:
            blocks[1] = lp
        dense = qc.kron_all([np.eye(order + 1), l0]) \
            + qc.kron_all([np.eye(order + 1, k=-1), lp])
        norm = np.linalg.norm(dense, 1)
        assert np.linalg.norm(blocks.reshape(-1, dim), 1) == norm
        for target in targets:
            t = target / norm
            got = qc.expm_block_toeplitz(blocks * t)
            want = qc.expm(dense * t)[:, :dim].reshape(order + 1, dim, dim)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_expm_block_toeplitz_of_one_block_is_expm():
    # a dense matrix is the one-block stack: the same Pade, the same bits
    from qworkbench.qcore.linalg import _THETA, _THETA_13, _toeplitz_index

    rng = np.random.default_rng(13)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m /= np.linalg.norm(m, 1)
    real = rng.standard_normal((5, 5))
    for scale in [0.9 * theta for _, theta in _THETA] + [0.9 * _THETA_13, 50.0]:
        for a in (scale * m, scale * real, np.asfortranarray(scale * m)):
            got = qc.expm_block_toeplitz(a[None])
            assert got.shape == (1,) + a.shape and got.dtype == a.dtype
            assert np.array_equal(got[0], qc.expm(a))
    qc.expm_block_toeplitz(np.zeros((3, 4, 4)))
    for index in _toeplitz_index(3, 4):  # shared by every caller
        with pytest.raises(ValueError):
            index[0] = 0
    for shape in ((4, 4), (2, 3, 4)):
        with pytest.raises(ValueError):
            qc.expm_block_toeplitz(np.zeros(shape))


def test_expm_of_a_huge_generator_is_finite_and_warns_nothing():
    # a damped non-Hermitian generator -i (H - i G) t of 1-norm 1e200: the
    # scaling exponent s is about 660, and 4.0 ** s overflowed, as did a2
    # formed before the scaling; exp of it underflows to zero
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 3)
    a = -1j * h - np.diag([1.0, 2.0, 3.0])
    a *= 1e200 / np.linalg.norm(a, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (a, a.real):
            e = qc.expm(m)
            assert np.all(np.isfinite(e)) and np.max(np.abs(e)) < 1e-300


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        qc.expm(np.zeros((2, 3)))


def test_expm_rejects_non_finite_entries():
    # refused up front, on the eigh route and the Pade route alike; a
    # finite matrix still goes through
    a = -1j * np.diag([1.0, 2.0]) + np.array([[0.0, 1.0], [-1.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)):
        for m in (a.copy(), np.ones((2, 2)) * (1 + 0j)):
            m[1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                qc.expm(m)
    with pytest.raises(ValueError, match="finite"):
        qc.expm(np.array([[np.nan]]))
    assert np.max(np.abs(qc.expm(a) - expm(a))) < 1e-14


def test_constant_schedule_diagonalizes_once(monkeypatch):
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hmat = 0.5 * (m + m.conj().T)
    eighs = _count_eighs(monkeypatch)
    h = qc.Schedule.constant(hmat, space)
    psi = qc.basis_state(space, [0, 1])
    windows = ((0.0, 0.3), (0.3, 2.0), (-1.0, 4.0))
    props = [qc.propagator(h, t0, t1) for t0, t1 in windows]
    kets = [qc.evolve(psi, h, t0, t1).amplitudes for t0, t1 in windows]
    assert eighs == [(4, 4)]
    for (t0, t1), u, psi_t in zip(windows, props, kets):
        assert np.max(np.abs(u - expm(-1j * hmat * (t1 - t0)))) < 1e-13
        assert np.max(np.abs(psi_t - u @ psi.amplitudes)) < 1e-14
    with pytest.raises(ValueError):  # a constant Hamiltonian must be Hermitian
        qc.Schedule.constant(qc.SIGMA_P, qc.HilbertSpace.qubits(1))


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_expectation_basics():
    space = qc.HilbertSpace.qubits(1)
    z = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
    x = qc.OperatorSum.single(space, 0, "X", hermitian=True)
    assert qc.expectation(qc.basis_state(space, [0]), z) == 1.0
    assert abs(qc.expectation(qc.plus_state(), x) - 1.0) < 1e-15
    # thermal qubit with ground population 0.3: <sigma_z> = 0.7 - 0.3
    assert abs(qc.expectation(thermal_qubit(0.3), z) - 0.4) < 1e-15


def test_hermitian_flagged_expectation_is_real():
    space = qc.HilbertSpace.qubits(1)
    y = qc.OperatorSum.single(space, 0, "Y", hermitian=True)
    val = qc.expectation(qc.plus_state(), y)
    assert val.imag == 0.0


# ---------------------------------------------------------------------------
# fidelity / trace distance
# ---------------------------------------------------------------------------

def test_fidelity_self_and_trace_distance_orthogonal():
    psi = qc.plus_state()
    assert abs(qc.fidelity(psi, psi) - 1.0) < 1e-15
    space = qc.HilbertSpace.qubits(1)
    r0 = qc.basis_state(space, [0]).to_density_matrix()
    r1 = qc.basis_state(space, [1]).to_density_matrix()
    assert abs(qc.trace_distance(r0, r0)) < 1e-15
    assert abs(qc.trace_distance(r0, r1) - 1.0) < 1e-14


def test_trace_distance_pure_vs_maximally_mixed():
    # difference diag(1/2, -1/2): singular values (1/2, 1/2) -> D1 = 1/2
    space = qc.HilbertSpace.qubits(1)
    rho = qc.basis_state(space, [0]).to_density_matrix()
    assert abs(qc.trace_distance(rho, maximally_mixed(space)) - 0.5) < 1e-14


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    space = qc.HilbertSpace.qubits(2)

    def random_dm():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = m @ m.conj().T
        return qc.DensityMatrix(space, r / np.trace(r).real)

    for _ in range(25):
        a, b, c = random_dm(), random_dm(), random_dm()
        assert qc.trace_distance(a, c) <= qc.trace_distance(a, b) + qc.trace_distance(b, c) + 1e-10


# ---------------------------------------------------------------------------
# Pauli decomposition
# ---------------------------------------------------------------------------

def test_pauli_decompose_sigma_minus():
    # sigma- = (X - iY)/2 with sigma_y = [[0,-i],[i,0]]
    space = qc.HilbertSpace.qubits(1)
    terms = dict((lbl, q) for q, lbl in
                 pauli_decompose(qc.OperatorSum.single(space, 0, "S-")))
    assert set(terms) == {"X", "Y"}
    assert abs(terms["X"] - 0.5) < 1e-14
    assert abs(terms["Y"] - (-0.5j)) < 1e-14


def test_pauli_decompose_identity():
    space = qc.HilbertSpace.qubits(3)
    terms = pauli_decompose(identity_operator(space))
    assert terms == [(1.0 + 0.0j, "III")]


def test_pauli_decompose_round_trip_and_norm_bounds():
    rng = np.random.default_rng(21)
    space = qc.HilbertSpace.qubits(2)
    for _ in range(40):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = 0.5 * (m + m.conj().T)
        m /= np.linalg.norm(m, ord=2)  # spectral norm 1
        terms = pauli_decompose(m, space)
        rebuilt = pauli_recompose(terms, 2)
        assert np.max(np.abs(rebuilt - m)) < 1e-12
        coeffs = np.array([q for q, _ in terms])
        assert np.sum(np.abs(coeffs) ** 2) <= 1.0 + 1e-12
        assert np.sum(np.abs(coeffs)) <= math.sqrt(len(coeffs)) + 1e-12


def test_pauli_decompose_rejects_bosons():
    space = qc.HilbertSpace.qubit_boson(n_max=2)
    with pytest.raises(ValueError):
        pauli_decompose(identity_operator(space))


def assert_pauli_terms_match_oracle(op):
    """Same labels in the same order as the dense projection, and the same
    coefficients to 1e-15 of the largest."""
    got, oracle = qc.pauli_terms(op), pauli_decompose(op)
    assert [lbl for _, lbl in got] == [lbl for _, lbl in oracle]
    q_got, q_oracle = np.array([q for q, _ in got]), np.array([q for q, _ in oracle])
    assert np.max(np.abs(q_got - q_oracle)) <= 1e-15 * np.max(np.abs(q_oracle))


def test_pauli_terms_match_the_projection_oracle():
    from qworkbench import openmaster as om

    one, two = qc.HilbertSpace.qubits(1), qc.HilbertSpace.qubits(2)
    z = qc.OperatorSum.single(one, 0, "Z", hermitian=True)
    single_shot = om.LindbladModel(0.65 * z, [(qc.OperatorSum.pauli_string(one, "X"), 0.25)])
    damping = om.LindbladModel(qc.OperatorSum.zero(one),
                               [(qc.OperatorSum.single(one, 0, "S-"), 0.3)])
    sampled = om.LindbladModel(qc.OperatorSum.pauli_string(two, "ZI"), [
        (qc.OperatorSum(two, [(1.0, tuple("XI")), (0.5j, tuple("YZ"))]), 0.3),
        (qc.OperatorSum(two, [(0.8, tuple("IZ")), (-0.4, tuple("ZY"))]), 0.2),
        (qc.OperatorSum(two, [(1.0, ("S-", "I")), (0.5, ("I", "Pg"))]), 0.25)])
    ops = [z, qc.OperatorSum.single(one, 0, "Pg")]
    ops += [ch.operator for m in (single_shot, damping, sampled) for ch in m.channels]
    for op in ops:
        assert_pauli_terms_match_oracle(op)
    # random sums over all eight qubit codes, each label written once or twice
    rng = np.random.default_rng(251)
    codes = ["I", "X", "Y", "Z", "S+", "S-", "Pe", "Pg"]
    for _ in range(300):
        n = int(rng.integers(1, 5))
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            factors = tuple(rng.choice(codes, size=n))
            terms += [(complex(*rng.standard_normal(2)), factors)
                      for _ in range(int(rng.integers(1, 3)))]
        assert_pauli_terms_match_oracle(qc.OperatorSum(qc.HilbertSpace.qubits(n), terms))


def test_pauli_terms_drop_what_cancels():
    one = qc.HilbertSpace.qubits(1)
    # S+ + S- = X: the Y weights cancel exactly; X - (1 - 1e-13) X merges below 1e-12
    op = qc.OperatorSum(one, [(1.0, ("S+",)), (1.0, ("S-",))])
    assert qc.pauli_terms(op) == [(1.0, "X")]
    op = qc.OperatorSum(one, [(1.0, ("X",)), (0.5, ("Z",)), (-(1.0 - 1e-13), ("X",))])
    assert qc.pauli_terms(op) == [(0.5, "Z")] == pauli_decompose(op)
    assert qc.pauli_terms(qc.OperatorSum.pauli_string(one, "X", 0.0)) == []


def test_pauli_terms_form_no_dense_matrix(monkeypatch):
    # ten qubits: sigma- on the first times Pg on the last, plus a ZZ string
    space = qc.HilbertSpace.qubits(10)
    op = qc.OperatorSum(space, [(2.0, ("S-",) + ("I",) * 8 + ("Pg",)),
                                (0.3, ("Z", "Z") + ("I",) * 8)])

    def refuse(self):
        raise AssertionError("pauli_terms formed a dense matrix")

    monkeypatch.setattr(qc.OperatorSum, "matrix", refuse)
    mid = "I" * 8
    assert qc.pauli_terms(op) == [(0.5, "X" + mid + "I"), (-0.5, "X" + mid + "Z"),
                                  (-0.5j, "Y" + mid + "I"), (0.5j, "Y" + mid + "Z"),
                                  (0.3, "ZZ" + mid)]
    with pytest.raises(ValueError):
        qc.pauli_terms(identity_operator(qc.HilbertSpace.qubit_boson(n_max=2)))


def test_pauli_product_matches_dense():
    # every pair of 2-qubit labels, then random 4-qubit pairs
    rng = np.random.default_rng(257)
    pairs = [(a, b) for a in all_pauli_labels(2) for b in all_pauli_labels(2)]
    pairs += [tuple("".join(rng.choice(list("IXYZ"), size=4)) for _ in range(2))
              for _ in range(200)]
    for a, b in pairs:
        phase, c = qc.pauli_product(a, b)
        assert np.array_equal(phase * qc.dense_pauli(c), qc.dense_pauli(a) @ qc.dense_pauli(b))
        # a real phase exactly when the strings commute
        pa, pb = qc.dense_pauli(a), qc.dense_pauli(b)
        assert (phase.imag == 0) == np.array_equal(pa @ pb, pb @ pa)


@pytest.mark.parametrize("a, b", [("XY", "X"), ("X", "XY"), ("XQ", "XZ"), ("XZ", "xZ"),
                                  ("Z ", "ZI")])
def test_pauli_product_rejects_bad_strings(a, b):
    with pytest.raises(ValueError, match="not Pauli strings of one length"):
        qc.pauli_product(a, b)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    a = thermal_qubit(0.2)
    b = thermal_qubit(0.7)
    joint = qc.DensityMatrix(qc.HilbertSpace.qubits(2), qc.kron_all([a.matrix, b.matrix]))
    ra = qc.partial_trace(joint, [0])
    rb = qc.partial_trace(joint, [1])
    assert np.max(np.abs(ra.matrix - a.matrix)) < 1e-14
    assert np.max(np.abs(rb.matrix - b.matrix)) < 1e-14


def test_partial_trace_bell():
    rho = bell_state().to_density_matrix()
    reduced = qc.partial_trace(rho, [0])
    assert np.max(np.abs(reduced.matrix - 0.5 * np.eye(2))) < 1e-14


def test_partial_trace_ghz_two_qubits():
    # keep qubits {0,1} of GHZ_3: (|00><00| + |11><11|)/2
    rho = ghz_state(3).to_density_matrix()
    reduced = qc.partial_trace(rho, [0, 1])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.max(np.abs(reduced.matrix - expected)) < 1e-14
    assert abs(reduced.trace_error) < 1e-12


def test_partial_trace_preserves_trace_mixed_factors():
    rng = np.random.default_rng(5)
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(3), qc.Qubit()))
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    r = m @ m.conj().T
    rho = qc.DensityMatrix(space, r / np.trace(r).real)
    reduced = qc.partial_trace(rho, [1])
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_displacement_unitary_at_truncation():
    d = qc.boson_displacement_generator(12, 0.7)
    assert np.max(np.abs(d @ d.conj().T - np.eye(12))) < 1e-12


def test_hermitian_flag_validation():
    space = qc.HilbertSpace.qubits(1)
    bad = qc.OperatorSum(space, [(1.0, ("S+",))], hermitian=True)
    with pytest.raises(ValueError):
        bad.matrix()


def test_operator_algebra_dagger():
    # the adjoint pairs of the primitives: S+ and S-, a and adag, disp(+-eta)
    space = qc.HilbertSpace.qubit_boson(n_max=3)
    op = qc.OperatorSum(space, [(2.0j, ("S+", "a")), (1.0, ("Z", ("disp", 0.3)))])
    dag = qc.OperatorSum(space, [(-2.0j, ("S-", "adag")), (1.0, ("Z", ("disp", -0.3)))])
    assert np.max(np.abs(dag.matrix() - op.matrix().conj().T)) < 1e-12


def test_operator_codes_are_checked_at_construction(monkeypatch):
    space = qc.HilbertSpace.qubit_boson(n_max=3)
    with pytest.raises(ValueError, match="unknown qubit primitive"):
        qc.OperatorSum(space, [(1.0, ("a", "I"))])
    with pytest.raises(ValueError, match="unknown bosonic primitive"):
        qc.OperatorSum(space, [(1.0, ("Z", "b"))])
    with pytest.raises(ValueError, match="unknown bosonic primitive"):
        qc.OperatorSum(space, [(1.0, ("Z", ("shift", 0.3)))])
    # codes are checked by name: no factor matrix (here an expm) is built
    # before .matrix() is asked for
    def no_expm(m):
        raise AssertionError("factor matrix built at construction")

    monkeypatch.setattr(qc.operators, "expm", no_expm)
    op = qc.OperatorSum(space, [(1.0, ("Z", ("disp", 0.3)))])
    with pytest.raises(AssertionError, match="at construction"):
        op.matrix()


def test_squeeze_primitive_is_self_adjoint():
    space = qc.HilbertSpace.qubit_boson(n_max=5)
    a = qc.boson_annihilation(6)
    op = qc.OperatorSum(space, [(0.3j, ("X", "sq"))])
    assert np.array_equal(op.matrix(), 0.3j * np.kron(qc.SIGMA_X, a @ a + (a @ a).conj().T))
    dag = qc.OperatorSum(space, [(-0.3j, ("X", "sq"))])
    assert np.array_equal(dag.matrix(), op.matrix().conj().T)


@pytest.mark.parametrize("dim", [2, 3, 17, 121, 131, 1001])
def test_squeeze_primitive_in_closed_form_equals_the_gemm(dim):
    # sqrt(n+1) sqrt(n+2) on the second off-diagonal is the one nonzero
    # product in each entry of a @ a, so the closed form keeps its bits
    a = qc.boson_annihilation(dim)
    a2 = a @ a
    sq = qc.OperatorSum.single(qc.HilbertSpace((qc.Boson(dim - 1),)), 0, "sq").matrix()
    assert np.array_equal(sq, a2 + a2.conj().T)


def test_operator_blocks_equal_the_dense_gather():
    # every qubit and mode primitive, the displacement included, alone on
    # each factor of a space with three qubits and two modes, and a random
    # sum of terms; index sets sorted, unsorted, repeated and empty
    space = qc.HilbertSpace((qc.Qubit(), qc.Boson(5), qc.Qubit(), qc.Qubit(), qc.Boson(3)))
    qubit_codes = ["I", "X", "Y", "Z", "S+", "S-", "Pe", "Pg"]
    mode_codes = ["I", "a", "adag", "n", "x", "p", "sq", ("disp", 0.37)]
    codes = [qubit_codes if isinstance(f, qc.Qubit) else mode_codes for f in space.factors]
    rng = np.random.default_rng(68)
    ops = [qc.OperatorSum(space, [(0.7 - 0.2j, qc.on_factors(space, {i: code}))])
           for i, options in enumerate(codes) for code in options]
    ops.append(qc.OperatorSum(space, [
        (complex(*rng.standard_normal(2)),
         tuple(options[rng.integers(len(options))] for options in codes))
        for _ in range(12)]))
    d = space.dim
    indices = [np.arange(d), rng.permutation(d)[:50], np.sort(rng.permutation(d)[:31]),
               rng.integers(0, d, 12), np.array([], dtype=int), [], [d - 1]]
    for op in ops:
        blocks = op.blocks(indices)
        assert len(blocks) == len(indices)
        for idx, block in zip(indices, blocks):
            idx = np.asarray(idx, dtype=int)
            assert np.array_equal(block, op.matrix()[np.ix_(idx, idx)])
    with pytest.raises(ValueError):
        ops[-1].blocks([np.array([0, d])])
    with pytest.raises(ValueError):
        ops[-1].blocks([np.zeros((2, 2), dtype=int)])


def test_matrices_never_alias_the_primitive_constants():
    # matrix() scales each term in place, so no term may be a module constant
    space = qc.HilbertSpace.qubits(1)
    m = qc.OperatorSum.single(space, 0, "Z", 0.65).matrix()
    assert np.array_equal(m, np.diag([0.65, -0.65]))
    assert np.array_equal(qc.SIGMA_Z, np.diag([1.0, -1.0]))
    assert not np.shares_memory(m, qc.SIGMA_Z)
    assert not np.shares_memory(qc.dense_pauli("X"), qc.SIGMA_X)


def test_on_factors_pads_with_identities():
    space = qc.HilbertSpace.qubit_boson(n_max=2, n_qubits=3)
    assert qc.on_factors(space, {1: "X", -1: "sq"}) == ("I", "X", "I", "sq")
    assert qc.on_factors(space, {}) == ("I",) * 4


# ---------------------------------------------------------------------------
# dense Kronecker products and Pauli strings
# ---------------------------------------------------------------------------

def _chained_kron(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_kron_all_byte_identical_to_chained_kron():
    labels = [""]
    for _ in range(4):
        labels = [s + ch for s in labels for ch in "IXYZ"]
        for label in labels:
            mats = [qc.PAULIS[ch] for ch in label]
            _assert_same_bytes(qc.kron_all(mats), _chained_kron(mats))
    # mixed real and complex factors around a boson-sized 3x3 factor,
    # with signed zeros that a different product order would flip
    rng = np.random.default_rng(7)
    boson = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    boson[0, 0] = -0.0 + 0.0j
    for mats in ([qc.PAULIS["Y"], boson, np.eye(2)],
                 [np.eye(2), -np.zeros((3, 3)), qc.PAULIS["Y"], boson],
                 [boson, np.array([[1.0, -0.0], [0.0, -1.0]])]):
        _assert_same_bytes(qc.kron_all(mats), _chained_kron(mats))
    # 1-D lists, as the diagonal builders pass them
    for vecs in ([np.array([1.0, -1.0]), np.ones(2), np.array([0.0, 1.0])],
                 [np.array([1.0, -1.0]), 1j ** np.arange(5)],
                 [np.array([-0.0, 2.0])]):
        _assert_same_bytes(qc.kron_all(vecs), _chained_kron(vecs))


def test_kron_all_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        qc.kron_all([np.eye(2), np.ones(2)])
    with pytest.raises(ValueError):
        qc.kron_all([np.ones(2), np.eye(2)])


def test_empty_factor_lists_are_value_errors():
    # kron_all checks for an empty list before it reads a factor, and the
    # Pauli builders on it refuse the empty label with it
    with pytest.raises(ValueError):
        qc.kron_all([])
    with pytest.raises(ValueError):
        qc.dense_pauli("")
    with pytest.raises(ValueError):
        qc.pauli_rotation("", 0.3)


def test_dense_pauli_rejects_bad_letter():
    with pytest.raises(ValueError):
        qc.dense_pauli("XQ")
