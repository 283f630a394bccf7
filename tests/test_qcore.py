"""Substrate tests: spaces, states, operators, evolution, metrics."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qworkbench import qcore as qc


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
    rho = qc.thermal_qubit(0.3)
    assert rho.trace_error < 1e-15
    assert rho.min_eigenvalue() >= 0.0


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
    # A builder that happens to be constant must agree with the expm path.
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hmat = 0.5 * (m + m.conj().T)
    psi = qc.random_pure_state(space, rng)
    exact = qc.evolve(psi, qc.Schedule.constant(hmat, space), 0.0, 0.8)
    via_ivp = qc.evolve(psi, qc.Schedule.time_dependent(space, lambda t: hmat), 0.0, 0.8)
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
    builder = lambda t: math.cos(3.0 * t) * zmat + math.sin(t) * xmat
    psi = qc.basis_state(space, [0, 1])
    out = qc.evolve(psi, qc.Schedule.time_dependent(space, builder), 0.0, 2.0)
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
    # form against the same Hamiltonian assembled densely by a builder
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
    dense_form = qc.Schedule.time_dependent(space, builder)
    for t in (0.0, 0.37, 1.9):
        assert np.max(np.abs(terms.matrix_at(t) - builder(t))) < 1e-10
    psi = qc.random_pure_state(space, rng)
    a = qc.evolve(psi, terms, 0.1, 1.4)
    b = qc.evolve(psi, dense_form, 0.1, 1.4)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10
    rho = qc.DensityMatrix(space, 0.6 * psi.to_density_matrix().matrix
                           + 0.4 * np.eye(d) / d)
    a = qc.evolve(rho, terms, 0.1, 1.4)
    b = qc.evolve(rho, dense_form, 0.1, 1.4)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10
    u = qc.propagator(terms, 0.1, 1.4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-8
    assert np.max(np.abs(a.matrix - u @ rho.matrix @ u.conj().T)) < 1e-8
    assert np.max(np.abs(u - qc.propagator(dense_form, 0.1, 1.4))) < 1e-10


def test_term_form_apply_shapes_and_fresh_results():
    space = qc.HilbertSpace.qubits(2)
    rng = np.random.default_rng(3)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    sched = qc.Schedule.from_terms(space, [(math.cos, h0), (math.sin, h1)],
                                   frame=[0.5, -1.0, 2.0, 0.0])
    apply = sched.pieces[0].apply
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


def test_dimension_mismatch_rejected():
    s1, s2 = qc.HilbertSpace.qubits(1), qc.HilbertSpace.qubits(2)
    h = qc.Schedule.constant(qc.OperatorSum.zero(s2))
    with pytest.raises(qc.DimensionMismatchError):
        qc.evolve(qc.basis_state(s1, [0]), h, 0.0, 1.0)


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
    assert abs(qc.expectation(qc.thermal_qubit(0.3), z) - 0.4) < 1e-15


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
    assert abs(qc.trace_distance(rho, qc.maximally_mixed(space)) - 0.5) < 1e-14


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
                 qc.pauli_decompose(qc.OperatorSum.single(space, 0, "S-")))
    assert set(terms) == {"X", "Y"}
    assert abs(terms["X"] - 0.5) < 1e-14
    assert abs(terms["Y"] - (-0.5j)) < 1e-14


def test_pauli_decompose_identity():
    space = qc.HilbertSpace.qubits(3)
    terms = qc.pauli_decompose(qc.OperatorSum.identity(space))
    assert terms == [(1.0 + 0.0j, "III")]


def test_pauli_decompose_round_trip_and_norm_bounds():
    rng = np.random.default_rng(21)
    space = qc.HilbertSpace.qubits(2)
    for _ in range(40):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = 0.5 * (m + m.conj().T)
        m /= np.linalg.norm(m, ord=2)  # spectral norm 1
        terms = qc.pauli_decompose(m, space)
        rebuilt = qc.pauli_recompose(terms, 2)
        assert np.max(np.abs(rebuilt - m)) < 1e-12
        coeffs = np.array([q for q, _ in terms])
        assert np.sum(np.abs(coeffs) ** 2) <= 1.0 + 1e-12
        assert np.sum(np.abs(coeffs)) <= math.sqrt(len(coeffs)) + 1e-12


def test_pauli_decompose_rejects_bosons():
    space = qc.HilbertSpace.qubit_boson(n_max=2)
    with pytest.raises(ValueError):
        qc.pauli_decompose(qc.OperatorSum.identity(space))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    a = qc.thermal_qubit(0.2)
    b = qc.thermal_qubit(0.7)
    joint = a.tensor(b)
    ra = qc.partial_trace(joint, [0])
    rb = qc.partial_trace(joint, [1])
    assert np.max(np.abs(ra.matrix - a.matrix)) < 1e-14
    assert np.max(np.abs(rb.matrix - b.matrix)) < 1e-14


def test_partial_trace_bell():
    rho = qc.bell_state().to_density_matrix()
    reduced = qc.partial_trace(rho, [0])
    assert np.max(np.abs(reduced.matrix - 0.5 * np.eye(2))) < 1e-14


def test_partial_trace_ghz_two_qubits():
    # keep qubits {0,1} of GHZ_3: (|00><00| + |11><11|)/2
    rho = qc.ghz_state(3).to_density_matrix()
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
    space = qc.HilbertSpace.qubit_boson(n_max=3)
    op = qc.OperatorSum(space, [(2.0j, ("S+", "a")), (1.0, ("Z", ("disp", 0.3)))])
    dag = op.dagger()
    assert np.max(np.abs(dag.matrix() - op.matrix().conj().T)) < 1e-12
