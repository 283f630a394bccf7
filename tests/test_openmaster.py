"""Lindblad oracle, Dyson terms, Monte-Carlo reconstruction, and bounds."""
import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from qworkbench import openmaster as om
from qworkbench import qcore as qc
from qworkbench import timecorr as tc

from qcore_helpers import all_pauli_labels, identity_operator, maximally_mixed, pauli_decompose


def one_qubit_space():
    return qc.HilbertSpace.qubits(1)


def sigma(space, label, coeff=1.0):
    return qc.OperatorSum.single(space, 0, label, coeff)


def amplitude_damping_model(gamma):
    """Decay toward |g> with L = sigma- (|g><e|), H = 0."""
    space = one_qubit_space()
    return om.LindbladModel(qc.OperatorSum.zero(space),
                            [(sigma(space, "S-"), gamma)])


def random_model(rng, n_qubits=2, n_channels=2, gamma_scale=0.5, h_scale=1.0):
    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = qc.Schedule.constant(h_scale * 0.5 * (m + m.conj().T), space)
    labels = "IXYZ"
    channels = []
    for _ in range(n_channels):
        terms = []
        for _ in range(rng.integers(1, 3)):
            lbl = "".join(rng.choice(list(labels), size=n_qubits))
            cr, ci = rng.standard_normal(2)
            terms.append((cr + 1j * ci, tuple(lbl)))
        op = qc.OperatorSum(space, terms)
        if op.norm_inf() < 1e-9:
            op = qc.OperatorSum.pauli_string(space, "X" + "I" * (n_qubits - 1))
        channels.append((op, float(rng.uniform(0.1, 1.0)) * gamma_scale))
    return om.LindbladModel(h, channels)


def random_density_matrix(space, rng):
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    r = m @ m.conj().T
    return qc.DensityMatrix(space, r / np.trace(r).real)


def kron_commutator(h):
    """-i[h, .] written as a column-stacking kron superoperator."""
    eye = np.eye(h.shape[0])
    return -1j * (qc.kron_all([eye, h]) - qc.kron_all([h.T, eye]))


def kron_dissipator(model, t):
    """sum_i gamma_i(t) (L_i . L_i^dag - {L_i^dag L_i, .}/2) in kron form."""
    d = model.space.dim
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for ch in model.channels:
        l = ch.operator.matrix()
        ldl = l.conj().T @ l
        out += ch.rate(t) * (qc.kron_all([l.conj(), l]) - 0.5 * qc.kron_all([eye, ldl])
                             - 0.5 * qc.kron_all([ldl.T, eye]))
    return out


def kron_block_generator(l0, lp, order):
    """Van Loan's I kron L0 + S kron LP, S the sub-diagonal shift."""
    return qc.kron_all([np.eye(order + 1), l0]) + qc.kron_all([np.eye(order + 1, k=-1), lp])


# ---------------------------------------------------------------------------
# exact Lindblad solver
# ---------------------------------------------------------------------------

def test_zero_rates_match_unitary():
    rng = np.random.default_rng(1)
    space = qc.HilbertSpace.qubits(2)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    hmat = 0.5 * (m + m.conj().T)
    h = qc.Schedule.constant(hmat, space)
    model = om.LindbladModel(h, [(qc.OperatorSum.pauli_string(space, "XI"), 0.0)])
    rho0 = random_density_matrix(space, rng)
    got = om.lindblad_exact(model, rho0, 0.9)
    expected = qc.evolve(rho0, h, 0.0, 0.9)
    assert np.max(np.abs(got.matrix - expected.matrix)) < 1e-10


def test_amplitude_damping_rate_equation():
    # rho0 = |e><e|, L = sigma-: excited population e^{-gamma t}, so
    # <sigma_z>(t) = 2 exp(-gamma t) - 1  (|e> has sigma_z = +1 here)
    gamma, t = 0.8, 1.3
    space = one_qubit_space()
    model = amplitude_damping_model(gamma)
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    out = om.lindblad_exact(model, rho0, t)
    z = qc.expectation(out, sigma(space, "Z")).real
    assert abs(z - (2.0 * math.exp(-gamma * t) - 1.0)) < 1e-10


def test_trace_preserved_random_models():
    rng = np.random.default_rng(5)
    for _ in range(8):
        model = random_model(rng)
        rho0 = random_density_matrix(model.space, rng)
        out = om.lindblad_exact(model, rho0, 0.7)
        assert out.trace_error < 1e-10


def test_lindblad_operator_normalization_absorbed():
    # L and c*L with gamma/c^2 generate identical dynamics; the model
    # normalizes ||L||_inf = 1 internally either way.
    space = one_qubit_space()
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    m1 = om.LindbladModel(qc.OperatorSum.zero(space), [(sigma(space, "S-"), 0.5)])
    m2 = om.LindbladModel(qc.OperatorSum.zero(space), [(sigma(space, "S-", 2.0), 0.125)])
    a = om.lindblad_exact(m1, rho0, 1.1)
    b = om.lindblad_exact(m2, rho0, 1.1)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12
    assert abs(m1.channels[0].operator.norm_inf() - 1.0) < 1e-12


def test_non_markovian_rates_stay_positive():
    # gamma(t) < 0 on a subinterval but int_0^t gamma > 0 for all t keeps
    # the evolution completely positive
    space = one_qubit_space()
    rate = lambda t: 0.5 + math.cos(20.0 * t)  # dips negative, integral stays up
    tt = np.linspace(1e-4, 2.0, 2000)
    integrals = 0.5 * tt + np.sin(20.0 * tt) / 20.0  # closed-form primitive
    assert min(rate(t) for t in tt) < 0.0 and np.all(integrals > 0.0)
    model = om.LindbladModel(sigma(space, "Z", 0.7), [(sigma(space, "S-"), rate)])
    rho0 = qc.DensityMatrix(space, np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex))
    for t in (0.5, 1.0, 2.0):
        out = om.lindblad_exact(model, rho0, t, tol=1e-11)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-8
        assert out.trace_error < 1e-9


def test_liouvillian_matrix_matches_kron_formula():
    # the superoperator is the two actions applied to the unit matrices; the
    # kron formula it replaced is the oracle
    rng = np.random.default_rng(211)
    for n_qubits in (1, 2):
        for _ in range(4):
            model = random_model(rng, n_qubits=n_qubits, n_channels=2)
            ref = kron_commutator(model.h.matrix_at(0.0)) + kron_dissipator(model, 0.0)
            assert np.max(np.abs(om.liouvillian_matrix(model, 0.0) - ref)) < 1e-15
    base = random_model(rng, n_qubits=2, n_channels=2)
    model = om.LindbladModel(base.h, [(ch.operator, lambda s, k=k: 0.4 + k * math.sin(3.0 * s))
                                      for k, ch in enumerate(base.channels)])
    assert not model.is_constant
    t = 0.37
    ref = kron_commutator(model.h.matrix_at(t)) + kron_dissipator(model, t)
    assert np.max(np.abs(om.liouvillian_matrix(model, t) - ref)) < 1e-15


def test_route_is_declared_not_sampled():
    # gamma(k t / 6) = 0.5 to rounding for k = 0..6 at t = 0.5 and 1.0, so a
    # route guessed from those samples would exponentiate gamma(0); a
    # callable rate always takes the stepper and follows gamma between them
    space = one_qubit_space()
    h = sigma(space, "X", 2.0)
    rate = lambda s: 0.5 + 0.45 * math.sin(12.0 * math.pi * s)
    model = om.LindbladModel(h, [(sigma(space, "S-"), rate)])
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    for t in (0.5, 1.0):
        ref = solve_ivp(lambda s, y: om.liouvillian_matrix(model, s) @ y, (0.0, t),
                        rho0.matrix.reshape(-1, order="F"), method="DOP853",
                        rtol=1e-12, atol=1e-14, max_step=2e-3).y[:, -1]
        ref = ref.reshape(2, 2, order="F")
        assert np.max(np.abs(om.lindblad_exact(model, rho0, t).matrix - ref)) < 1e-8
        assert np.max(np.abs(om.truncated_states(model, rho0, t, 8)[-1] - ref)) < 1e-8
    damping = (sigma(space, "S-"), 0.5)
    assert om.LindbladModel(h, [damping, (sigma(space, "Z"), 0.2)]).is_constant
    assert not om.LindbladModel(h, [damping, (sigma(space, "Z"), lambda s: 0.2)]).is_constant
    driven = qc.Schedule.from_terms(space, [(math.cos, h.matrix())])
    assert not om.LindbladModel(driven, [damping]).is_constant


# ---------------------------------------------------------------------------
# Dyson terms
# ---------------------------------------------------------------------------

def test_dyson_term_hand_value():
    # n=1, L = sigma-, O = sigma_z, H = 0, initial |e><e|:
    # <sigma+ sigma_z sigma-> - 1/2 <{sigma_z, sigma+ sigma-}> = -1 - 1 = -2
    # so the integrand is -2*gamma(s1)
    space = one_qubit_space()
    gamma = 0.37
    model = amplitude_damping_model(gamma)
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    for s1 in (0.0, 0.4, 0.9):
        val = om.dyson_term(model, sigma(space, "Z"), rho0, [0], [s1], t=1.0)
        assert abs(val - (-2.0 * gamma)) < 1e-12


def test_dyson_term_zero_rates():
    space = one_qubit_space()
    model = om.LindbladModel(sigma(space, "Z"), [(sigma(space, "X"), 0.0)])
    rho0 = maximally_mixed(space)
    assert om.dyson_term(model, sigma(space, "Z"), rho0, [0], [0.3], t=1.0) == 0.0


def test_dyson_term_dual_path():
    # superoperator evaluation vs the same integrand as a sum of Pauli-string
    # multi-time correlators, each from the generic Heisenberg-chain oracle
    rng = np.random.default_rng(17)
    t = 1.0
    for _ in range(4):
        model = random_model(rng, n_qubits=2, n_channels=2)
        rho0 = random_density_matrix(model.space, rng)
        obs = qc.OperatorSum.pauli_string(model.space, "ZI")
        times = [float(s) for s in np.sort(rng.uniform(0.0, 0.8, size=2))[::-1]]
        idx = list(rng.integers(0, model.n_channels, size=2))
        value = om.dyson_term(model, obs, rho0, idx, times, t=t)
        chains = om._pauli_chains(pauli_decompose(obs),
                                  [pauli_decompose(model.channels[i].operator)
                                   for i in idx])
        slot_times = [t] + times
        weight = math.prod(model.channels[i].rate(s) for i, s in zip(idx, times))
        alt = sum(coeff * tc.heisenberg_chain_expectation(
            model.h, [(qc.dense_pauli(lbl), slot_times[slot]) for lbl, slot in ops], rho0)
            for coeff, ops in chains)
        alt = float(np.real(weight * alt))
        assert abs(alt - value) <= 1e-8 * max(1.0, abs(value))


def test_dyson_term_rejects_unsorted_times():
    space = one_qubit_space()
    model = amplitude_damping_model(0.3)
    rho0 = maximally_mixed(space)
    with pytest.raises(ValueError):
        om.dyson_term(model, sigma(space, "Z"), rho0, [0, 0], [0.2, 0.5], t=1.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_order_zero_is_unitary_expectation():
    rng = np.random.default_rng(23)
    model = random_model(rng, n_qubits=1, n_channels=1)
    rho0 = random_density_matrix(model.space, rng)
    obs = sigma(model.space, "Z")
    rec = om.reconstruct(model, obs, rho0, t=0.8, order=0)
    u = qc.propagator(model.h, 0.0, 0.8)
    expected = np.real(np.trace(obs.matrix() @ u @ rho0.matrix @ u.conj().T))
    assert abs(rec.value - expected) < 1e-12


def test_first_order_amplitude_damping():
    # K=1 at small gamma*t: <sigma_z> ~ exact to O((gamma t)^2), and the
    # truncation bound covers the difference from the exact solution.
    gamma, t = 0.15, 0.5
    space = one_qubit_space()
    model = amplitude_damping_model(gamma)
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    obs = sigma(space, "Z")
    rec = om.reconstruct(model, obs, rho0, t, order=1)
    exact = qc.expectation(om.lindblad_exact(model, rho0, t), obs).real
    # series: 1 - 2 gamma t + O((gamma t)^2) for <sigma_z> = 2 e^{-gt} - 1
    assert abs(rec.value - (1.0 - 2.0 * gamma * t)) < 1e-10
    bound = om.observable_bound(model, obs, 1, t) * 2.0 * 1.0  # D_O normalization
    assert abs(rec.value - exact) <= 2.0 * om.truncation_bound(1, t, model.gamma_bar(t), 1)


def test_quadrature_matches_exact_when_convergent():
    rng = np.random.default_rng(31)
    model = random_model(rng, n_qubits=1, n_channels=1, gamma_scale=0.3)
    rho0 = random_density_matrix(model.space, rng)
    obs = sigma(model.space, "X")
    t = 0.6
    rec = om.reconstruct(model, obs, rho0, t, order=3)
    exact = qc.expectation(om.lindblad_exact(model, rho0, t), obs).real
    bound = om.truncation_bound(3, t, model.gamma_bar(t), model.n_channels)
    assert abs(rec.value - exact) <= 2.0 * bound + 1e-9


def test_monte_carlo_consistent_with_quadrature():
    # MC estimate within 3 empirical standard errors of the quadrature value
    rng = np.random.default_rng(47)
    hits = 0
    trials = 10
    for k in range(trials):
        model = random_model(rng, n_qubits=1, n_channels=1, gamma_scale=0.4)
        rho0 = random_density_matrix(model.space, rng)
        obs = sigma(model.space, "Z")
        t = 0.7
        quad = om.reconstruct(model, obs, rho0, t, order=2)
        estimates = [om.reconstruct(model, obs, rho0, t, order=2,
                                    plan=om.MonteCarloPlan(160, master_seed=800 + 31 * k + r)).value
                     for r in range(6)]
        se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        if abs(np.mean(estimates) - quad.value) <= 3.0 * max(se, 1e-12):
            hits += 1
    assert hits >= trials - 1


def test_monte_carlo_bernstein_against_exact_series():
    """Exact-mode sample means of orders 1 and 2 against the exact series.

    Model: H = 0.65 Z + 3 X, L = X at gamma = 0.25, O = Z, t = 0.3, so the
    chain means are not +-1 and the integrand varies over the simplex.  A
    scaled sample of order n is Y = (t^n / n!) * value; each dissipator
    adjoint has norm at most 2 gamma ||X||^2, so |Y| <= B = (t^n / n!) (2
    gamma)^n ||Z|| and |Y - E Y| <= R = 2B.

    The variance comes from a pilot draw (master seed 1, 20000 samples),
    disjoint from the tested draw (master seed 0, 20000 samples).  It is
    raised to an upper bound, sigma <= s + R sqrt(2 ln(1/d) / (m - 1)),
    which fails with probability at most d (Maurer & Pontil, COLT 2009,
    Thm. 10).  Bernstein's inequality then gives
    P(|mean - E Y| >= eps) <= 2 exp(-M eps^2 / (2 sigma^2 + 2 R eps / 3)),
    and eps is solved from that probability set to d.  With d = 1e-6 / 4
    for each of the two variance bounds and the two deviations, the test
    fails on a correct estimator with probability at most 1e-6.

    The exact series and the samples are both exact to rounding here
    (constant H), so eps is the whole tolerance: eps = 5.7e-4 for order 1
    (1.8% of its value 0.0321) and 4.3e-5 for order 2 (1.7% of -0.00244).
    A bias above 2 eps (1.1e-3 and 8.5e-5) makes the test fail with
    probability at least 1 - 1e-6, if the biased sampler keeps the
    variance bound.  Dropping the factor 1/2 on one anticommutator chain
    of ``_pauli_chains`` moves the means by 7.9e-3 and 1.35e-3.
    """
    space = one_qubit_space()
    gamma, t, samples, d = 0.25, 0.3, 20000, 1e-6 / 4
    model = om.LindbladModel(qc.OperatorSum(space, [(0.65, ("Z",)), (3.0, ("X",))]),
                             [(qc.OperatorSum.pauli_string(space, "X"), gamma)])
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    obs = sigma(space, "Z")
    truth = om.reconstruct(model, obs, rho0, t, 2).per_order
    log_2_d = math.log(2.0 / d)
    for order in (1, 2):
        scale = t ** order / math.factorial(order)
        r = 2.0 * scale * (2.0 * gamma) ** order

        def draw(seed):
            plan = om.MonteCarloPlan(samples, master_seed=seed)
            terms = om._chain_terms(model, obs, t)
            return scale * om._sample_values(model, terms, rho0, order, t, plan)

        sd = np.std(draw(1), ddof=1) + r * math.sqrt(2.0 * math.log(1.0 / d) / (samples - 1))
        # the positive root of M eps^2 = log(2/d) (2 sd^2 + 2 r eps / 3)
        lin = r * log_2_d / (3.0 * samples)
        eps = lin + math.sqrt(lin ** 2 + 2.0 * sd ** 2 * log_2_d / samples)
        assert abs(np.mean(draw(0)) - truth[order]) < eps


def pauli_channel_model(rng, n_qubits, n_channels, rate=None):
    """Random H; each channel is two random non-identity Pauli strings."""
    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = qc.Schedule.constant(0.5 * (m + m.conj().T), space)
    labels = [lbl for lbl in all_pauli_labels(n_qubits) if set(lbl) != {"I"}]
    channels = []
    for _ in range(n_channels):
        terms = [(complex(*rng.standard_normal(2)), tuple(lbl))
                 for lbl in rng.choice(labels, size=2, replace=False)]
        channels.append((qc.OperatorSum(space, terms), float(rng.uniform(0.1, 0.5))))
    if rate is not None:
        channels[0] = (channels[0][0], rate)
    return om.LindbladModel(h, channels)


def plan_rows(plan, order, width):
    """The documented row block of ``MonteCarloPlan``: one row per sample."""
    rng = np.random.Generator(np.random.Philox(key=(plan.master_seed, order)))
    return rng.random((plan.samples_per_order, width))


def test_batched_samples_match_dyson_term():
    # exact-mode sample values equal the superoperator integrand at the
    # same (channel indices, times), for constant and time-dependent rates
    rng = np.random.default_rng(211)
    rate = lambda s: 0.3 + 0.4 * math.cos(7.0 * s)
    t = 0.8
    for n_qubits, n_channels, with_rate in ((1, 1, False), (1, 2, True), (2, 1, True),
                                            (2, 2, False)):
        model = pauli_channel_model(rng, n_qubits, n_channels, rate if with_rate else None)
        rho0 = random_density_matrix(model.space, rng)
        obs = qc.OperatorSum(model.space, [(0.8, tuple("Z" * n_qubits)),
                                           (0.3, tuple("X" + "I" * (n_qubits - 1)))])
        for order in (1, 2, 3):
            plan = om.MonteCarloPlan(12, master_seed=order + 10 * n_qubits)
            terms = om._chain_terms(model, obs, t)
            values = om._sample_values(model, terms, rho0, order, t, plan)
            rows = plan_rows(plan, order, 2 * order)
            idx = (rows[:, :order] * n_channels).astype(int)
            times = np.sort(rows[:, order:] * t, axis=1)[:, ::-1]
            ref = np.array([om.dyson_term(model, obs, rho0, list(i), list(s), t)
                            for i, s in zip(idx, times)])
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


def test_batched_samples_time_dependent_hamiltonian():
    # a non-constant H fills the propagator stack step by step; agreement
    # is then limited by the adaptive stepper's tolerance
    space = one_qubit_space()
    z, x = sigma(space, "Z"), sigma(space, "X").matrix()
    h = qc.Schedule.from_terms(space, [(0.6, z.matrix()), (lambda s: math.cos(3.0 * s), x)])
    model = om.LindbladModel(h, [(sigma(space, "S-"), 0.4)])
    rho0 = qc.DensityMatrix(space, np.array([[0.6, 0.2j], [-0.2j, 0.4]]))
    plan = om.MonteCarloPlan(5, master_seed=3)
    values = om._sample_values(model, om._chain_terms(model, z, 0.9), rho0, 2, 0.9, plan)
    rows = plan_rows(plan, 2, 4)
    times = np.sort(rows[:, 2:] * 0.9, axis=1)[:, ::-1]
    ref = [om.dyson_term(model, z, rho0, [0, 0], list(s), 0.9) for s in times]
    np.testing.assert_allclose(values, ref, rtol=0.0, atol=1e-9)


def test_monte_carlo_samples_prefix_stable_and_replayable():
    # sample j is a pure function of (master_seed, order, j): a smaller
    # plan sees the first rows of a larger one, and a replay is identical
    rng = np.random.default_rng(223)
    model = pauli_channel_model(rng, 2, 2)
    rho0 = random_density_matrix(model.space, rng)
    obs = qc.OperatorSum.pauli_string(model.space, "ZI")
    for shots in (None, 1, 3):
        for order in (1, 2):
            terms = om._chain_terms(model, obs, 0.6)
            big = om._sample_values(model, terms, rho0, order, 0.6,
                                    om.MonteCarloPlan(40, 5, shots))
            small = om._sample_values(model, terms, rho0, order, 0.6,
                                      om.MonteCarloPlan(7, 5, shots))
            assert np.array_equal(big[:7], small)
        plan = om.MonteCarloPlan(40, 9, shots)
        first = om.reconstruct(model, obs, rho0, 0.6, 2, plan=plan).value
        assert om.reconstruct(model, obs, rho0, 0.6, 2, plan=plan).value == first


def test_plan_reconstructs_seven_qubits():
    # past the 4^n projection's 6-qubit reach: the chains read the Pauli
    # strings of O and of each channel from their terms, and the exact-mode
    # samples equal the superoperator integrand at d = 128
    rng = np.random.default_rng(257)
    t = 0.6
    model = pauli_channel_model(rng, 7, 2)
    rho0 = random_density_matrix(model.space, rng)
    obs = qc.OperatorSum(model.space, [(0.8, tuple("Z" * 7)), (0.3, tuple("X" + "I" * 6))])
    plan = om.MonteCarloPlan(3, master_seed=7)
    values = om._sample_values(model, om._chain_terms(model, obs, t), rho0, 1, t, plan)
    rows = plan_rows(plan, 1, 2)
    idx = (rows[:, :1] * model.n_channels).astype(int)
    ref = np.array([om.dyson_term(model, obs, rho0, list(i), [s * t], t)
                    for i, s in zip(idx, rows[:, 1])])
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
    rec = om.reconstruct(model, obs, rho0, t, 1, plan=plan)
    assert rec.per_order[1] == model.n_channels * t * float(np.mean(values))


def test_plan_order_zero_is_the_exact_term():
    # order 0 of a plan is U(t) rho0 U(t)^dag, not sampled: it equals the
    # exact series' order-0 term on a constant H to rounding, and on a driven
    # H to the stepper's tolerance, since there the series steps the block
    # stack and the plan steps U, two RK45 runs at DEFAULT_TOL (8e-12 apart)
    rng = np.random.default_rng(239)
    constant = pauli_channel_model(rng, 2, 2)
    h = qc.Schedule.from_terms(constant.space, [(1.0, constant.h.matrix_at(0.0)),
                                                (lambda s: math.cos(2.0 * s), qc.dense_pauli("XY"))])
    driven = om.LindbladModel(h, [(ch.operator, ch.rate(0.0)) for ch in constant.channels])
    rho0 = random_density_matrix(constant.space, rng)
    obs = qc.OperatorSum(constant.space, [(0.8, tuple("ZX")), (0.3, tuple("YI"))])
    plan = om.MonteCarloPlan(3, master_seed=5)
    for model, atol in ((constant, 1e-13), (driven, qc.DEFAULT_TOL)):
        exact = om.reconstruct(model, obs, rho0, 0.7, 2).per_order[0]
        assert abs(om.reconstruct(model, obs, rho0, 0.7, 2, plan=plan).per_order[0]
                   - exact) < atol


def test_plan_forms_no_block_exponential(monkeypatch):
    # a constant model's plan takes order 0 from the eigenbasis propagator
    rng = np.random.default_rng(241)
    model = pauli_channel_model(rng, 2, 2)
    assert model.is_constant
    rho0 = random_density_matrix(model.space, rng)
    obs = qc.OperatorSum.pauli_string(model.space, "ZI")
    expected = om.reconstruct(model, obs, rho0, 0.6, 2, plan=om.MonteCarloPlan(4, 3)).value

    def forbidden(*args, **kwargs):
        raise AssertionError("a plan formed the block exponential")

    monkeypatch.setattr(om, "expm_block_toeplitz", forbidden)
    assert om.reconstruct(model, obs, rho0, 0.6, 2, plan=om.MonteCarloPlan(4, 3)).value == expected


def test_merged_samples_match_dyson_term_three_qubits():
    # d = 8 takes the `@` side of the stack product; two-term Lindblad
    # operators make merged same-slot products such as X Y = iZ carry +-i
    rng = np.random.default_rng(229)
    t = 0.8
    model = pauli_channel_model(rng, 3, 2)
    rho0 = random_density_matrix(model.space, rng)
    obs = qc.OperatorSum(model.space, [(0.8, tuple("ZZZ")), (0.3, tuple("XIY")),
                                       (0.2, tuple("III"))])
    for order in (1, 2, 3):
        plan = om.MonteCarloPlan(4, master_seed=40 + order)
        terms = om._chain_terms(model, obs, t)
        values = om._sample_values(model, terms, rho0, order, t, plan)
        rows = plan_rows(plan, order, 2 * order)
        idx = (rows[:, :order] * model.n_channels).astype(int)
        times = np.sort(rows[:, order:] * t, axis=1)[:, ::-1]
        ref = np.array([om.dyson_term(model, obs, rho0, list(i), list(s), t)
                        for i, s in zip(idx, times)])
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


def unmerged_sample_values(model, observable, rho0, order, t, plan):
    """Sample values as documented by ``MonteCarloPlan``, one sample at a
    time: every chain of ``_pauli_chains`` is a dense product of its U^dag P U
    factors, with no merging of same-slot factors and no cached factor.  The
    Pauli terms are ``qc.pauli_terms``'s; ``test_qcore.py`` checks them
    against the dense projection ``pauli_decompose``."""
    o_terms = qc.pauli_terms(observable)
    l_terms = [qc.pauli_terms(ch.operator) for ch in model.channels]
    shots = plan.shots_per_value
    max_chains = len(o_terms) * max(3 * len(terms) ** 2 for terms in l_terms) ** order
    rows = plan_rows(plan, order, 2 * order + 2 * shots * max_chains)
    idx = (rows[:, :order] * model.n_channels).astype(int)
    times = np.sort(rows[:, order:2 * order] * t, axis=1)[:, ::-1]
    paulis = {lbl: qc.dense_pauli(lbl) for lbl in all_pauli_labels(model.space.n_factors)}
    values = np.ones(plan.samples_per_order)
    for k in range(order):
        values *= [model.channels[i].rate(s) for i, s in zip(idx[:, k], times[:, k])]
    for j in range(plan.samples_per_order):
        chains = om._pauli_chains(o_terms, [l_terms[i] for i in idx[j]])
        us = [qc.propagator(model.h, 0.0, s) for s in [t] + list(times[j])]
        means = np.empty(len(chains), dtype=complex)
        for c, (_, ops) in enumerate(chains):
            acc = rho0.matrix
            for lbl, slot in reversed(ops):
                acc = us[slot].conj().T @ paulis[lbl] @ us[slot] @ acc
            means[c] = np.trace(acc)
        u = rows[j, 2 * order:2 * order + 2 * shots * len(chains)].reshape(len(chains), 2, shots)
        outcomes = qc.shot_means(np.stack([means.real, means.imag], axis=-1), u)
        coeffs = np.array([coeff for coeff, _ in chains])
        values[j] *= np.real(np.sum((outcomes[:, 0] + 1j * outcomes[:, 1]) * coeffs))
    return values


def test_single_shot_samples_match_unmerged_oracle():
    # merged chains and the stacked product change no outcome: shot-mode values and
    # estimates equal the one-sample-at-a-time dense oracle bit for bit, on
    # the broadcast (d = 2) and `@` (d = 4) sides of the stack product
    rng = np.random.default_rng(227)
    rate = lambda s: 0.3 + 0.4 * math.cos(7.0 * s)
    t = 0.7
    for n_qubits, n_channels, with_rate in ((1, 1, False), (1, 2, True), (2, 2, False)):
        model = pauli_channel_model(rng, n_qubits, n_channels, rate if with_rate else None)
        rho0 = random_density_matrix(model.space, rng)
        obs = qc.OperatorSum(model.space, [(0.8, tuple("Z" * n_qubits)),
                                           (0.3, tuple("X" + "I" * (n_qubits - 1)))])
        for order in (1, 2):
            for shots in (1, 3):
                plan = om.MonteCarloPlan(5, 60 + 7 * order + shots, shots)
                oracle = unmerged_sample_values(model, obs, rho0, order, t, plan)
                terms = om._chain_terms(model, obs, t)
                assert np.array_equal(om._sample_values(model, terms, rho0, order, t, plan),
                                      oracle)
                volume = (n_channels * t) ** order / math.factorial(order)
                assert (om._monte_carlo_orders(model, obs, rho0, [order], t, plan)[0]
                        == volume * float(np.mean(oracle)))


def test_stack_product_matches_matmul():
    # the d = 2 broadcast sum against `@`, on stacks and broadcast stacks;
    # from d = 4 up the helper is `@` itself
    rng = np.random.default_rng(233)
    for d in (2, 4, 8):
        a, b = (rng.standard_normal((2, 50, d, d)) + 1j * rng.standard_normal((2, 50, d, d)))
        for x, y in ((a, b), (a, b[0]), (a[:1], b)):
            got = om._stack_product(x, y)
            if d == 2:
                np.testing.assert_allclose(got, x @ y, rtol=0.0, atol=1e-14)
            else:
                assert np.array_equal(got, x @ y)


def test_single_shot_success_rate_can_fail():
    # Unlike criterion 06 (every chain mean is +-1 there, so every estimate
    # is exact), H contains X: the integrand varies over the simplex and the
    # chain means are not +-1, so single-shot estimates scatter.
    space = one_qubit_space()
    model = om.LindbladModel(qc.OperatorSum(space, [(0.65, ("Z",)), (3.0, ("X",))]),
                             [(qc.OperatorSum.pauli_string(space, "X"), 0.25)])
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    obs = sigma(space, "Z")
    t, beta, delta = 0.3, 2.0, 0.05
    omega_1 = om.sample_size_bound(delta, beta, 1, t, 1, 1, 1, model.gamma_bar(t))
    truth = om.reconstruct(model, obs, rho0, t, 1).per_order[1]
    target = 1.0 - math.exp(-beta) - 0.03

    def estimates(samples):
        return np.array([om._monte_carlo_orders(
            model, obs, rho0, [1], t, om.MonteCarloPlan(samples, seed, 1))[0]
            for seed in range(200)])

    full = estimates(omega_1)
    assert np.mean(np.abs(full - truth) <= delta) >= target
    assert np.std(full) > 0.0
    # The bound is conservative: delta is 19 standard deviations of the
    # estimate at |Omega_1| and still 1.8 at |Omega_1| / 100 = 12 samples,
    # which succeed in 92% of trials; 4 samples (about one standard
    # deviation per delta) miss the target.
    few = estimates(4)
    assert np.mean(np.abs(few - truth) <= delta) < target


def test_monte_carlo_plan_validation():
    with pytest.raises(ValueError):
        om.MonteCarloPlan(samples_per_order=0)
    with pytest.raises(ValueError):
        om.MonteCarloPlan(samples_per_order=-3)
    with pytest.raises(ValueError):
        om.MonteCarloPlan(samples_per_order=10, shots_per_value=0)
    om.MonteCarloPlan(samples_per_order=1, shots_per_value=1)
    om.MonteCarloPlan(samples_per_order=1, shots_per_value=None)


def test_plans_reject_seeds_that_are_not_stream_keys():
    # a float or bool seed would be cast onto an integer seed's stream, and a
    # negative one would fail only at the first draw
    for seed in (1.5, True, np.bool_(True), -1, 2 ** 64, "1"):
        with pytest.raises(ValueError):
            om.MonteCarloPlan(5, master_seed=seed)
        with pytest.raises(ValueError):
            tc.ShotPlan(shots=10, master_seed=seed)
    for seed in (0, np.int32(3), np.uint64(2 ** 64 - 1)):
        om.MonteCarloPlan(5, master_seed=seed)
        tc.ShotPlan(shots=10, master_seed=seed)


def test_plans_reject_counts_that_are_not_integers():
    # a count is an integer >= 1 (Python or numpy, not a bool), checked at
    # construction: 2.5 would fail deep in numpy or run 2, True would run 1
    for bad in (2.5, True, np.bool_(True), 0, -3, "4"):
        with pytest.raises(ValueError, match="shots must"):
            tc.ShotPlan(shots=bad)
        with pytest.raises(ValueError, match="samples_per_order must"):
            om.MonteCarloPlan(samples_per_order=bad)
        with pytest.raises(ValueError, match="shots_per_value must"):
            om.MonteCarloPlan(5, shots_per_value=bad)
    for good in (1, 7, np.int64(3), np.uint8(2)):
        tc.ShotPlan(shots=good)
        om.MonteCarloPlan(good, shots_per_value=good)


def test_reconstruct_guards():
    space = one_qubit_space()
    model = amplitude_damping_model(0.2)
    rho0 = maximally_mixed(space)
    with pytest.raises(ValueError):
        om.reconstruct(model, sigma(space, "Z"), rho0, 0.5, order=7)
    # below the cap no Monte-Carlo plan is needed: the exact series stays
    # within the truncation bound of the oracle
    exact = qc.expectation(om.lindblad_exact(model, rho0, 0.5), sigma(space, "Z")).real
    for order in (4, 5, 6):
        rec = om.reconstruct(model, sigma(space, "Z"), rho0, 0.5, order=order)
        bound = om.truncation_bound(order, 0.5, model.gamma_bar(0.5), model.n_channels)
        assert abs(rec.value - exact) <= 2.0 * bound


# ---------------------------------------------------------------------------
# series recursion consistency
# ---------------------------------------------------------------------------

def test_series_recursion():
    # rho~_n(t) from the order-sum equals e^{tL_H}rho0 + int e^{(t-s)L_H} L_D rho~_{n-1}(s) ds
    rng = np.random.default_rng(53)
    model = random_model(rng, n_qubits=1, n_channels=1, gamma_scale=0.5)
    rho0 = random_density_matrix(model.space, rng)
    t = 0.8
    n = 2
    direct = om.truncated_states(model, rho0, t, n)[n]

    def conjugate(mat, a, b):
        u = qc.propagator(model.h, a, b, 1e-10)
        return u @ mat @ u.conj().T

    nodes, weights = np.polynomial.legendre.leggauss(24)
    s_nodes = 0.5 * t * (nodes + 1.0)
    s_weights = 0.5 * t * weights
    acc = conjugate(rho0.matrix, 0.0, t)
    for s, w in zip(s_nodes, s_weights):
        prev = om.truncated_states(model, rho0, s, n - 1)[n - 1]
        ld = np.zeros_like(prev)
        for ch in model.channels:
            l = ch.operator.matrix()
            ld += om.apply_dissipator(l, l.conj().T, l.conj().T @ l, ch.rate(s), prev)
        acc += w * conjugate(ld, s, t)
    assert np.max(np.abs(direct - acc)) < 1e-8


def test_time_dependent_series_closed_form():
    # L = Z commutes with H = 0.7 Z, so the order-n coherence is
    # 0.3 e^{-1.4 i t} sum_{k<=n} (-2 Gamma)^k / k! with Gamma = int_0^t gamma
    space = one_qubit_space()
    rate = lambda s: 0.5 + math.cos(20.0 * s)
    model = om.LindbladModel(sigma(space, "Z", 0.7), [(sigma(space, "Z"), rate)])
    rho0 = qc.DensityMatrix(space, np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex))
    t = 0.9
    big_gamma = 0.5 * t + math.sin(20.0 * t) / 20.0
    for n, state in enumerate(om.truncated_states(model, rho0, t, 3)):
        series = sum((-2.0 * big_gamma) ** k / math.factorial(k) for k in range(n + 1))
        assert abs(state[0, 1] - 0.3 * np.exp(-1.4j * t) * series) < 1e-9


def test_time_dependent_series_forms_no_superoperator(monkeypatch):
    # a driven two-qubit model with two callable rates: the stepper runs on
    # the (order + 1, d, d) block stack, and each block matches a stiff
    # reference run on the kron block generator
    rng = np.random.default_rng(223)
    base = random_model(rng, n_qubits=2, n_channels=2)
    h0 = base.h.matrix_at(0.0)
    zx = qc.dense_pauli("ZX")
    h_of = lambda s: h0 + math.cos(2.0 * s) * zx
    h = qc.Schedule.from_terms(base.h.space, [(1.0, h0), (lambda s: math.cos(2.0 * s), zx)])
    rates = (lambda s: 0.3 + 0.2 * math.cos(5.0 * s), lambda s: 0.1 + 0.3 * s)
    model = om.LindbladModel(h, [(ch.operator, rate)
                                 for ch, rate in zip(base.channels, rates)])
    rho0 = random_density_matrix(model.space, rng)
    t, order, d = 0.6, 4, model.space.dim

    def forbidden(*args, **kwargs):
        raise AssertionError("the time-dependent route formed a superoperator")

    with monkeypatch.context() as m:
        m.setattr(om, "_superoperator", forbidden)
        m.setattr(om, "expm_block_toeplitz", forbidden)
        states = om.truncated_states(model, rho0, t, order)
    blocks = [states[0]] + [b - a for a, b in zip(states, states[1:])]

    v0 = np.zeros((order + 1) * d * d, dtype=complex)
    v0[:d * d] = rho0.matrix.reshape(-1, order="F")
    ref = solve_ivp(lambda s, y: kron_block_generator(kron_commutator(h_of(s)),
                                                      kron_dissipator(model, s), order) @ y,
                    (0.0, t), v0, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    for k, block in enumerate(ref.reshape(order + 1, d * d)):
        assert np.max(np.abs(blocks[k] - block.reshape(d, d, order="F"))) < 1e-8


def test_constant_series_matches_the_stepped_block_route():
    # one three-qubit model at order 3, with number rates (the block-Toeplitz
    # exponential) and with callable constant rates (the stepper on the
    # block stack)
    rng = np.random.default_rng(229)
    base = random_model(rng, n_qubits=3, n_channels=2)
    channels = [(ch.operator, ch.rate(0.0)) for ch in base.channels]
    exact = om.LindbladModel(base.h, channels)
    stepped = om.LindbladModel(base.h, [(op, lambda s, g=g: g) for op, g in channels])
    assert exact.is_constant and not stepped.is_constant
    rho0 = random_density_matrix(exact.space, rng)
    for a, b in zip(om.truncated_states(exact, rho0, 0.6, 3),
                    om.truncated_states(stepped, rho0, 0.6, 3), strict=True):
        assert np.max(np.abs(a - b)) < 1e-9


def test_lindblad_scenario_sizes_take_the_block_exponential(monkeypatch):
    # the lindblad-* models have one or two qubits: a constant two-qubit
    # model's state and series still come from the block-Toeplitz exponential
    rng = np.random.default_rng(307)
    model = random_model(rng, n_qubits=2, n_channels=2)
    rho0 = random_density_matrix(model.space, rng)
    real, shapes = om.expm_block_toeplitz, []

    def recording(blocks):
        shapes.append(blocks.shape)
        return real(blocks)

    monkeypatch.setattr(om, "expm_block_toeplitz", recording)
    om.lindblad_exact(model, rho0, 0.5)
    om.truncated_states(model, rho0, 0.5, 3)
    assert shapes == [(1, 16, 16), (4, 16, 16)]


def test_constant_model_above_the_crossover_forms_no_superoperator(monkeypatch):
    # at d = 16 a constant model is stepped on the block stack, and its state
    # and series match the exponential of the kron block generator
    rng = np.random.default_rng(311)
    model = random_model(rng, n_qubits=4, n_channels=2)
    d = model.space.dim
    assert model.is_constant and d > om._EXPONENTIAL_MAX_DIM
    rho0 = random_density_matrix(model.space, rng)
    t, order = 0.5, 1

    def forbidden(*args, **kwargs):
        raise AssertionError("a constant model above the crossover formed a superoperator")

    with monkeypatch.context() as m:
        m.setattr(om, "_superoperator", forbidden)
        m.setattr(om, "expm_block_toeplitz", forbidden)
        exact = om.lindblad_exact(model, rho0, t)
        states = om.truncated_states(model, rho0, t, order)
    blocks = [states[0]] + [b - a for a, b in zip(states, states[1:])]
    l0, lp = kron_commutator(model.h.matrix_at(0.0)), kron_dissipator(model, 0.0)
    v0 = rho0.matrix.reshape(-1, order="F")
    want = (scipy_expm(t * (l0 + lp)) @ v0).reshape(d, d, order="F")
    assert np.max(np.abs(exact.matrix - want)) < 1e-8
    ref = scipy_expm(t * kron_block_generator(l0, lp, order))[:, :d * d] @ v0
    for k, block in enumerate(ref.reshape(order + 1, d * d)):
        assert np.max(np.abs(blocks[k] - block.reshape(d, d, order="F"))) < 1e-8


def test_five_qubit_series_meets_the_truncation_bound():
    # criterion 05's bound on a seeded constant 5-qubit model (d = 32), where
    # the block exponential would take 4096-square blocks: the stepped series
    # meets it against lindblad_exact at orders 0-3 in well under 2 s (about
    # 0.1 s with one BLAS thread); the rates keep every bound below 0.3
    rng = np.random.default_rng(505)
    model = random_model(rng, n_qubits=5, n_channels=2, gamma_scale=0.1)
    assert model.is_constant
    rho0 = random_density_matrix(model.space, rng)
    t = 0.5
    start = time.perf_counter()
    exact = om.lindblad_exact(model, rho0, t)
    states = om.truncated_states(model, rho0, t, 3)
    elapsed = time.perf_counter() - start
    gb = model.gamma_bar(t)
    for n, tilde in enumerate(states):
        d1 = 0.5 * float(np.sum(np.linalg.svd(exact.matrix - tilde, compute_uv=False)))
        assert d1 <= om.truncation_bound(n, t, gb, model.n_channels) + 1e-9
    assert elapsed < 2.0, elapsed


def test_openmaster_never_references_kron_all():
    # the constant route exponentiates the block-Toeplitz stack; no module
    # line assembles the dense Van Loan matrix
    path = Path(om.__file__)
    sites = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Name) and node.id == "kron_all")
             or (isinstance(node, ast.Attribute) and node.attr == "kron_all")
             or (isinstance(node, ast.alias) and node.name == "kron_all")]
    assert not sites, sites


def test_only_openmaster_writes_a_master_equation():
    # outside qcore, openmaster alone steps a state (qcore.integrate) or applies
    # a dissipator; any other module evolves an open system through a
    # LindbladModel and lindblad_exact
    package = Path(om.__file__).parent
    names = {"integrate", "apply_dissipator"}
    sites = []
    for path in sorted(package.rglob("*.py")):
        if "qcore" in path.relative_to(package).parts or path.name == "openmaster.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.alias) and node.name in names) or \
                    (isinstance(node, ast.Name) and node.id in names) or \
                    (isinstance(node, ast.Attribute) and node.attr in names):
                sites.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not sites, sites


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_sample_size_bound_arithmetic():
    # n=1, M=M_O=1, gamma_bar*N*t = 0.1, delta=0.05, beta=2:
    # 36*(2+2)*(0.2)^2/0.0025 = 2304
    got = om.sample_size_bound(0.05, beta=2.0, n=1, t=0.1, n_channels=1,
                               m_lindblad=1, m_observable=1, gamma_bar=1.0)
    assert got == 2304


def test_sample_size_bound_validity_edge():
    # delta at the validity boundary (2 gamma N t)^n / n! is accepted,
    # anything above is rejected
    limit = (2.0 * 1.0 * 1.0 * 0.1) ** 1 / 1
    om.sample_size_bound(limit, 2.0, 1, 0.1, 1, 1, 1, 1.0)
    with pytest.raises(ValueError):
        om.sample_size_bound(limit * 1.01, 2.0, 1, 0.1, 1, 1, 1, 1.0)


def test_truncation_bound_values():
    # n=0 with ||L||_inf = 1: bound = gamma_bar * N * t
    assert abs(om.truncation_bound(0, 0.7, 0.3, 2) - 0.3 * 2 * 0.7) < 1e-15
    assert om.truncation_bound(3, 0.0, 1.0, 1) == 0.0
    x = 2.0 * 0.4 * 1 * 0.9
    assert abs(om.truncation_bound(2, 0.9, 0.4, 1) - x ** 3 / 12.0) < 1e-15


def test_truncation_order_rule():
    eps = 1e-3
    k = om.truncation_order(eps, t=1.0, gamma_bar=0.5, n_channels=2)
    assert k == math.ceil(2.0 * math.e * 1.0 + math.log(1.0 / (2 * eps)) - 1.0)
    # the resulting bound is indeed below the target
    assert om.truncation_bound(k, 1.0, 0.5, 2) <= eps


def test_total_measurements_guards_and_growth():
    with pytest.raises(ValueError):
        om.total_measurements(1.0, 1.0, 0.5, 1, 1, 1, beta=2.0)
    small = om.total_measurements(0.2, 0.4, 0.25, 1, 1, 1, beta=2.0)
    tight = om.total_measurements(0.1, 0.4, 0.25, 1, 1, 1, beta=2.0)
    assert small > 0 and tight > small


def test_trace_distance_bound_random_models():
    # measured D1(exact, series_n) <= (2 gamma_bar N t)^{n+1} / (2 (n+1)!)
    rng = np.random.default_rng(61)
    for _ in range(6):
        n_qubits = int(rng.integers(1, 3))
        model = random_model(rng, n_qubits=n_qubits,
                             n_channels=int(rng.integers(1, 3)), gamma_scale=0.35)
        rho0 = random_density_matrix(model.space, rng)
        t = float(rng.uniform(0.2, 0.8))
        exact = om.lindblad_exact(model, rho0, t)
        gb = model.gamma_bar(t)
        states = om.truncated_states(model, rho0, t, 5)
        for n, tilde in enumerate(states):
            d1 = 0.5 * np.sum(np.linalg.svd(exact.matrix - tilde, compute_uv=False))
            assert d1 <= om.truncation_bound(n, t, gb, model.n_channels) + 1e-9


def test_observable_bound_paper_example():
    # two qubits, L1 = sigma- (x) 1, L2 = 1 (x) sigma-, O = sigma_z (x) 1:
    # ||L_D^dag O||_inf = 2 gamma
    gamma = 0.6
    space = qc.HilbertSpace.qubits(2)
    l1 = qc.OperatorSum.single(space, 0, "S-")
    l2 = qc.OperatorSum.single(space, 1, "S-")
    model = om.LindbladModel(qc.OperatorSum.zero(space), [(l1, gamma), (l2, gamma)])
    obs = qc.OperatorSum.pauli_string(space, "ZI")
    ld_o = om.dissipator_adjoint(model, obs.matrix(), 0.0)
    assert abs(np.linalg.norm(ld_o, ord=2) - 2.0 * gamma) < 1e-12
    # and bound value matches the closed formula
    n, t = 1, 0.5
    got = om.observable_bound(model, obs, n, t)
    expected = 2.0 * gamma * (2.0 * gamma * 2) ** n * t ** (n + 1) / (2.0 * math.factorial(n + 1))
    assert abs(got - expected) < 1e-12


def test_observable_bound_zero_for_commuting_structure():
    # O commuting with L^dag L and L O L^dag = O (up to the rate) makes
    # L_D^dag O vanish: L = sigma_x, O = identity
    space = one_qubit_space()
    model = om.LindbladModel(qc.OperatorSum.zero(space), [(sigma(space, "X"), 0.9)])
    obs = identity_operator(space)
    assert om.observable_bound(model, obs, 1, 1.0) < 1e-14


def test_observable_bound_covers_measured_error():
    rng = np.random.default_rng(71)
    for _ in range(5):
        model = random_model(rng, n_qubits=1, n_channels=1, gamma_scale=0.4)
        rho0 = random_density_matrix(model.space, rng)
        obs = sigma(model.space, "Z")
        t = float(rng.uniform(0.3, 0.7))
        exact = om.lindblad_exact(model, rho0, t)
        for n in (0, 1, 2):
            tilde = om.truncated_states(model, rho0, t, n)[n]
            measured = abs(np.trace(obs.matrix() @ (exact.matrix - tilde))) / 2.0
            assert measured <= om.observable_bound(model, obs, n, t) + 1e-9


def test_number_rates_are_sampled_once(monkeypatch):
    # every sample of a number rate is the same, so observable_bound
    # evaluates L_D^dag O once and gamma_bar reads the rate once; a callable
    # rate keeps both grids (33 and 1025 times) and, held constant, gives
    # the same bytes
    space = one_qubit_space()
    obs = sigma(space, "Z")
    real = om.dissipator_adjoint
    evaluations = []

    def counting(model, omat, t):
        evaluations.append(t)
        return real(model, omat, t)

    monkeypatch.setattr(om, "dissipator_adjoint", counting)
    reads = []

    def rate(s):
        reads.append(s)
        return 0.35

    h = sigma(space, "X", 0.8)
    number = om.LindbladModel(h, [(sigma(space, "S-"), 0.35)])
    callable_ = om.LindbladModel(h, [(sigma(space, "S-"), rate)])
    t = 0.9
    bound = om.observable_bound(number, obs, 2, t)
    assert len(evaluations) == 1
    assert om.observable_bound(callable_, obs, 2, t) == bound
    assert len(evaluations) == 1 + 33
    reads.clear()
    assert callable_.gamma_bar(t) == number.gamma_bar(t)
    assert len(reads) == 1025


# ---------------------------------------------------------------------------
# non-Hermitian case
# ---------------------------------------------------------------------------

def test_nonhermitian_zero_gamma_is_unitary():
    rng = np.random.default_rng(83)
    space = qc.HilbertSpace.qubits(1)
    h = sigma(space, "Z", 0.8)
    rho0 = random_density_matrix(space, rng)
    out = om.nonhermitian_evolve(h, qc.OperatorSum.zero(space), rho0, 0.9)
    expected = qc.evolve(rho0, qc.Schedule.constant(h), 0.0, 0.9)
    assert np.max(np.abs(out.matrix - expected.matrix)) < 1e-12


def test_nonhermitian_trace_decay():
    # Gamma = kappa |g><g| (projector), H = 0, rho0 = |g><g|:
    # d rho/dt = -2 kappa rho so Tr rho(t) = exp(-2 kappa t)
    kappa, t = 0.7, 1.1
    space = one_qubit_space()
    gamma_op = qc.OperatorSum.single(space, 0, "Pg", kappa)
    rho0 = qc.basis_state(space, [1]).to_density_matrix()
    out = om.nonhermitian_evolve(qc.OperatorSum.zero(space), gamma_op, rho0, t)
    assert abs(np.trace(out.matrix).real - math.exp(-2.0 * kappa * t)) < 1e-12


def test_nonhermitian_perturbative_bound():
    # The bound needs Gamma positive semidefinite: otherwise the trace can
    # grow and the ||rho(s)||_1 <= 1 step behind it breaks.
    rng = np.random.default_rng(97)
    space = one_qubit_space()
    for _ in range(4):
        h = sigma(space, "Z", float(rng.uniform(0.2, 1.0)))
        g_raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g_psd = 0.1 * (g_raw @ g_raw.conj().T)
        terms = [(q, tuple(lbl)) for q, lbl in pauli_decompose(g_psd, space)]
        gamma_op = qc.OperatorSum(space, terms)
        rho0 = random_density_matrix(space, rng)
        t = 0.5
        exact = om.nonhermitian_evolve(h, gamma_op, rho0, t)
        for order in range(6):
            approx = om.nonhermitian_evolve(h, gamma_op, rho0, t, order=order)
            d1 = 0.5 * np.sum(np.linalg.svd(exact.matrix - approx, compute_uv=False))
            assert d1 <= om.nonhermitian_bound(gamma_op, order, t) + 1e-9


def test_nonhermitian_series_matches_kron_van_loan_block():
    # the oracle is the block generator the actions replaced: -i[H, .] and
    # -{Gamma, .} in kron form, exponentiated by scipy
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(227)
    space = qc.HilbertSpace.qubits(2)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = qc.OperatorSum(space, [(q, tuple(lbl)) for q, lbl in
                               pauli_decompose(0.5 * (m + m.conj().T), space)])
    g_raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gamma_op = qc.OperatorSum(space, [(q, tuple(lbl)) for q, lbl in
                                      pauli_decompose(0.1 * (g_raw @ g_raw.conj().T), space)])
    rho0 = random_density_matrix(space, rng)
    eye, gm = np.eye(d), gamma_op.matrix()
    anticommutator = -(qc.kron_all([eye, gm]) + qc.kron_all([gm.T, eye]))
    t = 0.6
    for order in range(4):
        block = kron_block_generator(kron_commutator(h.matrix()), anticommutator, order)
        v0 = np.zeros((order + 1) * d * d, dtype=complex)
        v0[:d * d] = rho0.matrix.reshape(-1, order="F")
        v = (scipy_expm(block * t) @ v0).reshape(order + 1, d * d).sum(axis=0)
        got = om.nonhermitian_evolve(h, gamma_op, rho0, t, order=order)
        assert np.max(np.abs(got - v.reshape(d, d, order="F"))) < 1e-13


def test_nonhermitian_flags_trace_growth():
    # a negative "Gamma" pumps trace; with PSD check this passes through,
    # here we hand a PSD Gamma and corrupted sign via H to ensure no flag,
    # then verify the flag fires for an explicit inconsistency.
    space = one_qubit_space()
    rho0 = maximally_mixed(space)
    ok = om.nonhermitian_evolve(qc.OperatorSum.zero(space),
                                qc.OperatorSum.single(space, 0, "Pe", 0.4),
                                rho0, 0.5)
    assert np.trace(ok.matrix).real <= 1.0 + 1e-9


@pytest.mark.parametrize("time_dependent", [False, True])
def test_negative_time_raises_on_every_exact_route(time_dependent):
    # a constant model would otherwise run backwards: populations (1.35, -0.35)
    space = one_qubit_space()
    if time_dependent:
        h = qc.Schedule.from_terms(
            space, [(math.cos, qc.OperatorSum.single(space, 0, "Z").matrix())])
    else:
        h = sigma(space, "Z", 0.4)
    model = om.LindbladModel(h, [(sigma(space, "S-"), 0.5)])
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    obs = sigma(space, "Z")
    for call in (lambda: om.lindblad_exact(model, rho0, -0.5),
                 lambda: om.truncated_states(model, rho0, -0.5, 2),
                 lambda: om.reconstruct(model, obs, rho0, -0.5, 2),
                 lambda: om.reconstruct(model, obs, rho0, -0.5, 2, plan=om.MonteCarloPlan(4))):
        with pytest.raises(ValueError, match="t must be >= 0"):
            call()


@pytest.mark.parametrize("order", [None, 0, 2])
def test_nonhermitian_evolve_rejects_negative_time(order):
    space = one_qubit_space()
    rho0 = qc.basis_state(space, [0]).to_density_matrix()
    with pytest.raises(ValueError, match="t must be >= 0"):
        om.nonhermitian_evolve(sigma(space, "Z", 0.4), sigma(space, "Pe", 0.3), rho0, -0.5,
                               order=order)


def test_monte_carlo_reconstruction_loads_no_numpy_ma():
    # the sampled channel combinations are found by np.bincount; np.unique
    # would import numpy.ma (a few ms) on the first reconstruction
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qworkbench

    code = ("import sys\n"
            "from qworkbench import openmaster as om, qcore as qc\n"
            "space = qc.HilbertSpace.qubits(2)\n"
            "model = om.LindbladModel(qc.OperatorSum.pauli_string(space, 'ZZ'),\n"
            "    [(qc.OperatorSum.single(space, 0, 'S-'), 0.3),\n"
            "     (qc.OperatorSum.pauli_string(space, 'XY'), 0.2)])\n"
            "rho0 = qc.basis_state(space, [0, 1]).to_density_matrix()\n"
            "obs = qc.OperatorSum.pauli_string(space, 'ZI')\n"
            "for shots in (None, 2):\n"
            "    om.reconstruct(model, obs, rho0, 0.4, 2, plan=om.MonteCarloPlan(50, 3, shots))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qworkbench.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
