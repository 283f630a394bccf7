"""Embedding simulator, monotones, gate compilation, and noise inversion."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qworkbench import eqs
from qworkbench import qcore as qc

from qcore_helpers import bell_state, ghz_state, random_product_state


# ---------------------------------------------------------------------------
# embedding map
# ---------------------------------------------------------------------------

def test_embed_basis_states():
    space = qc.HilbertSpace.qubits(1)
    zero = qc.basis_state(space, [0])
    tilde = eqs.embed_state(zero)
    assert np.allclose(tilde.amplitudes, [1, 0, 0, 0])
    i_one = qc.PureState(space, [0.0, 1j])
    tilde = eqs.embed_state(i_one)
    assert np.allclose(tilde.amplitudes, [0, 0, 0, 1])


def test_embed_round_trip_random():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        psi = qc.random_pure_state(qc.HilbertSpace.qubits(n), rng)
        back = eqs.decode_state(eqs.embed_state(psi))
        assert np.max(np.abs(back - psi.amplitudes)) < 1e-15
        assert abs(np.linalg.norm(eqs.embed_state(psi).amplitudes) - 1.0) < 1e-12


def test_decode_matrix_and_conjugation_gate():
    rng = np.random.default_rng(3)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(2), rng)
    tilde = eqs.embed_state(psi)
    m = eqs.decode_matrix(2)
    assert np.max(np.abs(m @ tilde.amplitudes - psi.amplitudes)) < 1e-14
    # K~ on the image decodes to the conjugate state
    conj = m @ (eqs.conjugation_gate(2) @ tilde.amplitudes)
    assert np.max(np.abs(conj - psi.amplitudes.conj())) < 1e-14


# ---------------------------------------------------------------------------
# embedded Hamiltonian
# ---------------------------------------------------------------------------

def dense_embedding(h: np.ndarray) -> np.ndarray:
    """H~ = i I (x) B - sigma_y (x) A for the dense H = A + iB: the oracle
    of the term-form embedding."""
    return 1j * np.kron(np.eye(2), h.imag) - np.kron(qc.SIGMA_Y, h.real)


def random_pauli_sum(rng, n: int) -> qc.OperatorSum:
    """A real combination of a few random Pauli strings on ``n`` qubits."""
    labels = qc.all_pauli_labels(n)
    terms = [(rng.standard_normal(), labels[rng.integers(len(labels))])
             for _ in range(int(rng.integers(1, 7)))]
    return qc.OperatorSum(qc.HilbertSpace.qubits(n), terms)


def test_embed_hamiltonian_worked_example():
    # sigma_x (x) sigma_y + sigma_x (x) sigma_z maps to
    # 1 (x) sigma_x (x) sigma_y - sigma_y (x) sigma_x (x) sigma_z
    h = qc.OperatorSum(qc.HilbertSpace.qubits(2), [(1.0, "XY"), (1.0, "XZ")])
    got = eqs.embed_hamiltonian(h)
    assert got.space == qc.HilbertSpace.qubits(3)
    assert got.terms == ((1.0, ("I", "X", "Y")), (-1.0, ("Y", "X", "Z")))
    expected = qc.dense_pauli("IXY") - qc.dense_pauli("YXZ")
    assert np.max(np.abs(got.matrix() - expected)) < 1e-14


def test_embed_real_hamiltonian_specialization():
    # real H (B = 0): H~ = -sigma_y (x) H
    h = qc.OperatorSum(qc.HilbertSpace.qubits(2), [(0.7, "XX"), (0.2, "ZI")])
    got = eqs.embed_hamiltonian(h).matrix()
    assert np.max(np.abs(got - (-np.kron(qc.SIGMA_Y, h.matrix())))) < 1e-14


def test_embed_hamiltonian_matches_dense_formula():
    # the term form against the dense H~ = i I (x) B - sigma_y (x) A
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(200):
            h = random_pauli_sum(rng, n)
            got = eqs.embed_hamiltonian(h).matrix()
            assert np.max(np.abs(got - dense_embedding(h.matrix()))) < 1e-15


def test_embedded_hamiltonian_properties_and_intertwining():
    # every Hermitian H is a real combination of the 4^n Pauli strings
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        space = qc.HilbertSpace.qubits(n)
        for _ in range(70):
            h = qc.OperatorSum(space, zip(rng.standard_normal(4 ** n),
                                          qc.all_pauli_labels(n)))
            ht = eqs.embed_hamiltonian(h).matrix()
            assert np.max(np.abs(ht - ht.conj().T)) < 1e-12      # Hermitian
            assert np.max(np.abs(ht.real)) < 1e-12               # purely imaginary
            mdec = eqs.decode_matrix(n)
            assert np.max(np.abs(mdec @ ht - h.matrix() @ mdec)) < 1e-12  # M H~ = H M


def test_embed_hamiltonian_rejects_non_pauli_input():
    space = qc.HilbertSpace.qubits(2)
    with pytest.raises(ValueError, match="not real"):
        eqs.embed_hamiltonian(qc.OperatorSum(space, [(1.0, "XY"), (0.5j, "ZZ")]))
    with pytest.raises(ValueError, match="not a Pauli string"):
        eqs.embed_hamiltonian(qc.OperatorSum(space, [(1.0, ("S+", "I"))]))
    with pytest.raises(ValueError, match="qubit registers"):
        eqs.embed_hamiltonian(qc.OperatorSum.single(qc.HilbertSpace.qubit_boson(4), 0, "X"))


def test_embedded_dynamics_equivalence():
    rng = np.random.default_rng(8)
    n = 2
    h = qc.OperatorSum(qc.HilbertSpace.qubits(n),
                       zip(rng.standard_normal(4 ** n), qc.all_pauli_labels(n)))
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(n), rng)
    t = 0.9
    direct = expm(-1j * h.matrix() * t) @ psi.amplitudes
    ht = eqs.embed_hamiltonian(h).matrix()
    tilde_t = expm(-1j * ht * t) @ eqs.embed_state(psi).amplitudes
    assert np.max(np.abs(eqs.decode_state(tilde_t) - direct)) < 1e-9
    # reality preservation along the way
    for tau in np.linspace(0.0, t, 7):
        ev = expm(-1j * ht * tau) @ eqs.embed_state(psi).amplitudes
        assert np.max(np.abs(ev.imag)) < 1e-9
    # conjugation commutes with the embedded evolution
    k_tilde = eqs.conjugation_gate(n)
    conj_path = eqs.decode_state(k_tilde @ tilde_t)
    assert np.max(np.abs(conj_path - direct.conj())) < 1e-10


# ---------------------------------------------------------------------------
# conjugated expectation values
# ---------------------------------------------------------------------------

def test_conj_expectation_identity_on_real_state():
    psi = qc.all_plus_state(2)
    tilde = eqs.embed_state(psi)
    val = eqs.conj_expectation(tilde, np.eye(4, dtype=complex))
    assert abs(val - 1.0) < 1e-12


def test_conj_expectation_bell_concurrence():
    tilde = eqs.embed_state(bell_state())
    val = eqs.conj_expectation(tilde, qc.dense_pauli("YY"))
    assert abs(abs(val) - 1.0) < 1e-12


def test_conj_expectation_matches_direct():
    rng = np.random.default_rng(13)
    for _ in range(30):
        psi = qc.random_pure_state(qc.HilbertSpace.qubits(2), rng)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        o = 0.5 * (m + m.conj().T)
        got = eqs.conj_expectation(eqs.embed_state(psi), o)
        direct = complex(np.vdot(psi.amplitudes, o @ psi.amplitudes.conj()))
        assert abs(got - direct) < 1e-12


# ---------------------------------------------------------------------------
# monotones
# ---------------------------------------------------------------------------

def test_monotone_zero_on_product_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        psi2 = random_product_state(2, rng)
        assert eqs.monotone(psi2, eqs.MonotoneSpec("Concurrence2", 2)).value < 1e-10
        assert eqs.monotone(psi2, eqs.MonotoneSpec("SecondOrder2", 2)).value < 1e-10
        psi3 = random_product_state(3, rng)
        assert eqs.monotone(psi3, eqs.MonotoneSpec("Tangle3", 3)).value < 1e-10
        psi4 = random_product_state(4, rng)
        assert eqs.monotone(psi4, eqs.MonotoneSpec("EvenN", 4)).value < 1e-10


def test_concurrence_dynamics_sine_law():
    # |psi(t)> = exp(+i g t ZZ)|++> has concurrence |sin(2 g t)|
    g = 1.0
    zz = qc.dense_pauli("ZZ")
    psi0 = qc.all_plus_state(2)
    for gt in np.linspace(0.0, math.pi, 9):
        amps = expm(1j * gt * zz) @ psi0.amplitudes
        psi = qc.PureState(qc.HilbertSpace.qubits(2), amps)
        c = eqs.monotone(psi, eqs.MonotoneSpec("Concurrence2", 2))
        assert abs(c.value - abs(math.sin(2.0 * gt))) < 1e-12
        assert c.observables_measured == 2
        assert abs(eqs.concurrence_direct(psi) - c.value) < 1e-12


def test_tangle_ghz_and_dual_path():
    ghz = ghz_state(3)
    spec = eqs.MonotoneSpec("Tangle3", 3)
    from_plain = eqs.monotone(ghz, spec)
    from_embedded = eqs.monotone(eqs.embed_state(ghz), spec)
    assert abs(from_plain.value - 1.0) < 1e-12
    assert abs(from_plain.value - from_embedded.value) < 1e-12
    assert from_plain.observables_measured == 6
    assert from_plain.observables == ("ZIYY", "XIYY", "ZXYY", "XXYY", "ZZYY", "XZYY")


def test_monotone_observable_lists():
    c = eqs.monotone(bell_state(), eqs.MonotoneSpec("Concurrence2", 2))
    assert c.observables == ("ZYY", "XYY")
    rng = np.random.default_rng(61)
    so = eqs.monotone(qc.random_pure_state(qc.HilbertSpace.qubits(2), rng),
                      eqs.MonotoneSpec("SecondOrder2", 2))
    assert so.observables_measured == 18  # 2 per term, 9 metric terms


def test_monotone_spec_validation():
    with pytest.raises(ValueError):
        eqs.MonotoneSpec("Concurrence2", 3)
    with pytest.raises(ValueError):
        eqs.MonotoneSpec("Tangle3", 2)
    with pytest.raises(ValueError):
        eqs.MonotoneSpec("EvenN", 3)
    with pytest.raises(ValueError):
        eqs.MonotoneSpec("OddN", 4)


def test_concurrence_protocol_through_embedded_evolution():
    # full pipeline: embed |++>, evolve under H~ = +g YZZ, measure the two
    # enlarged-space observables, compare against |sin 2gt|
    g = 1.0
    h = qc.OperatorSum.pauli_string(qc.HilbertSpace.qubits(2), "ZZ", -g)
    ht = eqs.embed_hamiltonian(h).matrix()
    assert np.max(np.abs(ht - g * qc.dense_pauli("YZZ"))) < 1e-14
    psi0 = eqs.embed_state(qc.all_plus_state(2))
    for gt in (0.0, 0.31, 0.82, 1.44):
        tilde = expm(-1j * ht * gt) @ psi0.amplitudes
        zyy = float(np.real(np.vdot(tilde, qc.dense_pauli("ZYY") @ tilde)))
        xyy = float(np.real(np.vdot(tilde, qc.dense_pauli("XYY") @ tilde)))
        c = abs(zyy - 1j * xyy)
        assert abs(c - abs(math.sin(2.0 * gt))) < 1e-12


# ---------------------------------------------------------------------------
# controlled-Z circuit identity
# ---------------------------------------------------------------------------

def test_reduced_circuit_identity():
    assert np.max(np.abs(eqs.reduced_circuit_unitary(0.0) - np.eye(8))) < 1e-14
    # phi = pi/2: exponential collapses to -i YZZ
    u = eqs.reduced_circuit_unitary(math.pi / 2.0)
    assert np.max(np.abs(u - (-1j) * qc.dense_pauli("YZZ"))) < 1e-12
    for phi in np.linspace(-math.pi, math.pi, 17):
        dist = np.linalg.norm(eqs.reduced_circuit_unitary(phi)
                              - eqs.reduced_circuit_target(phi), ord=2)
        assert dist < 1e-12


@pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3) if i != j])
def test_cz_factor_order(i, j):
    # |0><0|_i + |1><1|_i sigma_z_j, qubit 0 leftmost
    def on(ops):
        out = np.ones((1, 1))
        for k in range(3):
            out = np.kron(out, ops.get(k, np.eye(2)))
        return out

    p0, p1, z = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, -1.0])
    assert np.array_equal(eqs._cz(i, j, 3), on({i: p0}) + on({i: p1, j: z}))


# ---------------------------------------------------------------------------
# entangling-gate compiler
# ---------------------------------------------------------------------------

def test_ms_compile_three_qubit_example():
    gates = eqs.ms_compile("ZXX", 0.63)
    assert eqs.ms_verify(gates, eqs.ms_target("ZXX", 0.63)) < 1e-12
    # base string needs no local basis change: 3 nontrivial gates
    nontrivial = [g for g in gates
                  if np.max(np.abs(g.matrix - np.eye(g.matrix.shape[0]))) > 1e-12]
    assert len(nontrivial) == 3


def test_ms_compile_random_sweep():
    rng = np.random.default_rng(19)
    for k in (2, 3, 4, 5):
        for _ in range(6):
            label = "".join(rng.choice(list("XYZ"), size=k))
            phi = float(rng.uniform(-math.pi, math.pi))
            gates = eqs.ms_compile(label, phi)
            assert eqs.ms_verify(gates, eqs.ms_target(label, phi)) < 1e-12


def test_ms_compile_spin_boson():
    gates = eqs.ms_compile("ZX", 0.4, boson_quadrature=True, n_max=30)
    target = eqs.ms_target("ZX", 0.4, boson_quadrature=True, n_max=30)
    assert eqs.ms_verify(gates, target) < 1e-10


def test_ms_compile_rejects_identity_letters():
    with pytest.raises(ValueError):
        eqs.ms_compile("XIZ", 0.3)


# ---------------------------------------------------------------------------
# dressed readout
# ---------------------------------------------------------------------------

def test_dressed_readout_full_support():
    rng = np.random.default_rng(23)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(4), rng)
    label = "YXXX"
    out = eqs.measure_via_anticommutation(label, psi)
    direct = float(np.real(np.vdot(psi.amplitudes, qc.dense_pauli(label) @ psi.amplitudes)))
    assert abs(out.value - direct) < 1e-12
    assert out.n_evolutions == 1


def test_dressed_readout_identity_slots():
    rng = np.random.default_rng(29)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(5), rng)
    for label in ("YXXXI", "IZZII", "XIYIZ", "ZZIII"):
        out = eqs.measure_via_anticommutation(label, psi)
        direct = float(np.real(np.vdot(psi.amplitudes,
                                       qc.dense_pauli(label) @ psi.amplitudes)))
        assert abs(out.value - direct) < 1e-12, label
        assert out.n_evolutions == 2


def test_dressed_readout_single_site_passthrough():
    rng = np.random.default_rng(31)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(3), rng)
    out = eqs.measure_via_anticommutation("IZI", psi)
    direct = float(np.real(np.vdot(psi.amplitudes, qc.dense_pauli("IZI") @ psi.amplitudes)))
    assert out.value == pytest.approx(direct, abs=1e-14)
    assert out.n_evolutions == 0


def test_dressed_readout_random_labels():
    rng = np.random.default_rng(37)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(4), rng)
    for _ in range(25):
        label = "".join(rng.choice(list("IXYZ"), size=4))
        if all(ch == "I" for ch in label):
            continue
        out = eqs.measure_via_anticommutation(label, psi)
        direct = float(np.real(np.vdot(psi.amplitudes,
                                       qc.dense_pauli(label) @ psi.amplitudes)))
        assert abs(out.value - direct) < 1e-12, label


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def test_depolarizing_identity_channel():
    rng = np.random.default_rng(41)
    rho = qc.random_pure_state(qc.HilbertSpace.qubits(2), rng).to_density_matrix()
    out = eqs.apply_depolarizing(rho, 1.0, 25)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15
    assert eqs.rescale_expectation(0.37, 1.0, 25, qc.dense_pauli("XZ")) == pytest.approx(0.37)


def test_noise_inversion_traceless_and_general():
    rng = np.random.default_rng(43)
    rho = qc.random_pure_state(qc.HilbertSpace.qubits(2), rng).to_density_matrix()
    for eps in (0.99, 0.97, 0.95):
        for n in (1, 10, 100):
            noisy = eqs.apply_depolarizing(rho, eps, n)
            for label in ("XZ", "YI", "ZZ"):
                o = qc.dense_pauli(label)
                ideal = float(np.real(np.trace(o @ rho.matrix)))
                measured = float(np.real(np.trace(o @ noisy.matrix)))
                assert abs(eqs.rescale_expectation(measured, eps, n, o) - ideal) < 1e-12
            # an observable with trace: include the identity part
            o = qc.dense_pauli("XZ") + 0.8 * np.eye(4)
            ideal = float(np.real(np.trace(o @ rho.matrix)))
            measured = float(np.real(np.trace(o @ noisy.matrix)))
            assert abs(eqs.rescale_expectation(measured, eps, n, o) - ideal) < 1e-12


def test_cost_ratio_small_for_realistic_fidelities():
    ratio = eqs.cost_ratio(n_qubits=10, n_observables=2, epsilon=0.97, delta=0.98)
    assert ratio < 1e-2
    explicit = 2 * (0.98 / (math.sqrt(3.0) * 0.97)) ** 20
    assert ratio == pytest.approx(explicit, rel=1e-12)


def test_crosstalk_zero_reproduces_clean_rotation():
    u = eqs.crosstalk_z_rotation(0.7, qubit=1, n=3, delta0=0.0)
    clean = expm(-1j * 0.35 * qc.dense_pauli("IZI"))
    assert np.max(np.abs(u - clean)) < 1e-14


def test_trotter_circuit_clean_limit_and_noise():
    # H~ = w1 Y1 + w2 Y2 - g Y0 X1 X2 on three qubits (embedded Ising form)
    terms = [(1.0, "IYI"), (1.0, "IIY"), (-2.0, "YXX")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    t = 0.6
    clean, n_gates = eqs.trotter_embedded_circuit(terms, t, steps=24, initial=psi0)
    h = sum(c * qc.dense_pauli(lbl) for c, lbl in terms)
    exact = expm(-1j * h * t) @ psi0.amplitudes
    assert abs(abs(np.vdot(exact, clean.amplitudes)) ** 2 - 1.0) < 1e-3
    # crosstalk off == plain circuit, channel-wise depolarizing invertible
    noisy, ng = eqs.trotter_embedded_circuit(terms, t, steps=6, initial=psi0,
                                             noise=eqs.NoiseModel(gate_fidelity=0.97))
    ref, _ = eqs.trotter_embedded_circuit(terms, t, steps=6, initial=psi0)
    o = qc.dense_pauli("ZII")
    measured = float(np.real(np.trace(o @ noisy.matrix)))
    ideal = float(np.real(np.vdot(ref.amplitudes, o @ ref.amplitudes)))
    assert abs(eqs.rescale_expectation(measured, 0.97, ng, o) - ideal) < 1e-10


def test_trotter_circuit_crosstalk_changes_dynamics():
    terms = [(1.0, "IYI"), (1.0, "IIY"), (-2.0, "YXX")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    base, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0,
                                           noise=eqs.NoiseModel(1.0, crosstalk=0.0))
    skew, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0,
                                           noise=eqs.NoiseModel(1.0, crosstalk=0.05))
    clean, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0)
    assert np.max(np.abs(base.amplitudes - clean.amplitudes)) < 1e-12
    assert np.max(np.abs(skew.amplitudes - clean.amplitudes)) > 1e-4


def test_trotter_circuit_builds_each_rotation_once(monkeypatch):
    # three single-qubit rotations (Y, Y, Z) and one three-qubit exponential
    terms = [(1.0, "IYI"), (1.0, "IIY"), (-2.0, "YXX"), (0.4, "ZII")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    noise = eqs.NoiseModel(0.98, crosstalk=0.05)
    calls = []
    original = eqs.crosstalk_z_rotation

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(eqs, "crosstalk_z_rotation", counted)
    for steps in (1, 6, 24):
        calls.clear()
        _, n_gates = eqs.trotter_embedded_circuit(terms, 0.6, steps=steps,
                                                  initial=psi0, noise=noise)
        assert len(calls) == 3
        assert n_gates == steps * (3 + 3 + 1 + 1)


def _per_gate_density_loop(terms, t, steps, initial, noise):
    """The circuit as a per-gate density-matrix loop: every gate is
    exponentiated densely and followed by its own depolarizing channel."""
    n = initial.space.n_factors
    dt = t / steps
    gates = []
    for coeff, label in terms:
        support = [i for i, ch in enumerate(label) if ch != "I"]
        if len(support) == 1:
            q, axis = support[0], label[support[0]]
            delta = noise.crosstalk_matrix(n)
            gen = sum(delta[k, q] * qc.dense_pauli("I" * k + "Z" + "I" * (n - k - 1))
                      for k in range(n))
            rz = qc.expm(-1j * coeff * dt * gen)
            if axis == "Z":
                gates.append(rz)
            else:
                sgn = -1.0 if axis == "X" else +1.0
                gen = "Y" if axis == "X" else "X"
                u = qc.expm(sgn * 1j * math.pi / 4.0
                            * qc.dense_pauli("I" * q + gen + "I" * (n - q - 1)))
                gates.extend([u.conj().T, rz, u])
        else:
            gates.append(qc.expm(-1j * coeff * dt * qc.dense_pauli(label)))
    rho = initial.to_density_matrix().matrix
    eps = noise.gate_fidelity
    for u in gates * steps:
        rho = eps * (u @ rho @ u.conj().T) + (1.0 - eps) * np.eye(2 ** n) / 2 ** n
    return rho, steps * len(gates)


@pytest.mark.parametrize("crosstalk", [0.0, 0.05])
def test_folded_depolarizing_matches_per_gate_loop(crosstalk):
    # one eps^n channel on the final ket equals n per-gate channels, because
    # each channel fixes I/d and commutes with unitary conjugation
    terms = [(1.0, "IYII"), (1.0, "IIYI"), (0.6, "IIIX"), (0.3, "ZIII"), (-2.0, "YXXX")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(4), [0, 0, 0, 0])
    for eps in (0.99, 0.9):
        noise = eqs.NoiseModel(eps, crosstalk=crosstalk)
        for t in (0.25, 3.0):
            noisy, n_gates = eqs.trotter_embedded_circuit(terms, t, 6, psi0, noise=noise)
            rho, n_ref = _per_gate_density_loop(terms, t, 6, psi0, noise)
            assert n_gates == n_ref
            assert np.max(np.abs(noisy.matrix - rho)) < 1e-14


def test_trotter_circuit_calls_no_eigh(monkeypatch):
    # every gate is in closed form: Pauli rotations and diagonal z rotations
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape))
    terms = [(1.0, "IYI"), (1.0, "IIX"), (-2.0, "YXX"), (0.4, "ZII")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    for noise in (None, eqs.NoiseModel(0.98, crosstalk=0.05)):
        eqs.trotter_embedded_circuit(terms, 0.6, steps=4, initial=psi0, noise=noise)
    assert calls == []


def test_noise_model_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            eqs.NoiseModel(crosstalk=bad)
        with pytest.raises(ValueError):
            eqs.NoiseModel(gate_fidelity=bad)


@pytest.mark.parametrize("steps", [0, -2])
def test_trotter_circuit_rejects_bad_steps(steps):
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(2), [0, 0])
    with pytest.raises(ValueError):
        eqs.trotter_embedded_circuit([(1.0, "XX")], 0.5, steps=steps, initial=psi0)


@pytest.mark.parametrize("label", ["X", "XXX", "XQ"])
def test_trotter_circuit_rejects_bad_labels(label):
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(2), [0, 0])
    with pytest.raises(ValueError):
        eqs.trotter_embedded_circuit([(0.3, "ZI"), (1.0, label)], 0.5, steps=4,
                                     initial=psi0)
