"""Embedding simulator, monotones, gate compilation, and noise inversion."""
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from qworkbench import eqs
from qworkbench import qcore as qc

from qcore_helpers import all_pauli_labels, bell_state, ghz_state, random_product_state


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
    labels = all_pauli_labels(n)
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
                                          all_pauli_labels(n)))
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
                       zip(rng.standard_normal(4 ** n), all_pauli_labels(n)))
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


def direct_monotone(psi: np.ndarray, kind: str, n: int) -> float:
    """The monotone by direct conjugation of the register ket: the oracle
    of the readout-pair protocol."""
    metric = dict(zip("IXYZ", (-1.0, 1.0, 0.0, 1.0)))

    def conj(label):
        return complex(np.vdot(psi, qc.dense_pauli(label) @ psi.conj()))

    if kind in ("Concurrence2", "EvenN"):
        return abs(conj("Y" * n))
    if kind in ("Tangle3", "OddN"):
        return abs(sum(metric[mu] * conj(mu + "Y" * (n - 1)) ** 2 for mu in "IXYZ"))
    return abs(sum(metric[a] * metric[b] * conj(a + b) ** 2 for a in "IXYZ" for b in "IXYZ"))


@pytest.mark.parametrize("kind, n", [("Concurrence2", 2), ("SecondOrder2", 2),
                                     ("Tangle3", 3), ("EvenN", 4), ("OddN", 3), ("OddN", 5)])
def test_monotone_readout_matches_direct_conjugation(kind, n):
    rng = np.random.default_rng(71 + n)
    spec = eqs.MonotoneSpec(kind, n)
    space = qc.HilbertSpace.qubits(n)
    for _ in range(5):
        psi = qc.random_pure_state(space, rng)
        expected = direct_monotone(psi.amplitudes, kind, n)
        tilde = eqs.embed_state(psi)
        for state in (psi, tilde, tilde.to_density_matrix()):
            assert abs(eqs.monotone(state, spec).value - expected) < 1e-12
        # the embedded circuit with depolarizing noise, rescaled readouts:
        # the noiseless circuit's value
        h = qc.OperatorSum(space, zip(rng.standard_normal(4), rng.choice(
            all_pauli_labels(n), size=4)))
        terms = [(c.real, "".join(f)) for c, f in eqs.embed_hamiltonian(h).terms]
        clean, n_gates = eqs.trotter_embedded_circuit(terms, 0.4, 3, tilde)
        noisy = eqs.apply_depolarizing(clean.to_density_matrix(), 0.98, n_gates)
        expected = direct_monotone(eqs.decode_state(clean), kind, n)
        assert abs(eqs.monotone(noisy, spec, rescale=(0.98, n_gates)).value
                   - expected) < 1e-12
    with pytest.raises(ValueError, match="embedded"):
        eqs.monotone(psi.to_density_matrix(), spec)
    weights, observables, matrices = eqs._readout(kind, n)
    assert eqs._readout(kind, n)[2] is matrices
    assert len(matrices) == len(observables) == 2 * len(weights)
    assert not any(m.flags.writeable for m in matrices)


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
    for k in range(2, 8):
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
    with pytest.raises(ValueError, match="identity letters"):
        eqs.ms_compile("XIZ", 0.3)
    with pytest.raises(ValueError, match="bad Pauli letter 'x' in 'xz'"):
        eqs.ms_compile("xz", 0.3)


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


def test_conjugated_matches_dense():
    # U^dag P U for U = prod_j exp(-i pi/4 P_j), with P_j drawn so that some
    # commute with the current string and some anticommute
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 5))
        label, *rotations = ["".join(rng.choice(list("IXYZ"), size=n))
                             for _ in range(int(rng.integers(1, 5)))]
        u = np.eye(2 ** n, dtype=complex)
        current = label
        for p in rotations:
            u = u @ qc.pauli_rotation(p, math.pi / 4.0)
            q, product = qc.pauli_product(current, p)
            seen.add(q.imag == 0)
            current = product if q.imag else current
        phase, got = eqs._conjugated(label, rotations)
        assert phase in (1, -1)
        np.testing.assert_allclose(phase * qc.dense_pauli(got),
                                   u.conj().T @ qc.dense_pauli(label) @ u, atol=1e-13)
    assert seen == {True, False}


def test_dressing_rule_gives_theta_up_to_seven_qubits(monkeypatch):
    # symbolic: the rotations and the readout matrix are 1 x 1 stand-ins, so
    # the value is the sign the labels give; each dressing anticommutes with
    # the readout, the dressings commute, and S P_1 ... P_k = c Theta with
    # (-i)^k c = +-1
    monkeypatch.setattr(eqs, "pauli_rotation", lambda label, theta: np.eye(1))
    monkeypatch.setattr(eqs, "dense_pauli", lambda label: np.eye(1))
    for n in range(1, 8):
        state = SimpleNamespace(space=qc.HilbertSpace.qubits(n), amplitudes=np.ones(1))
        for label in all_pauli_labels(n)[1:]:
            out = eqs.measure_via_anticommutation(label, state)
            weight = sum(ch != "I" for ch in label)
            assert out.n_evolutions == (0 if weight == 1 else 1 if weight == n else 2)
            assert 1 <= sum(ch != "I" for ch in out.readout) <= 2
            phase, product = 1, out.readout
            for p in out.evolutions:
                assert qc.pauli_product(out.readout, p)[0].imag != 0
                q, product = qc.pauli_product(product, p)
                phase *= -1j * q
            for p, r in zip(out.evolutions, out.evolutions[1:]):
                assert qc.pauli_product(p, r)[0].imag == 0
            assert product == label
            assert out.value == phase.real and phase.imag == 0 and abs(phase) == 1


def test_dressing_rule_from_the_labels_up_to_seven_qubits():
    # eqs._dressing, with no builder patched: for every label of 1-7 qubits
    # the readout has one or two sites, each dressing anticommutes with it,
    # the dressings commute, and S P_1 ... P_k = c Theta with (-i)^k c the
    # returned sign, +-1
    for n in range(1, 8):
        for label in all_pauli_labels(n)[1:]:
            sign, readout, dressings = eqs._dressing(label)
            weight = sum(ch != "I" for ch in label)
            assert len(dressings) == (0 if weight == 1 else 1 if weight == n else 2)
            assert 1 <= sum(ch != "I" for ch in readout) <= 2
            phase, product = 1, readout
            for p in dressings:
                assert qc.pauli_product(readout, p)[0].imag != 0
                q, product = qc.pauli_product(product, p)
                phase *= -1j * q
            for p, r in zip(dressings, dressings[1:]):
                assert qc.pauli_product(p, r)[0].imag == 0
            assert product == label
            assert sign == phase.real and phase.imag == 0 and abs(phase) == 1
    for label, message in (("XQ", "bad Pauli letter 'Q'"), ("III", "nothing to measure")):
        with pytest.raises(ValueError, match=message):
            eqs._dressing(label)


def test_dressed_readout_forms_one_dense_pauli(monkeypatch):
    # only the readout string becomes a matrix; the signs come from the labels
    rng = np.random.default_rng(47)
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(5), rng)
    calls = []

    def counting(label):
        calls.append(label)
        return qc.dense_pauli(label)

    monkeypatch.setattr(eqs, "dense_pauli", counting)
    for label, n_evolutions in (("IIZII", 0), ("YXXZX", 1), ("XIYIZ", 2), ("IZZII", 2)):
        calls.clear()
        out = eqs.measure_via_anticommutation(label, psi)
        assert out.n_evolutions == n_evolutions
        assert calls == [out.readout]


def test_dressed_readout_rejects_bad_input():
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(2), np.random.default_rng(53))
    for label, letter in (("xz", "x"), ("QZ", "Q"), ("Z ", " ")):
        with pytest.raises(ValueError, match=f"bad Pauli letter '{letter}'"):
            eqs.measure_via_anticommutation(label, psi)
    # a qubit (x) mode at n_max = 1 has dimension 4 but is not two qubits
    hybrid = qc.random_pure_state(qc.HilbertSpace.qubit_boson(n_max=1), np.random.default_rng(59))
    with pytest.raises(ValueError, match="2-qubit register"):
        eqs.measure_via_anticommutation("XZ", hybrid)
    with pytest.raises(ValueError, match="3-qubit register"):
        eqs.measure_via_anticommutation("XZI", psi)
    with pytest.raises(ValueError, match="nothing to measure"):
        eqs.measure_via_anticommutation("II", psi)


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
    ref, ng = eqs.trotter_embedded_circuit(terms, t, steps=6, initial=psi0)
    noisy = eqs.apply_depolarizing(ref.to_density_matrix(), 0.97, ng)
    o = qc.dense_pauli("ZII")
    measured = float(np.real(np.trace(o @ noisy.matrix)))
    ideal = float(np.real(np.vdot(ref.amplitudes, o @ ref.amplitudes)))
    assert abs(eqs.rescale_expectation(measured, 0.97, ng, o) - ideal) < 1e-10


def test_trotter_circuit_crosstalk_changes_dynamics():
    terms = [(1.0, "IYI"), (1.0, "IIY"), (-2.0, "YXX")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    base, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0,
                                           crosstalk=0.0)
    skew, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0,
                                           crosstalk=0.05)
    clean, _ = eqs.trotter_embedded_circuit(terms, 0.6, steps=6, initial=psi0)
    assert np.max(np.abs(base.amplitudes - clean.amplitudes)) < 1e-12
    assert np.max(np.abs(skew.amplitudes - clean.amplitudes)) > 1e-4


def test_trotter_circuit_builds_each_rotation_once(monkeypatch):
    # three single-qubit rotations (Y, Y, Z) and one three-qubit exponential;
    # with crosstalk each single-qubit rotation is followed by one z rotation
    # per neighbor, so a step applies 3 + 2 + 1 + 2 Pauli rotations
    terms = [(1.0, "IYI"), (1.0, "IIY"), (-2.0, "YXX"), (0.4, "ZII")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    calls = []
    original = eqs.pauli_apply

    def counted(label, y):
        calls.append(label)
        return original(label, y)

    monkeypatch.setattr(eqs, "pauli_apply", counted)
    for steps in (1, 6, 24):
        calls.clear()
        _, n_gates = eqs.trotter_embedded_circuit(terms, 0.6, steps=steps,
                                                  initial=psi0, crosstalk=0.05)
        assert len(calls) == steps * (3 + 2 + 1 + 2)
        assert n_gates == steps * (3 + 3 + 1 + 1)


def _per_gate_density_loop(terms, t, steps, initial, eps, crosstalk):
    """The circuit as a per-gate density-matrix loop: every gate is
    exponentiated densely and followed by its own depolarizing channel."""
    n = initial.space.n_factors
    delta = np.eye(n)  # Delta_{k,q}: 1 on the qubit, crosstalk on its neighbors
    for k in range(n - 1):
        delta[k, k + 1] = delta[k + 1, k] = crosstalk
    dt = t / steps
    gates = []
    for coeff, label in terms:
        support = [i for i, ch in enumerate(label) if ch != "I"]
        if len(support) == 1:
            q, axis = support[0], label[support[0]]
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
        for t in (0.25, 3.0):
            ket, n_gates = eqs.trotter_embedded_circuit(terms, t, 6, psi0, crosstalk=crosstalk)
            noisy = eqs.apply_depolarizing(ket.to_density_matrix(), eps, n_gates)
            rho, n_ref = _per_gate_density_loop(terms, t, 6, psi0, eps, crosstalk)
            assert n_gates == n_ref
            assert np.max(np.abs(noisy.matrix - rho)) < 1e-14


def test_trotter_circuit_calls_no_eigh(monkeypatch):
    # every gate, the crosstalk z rotations included, is a Pauli rotation
    # applied in closed form through pauli_apply
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape))
    terms = [(1.0, "IYI"), (1.0, "IIX"), (-2.0, "YXX"), (0.4, "ZII")]
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(3), [0, 0, 0])
    for crosstalk in (0.0, 0.05):
        eqs.trotter_embedded_circuit(terms, 0.6, steps=4, initial=psi0, crosstalk=crosstalk)
    assert calls == []


def _chain_terms(n, rng):
    """Nearest-neighbor XX, YY and ZZ bonds, one single-qubit field per qubit
    with its axis cycling X, Y, Z, and one random string, seeded weights."""
    def site(letters, q):
        return "I" * q + letters + "I" * (n - q - len(letters))

    terms = [(rng.uniform(0.5, 1.5), site(2 * a, q)) for q in range(n - 1) for a in "XYZ"]
    terms += [(rng.uniform(-1.0, 1.0), site("XYZ"[q % 3], q)) for q in range(n)]
    return terms + [(rng.uniform(-1.0, 1.0), "".join(rng.choice(list("IXYZ"), size=n)))]


def _per_gate_ket_loop(terms, t, steps, initial, crosstalk):
    """The circuit as a dense per-gate loop on the ket, its gates built as
    ``_per_gate_density_loop`` builds them: every gate exponentiated densely,
    a single-qubit rotation as U Rz U^dag with the leaking Rz."""
    n = initial.space.n_factors
    dt = t / steps
    gates = []
    for coeff, label in terms:
        support = [i for i, ch in enumerate(label) if ch != "I"]
        if len(support) == 1:
            q, axis = support[0], label[support[0]]
            gen = sum((1.0 if k == q else crosstalk)
                      * qc.dense_pauli("I" * k + "Z" + "I" * (n - k - 1))
                      for k in range(max(q - 1, 0), min(q + 2, n)))
            rz = qc.expm(-1j * coeff * dt * gen)
            if axis == "Z":
                gates.append(rz)
            else:
                sgn = -1.0 if axis == "X" else +1.0
                u = qc.expm(sgn * 1j * math.pi / 4.0 * qc.dense_pauli(
                    "I" * q + ("Y" if axis == "X" else "X") + "I" * (n - q - 1)))
                gates.extend([u.conj().T, rz, u])
        else:
            gates.append(qc.expm(-1j * coeff * dt * qc.dense_pauli(label)))
    psi = initial.amplitudes
    for u in gates * steps:
        psi = u @ psi
    return psi, steps * len(gates)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("crosstalk", [0.0, 0.05])
def test_trotter_circuit_matches_dense_per_gate_ket_loop(n, crosstalk):
    rng = np.random.default_rng(380 + n)
    terms = _chain_terms(n, rng)
    psi0 = qc.random_pure_state(qc.HilbertSpace.qubits(n), rng)
    ket, n_gates = eqs.trotter_embedded_circuit(terms, 0.7, 3, psi0, crosstalk=crosstalk)
    ref, n_ref = _per_gate_ket_loop(terms, 0.7, 3, psi0, crosstalk)
    assert n_gates == n_ref
    assert np.max(np.abs(ket.amplitudes - ref)) < 1e-13


def test_trotter_circuit_runs_twelve_qubits_in_o_d_memory():
    # a dense gate list would need about 18 GiB here; the Pauli rotations
    # act on the ket, so the run stays within a few kets' memory
    n = 12
    terms = [(1.0, "I" * q + 2 * a + "I" * (n - q - 2)) for q in range(n - 1) for a in "XYZ"]
    terms += [(0.7, "I" * q + "X" + "I" * (n - q - 1)) for q in range(n)]
    psi0 = qc.random_pure_state(qc.HilbertSpace.qubits(n), np.random.default_rng(12))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        ket, n_gates = eqs.trotter_embedded_circuit(terms, 1.0, 4, psi0, crosstalk=0.02)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_gates == 4 * (3 * (n - 1) + 3 * n)
    assert elapsed < 1.0
    assert peak < 100 * 2 ** 20
    assert ket.norm_error < 1e-12


def test_noise_model_rejects_non_finite_values():
    psi0 = qc.basis_state(qc.HilbertSpace.qubits(2), [0, 0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            eqs.trotter_embedded_circuit([(1.0, "XI")], 0.5, 2, psi0, crosstalk=bad)
        with pytest.raises(ValueError, match="epsilon"):
            eqs.apply_depolarizing(psi0.to_density_matrix(), bad, 3)


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
