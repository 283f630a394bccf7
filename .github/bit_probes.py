"""Print values whose bits must not depend on the BLAS thread count.

Run it twice, with OPENBLAS_NUM_THREADS=1 and with the variable unset, and
diff the two outputs:

    PYTHONPATH=src python .github/bit_probes.py

The output of each probe follows a header line with its name.
"""


def sampled():
    # the unitary stack of the sampled path is one gemm: a 2-qubit,
    # three-channel model with multi-term operators at order 2, in exact
    # mode and with 3 shots per value, must print the same per-order
    # values with BLAS threads pinned (the job's setting) and unpinned;
    # the third channel is written in ladder and projector codes, so
    # their symbolic Pauli expansion (qcore.pauli_terms) is in the diff
    from qworkbench import openmaster as om, qcore as qc
    space = qc.HilbertSpace.qubits(2)
    h = qc.OperatorSum(space, [(0.7, tuple("ZI")), (0.4, tuple("XX")), (0.3, tuple("IY"))])
    channels = [(qc.OperatorSum(space, [(1.0, tuple("XI")), (0.5j, tuple("YZ"))]), 0.3),
                (qc.OperatorSum(space, [(0.8, tuple("IZ")), (-0.4, tuple("ZY"))]), 0.2),
                (qc.OperatorSum(space, [(1.0, ("S-", "I")), (0.5, ("I", "Pg"))]), 0.25)]
    model = om.LindbladModel(h, channels)
    rho0 = qc.basis_state(space, [0, 1]).to_density_matrix()
    obs = qc.OperatorSum(space, [(0.8, tuple("ZZ")), (0.3, tuple("XI"))])
    for shots in (None, 3):
        plan = om.MonteCarloPlan(200, master_seed=11, shots_per_value=shots)
        print(repr(om.reconstruct(model, obs, rho0, 0.6, 2, plan=plan).per_order))


def one_period():
    # the term form applies each term on its support, one small gemm per
    # term: U_K(T, 0) of the second-sideband ion drive (perfbench's
    # driven-rk45 drive, n_max = 25, tol 2e-7) must hash the same with
    # BLAS threads pinned (the job's setting) and unpinned
    import hashlib, math
    from qworkbench import ionrabi
    drive = 2 * math.pi * 100e3
    p = ionrabi.IonDriveParams(nu=2 * math.pi * 1e6, omega0=2 * math.pi * 12e6,
                               omega_r=drive, omega_b=drive, eta=0.04, delta_r=0.0,
                               delta_b=-2 * math.pi * 400.0, sideband_order=2)
    w = ionrabi.ion_hamiltonian(p, 25).exact_frame.one_period(2e-7)
    print(hashlib.sha256(w.tobytes()).hexdigest())


def calibration():
    # the stepper's largest packed-block run, with 13-row stage products:
    # the dispersive parity calibration of perfbench's driven-rk45 readout
    # (n_max = 14, tol 1e-9), its pulse duration and the sha256 of its two
    # readout operators, must print the same with BLAS threads pinned (the
    # job's setting) and unpinned
    import hashlib
    from qworkbench import ionrabi
    cal = ionrabi._dispersive_calibration(15, 20.0, 0.25, 1e-9)
    print(repr(cal.duration))
    for m in (cal.m_plus, cal.m_minus):
        print(hashlib.sha256(m.tobytes()).hexdigest())


def parity():
    # the parity protocol rotates each Fock level of the ket in closed form
    # and reads sigma_z and sigma_y from its two qubit halves; the dispersive
    # readout applies the calibration's cached operators (n_max = 14, as in
    # the calibration probe) and reads the same way: both, exact and at
    # 2000 shots, on three seeded qubit (x) boson kets, must print the same
    # with BLAS threads pinned (the job's setting) and unpinned; demo 05
    # prints only 3 decimals of the exact value
    import numpy as np
    from qworkbench import ionrabi, qcore as qc
    rng = np.random.default_rng(42)
    space = qc.HilbertSpace.qubit_boson(n_max=14)
    for _ in range(3):
        psi = qc.random_pure_state(space, rng)
        print(repr([ionrabi.parity_measurement(psi),
                    ionrabi.parity_measurement(psi, shots=2000, master_seed=7),
                    ionrabi.parity_measurement_dispersive(psi)]))


def dressed():
    # their signs are read from the labels (qcore.pauli_product), and each
    # pi/4 dressing acts on the ket as cos(phi) psi - i sin(phi) P psi
    # through qcore.pauli_apply: the readout of every non-identity 4-qubit
    # label on a seeded state, and the gate bytes of ms_compile for
    # k = 2..5, must print the same with BLAS threads pinned (the job's
    # setting) and unpinned; demo 04 prints only 8 decimals of these values
    import hashlib
    import numpy as np
    from qworkbench import eqs, qcore as qc
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(4), np.random.default_rng(5))
    labels = [a + b + c + d for a in "IXYZ" for b in "IXYZ" for c in "IXYZ" for d in "IXYZ"]
    print(repr([eqs.measure_via_anticommutation(lbl, psi).value for lbl in labels[1:]]))
    for k in range(2, 6):
        gates = eqs.ms_compile("YZXYZ"[:k], 0.37)
        print(k, hashlib.sha256(b"".join(g.matrix.tobytes() for g in gates)).hexdigest())


def monotone():
    # the readout pairs are read from their labels by qcore.expectation,
    # through qcore.pauli_apply on a ket and as an O(d) gather of the
    # entries on a density matrix: a seeded 5-qubit OddN value on the
    # register ket, on its embedded density matrix and on a depolarized
    # copy read with rescale must print the same with BLAS threads pinned
    # (the job's setting) and unpinned; no table or demo prints these values
    import numpy as np
    from qworkbench import eqs, qcore as qc
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(5), np.random.default_rng(21))
    spec = eqs.MonotoneSpec("OddN", 5)
    rho = eqs.embed_state(psi).to_density_matrix()
    noisy = eqs.apply_depolarizing(rho, 0.97, 40)
    print(repr([eqs.monotone(psi, spec).value, eqs.monotone(rho, spec).value,
                eqs.monotone(noisy, spec, rescale=(0.97, 40)).value]))


def bosonic():
    # the probe-qubit protocol with non-unitary gates -iB: two flagged
    # spin-boson operators and a plain Pauli string on a seeded state of
    # a Rabi-type qubit-mode model at n_max = 10; no table or demo prints
    # this value
    import numpy as np
    from qworkbench import qcore as qc, timecorr as tc
    space = qc.HilbertSpace.qubit_boson(n_max=10)
    h = qc.Schedule.constant(qc.OperatorSum(space, [
        (1.0, ("I", "n")), (0.45, ("Z", "I")), (0.3, ("S+", "a")), (0.3, ("S-", "adag")),
        (0.1, ("S+", "adag")), (0.1, ("S-", "a"))], hermitian=True))
    ops = (qc.OperatorSum(space, [(1.0, ("I", "x"))]), qc.OperatorSum.single(space, 0, "Y"),
           qc.OperatorSum(space, [(0.3 + 0.4j, ("Z", "x"))]))
    psi = qc.random_pure_state(space, np.random.default_rng(9))
    print(repr(tc.correlation_ancilla(tc.CorrelationSpec(h, (0.0, 0.5, 1.2), ops, psi))))


def qubit_chain():
    # the probe-qubit protocol on a 3-qubit register, where each Pauli
    # string acts as -1j * qcore.pauli_apply(label, y), a row gather: a
    # three-time correlator of multi-term Pauli operators (ladder codes
    # included) on a seeded ket and on its density matrix; no table or demo
    # prints these values
    import numpy as np
    from qworkbench import qcore as qc, timecorr as tc
    space = qc.HilbertSpace.qubits(3)
    h = qc.Schedule.constant(qc.OperatorSum(space, [
        (0.9, tuple("ZII")), (0.5, tuple("XXI")), (0.4, tuple("IYY")), (0.3, tuple("ZIX"))],
        hermitian=True))
    ops = (qc.OperatorSum(space, [(0.7, tuple("XZI")), (0.2j, tuple("IIY"))]),
           qc.OperatorSum(space, [(1.0, ("S+", "I", "Z")), (0.6, tuple("YIX"))]),
           qc.OperatorSum(space, [(0.5, tuple("ZZZ")), (-0.4, tuple("IXI")), (0.3, tuple("YII"))]))
    psi = qc.random_pure_state(space, np.random.default_rng(13))
    for state in (psi, psi.to_density_matrix()):
        print(repr(tc.correlation_ancilla(tc.CorrelationSpec(h, (0.0, 0.45, 1.1), ops, state))))


def noisy_cqed():
    # the noisy cQED digitization is a chain of LindbladModel segments, which
    # openmaster.lindblad_exact steps at d = 24, above the size that takes
    # the block exponential: two Trotter steps with finite raised-cosine
    # flips under resonator loss, dephasing and relaxation, whose fidelity
    # and the sha256 of whose final density matrix must print the same with
    # BLAS threads pinned (the job's setting) and unpinned; demo 07 prints
    # only 4 decimals of a longer run's fidelity
    import hashlib
    from qworkbench import daqs
    noise = daqs.CqedNoise(kappa=0.01, gamma_phi=0.005, gamma_minus=0.002,
                           flip_duration=0.02)
    run = daqs.cqed_rabi_digitize(1.0, 1.0, 1.0, 0.5, 2, n_max=11, noise=noise, tol=1e-8)
    print(repr(run.fidelity))
    print(hashlib.sha256(run.state.matrix.tobytes()).hexdigest())


for probe in (sampled, one_period, calibration, parity, dressed, monotone, bosonic, qubit_chain,
              noisy_cqed):
    print("==", probe.__name__)
    probe()
