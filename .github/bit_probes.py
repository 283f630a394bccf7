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


def dressed():
    # their signs are read from the labels (qcore.pauli_product): the
    # readout of every non-identity 4-qubit label on a seeded state, and
    # the gate bytes of ms_compile for k = 2..5, must print the same with
    # BLAS threads pinned (the job's setting) and unpinned; demo 04 prints
    # only 8 decimals of these values
    import hashlib
    import numpy as np
    from qworkbench import eqs, qcore as qc
    psi = qc.random_pure_state(qc.HilbertSpace.qubits(4), np.random.default_rng(5))
    labels = [a + b + c + d for a in "IXYZ" for b in "IXYZ" for c in "IXYZ" for d in "IXYZ"]
    print(repr([eqs.measure_via_anticommutation(lbl, psi).value for lbl in labels[1:]]))
    for k in range(2, 6):
        gates = eqs.ms_compile("YZXYZ"[:k], 0.37)
        print(k, hashlib.sha256(b"".join(g.matrix.tobytes() for g in gates)).hexdigest())


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


for probe in (sampled, one_period, calibration, dressed, bosonic, qubit_chain):
    print("==", probe.__name__)
    probe()
