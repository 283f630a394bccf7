"""Reconstructing dissipative dynamics from unitary runs.

Instead of engineering the coupling to an environment, the dissipative
correction to any observable can be rebuilt from multi-time correlators
of the Lindblad operators measured on the purely unitary dynamics.  The
series over nested time-simplex integrals converges uniformly, with an
explicit trace-distance bound at every truncation order.

This script walks an amplitude-damped qubit through the pipeline: exact
master-equation solution, the order-by-order reconstruction, the bound,
the Monte-Carlo single-shot integration, and the measurement budget.
"""
import math

import numpy as np

from qworkbench import openmaster as om
from qworkbench import qcore as qc

gamma, t_max = 0.3, 1.0
space = qc.HilbertSpace.qubits(1)
model = om.LindbladModel(qc.OperatorSum.zero(space),
                         [(qc.OperatorSum.single(space, 0, "S-"), gamma)])
rho0 = qc.basis_state(space, [0]).to_density_matrix()   # excited qubit
z = qc.OperatorSum.single(space, 0, "Z", hermitian=True)

print("amplitude damping: <sz>(t) = 2 exp(-gamma t) - 1")
print(f"{'t':>5s} {'exact':>10s} {'order0':>10s} {'order1':>10s} "
      f"{'order2':>10s} {'order3':>10s} {'bound3':>10s}")
for t in np.linspace(0.2, t_max, 5):
    exact = qc.expectation(om.lindblad_exact(model, rho0, float(t)), z).real
    rec = om.reconstruct(model, z, rho0, float(t), order=3)
    cum = np.cumsum(rec.per_order)
    bound = om.truncation_bound(3, float(t), model.gamma_bar(t), 1)
    print(f"{t:5.2f} {exact:10.6f} " + " ".join(f"{v:10.6f}" for v in cum)
          + f" {bound:10.2e}")

print("\nMonte-Carlo integration over the time simplex (single-shot values),")
print("on a driven qubit: H = 0.65 sz + 3 sx, L = sx at rate 0.25, rho0 = |0><0|")
driven = om.LindbladModel(qc.OperatorSum(space, [(0.65, ("Z",)), (3.0, ("X",))]),
                          [(qc.OperatorSum.pauli_string(space, "X"), 0.25)])
t_mc = 0.3
quad = om.reconstruct(driven, z, rho0, t_mc, order=2)
for samples in (20, 200, 2000, 20000):
    plan = om.MonteCarloPlan(samples_per_order=samples, master_seed=4,
                             shots_per_value=1)
    mc = om.reconstruct(driven, z, rho0, t_mc, order=2, plan=plan)
    print(f"  {samples:5d} samples/order: {mc.value:.5f}  "
          f"(exact series {quad.value:.5f})")

t = 0.8
print("\nhow many samples does order n = 1 need for |error| <= 0.05 "
      "with confidence 1 - e^-2?")
n_samples = om.sample_size_bound(0.05, beta=2.0, n=1, t=t, n_channels=1,
                                 m_lindblad=2, m_observable=1,
                                 gamma_bar=model.gamma_bar(t))
print(f"  |Omega_1| = {n_samples}")

print("\ntotal measurement budget for end-to-end error 0.2:")
total = om.total_measurements(0.2, t, model.gamma_bar(t), 1, m_lindblad=2,
                              m_observable=1, beta=2.0)
order = om.truncation_order(0.1, t, model.gamma_bar(t), 1)
print(f"  truncate at order K = {order}, about {total:.3g} measurements")

print("\nnon-Hermitian generator J = H - i Gamma (trace decays):")
kappa = 0.4
gamma_op = qc.OperatorSum.single(space, 0, "Pg", kappa)
out = om.nonhermitian_evolve(qc.OperatorSum.zero(space), gamma_op,
                             qc.basis_state(space, [1]).to_density_matrix(), 1.2)
print(f"  survival probability {np.trace(out.matrix).real:.6f}  "
      f"(exp(-2 kappa t) = {math.exp(-2 * kappa * 1.2):.6f})")
