"""A trapped ion as a tunable light-matter simulator.

A bichromatic drive on the red and blue sidebands realizes the quantum
Rabi model with fully tunable frequencies: the detuning sum sets the
qubit splitting, the difference sets the mode frequency, and the
Lamb-Dicke coupling sets g.  That unlocks regimes far beyond weak
coupling, down to the relativistic-particle line at zero mode frequency.

The script maps drive parameters to model parameters, classifies regimes
across the parameter plane, validates the full drive against the
closed-form weak-coupling exchange, and prepares a strong-coupling ground
state adiabatically.
"""
import math

from qworkbench import ionrabi as ir
from qworkbench import qcore as qc

TWO_PI = 2 * math.pi

p = ir.IonDriveParams(nu=TWO_PI * 3e6, omega0=TWO_PI * 10e6,
                      omega_r=TWO_PI * 68e3, omega_b=TWO_PI * 68e3,
                      eta=0.06, delta_r=0.0, delta_b=-TWO_PI * 102e3)
r = ir.effective_qrm(p)
print("drive -> model mapping:")
print(f"  qubit splitting {r.omega0_r / TWO_PI / 1e3:.1f} kHz, mode "
      f"{r.omega_r / TWO_PI / 1e3:.1f} kHz, g {r.g / TWO_PI / 1e3:.2f} kHz "
      f"(g/omega = {r.g / r.omega_r:.3f})")
print(f"  regime: {ir.classify_regime(r)}")

print("\nregime labels across the plane (g/omega vertical, omega0/omega horizontal):")
g_vals = [0.01, 0.05, 0.3, 1.5, 5.0]
w0_vals = [-1.0, -0.3, 0.0, 0.3, 1.0]
short = {"JC": "JC ", "AJC": "AJC", "TwoFoldDispersive": "2FD", "USC": "USC",
         "DSC": "DSC", "Decoupling": "DEC", "Intermediate": "INT", "Dirac": "DIR"}
print("          " + "  ".join(f"{w0:+4.1f}" for w0 in w0_vals))
for g in reversed(g_vals):
    row = [short[ir.classify_regime(ir.RabiParams(w0, 1.0, g))] for w0 in w0_vals]
    print(f"  g={g:4.2f}:  " + "   ".join(row))

print("\nfull drive vs closed-form weak-coupling exchange (half an oscillation):")
n_max = 25
h = ir.ion_hamiltonian(p, n_max)
psi0 = qc.basis_state(h.space, [0, 0])
for frac in (0.25, 0.5):
    t = frac * math.pi / r.g
    state = qc.evolve(psi0, h, 0.0, t, tol=1e-6)
    ana = ir.jc_analytic_state(r.g, t, n_max)
    print(f"  t = {frac:4.2f} flop periods: fidelity {qc.fidelity(ana, state):.5f}")

print("\nadiabatic preparation of the g/omega = 1 ground state:")
base = ir.RabiParams(omega0_r=1.0, omega_r=1.0, g=0.0)
h0 = ir.qrm_hamiltonian(base, 16).matrix()
space = qc.HilbertSpace.qubit_boson(n_max=16)
coupling = qc.OperatorSum(space, [(-1.0, ("Y", "x"))]).matrix()
for duration in (5.0, 20.0, 60.0):
    out = ir.adiabatic_ground_state(h0, coupling, 1.0, duration, space, n_checkpoints=7)
    print(f"  ramp over {duration:5.1f}/omega: final fidelity {out.final_fidelity:.5f}")

print("\ngeneralized parity of qubit-boson states, protocol vs direct:")
space = qc.HilbertSpace.qubit_boson(n_max=14)
for occ, name in (([1, 0], "g,0"), ([0, 1], "e,1"), ([1, 2], "g,2")):
    st = qc.basis_state(space, occ)
    print(f"  |{name}>: direct {ir.parity_direct(st):+.3f}, "
          f"protocol {ir.parity_measurement(st):+.3f}")
