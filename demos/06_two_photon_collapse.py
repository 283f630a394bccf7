"""Spectral collapse of the two-photon coupling model.

With a two-phonon interaction g sx (a^2 + a^dag^2), the effective
potential coefficient is omega - 2g: the discrete spectrum squeezes as g
grows and merges into a continuum at g = omega/2.  Below threshold the
characteristic exponents of the formal eigenfunctions stay off the unit
circle (normalizable, pure point spectrum); at threshold they collide at
+-1; beyond it everything sits on the unit circle and nothing is
normalizable.

The script sweeps couplings toward the threshold, labels each level with
its conserved generalized parity, and classifies the exponents.
"""
import numpy as np

from qworkbench import ionrabi as ir
from qworkbench import qcore as qc

omega, omega_q = 1.0, 1.9

print("lowest levels and parity labels vs coupling (cutoff 120 phonons):")
label_of = {1 + 0j: "+1", -1 + 0j: "-1", 1j: "+i", -1j: "-i"}
# near the collapse point the levels move with the cutoff: that is the signal
for pt in ir.two_photon_spectrum(omega, omega_q, 1, [0.1, 0.3, 0.45, 0.49], 6, 120,
                                 check_convergence=False):
    levels = " ".join(f"{e:+.3f}({label_of[p]})"
                      for e, p in zip(pt.energies, pt.parities))
    print(f"  g/omega = {pt.g:4.2f}: {levels}")

diag = ir.collapse_diagnostics(omega, omega_q, [0.1, 0.2, 0.3, 0.4, 0.45, 0.49],
                               n_levels=8, n_max=120)
print("\nband compression toward the threshold:")
print("  g/omega:      " + "  ".join(f"{g:5.2f}" for g in diag.g_values))
print("  min spacing:  " + "  ".join(f"{s:5.3f}" for s in diag.min_spacings))
print("  omega - 2g:   " + "  ".join(f"{c:5.3f}" for c in diag.potential_coefficients[:, 0]))

print("\nfirst-excited-state occupation vs Fock cutoff at g/omega = 0.49:")
for nm in (20, 40, 80, 120):
    h = ir.two_photon_hamiltonian(ir.TwoPhotonParams(omega, omega_q, 0.49), 1, nm)
    evals, evecs = np.linalg.eigh(h.matrix())
    nd = qc.OperatorSum.single(h.space, -1, "n").matrix().diagonal().real
    print(f"  cutoff {nm:3d}: <n> = {float(np.sum(nd * np.abs(evecs[:, 1]) ** 2)):.4f}")

print("\ncharacteristic exponents gamma = +-w/2 +- sqrt(w^2/4 - 1), w = omega/g:")
for w in (4.0, 2.0, 1.0):
    out = ir.characteristic_exponents(w)
    gs = ", ".join(f"{complex(g):.3f}" for g in out.exponents)
    print(f"  omega/g = {w:3.1f}: {out.kind:13s} [{gs}]")

print("\nparity is conserved: evolving |g,1> under the coupled model")
space = qc.HilbertSpace.qubit_boson(n_max=40)
h = ir.two_photon_hamiltonian(ir.TwoPhotonParams(omega, omega_q, 0.3), 1, 40).matrix()
psi0 = qc.basis_state(space, [1, 1])
sched = qc.Schedule.constant(h, space)
for t in (0.0, 1.5, 4.0):
    st = qc.evolve(psi0, sched, 0.0, t) if t else psi0
    print(f"  t = {t:3.1f}: <parity> = {ir.parity_direct(st):+.6f}")
