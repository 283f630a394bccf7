"""The four benchmark workloads.

A workload is built once from the workload seed (inputs plus any cache
fill: that is the set-up the benchmark times), then replays one fixed batch
of items per pass.  An item calls public functions of ``qworkbench`` and
returns their output; ``check`` compares that output with the limits the
repository's tests pin and returns a reason string when it fails.  Run-level
checks that need every pass (pooled estimates, byte-identical tables) live
in ``finish``.

Every module is reached through its package attribute at call time, so the
traced run's patches apply and the untraced run patches nothing.
"""
from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import qworkbench.qcore as qc
from qworkbench import daqs, harness, ionrabi, openmaster

TWO_PI = 2.0 * math.pi
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"   # as in run.py


class Item:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run          # () -> output, the timed call into the program
        self.check = check      # output -> None | failure reason


# ---------------------------------------------------------------------------
# dissipative-series
# ---------------------------------------------------------------------------

def _random_lindblad(rng, n_qubits: int, n_channels: int):
    """One model drawn as the lindblad-bounds scenario draws it, with the
    qubit and channel counts fixed by the caller so that every pass costs
    the same."""
    space = qc.HilbertSpace.qubits(n_qubits)
    d = space.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = qc.Schedule.constant(0.5 * (m + m.conj().T), space)
    channels = []
    for _ in range(n_channels):
        terms = [(complex(*rng.standard_normal(2)),
                  tuple(rng.choice(list("IXYZ"), size=n_qubits)))
                 for _ in range(int(rng.integers(1, 3)))]
        op = qc.OperatorSum(space, terms)
        if op.norm_inf() < 1e-9:
            op = qc.OperatorSum.pauli_string(space, "X" * n_qubits)
        channels.append((op, float(rng.uniform(0.05, 0.4))))
    model = openmaster.LindbladModel(h, channels)
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = rho @ rho.conj().T
    rho0 = qc.DensityMatrix(space, rho / np.trace(rho).real)
    return model, rho0, float(rng.uniform(0.2, 0.7))


class DissipativeSeries:
    """Random 1-2 qubit Lindblad models through ``lindblad_exact`` and
    ``truncated_states`` (D1 <= truncation_bound at every order), plus one
    point of the lindblad-reconstruction grid per pass through quadrature
    ``reconstruct`` (|rec - exact| <= 2 bound)."""

    name = "dissipative-series"

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        shapes = [(1, 1)] if tiny else [(1, 1), (1, 2), (2, 1), (2, 2)]
        self.order = 1 if tiny else 3
        self.models = [_random_lindblad(rng, nq, nch) for nq, nch in shapes]
        # the lindblad-reconstruction scenario's defaults
        space = qc.HilbertSpace.qubits(1)
        self.damping = openmaster.LindbladModel(
            qc.OperatorSum.zero(space), [(qc.OperatorSum.single(space, 0, "S-"), 0.25)])
        self.damping_rho0 = qc.basis_state(space, [0]).to_density_matrix()
        self.damping_obs = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
        grid = np.linspace(0.0, 1.2, 13)[1:]
        self.grid = [float(t) for t in np.roll(grid, -int(rng.integers(len(grid))))]

    def items(self, pass_index: int) -> list:
        out = [self._model_item(*m) for m in self.models]
        out.append(self._grid_item(self.grid[pass_index % len(self.grid)]))
        return out

    def _model_item(self, model, rho0, t):
        order = self.order

        def run():
            exact = openmaster.lindblad_exact(model, rho0, t)
            return exact, openmaster.truncated_states(model, rho0, t, order)

        def check(out):
            exact, states = out
            gb = model.gamma_bar(t)
            for n, tilde in enumerate(states):
                d1 = 0.5 * float(np.sum(np.linalg.svd(exact.matrix - tilde, compute_uv=False)))
                bound = openmaster.truncation_bound(n, t, gb, model.n_channels)
                if d1 > bound + 1e-9:
                    return f"order {n}: D1 {d1:.3e} above bound {bound:.3e}"
            return None

        return Item("lindblad-model", run, check)

    def _grid_item(self, t):
        model, rho0, obs, order = self.damping, self.damping_rho0, self.damping_obs, self.order

        def run():
            exact = qc.expectation(openmaster.lindblad_exact(model, rho0, t), obs).real
            return exact, openmaster.reconstruct(model, obs, rho0, t, order)

        def check(out):
            exact, rec = out
            bound = openmaster.truncation_bound(order, t, model.gamma_bar(t), model.n_channels)
            err = abs(rec.value - exact)
            if err > 2.0 * bound + 1e-12:
                return f"t={t:.3f}: |rec - exact| {err:.3e} above 2 bound {2 * bound:.3e}"
            return None

        return Item("reconstruction-point", run, check)

    def finish(self) -> list:
        return []


# ---------------------------------------------------------------------------
# single-shot-mc
# ---------------------------------------------------------------------------

class SingleShotMC:
    """Seeded trials of the single-shot Monte-Carlo order-1 estimator on the
    criterion-06 model at |Omega_1| from ``sample_size_bound``."""

    name = "single-shot-mc"
    delta = 0.05
    beta = 2.0

    def __init__(self, seed: int, tiny: bool):
        space = qc.HilbertSpace.qubits(1)
        self.t = 0.3
        self.model = openmaster.LindbladModel(
            qc.OperatorSum.single(space, 0, "Z", 0.65, hermitian=True),
            [(qc.OperatorSum.pauli_string(space, "X"), 0.25)])
        self.rho0 = qc.basis_state(space, [0]).to_density_matrix()
        self.obs = qc.OperatorSum.single(space, 0, "Z", hermitian=True)
        gb = self.model.gamma_bar(self.t)
        self.omega_1 = openmaster.sample_size_bound(self.delta, self.beta, 1, self.t,
                                                    1, 1, 1, gb)
        # cache fill: the quadrature truth every trial is compared with
        self.truth = openmaster.reconstruct(self.model, self.obs, self.rho0,
                                            self.t, 1).per_order[1]
        self.trials = 1 if tiny else 4
        self.seed_base = int(seed) * 1_000_000
        self.estimates: dict = {}      # trial seed -> estimate, one per distinct trial

    def items(self, pass_index: int) -> list:
        first = self.seed_base + pass_index * self.trials
        return [self._trial(first + j) for j in range(self.trials)]

    def _trial(self, trial_seed: int):
        plan = openmaster.MonteCarloPlan(samples_per_order=self.omega_1,
                                         master_seed=trial_seed, shots_per_value=1)

        def run():
            return openmaster.reconstruct(self.model, self.obs, self.rho0, self.t, 1,
                                          plan=plan)

        def check(rec):
            # per-trial hits are a ratio, not a gate; the pooled estimate is.
            # A trial replayed under the same seed must give the same estimate.
            estimate = float(rec.per_order[1])
            first = self.estimates.setdefault(trial_seed, estimate)
            if first != estimate:
                return f"trial seed {trial_seed}: estimate {estimate!r} differs from {first!r}"
            return None

        return Item("mc-trial", run, check)

    def within_delta_ratio(self) -> float:
        if not self.estimates:
            return 0.0
        hits = sum(abs(e - self.truth) <= self.delta for e in self.estimates.values())
        return hits / len(self.estimates)

    def finish(self) -> list:
        if not self.estimates:
            return []
        pooled = float(np.mean(list(self.estimates.values())))
        if abs(pooled - self.truth) > self.delta:
            return [f"pooled estimate {pooled:.5f} is more than {self.delta} "
                    f"from the quadrature truth {self.truth:.5f}"]
        return []


# ---------------------------------------------------------------------------
# scenario-sweep
# ---------------------------------------------------------------------------

TINY_SCENARIOS = ("timecorr-2pt", "eqs-concurrence", "qrm-regimes", "twophoton-dynamics")


class ScenarioSweep:
    """Every non-lindblad scenario at its defaults through
    ``harness.run_scenario`` and ``RunArtifact.write``; the CSV bytes of
    each scenario must hash the same on every pass."""

    name = "scenario-sweep"

    def __init__(self, seed: int, tiny: bool):
        ids = [sid for sid in harness.SCENARIOS if not sid.startswith("lindblad")]
        self.scenarios = [sid for sid in ids if sid in TINY_SCENARIOS] if tiny else ids
        self.seed = int(seed)
        self.out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR))
        self.hashes: dict = {}
        self.bytes_written = 0

    def items(self, pass_index: int) -> list:
        return [self._scenario(sid) for sid in self.scenarios]

    def _scenario(self, sid: str):
        def run():
            config = harness.ScenarioConfig(scenario=sid, master_seed=self.seed, threads=1)
            return harness.run_scenario(config).write(self.out_dir)

        def check(root):
            digest = hashlib.sha256()
            for path in sorted(Path(root).glob("*.csv")):
                data = path.read_bytes()
                digest.update(path.name.encode() + b"\0" + data)
            self.bytes_written += sum(p.stat().st_size for p in Path(root).iterdir())
            first = self.hashes.setdefault(sid, digest.hexdigest())
            if first != digest.hexdigest():
                return f"{sid}: CSV tables differ between passes"
            return None

        return Item(sid, run, check)

    def finish(self) -> list:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return []


# ---------------------------------------------------------------------------
# driven-rk45
# ---------------------------------------------------------------------------

class DrivenRK45:
    """Time-dependent drives through qcore's adaptive stepper: the full
    second-sideband ion drive against the effective two-photon model, the
    physical XY block, and dispersive parity readout of seeded low-manifold
    states."""

    name = "driven-rk45"
    parity_n_max = 14

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 4])
        # the drive of test_two_photon_full_drive_vs_effective, on a shorter
        # window of the two-phonon exchange
        drive = TWO_PI * 100e3
        self.drive = ionrabi.IonDriveParams(
            nu=TWO_PI * 1e6, omega0=TWO_PI * 12e6, omega_r=drive, omega_b=drive,
            eta=0.04, delta_r=0.0, delta_b=-TWO_PI * 400.0, sideband_order=2)
        self.drive_n_max = 25
        tp = ionrabi.effective_two_photon(self.drive)
        self.drive_t = (0.01 if tiny else 0.08) / tp.g
        h_eff = ionrabi.two_photon_hamiltonian(tp, 1, self.drive_n_max,
                                               simulation_frame=True).matrix()
        space = qc.HilbertSpace.qubit_boson(n_max=self.drive_n_max)
        self.drive_psi0 = qc.basis_state(space, [1, 2])       # |g, 2>
        evals, evecs = np.linalg.eigh(h_eff)
        ideal = evecs @ (np.exp(-1j * evals * self.drive_t)
                         * (evecs.conj().T @ self.drive_psi0.amplitudes))
        db = self.drive_n_max + 1
        p = self.drive
        h0_diag = np.kron(0.25 * (p.delta_b + p.delta_r) * np.array([1.0, -1.0]), np.ones(db)) \
            + np.kron(np.ones(2), 0.25 * (p.delta_b - p.delta_r) * np.arange(db))
        self.drive_frame = np.exp(1j * h0_diag * self.drive_t)
        self.drive_ideal = qc.PureState(space, ideal)
        # XY block: two spins at a chain-scale coupling, half a period
        j = TWO_PI * 200.0
        self.xy = dict(j_coupling=j, delta_mode=TWO_PI * 60e3, delta_spin=TWO_PI * 3e3,
                       omega=TWO_PI * 62e3, n_spins=2, n_max=4, tol=3e-7,
                       times=np.linspace(0.0, (0.25 if tiny else 1.0) * math.pi / j, 3)[1:])
        # seeded superpositions on the n <= 1 manifold of qubit (x) boson
        pspace = qc.HilbertSpace.qubit_boson(n_max=self.parity_n_max)
        pdb = self.parity_n_max + 1
        amps = np.zeros(2 * pdb, dtype=complex)
        idx = [0, 1, pdb, pdb + 1]
        amps[idx] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        self.parity_state = qc.PureState(pspace, amps / np.linalg.norm(amps))
        # cache fill: the first dispersive readout calibrates the pulse
        ionrabi.parity_measurement_dispersive(qc.basis_state(pspace, [1, 0]))

    def items(self, pass_index: int) -> list:
        return [self._full_drive(), self._xy_block(), self._parity()]

    def _full_drive(self):
        def run():
            h_full = ionrabi.ion_hamiltonian(self.drive, self.drive_n_max)
            return qc.evolve(self.drive_psi0, h_full, 0.0, self.drive_t, tol=2e-7)

        def check(full):
            psi_sim = qc.PureState(full.space, self.drive_frame * full.amplitudes)
            fid = qc.fidelity(psi_sim, self.drive_ideal)
            return None if fid > 0.98 else f"full-drive fidelity {fid:.4f} not above 0.98"

        return Item("full-drive", run, check)

    def _xy_block(self):
        def run():
            return daqs.xy_block_physical(**self.xy)

        def check(res):
            worst = float(np.min(res.fidelities))
            return None if worst > 0.95 else f"XY-block fidelity {worst:.4f} not above 0.95"

        return Item("xy-block", run, check)

    def _parity(self):
        def run():
            return ionrabi.parity_measurement_dispersive(self.parity_state)

        def check(value):
            err = abs(value - ionrabi.parity_direct(self.parity_state))
            return None if err < 2e-2 else f"dispersive parity error {err:.3e} not below 2e-2"

        return Item("dispersive-parity", run, check)

    def finish(self) -> list:
        return []


WORKLOADS = {
    DissipativeSeries.name: DissipativeSeries,
    SingleShotMC.name: SingleShotMC,
    ScenarioSweep.name: ScenarioSweep,
    DrivenRK45.name: DrivenRK45,
}


def build(name: str, seed: int, tiny: bool):
    return WORKLOADS[name](seed, tiny)
