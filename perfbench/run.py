"""qworkbench benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Workloads: dissipative-series,
single-shot-mc, scenario-sweep, driven-rk45 (see perfbench/README.md).

``--trace 0`` measures the end-to-end metrics with nothing patched:
``SETUPS`` fresh worker processes are set up in turn (the last one goes on
to the timed passes), so ``setup_s`` is a median and ``peak_rss_mb``
belongs to the workload alone; ``CLI_LAUNCHES`` fresh ``qworkbench list``
launches give ``cli_start_s``.  ``--trace 1`` runs the traced worker and
reports the per-layer metrics.  Every run pins BLAS to one thread, records
the machine, and prints ``metric <name> <value> <unit>`` lines followed by
one JSON result as the last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"     # results, span files and scratch output; as in workloads.py
sys.path.insert(0, str(HERE))

from probe import probes, rescale  # noqa: E402
from tracer import COUNT_NAMES, RK45, SPAN_NAMES, WRITE  # noqa: E402

WORKLOADS = ("dissipative-series", "single-shot-mc", "scenario-sweep", "driven-rk45")
SETUPS = 3
CLI_LAUNCHES = 5
SPAWN_PROBES = 3   # speed probes just before and just after each CLI launch
IMPORTTIME_LAUNCHES = 3
DEADLINE_S = 170.0

END_TO_END = (
    ("run_s", "s"),
    ("item_p50_ms", "ms"),
    ("setup_s", "s"),
    ("cli_start_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    [(f"{name}.{field}", unit) for name in SPAN_NAMES
     for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [(f"{name}.calls", "count") for name in COUNT_NAMES]
    + [(f"{RK45}.{field}", unit) for field, unit in (
        ("calls", "count"), ("busy_s", "s"), ("nfev", "count"),
        ("steps_accepted", "count"), ("steps_rejected", "count"))]
    + [(f"{WRITE}.bytes", "B"),
       ("openmaster.mc_within_delta_ratio", "ratio"),
       ("openmaster.mc_trials", "count"),
       ("harness.cli_import_s", "s"),
       ("harness.cli_import_scipy_s", "s"),
       ("harness.python_bare_start_s", "s"),
       ("trace.untraced_pass_s", "s"),
       ("trace.traced_pass_s", "s"),
       ("trace.overhead_frac", "ratio")])


class BenchError(RuntimeError):
    pass


class Launcher:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
                        PYTHONHASHSEED="0", TMPDIR=str(OUT_DIR))

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("ran out of time")
        return left

    def timed(self, cmd) -> tuple:
        """Wall time of one fresh process to exit, and its stderr."""
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=self.remaining())
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return elapsed, proc.stderr

    def worker(self, args, setup_only: bool) -> tuple:
        """(set-up record, result dict or None).  The set-up record holds the
        seconds from spawn to READY and the worker's own account of the
        workload build inside them."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            setup_probes = proc.stdout.readline()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{args.workload} worker failed (exit {proc.returncode})")
        setup = dict(json.loads(setup_probes), ready_s=setup_s)
        if setup_only:
            return setup, None
        lines = [line for line in rest.splitlines() if line.strip()]
        if not lines:
            raise BenchError(f"{args.workload} worker printed no result")
        return setup, json.loads(lines[-1])


def _importtime(stderr: str) -> tuple:
    """(CLI import seconds, scipy share) from ``-X importtime`` output after
    the marker line: sum of top-level cumulative times, and of the outermost
    scipy entries.  Lines come in completion order, so children precede
    their parent; walk them in reverse to see parents first."""
    lines = stderr.split("__bench_marker__", 1)[-1].splitlines()
    rows = []
    for line in lines:
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, int(m.group(2)) * 1e-6, m.group(4)))
    total = scipy = 0.0
    stack = []  # (depth, inside scipy)
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if not stack:
            total += cumulative
        if is_scipy and not inside:
            scipy += cumulative
        stack.append((depth, inside or is_scipy))
    return total, scipy


def _items(passes):
    """(batch position, kind, raw seconds, rescaled seconds) for every timed
    item; each item is rescaled by the mean of the speed probes taken just
    before and just after it."""
    for p in passes:
        for i, (kind, s) in enumerate(p["items"]):
            yield i, kind, s, rescale(s, p["probes"][i:i + 2])


def _positions(passes) -> tuple:
    """Median (raw, rescaled) seconds over the passes of each batch
    position.  Every pass replays the same batch, so the median pass is
    their sum, and the median item latency is their median."""
    raw, scaled = defaultdict(list), defaultdict(list)
    for i, _, s, r in _items(passes):
        raw[i].append(s)
        scaled[i].append(r)
    return ([statistics.median(v) for v in raw.values()],
            [statistics.median(v) for v in scaled.values()])


def _kinds(passes) -> dict:
    """Median raw and rescaled milliseconds per item kind."""
    raw, scaled = defaultdict(list), defaultdict(list)
    for _, kind, s, r in _items(passes):
        raw[kind].append(s)
        scaled[kind].append(r)
    return {kind: {"n": len(raw[kind]), "raw_ms": 1e3 * statistics.median(raw[kind]),
                   "ms": 1e3 * statistics.median(scaled[kind])} for kind in raw}


def _setup_s(setup: dict) -> float:
    """Spawn-to-READY seconds without the worker's own speed probes,
    rescaled by those probes (taken right after the imports and right after
    the workload build)."""
    return rescale(setup["ready_s"] - setup["probe_s"], setup["probes"])


def measure(args, launcher: Launcher) -> dict:
    py = sys.executable
    metrics = {}
    if not args.trace:
        # a tiny run sets up once and launches the CLI once
        setups = [launcher.worker(args, setup_only=True)[0]
                  for _ in range(0 if args.tiny else SETUPS - 1)]
        setup, res = launcher.worker(args, setup_only=False)
        setups.append(setup)
        cli, bare = [], []
        for _ in range(1 if args.tiny else CLI_LAUNCHES):
            before = probes(SPAWN_PROBES)
            elapsed = launcher.timed([py, "-m", "qworkbench.harness.cli", "list"])[0]
            cli.append((elapsed, before + probes(SPAWN_PROBES)))
            bare.append(launcher.timed([py, "-c", "pass"])[0])
        raw_pos, pos = _positions(res["passes"])
        metrics = {
            "run_s": sum(pos),
            "item_p50_ms": 1e3 * statistics.median(pos),
            "setup_s": statistics.median(_setup_s(s) for s in setups),
            "cli_start_s": statistics.median(rescale(t, p) for t, p in cli),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        extra = {"raw": {"run_s": sum(raw_pos),
                         "item_p50_ms": 1e3 * statistics.median(raw_pos),
                         "setup_s": statistics.median(s["ready_s"] for s in setups),
                         "cli_start_s": statistics.median(t for t, _ in cli),
                         "python_bare_start_s": statistics.median(bare)},
                 "items": len(pos), "passes": len(res["passes"]),
                 "item_kinds": _kinds(res["passes"]),
                 "setup_samples": setups, "cli_samples": cli, "pass_samples": res["passes"]}
    else:
        _, res = launcher.worker(args, setup_only=False)
        layers = res["layers"]
        n = max(1, len(res["traced_passes"]))
        summary = layers["summary"]
        for name in SPAN_NAMES:
            entry = summary.get(name, {})
            for field in ("calls", "busy_s", "self_s"):
                metrics[f"{name}.{field}"] = entry.get(field, 0) / n
        for name in COUNT_NAMES:
            metrics[f"{name}.calls"] = layers["counts"].get(f"{name}.calls", 0) / n
        rk = summary.get(RK45, {})
        metrics[f"{RK45}.calls"] = rk.get("calls", 0) / n
        metrics[f"{RK45}.busy_s"] = rk.get("busy_s", 0.0) / n
        for field in ("nfev", "steps_accepted", "steps_rejected"):
            metrics[f"{RK45}.{field}"] = layers["counts"].get(f"{RK45}.{field}", 0) / n
        metrics[f"{WRITE}.bytes"] = layers["bytes_written"] / n
        metrics["openmaster.mc_within_delta_ratio"] = layers.get("mc_within_delta_ratio", 0.0)
        metrics["openmaster.mc_trials"] = layers.get("mc_trials", 0)
        imports = [_importtime(launcher.timed(
            [py, "-X", "importtime", "-c",
             "import sys; sys.stderr.write('__bench_marker__\\n'); import qworkbench.harness.cli"]
        )[1]) for _ in range(IMPORTTIME_LAUNCHES)]
        metrics["harness.cli_import_s"] = statistics.median(t for t, _ in imports)
        metrics["harness.cli_import_scipy_s"] = statistics.median(s for _, s in imports)
        metrics["harness.python_bare_start_s"] = statistics.median(
            launcher.timed([py, "-c", "pass"])[0] for _ in range(IMPORTTIME_LAUNCHES))
        # raw times: each traced pass sits right next to its untraced twin
        untraced = sum(_positions(res["passes"])[0])
        traced = sum(_positions(res["traced_passes"])[0])
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.traced_pass_s"] = traced
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        extra = {"missing_targets": layers["missing"], "spans_file": layers["spans_file"]}

    units = dict(PER_LAYER if args.trace else END_TO_END)
    report = {
        "correct": res["failed"] == 0 and not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(report, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, tiny=args.tiny, env=res["env"],
                  failures=res["failures"], **extra)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def print_record(record: dict):
    print("env " + json.dumps(record["env"], sort_keys=True))
    head = f"workload {record['workload']} seed {record['seed']} trace {record['trace']}"
    if "items" in record:
        head += (f": {record['passes']} passes of {record['items']} items; "
                 f"item_p50_ms is the median over the {record['items']} items")
    print(head)
    for name, m in record["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        unit = "ms" if name.endswith("_ms") else "s"
        print(f"note raw {name} {value:.6g} {unit} (wall clock, not rescaled)")
    for kind, k in record.get("item_kinds", {}).items():
        print(f"item {kind} {k['ms']:.6g} ms rescaled, {k['raw_ms']:.6g} ms raw, "
              f"median of {k['n']}")
    for label in record.get("missing_targets", []):
        print(f"note untraced target {label} not found in the program")
    frac = record["failed"] / record["attempted"]
    print(f"fail_frac {frac:.6g} ({record['failed']} of {record['attempted']} items)")
    for reason in record["failures"][:20]:
        print(f"failure {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, one set-up and one CLI launch, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qworkbench" / "__init__.py").is_file():
        print(f"error: no qworkbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    # One core for the launcher and every process it starts: the cores of a
    # shared machine drift in speed independently, so the speed probes only
    # describe the work they sit beside when both run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher(perf_counter() + DEADLINE_S * len(names))
    records = []
    try:
        for name in names:
            records.append(measure(argparse.Namespace(**dict(vars(args), workload=name)),
                                   launcher))
            print_record(records[-1])
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{r['workload']}/{k}": v for r in records
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
