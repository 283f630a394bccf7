"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--tiny] [--setup-only]

Prints ``READY`` once the workload is set up (imports, inputs, cache fill),
then runs passes over the workload's item batch and prints one JSON result
as its last line.  ``run.py`` starts it; it is not meant to be run by hand.

Untraced: passes repeat for about ``--seconds`` (at least ``MIN_PASSES``),
nothing is patched.  Traced: one untimed warm-up pass, then
``TRACE_PAIRS`` pairs of one untraced and one traced pass over the same
items, alternating which goes first; per-layer figures are per traced pass
and the overhead is the gap between the two kinds of pass.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

from probe import probes, speed_probe

MIN_PASSES = 2
TRACE_PAIRS = 2
SETUP_PROBES = 3


def _openblas_info() -> list:
    """(library, config, threads) for every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_info(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "harness_threads": 1,
        "seed": seed,
    }


class Pass:
    def __init__(self):
        self.latencies: list = []      # (kind, seconds)
        self.probes: list = []         # speed probes around the items, one more than items
        self.failures: list = []

    def record(self) -> dict:
        return {"items": self.latencies, "probes": self.probes}


def run_pass(workload, index: int, tracer=None) -> Pass:
    """Time each item's call into the program, with a speed probe before the
    first item and after every item; checks run off the clock."""
    result = Pass()
    result.probes.append(speed_probe())
    for n, item in enumerate(workload.items(index)):
        if tracer is not None:
            tracer.item = f"{index}/{n}"
            root = tracer.open("item." + item.kind)
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a raising item is a failed item, the run goes on
            elapsed = perf_counter() - t0
            result.failures.append(f"{item.kind}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            out = None
        else:
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.close(root)
        result.latencies.append((item.kind, elapsed))
        result.probes.append(speed_probe())
        if out is not None:
            reason = item.check(out)
            if reason:
                result.failures.append(reason)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    # The launcher times spawn-to-READY; speed probes right after the
    # imports and right after the workload build let it rescale that time,
    # and their own duration is reported so that it can be taken out.
    t0 = perf_counter()
    around = probes(SETUP_PROBES)
    t1 = perf_counter()
    workload = workloads.build(args.workload, args.seed, args.tiny)
    t2 = perf_counter()
    around += probes(SETUP_PROBES)
    setup = {"build_s": t2 - t1, "probes": around,
             "probe_s": (t1 - t0) + (perf_counter() - t2)}
    print("READY", flush=True)
    print(json.dumps(setup), flush=True)
    if args.setup_only:
        workload.finish()
        return 0

    passes, traced, warm = [], [], []
    layers = {}
    if not args.trace:
        # no pass starts that would likely end more than half a pass late
        start, pass_s = perf_counter(), 0.0
        while len(passes) < MIN_PASSES or perf_counter() - start + 0.5 * pass_s < args.seconds:
            t0 = perf_counter()
            passes.append(run_pass(workload, len(passes)))
            pass_s = perf_counter() - t0
    else:
        from tracer import Tracer

        tracer = Tracer()
        written = 0
        # an untimed first pass, so that neither side of the first pair
        # pays the first-call costs alone
        warm.append(run_pass(workload, 0))
        for k in range(TRACE_PAIRS):
            for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
                if not traced_pass:
                    passes.append(run_pass(workload, k))
                    continue
                before = getattr(workload, "bytes_written", 0)
                tracer.install()
                try:
                    traced.append(run_pass(workload, k, tracer))
                finally:
                    tracer.uninstall()
                written += getattr(workload, "bytes_written", 0) - before
        layers = {"summary": tracer.summary(), "counts": dict(tracer.counts),
                  "missing": tracer.missing, "bytes_written": written}
        ratio = getattr(workload, "within_delta_ratio", None)
        if ratio is not None:
            layers["mc_within_delta_ratio"] = ratio()
            layers["mc_trials"] = len(workload.estimates)
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "traced_passes": len(traced)})
        layers["spans_file"] = str(spans_path)

    run_failures = workload.finish()
    every = warm + passes + traced
    failures = [f for p in every for f in p.failures] + run_failures
    attempted = sum(len(p.latencies) for p in every)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [p.record() for p in passes],
        "traced_passes": [p.record() for p in traced],
        "attempted": attempted,
        # a failed run-level check fails every item it pools
        "failed": min(attempted, sum(len(p.failures) for p in every)
                      + (attempted if run_failures else 0)),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
