"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and twice traced with ``--tiny``, and fails
unless every metric named in BENCHMARK.json is printed with its unit, every
check passes, the exact counts of the two traced runs agree, and each exact
count is above 0 on the workload whose layer it counts.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# exact count -> the workload on which it must be above 0
EXACT = {"openmaster.dyson_term.calls": "dissipative-series",
         "qcore.pauli_decompose.calls": "single-shot-mc",
         "kernel.rk45.nfev": "driven-rk45"}
LINE = re.compile(r"metric (\S+) (\S+) (\S+)$")


def run(trace: int, seed: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr[-3000:]}")
    printed, workload = {}, None
    for line in out.stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
            printed[workload] = {}
        elif (m := LINE.match(line)) and workload:
            printed[workload][m.group(1)] = (float(m.group(2)), m.group(3))
    return printed, json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    traced = []
    for trace, seed in ((0, 3), (1, 3), (1, 3)):
        expected = {m["name"]: m["unit"] for m in
                    spec["per_layer" if trace else "end_to_end"]}
        printed, final = run(trace, seed)
        if not final["correct"] or final["failed"]:
            problems.append(f"trace {trace}: checks failed ({final['failed']} items)")
        if sorted(printed) != sorted(workloads):
            problems.append(f"trace {trace}: workloads printed {sorted(printed)}")
        for workload, metrics in printed.items():
            for name, unit in expected.items():
                if name not in metrics:
                    problems.append(f"{workload} trace {trace}: {name} not printed")
                elif metrics[name][1] != unit:
                    problems.append(f"{workload} trace {trace}: {name} in {metrics[name][1]}, "
                                    f"not {unit}")
        if trace:
            traced.append(printed)
    for workload in workloads:
        for name in EXACT:
            a, b = (t.get(workload, {}).get(name, (None,))[0] for t in traced)
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")
            if workload == EXACT[name] and not (a or 0) > 0:
                problems.append(f"{workload}: {name} is {a}, the layer was not traced")
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
