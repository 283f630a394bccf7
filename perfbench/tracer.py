"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside: every
module-level name in ``qworkbench.*`` that is bound to a wrapped function is
replaced, so names bound by ``from ... import`` are caught in each consuming
module, and so is ``qworkbench.qcore.evolve`` (the submodule that the
function of the same name shadows on the package).  Spans stay in memory
as ``[name, start, end, parent, item]`` rows and are written out once, when
the run ends.  ``uninstall`` restores every original binding, so an
untraced pass in the same process runs unpatched code.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (label, module, attribute): timed as spans.
SPAN_TARGETS = (
    ("openmaster.truncated_states", "qworkbench.openmaster", "truncated_states"),
    ("openmaster.reconstruct", "qworkbench.openmaster", "reconstruct"),
    ("openmaster.lindblad_exact", "qworkbench.openmaster", "lindblad_exact"),
    ("qcore.evolve", "qworkbench.qcore", "evolve"),
    ("qcore.propagator", "qworkbench.qcore", "propagator"),
    ("timecorr.correlation_ancilla", "qworkbench.timecorr", "correlation_ancilla"),
    ("timecorr.correlation_exact", "qworkbench.timecorr", "correlation_exact"),
    ("eqs.monotone", "qworkbench.eqs", "monotone"),
    ("eqs.trotter_embedded_circuit", "qworkbench.eqs", "trotter_embedded_circuit"),
    ("ionrabi.adiabatic_ground_state", "qworkbench.ionrabi", "adiabatic_ground_state"),
    ("ionrabi.parity_measurement_dispersive", "qworkbench.ionrabi",
     "parity_measurement_dispersive"),
    ("daqs.daqs_heisenberg", "qworkbench.daqs", "daqs_heisenberg"),
    ("daqs.digital_heisenberg", "qworkbench.daqs", "digital_heisenberg"),
    ("daqs.cqed_rabi_digitize", "qworkbench.daqs", "cqed_rabi_digitize"),
    ("daqs.xy_block_physical", "qworkbench.daqs", "xy_block_physical"),
    ("harness.run_scenario", "qworkbench.harness.scenarios", "run_scenario"),
)

# (label, module, attribute): call counts only, for functions called so
# often that a span per call would distort the timings around them.
COUNT_TARGETS = (
    ("openmaster.dyson_term", "qworkbench.openmaster", "dyson_term"),
    ("qcore.pauli_decompose", "qworkbench.qcore", "pauli_decompose"),
    ("qcore.dense_pauli", "qworkbench.qcore", "dense_pauli"),
    ("kernel.expm", "scipy.linalg", "expm"),
)

RK45 = "kernel.rk45"
EIGH = "kernel.eigh"
WRITE = "harness.RunArtifact.write"
SPAN_NAMES = tuple(label for label, _, _ in SPAN_TARGETS) + (WRITE,)
COUNT_NAMES = tuple(label for label, _, _ in COUNT_TARGETS) + (EIGH,)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = ""
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _rk45(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self.open(RK45)
            try:
                sol = fn(*args, **kwargs)
            finally:
                self.close(idx)
            # RK45 spends one evaluation on f(t0), one on the initial step
            # size and six (FSAL) on every attempted step; sol.t holds the
            # accepted steps when no t_eval grid is passed.
            attempts = (sol.nfev - 2) // 6
            accepted = len(sol.t) - 1 if kwargs.get("t_eval") is None else attempts
            counts[RK45 + ".nfev"] += int(sol.nfev)
            counts[RK45 + ".steps_accepted"] += accepted
            counts[RK45 + ".steps_rejected"] += attempts - accepted
            return sol
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------

    def _rebind(self, original, wrapper) -> int:
        """Point every qworkbench module global bound to ``original`` at
        ``wrapper``; return how many bindings changed."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("qworkbench"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    hits += 1
        return hits

    def install(self):
        import numpy.linalg
        import scipy.integrate
        from qworkbench.harness.artifact import RunArtifact

        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._counter)):
            for label, module, attr in targets:
                original = getattr(sys.modules.get(module), attr, None)
                if original is None or not self._rebind(original, make(label, original)):
                    self.missing.append(label)
        if not self._rebind(scipy.integrate.solve_ivp, self._rk45(scipy.integrate.solve_ivp)):
            self.missing.append(RK45)
        # the program calls np.linalg.eigh through the numpy namespace
        eigh = numpy.linalg.eigh
        numpy.linalg.eigh = self._counter(EIGH, eigh)
        self._undo.append((numpy.linalg, "eigh", eigh))
        write = RunArtifact.write
        RunArtifact.write = self._span(WRITE, write)
        self._undo.append((RunArtifact, "write", write))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, busy_s (outermost spans only, so recursion is
        not counted twice) and self_s (duration minus direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["busy_s"] += end - start
        return dict(out)

    def write(self, path, extra: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, item]
                for name, start, end, parent, item in self.spans]
        payload = dict(extra, span_columns=["name", "start_s", "end_s", "parent", "item"],
                       spans=rows, counts=dict(self.counts), missing=self.missing)
        with open(path, "w") as fh:
            json.dump(payload, fh)
