"""Machine-speed probe.

On a machine whose cores are shared with other tenants, over a few seconds
the same instructions can take anywhere from their usual time to twice
that, which swamps any change a program edit makes.  The benchmark
therefore interleaves a fixed slice of interpreter and small-matrix work,
which never touches the program, with the workload, and rescales each
timing by how fast that slice ran next to it:
``rescaled = measured * PROBE_REF_S / probe``.  A rescaled time reads as
"seconds on a machine where the probe takes PROBE_REF_S".  Raw wall times
are recorded beside every rescaled one.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# probe time that defines the reference machine speed (a quiet 2-core
# Xeon machine, Python 3.11, numpy 2.4, BLAS pinned to one thread)
PROBE_REF_S = 0.012

_RNG = np.random.default_rng(20161128)
_M = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_E = _RNG.standard_normal(6)
_SWEEP = np.ones(1 << 20)


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _record(i: int) -> dict:
    return {"key": i, "pair": [i, i + 1]}


def speed_probe() -> float:
    """Seconds taken by one fixed slice of work shaped like the workloads:
    interpreter calls and small allocations, small complex matrix products,
    and a sweep over an 8 MiB array."""
    t0 = perf_counter()
    table = {}
    for i in range(4000):
        rec = _record(i)
        table[i % 97] = _Cell(rec["pair"][0])
    acc = np.zeros((6, 6), dtype=complex)
    for i in range(350):
        u = (_M * np.exp(-1e-3j * i * _E)) @ _M.conj().T
        acc += 1e-3 * (u @ acc) + np.eye(6)
        np.trace(acc)
    for _ in range(3):
        _SWEEP.sum()
    return perf_counter() - t0


def probes(n: int) -> list:
    return [speed_probe() for _ in range(n)]


def rescale(seconds: float, samples) -> float:
    return seconds * PROBE_REF_S / statistics.median(samples)
