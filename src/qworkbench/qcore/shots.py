"""Shot sampling: the one place a seed becomes measurement outcomes.

Determinism contract: stream ``(seed, stream)`` keys a counter-based
Philox generator, so every uniform, and every outcome drawn from it, is a
pure function of (seed, stream, position).  It does not depend on which
other streams were drawn, in what order, or on which thread.
"""
from __future__ import annotations

import numpy as np


def shot_uniforms(seed: int, stream: int, shape) -> np.ndarray:
    """Uniforms in [0, 1) of stream ``(seed, stream)``, filled in C order.

    Both keys must fit in an unsigned 64-bit integer; a negative one raises.
    """
    key = np.asarray((seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def shot_means(means, u: np.ndarray) -> np.ndarray:
    """Sample means of +-1 outcomes, one per entry of ``means``.

    ``u`` carries the shots on one extra last axis; shot j of mean m is +1
    when ``u[..., j] < (1 + m) / 2``.
    """
    p = 0.5 * (1.0 + np.asarray(means, dtype=float))
    return np.where(u < p[..., None], 1.0, -1.0).mean(axis=-1)
