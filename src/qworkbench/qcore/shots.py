"""Shot sampling: the one place a seed becomes measurement outcomes.

Determinism contract: stream ``(seed, stream)`` keys a counter-based
Philox generator, so every uniform, and every outcome drawn from it, is a
pure function of (seed, stream, position).  It does not depend on which
other streams were drawn, in what order, or on which thread.
"""
from __future__ import annotations

import numpy as np


def check_stream_key(key, name: str) -> int:
    """``key`` as a Python int, if it can key a stream: an integer (Python or
    numpy, not a bool) with 0 <= key < 2**64.  Anything else raises
    ``ValueError``, so no float or bool is cast onto another seed's stream."""
    if isinstance(key, (bool, np.bool_)) or not isinstance(key, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {key!r}")
    if not 0 <= int(key) < 2 ** 64:
        raise ValueError(f"{name} must satisfy 0 <= {name} < 2**64, got {key}")
    return int(key)


def shot_uniforms(seed: int, stream: int, shape) -> np.ndarray:
    """Uniforms in [0, 1) of stream ``(seed, stream)``, filled in C order.

    Both keys must pass ``check_stream_key``; any other raises ``ValueError``.
    """
    key = np.array([check_stream_key(seed, "seed"), check_stream_key(stream, "stream")],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(shape)


def shot_means(means, u: np.ndarray) -> np.ndarray:
    """Sample means of +-1 outcomes, one per entry of ``means``.

    ``u`` carries the shots on one extra last axis; shot j of mean m is +1
    when ``u[..., j] < (1 + m) / 2``.
    """
    p = 0.5 * (1.0 + np.asarray(means, dtype=float))
    return np.where(u < p[..., None], 1.0, -1.0).mean(axis=-1)
