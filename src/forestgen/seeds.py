"""Deterministic seed derivation for independent random streams.

Every randomized stage of the pipeline gets its own substream seed so that
adding or removing one stage (say, leaves) never shifts the draws of another.
The mixing function is SplitMix64: substream k of a master seed is the
SplitMix64 output at state ``master + (k + 1) * GOLDEN``, which is exactly
the k-th step of the SplitMix64 sequence started at ``master``.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 output for the given 64-bit state."""
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(master_seed: int, stream: int) -> int:
    """Seed for substream ``stream`` (0, 1, 2, ...) of ``master_seed``."""
    if stream < 0:
        raise ValueError("stream index must be non-negative")
    return splitmix64((master_seed + stream * _GOLDEN) & _MASK)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator of substream ``stream`` of ``seed``: the generator
    ``np.random.default_rng(stream_seed(seed, stream))`` builds, built more
    cheaply."""
    return np.random.Generator(np.random.PCG64(stream_seed(seed, stream)))
