"""Deterministic seed derivation for independent random streams.

Every randomized stage of the pipeline gets its own substream seed so that
adding or removing one stage (say, leaves) never shifts the draws of another.
The mixing function is SplitMix64: substream k of a master seed is the
SplitMix64 output at state ``master + (k + 1) * GOLDEN``, which is exactly
the k-th step of the SplitMix64 sequence started at ``master``.

Every generator is the one ``np.random.default_rng(seed)`` builds. Where a
stage seeds one generator per tree or per replication, ``generators`` seeds
them all at once: it runs numpy's own seeding algorithms, ``SeedSequence``
hashing and PCG64's ``srandom`` step, over the whole batch, and sets each
state on one reused ``Generator``. numpy keeps both algorithms stable across
versions, since they fix the stream of every seeded ``default_rng``, and
``tests/test_seeds.py`` checks the batched states against ``default_rng`` on
the installed numpy.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# batches of at least this many seeds are seeded together; a batch has a
# fixed cost of about ten PCG64(seed) constructions
_BATCH_MIN = 16

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy's
# PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """``init`` and the ``count`` uint32 products after it: the hash
    constant a SeedSequence hash starts with, and its value after each
    step."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# SeedSequence with a pool of 4 words and at most 4 words of entropy runs 16
# mixing hashes (4 to fill the pool, 12 to mix it) and 8 output hashes for
# generate_state(4, uint64); hash i XORs constant i and multiplies by
# constant i + 1
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


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


def _hashmix(value: np.ndarray, i: int) -> np.ndarray:
    value = (value ^ _MIX_CONSTANTS[i]) * _MIX_CONSTANTS[i + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ (value >> 16)


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(seed)`` for each seed in [0, 2**64).

    ``SeedSequence(seed).generate_state(4, uint64)`` runs on uint32 arrays
    over every seed at once. A seed is at most two entropy words, and a
    missing word hashes as a zero word does, so each seed is its two words
    and two zeros. The four outputs are then the PCG64 ``initstate`` and
    ``initseq``, high word first, for ``pcg_setseq_128_srandom_r``.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [_hashmix(word, i) for i, word in enumerate(entropy)]
    i = len(pool)
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], i))
                i += 1
    words = np.empty((len(seeds), 8), dtype=np.uint32)
    for k in range(8):
        word = (pool[k % 4] ^ _OUT_CONSTANTS[k]) * _OUT_CONSTANTS[k + 1]
        words[:, k] = word ^ (word >> 16)
    states = []
    # generate_state reads uint32 pairs as little-endian uint64
    for s_hi, s_lo, q_hi, q_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        # srandom: state 0, step, add initstate, step
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def generators(seeds):
    """Yield, for each integer seed in turn, a generator in the state
    ``np.random.default_rng(seed)`` starts in: the same draws, bit for bit.

    A batch of at least _BATCH_MIN seeds, each in [0, 2**64), is seeded at
    once and yields one reused Generator, its state set anew for each seed.
    So a generator is valid only until the next one is taken: draw from it
    before advancing the iteration, and never hold two. A smaller batch, or
    one holding any other seed, gets ``Generator(PCG64(seed))`` per seed. The batched generators
    carry no ``seed_seq``, so do not ``spawn`` from them.
    """
    seeds = list(seeds)
    if len(seeds) < _BATCH_MIN or not all(type(s) is int and 0 <= s <= _MASK for s in seeds):
        for seed in seeds:
            yield np.random.Generator(np.random.PCG64(seed))
        return
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(seeds):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
