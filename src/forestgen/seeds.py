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

Where a stage only needs a block of uniforms from each stream, as every
stage of a tree does, ``uniform_blocks`` returns the blocks of the whole
batch. When every stream is short it skips the generators: from the same
hash it computes each value's PCG64 state by jump-ahead (value j of a stream
is one multiply-add of its seeded state by constants that depend on j
alone; Brown 1994, O'Neill 2014), for every value of the batch in one
float64 matrix product. The product runs in ``np.einsum``'s own loop, not
in BLAS: OpenBLAS threads a product of 500 streams of 32 values, which then
took 5 to 18 ms against 0.3 ms for einsum. The jump costs about 0.06 us per
value of every stream padded to the longest (2-vCPU host, numpy 2.4): with
472 streams of 3 values it took 0.25 ms against 1.4 ms for ``generators``,
and with 32 values 1.1 ms against 1.7 ms; by 48 values it lost. For 16
streams the two cost about the same, 0.14 to 0.19 ms, from 3 to 48 values.
So the jump is taken for a batch of at least _BATCH_MIN streams whose
longest is at most _JUMP_VALUES values, and any other batch draws from
``generators``.
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

# uniform_blocks takes the jump-ahead path for a batch whose longest stream
# is at most this many values; the jump's cost grows with streams times that
# length, and a generator's with streams alone (see the module docstring)
_JUMP_VALUES = 32

# limb m - j of a Toeplitz product matrix, for 16-bit limbs m, j < 8
_TOEPLITZ = np.subtract.outer(np.arange(8), np.arange(8))


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


def stream_seeds(seeds, stream) -> np.ndarray:
    """``stream_seed`` of each seed, as uint64: ``seeds`` is a uint64 array
    (or a seed), and ``stream`` a substream index or an array of them that
    broadcasts against it. SplitMix64 runs in uint64 arithmetic, which wraps
    modulo 2**64 as ``splitmix64`` masks."""
    # arrays, never numpy scalars, which would warn as they wrap
    steps = (np.array(stream, dtype=np.uint64, ndmin=1) + np.uint64(1)) * np.uint64(_GOLDEN)
    z = np.array(seeds, dtype=np.uint64, ndmin=1) + steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hashmix(value: np.ndarray, i: int) -> np.ndarray:
    value = (value ^ _MIX_CONSTANTS[i]) * _MIX_CONSTANTS[i + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ (value >> 16)


def _seed_words(seeds) -> np.ndarray:
    """(n, 4) little-endian uint64: ``SeedSequence(seed).generate_state(4,
    uint64)`` for each seed in [0, 2**64) (ints or a uint64 array), the
    PCG64 ``initstate`` and ``initseq`` of ``PCG64(seed)``, each high word
    first.

    The hash runs on uint32 arrays over every seed at once. A seed is at
    most two entropy words, and a missing word hashes as a zero word does,
    so each seed is its two words and two zeros.
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
    # generate_state reads uint32 pairs as little-endian uint64
    return words.astype("<u4").view("<u8")


def batch_words(seeds: np.ndarray) -> np.ndarray | None:
    """The ``_seed_words`` of an (n, k) uint64 array of seeds, as (n, k, 4):
    k batches of n seeds, such as the streams of every stage of a stack of
    trees, hashed in one call. None when n is below _BATCH_MIN, since no
    batch that small is seeded together."""
    if len(seeds) < _BATCH_MIN:
        return None
    return _seed_words(seeds.ravel()).reshape(*seeds.shape, 4)


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(seed)`` for each seed of ``words``, its
    ``_seed_words``: the words run through ``pcg_setseq_128_srandom_r``."""
    states = []
    for s_hi, s_lo, q_hi, q_lo in words.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        # srandom: state 0, step, add initstate, step
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def generators(seeds, words=None):
    """Yield, for each integer seed in turn, a generator in the state
    ``np.random.default_rng(seed)`` starts in: the same draws, bit for bit.

    A batch of at least _BATCH_MIN seeds, each in [0, 2**64), is seeded at
    once and yields one reused Generator, its state set anew for each seed.
    So a generator is valid only until the next one is taken: draw from it
    before advancing the iteration, and never hold two. A smaller batch, or
    one holding any other seed, gets ``Generator(PCG64(seed))`` per seed. The batched generators
    carry no ``seed_seq``, so do not ``spawn`` from them. ``words``, if
    given, are the batch's ``_seed_words``, hashed beforehand.
    """
    seeds = list(seeds)
    if len(seeds) < _BATCH_MIN or not all(type(s) is int and 0 <= s <= _MASK for s in seeds):
        for seed in seeds:
            yield np.random.Generator(np.random.PCG64(seed))
        return
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(_seed_words(seeds) if words is None else words):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def _jump_matrix(length: int) -> np.ndarray:
    """(4 * length, 16) float64: for value j < length of a seeded stream,
    four rows that map the 16-bit limbs of (s, inc) to the four 32-bit words
    of ``M**(j + 2) * s + (M**0 + ... + M**(j + 2)) * inc`` mod 2**128,
    before carries; M is the PCG64 multiplier. Each row holds, per limb of
    s and of inc, the limb products that land in the row's word: 16-bit
    factors, so every entry and every sum is an integer below 2**53, and a
    float64 product with them is exact."""
    power, total = _PCG64_MULT * _PCG64_MULT & _MASK128, 1 + _PCG64_MULT
    factors = []
    for _ in range(length):
        total = (total + power) & _MASK128
        factors += (power, total)
        power = power * _PCG64_MULT & _MASK128
    limbs = np.frombuffer(b"".join(f.to_bytes(16, "little") for f in factors), dtype="<u2")
    limbs = limbs.reshape(length, 2, 8).astype(np.float64)
    # products of limbs m - j and j land in 16-bit limb m, m < 8 (mod 2**128)
    toeplitz = np.where(_TOEPLITZ >= 0, limbs[..., _TOEPLITZ % 8], 0.0)
    words = toeplitz[..., 0::2, :] + 65536.0 * toeplitz[..., 1::2, :]
    return words.transpose(0, 2, 1, 3).reshape(4 * length, 16)


def _jump_ahead(words: np.ndarray, counts: list[int], width: int) -> np.ndarray:
    """The rows of each stream's (count, width) block of uniforms, stream
    after stream, from the streams' ``_seed_words``, every value at once.

    Seeding sets PCG64's LCG state to M(s + inc) + inc, from the initstate
    s and inc = 2 initseq + 1; value j steps it j + 1 more times, to
    ``M**(j + 2) s + (M**0 + ... + M**(j + 2)) inc`` mod 2**128 (the PCG
    jump-ahead). That is one float64 matrix product over every stream
    (``_jump_matrix``), then carries between the 32-bit words. The value is
    PCG64's XSL-RR output of the state, and the double its top 53 bits
    times 2**-53, as ``Generator.random`` makes it.
    """
    lengths = np.array(counts, dtype=np.int64) * width
    longest = int(lengths.max())
    s_hi, s_lo, q_hi, q_lo = words.T
    limbs = np.stack([s_lo, s_hi, q_lo << 1 | 1, q_hi << 1 | q_lo >> 63], axis=1)
    limbs = limbs.astype("<u8").view("<u2").T.astype(np.float64)  # (16, streams)
    # not BLAS, which threads it (see the module docstring)
    sums = np.einsum("ij,jk->ik", _jump_matrix(longest), limbs)
    sums = sums.astype(np.uint64).reshape(longest, 4, -1)
    carry = sums[:, 0]
    low = carry & _MASK32
    carry = (carry >> 32) + sums[:, 1]
    low |= carry << 32
    carry = (carry >> 32) + sums[:, 2]
    high = carry & _MASK32
    high |= ((carry >> 32) + sums[:, 3]) << 32
    xored = low ^ high
    rotation = high >> 58
    values = ((xored >> rotation | xored << ((64 - rotation) & 63)) >> 11) * 2.0 ** -53
    values = values.T  # (streams, longest)
    if (lengths < longest).any():
        return values[np.arange(longest) < lengths[:, None]].reshape(-1, width)
    return values.reshape(-1, width)


def uniform_blocks(seeds, counts, width: int, words=None) -> np.ndarray:
    """The rows of ``np.concatenate([np.random.default_rng(s).random((k,
    width)) for s, k in zip(seeds, counts)])``, bit for bit: each seed's
    (k, width) block of uniforms on [0, 1), block after block. A seed with
    no rows seeds nothing. ``seeds`` are ints or a uint64 array, and
    ``words``, if given, their ``_seed_words`` (see ``batch_words``).

    A batch of at least _BATCH_MIN streams, each seed in [0, 2**64) and
    none longer than _JUMP_VALUES values, is computed at once by PCG64
    jump-ahead (``_jump_ahead``); any other batch draws from
    ``generators``.
    """
    drawn = np.flatnonzero(counts)
    if not len(drawn):
        return np.empty((0, width))
    # Python ints, as a list of seeds holds them
    seeds, counts = (np.asarray(c, dtype=object)[drawn].tolist() for c in (seeds, counts))
    words = None if words is None else words[drawn]
    if (len(seeds) >= _BATCH_MIN and max(counts) * width <= _JUMP_VALUES
            and all(type(s) is int and 0 <= s <= _MASK for s in seeds)):
        return _jump_ahead(_seed_words(seeds) if words is None else words, counts, width)
    return np.concatenate([rng.random((k, width))
                           for rng, k in zip(generators(seeds, words), counts)])
