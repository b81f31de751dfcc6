"""Counter-based random streams for replayable parallel Monte Carlo.

Streams are keyed by (master seed, stream id[, substream...]); the same
key always yields the same Philox stream regardless of worker count or
execution order. Trial t of a seeded run draws from stream(seed, *key, t).

streams() gives a chunk's trials one TrialStreams object, which draws
from every trial's stream at once: row i of each draw is what
stream(seed, *key, trials[i]) would hand out, draw for draw. Two
vectorized steps make that cheap.

- The trials' Philox keys come from one run of numpy's SeedSequence hash
  instead of one SeedSequence per trial. The trial index is the last
  32-bit word of SeedSequence's entropy, so the pool of
  SeedSequence(seed, spawn_key=key) is the mixer state before that word.
  Mixing the trial word into the four pool words and running
  generate_state(2, uint64) on them is uint32 multiply, xor and shift
  arithmetic on a (4, T) array.
- Philox is counter-based (Salmon et al., SC'11): block b of a stream is
  Philox4x64-10 of the counter b + 1 under the stream's key, so the
  blocks a draw needs are computed for all T keys as uint64 arithmetic
  on (2, T, B) arrays (_philox).

All trials share one stream position: a tableau batch shares its x/z
part, and with it which measurements draw, so every trial makes the same
calls in the same order. A TrialStreams object therefore has no indexing
or slicing; a trial's draws are a row of what it returns. The constants
are numpy's (numpy/random/bit_generator.pyx, philox.h); stream() stays
the exact oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing (hashmix)
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
MAX_TRIALS = 1 << 32  # trial indices below this are one entropy word

# Philox4x64-10 (Salmon et al., SC'11): the multipliers of lanes c0 and
# c2, their 32-bit halves, and the key offsets r * W of rounds r = 1..9
# (round 0 takes the key itself)
PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
LOW = np.array(MASK32, dtype=np.uint64)
SHIFT = np.array(32, dtype=np.uint64)
M_LOW, M_HIGH = PHILOX_M & LOW, PHILOX_M >> SHIFT
PHILOX_ROUNDS = 10
ROUND_W = np.arange(1, PHILOX_ROUNDS, dtype=np.uint64)[:, None, None, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64
)[:, None, None]
BLOCK_WORDS = 4  # uint64 words per Philox block


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and a stream key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _hash_consts(init: int, mult: int, start: int) -> np.ndarray:
    """The hash constant after start, ..., start + POOL_SIZE multiplications
    by mult, as a (POOL_SIZE + 1, 1) uint32 column."""
    return np.array(
        [init * pow(mult, start + j, 1 << 32) & MASK32 for j in range(POOL_SIZE + 1)], dtype=np.uint32
    )[:, None]


STATE_CONSTS = _hash_consts(INIT_B, MULT_B, 0)


def _words(n: int) -> int:
    """Number of 32-bit entropy words SeedSequence makes of the int n."""
    return max(1, -(-n.bit_length() // 32))


def streams(seed: int, key: tuple[int, ...], trials: Sequence[int]) -> TrialStreams:
    """The streams stream(seed, *key, t) for t in trials, as one TrialStreams.

    Each trial index must lie in [0, MAX_TRIALS), one entropy word; any
    other raises ValueError."""
    t = np.asarray(trials, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= MAX_TRIALS):
        raise ValueError(f"trial indices must lie in [0, 2**32), got {t.min()}..{t.max()}")
    pool = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).pool
    # SeedSequence made POOL_SIZE hashmix calls per entropy word before the
    # trial's (the seed's words, padded to POOL_SIZE, then the key's): the
    # first POOL_SIZE words take one call each to fill the pool and
    # POOL_SIZE * (POOL_SIZE - 1) between them to cross-mix it
    prefix = max(_words(seed), POOL_SIZE) + sum(_words(k) for k in key)
    consts = _hash_consts(INIT_A, MULT_A, POOL_SIZE * prefix)
    h = (t.astype(np.uint32) ^ consts[:-1]) * consts[1:]  # hashmix(trial) once per pool word
    h ^= h >> 16
    w = MIX_MULT_L * pool[:, None] - MIX_MULT_R * h
    w ^= w >> 16  # mix(pool word, hashmix(trial)): the trial's pool, (4, T)
    w ^= STATE_CONSTS[:-1]
    w *= STATE_CONSTS[1:]
    w ^= w >> 16  # generate_state's four uint32 words
    w = w.astype(np.uint64)
    return TrialStreams(np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1))


def _philox(keys: np.ndarray, first: int, last: int) -> np.ndarray:
    """Blocks first, ..., last - 1 of the Philox4x64-10 streams with the
    (T, 2) keys ``keys``, as a (T, 4 * (last - first)) uint64 array of
    each stream's words in order.

    Block b encrypts the counter (b + 1, 0, 0, 0), as numpy's Philox
    counts from 1. The first round's products depend on the counter
    alone, so it runs on Python ints. Each later round multiplies lanes
    c0 and c2, stacked as one (2, T, B) array c, by their multipliers:
    the low words are one uint64 multiply, and the high words are summed
    from the four 32x32 partial products, which two stacked multiplies
    give. The round keeps (lo0, lo1) = (c3, c1) for the next one, and
    its output lanes (c0, c2) cross over: (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1).
    Every step writes into buffers made once per call, because at small
    T a call costs about as much per numpy operation as per element.
    """
    blocks = range(first + 1, last + 1)
    shape = (2, len(keys), len(blocks))
    products = [int(PHILOX_M[0, 0, 0]) * counter for counter in blocks]  # c0 * M0; c2 = 0
    key = keys.T[:, :, None]
    round_keys = list(key + ROUND_W)
    c = np.empty(shape, dtype=np.uint64)
    c[0] = key[0]
    np.bitwise_xor(key[1], np.array([p >> 64 for p in products], dtype=np.uint64), out=c[1])
    lo = np.empty((2,) + shape, dtype=np.uint64)  # two rounds' (lo0, lo1), taking turns
    lo[0, 0] = np.array([p & (1 << 64) - 1 for p in products], dtype=np.uint64)
    lo[0, 1] = 0
    turns = list(lo)  # lo[0], lo[1] as views made once
    half = np.empty((2,) + shape, dtype=np.uint64)  # the lanes' (low, high) halves
    low_product = np.empty((2,) + shape, dtype=np.uint64)
    (a_low, a_high), (p00, p10) = half, low_product
    crossed = a_low[::-1]
    for r in range(1, PHILOX_ROUNDS):
        np.right_shift(c, SHIFT, out=a_high)
        np.bitwise_and(c, LOW, out=a_low)
        np.multiply(c, PHILOX_M, out=turns[r % 2])
        np.multiply(half, M_LOW, out=low_product)  # p00, p10
        np.multiply(half, M_HIGH, out=half)  # p01, p11
        np.right_shift(p00, SHIFT, out=p00)
        np.add(p10, p00, out=p10)  # t = p10 + p00's high half: below 2**64
        np.bitwise_and(p10, LOW, out=p00)
        np.add(p00, a_low, out=p00)  # u = p01 + t's low half: below 2**64
        np.right_shift(low_product, SHIFT, out=low_product)
        np.add(a_high, p00, out=a_high)
        np.add(a_high, p10, out=a_high)  # hi = p11 + (t >> 32) + (u >> 32)
        np.bitwise_xor(a_high, turns[1 - r % 2], out=a_low)  # (hi0 ^ c3, hi1 ^ c1)
        np.bitwise_xor(crossed, round_keys[r - 1], out=c)
    c1, c3 = lo[(PHILOX_ROUNDS - 1) % 2][::-1]
    return np.stack([c[0], c1, c[1], c3], axis=-1).reshape(len(keys), BLOCK_WORDS * len(blocks))


class TrialStreams:
    """T Philox streams that advance together, one per trial of a batch.

    ``keys`` is the (T, 2) uint64 array of the streams' Philox keys. Every
    call draws from all T streams at one shared position and returns one
    row per trial, equal to what numpy's Generator(Philox) with that key
    returns from the same sequence of calls: random(m) to .random(m) and
    bits() to .integers(2). The object has no indexing or slicing.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.position = 0  # uint64 words each stream has handed out
        self._block = None  # (T, 4): the last block computed, holding position - 1
        self._high = None  # (T,): the word whose high half the next bits() reads

    def __len__(self) -> int:
        return len(self.keys)

    def _next_words(self, m: int) -> np.ndarray:
        """The next m uint64 words of every stream, (T, m)."""
        p = self.position
        done, need = -(-p // BLOCK_WORDS), -(-(p + m) // BLOCK_WORDS)
        words = _philox(self.keys, done, need) if need > done else np.empty((len(self), 0), dtype=np.uint64)
        if p % BLOCK_WORDS:
            words = np.concatenate([self._block[:, p % BLOCK_WORDS :], words], axis=1)
        if need > done:
            self._block = words[:, -BLOCK_WORDS:].copy()
        self.position = p + m
        return words[:, :m]

    def random(self, m: int) -> np.ndarray:
        """(T, m) uniform doubles in [0, 1): the top 53 bits of a word each."""
        return (self._next_words(m) >> np.uint64(11)) * 2.0**-53

    def bits(self) -> np.ndarray:
        """(T,) uint8 fair bits: bit 31 of the next uint32, which is the low
        half of a fresh word, or the high half that the previous call left."""
        if self._high is None:
            self._high = self._next_words(1)[:, 0]
            return (self._high >> np.uint64(31) & np.uint64(1)).astype(np.uint8)
        word, self._high = self._high, None
        return (word >> np.uint64(63)).astype(np.uint8)
