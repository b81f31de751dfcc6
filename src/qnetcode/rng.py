"""Counter-based random streams for replayable parallel Monte Carlo.

Streams are keyed by (master seed, stream id[, substream...]); the same
key always yields the same Philox stream regardless of worker count or
execution order. Trial t of a seeded run draws from stream(seed, *key, t).

streams() builds a chunk's per-trial generators in one pass: generator i
is stream(seed, *key, trials[i]) draw for draw, but the trials' Philox
keys come from one vectorized run of numpy's SeedSequence hash instead of
one SeedSequence per trial. The trial index is the last 32-bit word of
SeedSequence's entropy, so the pool of SeedSequence(seed, spawn_key=key)
is the mixer state before that word. Mixing the trial word into the four
pool words and running generate_state(2, uint64) on them is uint32
multiply, xor and shift arithmetic on a (4, T) array. The constants are
numpy's (numpy/random/bit_generator.pyx); stream() stays the exact oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing (hashmix)
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
MAX_TRIALS = 1 << 32  # trial indices below this are one entropy word


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


class _PhiloxKey(ISeedSequence):
    """A seed whose generate_state is a precomputed Philox key: Philox(seed)
    takes its key from seed.generate_state(2, np.uint64)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _words(n: int) -> int:
    """Number of 32-bit entropy words SeedSequence makes of the int n."""
    return max(1, -(-n.bit_length() // 32))


def streams(seed: int, key: tuple[int, ...], trials: Sequence[int]) -> list[np.random.Generator]:
    """[stream(seed, *key, t) for t in trials], built in one pass.

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
    keys = np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)
    return [np.random.Generator(np.random.Philox(_PhiloxKey(k))) for k in keys]
