"""streams() against its oracle: generator i of streams(seed, key, trials)
is stream(seed, *key, trials[i]), key for key and draw for draw."""

import itertools

import numpy as np
import pytest

from qnetcode.rng import MAX_TRIALS, stream, streams

# seeds of one, two, three and five 32-bit entropy words, keys of up to
# three; 2**32 - 1, 2**64 - 1 and 2**160 - 1 fill their last word exactly
SEEDS = [0, 1, 5, 2**32 - 1, 2**32 + 7, 2**70 + 3, 2**160 - 1]
KEYS = [(), (7,), (900, 3), (2**33,), (2**64 - 1, 0)]
TRIALS = [0, 1, 2, 39, 4095, 4096, 2**31, 2**32 - 1]


def _draws(rng, m=9):
    """random(m), then integers(2) several times, then random(m): the order
    in which a swap trial draws."""
    return [rng.random(m), [int(rng.integers(2)) for _ in range(6)], rng.random(m)]


@pytest.mark.parametrize("seed,key", itertools.product(SEEDS, KEYS))
def test_streams_equal_per_trial_streams(seed, key):
    got = streams(seed, key, TRIALS)
    assert len(got) == len(TRIALS)
    for t, rng in zip(TRIALS, got):
        ref = stream(seed, *key, t)
        philox_key = rng.bit_generator.state["state"]["key"]
        assert np.array_equal(philox_key, ref.bit_generator.state["state"]["key"]), t
        for a, b in zip(_draws(rng), _draws(ref)):
            assert np.array_equal(a, b), t


def test_streams_of_a_range_are_independent_generators():
    rngs = streams(3, (1,), range(5, 45))
    assert len({id(r.bit_generator) for r in rngs}) == 40
    for t, rng in zip(range(5, 45), rngs):
        assert np.array_equal(rng.random(4), stream(3, 1, t).random(4))


def test_no_trials_give_no_streams():
    assert streams(1, (), []) == []
    assert streams(1, (2,), range(0)) == []


@pytest.mark.parametrize("trials", [[MAX_TRIALS], [0, 2**40], [-1]])
def test_trial_index_beyond_one_entropy_word_is_an_error(trials):
    assert MAX_TRIALS == 2**32
    with pytest.raises(ValueError, match="trial indices"):
        streams(1, (), trials)
