"""streams() against its oracle: row i of every draw of streams(seed, key,
trials) is what stream(seed, *key, trials[i]) draws, key for key and draw
for draw."""

import itertools

import numpy as np
import pytest

from qnetcode.rng import MAX_TRIALS, TrialStreams, stream, streams

# seeds of one, two, three and five 32-bit entropy words, keys of up to
# three; 2**32 - 1, 2**64 - 1 and 2**160 - 1 fill their last word exactly
SEEDS = [0, 1, 5, 2**32 - 1, 2**32 + 7, 2**70 + 3, 2**160 - 1]
KEYS = [(), (7,), (900, 3), (2**33,), (2**64 - 1, 0)]
TRIALS = [0, 1, 2, 39, 4095, 4096, 2**31, 2**32 - 1]

# call sequences, as ("random", m) or ("bits",). A Philox block holds four
# words: random(m) with m not a multiple of 4 leaves a block part-used for
# the next call, and an odd run of bits() leaves the high half of a word
# that the bits() after the next random() must still read.
SEQUENCES = {
    "swap": [("random", 9)] + [("bits",)] * 6 + [("random", 9)],
    "across_blocks": [("random", 5), ("random", 7), ("random", 1), ("random", 3), ("random", 0), ("random", 10)],
    "cached_half": [("bits",)] * 3 + [("random", 6)] + [("bits",)] * 5 + [("random", 1), ("bits",), ("random", 2)],
}


def _draws(rngs: TrialStreams, calls) -> list:
    return [rngs.random(call[1]) if call[0] == "random" else rngs.bits() for call in calls]


def _generator_draws(rng: np.random.Generator, calls) -> list:
    """One generator's draws of the same calls: bits() is integers(2)."""
    return [rng.random(call[1]) if call[0] == "random" else np.uint8(rng.integers(2)) for call in calls]


def _assert_rows_equal(rngs: TrialStreams, generators, calls):
    got = _draws(rngs, calls)
    for call, draw in zip(calls, got):
        want_shape = (len(rngs), call[1]) if call[0] == "random" else (len(rngs),)
        assert draw.shape == want_shape and draw.dtype == (np.float64 if call[0] == "random" else np.uint8)
    for i, rng in enumerate(generators):
        for a, b in zip(got, _generator_draws(rng, calls)):
            assert np.array_equal(a[i], b), (i, calls)


@pytest.mark.parametrize("seed,key", itertools.product(SEEDS, KEYS))
def test_streams_equal_per_trial_streams(seed, key):
    rngs = streams(seed, key, TRIALS)
    assert len(rngs) == len(TRIALS)
    for t, philox_key in zip(TRIALS, rngs.keys):
        assert np.array_equal(philox_key, stream(seed, *key, t).bit_generator.state["state"]["key"]), t
    for calls in SEQUENCES.values():
        _assert_rows_equal(streams(seed, key, TRIALS), [stream(seed, *key, t) for t in TRIALS], calls)


@pytest.mark.parametrize("calls", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_one_trial_draws_as_its_generator(calls):
    _assert_rows_equal(streams(11, (4,), [6]), [stream(11, 4, 6)], calls)


def test_position_counts_the_words_each_stream_handed_out():
    rngs = streams(2, (), range(3))
    rngs.random(5)
    assert rngs.position == 5
    rngs.bits()  # takes word 6 and keeps its high half
    rngs.bits()
    rngs.bits()  # takes word 7
    assert rngs.position == 7


def test_streams_of_a_range_are_independent_generators():
    """Every trial of a range gets its own stream: no two rows of a draw
    agree, and each row is its trial's stream."""
    rngs = streams(3, (1,), range(5, 45))
    u = rngs.random(4)
    assert len(np.unique(u[:, 0])) == 40
    for t, row in zip(range(5, 45), u):
        assert np.array_equal(row, stream(3, 1, t).random(4))


def test_no_trials_give_no_streams():
    for rngs in (streams(1, (), []), streams(1, (2,), range(0))):
        assert len(rngs) == 0 and rngs.keys.shape == (0, 2)
        assert rngs.random(5).shape == (0, 5)
        assert rngs.bits().shape == (0,)
        assert rngs.random(3).shape == (0, 3)


@pytest.mark.parametrize("trials", [[MAX_TRIALS], [0, 2**40], [-1]])
def test_trial_index_beyond_one_entropy_word_is_an_error(trials):
    assert MAX_TRIALS == 2**32
    with pytest.raises(ValueError, match="trial indices"):
        streams(1, (), trials)
