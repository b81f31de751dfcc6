"""A TrialStreams object over given numpy Philox generators, for tests that
draw from streams no rng.streams key names, such as the unkeyed stream(700)."""

from __future__ import annotations

import numpy as np

from qnetcode.rng import TrialStreams


def trial_streams(generators) -> TrialStreams:
    """The TrialStreams whose trial i draws what generators[i] draws, from
    each generator's Philox key; none of them may have drawn yet."""
    keys = []
    for rng in generators:
        state = rng.bit_generator.state
        assert not state["state"]["counter"].any() and not state["has_uint32"], "generator has drawn"
        keys.append(state["state"]["key"])
    return TrialStreams(np.array(keys, dtype=np.uint64).reshape(-1, 2))
