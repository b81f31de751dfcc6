import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetcode.noise import (
    BellDiagonalState,
    NoiseModel,
    effective_error_rate,
    sample_error,
    werner,
)
from qnetcode.pauli import LABEL_OF, LABEL_XZ, LABELS, PauliOperator
from qnetcode.rng import stream


def test_from_spec_parses_each_variant():
    table = {
        "none": NoiseModel.none(),
        "bit_flip:0.1": NoiseModel.bit_flip(0.1),
        "phase_flip:0.25": NoiseModel.phase_flip(0.25),
        "depolarizing:0.055": NoiseModel.depolarizing(0.055),
        "independent_xz:0.01,0.02": NoiseModel.independent_xz(0.01, 0.02),
    }
    for spec, model in table.items():
        assert NoiseModel.from_spec(spec) == model


def test_from_spec_rejects_malformed():
    for bad in ("unknown:0.1", "bit_flip", "bit_flip:0.1,0.2", "independent_xz:0.1", "depolarizing:2.0"):
        with pytest.raises(ValueError):
            NoiseModel.from_spec(bad)
    for bad in ("none:0.3", "none:", "none:0.1,0.2"):
        with pytest.raises(ValueError, match="none takes no arguments"):
            NoiseModel.from_spec(bad)


def test_variant_and_probability_validation():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.1)
    with pytest.raises(ValueError):
        NoiseModel.bit_flip(-0.1)
    with pytest.raises(ValueError):
        NoiseModel.depolarizing(1.5)


def test_sample_error_extremes():
    rng = stream(0)
    assert sample_error(NoiseModel.none(), 5, rng) == PauliOperator.identity(5)
    p = sample_error(NoiseModel.bit_flip(1.0), 5, rng)
    assert p.x_bits.all() and not p.z_bits.any()
    p = sample_error(NoiseModel.phase_flip(1.0), 5, rng)
    assert p.z_bits.all() and not p.x_bits.any()
    with pytest.raises(ValueError):
        sample_error(NoiseModel.none(), 0, rng)


def test_depolarizing_label_distribution():
    """X, Y, Z each occur with probability p/3 (3-sigma check)."""
    p, n, trials = 0.3, 200, 200
    rng = stream(42)
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(trials):
        err = sample_error(NoiseModel.depolarizing(p), n, rng)
        for x, z in zip(err.x_bits, err.z_bits):
            counts[{(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[(int(x), int(z))]] += 1
    total = counts.sum()
    for label_p, c in zip((1 - p, p / 3, p / 3, p / 3), counts):
        sigma = math.sqrt(label_p * (1 - label_p) * total)
        assert abs(c - label_p * total) < 3 * sigma + 1


def test_effective_error_rate_values():
    assert effective_error_rate(0.05, 0.001) == pytest.approx(0.055, abs=1e-15)
    assert effective_error_rate(0.0, 0.0) == 0.0
    assert effective_error_rate(0.9, 0.1) == 1.0  # clamped
    with pytest.raises(ValueError):
        effective_error_rate(-0.1, 0.0)


@given(st.floats(0, 1), st.floats(0, 1))
def test_effective_error_rate_bounds(p_c, p_g):
    rate = effective_error_rate(p_c, p_g)
    assert 0.0 <= rate <= 1.0
    assert rate >= min(p_c, 1.0)


def test_bell_diagonal_validation():
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([np.nan] * 4))
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([np.inf, 0.0, 0.0, -np.inf]))


def test_werner_state():
    w = werner(0.9)
    assert w.fidelity == pytest.approx(0.9)
    assert np.allclose(w.probs[1:], (1 - 0.9) / 3)
    assert BellDiagonalState.perfect().fidelity == 1.0
    assert len(LABELS) == len(LABEL_XZ) == 4


def test_label_of_inverts_label_xz():
    assert LABEL_OF[2 * LABEL_XZ[:, 0] + LABEL_XZ[:, 1]].tolist() == [0, 1, 2, 3]
    assert [LABELS[LABEL_OF[2 * x + z]] for x, z in ((0, 0), (1, 0), (1, 1), (0, 1))] == list(LABELS)


def test_labels_equal_generator_choice_draw_for_draw():
    """labels(rng.random(m)) gives what m calls of rng.choice(4, p=...)
    give on the same stream, draw for draw."""
    m = 20000
    for state in (werner(0.9), BellDiagonalState(np.array([0.7, 0.1, 0.05, 0.15]))):
        p = state.probs / state.probs.sum()
        rng = stream(7)
        want = [rng.choice(4, p=p) for _ in range(m)]
        assert np.array_equal(state.labels(stream(7).random(m)), want)
        assert np.bincount(want, minlength=4).all()


def test_rng_streams_are_independent_and_stable():
    a = stream(1, 2, 3).integers(0, 2 ** 32, 4)
    b = stream(1, 2, 3).integers(0, 2 ** 32, 4)
    c = stream(1, 2, 4).integers(0, 2 ** 32, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
