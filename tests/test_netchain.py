import math

import numpy as np
import pytest

from qnetcode import codes
from qnetcode.decoders import LookupDecoder
from qnetcode.netchain import (
    ChainConfig,
    compare_latency,
    compose_swap,
    default_purify_schedule,
    run_chain,
    sample_chain_trial,
)
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.noise import LABEL_INDEX, BellDiagonalState, NoiseModel, effective_error_rate, werner
from qnetcode.protocols import purify_pair_dist
from qnetcode.rng import stream


def bernoulli_x(p):
    return BellDiagonalState(np.array([1 - p, p, 0.0, 0.0]))


def test_compose_swap_bernoulli_exact():
    for p, q in [(0.1, 0.25), (0.0, 0.3), (0.5, 0.5)]:
        out = compose_swap(bernoulli_x(p), bernoulli_x(q))
        assert out.probs[1] == pytest.approx(p + q - 2 * p * q, abs=1e-15)
        assert out.probs[2] == out.probs[3] == 0.0


def test_compose_swap_associative_commutative():
    a, b, c = werner(0.9), werner(0.8), BellDiagonalState(np.array([0.7, 0.1, 0.15, 0.05]))
    ab_c = compose_swap(compose_swap(a, b), c)
    a_bc = compose_swap(a, compose_swap(b, c))
    assert np.allclose(ab_c.probs, a_bc.probs, atol=1e-14)
    assert np.allclose(compose_swap(a, b).probs, compose_swap(b, a).probs, atol=1e-14)


def test_compose_swap_fidelity_nonincreasing_for_werner():
    for f1 in (0.3, 0.6, 0.9, 1.0):
        for f2 in (0.3, 0.6, 0.9, 1.0):
            out = compose_swap(werner(f1), werner(f2))
            assert out.fidelity <= min(f1, f2) + 1e-12


def test_default_purify_schedule():
    assert default_purify_schedule(0) == ()
    assert default_purify_schedule(3) == ("bitflip", "phaseflip", "bitflip")


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(num_links=0, link_state=werner(0.9))
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), mode="warp")
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), hop_delay_D=-1.0)
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), mode="encoded_teleport")
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), purify_rounds=-1)
    code = codes.rep3()
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), mode="encoded_teleport",
                    code=code, decoder=LookupDecoder(code), mc_trials=0)


def test_chain_config_takes_at_most_one_stream_key_word_of_trials():
    """Hop trials are indexed by one 32-bit word of their stream key."""
    code = codes.rep3()
    encoded = dict(num_links=2, link_state=werner(0.9), mode="encoded_teleport", code=code,
                   decoder=LookupDecoder(code))
    assert ChainConfig(**encoded, mc_trials=2**32).mc_trials == 2**32
    with pytest.raises(ValueError, match=r"mc_trials must lie in \[1, 2\*\*32\], got 4294967297"):
        ChainConfig(**encoded, mc_trials=2**32 + 1)


def test_single_perfect_link_physical():
    cfg = ChainConfig(num_links=1, link_state=BellDiagonalState.perfect())
    rep = run_chain(cfg)
    assert rep.end_state.fidelity == 1.0
    assert rep.latency == 0.0
    assert rep.survival == 1.0
    assert rep.pairs_per_attempt == 1.0


def test_two_links_no_purification_is_exact_swap():
    link = werner(0.95)
    cfg = ChainConfig(num_links=2, link_state=link)
    rep = run_chain(cfg)
    want = compose_swap(link, link)
    assert np.allclose(rep.end_state.probs, want.probs, atol=1e-14)
    assert rep.latency == cfg.hop_delay_D  # one swap-correction hop


def test_purification_stage_accounting():
    link = werner(0.9)
    cfg = ChainConfig(num_links=3, link_state=link, purify_rounds=2, hop_delay_D=10.0)
    rep = run_chain(cfg)
    sp1, s1 = purify_pair_dist(link, link, "bitflip")
    sp2, s2 = purify_pair_dist(s1, s1, "phaseflip")
    # the two-round tree needs two round-1 comparisons and one round-2
    assert rep.survival == pytest.approx((sp1 ** 2 * sp2) ** 3, abs=1e-12)
    assert rep.pairs_per_attempt == pytest.approx(sp1 ** 2 * sp2 / 4, abs=1e-12)
    # 2 two-way purification rounds + 2 swap-correction hops
    assert rep.latency == 2 * 2 * 10.0 + 2 * 10.0
    want = compose_swap(compose_swap(s2, s2), s2)
    assert np.allclose(rep.end_state.probs, want.probs, atol=1e-14)
    assert any(stage["stage"] == "purify" for stage in rep.per_stage_log)


def test_compare_latency():
    cfg = ChainConfig(num_links=1, link_state=werner(0.9), hop_delay_D=10.0)
    assert compare_latency(cfg) == (10.0, 10.0)
    cfg = ChainConfig(num_links=8, link_state=werner(0.9), purify_rounds=3, hop_delay_D=10.0)
    two_way, one_way = compare_latency(cfg)
    assert (two_way, one_way) == (8 * 10.0 + 2 * 10.0 * 3, 8 * 10.0)
    assert two_way > one_way


def test_encoded_teleport_mode_runs():
    code = codes.rep3()
    cfg = ChainConfig(
        num_links=2,
        link_state=werner(0.98),
        purify_rounds=1,
        mode="encoded_teleport",
        code=code,
        decoder=LookupDecoder(code),
        mc_trials=60,
        seed=3,
    )
    rep = run_chain(cfg)
    assert 0.0 <= rep.end_state.fidelity <= 1.0
    assert rep.latency == 2 * cfg.hop_delay_D
    assert sum(1 for s in rep.per_stage_log if s["stage"] == "hop") == 2


def test_encoded_direct_mode_runs():
    code = codes.rep3()
    cfg = ChainConfig(
        num_links=2,
        link_state=werner(0.98),
        mode="encoded_direct",
        code=code,
        decoder=LookupDecoder(code),
        p_c=0.01,
        p_g=0.001,
        mc_trials=60,
        seed=4,
    )
    rep = run_chain(cfg)
    assert 0.0 <= rep.end_state.fidelity <= 1.0
    assert rep.survival == 1.0  # no post-selection in the direct mode
    assert rep.latency == 2 * cfg.hop_delay_D


def test_encoded_direct_hop_is_a_knill_round_at_p_eff():
    """p_c + 5 p_g already counts the Bell-measurement fault, so a direct
    hop is exactly a Knill round under depolarizing(p_eff) with exact readout."""
    code = codes.shor9()
    decoder = LookupDecoder(code)
    p_c, p_g, trials, seed = 0.01, 0.01, 2000, 4
    cfg = ChainConfig(
        num_links=2, link_state=werner(0.98), mode="encoded_direct", code=code, decoder=decoder,
        p_c=p_c, p_g=p_g, mc_trials=trials, seed=seed,
    )
    noise = KnillNoise(data_noise=NoiseModel.depolarizing(effective_error_rate(p_c, p_g)))
    hops = []
    for hop in range(2):
        x_bad, z_bad, _ = knill_residuals(code, decoder, noise, seed, (900 + hop,), trials)
        labels = [LABEL_INDEX[xz] for xz in zip(x_bad.astype(int).tolist(), z_bad.astype(int).tolist())]
        hops.append(BellDiagonalState(np.bincount(labels, minlength=4) / trials))
    rep = run_chain(cfg)
    assert [s["logical_fidelity"] for s in rep.per_stage_log] == [h.fidelity for h in hops]
    assert np.array_equal(rep.end_state.probs, compose_swap(*hops).probs)


def test_encoded_mode_is_deterministic_given_seed():
    code = codes.rep3()

    def run():
        cfg = ChainConfig(
            num_links=2, link_state=werner(0.95), purify_rounds=1,
            mode="encoded_teleport", code=code, decoder=LookupDecoder(code),
            mc_trials=40, seed=9,
        )
        return run_chain(cfg).end_state.probs

    assert np.array_equal(run(), run())


def test_sample_chain_matches_distribution_small():
    """m=2, one purification round: tableau sampling agrees with the
    exact label distribution within 3.5 sigma."""
    link = werner(0.85)
    cfg = ChainConfig(num_links=2, link_state=link, purify_rounds=1, seed=0)
    exact = run_chain(cfg)
    rng = stream(50)
    trials = 4000
    survived = 0
    labels = np.zeros(4, dtype=np.int64)
    for _ in range(trials):
        ok, label = sample_chain_trial(cfg, rng)
        if ok:
            survived += 1
            labels[label] += 1
    sp = exact.survival
    sigma = math.sqrt(sp * (1 - sp) / trials)
    assert abs(survived / trials - sp) < 3.5 * sigma
    for i in range(4):
        target = exact.end_state.probs[i]
        sigma = math.sqrt(max(target * (1 - target), 1e-12) / survived)
        assert abs(labels[i] / survived - target) < 4 * sigma + 1e-9


def test_sample_chain_rejects_encoded_modes():
    code = codes.rep3()
    cfg = ChainConfig(
        num_links=2, link_state=werner(0.9), mode="encoded_direct",
        code=code, decoder=LookupDecoder(code),
    )
    with pytest.raises(ValueError):
        sample_chain_trial(cfg, stream(0))
