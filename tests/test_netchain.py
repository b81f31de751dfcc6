import math

import numpy as np
import pytest

from qnetcode import codes
from qnetcode.decoders import LookupDecoder
from qnetcode.netchain import (
    MAX_LINKS,
    MAX_PURIFY_ROUNDS,
    ChainConfig,
    compare_latency,
    compose_swap,
    default_purify_schedule,
    run_chain,
    sample_chain_trial,
)
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.noise import BellDiagonalState, NoiseModel, effective_error_rate, werner
from qnetcode.pauli import LABEL_OF
from qnetcode.protocols import purify_pair_dist
from qnetcode.rng import stream, streams

from trial_streams import trial_streams


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


# --- the 16-term loops, as exact references of the table arithmetic ----------

XZ = ((0, 0), (1, 0), (1, 1), (0, 1))  # (x, z) bits of I, X, Y, Z
XZ_INDEX = {xz: i for i, xz in enumerate(XZ)}


def swap_loop(a, b):
    out = np.zeros(4, dtype=np.float64)
    for i, (xi, zi) in enumerate(XZ):
        for j, (xj, zj) in enumerate(XZ):
            out[XZ_INDEX[(xi ^ xj, zi ^ zj)]] += a.probs[i] * b.probs[j]
    return out


def purify_loop(a, b, basis):
    out = np.zeros(4, dtype=np.float64)
    success = 0.0
    for ia, (xa, za) in enumerate(XZ):
        pa = a.probs[ia]
        for ib, (xb, zb) in enumerate(XZ):
            p = pa * b.probs[ib]
            if basis == "bitflip":
                keep = (xa ^ xb) == 0
                kept = (xa, za ^ zb)
            else:
                keep = (za ^ zb) == 0
                kept = (xa ^ xb, za)
            if keep:
                success += p
                out[XZ_INDEX[kept]] += p
    if success <= 0.0:
        return 0.0, np.array([1.0, 0.0, 0.0, 0.0])
    return float(success), out / success


def _label_states():
    """Werner states, the four pure labels, and seeded Dirichlet draws,
    every second one with one to three entries set to zero."""
    states = [werner(f) for f in (0.25, 0.5, 0.9, 0.99, 1.0)]
    states += [BellDiagonalState(row) for row in np.eye(4)]
    rng = np.random.default_rng(19)
    for i in range(40):
        p = rng.dirichlet(np.ones(4))
        if i % 2:
            p[rng.permutation(4)[: 1 + i % 3]] = 0.0
            p /= p.sum()
        states.append(BellDiagonalState(p))
    return states


def test_table_arithmetic_equals_the_loops_bit_for_bit():
    states = _label_states()
    for a in states:
        for b in states:
            assert np.array_equal(compose_swap(a, b).probs, swap_loop(a, b))
            for basis in ("bitflip", "phaseflip"):
                sp, out = purify_pair_dist(a, b, basis)
                sp_loop, out_loop = purify_loop(a, b, basis)
                assert sp == sp_loop
                assert np.array_equal(out.probs, out_loop)
    # pure X against pure I: no bitflip comparison agrees, and both give I
    x, i = states[6], states[5]
    assert purify_pair_dist(x, i, "bitflip")[0] == 0.0


def test_default_purify_schedule():
    assert default_purify_schedule(0) == ()
    assert default_purify_schedule(3) == ("bitflip", "phaseflip", "bitflip")


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(num_links=0, link_state=werner(0.9))
    with pytest.raises(ValueError, match=r"num_links must lie in \[1, 1024\], got 1025"):
        ChainConfig(num_links=MAX_LINKS + 1, link_state=werner(0.9))
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), mode="warp")
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), hop_delay_D=-1.0)
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), mode="encoded_teleport")
    with pytest.raises(ValueError):
        ChainConfig(num_links=2, link_state=werner(0.9), purify_rounds=-1)
    # the bound is the last round count whose 2**R raw pairs per link convert to a float
    deepest = run_chain(ChainConfig(num_links=2, link_state=werner(0.9), purify_rounds=MAX_PURIFY_ROUNDS))
    assert MAX_PURIFY_ROUNDS == 1023 and 0.0 <= deepest.pairs_per_attempt < 2.0**-1022
    with pytest.raises(ValueError, match=r"purify_rounds must lie in \[0, 1023\], got 1024"):
        ChainConfig(num_links=2, link_state=werner(0.9), purify_rounds=1024)
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


def test_latency_of_a_huge_delay_is_finite_or_refused():
    """Zero rounds cost no time at any delay, and a delay whose two-way
    latency would be inf is refused when the config is made."""
    cfg = ChainConfig(num_links=1, link_state=werner(0.9), hop_delay_D=1e308)
    assert run_chain(cfg).latency == 0.0
    assert compare_latency(cfg) == (1e308, 1e308)
    with pytest.raises(ValueError, match="two-way latency past the float range"):
        ChainConfig(num_links=2, link_state=werner(0.9), hop_delay_D=1e308)
    with pytest.raises(ValueError, match="two-way latency past the float range"):
        ChainConfig(num_links=1, link_state=werner(0.9), purify_rounds=1, hop_delay_D=1e308)


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
        labels = [LABEL_OF[2 * x + z] for x, z in zip(x_bad.astype(int).tolist(), z_bad.astype(int).tolist())]
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
    trials = 4000
    success, end_labels = sample_chain_trial(cfg, streams(50, (), range(trials)))
    survived = int(success.sum())
    labels = np.bincount(end_labels[success], minlength=4)
    assert (end_labels[~success] == -1).all()
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
        sample_chain_trial(cfg, trial_streams([stream(0)]))
