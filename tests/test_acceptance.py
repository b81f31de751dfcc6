"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured numbers when it
succeeds; `pytest -v` adds the per-criterion PASSED/FAILED verdict.
Statistical criteria use 3-sigma tolerances at the trial counts stated
in the test bodies; everything else is exact.
"""

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qnetcode import cli, codes, ratecalc
from qnetcode.decoders import BpDecoder, LookupDecoder, MatchingDecoder, logical_failure
from qnetcode.ftec import KnillNoise, _run_round, extract, knill_ec_round, knill_residuals
from qnetcode.netchain import ChainConfig, compose_swap, run_chain, sample_chain_trial
from qnetcode.noise import BellDiagonalState, NoiseModel, effective_error_rate, sample_error, werner
from qnetcode.pauli import PauliOperator
from qnetcode.protocols import purify_pair_dist, purify_pair_sampled, superdense, swap_chain, teleport
from qnetcode.rng import stream, streams
from qnetcode.stabsim import StabilizerState

from trial_streams import trial_streams


def test_criterion_01_rate_reproduction_exact():
    surface = ratecalc.RateConfig(68200, 289, 1)
    sparse = ratecalc.RateConfig(68200, 3786, 946)
    rep_s = ratecalc.epr_rate(surface)
    rep_g = ratecalc.epr_rate(sparse)
    assert rep_s.blocks == 78
    assert rep_s.epr_units_per_T == Fraction(39, 2)
    assert rep_g.blocks == 6
    assert rep_g.epr_units_per_T == Fraction(1419)
    ratio = ratecalc.compare(surface, sparse)
    assert 72 <= ratio <= 73
    assert ratecalc.fold_description(ratio) == "≈72-fold"
    print(f"PASS criterion 1: blocks 78/6, rates 19.5/1419 per T, ratio {float(ratio):.4f} ≈72-fold")


def test_criterion_02_effective_error_rate_exact():
    assert effective_error_rate(0.05, 0.001) == pytest.approx(0.055, abs=1e-15)
    print("PASS criterion 2: effective_error_rate(0.05, 0.001) = 0.055")


def test_criterion_03_protocol_identities_10k_each():
    trials = 10_000
    _, frame, verified = teleport([("H", 0)], NoiseModel.none(), streams(300, (), range(trials)))
    assert verified.all() and not frame.any()
    bits = np.array([(t % 2, (t // 2) % 2) for t in range(trials)], dtype=np.uint8)
    outcomes, _ = superdense(bits, NoiseModel.none(), streams(301, (), range(trials)))
    assert np.array_equal(outcomes[:, 0], bits)
    _, frame = swap_chain(3, NoiseModel.none(), streams(302, (), range(trials)))
    assert not frame.any()
    print(f"PASS criterion 3: teleport/superdense/3-link swap verified in {trials} noiseless trials each")


def test_criterion_04_shor_and_rep3_exhaustive_correction():
    shor = codes.shor9()
    dec = LookupDecoder(shor)
    checked = 0
    for q in range(9):
        for letter in "XYZ":
            err = PauliOperator.single(9, q, letter)
            res = dec.decode(codes.syndrome(shor, err))
            assert not logical_failure(shor, err, res.correction), (q, letter)
            checked += 1
    rep = codes.rep3()
    dec3 = LookupDecoder(rep)
    for q in range(3):
        err = PauliOperator.single(3, q, "X")
        res = dec3.decode(codes.syndrome(rep, err))
        assert not logical_failure(rep, err, res.correction)
    print(f"PASS criterion 4: shor9 corrects all {checked} single-qubit Paulis; rep3 all 3 bit flips")


def test_criterion_05_purification_oracle_equivalence():
    w = werner(0.9)
    sp, out = purify_pair_dist(w, w, "bitflip")
    # independent closed-form enumeration for Werner inputs
    r = (1 - 0.9) / 3
    sp_ref = (0.9 + r) ** 2 + (2 * r) ** 2
    f_ref = (0.9 ** 2 + r ** 2) / sp_ref
    assert sp == pytest.approx(sp_ref, abs=1e-12)
    assert out.fidelity == pytest.approx(f_ref, abs=1e-12)
    assert sp == pytest.approx(197.0 / 225.0, abs=1e-12)

    trials = 100_000
    _, success, kept = purify_pair_sampled(w, w, "bitflip", streams(500, (), range(trials)))
    succ = int(success.sum())
    kept_i = int((kept == 0).sum())
    sigma = math.sqrt(sp * (1 - sp) / trials)
    assert abs(succ / trials - sp) < 3 * sigma
    sigma_f = math.sqrt(out.fidelity * (1 - out.fidelity) / succ)
    assert abs(kept_i / succ - out.fidelity) < 3 * sigma_f

    for F in np.arange(0.55, 0.951, 0.05):
        _, better = purify_pair_dist(werner(F), werner(F), "bitflip")
        assert better.fidelity > F
    print(
        f"PASS criterion 5: dist matches enumeration to 1e-12 "
        f"(S={sp:.6f}, F'={out.fidelity:.6f}); sampled within 3σ at {trials} trials; F'>F on [0.55, 0.95]"
    )


def _exhaustive_errors(n, max_weight=2):
    for w in range(1, max_weight + 1):
        for qubits in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                x = np.zeros(n, dtype=np.uint8)
                z = np.zeros(n, dtype=np.uint8)
                for q, letter in zip(qubits, letters):
                    x[q] = letter in "XY"
                    z[q] = letter in "YZ"
                yield PauliOperator(n, x, z)


def test_criterion_06_knill_extract_oracle_equivalence():
    cases = [(codes.rep3(), 5000), (codes.shor9(), 3000), (codes.rotated_surface(3), 2000)]
    checked = 0
    for code, _ in cases:
        errs = list(_exhaustive_errors(code.n))
        data_x = np.array([err.x_bits for err in errs])
        data_z = np.array([err.z_bits for err in errs])
        none2n = np.zeros(2 * code.n, dtype=np.uint8)
        outcomes, _ = _run_round(code, data_x, data_z, none2n, none2n, streams(600, (code.n,), range(len(errs))))
        s_x, s_z, _, _ = extract(outcomes, code)
        for err, got_sx, got_sz in zip(errs, s_x, s_z):
            want_sx, want_sz = codes.syndrome(code, err)
            assert np.array_equal(got_sx, want_sx) and np.array_equal(got_sz, want_sz), (code.name, err)
            checked += 1
    total = 0
    for code, trials in cases:
        dec = MatchingDecoder(code) if code.name.startswith("surface") else LookupDecoder(code)
        identity = PauliOperator.identity(code.n)
        rep = knill_ec_round(code, dec, identity, KnillNoise(), streams(601, (code.n,), range(trials)))
        assert not rep.s_x_checks.any() and not rep.s_z_checks.any()
        assert not rep.logical_failure.any()
        total += trials
    print(
        f"PASS criterion 6: extract == syndrome for {checked} exhaustive 1- and 2-qubit errors; "
        f"{total} zero-noise rounds clean"
    )


def test_criterion_07_single_shot_u_flip_membership():
    code = codes.shor9()
    n = code.n
    # delta table of every single-qubit data error: (s_x, s_z, lxx, lzz)
    errs = list(_exhaustive_errors(n, max_weight=1))
    shifts = extract(np.array([[err.z_bits, err.x_bits] for err in errs]), code)
    table = {tuple(a.tobytes() for a in row) for row in zip(*shifts)}
    base = np.zeros((1, 2, n), dtype=np.uint8)  # one trial's [u; v]
    base_out = [a[0] for a in extract(base, code)]
    flipped_u = np.zeros((n, 2, n), dtype=np.uint8)
    flipped_u[:, 0] = np.eye(n, dtype=np.uint8)  # trial j flips u_j
    for j, flipped in enumerate(zip(*extract(flipped_u, code))):
        delta = tuple((a ^ b).tobytes() for a, b in zip(flipped, base_out))
        assert delta in table, f"u-flip at {j} matches no single-qubit data error"

    # no second measurement round: exactly one transversal readout of the
    # 2n Bell qubits on top of the preparation measurements
    counter = {"n": 0}
    original = StabilizerState.measure_pauli

    def counting(self, p, rng, at=0):
        counter["n"] += 1
        return original(self, p, rng, at)

    StabilizerState.measure_pauli = counting
    try:
        rngs = trial_streams([stream(700)])
        knill_ec_round(code, LookupDecoder(code), PauliOperator.identity(n), KnillNoise(), rngs)
    finally:
        StabilizerState.measure_pauli = original
    assert counter["n"] == 3 * code.r_x + code.k + 2 * n
    print(
        "PASS criterion 7: every u-bit flip on shor9 is table-equivalent to a single-qubit data "
        f"error; one round = {counter['n']} measurements (single readout, no repetition)"
    )


def test_criterion_08_surface_code_ordering_under_mwpm():
    p = 0.08
    trials = 100_000
    # the CLI's decode path: shot t of distance d is drawn from stream(800, d, t)
    noise = KnillNoise(data_noise=NoiseModel.independent_xz(p, p))
    rates = {}
    for d in (3, 5):
        code = codes.rotated_surface(d)
        x_bad, z_bad, _ = knill_residuals(code, MatchingDecoder(code), noise, 800, (d,), trials)
        rates[d] = np.count_nonzero(x_bad | z_bad) / trials
    sigma = math.sqrt(
        rates[3] * (1 - rates[3]) / trials + rates[5] * (1 - rates[5]) / trials
    )
    assert rates[5] < rates[3]
    assert rates[3] - rates[5] > 3 * sigma
    print(
        f"PASS criterion 8: MWPM at p={p}: rate(d=3)={rates[3]:.4f} > rate(d=5)={rates[5]:.4f}, "
        f"separation {(rates[3] - rates[5]) / sigma:.1f}σ at {trials} trials"
    )


def test_criterion_09_bp_decoder_sanity():
    h = cli.random_regular_check_matrix(9, 12, 4, seed=2)
    code = codes.hypergraph_product(h, h, name="hgp:2:9:12:4")
    assert 100 <= code.n <= 500
    dec = BpDecoder(code, 0.01)
    hits = 0
    total = 0
    for err in _exhaustive_errors(code.n, max_weight=1):
        res = dec.decode(codes.syndrome(code, err))
        total += 1
        if res.converged and res.correction == err:
            hits += 1
    assert hits / total >= 0.99

    p = 0.01
    trials = 10_000
    noise = NoiseModel.independent_xz(p, p)
    errors = [sample_error(noise, code.n, stream(900, t)) for t in range(trials)]
    x = np.array([err.x_bits for err in errors])
    z = np.array([err.z_bits for err in errors])
    s_x, s_z, _, _ = codes.parities(code, x, z)
    corr_x, corr_z, _, converged, _ = dec.decode_batch(s_x, s_z)
    _, _, l_x, l_z = codes.parities(code, x ^ corr_x, z ^ corr_z)  # the residual's logical class
    failures = int(np.count_nonzero(~converged | l_x.any(axis=1) | l_z.any(axis=1)))
    raw_block = 1 - (1 - p) ** (2 * code.n)  # X and Z channels per qubit
    assert failures / trials < raw_block
    print(
        f"PASS criterion 9: [[{code.n},{code.k}]] BP single-error recovery {hits}/{total}; "
        f"block failure {failures / trials:.4f} < raw {raw_block:.4f} at {trials} trials"
    )


def test_criterion_10_chain_oracle_equivalence():
    out = compose_swap(
        BellDiagonalState(np.array([1 - 0.1, 0.1, 0.0, 0.0])),
        BellDiagonalState(np.array([1 - 0.25, 0.25, 0.0, 0.0])),
    )
    assert out.probs[1] == pytest.approx(0.1 + 0.25 - 2 * 0.1 * 0.25, abs=1e-15)

    cfg = ChainConfig(
        num_links=4, link_state=werner(0.9), purify_rounds=2, seed=0
    )
    exact = run_chain(cfg)
    trials = 50_000
    success, labels = sample_chain_trial(cfg, streams(1000, (), range(trials)))
    survived = int(success.sum())
    fid_hits = int((labels == 0).sum())
    sp = exact.survival
    sigma_s = math.sqrt(sp * (1 - sp) / trials)
    assert abs(survived / trials - sp) < 3 * sigma_s
    f = exact.end_state.fidelity
    sigma_f = math.sqrt(f * (1 - f) / survived)
    assert abs(fid_hits / survived - f) < 3 * sigma_f
    print(
        f"PASS criterion 10: m=4 chain survival {survived / trials:.4f} (exact {sp:.4f}) and "
        f"fidelity {fid_hits / survived:.4f} (exact {f:.4f}) within 3σ at {trials} trials; "
        "Bernoulli-X swap exact"
    )


def _cli_rows(tmp_path, name, argv):
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    for row in rows:
        row.pop("wall_time_ms", None)
        row.pop("seconds", None)
    return rows


def test_criterion_11_determinism_byte_identical_rows(tmp_path):
    runs = {
        "protocol": ["protocol", "--name", "swap", "--links", "3", "--noise", "depolarizing:0.1",
                     "--trials", "200", "--seed", "11"],
        "decode": ["decode", "--code", "surface:3", "--decoder", "mwpm", "--p", "0.05",
                   "--trials", "200", "--seed", "11"],
        "knill": ["knill", "--code", "shor9", "--pc", "0.01", "--pg", "0.001",
                  "--epr-noise", "depolarizing:0.02", "--trials", "200", "--seed", "11"],
        "rate": ["rate", "--qubits", "68200", "--code", "surface:17", "--code", "custom:3786:946"],
        "chain": ["chain", "--mode", "encoded_teleport", "--links", "4", "--code", "rep3",
                  "--fidelity", "0.9", "--rounds", "2", "--seed", "11"],
    }
    for name, argv in runs.items():
        first = _cli_rows(tmp_path, f"{name}_a.csv", list(argv))
        second = _cli_rows(tmp_path, f"{name}_b.csv", list(argv))
        assert first == second, f"{name} rows differ between identical seeded runs"
    # raw byte identity where no timing column exists
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    argv = runs["protocol"]
    cli.main(argv + ["--out", str(p1)])
    cli.main(argv + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    print("PASS criterion 11: repeated seeded runs of all five subcommands give byte-identical data rows")
