import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from qnetcode import cli, codes, ftec, stabsim
from qnetcode.decoders import logical_failure
from qnetcode.noise import NoiseModel, sample_error
from qnetcode.rng import stream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_rate_reference_rows(capsys):
    code, out, err = run_cli(
        capsys, "rate", "--qubits", "68200", "--code", "surface:17", "--code", "custom:3786:946"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["blocks"] == "78" and rows[0]["rate_decimal"] == "19.5"
    assert rows[1]["blocks"] == "6" and rows[1]["rate_decimal"] == "1419.0"
    assert err == "rate ratio (last/first): 946/13 = 72.7692 (≈72-fold)\n"


@pytest.mark.parametrize("last,line", [
    ("shor9", "1/5 = 0.2000 (≈5-fold lower)"),
    ("surface:5", "0 = 0.0000 (no rate)"),  # no surface:5 block fits in 50 qubits
])
def test_rate_ratio_below_one(capsys, last, line):
    code, _, err = run_cli(capsys, "rate", "--qubits", "50", "--code", "rep3", "--code", last)
    assert (code, err) == (0, f"rate ratio (last/first): {line}\n")


@pytest.mark.parametrize("first", ["custom:50:1", "custom:10:0"])  # no block fits; k = 0
def test_rate_prints_no_ratio_after_a_zero_first_rate(capsys, first):
    code, out, err = run_cli(capsys, "rate", "--qubits", "100", "--code", first, "--code", "rep3")
    assert code == 0
    assert parse_csv(out)[0]["rate_decimal"] == "0.0"
    assert err == ""


def test_rate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--qubits", "68200", "--code", "surface:17", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["rate_per_T"] == "39/2"
    assert rows[0]["p_eff"] == 0.0
    code, out, _ = run_cli(
        capsys, "rate", "--qubits", "68200", "--code", "surface:17", "--code", "shor9",
        "--pc", "0.05", "--pg", "0.001", "--format", "json",
    )
    assert code == 0
    assert [row["p_eff"] for row in json.loads(out)] == [0.055, 0.055]


def test_unknown_code_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "rate", "--qubits", "100", "--code", "nope")
    assert code == 1
    assert "unknown code id" in err
    code, _, err = run_cli(capsys, "decode", "--code", "hgp:bad", "--decoder", "bp")
    assert code == 1
    assert "malformed" in err


def test_bad_flags_are_usage_error(capsys):
    assert cli.main(["rate"]) == 1  # missing required flags
    assert cli.main(["frobnicate"]) == 1
    # a readout flip is one probability: only none and bit_flip:p name one
    for spec in ("phase_flip:0.3", "depolarizing:0.1", "independent_xz:0.1,0.1"):
        code, out, err = run_cli(capsys, *KNILL, "--meas-flip", spec)
        assert (code, out) == (1, "")
        assert f"readout flips take none or bit_flip:<p>, got {spec!r}" in err


def test_meas_flip_row_is_the_flip_probability(capsys):
    for spec, p in (("none", 0.0), ("bit_flip:0.25", 0.25)):
        code, out, _ = run_cli(capsys, *KNILL, "--meas-flip", spec, "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["meas_flip_p"] == p


def test_knill_zero_noise_failure_rate_zero(capsys):
    code, out, _ = run_cli(
        capsys, "knill", "--code", "rep3", "--trials", "200", "--noise", "none", "--seed", "5"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["logical_failures"] == "0"
    assert float(row["failure_rate"]) == 0.0


def test_protocol_rows_are_deterministic(capsys):
    args = ["protocol", "--name", "teleport", "--trials", "40", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    rows = parse_csv(out1)
    assert [r["trial_id"] for r in rows] == [str(i) for i in range(40)]
    assert all(r["success"] == "1" for r in rows)


@pytest.mark.parametrize("spec,letter", [("independent_xz:1,0", "X"), ("independent_xz:0,1", "Z")])
def test_superdense_rows_name_the_channel_pauli(capsys, spec, letter):
    _, out, _ = run_cli(capsys, "protocol", "--name", "superdense", "--noise", spec, "--trials", "4")
    rows = parse_csv(out)
    assert [(r["success"], r["residual_frame"]) for r in rows] == [("0", letter)] * 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--name", "swap", "--links", "4", "--noise", "independent_xz:0.1,0.2"],
        ["--name", "teleport", "--noise", "depolarizing:0.2"],
        ["--name", "superdense", "--noise", "depolarizing:0.3"],
    ],
    ids=["swap", "teleport", "superdense"],
)
def test_protocol_rows_do_not_depend_on_the_chunk_size(capsys, monkeypatch, argv):
    args = ["protocol", *argv, "--trials", "30", "--seed", "8", "--format", "json"]
    _, whole, _ = run_cli(capsys, *args)
    monkeypatch.setattr(ftec, "FRAME_CHUNK", 7)
    _, chunked, _ = run_cli(capsys, *args)
    assert chunked == whole


@pytest.mark.parametrize(
    "argv",
    [
        ["--name", "swap", "--links", "8", "--noise", "depolarizing:0.05"],
        ["--name", "teleport", "--noise", "depolarizing:0.2"],
    ],
    ids=["swap8", "teleport"],
)
def test_protocol_rows_equal_in_chunks_of_37_and_4096(capsys, monkeypatch, argv):
    """Each chunk's streams start every trial at position 0: 200 trials in
    six chunks of 37, the last one part-filled, print the rows of one
    chunk of the default 4096."""
    assert ftec.FRAME_CHUNK == 4096
    args = ["protocol", *argv, "--trials", "200", "--seed", "9", "--format", "json"]
    _, whole, _ = run_cli(capsys, *args)
    monkeypatch.setattr(ftec, "FRAME_CHUNK", 37)
    _, chunked, _ = run_cli(capsys, *args)
    assert chunked == whole
    assert 0 < sum(row["success"] for row in json.loads(whole)) < 200


@pytest.mark.parametrize(
    "code_id,decoder,p,trials,seed",
    [
        ("surface:3", "mwpm", 0.05, 300, 11),
        ("shor9", "lookup", 0.1, 400, 3),
        ("hgp:2:9:12:4", "bp", 0.01, 40, 0),
    ],
)
def test_decode_rows_match_per_trial_reference(capsys, code_id, decoder, p, trials, seed):
    """decode runs the Knill frame engine; a plain per-trial loop is its oracle."""
    code = codes.from_id(code_id)
    _, dec = cli._code_and_decoder(code_id, decoder, cli._bp_prior(decoder, p))
    noise = NoiseModel.independent_xz(p, p)
    failures = iterations = 0
    for t in range(trials):
        err = sample_error(noise, code.n, stream(seed, t))
        result = dec.decode(codes.syndrome(code, err))
        failures += logical_failure(code, err, result.correction)
        iterations += result.iterations or 0
    assert failures > 0
    rc, out, _ = run_cli(
        capsys, "decode", "--code", code_id, "--decoder", decoder, "--p", str(p),
        "--trials", str(trials), "--seed", str(seed), "--format", "json",
    )
    assert rc == 0
    row = json.loads(out)[0]
    assert row["logical_failures"] == failures
    assert row["avg_iterations"] == iterations / trials


def test_decode_counts_undecodable_syndromes_as_failures(capsys):
    rc, out, _ = run_cli(
        capsys, "decode", "--code", "hgp:1:2:4:2", "--decoder", "lookup", "--p", "0.1",
        "--trials", "200", "--seed", "0", "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)[0]["logical_failures"] > 0


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "protocol", "--name", "superdense", "--trials", "8", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text())
    assert len(rows) == 8 and all(r["success"] == "1" for r in rows)


def test_chain_physical(capsys):
    code, out, _ = run_cli(
        capsys, "chain", "--mode", "physical", "--links", "3", "--fidelity", "0.9",
        "--rounds", "1", "--delay", "10",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["m"] == "3"
    assert float(row["latency_T"]) == 2 * 10.0 + 2 * 10.0
    assert float(row["two_way_T"]) == 3 * 10.0 + 2 * 10.0
    assert float(row["one_way_T"]) == 3 * 10.0


def test_chain_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"mode": "physical", "links": 4, "fidelity": 0.9, "rounds": 2, "delay": 5.0}))
    code, out, _ = run_cli(capsys, "chain", "--config", str(cfg), "--links", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["m"] == "2"  # flag wins
    assert float(row["latency_T"]) == 2 * 2 * 5.0 + 1 * 5.0  # file delay and rounds


def test_chain_encoded_requires_code(capsys):
    code, _, err = run_cli(capsys, "chain", "--mode", "encoded_teleport", "--links", "2")
    assert code == 1
    assert "require" in err


def test_decode_hgp_code_id(capsys):
    code, out, _ = run_cli(
        capsys, "decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0.005",
        "--trials", "30", "--seed", "1",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["n"] == "225"
    assert int(row["logical_failures"]) <= 2


def test_failed_validation_is_a_runtime_failure(monkeypatch, capsys):
    """A built code that breaks a CSS invariant keeps that cause: it is a
    runtime failure (exit 2), not a malformed code id (exit 1)."""

    def broken(code):
        raise AssertionError("forced violation")

    monkeypatch.setattr(codes, "validate", broken)
    cli._code_and_decoder.cache_clear()  # build the code, and so validate it, in this test
    code, out, err = run_cli(capsys, "decode", "--code", "hgp:1:3:12:4", "--decoder", "bp", "--trials", "1")
    assert (code, out, err) == (2, "", "runtime failure: forced violation\n")


def test_custom_code_is_rate_only(capsys):
    code, _, err = run_cli(capsys, "decode", "--code", "custom:10:2", "--decoder", "bp")
    assert code == 1



KNILL = ["knill", "--code", "rep3", "--trials", "5"]
HUGE = "9" * 5000
HUGE_SHOWN = "'9999999999'... (5000 digits)"
MAX_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["knill", "--code", "rep3", "--trials", "-5"], "--trials"),
        (["knill", "--code", "rep3", "--trials", "0"], "--trials"),
        (["protocol", "--name", "swap", "--trials", "many"], "--trials"),
        (KNILL + ["--noise", "depolarizing:0.01", "--pc", "0.01"], "--noise cannot"),
        (KNILL + ["--noise", "none", "--pg", "0.001"], "--noise cannot"),
        (KNILL + ["--pc", "-1"], "probability"),
        (KNILL + ["--pg", "1.5"], "probability"),
        (["rate", "--qubits", "100", "--code", "rep3", "--pc", "-1"], "probability"),
        (["rate", "--qubits", "100", "--code", "rep3", "--pg", "nan"], "probability"),
        (["protocol", "--name", "swap", "--noise", "depolarizing:abc"], "noise spec"),
        (KNILL + ["--noise", "depolarizing:2"], "noise spec"),
        (KNILL + ["--epr-noise", "gaussian:0.1"], "noise spec"),
        (KNILL + ["--meas-flip", "independent_xz:0.1"], "noise spec"),
        (["decode", "--code", "hgp:1:0:4:2", "--decoder", "bp"], "r*w >= n"),
        (["decode", "--code", "hgp:1:3:0:1", "--decoder", "bp"], "r*w >= n"),
        (["decode", "--code", "hgp:1:3:4:0", "--decoder", "bp"], "r*w >= n"),
        (["decode", "--code", "hgp:1:3:4:9", "--decoder", "bp"], "r*w >= n"),
        (["decode", "--code", "hgp:1:1:12:4", "--decoder", "bp"], "r*w >= n"),
        (["decode", "--code", "surface:3", "--decoder", "mwpm", "--p", "1.5"], "probability"),
        (["decode", "--code", "surface:3", "--decoder", "mwpm", "--p", "-0.1"], "probability"),
        (["chain", "--links", "0"], "--links"),
        (["chain", "--fidelity", "1.5"], "probability"),
        (["chain", "--rounds", "-1"], "--rounds"),
        (["chain", "--mode", "encoded_teleport", "--code", "rep3", "--trials", "0"], "--trials"),
        (["rate", "--qubits", "100", "--code", "rep3", "--seed", "-1"], "--seed"),
        (["protocol", "--name", "swap", "--seed", "-1"], "--seed"),
        (["decode", "--code", "surface:3", "--decoder", "mwpm", "--seed", "-1"], "--seed"),
        (KNILL + ["--seed", "-1"], "--seed"),
        (["chain", "--seed", "-1"], "--seed"),
        (["protocol", "--name", "swap", "--links", "0"], "--links"),
        (["rate", "--qubits", "0", "--code", "rep3"], "--qubits"),
        (["rate", "--qubits", "100", "--code", "rep3", "--cycle", "0"], "--cycle"),
        (["rate", "--qubits", "100", "--code", "custom:0:1"], "0 <= k <= n"),
        (["rate", "--qubits", "100", "--code", "custom:3:5"], "0 <= k <= n"),
        (["rate", "--qubits", "100", "--code", "custom:3:-1"], "0 <= k <= n"),
        (["chain", "--delay", "-1"], "--delay"),
        (["chain", "--delay", "nan"], "--delay"),
        (["decode", "--code", "surface:3", "--decoder", "mwpm", "--threads", "4"], "--threads"),
        (["chain", "--mode", "encoded_teleport", "--links", "2", "--code", "rep3", "--pc", "0.9"],
         "--pc: not read in chain mode encoded_teleport"),
        (["chain", "--mode", "encoded_direct", "--code", "rep3", "--fidelity", "0.3"],
         "--fidelity: not read in chain mode encoded_direct"),
        (["chain", "--mode", "physical", "--code", "rep3"], "--code: not read in chain mode physical"),
        (["chain", "--decoder", "lookup"], "--decoder: not read in chain mode physical"),
        (["chain", "--trials", "10"], "--trials: not read in chain mode physical"),
        (["chain", "--pc", "0.1"], "--pc: not read in chain mode physical"),
        (["chain", "--pg", "0.1"], "--pg: not read in chain mode physical"),
        (["chain", "--mode", "encoded_direct", "--code", "rep3", "--fidelity", "1.5"], "probability"),
        (["decode", "--code", "rep3:junk", "--decoder", "lookup"], "expected rep3"),
        (["decode", "--code", "surface:5:9", "--decoder", "mwpm"], "expected surface:<d>"),
        (["decode", "--code", "hgp:2:9:12:4:77", "--decoder", "bp"], "expected hgp:<seed>:<r>:<n>:<w>"),
        (["rate", "--qubits", "100", "--code", "shor9:1"], "expected shor9"),
        (["decode", "--code", "surface:5", "--decoder", "lookup"], "decoder lookup cannot decode surface:5"),
        (["decode", "--code", "hgp:2:9:12:4", "--decoder", "mwpm"], "<= 2 checks per qubit"),
        (["chain", "--mode", "encoded_teleport", "--code", "surface:5"], "n <= 20"),
        (["protocol", "--name", "teleport", "--links", "3"], "--links: not read in protocol teleport"),
        (["protocol", "--name", "superdense", "--links", "7"], "--links: not read in protocol superdense"),
        (["rate", "--qubits", "100", "--code", "rep3", "--trials", "7"], "unrecognized arguments: --trials 7"),
        (KNILL + ["--meas-flip", "none:0.3"], "none takes no arguments"),
        (KNILL + ["--noise", "none:0.5"], "none takes no arguments"),
        (["protocol", "--name", "swap", "--noise", "none:0.9"], "none takes no arguments"),
        (["decode", "--code", "hgp:0:2:2:2", "--decoder", "mwpm"],
         "decoder mwpm cannot decode hgp:0:2:2:2: check 0 of h_z has no path to the boundary"),
        (["knill", "--code", "hgp:0:4:5:2", "--decoder", "mwpm", "--pc", "0.05"],
         "decoder mwpm cannot decode hgp:0:4:5:2: check 1 of h_z has no path to the boundary"),
        # a trial index is one 32-bit word of its stream key
        (KNILL[:-1] + ["4294967297"], "--trials: must be an integer <= 4294967296"),
        (["decode", "--code", "surface:3", "--decoder", "mwpm", "--trials", "4294967297"],
         "--trials: must be an integer <= 4294967296"),
        (["protocol", "--name", "swap", "--trials", str(10**30)], "--trials: must be an integer <= 4294967296"),
        (["chain", "--mode", "encoded_teleport", "--code", "rep3", "--trials", "4294967297"],
         "--trials: must be an integer <= 4294967296"),
        (["chain", "--mode", "physical", "--seed", "1"], "--seed: not read in chain mode physical"),
        # R rounds consume 2**R raw pairs per link, a count that must convert to a float
        (["chain", "--rounds", "1024"], "--rounds: must be an integer <= 1023"),
        # every latency, and a rate row's rate_decimal and ratio, must be a finite float
        (["chain", "--delay", "1e308"], "--delay: hop delay 1e+308 puts the two-way latency past the float range"),
        (["rate", "--qubits", str(10**400), "--code", "custom:1:1"],
         "--code custom:1:1: rate_decimal exceeds the float range"),
        (["rate", "--qubits", str(10**310), "--cycle", "10000000000", "--code", f"custom:{10**309}:1",
          "--code", "custom:1:1"], "rate ratio (last/first) exceeds the float range"),
        # chains and swaps cost time and memory linear in the link count
        (["protocol", "--name", "swap", "--links", "1000000000"], "--links: must be an integer <= 1024"),
        (["chain", "--mode", "physical", "--links", str(10**400)], "--links: must be an integer <= 1024"),
        (["chain", "--mode", "encoded_teleport", "--code", "shor9", "--links", str(10**20), "--trials", "1"],
         "--links: must be an integer <= 1024"),
        (["protocol", "--name", "swap", "--links", "1025"], "--links: must be an integer <= 1024"),
        (["chain", "--links", "1025"], "--links: must be an integer <= 1024"),
        # int() reads at most sys.get_int_max_str_digits() digits; only a prefix is echoed
        (["chain", "--links", HUGE], f"--links: must be an integer <= 1024, got {HUGE_SHOWN}"),
        (KNILL + ["--seed", HUGE], f"--seed: must be an integer of at most {MAX_DIGITS} digits, got {HUGE_SHOWN}"),
        (["rate", "--qubits", HUGE, "--code", "rep3"],
         f"--qubits: must be an integer of at most {MAX_DIGITS} digits, got {HUGE_SHOWN}"),
        (["protocol", "--name", "swap", "--seed", "-" + HUGE], "--seed: must be an integer >= 0, got '-9999999999'..."),
        (["chain", "--mode", "encoded_teleport", "--code", "rep3", "--trials", "+" + HUGE],
         "--trials: must be an integer <= 4294967296, got '+9999999999'... (5000 digits)"),
        # codes.MAX_N caps the qubits a code id may ask for, checked before any matrix is built
        (["rate", "--qubits", "100", "--code", "surface:301"], "code id 'surface:301' has n = 90601, above the cap of 4096 qubits"),
        (["rate", "--qubits", "100", "--code", "hgp:0:300:400:4"],
         "code id 'hgp:0:300:400:4' has n = 250000, above the cap of 4096 qubits"),
        (["decode", "--code", "surface:65", "--decoder", "mwpm"], "code id 'surface:65' has n = 4225, above the cap"),
        (["chain", "--mode", "encoded_direct", "--code", "hgp:0:64:64:4"], "has n = 8192, above the cap"),
        # chain's --mode and --decoder say what --config mode says
        (["chain", "--mode", "bogus"], "--mode: must be one of physical, encoded_teleport, encoded_direct, got 'bogus'"),
        (["chain", "--mode", "encoded_direct", "--code", "rep3", "--decoder", "nope"],
         "--decoder: must be one of lookup, mwpm, bp, got 'nope'"),
    ],
)
def test_bad_input_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--name", "swap", "--links", "1024", "--trials", "2"],
        ["chain", "--links", "1024"],
        ["chain", "--mode", "encoded_direct", "--code", "rep3", "--links", "1024", "--trials", "2"],
    ],
    ids=["swap", "physical", "encoded_direct"],
)
def test_links_cap_is_a_valid_link_count(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


NO_LOGICAL = "hgp:0:3:3:1"  # [[18, 0]]: the code encodes no logical qubit


@pytest.mark.parametrize(
    "argv",
    [
        ["knill", "--code", NO_LOGICAL, "--decoder", "lookup", "--noise", "depolarizing:0.1", "--trials", "200"],
        ["decode", "--code", NO_LOGICAL, "--decoder", "lookup", "--trials", "50"],
        ["chain", "--mode", "encoded_teleport", "--code", NO_LOGICAL, "--links", "2", "--trials", "50"],
        ["chain", "--mode", "encoded_direct", "--code", NO_LOGICAL, "--links", "2", "--trials", "50"],
    ],
    ids=["knill", "decode", "encoded_teleport", "encoded_direct"],
)
def test_code_without_logical_qubit_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "encodes no logical qubit (k = 0)" in err


def test_rate_accepts_a_code_without_logical_qubit(capsys):
    code, out, err = run_cli(capsys, "rate", "--qubits", "100", "--code", NO_LOGICAL)
    assert code == 0
    assert parse_csv(out)[0]["k"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--name", "teleport", "--noise", "depolarizing:0.2", "--trials", "20"],
        ["protocol", "--name", "superdense", "--noise", "depolarizing:0.2", "--trials", "20"],
        ["protocol", "--name", "swap", "--links", "8", "--noise", "depolarizing:0.05", "--trials", "20"],
        ["decode", "--code", "surface:3", "--decoder", "mwpm", "--p", "0.05", "--trials", "20"],
        KNILL + ["--epr-noise", "depolarizing:0.05", "--meas-flip", "bit_flip:0.05"],
        ["chain", "--links", "3", "--rounds", "1"],
        ["chain", "--mode", "encoded_teleport", "--links", "2", "--code", "rep3", "--trials", "20"],
        ["chain", "--mode", "encoded_direct", "--links", "2", "--code", "rep3", "--trials", "20"],
        ["rate", "--qubits", "100", "--code", "rep3"],
    ],
    ids=["teleport", "superdense", "swap", "decode", "knill", "physical", "encoded_teleport",
         "encoded_direct", "rate"],
)
def test_no_command_builds_a_tableau(capsys, monkeypatch, argv):
    """Every command samples Pauli frames; the tableau is only their oracle."""
    def no_tableau(*args, **kwargs):
        raise AssertionError("a command built a StabilizerState")

    monkeypatch.setattr(stabsim.StabilizerState, "__init__", no_tableau)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("fidelity", 1.5, "probability"),
        ("fidelity", "high", "probability"),
        ("p_c", -0.1, "probability"),
        ("p_g", 2, "probability"),
        ("links", 0, "integer >= 1"),
        ("links", 2.5, "integer >= 1"),
        ("rounds", -1, "integer >= 0"),
        ("rounds", 1024, "integer <= 1023"),
        ("delay", -1, "number >= 0"),
        ("delay", "soon", "number >= 0"),
        ("delay", 1e308, "two-way latency past the float range"),
        ("mode", "bogus", "must be one of"),
        ("linkz", 3, "unknown key"),
        ("schedule", "nested", "unknown key"),
        ("fidelity", 0.9, "not read in chain mode encoded_direct"),
        ("links", 1025, "integer <= 1024"),
        ("links", 10**20, "integer <= 1024"),
    ],
)
def test_bad_chain_config_value_is_usage_error(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"mode": "encoded_direct", "code_id": "rep3", key: value}))
    code, out, err = run_cli(capsys, "chain", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"--config {key}" in err and message in err


@pytest.mark.parametrize(
    "content,reason",
    [(None, "No such file or directory"), ("{bad", "Expecting property name")],
    ids=["missing", "not-json"],
)
def test_unreadable_chain_config_is_usage_error(tmp_path, capsys, content, reason):
    cfg = tmp_path / "scenario.json"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run_cli(capsys, "chain", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"--config {cfg}: {reason}" in err


@pytest.mark.parametrize("content", ["[1, 2]", "3", "null"])
def test_chain_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(content)
    assert run_cli(capsys, "chain", "--config", str(cfg)) == (1, "", "error: --config must hold a JSON object\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_fails_on_write_is_usage_error(capsys):
    """/dev/full passes the check before the run; the write itself fails."""
    code, out, err = run_cli(capsys, "rate", "--qubits", "100", "--code", "rep3", "--out", "/dev/full")
    assert (code, out, err) == (1, "", "error: --out /dev/full: No space left on device\n")


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, "rate", "--qubits", "100", "--code", "rep3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert f"--out {target}: No such file or directory" in err


def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "knill_residuals", never)
    decode = ["decode", "--code", "surface:5", "--decoder", "mwpm", "--p", "0.08", "--trials", "20000"]
    target = tmp_path / "missing" / "x.csv"
    for path, reason in ((target, "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, *decode, "--out", str(path))
        assert (code, out) == (1, "")
        assert f"--out {path}: {reason}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mode,key",
    [("physical", "code_id"), ("physical", "p_c"), ("physical", "p_g"), ("encoded_teleport", "p_c")],
)
def test_chain_config_key_unread_by_mode_is_usage_error(tmp_path, capsys, mode, key):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"mode": mode, key: "rep3" if key == "code_id" else 0.01}))
    code, out, err = run_cli(capsys, "chain", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"--config {key}: not read in chain mode {mode}" in err


def test_chain_trials_sets_rounds_per_hop(monkeypatch, capsys):
    seen = []
    run_chain = cli.run_chain

    def spy(cfg):
        seen.append(cfg.mc_trials)
        return run_chain(cfg)

    monkeypatch.setattr(cli, "run_chain", spy)
    base = ["chain", "--mode", "encoded_teleport", "--links", "2", "--code", "rep3", "--seed", "4"]
    assert run_cli(capsys, *base)[0] == 0
    assert run_cli(capsys, *(base + ["--trials", "50"]))[0] == 0
    assert seen == [400, 50]


@pytest.mark.parametrize("mode", ["encoded_teleport", "encoded_direct"])
def test_chain_seed_defaults_to_zero_in_encoded_modes(capsys, mode):
    argv = ["chain", "--mode", mode, "--links", "2", "--code", "rep3", "--trials", "50", "--format", "json"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


# The chain mode rule, stated here apart from cli's table: the settings
# (argparse dests) each mode reads; any other setting given is a usage error.
CHAIN_READS = {
    "physical": {"mode", "links", "fidelity", "rounds", "delay"},
    "encoded_teleport": {"mode", "links", "fidelity", "rounds", "delay", "code", "decoder", "pg", "trials", "seed"},
    "encoded_direct": {"mode", "links", "rounds", "delay", "code", "decoder", "pc", "pg", "trials", "seed"},
}
# a valid value of every other chain setting, and the --config key of each that has one
CHAIN_VALUES = {"links": 3, "fidelity": 0.9, "rounds": 1, "delay": 5.0, "code": "rep3", "decoder": "mwpm",
                "pc": 0.02, "pg": 0.002, "trials": 50, "seed": 3}
CHAIN_KEYS = {"mode": "mode", "links": "links", "fidelity": "fidelity", "rounds": "rounds", "delay": "delay",
              "code": "code_id", "pc": "p_c", "pg": "p_g"}


def _chain_rule_holds(capsys, argv, mode, setting, given):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    if setting in CHAIN_READS[mode]:
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["mode"] == mode
    else:
        assert (code, out) == (1, "")
        assert f"{given}: not read in chain mode {mode}" in err


@pytest.mark.parametrize("mode", list(CHAIN_READS))
@pytest.mark.parametrize("setting", ["mode", *CHAIN_VALUES])
def test_chain_flag_is_read_or_refused_by_mode(capsys, setting, mode):
    argv = ["chain", "--mode", mode]
    if setting != "mode":
        argv += [f"--{setting}", str(CHAIN_VALUES[setting])]
    if mode != "physical" and setting != "code":
        argv += ["--code", "rep3"]
    _chain_rule_holds(capsys, argv, mode, setting, f"--{setting}")


@pytest.mark.parametrize("mode", list(CHAIN_READS))
@pytest.mark.parametrize("setting", list(CHAIN_KEYS))
def test_chain_config_key_is_read_or_refused_by_mode(tmp_path, capsys, setting, mode):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"mode": mode, **({} if setting == "mode" else {CHAIN_KEYS[setting]: CHAIN_VALUES[setting]})}))
    argv = ["chain", "--config", str(cfg)]
    if mode != "physical" and setting != "code":
        argv += ["--code", "rep3"]
    _chain_rule_holds(capsys, argv, mode, setting, f"--config {CHAIN_KEYS[setting]}")


@pytest.mark.parametrize("mode", list(CHAIN_READS))
def test_chain_defaults_equal_the_spelled_out_flags(capsys, mode):
    defaults = {"links": "4", "fidelity": "0.95", "rounds": "2", "delay": "10", "pc": "0.05", "pg": "0.001",
                "trials": "400", "seed": "0", "decoder": "lookup"}
    argv = ["chain"] if mode == "physical" else ["chain", "--mode", mode, "--code", "rep3"]
    spelled = ["chain", "--mode", "physical"] if mode == "physical" else list(argv)
    for setting, value in defaults.items():
        if setting in CHAIN_READS[mode]:
            spelled += [f"--{setting}", value]
    row = run_cli(capsys, *argv, "--format", "json")
    assert row[0] == 0
    assert run_cli(capsys, *spelled, "--format", "json") == row


def test_chain_help_names_each_default(capsys):
    code, out, _ = run_cli(capsys, "chain", "--help")
    assert code == 0
    assert "{physical,encoded_teleport,encoded_direct}" in out and "{lookup,mwpm,bp}" in out
    text = " ".join(out.split())  # help lines wrap
    for flag, default in [("mode", "physical"), ("links", "4"), ("fidelity", "0.95"), ("rounds", "2"),
                          ("delay", "10.0"), ("decoder", "lookup"), ("pc", "0.05"), ("pg", "0.001"),
                          ("trials", "400"), ("seed", "0")]:
        entry = text.split(f" --{flag} ")[1].split(" --")[0]
        assert f"default {default}" in entry, flag


@pytest.mark.parametrize(
    "argv", [["chain", "--links", HUGE], KNILL + ["--seed", HUGE], ["rate", "--qubits", HUGE, "--code", "rep3"]]
)
def test_huge_integer_is_echoed_as_a_prefix(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "(5000 digits)" in err and "9" * 11 not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--qubits", "10", "--code", f"custom:{HUGE}:1"],
        ["rate", "--qubits", "10", "--code", f"custom:-{HUGE[:3000]}:1"],
        ["rate", "--qubits", "10", "--code", f"rep3:{HUGE}"],
        ["knill", "--code", f"shor9{HUGE}"],
        ["knill", "--code", f"surface:{HUGE[:1000]}"],
        ["knill", "--code", f"surface:{HUGE}"],
        ["knill", "--code", f"surface:{HUGE[:1000]}x"],
        ["knill", "--code", f"hgp:1:{HUGE[:2000]}:12:4"],
        ["decode", "--decoder", "bp", "--code", f"hgp:{HUGE}:9:12:4"],
        ["chain", "--mode", "encoded_direct", "--code", f"hgp:1:9:12:{HUGE[:2000]}"],
    ],
    ids=["custom-n", "custom-negative-n", "rep3", "shor9", "surface-cap", "surface-digits", "surface-literal",
         "hgp-cap", "hgp-seed", "hgp-w"],
)
def test_long_code_id_is_echoed_as_a_prefix(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err) < 200 and "characters)" in err and "9" * 41 not in err


def oracle_write_rows(rows, fmt):
    """What write_rows printed before it encoded values in one C-encoder call."""
    out = io.StringIO()
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, default=str) + "\n")
    elif rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return out.getvalue()


def write_rows_text(rows, fmt):
    out = io.StringIO()
    cli.write_rows(rows, out, fmt)
    return out.getvalue()


EDGE_ROWS = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "zero": -0.0, "text": "naïve ✓ π",
     "quoted": 'say "a, b"\nthen\r\n%s', "flag": True, "none": None, "fraction": Fraction(39, 2),
     "int64": np.int64(-7), "float64": np.float64(0.1), "ключ %s": 3},
    {"nan": 1e300, "inf": 5e-324, "-inf": 0, "zero": 0.0, "text": "", "quoted": "\t\\\"", "flag": False,
     "none": "None", "fraction": Fraction(-1, 3), "int64": np.int64(2**62), "float64": np.float64(-2.5), "ключ %s": -1},
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "rows", [EDGE_ROWS, EDGE_ROWS[:1], EDGE_ROWS * 3, [], [{}], [{}, {}], [{"only": "%"}]],
    ids=["edge", "one-row", "repeated", "no-rows", "empty-row", "empty-rows", "one-key"],
)
def test_write_rows_equals_its_oracle_on_edge_rows(rows, fmt):
    assert write_rows_text(rows, fmt) == oracle_write_rows(rows, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1, "b": [2]}],
        [{"a": 1, "b": []}],
        [{"a": 1, "b": (2, 3)}],
        [{"a": 1, "b": {"c": 2}}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": 1}, {"c": 1}],
        [{1: "a"}],
    ],
    ids=["list", "empty-list", "tuple", "dict", "second-order", "fewer-keys", "more-keys", "other-key", "int-key"],
)
def test_write_rows_refuses_nested_or_unequal_rows(rows, fmt):
    with pytest.raises(ValueError):
        cli.write_rows(rows, io.StringIO(), fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--qubits", "68200", "--code", "surface:17", "--code", "custom:3786:946", "--pc", "0.05"],
        ["protocol", "--name", "swap", "--links", "4", "--noise", "depolarizing:0.1", "--trials", "300", "--seed", "2"],
        ["decode", "--code", "surface:3", "--decoder", "mwpm", "--p", "0.05", "--trials", "50", "--seed", "1"],
        ["knill", "--code", "shor9", "--pc", "0.01", "--trials", "50", "--seed", "1"],
        ["chain", "--mode", "encoded_teleport", "--code", "rep3", "--links", "2", "--trials", "20", "--seed", "1"],
    ],
    ids=["rate", "protocol", "decode", "knill", "chain"],
)
def test_each_command_writes_the_oracle_bytes(argv, fmt):
    args = cli.build_parser().parse_args([*argv, "--format", fmt])
    rows = cli._COMMANDS[args.command](args)
    assert rows
    assert write_rows_text(rows, fmt) == oracle_write_rows(rows, fmt)


def test_knill_surface5_seeded_row_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "knill", "--code", "surface:5", "--decoder", "mwpm", "--pc", "0.01", "--pg", "0.001",
        "--trials", "400", "--seed", "1", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert (row["p_eff"], row["trials"], row["logical_failures"]) == (0.015, 400, 1)


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["chain", "--mode", "encoded_teleport", "--links", "4", "--code", "shor9", "--fidelity", "0.95",
          "--rounds", "2", "--seed", "1"], "b6e955e046324b01"),
        (["decode", "--code", "surface:5", "--decoder", "mwpm", "--p", "0.08", "--trials", "1500",
          "--seed", "41"], "9339d4c018a8e15e"),
        (["chain", "--mode", "encoded_direct", "--links", "3", "--code", "surface:3", "--decoder", "mwpm",
          "--pc", "0.02", "--pg", "0.002", "--rounds", "1", "--seed", "2"], "b339f96da5fc7439"),
        (["chain", "--mode", "physical", "--links", "5", "--fidelity", "0.9", "--rounds", "3", "--delay", "7"],
         "0dbb045db622b1ea"),
    ],
    ids=["chain-encoded_teleport", "decode-surface5-mwpm", "chain-encoded_direct", "chain-physical"],
)
def test_seeded_monte_carlo_rows_are_pinned(capsys, argv, digest):
    """Data rows (timing fields dropped), hashed byte for byte, of three
    seeded runs whose every trial draws from its own stream and of one
    exact run: the physical chain row is Bell-diagonal algebra, no draw."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        row.pop("wall_time_ms", None)
        row.pop("seconds", None)
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_check_matrix_draws_are_pinned():
    """Ids whose draw covered every column keep their exact matrix."""
    h = cli.random_regular_check_matrix(9, 12, 4, 2)  # hgp:2:9:12:4
    assert hashlib.sha256(h.tobytes()).hexdigest() == (
        "fd44fd0127be4439074304cd781758cbf99387df688631a9b2d890690dd3f7ea"
    )


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_tight_check_matrix_is_repaired(seed):
    """r*w == n: a covering draw is rare, so the last draw is repaired."""
    h = cli.random_regular_check_matrix(3, 12, 4, seed)
    assert (h.sum(axis=1) == 4).all() and (h.sum(axis=0) >= 1).all()
    code = codes.from_id(f"hgp:{seed}:3:12:4")
    assert code.n == 12 * 12 + 3 * 3
    codes.validate(code)


def clear_caches():
    cli.build_parser.cache_clear()
    cli._code_and_decoder.cache_clear()


def data_rows(capsys, argv):
    """The JSON rows of one successful call, timing fields dropped."""
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    for row in rows:
        row.pop("wall_time_ms", None)
        row.pop("seconds", None)
    return rows


CACHED_SEQUENCE = [
    ["knill", "--code", "surface:5", "--decoder", "mwpm", "--pc", "0.01", "--trials", "200", "--seed", "5"],
    ["decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0.01", "--trials", "30", "--seed", "6"],
    ["decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0.03", "--trials", "30", "--seed", "6"],
    ["chain", "--mode", "encoded_teleport", "--code", "shor9", "--links", "3", "--seed", "7"],
    ["knill", "--code", "surface:5", "--decoder", "mwpm", "--pc", "0.01", "--trials", "200", "--seed", "8"],
]


def test_cached_parser_and_decoders_give_the_uncached_rows(capsys):
    """One process's calls share a parser and each (code id, decoder, BP
    prior)'s code and decoder; their rows equal those of the same calls
    made each from empty caches."""
    clear_caches()
    shared = [data_rows(capsys, argv) for argv in CACHED_SEQUENCE]
    info = cli._code_and_decoder.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 4)  # two BP priors are two entries
    fresh = []
    for argv in CACHED_SEQUENCE:
        clear_caches()
        fresh.append(data_rows(capsys, argv))
    assert shared == fresh


@pytest.mark.parametrize("sequence", [
    [
        ["knill", "--code", "hgp:2:9:12:4", "--decoder", "bp"],
        ["decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0"],
        ["decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0.6"],
    ],
    [
        ["decode", "--code", "surface:5", "--decoder", "mwpm", "--p", "0.08"],
        ["knill", "--code", "surface:5", "--decoder", "mwpm"],
    ],
], ids=["bp-prior-0.01", "mwpm"])
def test_commands_share_a_decoder_of_one_prior(capsys, sequence):
    """knill and decode share a code and decoder when their BP prior is the
    same: knill's 0.01 equals decode's at --p 0 or --p >= 0.5, and MWPM takes none."""
    clear_caches()
    for argv in sequence:
        assert run_cli(capsys, *argv, "--trials", "5")[0] == 0
    info = cli._code_and_decoder.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(sequence) - 1, 1)


@pytest.mark.parametrize("argv,message", [
    (["knill", "--code", "hgp:0:3:3:1"], "code hgp:0:3:3:1 encodes no logical qubit (k = 0)"),
    (["decode", "--code", "hgp:2:9:12:4", "--decoder", "lookup"], "decoder lookup cannot decode hgp:2:9:12:4"),
])
def test_failed_builds_are_not_cached(capsys, argv, message):
    clear_caches()
    results = [run_cli(capsys, *argv, "--trials", "2") for _ in range(2)]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (1, "") and err.startswith(f"error: {message}")
    assert cli._code_and_decoder.cache_info().currsize == 0


def test_one_parser_keeps_no_value_between_calls(capsys):
    assert run_cli(capsys, *KNILL, "--bogus")[0] == 1
    assert run_cli(capsys, *KNILL)[0] == 0
    assert cli.main(["rate", "--qubits", "100", "--code", "rep3", "--code", "shor9"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "rate", "--qubits", "100", "--code", "surface:3")
    assert code == 0 and [row["code_id"] for row in parse_csv(out)] == ["surface:3"]
    assert data_rows(capsys, [*KNILL, "--noise", "depolarizing:0.1"])[0]["p_eff"] == 0.1
    assert data_rows(capsys, KNILL)[0]["p_eff"] == 0.0
