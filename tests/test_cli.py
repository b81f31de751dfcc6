import csv
import hashlib
import io
import json

import pytest

from qnetcode import cli, codes
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
    assert "≈72-fold" in err


def test_rate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--qubits", "68200", "--code", "surface:17", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["rate_per_T"] == "39/2"


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
    code = cli.parse_code(code_id)
    dec = cli.build_decoder(decoder, code, p)
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


def test_custom_code_is_rate_only(capsys):
    code, _, err = run_cli(capsys, "decode", "--code", "custom:10:2", "--decoder", "bp")
    assert code == 1



KNILL = ["knill", "--code", "rep3", "--trials", "5"]


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
    ],
)
def test_bad_input_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


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
        ("delay", -1, "number >= 0"),
        ("delay", "soon", "number >= 0"),
        ("mode", "bogus", "must be one of"),
        ("linkz", 3, "unknown key"),
        ("schedule", "nested", "unknown key"),
        ("fidelity", 0.9, "not read in chain mode encoded_direct"),
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


def test_knill_surface5_seeded_row_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "knill", "--code", "surface:5", "--decoder", "mwpm", "--pc", "0.01", "--pg", "0.001",
        "--trials", "400", "--seed", "1", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert (row["p_eff"], row["trials"], row["logical_failures"]) == (0.015, 400, 1)


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
    code = cli.parse_code(f"hgp:{seed}:3:12:4")
    assert code.n == 12 * 12 + 3 * 3 and codes.validate(code).ok
