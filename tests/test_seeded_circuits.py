"""Seeded outputs of the tableau circuits, pinned byte for byte.

Each test hashes what a fixed-seed run produces: the JSON rows of the
`protocol` subcommand, or the per-trial outcome records of one batched
call of purify_pair_sampled, sample_chain_trial or knill_ec_round over
the trials' own streams. A record keeps the layout of the one-trial
runs these oracles once made, so the digests carry over. A digest
moves when any draw or any measured outcome of the shared circuit steps
(Pauli placement on a block of qubits, the purification round, the
swap-and-readout, the encoded Bell measurement) moves, so a refactor of
those steps must leave every digest as it is.
"""

import hashlib
import json

import pytest

from qnetcode import cli, codes
from qnetcode.decoders import LookupDecoder, MatchingDecoder
from qnetcode.ftec import KnillNoise, knill_ec_round
from qnetcode.netchain import ChainConfig, sample_chain_trial
from qnetcode.noise import BellDiagonalState, NoiseModel, werner
from qnetcode.pauli import LABELS, PauliOperator
from qnetcode.protocols import purify_pair_sampled
from qnetcode.rng import streams


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--name", "swap", "--links", "8", "--noise", "depolarizing:0.05", "--trials", "200"], "373a84d158ea5c32"),
        (["--name", "swap", "--links", "1", "--noise", "independent_xz:0.1,0.2", "--trials", "200"], "917a3eaad271d51e"),
        (["--name", "swap", "--links", "3", "--noise", "bit_flip:0.1", "--trials", "200"], "4597ba1172b2c055"),
        (["--name", "teleport", "--noise", "depolarizing:0.1", "--trials", "200"], "4247761a315b0de7"),
        (["--name", "superdense", "--noise", "depolarizing:0.2", "--trials", "200"], "99648351e1b23666"),
    ],
)
def test_protocol_rows_are_pinned(capsys, argv, digest):
    assert cli.main(["protocol", *argv, "--seed", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert _digest(rows) == digest


@pytest.mark.parametrize(
    "argv,json_digest,csv_digest",
    [
        (["--name", "swap", "--links", "8", "--noise", "depolarizing:0.05"], "736589f8f4a6d218", "765c9d3d479e4507"),
        (["--name", "swap", "--links", "1", "--noise", "independent_xz:0.1,0.2"], "9edd275489403db2", "c82cfc5ecc561da8"),
        (["--name", "swap", "--links", "3", "--noise", "bit_flip:0.1"], "a8d35a15f3904034", "62903eb9460d08c8"),
        (["--name", "teleport", "--noise", "depolarizing:0.1"], "9e17e109c5cad9dc", "20e6889753086adf"),
        (["--name", "superdense", "--noise", "depolarizing:0.2"], "231618a176971b67", "52449286f2f48d36"),
    ],
)
def test_protocol_stdout_bytes_are_pinned(capsys, argv, json_digest, csv_digest):
    """The raw stdout of the runs above, in both formats: the layout of
    every row (indentation, separators, float text) is pinned, not only
    the parsed values."""
    for fmt, digest in (("json", json_digest), ("csv", csv_digest)):
        assert cli.main(["protocol", *argv, "--trials", "200", "--seed", "3", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest, fmt


def _purify_record(basis: str, trials=range(300)) -> list:
    a = werner(0.8)
    b = BellDiagonalState([0.7, 0.1, 0.05, 0.15])
    outcomes, success, kept = purify_pair_sampled(a, b, basis, streams(5, (), trials))
    return [
        [[bits], ok, LABELS[label] if ok else "None"]
        for bits, ok, label in zip(outcomes.tolist(), success.tolist(), kept.tolist())
    ]


@pytest.mark.parametrize("basis,digest", [("bitflip", "07aad4357a51bb93"), ("phaseflip", "67fcc2206cfed0cf")])
def test_purify_pair_sampled_outcomes_are_pinned(basis, digest):
    assert _digest(_purify_record(basis)) == digest


def _chain_record(links: int, rounds: int, trials=range(200)) -> list:
    cfg = ChainConfig(num_links=links, link_state=werner(0.85), purify_rounds=rounds)
    success, labels = sample_chain_trial(cfg, streams(6, (links, rounds), trials))
    return [[ok, label if ok else None] for ok, label in zip(success.tolist(), labels.tolist())]


@pytest.mark.parametrize(
    "links,rounds,digest",
    [(1, 1, "e4cbad446e9495ea"), (2, 1, "c746b30e214dbd3f"), (3, 2, "cd3c7f0eb8b365ce")],
)
def test_sample_chain_trial_outcomes_are_pinned(links, rounds, digest):
    assert _digest(_chain_record(links, rounds)) == digest


def _knill_record(code_id: str, trials=range(100)) -> list:
    code = codes.from_id(code_id)
    decoder = LookupDecoder(code) if code_id == "shor9" else MatchingDecoder(code)
    noise = KnillNoise(
        epr_error=NoiseModel.independent_xz(0.03, 0.02),
        meas_flip=0.03,
        data_noise=NoiseModel.depolarizing(0.03),
    )
    rep = knill_ec_round(code, decoder, PauliOperator.identity(code.n), noise, streams(7, (), trials))
    fields = (
        rep.s_x_checks, rep.s_z_checks, rep.logical_xx, rep.logical_zz,
        rep.decodable, rep.logical_failure, rep.residual_logical_x, rep.residual_logical_z,
    )
    return [list(row) for row in zip(*(a.tolist() for a in fields))]


@pytest.mark.parametrize(
    "code_id,digest",
    [("shor9", "88ad2e79e8fb6e86"), ("surface:3", "91d840bc7d96daff")],
)
def test_knill_ec_round_reports_are_pinned(code_id, digest):
    """The tableau oracle's seeded reports, its random teleportation frame
    bits (logical_xx, logical_zz) included."""
    assert _digest(_knill_record(code_id)) == digest


@pytest.mark.parametrize(
    "record",
    [
        lambda trials: _purify_record("bitflip", trials),
        lambda trials: _purify_record("phaseflip", trials),
        lambda trials: _chain_record(3, 2, trials),
        lambda trials: _knill_record("surface:3", trials),
    ],
    ids=["purify-bitflip", "purify-phaseflip", "chain", "knill"],
)
def test_oracle_records_do_not_depend_on_the_batch(record):
    """A trial's record is the same in one batch of 60 streams as in two
    batches of the same streams, split at trial 23."""
    assert record(range(60)) == record(range(23)) + record(range(23, 60))
