"""Seeded outputs of the tableau circuits, pinned byte for byte.

Each test hashes what a fixed-seed run produces: the JSON rows of the
`protocol` subcommand, or the outcome records of a fixed-seed loop over
purify_pair_sampled, sample_chain_trial and knill_ec_round. A digest
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
from qnetcode.pauli import PauliOperator
from qnetcode.protocols import purify_pair_sampled
from qnetcode.rng import stream


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


def _purify_record(basis: str) -> list:
    a = werner(0.8)
    b = BellDiagonalState([0.7, 0.1, 0.05, 0.15])
    record = []
    for t in range(300):
        out = purify_pair_sampled(a, b, basis, stream(5, t))
        record.append([out.classical_bits, out.success, str(out.residual_frame)])
    return record


@pytest.mark.parametrize("basis,digest", [("bitflip", "07aad4357a51bb93"), ("phaseflip", "67fcc2206cfed0cf")])
def test_purify_pair_sampled_outcomes_are_pinned(basis, digest):
    assert _digest(_purify_record(basis)) == digest


@pytest.mark.parametrize(
    "links,rounds,digest",
    [(1, 1, "e4cbad446e9495ea"), (2, 1, "c746b30e214dbd3f"), (3, 2, "cd3c7f0eb8b365ce")],
)
def test_sample_chain_trial_outcomes_are_pinned(links, rounds, digest):
    cfg = ChainConfig(num_links=links, link_state=werner(0.85), purify_rounds=rounds)
    record = [list(sample_chain_trial(cfg, stream(6, links, rounds, t))) for t in range(200)]
    assert _digest(record) == digest


def _knill_record(code, decoder, noise) -> list:
    identity = PauliOperator.identity(code.n)
    record = []
    for t in range(100):
        rep = knill_ec_round(code, decoder, identity, noise, stream(7, t))
        record.append([
            *(a.tolist() for a in (rep.s_x_checks, rep.s_z_checks, rep.logical_xx, rep.logical_zz)),
            rep.decodable, rep.logical_failure,
            rep.residual_logical_x.tolist(), rep.residual_logical_z.tolist(),
        ])
    return record


@pytest.mark.parametrize(
    "code_id,digest",
    [("shor9", "88ad2e79e8fb6e86"), ("surface:3", "91d840bc7d96daff")],
)
def test_knill_ec_round_reports_are_pinned(code_id, digest):
    """The tableau oracle's seeded reports, its random teleportation frame
    bits (logical_xx, logical_zz) included."""
    code = codes.from_id(code_id)
    decoder = LookupDecoder(code) if code_id == "shor9" else MatchingDecoder(code)
    noise = KnillNoise(
        epr_error=NoiseModel.independent_xz(0.03, 0.02),
        meas_flip=0.03,
        data_noise=NoiseModel.depolarizing(0.03),
    )
    assert _digest(_knill_record(code, decoder, noise)) == digest
