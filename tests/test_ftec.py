import itertools

import numpy as np
import pytest

from qnetcode import codes, gf2
from qnetcode.decoders import LookupDecoder, MatchingDecoder
from qnetcode.ftec import (
    ROUND_COST_T,
    BellOutcomeBlock,
    KnillNoise,
    _row_pauli,
    encoded_bell_measure,
    extract,
    knill_ec_round,
    prepare_logical_epr,
    prepare_logical_zero,
)
from qnetcode.noise import NoiseModel
from qnetcode.pauli import PauliOperator
from qnetcode.rng import stream
from qnetcode.stabsim import StabilizerState

NO_NOISE = KnillNoise()


def decoder_for(code):
    if code.name.startswith("surface"):
        return MatchingDecoder(code)
    return LookupDecoder(code)


def test_prepare_logical_zero_state():
    code = codes.shor9()
    rng = stream(40)
    state = StabilizerState(3 * code.n)
    prepare_logical_zero(state, code, 0, rng)
    for row in code.h_x:
        assert state.expectation(_row_pauli(3 * code.n, 0, row, "X")) == 1
    for row in code.h_z:
        assert state.expectation(_row_pauli(3 * code.n, 0, row, "Z")) == 1
    assert state.expectation(_row_pauli(3 * code.n, 0, code.logical_z[0], "Z")) == 1


def test_prepare_logical_epr_correlations():
    code = codes.rep3()
    n = code.n
    rng = stream(41)
    state = StabilizerState(3 * n)
    prepare_logical_epr(state, code, n, 2 * n, rng)
    x = np.zeros(3 * n, dtype=np.uint8)
    x[n : 2 * n] = code.logical_x[0]
    x[2 * n :] = code.logical_x[0]
    assert state.expectation(PauliOperator(3 * n, x, np.zeros(3 * n, dtype=np.uint8))) == 1
    z = np.zeros(3 * n, dtype=np.uint8)
    z[n : 2 * n] = code.logical_z[0]
    z[2 * n :] = code.logical_z[0]
    assert state.expectation(PauliOperator(3 * n, np.zeros(3 * n, dtype=np.uint8), z)) == 1


@pytest.mark.parametrize(
    "code", [codes.rep3(), codes.shor9(), codes.rotated_surface(3)], ids=lambda c: c.name
)
def test_zero_noise_round_is_clean(code):
    dec = decoder_for(code)
    identity = PauliOperator.identity(code.n)
    for t in range(25):
        rep = knill_ec_round(code, dec, identity, NO_NOISE, stream(42, t))
        assert not rep.s_x_checks.any() and not rep.s_z_checks.any()
        assert not rep.logical_failure
        assert rep.cost_T == ROUND_COST_T == 4
        assert not rep.residual_logical_x.any() and not rep.residual_logical_z.any()


@pytest.mark.parametrize("code", [codes.shor9(), codes.rotated_surface(3)], ids=lambda c: c.name)
def test_single_qubit_data_errors_corrected(code):
    dec = decoder_for(code)
    for q in range(code.n):
        for letter in "XYZ":
            err = PauliOperator.single(code.n, q, letter)
            rep = knill_ec_round(code, dec, err, NO_NOISE, stream(43, q, ord(letter)))
            assert not rep.logical_failure, (q, letter)
            want_sx, want_sz = codes.syndrome(code, err)
            assert np.array_equal(rep.s_x_checks, want_sx)
            assert np.array_equal(rep.s_z_checks, want_sz)


def test_extract_equals_code_syndrome_for_injected_errors():
    """Outcome-difference oracle: injecting a data error shifts the raw
    Bell outcomes by exactly its bit pattern, so extract() reproduces
    codes.syndrome()."""
    code = codes.shor9()
    n = code.n
    base_u = np.zeros(n, dtype=np.uint8)
    base_v = np.zeros(n, dtype=np.uint8)
    for q in range(n):
        for letter in "XYZ":
            err = PauliOperator.single(n, q, letter)
            block = BellOutcomeBlock(u=base_u ^ err.z_bits, v=base_v ^ err.x_bits)
            s_x, s_z, lxx, lzz = extract(block, code)
            want_sx, want_sz = codes.syndrome(code, err)
            assert np.array_equal(s_x, want_sx)
            assert np.array_equal(s_z, want_sz)
            assert np.array_equal(lxx, gf2.matvec(code.logical_x, err.z_bits))
            assert np.array_equal(lzz, gf2.matvec(code.logical_z, err.x_bits))


def test_extract_validates_shapes():
    code = codes.rep3()
    with pytest.raises(ValueError):
        extract(BellOutcomeBlock(u=np.zeros(2, dtype=np.uint8), v=np.zeros(3, dtype=np.uint8)), code)


def test_epr_half_a_errors_look_like_data_errors():
    """An error on EPR half A shifts the outcomes the same way as the
    matching data error; half-B errors leave the outcomes untouched."""
    code = codes.rep3()
    n = code.n
    meas = NoiseModel.none()
    rng_pairs = [(stream(44, t, 0), stream(44, t, 1), stream(44, t, 2)) for t in range(10)]
    for rng_a, rng_b, rng_c in rng_pairs:
        epr_a = PauliOperator(2 * n, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
        data = PauliOperator(n, [1, 0, 0], [0, 1, 0])
        out_a = extract(encoded_bell_measure(code, PauliOperator.identity(n), epr_a, meas, rng_a), code)
        out_d = extract(
            encoded_bell_measure(code, data, PauliOperator.identity(2 * n), meas, rng_b), code
        )
        # compare syndromes only: the logical bits are genuinely random
        # teleportation outcomes in every run
        for got, want in zip(out_a[:2], out_d[:2]):
            assert np.array_equal(got, want)
        epr_b = PauliOperator(2 * n, [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0])
        out_b = extract(
            encoded_bell_measure(code, PauliOperator.identity(n), epr_b, meas, rng_c), code
        )
        assert not out_b[0].any() and not out_b[1].any()


def test_epr_half_b_logical_error_corrupts_output_silently():
    """A logical X on EPR half B leaves every syndrome clean but flips
    the output's logical Z eigenvalue: exactly the failure the residual
    accounting must catch."""
    from qnetcode.ftec import _run_round, apply_output_corrections, verify_output

    code = codes.rep3()
    n = code.n
    epr = PauliOperator(
        2 * n,
        np.concatenate([np.zeros(n, dtype=np.uint8), code.logical_x[0]]),
        np.zeros(2 * n, dtype=np.uint8),
    )
    for t in range(10):
        rng = stream(45, t)
        outcomes, state = _run_round(code, PauliOperator.identity(n), epr, rng)
        s_x, s_z, lxx, lzz = extract(outcomes, code)
        assert not s_x.any() and not s_z.any()
        apply_output_corrections(state, code, PauliOperator.identity(n), lxx, lzz)
        assert verify_output(state, code)  # stabilizers are clean
        assert not verify_output(state, code, logical_z_bits=np.zeros(1, dtype=np.uint8))


def test_measurement_flips_raise_failure_rate():
    code = codes.rep3()
    dec = LookupDecoder(code)
    noisy = KnillNoise(meas_flip=NoiseModel.bit_flip(0.4))
    identity = PauliOperator.identity(code.n)
    failures = sum(
        knill_ec_round(code, dec, identity, noisy, stream(46, t)).logical_failure
        for t in range(200)
    )
    assert failures > 0


def test_round_measures_each_qubit_exactly_once(monkeypatch):
    """Single-shot check: one EC round performs exactly the preparation
    measurements plus one transversal readout of the 2n Bell qubits."""
    code = codes.shor9()
    dec = LookupDecoder(code)
    counter = {"n": 0}
    original = StabilizerState.measure_pauli

    def counting(self, p, rng):
        counter["n"] += 1
        return original(self, p, rng)

    monkeypatch.setattr(StabilizerState, "measure_pauli", counting)
    knill_ec_round(code, dec, PauliOperator.identity(code.n), NO_NOISE, stream(47))
    expected = 3 * code.r_x + code.k + 2 * code.n
    assert counter["n"] == expected


def test_undecodable_syndrome_counts_as_failure():
    code = codes.shor9()
    dec = LookupDecoder(code, weight_cap=0)
    err = PauliOperator.single(code.n, 0, "X")
    rep = knill_ec_round(code, dec, err, NO_NOISE, stream(48))
    assert rep.logical_failure
    assert rep.decode is None
    assert rep.residual_logical_x.all() and rep.residual_logical_z.all()
