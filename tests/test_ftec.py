import itertools

import numpy as np
import pytest

from qnetcode import codes, ftec, gf2
from qnetcode.decoders import BpDecoder, LookupDecoder, MatchingDecoder
from qnetcode.ftec import (
    ROUND_COST_T,
    KnillNoise,
    _frame_account,
    _run_round,
    apply_output_corrections,
    draw_faults,
    extract,
    knill_ec_round,
    knill_residuals,
    prepare_logical_epr,
    prepare_logical_zero,
    verify_output,
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
    zero = np.zeros(code.n)
    for row in code.h_x:
        assert state.expectation(PauliOperator(code.n, row)) == 1
    for row in code.h_z:
        assert state.expectation(PauliOperator(code.n, zero, row)) == 1
    assert state.expectation(PauliOperator(code.n, zero, code.logical_z[0])) == 1


def test_prepare_logical_epr_correlations():
    code = codes.rep3()
    n = code.n
    rng = stream(41)
    state = StabilizerState(3 * n)
    prepare_logical_epr(state, code, n, rng)
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
        assert rep.decodable and not rep.logical_failure
        assert ROUND_COST_T == 4
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
    for q in range(n):
        for letter in "XYZ":
            err = PauliOperator.single(n, q, letter)
            s_x, s_z, lxx, lzz = extract(np.array([err.z_bits, err.x_bits]), code)
            want_sx, want_sz = codes.syndrome(code, err)
            assert np.array_equal(s_x, want_sx)
            assert np.array_equal(s_z, want_sz)
            assert np.array_equal(lxx, gf2.matvec(code.logical_x, err.z_bits))
            assert np.array_equal(lzz, gf2.matvec(code.logical_z, err.x_bits))


def test_extract_validates_shapes():
    code = codes.rep3()
    for shape in ((2, 2), (3, 3), (6,)):
        with pytest.raises(ValueError, match=r"\(2, 3\) array"):
            extract(np.zeros(shape, dtype=np.uint8), code)


def test_epr_half_a_errors_look_like_data_errors():
    """An error on EPR half A shifts the outcomes the same way as the
    matching data error; half-B errors leave the outcomes untouched."""
    code = codes.rep3()
    n = code.n
    rng_pairs = [(stream(44, t, 0), stream(44, t, 1), stream(44, t, 2)) for t in range(10)]
    for rng_a, rng_b, rng_c in rng_pairs:
        epr_a = PauliOperator(2 * n, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
        data = PauliOperator(n, [1, 0, 0], [0, 1, 0])
        out_a = extract(_run_round(code, PauliOperator.identity(n), epr_a, rng_a)[0], code)
        out_d = extract(_run_round(code, data, PauliOperator.identity(2 * n), rng_b)[0], code)
        # compare syndromes only: the logical bits are genuinely random
        # teleportation outcomes in every run
        for got, want in zip(out_a[:2], out_d[:2]):
            assert np.array_equal(got, want)
        epr_b = PauliOperator(2 * n, [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0])
        out_b = extract(_run_round(code, PauliOperator.identity(n), epr_b, rng_c)[0], code)
        assert not out_b[0].any() and not out_b[1].any()


def test_epr_half_b_logical_error_corrupts_output_silently():
    """A logical X on EPR half B leaves every syndrome clean but flips
    the output's logical Z eigenvalue: exactly the failure the residual
    accounting must catch."""
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
    noisy = KnillNoise(meas_flip=0.4)
    identity = PauliOperator.identity(code.n)
    failures = sum(
        knill_ec_round(code, dec, identity, noisy, stream(46, t)).logical_failure
        for t in range(200)
    )
    assert failures > 0


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_meas_flip_must_be_a_probability(p):
    with pytest.raises(ValueError, match="meas_flip"):
        KnillNoise(meas_flip=p)


def test_round_measures_each_qubit_exactly_once(monkeypatch):
    """Single-shot check: one EC round performs exactly the preparation
    measurements plus one transversal readout of the 2n Bell qubits."""
    code = codes.shor9()
    dec = LookupDecoder(code)
    counter = {"n": 0}
    original = StabilizerState.measure_pauli

    def counting(self, p, rng, at=0):
        counter["n"] += 1
        return original(self, p, rng, at)

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
    assert not rep.decodable
    assert rep.residual_logical_x.all() and rep.residual_logical_z.all()


def _single_faults(n):
    """Every single-qubit X and Z on the 3n round qubits, then every single
    readout flip of u and of v, as (data_x, data_z, epr_x, epr_z, flips)."""
    for q in range(3 * n):
        for kind in (0, 1):  # X, Z
            bits = np.zeros((2, 3 * n), dtype=np.uint8)
            bits[kind, q] = 1
            yield bits[0, :n], bits[1, :n], bits[0, n:], bits[1, n:], np.zeros((2, n), dtype=np.uint8)
    for side in (0, 1):  # u, v
        for j in range(n):
            flips = np.zeros((2, n), dtype=np.uint8)
            flips[side, j] = 1
            zero, zero2 = np.zeros(n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8)
            yield zero, zero, zero2, zero2, flips


def _plus_data_block(original):
    """prepare_logical_zero, except that the data block (offset 0) ends in
    logical |+...+>: measure every logical X, then fix the -1 outcomes with
    a combination of logical Zs."""

    def prepare(state, code, offset, rng):
        original(state, code, offset, rng)
        if offset:
            return
        n = code.n
        outcomes = np.array(
            [state.measure_pauli(PauliOperator(n, row), [rng])[0] for row in code.logical_x], dtype=np.uint8
        )
        fix = gf2.solve(gf2.matmul(code.logical_x, code.logical_z.T), outcomes)
        for i in np.flatnonzero(fix):
            state.apply_pauli(np.zeros(n), code.logical_z[i])

    return prepare


BASIS_CODES = [
    (codes.rep3(), LookupDecoder),
    (codes.shor9(), LookupDecoder),
    (codes.rotated_surface(3), MatchingDecoder),
    (codes.rotated_surface(5), MatchingDecoder),
    # [[20, 4]] hypergraph product: k > 1, qubits on more than two checks
    (codes.hypergraph_product([[0, 1, 1, 0], [1, 0, 0, 1]], [[0, 1, 1, 0], [1, 0, 0, 1]]),
     lambda code: BpDecoder(code, 0.05, max_iters=10)),
]


@pytest.mark.parametrize("code,make_decoder", BASIS_CODES, ids=[c.name for c, _ in BASIS_CODES])
def test_frame_engine_matches_tableau_on_pauli_basis(code, make_decoder, monkeypatch):
    """The frame engine agrees with the tableau on every single-qubit X
    and Z of the 3n round qubits and every single readout flip.

    Pauli propagation through the round's Clifford circuit is linear over
    GF(2), and the decoder sees the same syndrome in both, so agreement on
    this basis proves agreement on every error. The output block reads
    the residual class directly: on a logical |0> input its logical Z
    eigenvalues give the X class; on a logical |+> input its logical X
    eigenvalues give the Z class. Those eigenvalues are defined even when
    the output syndrome is not clean, because the input is an eigenstate
    of the logical operator and the residual is a Pauli.
    """
    n = code.n
    decoder = make_decoder(code)
    prepare_zero = ftec.prepare_logical_zero
    for attr, logical in (("Z", code.logical_z), ("X", code.logical_x)):
        if attr == "X":  # logical |+> input
            monkeypatch.setattr(ftec, "prepare_logical_zero", _plus_data_block(prepare_zero))
        for idx, (data_x, data_z, epr_x, epr_z, flips) in enumerate(_single_faults(n)):
            outcomes, state = _run_round(
                code, PauliOperator(n, data_x, data_z), PauliOperator(2 * n, epr_x, epr_z),
                stream(62, n, idx),
            )
            s_x, s_z, lxx, lzz = extract(outcomes ^ flips, code)
            f_s_x, f_s_z, acts_as_x, acts_as_z, (corr_x, corr_z, ok, _, _) = _frame_account(
                code, decoder, *(a[None] for a in (data_x, data_z, epr_x, epr_z, flips))
            )
            assert np.array_equal(s_x, f_s_x[0]) and np.array_equal(s_z, f_s_z[0]), idx
            assert ok[0]  # every decoder here takes every single-fault syndrome
            apply_output_corrections(state, code, PauliOperator(n, corr_x[0], corr_z[0]), lxx, lzz)
            acts = acts_as_x[0] if attr == "Z" else acts_as_z[0]
            for i in range(code.k):
                want = -1 if acts[i] else 1
                bits = (logical[i], np.zeros(n)) if attr == "X" else (np.zeros(n), logical[i])
                assert state.expectation(PauliOperator(n, *bits), 2 * n) == want, (attr, idx, i)
            if attr == "Z":
                clean = verify_output(state, code)
                assert verify_output(state, code, logical_z_bits=acts_as_x[0]) == clean, idx


@pytest.mark.parametrize(
    "code,make_decoder,noise",
    [
        (codes.shor9(), LookupDecoder,
         KnillNoise(epr_error=NoiseModel.depolarizing(0.03), data_noise=NoiseModel.depolarizing(0.05))),
        (codes.rotated_surface(3), MatchingDecoder,
         KnillNoise(epr_error=NoiseModel.independent_xz(0.04, 0.02), data_noise=NoiseModel.bit_flip(0.05))),
        (codes.shor9(), LookupDecoder,
         KnillNoise(data_noise=NoiseModel.depolarizing(0.03), meas_flip=0.05)),
    ],
    ids=["shor9", "surface:3", "shor9-readout-flips"],
)
def test_frame_engine_matches_knill_ec_round_trial_for_trial(code, make_decoder, noise):
    """The batch and the tableau round draw the same faults, readout flips
    included, from the same per-trial streams before the tableau's own
    draws, so their per-trial residual classes agree exactly."""
    decoder = make_decoder(code)
    trials = 150
    x_bad, z_bad, _ = knill_residuals(code, decoder, noise, 63, (5,), trials)
    identity = PauliOperator.identity(code.n)
    for t in range(trials):
        rep = knill_ec_round(code, decoder, identity, noise, stream(63, 5, t))
        assert (x_bad[t], z_bad[t]) == (rep.residual_logical_x.any(), rep.residual_logical_z.any()), t
        assert rep.logical_failure == (x_bad[t] or z_bad[t])
    assert 0 < (x_bad | z_bad).sum() < trials


def test_frame_engine_chunks_do_not_change_results(monkeypatch):
    code = codes.shor9()
    decoder = LookupDecoder(code)
    noise = KnillNoise(data_noise=NoiseModel.depolarizing(0.1), meas_flip=0.05)
    whole = knill_residuals(code, decoder, noise, 64, (), 100)
    monkeypatch.setattr(ftec, "FRAME_CHUNK", 7)
    chunked = knill_residuals(code, decoder, noise, 64, (), 100)
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


def test_frame_engine_chunks_equal_one_batch_of_per_trial_streams(monkeypatch):
    """knill_residuals in chunks of 7 gives what one batch of the trials'
    own stream(seed, *key, t) generators gives, for a key whose first word
    takes two 32-bit entropy words."""
    code = codes.rotated_surface(3)
    decoder = MatchingDecoder(code)
    noise = KnillNoise(
        epr_error=NoiseModel.independent_xz(0.04, 0.02), meas_flip=0.03, data_noise=NoiseModel.depolarizing(0.05)
    )
    key, trials = (2**33, 5), 30
    monkeypatch.setattr(ftec, "FRAME_CHUNK", 7)
    x_bad, z_bad, iterations = knill_residuals(code, decoder, noise, 68, key, trials)
    faults = draw_faults(noise, code.n, [stream(68, *key, t) for t in range(trials)])
    _, _, acts_as_x, acts_as_z, (_, _, _, _, its) = _frame_account(code, decoder, *faults)
    assert np.array_equal(x_bad, acts_as_x.any(axis=1)) and np.array_equal(z_bad, acts_as_z.any(axis=1))
    assert np.array_equal(iterations, its)
    assert 0 < (x_bad | z_bad).sum() < trials


def test_frame_engine_counts_undecodable_as_both_bad():
    code = codes.shor9()
    decoder = LookupDecoder(code, weight_cap=0)  # only the empty syndrome decodes
    noise = KnillNoise(data_noise=NoiseModel.bit_flip(0.1))
    x_bad, z_bad, _ = knill_residuals(code, decoder, noise, 65, (), 50)
    undecodable = [
        not knill_ec_round(code, decoder, PauliOperator.identity(code.n), noise, stream(65, t)).decodable
        for t in range(50)
    ]
    assert any(undecodable) and not all(undecodable)
    assert all(x_bad[t] and z_bad[t] for t in range(50) if undecodable[t])


def test_code_without_logical_qubit_raises():
    code = codes.from_id("hgp:0:3:3:1")
    assert code.k == 0
    decoder = LookupDecoder(code)
    with pytest.raises(ValueError, match="no logical qubit"):
        knill_residuals(code, decoder, NO_NOISE, 0, (), 5)
    with pytest.raises(ValueError, match="no logical qubit"):
        knill_ec_round(code, decoder, PauliOperator.identity(code.n), NO_NOISE, stream(0))


@pytest.mark.parametrize(
    "noise,uniforms_per_trial",
    [  # shor9, n = 9
        (KnillNoise(data_noise=NoiseModel.independent_xz(0.05, 0.05)), 18),
        (KnillNoise(epr_error=NoiseModel.depolarizing(0.05)), 18),
        (KnillNoise(data_noise=NoiseModel.bit_flip(0.05), meas_flip=0.0), 9),
        (KnillNoise(data_noise=NoiseModel.bit_flip(0.0), epr_error=NoiseModel.bit_flip(0.05)), 27),
        (KnillNoise(data_noise=NoiseModel.depolarizing(0.05), meas_flip=0.05), 27),
        (NO_NOISE, 0),
    ],
)
def test_frame_engine_draws_only_what_models_read(monkeypatch, noise, uniforms_per_trial):
    """Each trial's stream hands out data.uniforms(n) + epr.uniforms(2n)
    + (2n if meas_flip else 0) uniforms: a none model or a zero flip
    probability reads none, a model with p = 0 still draws. Per-trial
    results equal the tableau round's."""
    code = codes.shor9()
    decoder = LookupDecoder(code)
    handed_out = []

    class CountingRng:
        """Counts the uniforms a trial's stream hands out."""

        def __init__(self, rng):
            self.rng = rng
            self.trial = len(handed_out)
            handed_out.append(0)

        def random(self, size):
            handed_out[self.trial] += np.prod(size, dtype=int)
            return self.rng.random(size)

    streams_of = ftec.streams
    monkeypatch.setattr(ftec, "streams", lambda *args: [CountingRng(rng) for rng in streams_of(*args)])
    x_bad, z_bad, _ = knill_residuals(code, decoder, noise, 66, (), 40)
    assert handed_out == [uniforms_per_trial] * 40
    n = code.n
    assert uniforms_per_trial == (
        noise.data_noise.uniforms(n) + noise.epr_error.uniforms(2 * n) + (2 * n if noise.meas_flip else 0)
    )
    monkeypatch.undo()
    for t in range(40):
        rep = knill_ec_round(code, decoder, PauliOperator.identity(code.n), noise, stream(66, t))
        assert (x_bad[t], z_bad[t]) == (rep.residual_logical_x.any(), rep.residual_logical_z.any()), t


def _per_trial_sample_error(model, n, rng):
    """The per-trial sampler draw_faults replaced: one rng call per
    channel, X and Z bits of n qubits."""
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    if model.variant == "bit_flip":
        x = (rng.random(n) < model.p).astype(np.uint8)
    elif model.variant == "phase_flip":
        z = (rng.random(n) < model.p).astype(np.uint8)
    elif model.variant == "independent_xz":
        x = (rng.random(n) < model.p).astype(np.uint8)
        z = (rng.random(n) < model.p_z).astype(np.uint8)
    elif model.variant == "depolarizing":
        u = rng.random(n)
        third = model.p / 3.0
        x = (u < 2 * third).astype(np.uint8)
        z = ((u >= third) & (u < 3 * third)).astype(np.uint8)
    return x, z


def _per_trial_faults(noise, n, rng):
    """One trial's faults as drawn before the chunk kernel: data, then EPR,
    then a (2, n) flip draw, each skipped when it draws nothing."""
    data_x, data_z = _per_trial_sample_error(noise.data_noise, n, rng)
    epr_x, epr_z = _per_trial_sample_error(noise.epr_error, 2 * n, rng)
    flips = np.zeros((2, n), dtype=np.uint8)
    if noise.meas_flip:
        flips = (rng.random((2, n)) < noise.meas_flip).astype(np.uint8)
    return data_x, data_z, epr_x, epr_z, flips


def _models(p):
    return (
        NoiseModel.none(),
        NoiseModel.bit_flip(p),
        NoiseModel.phase_flip(p),
        NoiseModel.depolarizing(p),
        NoiseModel.independent_xz(p, 1 - p),  # unequal, so swapped X and Z slices show
    )


@pytest.mark.parametrize("p", [0.0, 0.07, 1.0])
@pytest.mark.parametrize("meas_flip", [0.0, 0.07])
def test_draw_faults_matches_per_trial_sampler(p, meas_flip):
    """draw_faults over T streams equals the per-trial sampler bit for bit
    for every data and EPR model pair, and leaves each stream where the
    per-trial draws left it."""
    n, trials = 4, 25
    for data_noise, epr_error in itertools.product(_models(p), repeat=2):
        noise = KnillNoise(epr_error=epr_error, meas_flip=meas_flip, data_noise=data_noise)
        rngs = [stream(67, t) for t in range(trials)]
        refs = [stream(67, t) for t in range(trials)]
        got = draw_faults(noise, n, rngs)
        want = [np.array(a) for a in zip(*(_per_trial_faults(noise, n, rng) for rng in refs))]
        for g, w in zip(got, want):
            assert g.dtype == np.uint8 and np.array_equal(g, w), noise
        for rng, ref in zip(rngs, refs):
            assert np.array_equal(rng.random(3), ref.random(3)), noise
