"""Knill teleportation-based error correction.

One round teleports the data block through an encoded EPR pair via a
transversal Bell measurement; the outcome bits carry both the error
syndromes and the logical teleportation frame, so a single measurement
round suffices (single-shot decoding).

Block layout inside the simulator: data block [0, n), EPR half A
[n, 2n) (consumed by the Bell measurement), EPR half B [2n, 3n)
(the output block). One round costs 4 time units: ancilla preparation,
two CNOT steps, one measurement step.

Two engines share one failure account (_frame_account):

- knill_residuals samples rounds as Pauli frames. Pauli errors propagate
  linearly through the round's Clifford circuit, so the outcome flips,
  the syndromes and the residual on the output block are GF(2) products
  of the injected error bits; no tableau is needed. Each chunk of trials
  is decoded with one decode_batch call, with no per-trial Python loop.
  This is the Monte Carlo engine of the knill and decode commands and the
  encoded chain modes (decode is a round with a perfect EPR pair and
  exact readout).
- knill_ec_round runs one round on the 3n-qubit stabilizer tableau and
  asserts that the tableau syndrome equals the linear model's. It is the
  oracle of the frame engine; the tests check the two against each
  other on every single-qubit error and readout flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qnetcode import gf2
from qnetcode.codes import CssCode
from qnetcode.decoders import DecodeResult
from qnetcode.noise import NoiseModel, sample_error
from qnetcode.pauli import PauliOperator, block_pauli
from qnetcode.rng import stream
from qnetcode.stabsim import StabilizerState

ROUND_COST_T = 4
# trials per batch of knill_residuals: bounds the memory of large runs
FRAME_CHUNK = 4096


@dataclass
class BellOutcomeBlock:
    """Transversal Bell-measurement outcomes.

    u: X-basis outcomes of the data block (measured after the H layer);
    v: Z-basis outcomes of the ancilla block A.
    """

    u: np.ndarray
    v: np.ndarray


@dataclass
class KnillReport:
    s_x_checks: np.ndarray
    s_z_checks: np.ndarray
    logical_xx: np.ndarray
    logical_zz: np.ndarray
    decode: Optional[DecodeResult]
    logical_failure: bool
    # k-bit indicators: residual acts as logical X_i / Z_i on the output
    residual_logical_x: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    residual_logical_z: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    cost_T: int = ROUND_COST_T


@dataclass(frozen=True)
class KnillNoise:
    """Noise hooks for one EC round."""

    epr_error: NoiseModel = field(default_factory=NoiseModel.none)
    meas_flip: NoiseModel = field(default_factory=NoiseModel.none)
    data_noise: NoiseModel = field(default_factory=NoiseModel.none)


def _row_pauli(n_total: int, offset: int, support: np.ndarray, kind: str) -> PauliOperator:
    """X-type (kind "X") or Z-type Pauli on ``support``, placed at ``offset``."""
    zero = np.zeros(len(support), dtype=np.uint8)
    if kind == "X":
        return block_pauli(n_total, offset, support, zero)
    return block_pauli(n_total, offset, zero, support)


def prepare_logical_zero(state: StabilizerState, code: CssCode, offset: int, rng: np.random.Generator):
    """Project an all-zeros block into logical |0> of the code.

    |0...0> already satisfies the Z checks and logical Z; measuring each
    X check and applying a Z fixup solving h_x f = outcomes forces the
    +1 eigenspace.
    """
    n_total = state.num_qubits
    outcomes = np.array(
        [state.measure_pauli(_row_pauli(n_total, offset, row, "X"), rng) for row in code.h_x],
        dtype=np.uint8,
    )
    if code.r_x and outcomes.any():
        fix = gf2.solve(code.h_x, outcomes)
        if fix is None:
            raise AssertionError("X-check outcomes inconsistent with h_x row space")
        state.apply_pauli(_row_pauli(n_total, offset, fix, "Z"))


def prepare_logical_epr(
    state: StabilizerState, code: CssCode, off_a: int, off_b: int, rng: np.random.Generator
):
    """Entangle two logical-|0> blocks into a logical EPR pair.

    Measures XbarXbar for each logical qubit and fixes a -1 outcome by a
    logical Z on block A.
    """
    n_total = state.num_qubits
    prepare_logical_zero(state, code, off_a, rng)
    prepare_logical_zero(state, code, off_b, rng)
    for i in range(code.k):
        lx = code.logical_x[i]
        pair = _row_pauli(n_total, off_a, lx, "X") * _row_pauli(n_total, off_b, lx, "X")
        if state.measure_pauli(pair, rng):
            state.apply_pauli(_row_pauli(n_total, off_a, code.logical_z[i], "Z"))


def _run_round(
    code: CssCode,
    data_error: PauliOperator,
    epr_error: PauliOperator,
    rng: np.random.Generator,
):
    """Full tableau execution of one encoded Bell measurement.

    Returns (outcomes, state): the noiseless readout of the transversal
    Bell measurement, and the post-state, which holds the (uncorrected)
    output block at offset 2n.
    """
    n = code.n
    if data_error.num_qubits != n:
        raise ValueError("data error must act on n qubits")
    if epr_error.num_qubits != 2 * n:
        raise ValueError("EPR error must span the 2n EPR qubits")
    state = StabilizerState(3 * n)
    prepare_logical_zero(state, code, 0, rng)
    prepare_logical_epr(state, code, n, 2 * n, rng)
    state.apply_pauli(block_pauli(3 * n, 0, data_error.x_bits, data_error.z_bits))
    state.apply_pauli(block_pauli(3 * n, n, epr_error.x_bits, epr_error.z_bits))
    for i in range(n):
        state.cnot(i, n + i)
    for i in range(n):
        state.h(i)
    u = np.array([state.measure_z(i, rng) for i in range(n)], dtype=np.uint8)
    v = np.array([state.measure_z(n + i, rng) for i in range(n)], dtype=np.uint8)
    return BellOutcomeBlock(u=u, v=v), state


def _draw_flips(meas_flip: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Classical readout flips as a (2, n) array: row 0 flips u, row 1 v."""
    p = meas_flip.flip_probability()
    return (rng.random((2, n)) < p).astype(np.uint8) if p else np.zeros((2, n), dtype=np.uint8)


def _flip_readout(outcomes: BellOutcomeBlock, meas_flip: NoiseModel, rng: np.random.Generator):
    """Readout flips drawn after the round; returns (flipped outcomes, flips)."""
    flips = _draw_flips(meas_flip, len(outcomes.u), rng)
    return BellOutcomeBlock(u=outcomes.u ^ flips[0], v=outcomes.v ^ flips[1]), flips


def encoded_bell_measure(
    code: CssCode,
    data_error: PauliOperator,
    epr_error: PauliOperator,
    meas_flip: NoiseModel,
    rng: np.random.Generator,
) -> BellOutcomeBlock:
    """Transversal Bell measurement of the data block against an encoded
    EPR pair, with the given errors injected."""
    outcomes, _ = _run_round(code, data_error, epr_error, rng)
    return _flip_readout(outcomes, meas_flip, rng)[0]


def extract(outcomes: BellOutcomeBlock, code: CssCode):
    """(s_x_checks, s_z_checks, logical_xx, logical_zz) from the raw bits.

    Assignment validated against the tableau oracle: the X-basis data
    outcomes u feed the phase checks and logical XX; the Z-basis ancilla
    outcomes v feed the bit checks and logical ZZ.
    """
    u = np.asarray(outcomes.u, dtype=np.uint8)
    v = np.asarray(outcomes.v, dtype=np.uint8)
    if u.shape != (code.n,) or v.shape != (code.n,):
        raise ValueError("outcome block length does not match code.n")
    s_x = gf2.matvec(code.h_x, u) if code.r_x else np.zeros(0, dtype=np.uint8)
    s_z = gf2.matvec(code.h_z, v) if code.r_z else np.zeros(0, dtype=np.uint8)
    logical_xx = gf2.matvec(code.logical_x, u)
    logical_zz = gf2.matvec(code.logical_z, v)
    return s_x, s_z, logical_xx, logical_zz


def apply_output_corrections(
    state: StabilizerState,
    code: CssCode,
    correction: PauliOperator,
    logical_xx: np.ndarray,
    logical_zz: np.ndarray,
):
    """Apply the decoded correction plus the teleportation frame to the
    output block (offset 2n). Frame convention: Xbar^zz then Zbar^xx."""
    n = code.n
    state.apply_pauli(block_pauli(3 * n, 2 * n, correction.x_bits, correction.z_bits))
    for i in range(code.k):
        if logical_zz[i]:
            state.apply_pauli(_row_pauli(3 * n, 2 * n, code.logical_x[i], "X"))
        if logical_xx[i]:
            state.apply_pauli(_row_pauli(3 * n, 2 * n, code.logical_z[i], "Z"))


def verify_output(
    state: StabilizerState,
    code: CssCode,
    logical_z_bits: Optional[np.ndarray] = None,
) -> bool:
    """Output block is syndrome-clean and (optionally) holds the expected
    logical Z eigenvalues."""
    n = code.n
    for row in code.h_x:
        if state.expectation(_row_pauli(3 * n, 2 * n, row, "X")) != 1:
            return False
    for row in code.h_z:
        if state.expectation(_row_pauli(3 * n, 2 * n, row, "Z")) != 1:
            return False
    if logical_z_bits is not None:
        for i in range(code.k):
            want = -1 if logical_z_bits[i] else 1
            if state.expectation(_row_pauli(3 * n, 2 * n, code.logical_z[i], "Z")) != want:
                return False
    return True


def _frame_account(code: CssCode, decoder, data_x, data_z, epr_x, epr_z):
    """Failure account of a batch of rounds from the linear error model.

    data_x, data_z: (T, n) errors on the data block; a readout flip of u
    (v) enters as a Z (X) data error, which shifts the outcomes the same
    way. epr_x, epr_z: (T, 2n) errors on EPR halves A and B.

    The batch's syndromes go to the decoder in one decode_batch call. The
    residual on the output block is (outcome flips + correction + half-B
    error); its logical class is its commutation with the logical
    operators. An undecodable syndrome sets every class bit. Returns
    (s_x, s_z, acts_as_x, acts_as_z, decoded): syndromes (T, r), residual
    classes (T, k) and decode_batch's (corr_x, corr_z, ok, converged,
    iterations).
    """
    n = code.n
    e_u = data_z ^ epr_z[:, :n]  # flips of the X-basis data outcomes u
    e_v = data_x ^ epr_x[:, :n]  # flips of the Z-basis ancilla outcomes v
    s_x = gf2.matmul(e_u, code.h_x.T)
    s_z = gf2.matmul(e_v, code.h_z.T)
    decoded = decoder.decode_batch(s_x, s_z)
    corr_x, corr_z, ok, _, _ = decoded
    acts_as_x = gf2.matmul(e_v ^ epr_x[:, n:] ^ corr_x, code.logical_z.T)
    acts_as_z = gf2.matmul(e_u ^ epr_z[:, n:] ^ corr_z, code.logical_x.T)
    acts_as_x[~ok] = 1
    acts_as_z[~ok] = 1
    return s_x, s_z, acts_as_x, acts_as_z, decoded


def knill_residuals(
    code: CssCode, decoder, noise: KnillNoise, seed: int, key: tuple[int, ...], trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (x_bad, z_bad, iterations) arrays of `trials` Knill rounds.

    Trial t draws from stream(seed, *key, t): data noise, then EPR noise,
    then readout flips (u, then v), as knill_ec_round does minus the
    tableau's own draws. x_bad (z_bad) is set where the residual acts as
    a logical X (Z) on the output; an undecodable syndrome sets both.
    iterations holds the decoder's iteration count (0 where it reports
    none or the syndrome is undecodable).

    With a perfect EPR pair and no readout flips the output carries the
    data error's decoded residual, so this is also code-capacity decoding.
    A model that draws nothing (variant none, flip probability 0) is not
    called: it would only XOR in zeros.
    """
    n = code.n
    data_draws = noise.data_noise.variant != "none"
    epr_draws = noise.epr_error.variant != "none"
    flip_draws = noise.meas_flip.flip_probability() > 0
    x_bad = np.zeros(trials, dtype=bool)
    z_bad = np.zeros(trials, dtype=bool)
    iterations = np.zeros(trials, dtype=np.int64)
    for start in range(0, trials, FRAME_CHUNK):
        count = min(FRAME_CHUNK, trials - start)
        data_x, data_z = np.zeros((2, count, n), dtype=np.uint8)
        epr_x, epr_z = np.zeros((2, count, 2 * n), dtype=np.uint8)
        for i in range(count):
            rng = stream(seed, *key, start + i)
            if data_draws:
                data = sample_error(noise.data_noise, n, rng)
                data_x[i], data_z[i] = data.x_bits, data.z_bits
            if epr_draws:
                epr = sample_error(noise.epr_error, 2 * n, rng)
                epr_x[i], epr_z[i] = epr.x_bits, epr.z_bits
            if flip_draws:
                flips = _draw_flips(noise.meas_flip, n, rng)
                data_x[i] ^= flips[1]
                data_z[i] ^= flips[0]
        _, _, acts_as_x, acts_as_z, (_, _, ok, _, its) = _frame_account(
            code, decoder, data_x, data_z, epr_x, epr_z
        )
        x_bad[start : start + count] = acts_as_x.any(axis=1) | ~ok
        z_bad[start : start + count] = acts_as_z.any(axis=1) | ~ok
        iterations[start : start + count] = its
    return x_bad, z_bad, iterations


def knill_ec_round(
    code: CssCode,
    decoder,
    data_error: PauliOperator,
    noise: KnillNoise,
    rng: np.random.Generator,
) -> KnillReport:
    """One single-shot EC round on the stabilizer tableau: encoded Bell
    measurement, extraction, one decode, failure accounting.

    The failure account is _frame_account's, fed with the injected
    errors; the tableau syndrome must equal the account's on every call.
    The output block itself is never corrected (apply_output_corrections
    and verify_output are the tableau oracle of the residual in the
    tests). An undecodable syndrome is recorded as a failure.
    """
    n = code.n
    data = data_error
    if noise.data_noise.variant != "none":
        extra = sample_error(noise.data_noise, n, rng)
        data = PauliOperator(n, data.x_bits ^ extra.x_bits, data.z_bits ^ extra.z_bits)
    epr = sample_error(noise.epr_error, 2 * n, rng)
    outcomes, _ = _run_round(code, data, epr, rng)
    # the flips stay known to the failure account
    outcomes, flips = _flip_readout(outcomes, noise.meas_flip, rng)
    s_x, s_z, logical_xx, logical_zz = extract(outcomes, code)

    frame_s_x, frame_s_z, acts_as_x, acts_as_z, decoded = _frame_account(
        code, decoder,
        (data.x_bits ^ flips[1])[None], (data.z_bits ^ flips[0])[None],
        epr.x_bits[None], epr.z_bits[None],
    )
    if not (np.array_equal(s_x, frame_s_x[0]) and np.array_equal(s_z, frame_s_z[0])):
        raise AssertionError("tableau syndrome disagrees with the linear error model")
    corr_x, corr_z, ok, converged, its = decoded
    result = (
        DecodeResult(PauliOperator(n, corr_x[0], corr_z[0]), bool(converged[0]), int(its[0]))
        if ok[0] else None
    )
    return KnillReport(
        s_x, s_z, logical_xx, logical_zz, result,
        logical_failure=bool(result is None or acts_as_x.any() or acts_as_z.any()),
        residual_logical_x=acts_as_x[0], residual_logical_z=acts_as_z[0],
    )
