"""Knill teleportation-based error correction.

One round teleports the data block through an encoded EPR pair via a
transversal Bell measurement; the outcome bits carry both the error
syndromes and the logical teleportation frame, so a single measurement
round suffices (single-shot decoding).

Block layout inside the simulator: data block [0, n), EPR half A
[n, 2n) (consumed by the Bell measurement), EPR half B [2n, 3n)
(the output block). One round costs 4 time units: ancilla preparation,
two CNOT steps, one measurement step.

Both engines read one data model. draw_faults makes one draw of
uniforms per round's stream and thresholds a chunk's (T, m) array at
once. The Bell outcomes and the readout flips share one layout, a (2, n)
array [u; v] (u: X-basis outcomes of the data block, v: Z-basis outcomes
of EPR half A), so a flipped readout is outcomes ^ flips. One failure
account (_frame_account) turns the faults into syndromes and residual
classes.

- knill_residuals samples rounds as Pauli frames. Pauli errors propagate
  linearly through the round's Clifford circuit, so the outcome flips,
  the syndromes and the residual on the output block are GF(2) products
  of the drawn fault bits; no tableau is needed. Each chunk of trials
  takes its per-trial streams from one rng.streams call and is decoded
  with one decode_batch call.
  This is the Monte Carlo engine of the knill and decode commands and the
  encoded chain modes (decode is a round with a perfect EPR pair and
  exact readout).
- knill_ec_round draws the same faults first, then runs the round on the
  3n-qubit stabilizer tableau and asserts that the tableau syndrome
  equals the account's. It is the oracle of the frame engine; the tests
  check the two against each other on every single-qubit error and
  readout flip, and trial for trial on seeded noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qnetcode import gf2
from qnetcode.codes import CssCode, parities
from qnetcode.noise import NoiseModel, draw_uniforms, pauli_bits
from qnetcode.pauli import PauliOperator
from qnetcode.rng import streams
from qnetcode.stabsim import StabilizerState

ROUND_COST_T = 4
# trials per batch of knill_residuals: bounds the memory of large runs
FRAME_CHUNK = 4096


@dataclass
class KnillReport:
    s_x_checks: np.ndarray
    s_z_checks: np.ndarray
    logical_xx: np.ndarray
    logical_zz: np.ndarray
    decodable: bool
    logical_failure: bool
    # k-bit indicators: residual acts as logical X_i / Z_i on the output
    residual_logical_x: np.ndarray
    residual_logical_z: np.ndarray


@dataclass(frozen=True)
class KnillNoise:
    """Noise of one EC round: Pauli noise on the 2n EPR qubits, the
    probability that each of the 2n Bell readout bits flips, and Pauli
    noise on the data block."""

    epr_error: NoiseModel = field(default_factory=NoiseModel.none)
    meas_flip: float = 0.0
    data_noise: NoiseModel = field(default_factory=NoiseModel.none)

    def __post_init__(self):
        if not 0.0 <= self.meas_flip <= 1.0:
            raise ValueError(f"meas_flip must be a probability in [0, 1], got {self.meas_flip}")


def draw_faults(noise: KnillNoise, n: int, rngs):
    """Faults of one round per generator in rngs, over T = len(rngs):
    data_x, data_z (T, n); epr_x, epr_z (T, 2n) on EPR halves A and B;
    flips (T, 2, n) in the readout layout [u; v].

    Each generator makes one draw of uniforms, cut into data noise on n
    qubits, EPR noise on 2n, and readout flips as a bit_flip(meas_flip)
    channel on 2n bits (none when meas_flip is 0, reading no uniforms).
    """
    flip = NoiseModel.bit_flip(noise.meas_flip) if noise.meas_flip else NoiseModel.none()
    channels = ((noise.data_noise, n), (noise.epr_error, 2 * n), (flip, 2 * n))
    sizes = [model.uniforms(qubits) for model, qubits in channels]
    u = draw_uniforms(rngs, sum(sizes))
    (data_x, data_z), (epr_x, epr_z), (flips, _) = (
        pauli_bits(model, part, qubits)
        for (model, qubits), part in zip(channels, np.split(u, np.cumsum(sizes)[:-1], axis=1))
    )
    return data_x, data_z, epr_x, epr_z, flips.reshape(-1, 2, n)


def prepare_logical_zero(state: StabilizerState, code: CssCode, offset: int, rng: np.random.Generator):
    """Project the all-zeros block at ``offset`` into logical |0> of the code.

    |0...0> already satisfies the Z checks and logical Z; measuring each
    X check and applying a Z fixup solving h_x f = outcomes forces the
    +1 eigenspace.
    """
    n = code.n
    outcomes = np.array([state.measure_pauli(PauliOperator(n, row), [rng], offset)[0] for row in code.h_x])
    if code.r_x and outcomes.any():
        fix = gf2.solve(code.h_x, outcomes)
        if fix is None:
            raise AssertionError("X-check outcomes inconsistent with h_x row space")
        state.apply_pauli(np.zeros(n), fix, offset)


def prepare_logical_epr(state: StabilizerState, code: CssCode, offset: int, rng: np.random.Generator):
    """Entangle two logical-|0> blocks, A at ``offset`` and B right after
    it, into a logical EPR pair.

    Measures XbarXbar for each logical qubit and fixes a -1 outcome by a
    logical Z on block A.
    """
    n = code.n
    prepare_logical_zero(state, code, offset, rng)
    prepare_logical_zero(state, code, offset + n, rng)
    for lx, lz in zip(code.logical_x, code.logical_z):
        if state.measure_pauli(PauliOperator(2 * n, np.concatenate([lx, lx])), [rng], offset)[0]:
            state.apply_pauli(np.zeros(n), lz, offset)


def _run_round(
    code: CssCode,
    data_error: PauliOperator,
    epr_error: PauliOperator,
    rng: np.random.Generator,
):
    """Full tableau execution of one encoded Bell measurement.

    Returns (outcomes, state): the noiseless readout [u; v] of the
    transversal Bell measurement as a (2, n) array, and the post-state,
    which holds the (uncorrected) output block at offset 2n.
    """
    n = code.n
    if data_error.num_qubits != n:
        raise ValueError("data error must act on n qubits")
    if epr_error.num_qubits != 2 * n:
        raise ValueError("EPR error must span the 2n EPR qubits")
    state = StabilizerState(3 * n)
    prepare_logical_zero(state, code, 0, rng)
    prepare_logical_epr(state, code, n, rng)
    state.apply_pauli(data_error.x_bits, data_error.z_bits)
    state.apply_pauli(epr_error.x_bits, epr_error.z_bits, n)
    for i in range(n):
        state.cnot(i, n + i)
    for i in range(n):
        state.h(i)
    # u: qubits [0, n), v: qubits [n, 2n)
    outcomes = np.array([state.measure_z(q, [rng])[0] for q in range(2 * n)], dtype=np.uint8)
    return outcomes.reshape(2, n), state


def extract(outcomes: np.ndarray, code: CssCode):
    """(s_x_checks, s_z_checks, logical_xx, logical_zz) from the (2, n)
    readout [u; v].

    Assignment validated against the tableau oracle: the X-basis data
    outcomes u shift with Z errors and feed the phase checks and logical
    XX; the Z-basis ancilla outcomes v shift with X errors and feed the
    bit checks and logical ZZ.
    """
    outcomes = np.asarray(outcomes, dtype=np.uint8)
    if outcomes.shape != (2, code.n):
        raise ValueError(f"outcomes must be a (2, {code.n}) array [u; v], got shape {outcomes.shape}")
    u, v = outcomes[:, None]
    s_x, s_z, logical_xx, logical_zz = parities(code, v, u)
    return s_x[0], s_z[0], logical_xx[0], logical_zz[0]


def apply_output_corrections(
    state: StabilizerState,
    code: CssCode,
    correction: PauliOperator,
    logical_xx: np.ndarray,
    logical_zz: np.ndarray,
):
    """Apply the decoded correction plus the teleportation frame to the
    output block (offset 2n). Frame convention: Xbar^zz then Zbar^xx."""
    frame_x = gf2.matvec(code.logical_x.T, logical_zz)
    frame_z = gf2.matvec(code.logical_z.T, logical_xx)
    state.apply_pauli(correction.x_bits ^ frame_x, correction.z_bits ^ frame_z, 2 * code.n)


def verify_output(
    state: StabilizerState,
    code: CssCode,
    logical_z_bits: Optional[np.ndarray] = None,
) -> bool:
    """Output block (offset 2n) is syndrome-clean and (optionally) holds
    the expected logical Z eigenvalues."""
    n = code.n
    zero = np.zeros(n)
    for row in code.h_x:
        if state.expectation(PauliOperator(n, row), 2 * n)[0] != 1:
            return False
    for row in code.h_z:
        if state.expectation(PauliOperator(n, zero, row), 2 * n)[0] != 1:
            return False
    if logical_z_bits is not None:
        for i in range(code.k):
            want = -1 if logical_z_bits[i] else 1
            if state.expectation(PauliOperator(n, zero, code.logical_z[i]), 2 * n)[0] != want:
                return False
    return True


def _frame_account(code: CssCode, decoder, data_x, data_z, epr_x, epr_z, flips):
    """Failure account of a batch of rounds from the linear error model.

    The arguments are draw_faults' arrays over T trials: data_x,
    data_z (T, n); epr_x, epr_z (T, 2n) on EPR halves A and B; flips
    (T, 2, n). A Z (X) error on the data block or on half A shifts u (v)
    the same way a readout flip does.

    The batch's syndromes go to the decoder in one decode_batch call. The
    residual on the output block is (outcome flips + correction + half-B
    error); its logical class is its commutation with the logical
    operators. An undecodable syndrome sets every class bit. Returns
    (s_x, s_z, acts_as_x, acts_as_z, decoded): syndromes (T, r), residual
    classes (T, k) and decode_batch's (corr_x, corr_z, ok, converged,
    iterations). A code with no logical qubit has no residual class, so
    it raises ValueError.
    """
    if code.k < 1:
        raise ValueError(f"{code.name} encodes no logical qubit (k = 0)")
    n = code.n
    e_u = data_z ^ epr_z[:, :n] ^ flips[:, 0]  # shift of the X-basis data outcomes u
    e_v = data_x ^ epr_x[:, :n] ^ flips[:, 1]  # shift of the Z-basis ancilla outcomes v
    s_x, s_z, _, _ = parities(code, e_v, e_u)
    decoded = decoder.decode_batch(s_x, s_z)
    corr_x, corr_z, ok, _, _ = decoded
    _, _, acts_as_z, acts_as_x = parities(code, e_v ^ epr_x[:, n:] ^ corr_x, e_u ^ epr_z[:, n:] ^ corr_z)
    acts_as_x[~ok] = 1
    acts_as_z[~ok] = 1
    return s_x, s_z, acts_as_x, acts_as_z, decoded


def knill_residuals(
    code: CssCode, decoder, noise: KnillNoise, seed: int, key: tuple[int, ...], trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (x_bad, z_bad, iterations) arrays of `trials` Knill rounds.

    Trial t draws its faults from stream(seed, *key, t) with draw_faults,
    as knill_ec_round does before the tableau's own draws. x_bad (z_bad)
    is set where the residual acts as a logical X (Z) on the output; an
    undecodable syndrome sets both. iterations holds the decoder's
    iteration count (0 where it reports none or the syndrome is
    undecodable).

    With a perfect EPR pair and no readout flips the output carries the
    data error's decoded residual, so this is also code-capacity decoding.
    """
    x_bad = np.zeros(trials, dtype=bool)
    z_bad = np.zeros(trials, dtype=bool)
    iterations = np.zeros(trials, dtype=np.int64)
    for start in range(0, trials, FRAME_CHUNK):
        rows = slice(start, min(start + FRAME_CHUNK, trials))
        faults = draw_faults(noise, code.n, streams(seed, key, range(rows.start, rows.stop)))
        _, _, acts_as_x, acts_as_z, (_, _, _, _, its) = _frame_account(code, decoder, *faults)
        x_bad[rows] = acts_as_x.any(axis=1)
        z_bad[rows] = acts_as_z.any(axis=1)
        iterations[rows] = its
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

    The round's faults are drawn first (draw_faults), with data_error
    added to the data noise, and the tableau's own draws follow them; so
    on one stream this round and knill_residuals see the same faults.
    The failure account is _frame_account's; the tableau syndrome must
    equal the account's on every call. The output block itself is never
    corrected (apply_output_corrections and verify_output are the tableau
    oracle of the residual in the tests). An undecodable syndrome is
    recorded as a failure.
    """
    n = code.n
    data_x, data_z, epr_x, epr_z, flips = draw_faults(noise, n, [rng])
    data = data_error * PauliOperator(n, data_x[0], data_z[0])  # checks data_error's length
    outcomes, _ = _run_round(code, data, PauliOperator(2 * n, epr_x[0], epr_z[0]), rng)
    s_x, s_z, logical_xx, logical_zz = extract(outcomes ^ flips[0], code)
    frame_s_x, frame_s_z, acts_as_x, acts_as_z, (_, _, ok, _, _) = _frame_account(
        code, decoder, data.x_bits[None], data.z_bits[None], epr_x, epr_z, flips
    )
    if not (np.array_equal(s_x, frame_s_x[0]) and np.array_equal(s_z, frame_s_z[0])):
        raise AssertionError("tableau syndrome disagrees with the linear error model")
    return KnillReport(
        s_x, s_z, logical_xx, logical_zz,
        decodable=bool(ok[0]),
        logical_failure=bool(acts_as_x.any() or acts_as_z.any()),
        residual_logical_x=acts_as_x[0], residual_logical_z=acts_as_z[0],
    )
