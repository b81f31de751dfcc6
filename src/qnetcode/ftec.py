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
uniforms from every round's stream and thresholds the chunk's (T, m)
array at once. The Bell outcomes and the readout flips share one
layout, a (2, n) array [u; v] (u: X-basis outcomes of the data block,
v: Z-basis outcomes of EPR half A), so a flipped readout is
outcomes ^ flips. One failure account (_frame_account) turns the faults
into syndromes and residual classes.

- knill_residuals samples rounds as Pauli frames. Pauli errors propagate
  linearly through the round's Clifford circuit, so the outcome flips,
  the syndromes and the residual on the output block are GF(2) products
  of the drawn fault bits; no tableau is needed. Each chunk of trials
  draws from its trials' streams through one rng.streams object and is
  decoded with one decode_batch call.
  This is the Monte Carlo engine of the knill and decode commands and the
  encoded chain modes (decode is a round with a perfect EPR pair and
  exact readout).
- knill_ec_round draws the same faults first, then runs the round on the
  3n-qubit stabilizer tableau and asserts that the tableau syndrome
  equals the account's. It runs a batch of trials on one tableau (see
  stabsim), and each of its steps takes and returns one row per trial.
  It is the oracle of the frame engine; the tests check the two against
  each other on every single-qubit error and readout flip, and trial for
  trial on seeded noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qnetcode import gf2
from qnetcode.codes import CssCode, parities
from qnetcode.noise import NoiseModel, pauli_bits
from qnetcode.pauli import PauliOperator
from qnetcode.rng import TrialStreams, streams
from qnetcode.stabsim import StabilizerState

# trials per batch of knill_residuals: bounds the memory of large runs
FRAME_CHUNK = 4096


@dataclass
class KnillReport:
    # one row per trial: (T, r) syndromes, (T, k) logical Bell outcomes, (T,) flags
    s_x_checks: np.ndarray
    s_z_checks: np.ndarray
    logical_xx: np.ndarray
    logical_zz: np.ndarray
    decodable: np.ndarray
    logical_failure: np.ndarray
    # (T, k) indicators: residual acts as logical X_i / Z_i on the output
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


def draw_faults(noise: KnillNoise, n: int, rngs: TrialStreams):
    """Faults of one round per trial of rngs, over T = len(rngs):
    data_x, data_z (T, n); epr_x, epr_z (T, 2n) on EPR halves A and B;
    flips (T, 2, n) in the readout layout [u; v].

    Each trial's stream makes one draw of uniforms, cut into data noise
    on n qubits, EPR noise on 2n, and readout flips as a
    bit_flip(meas_flip) channel on 2n bits (none when meas_flip is 0,
    reading no uniforms).
    """
    flip = NoiseModel.bit_flip(noise.meas_flip) if noise.meas_flip else NoiseModel.none()
    channels = ((noise.data_noise, n), (noise.epr_error, 2 * n), (flip, 2 * n))
    sizes = [model.uniforms(qubits) for model, qubits in channels]
    u = rngs.random(sum(sizes))
    (data_x, data_z), (epr_x, epr_z), (flips, _) = (
        pauli_bits(model, part, qubits)
        for (model, qubits), part in zip(channels, np.split(u, np.cumsum(sizes)[:-1], axis=1))
    )
    return data_x, data_z, epr_x, epr_z, flips.reshape(-1, 2, n)


def prepare_logical_zero(state: StabilizerState, code: CssCode, offset: int, rngs: TrialStreams):
    """Project the all-zeros block at ``offset`` into logical |0> of the code.

    |0...0> already satisfies the Z checks and logical Z; measuring each
    X check and applying a Z fixup solving h_x f = outcomes forces the
    +1 eigenspace. Each distinct outcome row is solved once.
    """
    if not code.r_x:
        return
    n = code.n
    outcomes = np.stack([state.measure_pauli(PauliOperator(n, row), rngs, offset) for row in code.h_x], axis=1)
    rows, inverse = gf2.distinct_rows(outcomes)
    fixes = [gf2.solve(code.h_x, row) for row in rows]  # all-zero outcomes: no fixup
    if any(fix is None for fix in fixes):
        raise AssertionError("X-check outcomes inconsistent with h_x row space")
    state.apply_pauli(np.zeros((state.trials, n)), np.array(fixes)[inverse], offset)


def prepare_logical_epr(state: StabilizerState, code: CssCode, offset: int, rngs: TrialStreams):
    """Entangle two logical-|0> blocks, A at ``offset`` and B right after
    it, into a logical EPR pair.

    Measures XbarXbar for each logical qubit and fixes a -1 outcome by a
    logical Z on block A.
    """
    n = code.n
    prepare_logical_zero(state, code, offset, rngs)
    prepare_logical_zero(state, code, offset + n, rngs)
    for lx, lz in zip(code.logical_x, code.logical_z):
        flip = state.measure_pauli(PauliOperator(2 * n, np.concatenate([lx, lx])), rngs, offset)
        state.apply_pauli(np.zeros((state.trials, n)), flip[:, None] & lz, offset)


def _run_round(code: CssCode, data_x, data_z, epr_x, epr_z, rngs: TrialStreams):
    """Full tableau execution of one encoded Bell measurement per trial of
    ``rngs``, with the data error (data_x, data_z) of n qubits and the
    EPR error (epr_x, epr_z) of 2n, each the same on every trial or one
    row per trial.

    Returns (outcomes, state): the noiseless readout [u; v] of the
    transversal Bell measurement as a (T, 2, n) array, and the post-state,
    which holds the (uncorrected) output block at offset 2n.
    """
    n = code.n
    if np.shape(data_x)[-1] != n or np.shape(data_z)[-1] != n:
        raise ValueError("data error must act on n qubits")
    if np.shape(epr_x)[-1] != 2 * n or np.shape(epr_z)[-1] != 2 * n:
        raise ValueError("EPR error must span the 2n EPR qubits")
    state = StabilizerState(3 * n, len(rngs))
    prepare_logical_zero(state, code, 0, rngs)
    prepare_logical_epr(state, code, n, rngs)
    state.apply_pauli(data_x, data_z)
    state.apply_pauli(epr_x, epr_z, n)
    for i in range(n):
        state.cnot(i, n + i)
    for i in range(n):
        state.h(i)
    # u: qubits [0, n), v: qubits [n, 2n)
    outcomes = np.stack([state.measure_z(q, rngs) for q in range(2 * n)], axis=1)
    return outcomes.reshape(-1, 2, n), state


def extract(outcomes: np.ndarray, code: CssCode):
    """(s_x_checks, s_z_checks, logical_xx, logical_zz), each with one row
    per trial, from the (T, 2, n) readout [u; v].

    Assignment validated against the tableau oracle: the X-basis data
    outcomes u shift with Z errors and feed the phase checks and logical
    XX; the Z-basis ancilla outcomes v shift with X errors and feed the
    bit checks and logical ZZ.
    """
    outcomes = np.asarray(outcomes, dtype=np.uint8)
    if outcomes.ndim != 3 or outcomes.shape[1:] != (2, code.n):
        raise ValueError(f"outcomes must be a (T, 2, {code.n}) array [u; v], got shape {outcomes.shape}")
    return parities(code, outcomes[:, 1], outcomes[:, 0])


def apply_output_corrections(state: StabilizerState, code: CssCode, corr_x, corr_z, logical_xx, logical_zz):
    """Apply the decoded correction (corr_x, corr_z), (T, n), plus the
    teleportation frame from the (T, k) logical_xx, logical_zz to the
    output block (offset 2n). Frame convention: Xbar^zz then Zbar^xx."""
    frame_x = gf2.matmul(logical_zz, code.logical_x)
    frame_z = gf2.matmul(logical_xx, code.logical_z)
    state.apply_pauli(corr_x ^ frame_x, corr_z ^ frame_z, 2 * code.n)


def verify_output(
    state: StabilizerState,
    code: CssCode,
    logical_z_bits: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per trial, a (T,) bool: the output block (offset 2n) is
    syndrome-clean and (optionally) holds the expected logical Z
    eigenvalues, given as (T, k) bits."""
    n = code.n
    zero = np.zeros(n)
    reads = [(row, zero, 1) for row in code.h_x] + [(zero, row, 1) for row in code.h_z]
    if logical_z_bits is not None:
        wants = 1 - 2 * np.asarray(logical_z_bits, dtype=np.int64)
        reads += [(zero, lz, want) for lz, want in zip(code.logical_z, wants.T)]
    return np.all([state.expectation(PauliOperator(n, x, z), 2 * n) == want for x, z, want in reads], axis=0)


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
    rngs: TrialStreams,
) -> KnillReport:
    """Single-shot EC rounds on the stabilizer tableau, one per trial of
    ``rngs``: encoded Bell measurement, extraction, one decode, failure
    accounting. Every field of the report has one row per trial.

    Each trial's faults are drawn first (draw_faults), with data_error
    added to the data noise of every trial, and the tableau's own draws
    follow them; so on one stream this round and knill_residuals see the
    same faults. The failure account is _frame_account's; the tableau
    syndrome must equal the account's on every call. The output block
    itself is never corrected (apply_output_corrections and verify_output
    are the tableau oracle of the residual in the tests). An undecodable
    syndrome is recorded as a failure.
    """
    n = code.n
    if data_error.num_qubits != n:
        raise ValueError(f"data error acts on {data_error.num_qubits} qubits, code has n={n}")
    data_x, data_z, epr_x, epr_z, flips = draw_faults(noise, n, rngs)
    data_x ^= data_error.x_bits
    data_z ^= data_error.z_bits
    outcomes, _ = _run_round(code, data_x, data_z, epr_x, epr_z, rngs)
    s_x, s_z, logical_xx, logical_zz = extract(outcomes ^ flips, code)
    frame_s_x, frame_s_z, acts_as_x, acts_as_z, (_, _, ok, _, _) = _frame_account(
        code, decoder, data_x, data_z, epr_x, epr_z, flips
    )
    if not (np.array_equal(s_x, frame_s_x) and np.array_equal(s_z, frame_s_z)):
        raise AssertionError("tableau syndrome disagrees with the linear error model")
    return KnillReport(
        s_x, s_z, logical_xx, logical_zz,
        decodable=ok,
        logical_failure=acts_as_x.any(axis=1) | acts_as_z.any(axis=1),
        residual_logical_x=acts_as_x, residual_logical_z=acts_as_z,
    )
