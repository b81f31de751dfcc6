"""LOCC protocols: teleportation, superdense coding, entanglement swapping,
and recurrence-style entanglement purification.

teleport, superdense and swap_chain sample Pauli frames (Knill,
arXiv:quant-ph/0410199): Bell outcomes plus the XOR of the Paulis the
pairs carried. A Bell measurement joining two pairs is uniformly random
and draws its (xx, zz) bits with two rngs.bits() calls; one reading a
whole noisy pair is deterministic and reads its Pauli (x, z) as (z, x).
They take the trials' streams as one rng.TrialStreams object, draw each
trial's noise as one row of rngs.random(m) before its outcome bits, as
the same circuit on a stabilizer tableau would (the tests keep those
tableau circuits as the oracle), and return per-trial arrays. Outcome
pairs are (xx, zz) bits and a Pauli frame is its (x, z) bits.

purify_pair_sampled and netchain's tableau cross-check run T trials on
one tableau whose signs carry the trial axis, from noisy_pairs (labelled
Bell pairs) through a repeater node's two tableau steps, purify_round and
swap_readout; a trial whose comparison fails is masked, as its result is
already fixed. Pauli-correction conventions are fixed once by the
noiseless identity tests and pinned in the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qnetcode.noise import BellDiagonalState, NoiseModel, pauli_bits
from qnetcode.pauli import LABEL_OF, LABEL_XZ
from qnetcode.rng import TrialStreams
from qnetcode.stabsim import StabilizerState, prepare_bell


def teleport(
    input_prep: Sequence[tuple],
    epr_noise: NoiseModel,
    rngs: TrialStreams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teleport the state prepared by ``input_prep``, 1-qubit gates
    ('H'|'X'|'Y'|'Z', 0), through a (noisy) EPR pair, once per trial of
    ``rngs``.

    Alice's Bell measurement is random; after Bob's X^zz Z^xx his qubit
    holds the payload under the XOR of the EPR pair's Paulis, the frame.
    Un-preparing it yields |0> iff frame bit h is 0, h the parity of the
    prep's H gates. Returns (outcomes (T, 1, 2), residual frame (T, 2),
    verified (T,) bool).
    """
    epr_x, epr_z = pauli_bits(epr_noise, rngs.random(epr_noise.uniforms(2)), 2)
    h = 0
    for gate in input_prep:
        name = gate[0].upper()
        if name not in ("H", "X", "Y", "Z") or any(q != 0 for q in gate[1:]):
            raise ValueError(f"prep circuit must act on qubit 0 with 1-qubit gates, got {gate!r}")
        h ^= name == "H"
    xx = rngs.bits()
    zz = rngs.bits()
    frame = np.stack([epr_x[:, 0] ^ epr_x[:, 1], epr_z[:, 0] ^ epr_z[:, 1]], axis=1)
    return np.stack([xx, zz], axis=1)[:, None], frame, frame[:, h] == 0


def superdense(
    bits,
    channel_noise: NoiseModel,
    rngs: TrialStreams,
) -> tuple[np.ndarray, np.ndarray]:
    """Send two classical bits (a, b) over one qubit plus a shared EPR
    pair, once per trial of ``rngs``; ``bits`` is one (a, b) pair for
    every trial or a (T, 2) array.

    Alice applies Z^a X^b to her half and sends it through the channel;
    Bob's Bell measurement is deterministic: under the channel Pauli
    (x, z) he decodes (a ^ z, b ^ x). Returns (outcomes (T, 1, 2), the
    channel Pauli on the sent qubit (T, 2)).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    err_x, err_z = pauli_bits(channel_noise, rngs.random(channel_noise.uniforms(1)), 1)
    channel = np.concatenate([err_x, err_z], axis=1)
    return (bits ^ channel[:, ::-1])[:, None], channel


def swap_chain(
    num_links: int,
    link_noise: NoiseModel,
    rngs: TrialStreams,
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse m noisy link pairs into one end-to-end pair via m-1 swaps,
    once per trial of ``rngs``.

    Each trial draws each link's two-qubit error in link order, then the
    swaps' random (xx, zz) bits in chain order. The end pair carries the
    XOR of all 2m Paulis, which the final Bell measurement reads. Returns
    the swap outcomes (T, m, 2), readout last, and the end pair's error
    frame (T, 2).
    """
    if num_links < 1:
        raise ValueError("num_links must be >= 1")
    trials = len(rngs)
    m = link_noise.uniforms(2)
    u = rngs.random(num_links * m).reshape(trials, num_links, m)
    err_x, err_z = pauli_bits(link_noise, u, 2)
    swaps = [rngs.bits() for _ in range(2 * (num_links - 1))]
    readout = [np.bitwise_xor.reduce(e, axis=(1, 2)) for e in (err_z, err_x)]
    outcomes = np.stack(swaps + readout, axis=1).reshape(trials, num_links, 2)
    return outcomes, outcomes[:, -1, ::-1]


def noisy_pairs(states: Sequence[BellDiagonalState], rngs: TrialStreams) -> StabilizerState:
    """A tableau of len(states) Bell pairs, pair i on qubits (2i, 2i + 1),
    for T = len(rngs) trials.

    Each trial draws the pairs' error labels from one row of uniforms, pair i
    from states[i] with the row's i-th uniform, and puts each label's Pauli
    on its pair's first qubit.
    """
    state = StabilizerState(2 * len(states), len(rngs))
    u = rngs.random(len(states))
    for i, pair in enumerate(states):
        prepare_bell(state, 2 * i, 2 * i + 1)
        x, z = LABEL_XZ[pair.labels(u[:, i])].T
        state.apply_pauli(x[:, None], z[:, None], 2 * i)
    return state


def swap_readout(state: StabilizerState, pairs: Sequence[tuple[int, int]], rngs: TrialStreams):
    """Swap a chain of Bell pairs, given as (left, right) qubits in chain
    order, into one end-to-end pair and read it out.

    Bell measurements join each right qubit to the next left one; their
    frame X^zz Z^xx goes onto the last right qubit, and a Bell measurement
    of the first left qubit against it reads the end pair. Returns the
    (xx, zz) outcomes as a (T, len(pairs), 2) array, readout last; its
    (zz, xx) is the end pair's label.
    """
    outcomes = []
    frame_x = frame_z = np.zeros(state.trials, dtype=np.uint8)
    for (_, left), (right, _) in zip(pairs, pairs[1:]):
        xx, zz = state.bell_measure(left, right, rngs)
        outcomes.append((xx, zz))
        frame_x = frame_x ^ zz
        frame_z = frame_z ^ xx
    end = pairs[-1][1]
    state.apply_pauli(frame_x[:, None], frame_z[:, None], end)
    outcomes.append(state.bell_measure(pairs[0][0], end, rngs))
    return np.stack([np.stack(pair, axis=1) for pair in outcomes], axis=1)


_BASES = ("bitflip", "phaseflip")


def purify_pair_dist(
    a: BellDiagonalState,
    b: BellDiagonalState,
    basis: str = "bitflip",
) -> tuple[float, BellDiagonalState]:
    """One exact recurrence round: bilateral CNOT from pair a onto pair b,
    measure pair b, keep pair a iff the two outcome bits agree.

    Weighs all 16 joint error labels at once. In bitflip mode agreement
    means equal X components and the kept pair's Z components combine; the
    phaseflip mode is the H-conjugate.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {_BASES}")
    x, z = LABEL_XZ.T  # term (i, j) pairs a's label i with b's label j
    if basis == "bitflip":
        keep = x[:, None] == x
        label = LABEL_OF[2 * x[:, None] + (z[:, None] ^ z)]
    else:
        keep = z[:, None] == z
        label = LABEL_OF[2 * (x[:, None] ^ x) + z[:, None]]
    p = np.outer(a.probs, b.probs)[keep]
    success = p.cumsum()[-1]  # left to right, like bincount's per-label sums
    if success <= 0.0:
        return 0.0, BellDiagonalState.perfect()
    return float(success), BellDiagonalState(np.bincount(label[keep], p, minlength=4) / success)


def purify_round(state: StabilizerState, keep: tuple[int, int], meas: tuple[int, int], basis: str,
                 rngs: TrialStreams) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence round on the tableau: bilateral CNOT from the kept
    pair onto the measured pair, then a Z readout of both measured qubits
    (phaseflip conjugates the round by H on all four qubits). Returns the
    two (T,) outcome bit arrays; a trial's round succeeds iff they agree."""
    if basis == "phaseflip":
        for q in (*keep, *meas):
            state.h(q)
    state.cnot(keep[0], meas[0])
    state.cnot(keep[1], meas[1])
    bits = state.measure_z(meas[0], rngs), state.measure_z(meas[1], rngs)
    if basis == "phaseflip":
        for q in keep:
            state.h(q)
    return bits


def purify_pair_sampled(
    a: BellDiagonalState,
    b: BellDiagonalState,
    basis: str,
    rngs: TrialStreams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo twin of purify_pair_dist on the tableau, once per
    trial of ``rngs``.

    Returns (outcomes (T, 2), success (T,), kept (T,)): the two measured
    bits, whether they agree, and the kept pair's error label, read by a
    final Bell measurement of pair a; kept is -1 where the round failed.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {_BASES}")
    state = noisy_pairs([a, b], rngs)  # pair a: (A1, B1), pair b: (A2, B2)
    m_a, m_b = purify_round(state, (0, 1), (2, 3), basis, rngs)
    success = m_a == m_b
    xx, zz = state.bell_measure(0, 1, rngs)
    return np.stack([m_a, m_b], axis=1), success, np.where(success, LABEL_OF[2 * zz + xx], -1)
