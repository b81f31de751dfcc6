import itertools
import math

import numpy as np
import pytest

from qnetcode.noise import BellDiagonalState, NoiseModel, werner
from qnetcode.protocols import (
    purify_pair_dist,
    purify_pair_sampled,
    superdense,
    swap_chain,
    teleport,
)
from qnetcode.rng import stream, streams

from dense_oracle import ONE_QUBIT
from trial_streams import trial_streams

# --- density-matrix purification oracle --------------------------------------

_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
_BELL_VECS = [np.kron(ONE_QUBIT[l], np.eye(2)) @ _PHI_PLUS for l in ("I", "X", "Y", "Z")]


def _one_qubit_on(n, u, q):
    m = np.array([[1.0]], dtype=complex)
    for i in range(n):
        m = np.kron(m, u if i == q else np.eye(2, dtype=complex))
    return m


def _cnot_on(n, c, t):
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        if bits[c]:
            bits[t] ^= 1
        j = sum(b << (n - 1 - i) for i, b in enumerate(bits))
        m[j, idx] = 1.0
    return m


def dense_purify(a: BellDiagonalState, b: BellDiagonalState, basis: str):
    """Full 4-qubit density-matrix simulation of one recurrence round.

    Pair a on qubits (0, 1), pair b on (2, 3); bilateral CNOT a -> b;
    pair b measured; keep on outcome agreement. Returns (success_prob,
    Bell-label distribution of the kept pair).
    """
    rho = np.zeros((16, 16), dtype=complex)
    for i, j in itertools.product(range(4), repeat=2):
        vec = np.kron(_BELL_VECS[i], _BELL_VECS[j])
        rho += a.probs[i] * b.probs[j] * np.outer(vec, vec.conj())
    ops = []
    if basis == "phaseflip":
        ops += [_one_qubit_on(4, ONE_QUBIT["H"], q) for q in range(4)]
    ops += [_cnot_on(4, 0, 2), _cnot_on(4, 1, 3)]
    for op in ops:
        rho = op @ rho @ op.conj().T
    # project qubits 2, 3 onto agreeing Z outcomes, trace them out
    kept = np.zeros((4, 4), dtype=complex)
    success = 0.0
    rho4 = rho.reshape(2, 2, 2, 2, 2, 2, 2, 2)  # (q0..q3, q0'..q3')
    for m in (0, 1):
        block = rho4[:, :, m, m, :, :, m, m].reshape(4, 4)
        success += float(np.real(np.trace(block)))
        kept += block
    kept /= success
    if basis == "phaseflip":
        h2 = np.kron(ONE_QUBIT["H"], ONE_QUBIT["H"])
        kept = h2 @ kept @ h2.conj().T
    out = np.array([float(np.real(v.conj() @ kept @ v)) for v in _BELL_VECS])
    return success, out


# --- protocol identity tests --------------------------------------------------

PREPS = [[], [("H", 0)], [("X", 0)], [("H", 0), ("Z", 0)], [("X", 0), ("H", 0)]]


@pytest.mark.parametrize("prep", PREPS, ids=lambda p: "-".join(g[0] for g in p) or "zero")
def test_noiseless_teleport_verifies(prep):
    outcomes, frame, verified = teleport(prep, NoiseModel.none(), streams(11, (), range(50)))
    assert verified.all()
    assert not frame.any()
    assert outcomes.shape == (50, 1, 2)


def test_teleport_residual_frame_is_consistent_per_trial():
    """For payload |0>, verification succeeds exactly when the residual
    frame has no X component; for |+>, exactly when it has no Z."""
    noise = NoiseModel.independent_xz(0.4, 0.4)
    _, frame, verified = teleport([], noise, streams(12, (0,), range(300)))
    assert np.array_equal(verified, frame[:, 0] == 0)
    _, frame, verified = teleport([("H", 0)], noise, streams(12, (1,), range(300)))
    assert np.array_equal(verified, frame[:, 1] == 0)


def test_teleport_rejects_multi_qubit_prep():
    with pytest.raises(ValueError):
        teleport([("CNOT", 0, 1)], NoiseModel.none(), trial_streams([stream(0)]))


def test_superdense_all_bit_pairs():
    sent = np.array(list(itertools.product((0, 1), repeat=2)) * 25, dtype=np.uint8)
    outcomes, channel = superdense(sent, NoiseModel.none(), streams(13, (), range(len(sent))))
    assert np.array_equal(outcomes[:, 0], sent)
    assert not channel.any()


def test_superdense_under_full_flip_noise():
    """An X error anticommutes with ZZ, so it flips exactly the b bit;
    a Z error flips the a bit. The channel Pauli is returned per trial."""
    sent = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.uint8)
    outcomes, channel = superdense(sent, NoiseModel.bit_flip(1.0), streams(14, (0,), range(4)))
    assert np.array_equal(outcomes[:, 0], sent ^ [0, 1])
    assert np.array_equal(channel, [[1, 0]] * 4)
    outcomes, channel = superdense(sent, NoiseModel.phase_flip(1.0), streams(14, (1,), range(4)))
    assert np.array_equal(outcomes[:, 0], sent ^ [1, 0])
    assert np.array_equal(channel, [[0, 1]] * 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_noiseless_swap_chain(m):
    outcomes, frame = swap_chain(m, NoiseModel.none(), streams(15, (m,), range(30)))
    assert not frame.any()
    assert outcomes.shape == (30, m, 2)  # m-1 swaps + final verification


def test_swap_chain_validation():
    with pytest.raises(ValueError):
        swap_chain(0, NoiseModel.none(), trial_streams([stream(0)]))


def test_noisy_swap_chain_residual_distribution():
    """End-to-end X rate of a 2-link chain of bit-flip pairs is p+q-2pq."""
    p = 0.2
    trials = 4000
    _, frame = swap_chain(2, NoiseModel.bit_flip(p), streams(16, (), range(trials)))
    flips = int(frame[:, 0].sum())
    # each link has two halves; X rate per link is 2p(1-p)
    q = 2 * p * (1 - p)
    target = 2 * q * (1 - q)
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(flips / trials - target) < 3.5 * sigma


# --- purification -------------------------------------------------------------


def test_purify_dist_matches_dense_oracle():
    states = [werner(0.9), werner(0.7), BellDiagonalState(np.array([0.8, 0.1, 0.04, 0.06]))]
    for a, b in itertools.product(states, repeat=2):
        for basis in ("bitflip", "phaseflip"):
            sp, out = purify_pair_dist(a, b, basis)
            sp_o, out_o = dense_purify(a, b, basis)
            assert sp == pytest.approx(sp_o, abs=1e-12)
            assert np.allclose(out.probs, out_o, atol=1e-12)


def test_purify_werner_09_exact_values():
    sp, out = purify_pair_dist(werner(0.9), werner(0.9), "bitflip")
    assert sp == pytest.approx(197.0 / 225.0, abs=1e-12)
    assert out.fidelity > 0.9


def test_purify_improves_werner_fidelity():
    for F in np.arange(0.55, 0.951, 0.05):
        _, out = purify_pair_dist(werner(F), werner(F), "bitflip")
        assert out.fidelity > F


def test_purify_basis_validation():
    with pytest.raises(ValueError):
        purify_pair_dist(werner(0.9), werner(0.9), "diagonal")
    with pytest.raises(ValueError):
        purify_pair_sampled(werner(0.9), werner(0.9), "diagonal", trial_streams([stream(0)]))


@pytest.mark.parametrize("basis", ["bitflip", "phaseflip"])
def test_purify_sampled_matches_dist(basis):
    a = werner(0.85)
    b = BellDiagonalState(np.array([0.75, 0.1, 0.05, 0.1]))
    sp, out = purify_pair_dist(a, b, basis)
    trials = 6000
    _, success, labels = purify_pair_sampled(a, b, basis, streams(17, (), range(trials)))
    succ = int(success.sum())
    kept = np.bincount(labels[success], minlength=4)
    assert (labels[~success] == -1).all()
    sigma_s = math.sqrt(sp * (1 - sp) / trials)
    assert abs(succ / trials - sp) < 3.5 * sigma_s
    for i in range(4):
        target = out.probs[i]
        sigma = math.sqrt(max(target * (1 - target), 1e-12) / succ)
        assert abs(kept[i] / succ - target) < 4 * sigma + 1e-9
