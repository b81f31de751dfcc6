import itertools
import math

import numpy as np
import pytest

from qnetcode.noise import BellDiagonalState, NoiseModel, pauli_bits, werner
from qnetcode.pauli import PauliOperator
from qnetcode.protocols import (
    purify_pair_dist,
    purify_pair_sampled,
    superdense,
    swap_chain,
    swap_readout,
    teleport,
)
from qnetcode.rng import stream, streams
from qnetcode.stabsim import StabilizerState, prepare_bell

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


# --- the tableau circuits are the frames' oracle ------------------------------


def _tableau_prep(state, prep, qubit):
    for gate in prep:
        name = gate[0].upper()
        if name == "H":
            state.h(qubit)
        else:
            p = PauliOperator.from_string(name)
            state.apply_pauli(p.x_bits, p.z_bits, qubit)


def tableau_teleport(prep, epr_noise, rngs):
    state = StabilizerState(3, len(rngs))
    prepare_bell(state, 1, 2)
    epr_x, epr_z = pauli_bits(epr_noise, rngs.random(epr_noise.uniforms(2)), 2)
    state.apply_pauli(epr_x, epr_z, 1)
    _tableau_prep(state, prep, 0)
    xx, zz = state.bell_measure(0, 1, rngs)
    state.apply_pauli(zz[:, None], xx[:, None], 2)
    frame = np.stack([epr_x[:, 0] ^ epr_x[:, 1], epr_z[:, 0] ^ epr_z[:, 1]], axis=1)
    _tableau_prep(state, prep[::-1], 2)  # H and the Paulis are involutions
    verified = state.expectation(PauliOperator.from_string("Z"), 2) == 1
    return np.stack([xx, zz], axis=1)[:, None], frame, verified


def tableau_superdense(bits, channel_noise, rngs):
    bits = np.asarray(bits, dtype=np.uint8)
    state = StabilizerState(2, len(rngs))
    prepare_bell(state, 0, 1)
    state.apply_pauli(bits[..., 1:], bits[..., :1])
    err_x, err_z = pauli_bits(channel_noise, rngs.random(channel_noise.uniforms(1)), 1)
    state.apply_pauli(err_x, err_z)
    xx, zz = state.bell_measure(0, 1, rngs)
    return np.stack([xx, zz], axis=1)[:, None], np.concatenate([err_x, err_z], axis=1)


def tableau_swap_chain(num_links, link_noise, rngs):
    n, trials = 2 * num_links, len(rngs)
    state = StabilizerState(n, trials)
    pairs = [(q, q + 1) for q in range(0, n, 2)]
    for a, b in pairs:
        prepare_bell(state, a, b)
    m = link_noise.uniforms(2)
    u = rngs.random(num_links * m).reshape(trials, num_links, m)
    err_x, err_z = pauli_bits(link_noise, u, 2)
    state.apply_pauli(err_x.reshape(trials, n), err_z.reshape(trials, n))
    outcomes = swap_readout(state, pairs, rngs)
    return outcomes, outcomes[:, -1, ::-1]


NOISES = [
    NoiseModel.none(),
    NoiseModel.bit_flip(0.3),
    NoiseModel.phase_flip(0.3),
    NoiseModel.depolarizing(0.6),
    NoiseModel.independent_xz(0.2, 0.35),
]


def _assert_frames_equal_tableau(protocol, oracle, *args, seed):
    """The frame run and the tableau run return equal arrays of equal dtypes
    trial for trial, and leave their streams at the same place: equal
    positions, and the same next bits() (a half-used word shows there)."""
    rngs, oracle_rngs = streams(seed, (), range(64)), streams(seed, (), range(64))
    got, want = protocol(*args, rngs), oracle(*args, oracle_rngs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert rngs.position == oracle_rngs.position
    assert np.array_equal(rngs.bits(), oracle_rngs.bits())


ORACLE_PREPS = PREPS + [[("h", 0), ("z", 0)], [("Y", 0), ("H", 0), ("Y", 0)]]


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.variant)
def test_teleport_frames_equal_the_tableau(noise):
    for i, prep in enumerate(ORACLE_PREPS):
        _assert_frames_equal_tableau(teleport, tableau_teleport, prep, noise, seed=30 + i)


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.variant)
def test_superdense_frames_equal_the_tableau(noise):
    for i, pair in enumerate(itertools.product((0, 1), repeat=2)):
        _assert_frames_equal_tableau(superdense, tableau_superdense, pair, noise, seed=40 + i)
    sent = stream(44).integers(0, 2, (64, 2), dtype=np.uint8)
    _assert_frames_equal_tableau(superdense, tableau_superdense, sent, noise, seed=45)


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.variant)
def test_swap_chain_frames_equal_the_tableau(noise):
    for m in (1, 2, 3, 8):
        _assert_frames_equal_tableau(swap_chain, tableau_swap_chain, m, noise, seed=50 + m)


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
