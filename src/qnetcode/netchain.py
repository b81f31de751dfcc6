"""Repeater-chain simulation: link purification, swap folding, latency
accounting, and encoded-channel modes.

The primary engine evolves Bell-diagonal label distributions exactly;
tableau sampling (sample_chain_trial) is the independent cross-check
for small chains; it runs a batch of trials and masks the failed ones.
Latency is counted in units of the gate time T, with D the classical
one-hop delay. run_chain reports classical-communication latency only
(acknowledgments and correction frames):

    physical (two-way purification):  2*D*rounds + (m-1)*D swap corrections
    encoded modes (one-way):          D*m

compare_latency's two-way total is D per hop of initial distribution plus
2*D per purification round, without the (m-1)*D swap corrections, and its
one-way total is D*m, the encoded latency (m=4, D=10, 2 rounds: 80 and 40).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qnetcode.codes import CssCode
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.noise import BellDiagonalState, NoiseModel, effective_error_rate
from qnetcode.pauli import LABEL_OF, LABEL_XZ
from qnetcode.protocols import noisy_pairs, purify_pair_dist, purify_round, swap_readout
from qnetcode.rng import MAX_TRIALS, TrialStreams

MODES = ("physical", "encoded_teleport", "encoded_direct")
# R rounds consume 2**R raw pairs per link, a count that must convert to a float
MAX_PURIFY_ROUNDS = 1023
# chains and swaps cost time and memory linear in the link count (a
# 1000-trial swap over 1024 links takes about 1 s and 0.1 GB); more links
# than this is a typo, not a repeater network
MAX_LINKS = 1024


def compose_swap(a: BellDiagonalState, b: BellDiagonalState) -> BellDiagonalState:
    """Label convolution of two pair-error distributions under swapping:
    joint term (i, j) lands on the label of the XOR of their (x, z) bits."""
    x, z = LABEL_XZ.T
    label = LABEL_OF[2 * (x[:, None] ^ x) + (z[:, None] ^ z)]
    return BellDiagonalState(np.bincount(label.ravel(), np.outer(a.probs, b.probs).ravel(), minlength=4))


def default_purify_schedule(rounds: int) -> tuple[str, ...]:
    """Alternating bitflip/phaseflip rounds."""
    return tuple("bitflip" if i % 2 == 0 else "phaseflip" for i in range(rounds))


@dataclass
class ChainConfig:
    num_links: int
    link_state: BellDiagonalState
    purify_rounds: int = 0
    hop_delay_D: float = 10.0
    mode: str = "physical"
    code: Optional[CssCode] = None
    decoder: object = None
    p_g: float = 0.0
    p_c: float = 0.0
    mc_trials: int = 400
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_links <= MAX_LINKS:
            raise ValueError(f"num_links must lie in [1, {MAX_LINKS}], got {self.num_links}")
        if not 0 <= self.purify_rounds <= MAX_PURIFY_ROUNDS:
            raise ValueError(f"purify_rounds must lie in [0, {MAX_PURIFY_ROUNDS}], got {self.purify_rounds}")
        if not 1 <= self.mc_trials <= MAX_TRIALS:
            raise ValueError(f"mc_trials must lie in [1, 2**32], got {self.mc_trials}")
        if self.hop_delay_D < 0:
            raise ValueError("hop delay must be >= 0")
        if not math.isfinite(compare_latency(self)[0]):  # the largest of the three latencies
            raise ValueError(f"hop delay {self.hop_delay_D} puts the two-way latency past the float range")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode != "physical" and (self.code is None or self.decoder is None):
            raise ValueError("encoded modes require a code and a decoder")


@dataclass
class ChainReport:
    end_state: BellDiagonalState
    pairs_per_attempt: float
    survival: float
    latency: float
    per_stage_log: list = field(default_factory=list)


def _purify_link(state: BellDiagonalState, rounds: int, log: list):
    """Returns (purified state, survival probability of the whole tree).

    R rounds consume 2^R raw pairs; round r performs 2^(R-r-1)
    independent comparisons, every one of which must succeed for the
    link to yield its output pair.
    """
    survival = 1.0
    for r, basis in enumerate(default_purify_schedule(rounds)):
        sp, state = purify_pair_dist(state, state, basis)
        survival *= sp ** (2 ** (rounds - r - 1))
        log.append({"stage": "purify", "basis": basis, "success_prob": sp, "fidelity": state.fidelity})
    return state, survival


def _fold(states: list[BellDiagonalState]) -> BellDiagonalState:
    """Swap adjacent pairs level by level (compose_swap is associative,
    so the order changes only the rounding, not the end state)."""
    while len(states) > 1:
        nxt = [compose_swap(states[i], states[i + 1]) for i in range(0, len(states) - 1, 2)]
        if len(states) % 2:
            nxt.append(states[-1])
        states = nxt
    return states[0]


def run_chain(config: ChainConfig) -> ChainReport:
    """Purify the link, fold m channels by swapping, and count raw pairs and
    survival from the link; the modes differ only in the channels they fold."""
    m = config.num_links
    log: list = []
    # encoded_direct has no purification stage: 0 rounds, one raw pair that always survives
    rounds = 0 if config.mode == "encoded_direct" else config.purify_rounds
    link, survival_link = _purify_link(config.link_state, rounds, log)
    if config.mode == "physical":
        channels = [link] * m
        # two-way purification acks plus one-way forwarding of swap frames
        latency = 2.0 * rounds * config.hop_delay_D + (m - 1) * config.hop_delay_D
    else:  # encoded modes: a logical channel per hop from seeded Knill rounds
        if config.mode == "encoded_teleport":
            p_x, p_z = link.probs @ LABEL_XZ
            noise = KnillNoise(epr_error=NoiseModel.independent_xz(p_x, p_z), meas_flip=config.p_g)
        else:  # p_c + 5 p_g already counts the Bell-measurement fault, so no readout flips
            noise = KnillNoise(data_noise=NoiseModel.depolarizing(effective_error_rate(config.p_c, config.p_g)))
        channels = []
        for hop in range(m):
            x_bad, z_bad, _ = knill_residuals(config.code, config.decoder, noise, config.seed, (900 + hop,), config.mc_trials)
            counts = np.bincount(LABEL_OF[2 * x_bad + z_bad], minlength=4)
            channels.append(BellDiagonalState(counts / counts.sum()))
            log.append({"stage": "hop", "hop": hop, "logical_fidelity": channels[-1].fidelity})
        latency = config.hop_delay_D * m  # one-way classical communication only
    end = _fold(channels)
    if config.mode == "physical":
        log.append({"stage": "swap", "links": m, "fidelity": end.fidelity})
    return ChainReport(end, survival_link / 2 ** rounds, survival_link ** m, latency, log)


def compare_latency(config: ChainConfig) -> tuple[float, float]:
    """(two_way_T, one_way_T) for the same chain geometry: D*m + 2*D*rounds
    and D*m, counted as the module docstring says."""
    m = config.num_links
    two_way = config.hop_delay_D * m + 2.0 * config.purify_rounds * config.hop_delay_D
    one_way = config.hop_delay_D * m
    return two_way, one_way


# --- tableau cross-check -----------------------------------------------------


def sample_chain_trial(config: ChainConfig, rngs: TrialStreams) -> tuple[np.ndarray, np.ndarray]:
    """Tableau trials of the physical mode, one per trial of ``rngs``.

    Returns (success (T,), end label index (T,)). A trial fails when any
    of its purification comparisons disagrees; its label is then -1.
    """
    if config.mode != "physical":
        raise ValueError("sampling cross-check covers the physical mode only")
    per_link = 2 ** config.purify_rounds
    state = noisy_pairs([config.link_state] * (config.num_links * per_link), rngs)
    # link l owns pairs [l * per_link, (l + 1) * per_link); pair i is qubits (2i, 2i + 1)
    pairs = [(q, q + 1) for q in range(0, state.num_qubits, 2)]
    success = np.ones(state.trials, dtype=bool)
    for link in range(config.num_links):
        alive = pairs[link * per_link : (link + 1) * per_link]
        for basis in default_purify_schedule(config.purify_rounds):
            for keep, meas in zip(alive[::2], alive[1::2]):
                bit_a, bit_b = purify_round(state, keep, meas, basis, rngs)
                success &= bit_a == bit_b
            alive = alive[::2]

    # swap each link's kept pair (its first) and read the end-to-end label
    xx, zz = swap_readout(state, pairs[::per_link], rngs)[:, -1].T
    return success, np.where(success, LABEL_OF[2 * zz + xx], -1)
