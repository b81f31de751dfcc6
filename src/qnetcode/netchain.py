"""Repeater-chain simulation: link purification, swap folding, latency
accounting, and encoded-channel modes.

The primary engine evolves Bell-diagonal label distributions exactly;
tableau sampling (sample_chain_trial) is the independent cross-check
for small chains. Latency is counted in units of the gate time T, with
D the classical one-hop delay. run_chain reports classical-communication
latency only (acknowledgments and correction frames):

    physical (two-way purification):  2*D*rounds + (m-1)*D swap corrections
    encoded modes (one-way):          D*m

compare_latency additionally counts the initial one-way distribution
(D per hop) in both modes, so the two totals are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qnetcode.codes import CssCode
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.noise import BellDiagonalState, LABEL_INDEX, LABEL_XZ, NoiseModel, effective_error_rate
from qnetcode.protocols import purify_pair_dist, purify_round, swap_readout
from qnetcode.rng import MAX_TRIALS
from qnetcode.stabsim import StabilizerState, prepare_bell

MODES = ("physical", "encoded_teleport", "encoded_direct")


def compose_swap(a: BellDiagonalState, b: BellDiagonalState) -> BellDiagonalState:
    """Label convolution of two pair-error distributions under swapping."""
    out = np.zeros(4, dtype=np.float64)
    for i, (xi, zi) in enumerate(LABEL_XZ):
        for j, (xj, zj) in enumerate(LABEL_XZ):
            out[LABEL_INDEX[(xi ^ xj, zi ^ zj)]] += a.probs[i] * b.probs[j]
    return BellDiagonalState(out)


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
        if self.num_links < 1:
            raise ValueError("num_links must be >= 1")
        if self.purify_rounds < 0:
            raise ValueError("purify_rounds must be >= 0")
        if not 1 <= self.mc_trials <= MAX_TRIALS:
            raise ValueError(f"mc_trials must lie in [1, 2**32], got {self.mc_trials}")
        if self.hop_delay_D < 0:
            raise ValueError("hop delay must be >= 0")
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
    m = config.num_links
    log: list = []
    if config.mode == "physical":
        link, survival_link = _purify_link(config.link_state, config.purify_rounds, log)
        end = _fold([link] * m)
        # two-way purification acks plus one-way forwarding of swap frames
        latency = 2.0 * config.hop_delay_D * config.purify_rounds + (m - 1) * config.hop_delay_D
        raw_pairs = 2 ** config.purify_rounds
        survival = survival_link ** m
        log.append({"stage": "swap", "links": m, "fidelity": end.fidelity})
        return ChainReport(end, survival_link / raw_pairs, survival, latency, log)

    # encoded modes: purified (or raw) links feed a logical channel per hop
    if config.mode == "encoded_teleport":
        link, survival_link = _purify_link(config.link_state, config.purify_rounds, log)
        p_x = float(link.probs[1] + link.probs[2])
        p_z = float(link.probs[3] + link.probs[2])
        noise = KnillNoise(
            epr_error=NoiseModel.independent_xz(p_x, p_z),
            meas_flip=config.p_g,
        )
        raw_pairs = 2 ** config.purify_rounds
    else:  # encoded_direct: no purification stage, effective rate per hop
        survival_link = 1.0
        raw_pairs = 1
        # p_c + 5 p_g already counts the Bell-measurement fault, so no readout flips
        noise = KnillNoise(data_noise=NoiseModel.depolarizing(effective_error_rate(config.p_c, config.p_g)))
    hops = []
    label_of = np.array([LABEL_INDEX[(x, z)] for x in (0, 1) for z in (0, 1)])  # indexed by 2x + z
    for hop in range(m):  # each hop's logical error distribution from seeded Knill rounds
        x_bad, z_bad, _ = knill_residuals(config.code, config.decoder, noise, config.seed, (900 + hop,), config.mc_trials)
        counts = np.bincount(label_of[2 * x_bad + z_bad], minlength=4)
        hops.append(BellDiagonalState(counts / counts.sum()))
        log.append({"stage": "hop", "hop": hop, "logical_fidelity": hops[-1].fidelity})
    end = _fold(hops)
    latency = config.hop_delay_D * m  # one-way classical communication only
    return ChainReport(end, survival_link / raw_pairs, survival_link ** m, latency, log)


def compare_latency(config: ChainConfig) -> tuple[float, float]:
    """(two_way_T, one_way_T) for the same chain geometry: the physical
    purification path vs the encoded one-way path."""
    m = config.num_links
    two_way = config.hop_delay_D * m + 2.0 * config.hop_delay_D * config.purify_rounds
    one_way = config.hop_delay_D * m
    return two_way, one_way


# --- tableau cross-check -----------------------------------------------------


def sample_chain_trial(config: ChainConfig, rng: np.random.Generator):
    """One full tableau trial of the physical mode.

    Returns (success, end_label_index or None). A trial fails when any
    purification comparison disagrees.
    """
    if config.mode != "physical":
        raise ValueError("sampling cross-check covers the physical mode only")
    m = config.num_links
    per_link = 2 ** config.purify_rounds
    n = m * per_link * 2
    state = StabilizerState(n)
    # link l owns pairs [l * per_link, (l + 1) * per_link); pair i is qubits (2i, 2i + 1)
    pairs = [(q, q + 1) for q in range(0, n, 2)]
    for a, b in pairs:
        prepare_bell(state, a, b)
        x, z = LABEL_XZ[config.link_state.sample_label(rng)]
        state.apply_pauli([x], [z], a)

    for link in range(m):
        alive = pairs[link * per_link : (link + 1) * per_link]
        for basis in default_purify_schedule(config.purify_rounds):
            for keep, meas in zip(alive[::2], alive[1::2]):
                bit_a, bit_b = purify_round(state, keep, meas, basis, [rng])
                if bit_a[0] != bit_b[0]:
                    return False, None
            alive = alive[::2]

    # swap each link's kept pair (its first) and read the end-to-end label
    xx, zz = swap_readout(state, pairs[::per_link], [rng])[0, -1]
    return True, LABEL_INDEX[(int(zz), int(xx))]
