"""Workload definitions and output checks for the qnetcode benchmark.

A workload is a fixed mix of CLI commands. One *cycle* runs each command
of the mix once, with the benchmark seed; the measured phase repeats the
same cycle, so every repeat does identical work and must print identical
rows. Rows are checked: exact fields per invocation, Monte Carlo rates
against a reference measured once (``reference.json``).

This module does not import qnetcode, so the parent process that
spawns the measuring processes stays free of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Two-sided tail probability below which a pooled rate counts as wrong.
# Small enough that a correct program fails a check about once in 10^6.
RATE_ALPHA = 1e-6
SWAP_SIGMAS = 4.0
CHAIN_SIGMAS = 6.0

CHAIN_LINKS = 4
CHAIN_ROUNDS_PER_HOP = 400  # ChainConfig.mc_trials; chain ignores --trials
SWAP_LINKS = 8
SWAP_P = 0.05


@dataclass(frozen=True)
class Command:
    """One CLI command of a mix. ``trials`` is the --trials value of a
    measured invocation, or None for chain, whose trial count is fixed.
    ``exact`` maps row fields to the values every row must carry.
    ``fixed_seed``, when set, replaces the benchmark seed."""

    key: str
    argv: tuple[str, ...]
    trials: int | None
    exact: dict = field(default_factory=dict)
    fixed_seed: int | None = None

    def invocation(self, seed: int, trials: int | None = None) -> list[str]:
        if self.fixed_seed is not None:
            seed = self.fixed_seed
        argv = [*self.argv, "--seed", str(seed), "--format", "json"]
        n = self.trials if trials is None else trials
        if n is not None:
            argv += ["--trials", str(n)]
        return argv

    def trial_count(self, trials: int | None = None) -> int:
        if self.trials is None:
            return CHAIN_LINKS * CHAIN_ROUNDS_PER_HOP
        return self.trials if trials is None else trials


KNILL_S5 = Command(
    "knill_surface5",
    ("knill", "--code", "surface:5", "--decoder", "mwpm", "--pc", "0.01", "--pg", "0.001"),
    40,
    {"code_id": "surface:5", "p_eff": 0.015},
)
# BP's cost per shot has a heavy tail: at p=0.01 about 4% of shots run into
# the 100-iteration cap, so the cost of a 40-shot sample varies by about
# 45% (one sigma) from seed to seed. Every run therefore decodes the same
# shots, and trials_per_s measures the decoder rather than the sample.
DECODE_BP = Command(
    "decode_bp",
    ("decode", "--code", "hgp:2:9:12:4", "--decoder", "bp", "--p", "0.01"),
    40,
    {"code_id": "hgp:2:9:12:4", "n": 225, "k": 9},
    fixed_seed=0,
)
DECODE_MWPM = Command(
    "decode_mwpm",
    ("decode", "--code", "surface:5", "--decoder", "mwpm", "--p", "0.08"),
    1500,
    {"code_id": "surface:5", "n": 25, "k": 1, "d": 5},
)
CHAIN = Command(
    "chain",
    ("chain", "--mode", "encoded_teleport", "--links", str(CHAIN_LINKS), "--code", "shor9",
     "--fidelity", "0.95", "--rounds", "2"),
    None,
    {"mode": "encoded_teleport", "m": CHAIN_LINKS, "survival": 0.4456492960757894,
     "latency_T": 40, "two_way_T": 80, "one_way_T": 40},
)
SWAP = Command(
    "swap",
    ("protocol", "--name", "swap", "--links", str(SWAP_LINKS), "--noise", f"depolarizing:{SWAP_P}"),
    1000,
)
# chain has no --trials to shrink, so its set-up stand-in is one Knill round
# that builds the same code (shor9) and decoder (lookup) that chain builds.
KNILL_SHOR9 = Command(
    "knill_shor9",
    ("knill", "--code", "shor9", "--decoder", "lookup", "--pc", "0.05", "--pg", "0.001"),
    1,
    {"code_id": "shor9", "p_eff": 0.055},
)


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[Command, ...]
    setup: tuple[Command, ...]
    # Untraced wall time of one cycle at the commit that defined the
    # benchmark (2-core Xeon). It sizes the traced run to a fixed number
    # of cycles, so its call counts repeat exactly for a given seed.
    nominal_cycle_s: float

    def trace_cycles(self, seconds: float) -> int:
        return max(2, round(seconds / 2 / self.nominal_cycle_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "knill_surface5",
            (KNILL_S5,),
            (KNILL_S5,),
            0.7,
        ),
        Workload(
            "decode_mix",
            (DECODE_BP, DECODE_MWPM),
            (DECODE_BP, DECODE_MWPM),
            3.0,
        ),
        Workload(
            "network_chain",
            (CHAIN, SWAP),
            (KNILL_SHOR9, SWAP),
            8.0,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# --- statistics ----------------------------------------------------------------


def _binom_logpmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binom_two_sided_p(k: int, n: int, p: float) -> float:
    """2 * min(P[X <= k], P[X >= k]) for X ~ Binomial(n, p), capped at 1."""
    pmf = [math.exp(_binom_logpmf(i, n, p)) for i in range(n + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))


def rate_matches_reference(failures: int, trials: int, ref_failures: int, ref_trials: int) -> bool:
    """Conditional test that two binomial samples share one rate.

    Given K failures in both samples together, under equal rates the run's
    share of them is Binomial(K, trials / (trials + ref_trials)). The
    reference's own sampling error is thereby accounted for.
    """
    total = failures + ref_failures
    if total == 0:
        return True
    share = trials / (trials + ref_trials)
    return binom_two_sided_p(failures, total, share) >= RATE_ALPHA


def swap_success_exact(links: int = SWAP_LINKS, p: float = SWAP_P) -> float:
    """Probability that m depolarized links swap to an identity frame:
    each of the 2m noisy qubits keeps the Bell label with 1 - 4p/3 bias."""
    return (1.0 + 3.0 * (1.0 - 4.0 * p / 3.0) ** (2 * links)) / 4.0


# --- output checks -----------------------------------------------------------------

TIMING_FIELDS = ("seconds", "wall_time_ms")


class Pool:
    """Monte Carlo outcomes of one command, pooled over the distinct
    invocations of a run."""

    def __init__(self):
        self.trials = 0
        self.events = 0
        self.values: list[float] = []


def check_invocation(cmd: Command, trials: int | None, rows: list[dict], pool: Pool) -> list[str]:
    """Exact-field checks on one invocation's rows; adds its Monte Carlo
    outcomes to ``pool``. Returns the list of problems found."""
    n = cmd.trial_count(trials)
    if cmd.argv[0] == "protocol":
        problems = []
        if len(rows) != n:
            return [f"{cmd.key}: {len(rows)} rows for {n} trials"]
        for t, row in enumerate(rows):
            if row.get("trial_id") != t or row.get("protocol") != "swap" or row.get("success") not in (0, 1):
                problems.append(f"{cmd.key}: malformed row {row!r}")
                break
            if len(row.get("outcome_bits", "")) != 2 * SWAP_LINKS:
                problems.append(f"{cmd.key}: {row['outcome_bits']!r} is not {SWAP_LINKS} Bell outcomes")
                break
        pool.trials += n
        pool.events += sum(row.get("success", 0) for row in rows)
        return problems
    if len(rows) != 1:
        return [f"{cmd.key}: expected one row, got {len(rows)}"]
    row = rows[0]
    problems = [
        f"{cmd.key}: {name}={row.get(name)!r}, expected {want!r}"
        for name, want in cmd.exact.items()
        if row.get(name) != want
    ]
    if cmd.argv[0] == "chain":
        f_end = row.get("F_end")
        if not isinstance(f_end, float) or not 0.0 <= f_end <= 1.0:
            problems.append(f"{cmd.key}: F_end={f_end!r} is not a probability")
        else:
            pool.trials += n
            pool.values.append(f_end)
        return problems
    if row.get("trials") != n:
        problems.append(f"{cmd.key}: trials={row.get('trials')!r}, expected {n}")
    failures = row.get("logical_failures")
    if not isinstance(failures, int) or not 0 <= failures <= n:
        return problems + [f"{cmd.key}: logical_failures={failures!r} out of range"]
    if cmd.argv[0] == "knill" and row.get("failure_rate") != failures / n:
        problems.append(f"{cmd.key}: failure_rate disagrees with logical_failures/trials")
    pool.trials += n
    pool.events += failures
    return problems


def check_pool(cmd: Command, pool: Pool, reference: dict) -> list[str]:
    """Pooled Monte Carlo checks of one command over a run."""
    if pool.trials == 0:
        return []  # no well-formed rows: those calls already failed
    if cmd.argv[0] == "protocol":
        p = swap_success_exact()
        sigma = math.sqrt(p * (1 - p) / pool.trials)
        got = pool.events / pool.trials
        if abs(got - p) > SWAP_SIGMAS * sigma:
            return [f"{cmd.key}: success fraction {got:.5f} is more than "
                    f"{SWAP_SIGMAS} sigma from the exact {p:.5f}"]
        return []
    ref = reference.get(cmd.key)
    if ref is None:
        return []  # set-up stand-ins carry no rate reference
    if cmd.argv[0] == "chain":
        mean = sum(pool.values) / len(pool.values)
        band = CHAIN_SIGMAS * math.hypot(ref["std"] / math.sqrt(len(pool.values)),
                                         ref["std"] / math.sqrt(ref["samples"]))
        if abs(mean - ref["mean"]) > band:
            return [f"{cmd.key}: mean F_end {mean:.5f} outside {ref['mean']:.5f} +- {band:.5f}"]
        return []
    if not rate_matches_reference(pool.events, pool.trials, ref["failures"], ref["trials"]):
        return [f"{cmd.key}: {pool.events}/{pool.trials} failures disagree with the "
                f"reference {ref['failures']}/{ref['trials']}"]
    return []


def comparable(rows: list[dict]) -> list[dict]:
    """Rows with wall-time columns removed: the deterministic data."""
    return [{k: v for k, v in row.items() if k not in TIMING_FIELDS} for row in rows]
