"""EPR-generation-rate accounting: qubit-budget block counting, per-cycle
rate, and cross-code comparison. All arithmetic is exact (integers and
rationals); decimal output is presentation only."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ROUND_COST_T = 4  # time units T of one Knill round: a node's default rate cycle


@dataclass(frozen=True)
class RateConfig:
    qubit_budget_Q: int
    code_n: int
    code_k: int
    cycle_T_units: int = ROUND_COST_T

    def __post_init__(self):
        if self.qubit_budget_Q < 1 or self.code_n < 1 or self.code_k < 0:
            raise ValueError("Q and n must be positive, k non-negative")
        if self.cycle_T_units <= 0:
            raise ValueError("cycle_T_units must be positive")


@dataclass(frozen=True)
class RateReport:
    blocks: int
    epr_units_per_T: Fraction


def blocks(Q: int, n: int) -> int:
    """Code blocks a Q-qubit node can hold: floor(Q / 3n).

    Each block needs n data qubits plus 2n ancillary qubits for the
    encoded EPR pair.
    """
    if Q < 1 or n < 1:
        raise ValueError("Q and n must be positive")
    return Q // (3 * n)


def epr_rate(config: RateConfig) -> RateReport:
    """Information qubits corrected per T: k * blocks / cycle."""
    b = blocks(config.qubit_budget_Q, config.code_n)
    rate = Fraction(config.code_k * b, config.cycle_T_units)
    return RateReport(blocks=b, epr_units_per_T=rate)


def compare(config_a: RateConfig, config_b: RateConfig) -> Fraction:
    """Exact rate ratio rate_b / rate_a; raises on a zero baseline."""
    rate_a = epr_rate(config_a).epr_units_per_T
    rate_b = epr_rate(config_b).epr_units_per_T
    if rate_a == 0:
        raise ZeroDivisionError("baseline configuration has zero rate")
    return rate_b / rate_a


def fold_description(ratio: Fraction) -> str:
    """Integer-fold rendering, rounded down: Fraction(2838, 39) -> '≈72-fold'.
    A ratio below 1 reads by its inverse (1/5 -> '≈5-fold lower'), and 0 as
    'no rate'."""
    if ratio == 0:
        return "no rate"
    return f"≈{int(1 / ratio)}-fold lower" if ratio < 1 else f"≈{int(ratio)}-fold"
