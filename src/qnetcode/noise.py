"""Pauli error models, Bell-diagonal pair states, and effective-rate arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qnetcode.pauli import PauliOperator

_VARIANTS = ("none", "bit_flip", "phase_flip", "depolarizing", "independent_xz")

SIMPLEX_TOL = 1e-12


def _check_prob(p: float, name: str = "probability"):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit i.i.d. Pauli error channel.

    Variants: none; bit_flip(p); phase_flip(p); depolarizing(p) with p/3
    on each of X, Y, Z; independent_xz(p_x, p_z).
    """

    variant: str
    p: float = 0.0
    p_z: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown noise variant {self.variant!r}")
        _check_prob(self.p)
        _check_prob(self.p_z)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def bit_flip(cls, p: float) -> "NoiseModel":
        return cls("bit_flip", p)

    @classmethod
    def phase_flip(cls, p: float) -> "NoiseModel":
        return cls("phase_flip", p)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        return cls("depolarizing", p)

    @classmethod
    def independent_xz(cls, p_x: float, p_z: float) -> "NoiseModel":
        return cls("independent_xz", p_x, p_z)

    @classmethod
    def from_spec(cls, spec: str) -> "NoiseModel":
        """Parse config strings like ``depolarizing:0.055``,
        ``independent_xz:0.01,0.01``, or ``none``."""
        name, colon, args = spec.partition(":")
        name = name.strip()
        if name == "none":
            if colon:
                raise ValueError(f"none takes no arguments, got {spec!r}")
            return cls.none()
        vals = [float(v) for v in args.split(",")] if args else []
        if name in ("bit_flip", "phase_flip", "depolarizing"):
            if len(vals) != 1:
                raise ValueError(f"{name} takes one probability, got {spec!r}")
            return cls(name, vals[0])
        if name == "independent_xz":
            if len(vals) != 2:
                raise ValueError(f"independent_xz takes two probabilities, got {spec!r}")
            return cls(name, vals[0], vals[1])
        raise ValueError(f"unknown noise spec {spec!r}")

    def uniforms(self, n: int) -> int:
        """Uniforms n qubits read: none 0, independent_xz 2n (X draws, then Z), others n."""
        return {"none": 0, "independent_xz": 2 * n}.get(self.variant, n)


def pauli_bits(model: NoiseModel, u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli bits (x, z), each (..., n) uint8, from uniforms u of shape
    (..., model.uniforms(n)). Depolarizing reads one uniform per qubit:
    X below p/3, Y in [p/3, 2p/3), Z in [2p/3, p)."""
    zero = np.zeros(u.shape[:-1] + (n,), dtype=np.uint8)
    if model.variant == "none":
        return zero, zero.copy()
    if model.variant == "bit_flip":
        return (u < model.p).astype(np.uint8), zero
    if model.variant == "phase_flip":
        return zero, (u < model.p).astype(np.uint8)
    if model.variant == "independent_xz":
        return (u[..., :n] < model.p).astype(np.uint8), (u[..., n:] < model.p_z).astype(np.uint8)
    third = model.p / 3.0  # depolarizing
    return (u < 2 * third).astype(np.uint8), ((u >= third) & (u < 3 * third)).astype(np.uint8)


def sample_error(model: NoiseModel, n: int, rng: np.random.Generator) -> PauliOperator:
    """Draw an n-qubit Pauli with independent per-qubit errors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PauliOperator(n, *pauli_bits(model, rng.random(model.uniforms(n)), n))


def effective_error_rate(p_c: float, p_g: float) -> float:
    """First-order effective data error rate p_c + 5 p_g, clamped at 1.

    Five fault locations feed each Bell-measurement outcome bit (two
    ancilla preparations, two CNOTs, one measurement) on top of the EPR
    communication error.
    """
    _check_prob(p_c, "p_c")
    _check_prob(p_g, "p_g")
    return min(p_c + 5.0 * p_g, 1.0)


@dataclass(frozen=True)
class BellDiagonalState:
    """Probability vector over the error labels pauli.LABELS of an EPR pair."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (4,):
            raise ValueError("probs must have exactly 4 entries")
        if not np.isfinite(p).all() or (p < -SIMPLEX_TOL).any() or abs(p.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probs is not a simplex vector: {p}")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def perfect(cls) -> "BellDiagonalState":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @property
    def fidelity(self) -> float:
        return float(self.probs[0])

    def labels(self, u: np.ndarray) -> np.ndarray:
        """Indices into pauli.LABELS, one per uniform in u: a searchsorted on the
        normalised CDF, which is what Generator.choice(4, p=...) does with
        its one uniform."""
        cdf = (self.probs / self.probs.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(u, side="right")


def werner(F: float) -> BellDiagonalState:
    """Werner pair: the non-identity labels share (1-F)/3 each."""
    _check_prob(F, "fidelity")
    r = (1.0 - F) / 3.0
    return BellDiagonalState(np.array([F, r, r, r]))
