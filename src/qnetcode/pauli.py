"""n-qubit Pauli operators in binary symplectic form (phase-free)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTERS.items()}


def _freeze(bits, n: int) -> np.ndarray:
    a = np.asarray(bits, dtype=np.uint8) & 1
    if a.shape != (n,):
        raise ValueError(f"expected {n} bits, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PauliOperator:
    """Pauli on ``num_qubits`` qubits as paired X/Z bit vectors.

    Qubit i carries Y iff both x_bits[i] and z_bits[i] are set. Global
    phase is not tracked; equality is equality of the bit vectors.
    """

    num_qubits: int
    x_bits: np.ndarray
    z_bits: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        object.__setattr__(self, "x_bits", _freeze(self.x_bits, self.num_qubits))
        z = self.z_bits if self.z_bits is not None else np.zeros(self.num_qubits)
        object.__setattr__(self, "z_bits", _freeze(z, self.num_qubits))

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_string(cls, s: str) -> "PauliOperator":
        """Parse a string over {I,X,Y,Z}; leftmost character is qubit 0."""
        try:
            pairs = [_BITS[c] for c in s]
        except KeyError as e:
            raise ValueError(f"invalid Pauli letter {e.args[0]!r}") from None
        if not pairs:
            raise ValueError("empty Pauli string")
        x, z = zip(*pairs)
        return cls(len(s), np.array(x, dtype=np.uint8), np.array(z, dtype=np.uint8))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOperator":
        """Single-qubit Pauli ``letter`` on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n:
            raise IndexError(f"qubit {qubit} out of range for n={n}")
        bits = np.zeros((2, n), dtype=np.uint8)
        bits[:, qubit] = _BITS[letter]
        return cls(n, *bits)

    def to_string(self) -> str:
        return "".join(
            _LETTERS[(int(x), int(z))] for x, z in zip(self.x_bits, self.z_bits)
        )

    def __str__(self) -> str:
        return self.to_string()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.x_bits, other.x_bits)
            and np.array_equal(self.z_bits, other.z_bits)
        )

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.x_bits.tobytes(), self.z_bits.tobytes()))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Phase-free Pauli group product: XOR of the bit vectors."""
    if p.num_qubits != q.num_qubits:
        raise ValueError(f"Pauli length mismatch: {p.num_qubits} vs {q.num_qubits}")
    return PauliOperator(p.num_qubits, p.x_bits ^ q.x_bits, p.z_bits ^ q.z_bits)

