"""n-qubit Pauli operators in binary symplectic form (phase-free), and the
one table of each Pauli letter's (x, z) bits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Letter (and Bell-diagonal label) order: I, X, Y, Z. Bell label l means the
# pair state (sigma_l x I)|Phi+>; fidelity is the I probability.
LABELS = ("I", "X", "Y", "Z")
LABEL_XZ = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=np.uint8)  # (x, z) bits of each label
LABEL_OF = np.argsort(2 * LABEL_XZ[:, 0] + LABEL_XZ[:, 1])  # label index at 2x + z


def _bits_of(letter: str) -> np.ndarray:
    """The (x, z) bits of one letter of LABELS."""
    if letter not in LABELS:
        raise ValueError(f"invalid Pauli letter {letter!r}")
    return LABEL_XZ[LABELS.index(letter)]


def _freeze(bits, n: int) -> np.ndarray:
    a = np.asarray(bits, dtype=np.uint8) & 1
    if a.shape != (n,):
        raise ValueError(f"expected {n} bits, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
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
        bits = [_bits_of(c) for c in s]
        if not bits:
            raise ValueError("empty Pauli string")
        return cls(len(s), *np.transpose(bits))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOperator":
        """Single-qubit Pauli ``letter`` on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n:
            raise IndexError(f"qubit {qubit} out of range for n={n}")
        bits = np.zeros((2, n), dtype=np.uint8)
        bits[:, qubit] = _bits_of(letter)
        return cls(n, *bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.x_bits, other.x_bits)
            and np.array_equal(self.z_bits, other.z_bits)
        )
