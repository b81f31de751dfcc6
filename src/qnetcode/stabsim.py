"""Exact Clifford-circuit simulation with a sign-tracking stabilizer tableau,
run for T trials at once.

The tableau holds n destabilizer rows followed by n stabilizer rows; each
row is an (x_bits, z_bits, sign) triple. Updates follow the standard
conjugation rules, O(n^2) per measurement. Row products use the rowsum
phase rule of Aaronson & Gottesman (arXiv:quant-ph/0406196), written once
in ``_phase_exponents``: a random measurement multiplies one pivot row into
many rows at once, and a deterministic measurement or an expectation value
multiplies the selected stabilizer rows together in one vectorized pass.

Trials share the x/z bits and differ only in their signs. Every trial
runs the same Clifford gates and measures the same Paulis; what differs
between trials is the Paulis applied (noise, conditional frames) and the
measurement outcomes, and both only flip signs. Conjugation moves x/z
bits independently of the signs, and the x/z bits alone decide whether a
measurement is random and which row is its pivot. So x and z are
(2n, n) arrays, the signs r a (T, 2n) array, and T trials run exactly as
T one-trial tableaus would. For the same reason every trial makes the
same random draws in the same order, so a batch draws its outcomes from
one rng.TrialStreams object, all trials at one stream position.

No CLI command runs the tableau: it is the oracle of the Pauli-frame
engines (ftec.knill_ec_round, protocols.purify_pair_sampled,
netchain.sample_chain_trial, and the protocol circuits in the tests).
"""

from __future__ import annotations

import numpy as np

from qnetcode.pauli import PauliOperator
from qnetcode.rng import TrialStreams

_Z = PauliOperator.from_string("Z")


def _phase_exponents(x1, z1, x2, z2) -> np.ndarray:
    """Power of i (mod 4) picked up by the product (x1, z1) * (x2, z2),
    summed over the qubit axis (the last one); leading axes broadcast.
    Per qubit, x1 z1 + x2 z2 + 2 z1 x2 - (x1^x2)(z1^z2) equals Aaronson &
    Gottesman's piecewise g mod 4. The sums are int64: uint8 sums are unsigned."""
    gain = (x1 & z1) + (x2 & z2) + 2 * (z1 & x2)
    loss = (x1 ^ x2) & (z1 ^ z2)
    return gain.sum(axis=-1, dtype=np.int64) - loss.sum(axis=-1, dtype=np.int64)


class StabilizerState:
    """All-zeros computational basis state on n qubits, for ``trials`` trials.

    A Pauli argument acts on a block: a Pauli of width w with offset
    ``at`` acts on the qubits [at, at + w); a block past either end is a
    ValueError. A measurement takes the trials' streams as one
    rng.TrialStreams object and returns one outcome bit per trial, as a
    (T,) array.
    """

    def __init__(self, num_qubits: int, trials: int = 1):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        n = num_qubits
        self.num_qubits = n
        self.trials = trials
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((trials, 2 * n), dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1          # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = 1      # stabilizers Z_i

    def _check_qubit(self, *qs: int):
        for q in qs:
            if not 0 <= q < self.num_qubits:
                raise IndexError(f"qubit {q} out of range for n={self.num_qubits}")

    # --- gates -----------------------------------------------------------

    def h(self, q: int):
        self._check_qubit(q)
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, c: int, t: int):
        self._check_qubit(c, t)
        if c == t:
            raise ValueError("control and target must differ")
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def _anticommutes(self, x_bits, z_bits, at: int = 0) -> np.ndarray:
        """Bit per tableau row, shape (..., 2n): 1 where the row anticommutes
        with the Pauli (x_bits, z_bits) of shape (..., w) at ``at``. The
        products are uint8, which wraps mod 256 and so keeps every parity."""
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        z_bits = np.asarray(z_bits, dtype=np.uint8)
        w = x_bits.shape[-1]
        if z_bits.shape != x_bits.shape:
            raise ValueError(f"x and z bits differ in shape: {x_bits.shape} vs {z_bits.shape}")
        if not 0 <= at <= self.num_qubits - w:
            raise ValueError(f"Pauli on qubits [{at}, {at + w}) does not fit n={self.num_qubits}")
        block = slice(at, at + w)
        return (z_bits @ self.x[:, block].T + x_bits @ self.z[:, block].T) & 1

    def apply_pauli(self, x_bits, z_bits, at: int = 0):
        """Conjugate by the Pauli with bits (x_bits, z_bits) at ``at``: shape
        (w,) for the same Pauli on every trial, (T, w) for one per trial.
        Conjugation by a Pauli only flips signs of anticommuting rows."""
        self.r ^= self._anticommutes(x_bits, z_bits, at)

    # --- row arithmetic ---------------------------------------------------

    def _rowsum_many(self, rows: np.ndarray, i: int):
        """Multiply row i into every row in ``rows`` at once, on every trial.

        A product's sign bit is ((2 r_row + 2 r_i + g) mod 4) // 2, which
        equals r_row ^ r_i ^ ((g >> 1) & 1) for every integer g (>> floors).
        g depends on the x/z bits alone, so one bit per row serves every
        trial.
        """
        g = _phase_exponents(self.x[i], self.z[i], self.x[rows], self.z[rows])
        self.r[:, rows] ^= self.r[:, i, None] ^ ((g >> 1) & 1).astype(np.uint8)
        self.x[rows] ^= self.x[i]
        self.z[rows] ^= self.z[i]

    def _stabilizer_product(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_bits, z_bits, sign bits (T,)) of the product of the given stabilizer rows.

        Row j is multiplied onto the running product of the rows before
        it. The stabilizer rows commute, so every partial product is
        Hermitian and its phase exponent is even: reducing it to a sign
        bit after each step loses nothing, and the sign bit of the whole
        product is half the summed exponents mod 4: the XOR of the rows'
        sign bits and bit 1 of the exponents' sum, as in _rowsum_many. The
        exponents come from the x/z bits alone, so one sum serves every
        trial.
        """
        x = self.x[rows]
        z = self.z[rows]
        # XOR with its own row turns the running product into the product before that row
        before_x = np.bitwise_xor.accumulate(x, axis=0) ^ x
        before_z = np.bitwise_xor.accumulate(z, axis=0) ^ z
        g = int(_phase_exponents(x, z, before_x, before_z).sum())
        sign = np.bitwise_xor.reduce(self.r[:, rows], axis=1) ^ ((g >> 1) & 1)
        return np.bitwise_xor.reduce(x, axis=0), np.bitwise_xor.reduce(z, axis=0), sign

    # --- measurement ------------------------------------------------------

    def measure_pauli(self, p: PauliOperator, rngs: TrialStreams, at: int = 0) -> np.ndarray:
        """Measure the Hermitian Pauli +p at ``at`` on every trial; returns
        the (T,) outcome bits. ``rngs`` draws for the same T trials.

        Outcome 0 projects onto the +1 eigenspace. Deterministic when
        +/-p is in the stabilizer group, else uniformly random with a
        tableau update: every trial draws its outcome with rngs.bits(),
        which is integers(2) on the trial's own stream.
        """
        if len(rngs) != self.trials:
            raise ValueError(f"the streams draw for {len(rngs)} trials, the state has {self.trials}")
        n = self.num_qubits
        comm = self._anticommutes(p.x_bits, p.z_bits, at)
        anti_stab = np.nonzero(comm[n:])[0]
        if anti_stab.size:
            piv = n + int(anti_stab[0])
            others = np.nonzero(comm)[0]
            others = others[others != piv]
            if others.size:
                self._rowsum_many(others, piv)
            outcome = rngs.bits()
            self.x[piv - n] = self.x[piv]
            self.z[piv - n] = self.z[piv]
            self.r[:, piv - n] = self.r[:, piv]
            self.x[piv] = self.z[piv] = 0
            self.x[piv, at : at + p.num_qubits] = p.x_bits
            self.z[piv, at : at + p.num_qubits] = p.z_bits
            self.r[:, piv] = outcome
            return outcome
        # deterministic: the stabilizer product equal to +/-p carries the sign
        return self._stabilizer_product(n + np.nonzero(comm[:n])[0])[2]

    def measure_z(self, q: int, rngs: TrialStreams) -> np.ndarray:
        self._check_qubit(q)
        return self.measure_pauli(_Z, rngs, q)

    def bell_measure(self, q1: int, q2: int, rngs: TrialStreams) -> tuple[np.ndarray, np.ndarray]:
        """Joint XX/ZZ measurement of (q1, q2) via CNOT, H, two Z reads.

        Returns the (T,) arrays (xx_bits, zz_bits); both qubits end in
        computational basis states (consumed).
        """
        self._check_qubit(q1, q2)
        if q1 == q2:
            raise ValueError("Bell measurement needs two distinct qubits")
        self.cnot(q1, q2)
        self.h(q1)
        xx = self.measure_z(q1, rngs)
        zz = self.measure_z(q2, rngs)
        return xx, zz

    def expectation(self, p: PauliOperator, at: int = 0) -> np.ndarray:
        """Per trial, +1/-1 if +/-p at ``at`` stabilizes the state, 0 if the
        outcome is random; a (T,) int64 array."""
        n = self.num_qubits
        comm = self._anticommutes(p.x_bits, p.z_bits, at)
        if comm[n:].any():
            return np.zeros(self.trials, dtype=np.int64)
        xh, zh, rh = self._stabilizer_product(n + np.nonzero(comm[:n])[0])
        xh[at : at + p.num_qubits] ^= p.x_bits
        zh[at : at + p.num_qubits] ^= p.z_bits
        if xh.any() or zh.any():
            raise AssertionError("destabilizer bookkeeping out of sync")
        return 1 - 2 * rh.astype(np.int64)


def prepare_bell(state: StabilizerState, q1: int, q2: int):
    """Turn |00> on (q1, q2) into the +XX/+ZZ Bell pair."""
    state.h(q1)
    state.cnot(q1, q2)
