"""CSS stabilizer code model, constructors, code ids, and syndrome computation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from qnetcode import gf2
from qnetcode.pauli import PauliOperator
from qnetcode.rng import stream


def _freeze(m: np.ndarray) -> np.ndarray:
    m = gf2.asmatrix(m)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class CssCode:
    """CSS code given by bit-flip checks h_z, phase-flip checks h_x,
    and logical X/Z operator supports.

    h_x rows are X-type stabilizer supports (detect Z errors), h_z rows
    Z-type supports (detect X errors). d is stored metadata; it is never
    recomputed for large codes.
    """

    n: int
    k: int
    d: Union[int, str]
    h_x: np.ndarray
    h_z: np.ndarray
    logical_x: np.ndarray
    logical_z: np.ndarray
    name: str = "css"

    def __post_init__(self):
        for attr in ("h_x", "h_z", "logical_x", "logical_z"):
            m = gf2.asmatrix(getattr(self, attr))
            if m.size == 0:
                m = m.reshape(0, self.n)
            if m.shape[1] != self.n:
                raise ValueError(f"{attr} has {m.shape[1]} columns, expected n={self.n}")
            object.__setattr__(self, attr, _freeze(m))
        if self.logical_x.shape[0] != self.k or self.logical_z.shape[0] != self.k:
            raise ValueError("logical operator count must equal k")

    @property
    def r_x(self) -> int:
        return self.h_x.shape[0]

    @property
    def r_z(self) -> int:
        return self.h_z.shape[0]


def validate(code: CssCode):
    """Check the CSS invariants: h_x h_z^T = 0, each logical operator
    commutes with the opposite checks, logical X/Z pair as the identity,
    and k = n - rank(h_x) - rank(h_z). Raises AssertionError listing
    every violation.

    Dimension mismatches raise ValueError at construction time.
    """
    violations = []
    if code.r_x and code.r_z:
        for i, j in zip(*np.nonzero(gf2.matmul(code.h_x, code.h_z.T))):
            violations.append(f"CSS orthogonality violated: h_x row {i} vs h_z row {j}")
    if code.k and code.r_z:
        for i, j in zip(*np.nonzero(gf2.matmul(code.logical_x, code.h_z.T))):
            violations.append(f"logical_x row {i} anticommutes with h_z row {j}")
    if code.k and code.r_x:
        for i, j in zip(*np.nonzero(gf2.matmul(code.logical_z, code.h_x.T))):
            violations.append(f"logical_z row {i} anticommutes with h_x row {j}")
    if code.k and not np.array_equal(gf2.matmul(code.logical_x, code.logical_z.T), np.eye(code.k)):
        violations.append("logical X/Z pairing is not the identity matrix")
    k_rank = code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z)
    if k_rank != code.k:
        violations.append(f"k={code.k} but n - rank(h_x) - rank(h_z) = {k_rank}")
    if violations:
        raise AssertionError(f"{code.name} is not a valid CSS code: " + "; ".join(violations))


def parities(code: CssCode, x: np.ndarray, z: np.ndarray):
    """Check and logical parities of a batch of T Paulis with (T, n) bits x, z.

    Returns (s_x, s_z, l_x, l_z): the h_x checks (T, r_x) and logical X
    rows (T, k) read the Z bits; the h_z checks (T, r_z) and logical Z
    rows (T, k) read the X bits. s_x, s_z form the syndrome; l_x (l_z)
    is set where the Pauli acts as a logical Z (X), i.e. its logical class.
    """
    z_rows = gf2.matmul(z, np.concatenate([code.h_x, code.logical_x]).T)
    x_rows = gf2.matmul(x, np.concatenate([code.h_z, code.logical_z]).T)
    return z_rows[:, : code.r_x], x_rows[:, : code.r_z], z_rows[:, code.r_x :], x_rows[:, code.r_z :]


def syndrome(code: CssCode, error: PauliOperator) -> tuple[np.ndarray, np.ndarray]:
    """(s_x_checks, s_z_checks): h_x fires on Z components, h_z on X."""
    if error.num_qubits != code.n:
        raise ValueError(f"error acts on {error.num_qubits} qubits, code has n={code.n}")
    s_x, s_z, _, _ = parities(code, error.x_bits[None], error.z_bits[None])
    return s_x[0], s_z[0]


def rep3() -> CssCode:
    """Three-qubit repetition code: bit-flip protection only."""
    return CssCode(
        n=3,
        k=1,
        d=3,
        h_x=np.zeros((0, 3)),
        h_z=[[1, 1, 0], [0, 1, 1]],
        logical_x=[[1, 1, 1]],
        logical_z=[[1, 1, 1]],
        name="rep3",
    )


def shor9() -> CssCode:
    """Nine-qubit Shor code: two nested repetition structures."""
    h_z = np.zeros((6, 9), dtype=np.uint8)
    for r, (a, b) in enumerate([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]):
        h_z[r, a] = h_z[r, b] = 1
    h_x = np.zeros((2, 9), dtype=np.uint8)
    h_x[0, 0:6] = 1
    h_x[1, 3:9] = 1
    lx = np.zeros((1, 9), dtype=np.uint8)
    lx[0, 0:3] = 1
    lz = np.zeros((1, 9), dtype=np.uint8)
    lz[0, [0, 3, 6]] = 1
    return CssCode(n=9, k=1, d=3, h_x=h_x, h_z=h_z, logical_x=lx, logical_z=lz, name="shor9")


def rotated_surface(d: int) -> CssCode:
    """Rotated surface code on a d x d grid, d odd and >= 3.

    Qubits in row-major order; bulk plaquette (r, c) covers the 2x2 block
    with corner (r, c) and is Z-type when r + c is even, X-type when odd.
    Weight-2 X checks sit on the top/bottom boundaries, weight-2 Z checks
    on the left/right boundaries.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be an odd integer >= 3, got {d}")
    n = d * d

    def q(r, c):
        return r * d + c

    def check(*qubits):
        row = np.zeros(n, dtype=np.uint8)
        row[list(qubits)] = 1
        return row

    x_rows, z_rows = [], []
    for r in range(d - 1):
        for c in range(d - 1):
            row = check(q(r, c), q(r, c + 1), q(r + 1, c), q(r + 1, c + 1))
            (z_rows if (r + c) % 2 == 0 else x_rows).append(row)
    for c in range(d - 1):
        r = 0 if c % 2 == 0 else d - 1  # top half-plaquettes at even c, bottom at odd
        x_rows.append(check(q(r, c), q(r, c + 1)))
    for r in range(d - 1):
        c = 0 if r % 2 == 1 else d - 1  # left half-plaquettes at odd r, right at even
        z_rows.append(check(q(r, c), q(r + 1, c)))
    lx = np.zeros((1, n), dtype=np.uint8)
    lx[0, [q(r, 0) for r in range(d)]] = 1  # vertical X string
    lz = np.zeros((1, n), dtype=np.uint8)
    lz[0, [q(0, c) for c in range(d)]] = 1  # horizontal Z string
    return CssCode(
        n=n,
        k=1,
        d=d,
        h_x=np.array(x_rows),
        h_z=np.array(z_rows),
        logical_x=lx,
        logical_z=lz,
        name=f"surface:{d}",
    )


def _logical_basis(h_stab: np.ndarray, h_comm: np.ndarray, n: int) -> np.ndarray:
    """Representatives of ker(h_comm) / rowspan(h_stab).

    A kernel vector is kept when it is independent of h_stab and of every
    kernel vector before it: exactly the pivot columns of [h_stab; kernel]^T.
    """
    kernel = gf2.nullspace(h_comm) if h_comm.shape[0] else np.eye(n, dtype=np.uint8)
    _, pivots = gf2.row_reduce(np.concatenate([h_stab, kernel]).T)
    return kernel[[p - h_stab.shape[0] for p in pivots if p >= h_stab.shape[0]]]


def hypergraph_product(h_a, h_b, name: str = "hgp") -> CssCode:
    """Hypergraph product of two classical parity-check matrices.

    n = n_a*n_b + r_a*r_b; CSS orthogonality holds by construction, and
    quantum check weights are bounded by the classical row plus column
    weights. Logical operators are computed generically over GF(2), k is
    their number, and the code is validated before it is returned.
    """
    h_a = gf2.asmatrix(h_a)
    h_b = gf2.asmatrix(h_b)
    if not h_a.any() or not h_b.any():
        raise ValueError("hypergraph product inputs must be nonzero")
    r_a, n_a = h_a.shape
    r_b, n_b = h_b.shape
    n = n_a * n_b + r_a * r_b
    i_na = np.eye(n_a, dtype=np.uint8)
    i_nb = np.eye(n_b, dtype=np.uint8)
    i_ra = np.eye(r_a, dtype=np.uint8)
    i_rb = np.eye(r_b, dtype=np.uint8)
    h_x = np.concatenate([np.kron(h_a, i_nb), np.kron(i_ra, h_b.T)], axis=1)
    h_z = np.concatenate([np.kron(i_na, h_b), np.kron(h_a.T, i_rb)], axis=1)
    lx = _logical_basis(h_x, h_z, n)
    lz = _logical_basis(h_z, h_x, n)
    if len(lx):
        # rotate logical Z so the symplectic pairing is exactly delta_ij
        m = gf2.matmul(lx, lz.T)
        lz = gf2.matmul(gf2.inverse(m).T, lz)
    code = CssCode(n=n, k=len(lx), d="unknown", h_x=h_x, h_z=h_z, logical_x=lx, logical_z=lz, name=name)
    validate(code)
    return code


def random_regular_check_matrix(r: int, n: int, row_weight: int, seed: int) -> np.ndarray:
    """Random sparse classical parity checks with full column coverage.

    Draws up to 1000 matrices with independent rows of weight row_weight
    and returns the first that covers every column. If none does, the
    last draw is repaired: each uncovered column takes over a row slot
    of the most-covered column. That keeps every row weight and always
    succeeds when r * row_weight >= n.
    """
    g = stream(seed, 777)
    for _ in range(1000):
        h = np.zeros((r, n), dtype=np.uint8)
        for i in range(r):
            h[i, g.choice(n, row_weight, replace=False)] = 1
        if h.sum(axis=0).min() > 0:
            return h
    if r * row_weight < n:
        raise ValueError(f"{r} rows of weight {row_weight} cannot cover {n} columns")
    for col in np.flatnonzero(h.sum(axis=0) == 0):
        donor = int(np.argmax(h.sum(axis=0)))  # covered at least twice
        row = int(np.flatnonzero(h[:, donor])[0])
        h[row, donor], h[row, col] = 0, 1
    return h


class CodeIdError(ValueError):
    """A code id that names no family or does not fit its family's form."""


def _random_hgp(code_id: str, seed: int, r: int, n: int, w: int) -> CssCode:
    if r < 1 or n < 1 or not 1 <= w <= n or r * w < n:
        # r rows of weight w cover at most r*w of the n columns
        raise CodeIdError(f"code id {code_id!r} needs r >= 1, n >= 1, 1 <= w <= n and r*w >= n")
    h = random_regular_check_matrix(r, n, w, seed)
    return hypergraph_product(h, h, name=code_id)


# family -> (id form with one ':'-separated integer field per parameter, the code's
# n from those integers, builder taking the id and those integers). Builders look
# constructors up by global name at call time, so one replaced on this module after
# import (a tracer) still runs.
_FAMILIES = {
    "rep3": ("rep3", lambda: 3, lambda code_id: rep3()),
    "shor9": ("shor9", lambda: 9, lambda code_id: shor9()),
    "surface": ("surface:<d>", lambda d: d * d, lambda code_id, d: rotated_surface(d)),
    "hgp": ("hgp:<seed>:<r>:<n>:<w>", lambda seed, r, n, w: n * n + r * r, _random_hgp),
}
# the most qubits from_id builds: hgp ids near it take up to 14 s and 0.42 GB
# (hgp:0:63:1:1, k = 3844), surface:63 0.06 s and 81 MB; hgp:0:300:400:4 would
# ask for 17.9 GiB
MAX_N = 4096


def from_id(code_id: str) -> CssCode:
    """The code named by ``code_id``: rep3 | shor9 | surface:<d> | hgp:<seed>:<r>:<n>:<w>,
    where hgp is the hypergraph product of random_regular_check_matrix(r, n, w, seed)
    with itself. Raises CodeIdError, quoting the id, if it is unknown or malformed."""
    family, *fields = code_id.split(":")
    if family not in _FAMILIES:
        raise CodeIdError(f"unknown code id {code_id!r}")
    form, size, build = _FAMILIES[family]
    if len(fields) != form.count(":"):
        raise CodeIdError(f"malformed code id {code_id!r}: expected {form}")
    try:
        values = [int(f) for f in fields]
        if min(values, default=0) >= 0 and size(*values) > MAX_N:  # a negative field fails in its builder
            raise CodeIdError(f"code id {code_id!r} has n = {size(*values)}, above the cap of {MAX_N} qubits")
        return build(code_id, *values)
    except CodeIdError:
        raise
    except ValueError as e:
        raise CodeIdError(f"malformed code id {code_id!r}: {e}") from None

