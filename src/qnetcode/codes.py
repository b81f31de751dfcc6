"""CSS stabilizer code model, constructors, and syndrome computation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from qnetcode import gf2
from qnetcode.pauli import PauliOperator


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


@dataclass
class ValidationReport:
    ok: bool = True
    violations: list = field(default_factory=list)

    def add(self, msg: str):
        self.ok = False
        self.violations.append(msg)


def validate(code: CssCode) -> ValidationReport:
    """Check the CSS invariants; returns a report rather than raising.

    Dimension mismatches raise (structural error) at construction time.
    """
    report = ValidationReport()
    if code.r_x and code.r_z:
        prod = gf2.matmul(code.h_x, code.h_z.T)
        for i, j in zip(*np.nonzero(prod)):
            report.add(f"CSS orthogonality violated: h_x row {i} vs h_z row {j}")
    if code.k and code.r_z:
        prod = gf2.matmul(code.logical_x, code.h_z.T)
        for i, j in zip(*np.nonzero(prod)):
            report.add(f"logical_x row {i} anticommutes with h_z row {j}")
    if code.k and code.r_x:
        prod = gf2.matmul(code.logical_z, code.h_x.T)
        for i, j in zip(*np.nonzero(prod)):
            report.add(f"logical_z row {i} anticommutes with h_x row {j}")
    if code.k:
        pairing = gf2.matmul(code.logical_x, code.logical_z.T)
        if not np.array_equal(pairing, np.eye(code.k, dtype=np.uint8)):
            report.add("logical X/Z pairing is not the identity matrix")
    k_rank = code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z)
    if k_rank != code.k:
        report.add(f"k={code.k} but n - rank(h_x) - rank(h_z) = {k_rank}")
    return report


def syndrome(code: CssCode, error: PauliOperator) -> tuple[np.ndarray, np.ndarray]:
    """(s_x_checks, s_z_checks): h_x fires on Z components, h_z on X."""
    if error.num_qubits != code.n:
        raise ValueError(f"error acts on {error.num_qubits} qubits, code has n={code.n}")
    s_x = gf2.matvec(code.h_x, error.z_bits) if code.r_x else np.zeros(0, dtype=np.uint8)
    s_z = gf2.matvec(code.h_z, error.x_bits) if code.r_z else np.zeros(0, dtype=np.uint8)
    return s_x, s_z


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

    x_rows, z_rows = [], []
    for r in range(d - 1):
        for c in range(d - 1):
            row = np.zeros(n, dtype=np.uint8)
            row[[q(r, c), q(r, c + 1), q(r + 1, c), q(r + 1, c + 1)]] = 1
            (z_rows if (r + c) % 2 == 0 else x_rows).append(row)
    for c in range(d - 1):
        if c % 2 == 0:  # top half-plaquettes
            row = np.zeros(n, dtype=np.uint8)
            row[[q(0, c), q(0, c + 1)]] = 1
            x_rows.append(row)
        else:  # bottom
            row = np.zeros(n, dtype=np.uint8)
            row[[q(d - 1, c), q(d - 1, c + 1)]] = 1
            x_rows.append(row)
    for r in range(d - 1):
        if r % 2 == 1:  # left
            row = np.zeros(n, dtype=np.uint8)
            row[[q(r, 0), q(r + 1, 0)]] = 1
            z_rows.append(row)
        else:  # right
            row = np.zeros(n, dtype=np.uint8)
            row[[q(r, d - 1), q(r + 1, d - 1)]] = 1
            z_rows.append(row)
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
    weights. Logical operators are computed generically over GF(2).
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
    k = n - gf2.rank(h_x) - gf2.rank(h_z)
    lx = _logical_basis(h_x, h_z, n)
    lz = _logical_basis(h_z, h_x, n)
    if lx.shape[0] != k or lz.shape[0] != k:
        raise AssertionError("logical operator extraction disagrees with rank formula")
    if k:
        # rotate logical Z so the symplectic pairing is exactly delta_ij
        m = gf2.matmul(lx, lz.T)
        lz = gf2.matmul(gf2.inverse(m).T, lz)
    return CssCode(n=n, k=k, d="unknown", h_x=h_x, h_z=h_z, logical_x=lx, logical_z=lz, name=name)


def to_fixture(code: CssCode) -> str:
    """Text fixture: ``n k d`` header then HX/HZ/LX/LZ blocks of bit rows."""
    lines = [f"{code.n} {code.k} {code.d}"]
    for label, m in (("HX", code.h_x), ("HZ", code.h_z), ("LX", code.logical_x), ("LZ", code.logical_z)):
        lines.append(f"{label} {m.shape[0]}")
        for row in m:
            lines.append("".join(str(int(b)) for b in row))
    return "\n".join(lines) + "\n"


def from_fixture(text: str, name: str = "fixture") -> CssCode:
    """Parse the text fixture format; bit-exact inverse of to_fixture."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    n_s, k_s, d_s = lines[0].split()
    n, k = int(n_s), int(k_s)
    d: Union[int, str] = d_s if d_s == "unknown" else int(d_s)
    idx = 1
    blocks = {}
    for label in ("HX", "HZ", "LX", "LZ"):
        tag, count_s = lines[idx].split()
        if tag != label:
            raise ValueError(f"expected block {label}, found {tag}")
        count = int(count_s)
        idx += 1
        rows = [[int(ch) for ch in lines[idx + i]] for i in range(count)]
        idx += count
        blocks[label] = np.array(rows, dtype=np.uint8).reshape(count, n)
    return CssCode(
        n=n, k=k, d=d,
        h_x=blocks["HX"], h_z=blocks["HZ"],
        logical_x=blocks["LX"], logical_z=blocks["LZ"],
        name=name,
    )
