"""GF(2) linear algebra on packed bits.

Matrices go in and come out as numpy uint8 arrays. Inside, a row is a
bit string with bit j for column j: `row_reduce` eliminates on rows held
as Python ints, and `matmul` multiplies rows packed into uint64 words.
"""

from __future__ import annotations

import numpy as np


def asmatrix(m) -> np.ndarray:
    """Coerce to a 2D uint8 array with entries reduced mod 2."""
    a = np.atleast_2d(np.asarray(m, dtype=np.uint8)) & 1
    return a


def _pack(a: np.ndarray, word_bits: int) -> np.ndarray:
    """The rows of the 0/1 matrix a as little-endian bit strings, each
    zero-padded to whole words of word_bits bits: a uint8 array with one
    row of bytes per row of a."""
    rows, cols = a.shape
    padded = np.zeros((rows, -(-cols // word_bits) * word_bits), dtype=np.uint8)
    padded[:, :cols] = a
    return np.packbits(padded, bitorder="little").reshape(rows, padded.shape[1] // 8)


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2). Entry (i, j) is the parity of the set
    bits of row i of a AND column j of b, both packed into uint64 words."""
    a, b = asmatrix(a), asmatrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    a_words = _pack(a, 64).view(np.uint64)
    b_words = _pack(b.T, 64).view(np.uint64)
    fold = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    for w in range(a_words.shape[1]):
        fold ^= a_words[:, w, None] & b_words[:, w]
    return np.bitwise_count(fold) & 1  # bitwise_count gives uint8


def matvec(a, v) -> np.ndarray:
    """Matrix-vector product over GF(2): matmul on v as one column."""
    return matmul(a, np.asarray(v)[:, None])[:, 0]


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse): the distinct rows of the 2D array a in order of
    first appearance, and the index into rows of each row of a, so
    rows[inverse] is a. Rows are told apart by their bytes, which costs a
    few microseconds per row where np.unique(axis=0) costs 0.1 ms and more."""
    index: dict[bytes, int] = {}
    inverse = np.fromiter((index.setdefault(row.tobytes(), len(index)) for row in a), dtype=np.intp, count=len(a))
    rows = np.frombuffer(b"".join(index), dtype=a.dtype).reshape(len(index), a.shape[1])
    return rows, inverse


def row_reduce(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot column list).

    Each row is one Python int. The rows enter a basis one at a time,
    keyed by the lowest set bit (the pivot) of each basis row, and the
    basis stays fully reduced: no basis row has another one's pivot bit.
    The reduced row echelon form is unique, so this is the matrix that
    Gauss-Jordan elimination column by column gives."""
    a = asmatrix(m)
    rows, cols = a.shape
    width = -(-cols // 8)
    packed = _pack(a, 8).tobytes()
    basis: dict[int, int] = {}
    pivot_bits = 0
    for i in range(rows):
        v = int.from_bytes(packed[i * width : (i + 1) * width], "little")
        # no basis row holds another's pivot bit, so each XOR clears one hit
        hit = v & pivot_bits
        while hit:
            low = hit & -hit
            v ^= basis[low]
            hit ^= low
        if v:
            low = v & -v
            for pivot, row in basis.items():
                if row & low:
                    basis[pivot] = row ^ v
            basis[low] = v
            pivot_bits |= low
    order = sorted(basis)
    reduced = b"".join(basis[pivot].to_bytes(width, "little") for pivot in order).ljust(rows * width, b"\0")
    red = np.unpackbits(np.frombuffer(reduced, dtype=np.uint8).reshape(rows, width), axis=1, count=cols, bitorder="little")
    return red, [pivot.bit_length() - 1 for pivot in order]


def rank(m) -> int:
    _, pivots = row_reduce(m)
    return len(pivots)


def nullspace(m) -> np.ndarray:
    """Basis of the right null space, one vector per row."""
    a, pivots = row_reduce(m)
    free = np.delete(np.arange(a.shape[1]), pivots)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = a[: len(pivots), free].T
    return basis


def solve(a, b) -> np.ndarray | None:
    """One solution x of a @ x = b over GF(2), or None if inconsistent."""
    a = asmatrix(a)
    b = np.asarray(b, dtype=np.uint8).ravel() & 1
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    aug = np.concatenate([a, b[:, None]], axis=1)
    red, pivots = row_reduce(aug)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    x[pivots] = red[: len(pivots), cols]
    return x


def inverse(m) -> np.ndarray:
    """Inverse of a square invertible GF(2) matrix."""
    a = asmatrix(m)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix is not square")
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    red, pivots = row_reduce(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return red[:, n:]
