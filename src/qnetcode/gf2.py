"""Dense GF(2) linear algebra on numpy uint8 matrices."""

from __future__ import annotations

import numpy as np


def asmatrix(m) -> np.ndarray:
    """Coerce to a 2D uint8 array with entries reduced mod 2."""
    a = np.atleast_2d(np.asarray(m, dtype=np.uint8)) & 1
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2)."""
    return (asmatrix(a).astype(np.int64) @ asmatrix(b).astype(np.int64) % 2).astype(np.uint8)


def matvec(a, v) -> np.ndarray:
    """Matrix-vector product over GF(2)."""
    a = asmatrix(a)
    v = np.asarray(v, dtype=np.int64) & 1
    return (a.astype(np.int64) @ v % 2).astype(np.uint8)


def row_reduce(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot column list)."""
    a = asmatrix(m).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hit = np.flatnonzero(a[r:, c])
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        elim = np.flatnonzero(a[:, c])
        a[elim[elim != r]] ^= a[r]
        pivots.append(c)
    return a, pivots


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


def in_rowspan(vec, m) -> bool:
    """Whether vec lies in the row span of m over GF(2)."""
    m = asmatrix(m)
    v = asmatrix(vec)
    return rank(m) == rank(np.concatenate([m, v], axis=0))
