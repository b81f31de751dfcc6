import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetcode import codes, gf2


def matrices(max_rows=6, max_cols=8):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(0, 1), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda rows: np.array(rows, dtype=np.uint8))
    )


def test_asmatrix_reduces_mod_2():
    m = gf2.asmatrix([[2, 3], [4, 5]])
    assert np.array_equal(m, [[0, 1], [0, 1]])


def test_matmul_small_example():
    a = [[1, 1], [0, 1]]
    b = [[1, 0], [1, 1]]
    assert np.array_equal(gf2.matmul(a, b), [[0, 1], [1, 1]])


@given(matrices())
def test_row_reduce_preserves_row_span(m):
    red, pivots = gf2.row_reduce(m)
    assert len(pivots) == gf2.rank(m)
    for row in red[: len(pivots)]:
        assert gf2.in_rowspan(row, m)
    for row in m:
        assert gf2.in_rowspan(row, red)
    # echelon: each pivot column has a single 1
    for r, c in enumerate(pivots):
        col = red[:, c]
        assert col[r] == 1 and col.sum() == 1


@given(matrices())
def test_rank_nullity(m):
    ns = gf2.nullspace(m)
    assert gf2.rank(m) + ns.shape[0] == m.shape[1]
    for v in ns:
        assert not gf2.matvec(m, v).any()
    if ns.shape[0]:
        assert gf2.rank(ns) == ns.shape[0]  # basis is independent


@given(matrices(), st.data())
def test_solve_recovers_consistent_systems(m, data):
    x = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
        dtype=np.uint8,
    )
    b = gf2.matvec(m, x)
    sol = gf2.solve(m, b)
    assert sol is not None
    assert np.array_equal(gf2.matvec(m, sol), b)


def test_solve_detects_inconsistency():
    a = [[1, 0], [1, 0]]
    assert gf2.solve(a, [1, 0]) is None
    assert gf2.solve(a, [1, 1]) is not None


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        gf2.solve([[1, 0]], [1, 0])


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_inverse_round_trip(n, rnd):
    # row operations on the identity always yield an invertible matrix
    m = np.eye(n, dtype=np.uint8)
    for _ in range(4 * n):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            m[i] ^= m[j]
        if rnd.random() < 0.5:
            i, j = rnd.randrange(n), rnd.randrange(n)
            m[[i, j]] = m[[j, i]]
    assert gf2.rank(m) == n
    inv = gf2.inverse(m)
    assert np.array_equal(gf2.matmul(m, inv), np.eye(n, dtype=np.uint8))
    assert np.array_equal(gf2.matmul(inv, m), np.eye(n, dtype=np.uint8))


def test_inverse_rejects_singular_and_nonsquare():
    with pytest.raises(ValueError):
        gf2.inverse([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        gf2.inverse([[1, 0, 0], [0, 1, 0]])


def test_in_rowspan():
    m = [[1, 1, 0], [0, 1, 1]]
    assert gf2.in_rowspan([1, 0, 1], m)
    assert not gf2.in_rowspan([1, 0, 0], m)


def reference_row_reduce(m):
    """Gauss-Jordan elimination written out one row XOR at a time."""
    a = np.array(m, dtype=np.uint8) & 1
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = [i for i in range(r, rows) if a[i, c]]
        if not below:
            continue
        a[[r, below[0]]] = a[[below[0], r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
    return a, pivots


def reference_nullspace(m):
    a, pivots = reference_row_reduce(m)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = a[r, f]
    return basis


def reference_logical_basis(h_stab, h_comm, n):
    """Greedy: keep each kernel vector that raises the rank of the span so far."""
    kernel = gf2.nullspace(h_comm) if h_comm.shape[0] else np.eye(n, dtype=np.uint8)
    span = h_stab.copy() if h_stab.shape[0] else np.zeros((0, n), dtype=np.uint8)
    base_rank = gf2.rank(span)
    out = []
    for v in kernel:
        cand = np.concatenate([span, v[None, :]], axis=0)
        r = gf2.rank(cand)
        if r > base_rank:
            span = cand
            base_rank = r
            out.append(v)
    return np.array(out, dtype=np.uint8).reshape(len(out), n)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(matrices(max_rows=8, max_cols=10))
def test_row_reduce_matches_reference_loop(m):
    red, pivots = gf2.row_reduce(m)
    want_red, want_pivots = reference_row_reduce(m)
    assert_same_array(red, want_red)
    assert pivots == want_pivots
    assert all(type(p) is int for p in pivots)


@given(matrices(max_rows=8, max_cols=10), st.data())
def test_nullspace_and_solve_match_reference_loop(m, data):
    assert_same_array(gf2.nullspace(m), reference_nullspace(m))
    b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m.shape[0], max_size=m.shape[0])), dtype=np.uint8)
    red, pivots = reference_row_reduce(np.concatenate([m, b[:, None]], axis=1))
    if m.shape[1] in pivots:
        assert gf2.solve(m, b) is None
    else:
        want = np.zeros(m.shape[1], dtype=np.uint8)
        for r, p in enumerate(pivots):
            want[p] = red[r, -1]
        assert_same_array(gf2.solve(m, b), want)


def bit_rows(data, rows, n):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * n, max_size=rows * n))
    return np.array(bits, dtype=np.uint8).reshape(rows, n)


@given(st.integers(1, 9), st.integers(0, 6), st.integers(0, 6), st.data())
def test_logical_basis_matches_incremental_rank_loop(n, r_stab, r_comm, data):
    h_stab, h_comm = bit_rows(data, r_stab, n), bit_rows(data, r_comm, n)
    assert_same_array(codes._logical_basis(h_stab, h_comm, n), reference_logical_basis(h_stab, h_comm, n))


@pytest.mark.parametrize(
    "h_stab,h_comm",
    [
        (np.zeros((0, 4), dtype=np.uint8), np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)),
        (np.array([[1, 1, 0, 0]], dtype=np.uint8), np.zeros((0, 4), dtype=np.uint8)),
        (np.zeros((0, 4), dtype=np.uint8), np.zeros((0, 4), dtype=np.uint8)),
        (np.array([[1, 0, 1, 0]], dtype=np.uint8), np.eye(4, dtype=np.uint8)),
        (np.zeros((2, 4), dtype=np.uint8), np.array([[1, 1, 1, 1]], dtype=np.uint8)),
    ],
    ids=["empty-stab", "empty-comm", "both-empty", "zero-kernel", "zero-stab-rows"],
)
def test_logical_basis_edge_cases_match_reference(h_stab, h_comm):
    got = codes._logical_basis(h_stab, h_comm, 4)
    assert_same_array(got, reference_logical_basis(h_stab, h_comm, 4))
