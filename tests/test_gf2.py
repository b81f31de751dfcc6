import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetcode import codes, gf2


def in_rowspan(vec, m):
    """Whether vec lies in the row span of m over GF(2)."""
    m = gf2.asmatrix(m)
    return gf2.rank(m) == gf2.rank(np.concatenate([m, gf2.asmatrix(vec)], axis=0))


def int_rows(rows, cols):
    """The 0/1 matrix whose row i has bit j of rows[i] in column j."""
    return np.array([[(r >> j) & 1 for j in range(cols)] for r in rows], dtype=np.uint8).reshape(len(rows), cols)


def matrices(max_rows=6, max_cols=130):
    """Random 0/1 matrices; the default width crosses two 64-bit words."""
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda rc: st.lists(st.integers(0, 2 ** rc[1] - 1), min_size=rc[0], max_size=rc[0]).map(
            lambda rows: int_rows(rows, rc[1])
        )
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
        assert in_rowspan(row, m)
    for row in m:
        assert in_rowspan(row, red)
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


# a seeded Random: up to 520 row operations, each drawn through hypothesis, took seconds
@given(st.integers(1, 130), st.randoms(use_true_random=True))
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


def test_distinct_rows_in_first_appearance_order():
    a = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
    rows, inverse = gf2.distinct_rows(a)
    assert rows.tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 1]]
    assert inverse.tolist() == [0, 1, 0, 2, 1]
    assert np.array_equal(rows[inverse], a)


@given(matrices(max_rows=12, max_cols=3))
def test_distinct_rows_round_trip(m):
    rows, inverse = gf2.distinct_rows(m)
    assert rows.dtype == m.dtype and np.array_equal(rows[inverse], m)
    assert len(rows) == len(np.unique(m, axis=0))
    # row k first appears before row k + 1
    firsts = [int(np.flatnonzero(inverse == k)[0]) for k in range(len(rows))]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_distinct_rows_of_empty_shapes(shape):
    a = np.zeros(shape, dtype=np.uint8)
    rows, inverse = gf2.distinct_rows(a)
    assert rows.shape == (min(shape[0], 1), shape[1])
    assert inverse.tolist() == [0] * shape[0]
    assert rows[inverse].shape == shape


def test_in_rowspan():
    m = [[1, 1, 0], [0, 1, 1]]
    assert in_rowspan([1, 0, 1], m)
    assert not in_rowspan([1, 0, 0], m)


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


@given(matrices(max_rows=8))
def test_row_reduce_matches_reference_loop(m):
    red, pivots = gf2.row_reduce(m)
    want_red, want_pivots = reference_row_reduce(m)
    assert_same_array(red, want_red)
    assert pivots == want_pivots
    assert all(type(p) is int for p in pivots)


@given(matrices(max_rows=8), st.data())
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


def numpy_loop_row_reduce(m):
    """The column-by-column numpy elimination that gf2.row_reduce ran
    before it packed rows into ints."""
    a = gf2.asmatrix(m).copy()
    rows, cols = a.shape
    pivots = []
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
    return a, [int(c) for c in pivots]


def int64_matmul(a, b):
    """The int64 product that gf2.matmul ran before it packed words."""
    return (gf2.asmatrix(a).astype(np.int64) @ gf2.asmatrix(b).astype(np.int64) % 2).astype(np.uint8)


def old_results(monkeypatch, fn, *args):
    """fn(*args) with gf2's elimination and product swapped for the old ones."""
    with monkeypatch.context() as patch:
        patch.setattr(gf2, "row_reduce", numpy_loop_row_reduce)
        patch.setattr(gf2, "matmul", int64_matmul)
        return fn(*args)


def assert_matches_old(monkeypatch, m, b_cols=5, seed=0):
    """row_reduce, rank, nullspace, solve, matmul and matvec on m equal the
    old numpy loop and int64 product bit for bit."""
    rng = np.random.default_rng(seed)
    red, pivots = gf2.row_reduce(m)
    want_red, want_pivots = numpy_loop_row_reduce(m)
    assert_same_array(red, want_red)
    assert pivots == want_pivots and all(type(p) is int for p in pivots)
    assert gf2.rank(m) == len(want_pivots)
    assert_same_array(gf2.nullspace(m), old_results(monkeypatch, gf2.nullspace, m))
    rows, cols = gf2.asmatrix(m).shape
    for b in (rng.integers(0, 2, rows), int64_matmul(m, rng.integers(0, 2, (cols, 1)))[:, 0]):
        got, want = gf2.solve(m, b), old_results(monkeypatch, gf2.solve, m, b)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_array(got, want)
    other = rng.integers(0, 4, (cols, b_cols))
    assert_same_array(gf2.matmul(m, other), int64_matmul(m, other))
    assert_same_array(gf2.matmul(other.T, np.asarray(m).T), int64_matmul(other.T, np.asarray(m).T))
    v = rng.integers(0, 2, cols)
    assert_same_array(gf2.matvec(m, v), int64_matmul(m, v[:, None])[:, 0])


WORD_EDGES = [1, 63, 64, 65, 128, 129, 225]


@pytest.mark.parametrize("cols", WORD_EDGES)
@pytest.mark.parametrize("rows", [1, 7, 70, 130])
def test_packed_gf2_matches_old_loop_at_word_boundaries(monkeypatch, rows, cols):
    rng = np.random.default_rng(1000 * rows + cols)
    dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    assert_matches_old(monkeypatch, dense, seed=rows + cols)
    # rank-deficient: every row a sum of three random rows
    low_rank = int64_matmul(rng.integers(0, 2, (rows, 3)), rng.integers(0, 2, (3, cols)))
    assert_matches_old(monkeypatch, low_rank, b_cols=cols, seed=rows * cols)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (0, 65), (5, 0), (70, 0)])
def test_packed_gf2_matches_old_loop_on_empty_shapes(monkeypatch, shape):
    assert_matches_old(monkeypatch, np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("cols", WORD_EDGES)
def test_packed_gf2_reduces_entries_mod_2(monkeypatch, cols):
    m = np.random.default_rng(cols).integers(0, 256, (9, cols), dtype=np.uint8)
    assert_matches_old(monkeypatch, m, seed=cols)
    assert_same_array(gf2.row_reduce(m)[0], gf2.row_reduce(m & 1)[0])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
def test_packed_inverse_matches_old_loop(monkeypatch, n):
    rng = np.random.default_rng(n)
    # an upper times a lower unitriangular matrix is invertible and dense
    upper = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1) | np.eye(n, dtype=np.uint8)
    m = int64_matmul(upper, upper.T)
    inv = gf2.inverse(m)
    assert_same_array(inv, old_results(monkeypatch, gf2.inverse, m))
    assert_same_array(gf2.matmul(m, inv), np.eye(n, dtype=np.uint8))


CODE_IDS = ["hgp:2:9:12:4", "surface:3", "surface:5", "surface:7", "shor9", "rep3"]


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_packed_gf2_matches_old_loop_on_code_matrices(monkeypatch, code_id):
    """Every matrix a code build eliminates: h_x, h_z, and [h_stab; kernel]^T
    of each logical basis."""
    code = codes.from_id(code_id)
    for h_stab, h_comm in ((code.h_x, code.h_z), (code.h_z, code.h_x)):
        assert_matches_old(monkeypatch, h_stab, b_cols=code.h_x.shape[0])
        assert_matches_old(monkeypatch, np.concatenate([h_stab, gf2.nullspace(h_comm)]).T)
    assert_same_array(gf2.matmul(code.h_x, code.h_z.T), int64_matmul(code.h_x, code.h_z.T))
    assert_same_array(gf2.matmul(code.logical_x, code.logical_z.T), np.eye(code.k, dtype=np.uint8))
