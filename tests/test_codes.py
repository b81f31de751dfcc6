import hashlib
import itertools

import numpy as np
import pytest

from qnetcode import cli, codes, gf2
from qnetcode.pauli import PauliOperator


def all_paulis_up_to_weight(n, w_max):
    for w in range(1, w_max + 1):
        for qubits in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                x = np.zeros(n, dtype=np.uint8)
                z = np.zeros(n, dtype=np.uint8)
                for q, letter in zip(qubits, letters):
                    x[q] = letter in "XY"
                    z[q] = letter in "YZ"
                yield PauliOperator(n, x, z)


def acts_on_logicals(code, p):
    return bool(
        gf2.matvec(code.logical_z, p.x_bits).any()
        or gf2.matvec(code.logical_x, p.z_bits).any()
    )


@pytest.mark.parametrize(
    "code",
    [codes.rep3(), codes.shor9(), codes.rotated_surface(3), codes.rotated_surface(5)],
    ids=lambda c: c.name,
)
def test_constructors_validate(code):
    report = codes.validate(code)
    assert report.ok, report.violations
    assert code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z) == code.k


def test_rep3_structure():
    code = codes.rep3()
    assert (code.n, code.k, code.d) == (3, 1, 3)
    assert code.r_x == 0 and code.r_z == 2


def test_shor9_structure():
    code = codes.shor9()
    assert (code.n, code.k, code.d) == (9, 1, 3)
    assert code.r_x == 2 and code.r_z == 6
    assert all(row.sum() == 2 for row in code.h_z)
    assert all(row.sum() == 6 for row in code.h_x)


def test_rotated_surface_structure():
    code = codes.rotated_surface(5)
    assert (code.n, code.k, code.d) == (25, 1, 5)
    assert code.r_x == code.r_z == 12
    weights = sorted(int(r.sum()) for r in np.concatenate([code.h_x, code.h_z]))
    assert set(weights) == {2, 4}
    with pytest.raises(ValueError):
        codes.rotated_surface(4)
    with pytest.raises(ValueError):
        codes.rotated_surface(1)


@pytest.mark.parametrize("code", [codes.shor9(), codes.rotated_surface(3)], ids=lambda c: c.name)
def test_distance_three_exhaustive(code):
    """No weight<3 Pauli is an undetected logical; a weight-3 one exists."""
    for p in all_paulis_up_to_weight(code.n, 2):
        s_x, s_z = codes.syndrome(code, p)
        if not (s_x.any() or s_z.any()):
            assert not acts_on_logicals(code, p), f"undetected logical {p}"
    logical = PauliOperator(code.n, code.logical_x[0], np.zeros(code.n, dtype=np.uint8))
    s_x, s_z = codes.syndrome(code, logical)
    assert not (s_x.any() or s_z.any())
    assert acts_on_logicals(code, logical)


def test_rep3_corrects_bit_flips_only():
    code = codes.rep3()
    # all single bit flips give distinct nonzero syndromes
    syndromes = set()
    for q in range(3):
        s_x, s_z = codes.syndrome(code, PauliOperator.single(3, q, "X"))
        assert s_z.any()
        syndromes.add(s_z.tobytes())
    assert len(syndromes) == 3
    # a single phase flip is invisible (no X-type checks)
    s_x, s_z = codes.syndrome(code, PauliOperator.single(3, 0, "Z"))
    assert not s_x.any() and not s_z.any()


def test_syndrome_length_check():
    with pytest.raises(ValueError):
        codes.syndrome(codes.rep3(), PauliOperator.identity(4))


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        codes.CssCode(n=3, k=1, d=1, h_x=[[1, 1]], h_z=[[1, 1, 0]], logical_x=[[1, 1, 1]], logical_z=[[1, 1, 1]])
    with pytest.raises(ValueError):
        codes.CssCode(n=3, k=2, d=1, h_x=np.zeros((0, 3)), h_z=[[1, 1, 0]], logical_x=[[1, 1, 1]], logical_z=[[1, 1, 1]])


def test_validate_flags_violations():
    bad = codes.CssCode(
        n=3, k=1, d=1,
        h_x=[[1, 0, 0]], h_z=[[1, 1, 0]],
        logical_x=[[1, 1, 1]], logical_z=[[1, 1, 1]],
    )
    report = codes.validate(bad)
    assert not report.ok
    assert any("orthogonality" in v for v in report.violations)


def test_hypergraph_product_of_repetition_code():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = codes.hypergraph_product(h, h)
    assert code.n == 3 * 3 + 2 * 2 == 13
    assert code.k == 1
    report = codes.validate(code)
    assert report.ok, report.violations


def test_hypergraph_product_multi_logical():
    """Two independent classical codes give k = k_a * k_b + (transposed part)."""
    h = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    code = codes.hypergraph_product(h, h)
    assert code.k >= 1
    report = codes.validate(code)
    assert report.ok, report.violations
    pairing = gf2.matmul(code.logical_x, code.logical_z.T)
    assert np.array_equal(pairing, np.eye(code.k, dtype=np.uint8))
    with pytest.raises(ValueError):
        codes.hypergraph_product(np.zeros((2, 3)), h)


REP_CODE = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)


def code_digest(code):
    h = hashlib.sha256()
    for m in (code.h_x, code.h_z, code.logical_x, code.logical_z):
        h.update(repr(m.shape).encode())
        h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "code_id,k,digest",
    [
        ("hgp:2:9:12:4", 9, "3928eccf6a3b733f4d74ef0a4994c6cb7070d0cf700ec8f576ed86a6a3d5c668"),
        ("hgp:1:3:12:4", 81, "45c5b42fde7e00e102b097a99e6158df5f30f30a7acd8ebf73a65263d32cbf73"),
        ("hgp:7:6:10:3", 16, "88a742953d70cbe76d366ae030194c941a58988a92c26f39591131f5bc07ee30"),
        ("rep-product", 1, "f53441180a1b5fca84b93d04e1e6b6d5c7733716d49a2c98c82a06948ab0b5d1"),
    ],
)
def test_hypergraph_product_bases_are_pinned(code_id, k, digest):
    """Check matrices and logical bases stay byte-identical, not just valid."""
    if code_id == "rep-product":
        code = codes.hypergraph_product(REP_CODE, REP_CODE)
    else:
        code = cli.parse_code(code_id)
    assert code.k == k
    assert code_digest(code) == digest


def test_hypergraph_product_build_eliminates_once_per_question(monkeypatch):
    """Two ranks, two nullspaces, two logical bases and one inverse."""
    calls = []
    row_reduce = gf2.row_reduce

    def counting(m):
        calls.append(np.shape(m))
        return row_reduce(m)

    monkeypatch.setattr(gf2, "row_reduce", counting)
    cli.parse_code("hgp:2:9:12:4")
    assert len(calls) <= 7


@pytest.mark.parametrize(
    "code",
    [codes.rep3(), codes.shor9(), codes.rotated_surface(3)],
    ids=lambda c: c.name,
)
def test_fixture_round_trip(code):
    text = codes.to_fixture(code)
    back = codes.from_fixture(text, name=code.name)
    assert back.n == code.n and back.k == code.k and back.d == code.d
    for attr in ("h_x", "h_z", "logical_x", "logical_z"):
        assert np.array_equal(getattr(back, attr), getattr(code, attr))
    assert codes.to_fixture(back) == text


def test_fixture_unknown_distance_round_trip():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = codes.hypergraph_product(h, h)
    back = codes.from_fixture(codes.to_fixture(code))
    assert back.d == "unknown"


def test_from_fixture_rejects_wrong_block():
    with pytest.raises(ValueError):
        codes.from_fixture("3 1 3\nHZ 0\n")
