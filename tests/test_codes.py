import hashlib
import itertools
import re

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
    [codes.rep3(), codes.shor9()] + [codes.rotated_surface(d) for d in range(3, 18, 2)],
    ids=lambda c: c.name,
)
def test_constructors_validate(code):
    """Hand-written constructors do not validate what they build; this pins them."""
    codes.validate(code)
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


def _bad_code(k=1, h_x=np.zeros((0, 3)), h_z=((1, 1, 0), (0, 1, 1)), lx=((1, 1, 1),), lz=((1, 1, 1),)):
    """rep3 with one part replaced."""
    return codes.CssCode(n=3, k=k, d=1, h_x=h_x, h_z=h_z, logical_x=lx, logical_z=lz, name="bad")


def test_validate_flags_violations():
    """One small code per invariant, each breaking only that one, then one
    breaking two: the error lists exactly the broken invariants."""
    cases = [
        (_bad_code(k=0, h_x=[[1, 1, 0]], lx=np.zeros((0, 3)), lz=np.zeros((0, 3))),
         "CSS orthogonality violated: h_x row 0 vs h_z row 1"),
        (_bad_code(lx=[[1, 0, 0]]), "logical_x row 0 anticommutes with h_z row 0"),
        (_bad_code(h_x=[[1, 1, 0], [0, 1, 1]], h_z=np.zeros((0, 3)), lz=[[1, 0, 0]]),
         "logical_z row 0 anticommutes with h_x row 0"),
        (_bad_code(lz=[[0, 1, 1]]), "logical X/Z pairing is not the identity matrix"),
        (_bad_code(h_z=[[1, 1, 0]]), "k=1 but n - rank(h_x) - rank(h_z) = 2"),
        (_bad_code(h_x=[[1, 0, 0]], h_z=[[1, 1, 0]]),
         "CSS orthogonality violated: h_x row 0 vs h_z row 0; logical_z row 0 anticommutes with h_x row 0"),
    ]
    for code, violations in cases:
        with pytest.raises(AssertionError) as info:
            codes.validate(code)
        assert str(info.value) == f"bad is not a valid CSS code: {violations}"


def test_hypergraph_product_of_repetition_code():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = codes.hypergraph_product(h, h)
    assert code.n == 3 * 3 + 2 * 2 == 13
    assert code.k == 1
    codes.validate(code)


def test_hypergraph_product_multi_logical():
    """Two independent classical codes give k = k_a * k_b + (transposed part)."""
    h = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    code = codes.hypergraph_product(h, h)
    assert code.k >= 1
    codes.validate(code)
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
    "builder,code_id",
    [("rep3", "rep3"), ("shor9", "shor9"), ("rotated_surface", "surface:3"), ("hypergraph_product", "hgp:1:2:4:2")],
)
def test_from_id_looks_up_builders_at_call_time(monkeypatch, builder, code_id):
    """A constructor replaced on the module after import, as a tracer
    replaces it, is the one from_id runs."""
    calls = []
    original = getattr(codes, builder)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codes, builder, counting)
    assert codes.from_id(code_id).name == code_id
    assert len(calls) == 1


@pytest.mark.parametrize(
    "code_id,form",
    [("rep3", "rep3"), ("shor9", "shor9"), ("surface:5", "surface:<d>"), ("hgp:2:9:12:4", "hgp:<seed>:<r>:<n>:<w>")],
)
def test_from_id_family_forms(code_id, form):
    """Each family's form builds; one field too many or too few is malformed."""
    code = codes.from_id(code_id)
    assert code.name == code_id
    codes.validate(code)
    wrong = [code_id + ":1"] + ([code_id.rsplit(":", 1)[0]] if ":" in code_id else [])
    for bad in wrong:
        with pytest.raises(codes.CodeIdError, match=f"malformed code id '{bad}': expected {re.escape(form)}$"):
            codes.from_id(bad)


@pytest.mark.parametrize(
    "code_id,message",
    [
        ("nope", "unknown code id 'nope'"),
        ("custom:10:2", "unknown code id 'custom:10:2'"),
        ("surface:x", "malformed code id 'surface:x': invalid literal for int()"),
        ("surface:4", "malformed code id 'surface:4': d must be an odd integer >= 3"),
        ("hgp:1:1:12:4", "code id 'hgp:1:1:12:4' needs r >= 1, n >= 1, 1 <= w <= n and r*w >= n"),
        ("surface:65", "code id 'surface:65' has n = 4225, above the cap of 4096 qubits"),
        ("hgp:0:40:60:4", "code id 'hgp:0:40:60:4' has n = 5200, above the cap of 4096 qubits"),
        ("surface:-301", "malformed code id 'surface:-301': d must be an odd integer >= 3"),  # its builder says why
        ("hgp:0:-300:4:2", "code id 'hgp:0:-300:4:2' needs r >= 1"),
    ],
)
def test_from_id_rejects_bad_ids(code_id, message):
    with pytest.raises(codes.CodeIdError) as info:
        codes.from_id(code_id)
    assert str(info.value).startswith(message)


def test_from_id_caps_n_before_building(monkeypatch):
    """n = d^2 for surface and n^2 + r^2 for hgp is checked against MAX_N
    from the id's fields; at the cap the code builds, above it no builder runs."""
    assert codes.from_id("surface:63").n == 3969 <= codes.MAX_N
    monkeypatch.setattr(codes, "MAX_N", 225)
    assert codes.from_id("hgp:2:9:12:4").n == 225

    def never(*args):
        raise AssertionError("a builder ran above the cap")

    monkeypatch.setattr(codes, "MAX_N", 224)
    monkeypatch.setattr(codes, "rotated_surface", never)
    monkeypatch.setattr(codes, "random_regular_check_matrix", never)
    for code_id, n in (("hgp:2:9:12:4", 225), ("surface:15", 225)):
        with pytest.raises(codes.CodeIdError, match=f"has n = {n}, above the cap of 224 qubits"):
            codes.from_id(code_id)
