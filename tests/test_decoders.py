import hashlib
import itertools

import numpy as np
import pytest

from qnetcode import codes
from qnetcode.decoders import (
    BpDecoder,
    LookupDecoder,
    MatchingDecoder,
    UndecodableError,
    logical_failure,
)
from qnetcode.noise import NoiseModel, sample_error
from qnetcode.pauli import PauliOperator
from qnetcode.rng import stream


def single_qubit_paulis(n):
    for q in range(n):
        for letter in "XYZ":
            yield PauliOperator.single(n, q, letter)


def small_hgp():
    h = np.array(
        [
            [1, 1, 0, 0, 1],
            [0, 1, 1, 1, 0],
            [1, 0, 1, 0, 1],
        ],
        dtype=np.uint8,
    )
    return codes.hypergraph_product(h, h, name="hgp-test")


def sparse_hgp():
    """[[225, 9]] hypergraph product of a sparse 9x12 classical code;
    girth is large enough for BP to recover every single-qubit error."""
    from qnetcode.cli import random_regular_check_matrix

    h = random_regular_check_matrix(9, 12, 4, seed=2)
    return codes.hypergraph_product(h, h, name="hgp:2:9:12:4")


def test_logical_failure_semantics():
    code = codes.rep3()
    x0 = PauliOperator.single(3, 0, "X")
    assert not logical_failure(code, x0, x0)  # exact correction
    # an uncorrected logical X is a failure
    assert logical_failure(code, PauliOperator.from_string("XXX"), PauliOperator.identity(3))
    # residual XIX has even overlap with logical Z = ZZZ: no failure
    assert not logical_failure(code, PauliOperator.from_string("XXI"), PauliOperator.from_string("IXX"))
    # correcting X0 with X1X2 leaves the full logical XXX behind
    assert logical_failure(code, x0, PauliOperator.from_string("IXX"))


def test_lookup_rejects_large_codes():
    with pytest.raises(ValueError):
        LookupDecoder(codes.rotated_surface(5))


@pytest.mark.parametrize("code", [codes.rep3(), codes.shor9()], ids=lambda c: c.name)
def test_lookup_corrects_all_single_qubit_errors(code):
    dec = LookupDecoder(code)
    for err in single_qubit_paulis(code.n):
        if code.name == "rep3" and err.z_bits.any():
            continue  # rep3 protects against bit flips only
        syn = codes.syndrome(code, err)
        res = dec.decode(syn)
        assert not logical_failure(code, err, res.correction)
        # the correction reproduces the syndrome exactly
        assert all(np.array_equal(a, b) for a, b in zip(codes.syndrome(code, res.correction), syn))


def test_lookup_prefers_minimum_weight():
    code = codes.shor9()
    dec = LookupDecoder(code)
    for err in single_qubit_paulis(code.n):
        res = dec.decode(codes.syndrome(code, err))
        assert np.count_nonzero(res.correction.x_bits | res.correction.z_bits) <= 1


def test_lookup_undecodable():
    code = codes.shor9()
    dec = LookupDecoder(code, weight_cap=0)
    with pytest.raises(UndecodableError):
        dec.decode(codes.syndrome(code, PauliOperator.single(9, 0, "X")))


def test_lookup_is_deterministic():
    code = codes.shor9()
    a, b = LookupDecoder(code), LookupDecoder(code)
    for err in single_qubit_paulis(code.n):
        syn = codes.syndrome(code, err)
        assert a.decode(syn).correction == b.decode(syn).correction
    syn = codes.syndrome(code, PauliOperator.single(9, 4, "Y"))
    assert LookupDecoder(code).decode(syn).correction == a.decode(syn).correction


@pytest.mark.parametrize("d", [3, 5])
def test_mwpm_corrects_all_single_qubit_errors(d):
    code = codes.rotated_surface(d)
    dec = MatchingDecoder(code)
    for err in single_qubit_paulis(code.n):
        syn = codes.syndrome(code, err)
        res = dec.decode(syn)
        assert not logical_failure(code, err, res.correction), err
        assert all(np.array_equal(a, b) for a, b in zip(codes.syndrome(code, res.correction), syn))


def test_mwpm_corrects_weight_two_on_d5():
    code = codes.rotated_surface(5)
    dec = MatchingDecoder(code)
    rng = stream(31)
    for _ in range(60):
        q1, q2 = rng.choice(code.n, 2, replace=False)
        x = np.zeros(code.n, dtype=np.uint8)
        x[[q1, q2]] = 1
        err = PauliOperator(code.n, x)
        res = dec.decode(codes.syndrome(code, err))
        assert not logical_failure(code, err, res.correction)


def test_mwpm_handles_boundary_heavy_syndromes():
    """Errors hugging opposite boundaries must match each defect to its
    own boundary rather than across the lattice."""
    code = codes.rotated_surface(5)
    dec = MatchingDecoder(code)
    x = np.zeros(code.n, dtype=np.uint8)
    x[[0, 24]] = 1
    err = PauliOperator(code.n, x)
    res = dec.decode(codes.syndrome(code, err))
    assert not logical_failure(code, err, res.correction)


def test_mwpm_requires_matching_structure():
    # a qubit touching three Z checks has no matching-graph edge
    dense = codes.CssCode(
        n=3, k=0, d=1,
        h_x=np.zeros((0, 3), dtype=np.uint8),
        h_z=[[1, 0, 0], [1, 1, 0], [1, 0, 1]],
        logical_x=np.zeros((0, 3), dtype=np.uint8),
        logical_z=np.zeros((0, 3), dtype=np.uint8),
    )
    with pytest.raises(ValueError):
        MatchingDecoder(dense)


def test_mwpm_empty_syndrome():
    code = codes.rotated_surface(3)
    res = MatchingDecoder(code).decode(codes.syndrome(code, PauliOperator.identity(code.n)))
    assert res.correction == PauliOperator.identity(code.n)


def test_bp_prior_validation():
    code = small_hgp()
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            BpDecoder(code, bad)


def test_bp_refuses_an_iteration_cap_below_one():
    """A cap of 0 would run no sweep and -1 would report -1 iterations."""
    code = small_hgp()
    for bad in (0, -1):
        with pytest.raises(ValueError, match="iteration cap"):
            BpDecoder(code, 0.05, max_iters=bad)


def test_bp_corrects_single_errors():
    code = sparse_hgp()
    dec = BpDecoder(code, 0.01)
    hits = 0
    total = 0
    for err in single_qubit_paulis(code.n):
        res = dec.decode(codes.syndrome(code, err))
        total += 1
        if res.converged and not logical_failure(code, err, res.correction):
            hits += 1
    assert hits / total >= 0.99


def test_bp_reports_iterations_and_converged():
    code = small_hgp()
    dec = BpDecoder(code, 0.01)
    res = dec.decode(codes.syndrome(code, PauliOperator.single(code.n, 3, "X")))
    assert res.converged
    assert res.iterations >= 1
    trivial = dec.decode(codes.syndrome(code, PauliOperator.identity(code.n)))
    assert trivial.iterations == 0 and trivial.correction == PauliOperator.identity(code.n)


def test_bp_converged_corrections_reproduce_syndrome():
    code = small_hgp()
    dec = BpDecoder(code, 0.03)
    rng = stream(32)
    noise = NoiseModel.independent_xz(0.03, 0.03)
    for _ in range(100):
        err = sample_error(noise, code.n, rng)
        syn = codes.syndrome(code, err)
        res = dec.decode(syn)
        if res.converged:
            back = codes.syndrome(code, res.correction)
            assert all(np.array_equal(a, b) for a, b in zip(back, syn))


def test_bp_beats_raw_error_rate():
    code = small_hgp()
    dec = BpDecoder(code, 0.01)
    rng = stream(33)
    noise = NoiseModel.independent_xz(0.01, 0.01)
    trials = 400
    failures = 0
    for _ in range(trials):
        err = sample_error(noise, code.n, rng)
        res = dec.decode(codes.syndrome(code, err))
        if not res.converged or logical_failure(code, err, res.correction):
            failures += 1
    raw = 1 - (1 - 0.01) ** (2 * code.n)
    assert failures / trials < raw


# --- pinned per-shot outputs -------------------------------------------------
# SHA-256 of every decode result (correction bits, converged, iterations) on
# fixed shot lists, recorded before the decoders were batched. A kernel
# rewrite that changes one bit of one shot changes the digest.


def _result_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        if res is None:
            h.update(b"undecodable")
            continue
        h.update(res.correction.x_bits.tobytes())
        h.update(res.correction.z_bits.tobytes())
        h.update(repr((res.converged, res.iterations)).encode())
    return h.hexdigest()


def _decode_all(dec, code, errors):
    return [dec.decode(codes.syndrome(code, err)) for err in errors]


def _every_syndrome(code):
    """Every (s_x, s_z) pair in the order of the integer whose bits, most
    significant first, are s_x then s_z."""
    r = code.r_x + code.r_z
    shifts = np.arange(r - 1, -1, -1)
    for idx in range(2**r):
        bits = ((idx >> shifts) & 1).astype(np.uint8)
        yield bits[: code.r_x], bits[code.r_x :]


def _table_digest(dec, code) -> str:
    results = []
    for syn in _every_syndrome(code):
        try:
            results.append(dec.decode(syn))
        except UndecodableError:
            results.append(None)
    return _result_digest(results)


PINNED_BP = {
    "weight1": "f659946d0211dc1a565bf43b54ec3d3b4347e9724eb9f2d3af05c17fdfe119e1",
    "stream900": "31e3d82a8b0d2ca9b5f09195d72a1b0ff8fb4f11bacb61496b697a54bceac7df",
}
PINNED_MWPM = {
    3: "05852afaf33fa109fc222418d8eae29707f7201cfbbd5eeeb4007a3830b0d1e5",
    5: "7a78cdfdd484df9484b9ed139b514dc7482c2f2294400e88f2de7dbb63ae0775",
}
PINNED_LOOKUP = {
    "shor9": "6599966703801998ef0073186986f8a7542f8b7effdcef81b465708eb8bfa962",
    "hgp:1:2:4:2": "44b717722877554530e39e41e33e9ef5e11fa962381a5faa581b13c82fabcd3f",
}


def test_bp_pinned_outputs():
    """Criterion 9's code and shots: the 675 weight-1 errors and the first
    300 shots of its stream(900, t) sample."""
    code = sparse_hgp()
    dec = BpDecoder(code, 0.01)
    assert _result_digest(_decode_all(dec, code, single_qubit_paulis(code.n))) == PINNED_BP["weight1"]
    noise = NoiseModel.independent_xz(0.01, 0.01)
    shots = [sample_error(noise, code.n, stream(900, t)) for t in range(300)]
    assert _result_digest(_decode_all(dec, code, shots)) == PINNED_BP["stream900"]


@pytest.mark.parametrize("d", [3, 5])
def test_mwpm_pinned_outputs(d):
    code = codes.rotated_surface(d)
    noise = NoiseModel.independent_xz(0.08, 0.08)
    shots = [sample_error(noise, code.n, stream(800, d, t)) for t in range(2000)]
    assert _result_digest(_decode_all(MatchingDecoder(code), code, shots)) == PINNED_MWPM[d]


@pytest.mark.parametrize("code_id", ["shor9", "hgp:1:2:4:2"])
def test_lookup_pinned_table(code_id):
    """The whole table, read through decode on every syndrome."""
    code = codes.from_id(code_id)
    assert _table_digest(LookupDecoder(code), code) == PINNED_LOOKUP[code_id]
