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
    from qnetcode.pauli import weight

    for err in single_qubit_paulis(code.n):
        res = dec.decode(codes.syndrome(code, err))
        assert weight(res.correction) <= 1


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
        err = PauliOperator.single(code.n, int(q1), "X") * PauliOperator.single(code.n, int(q2), "X")
        res = dec.decode(codes.syndrome(code, err))
        assert not logical_failure(code, err, res.correction)


def test_mwpm_handles_boundary_heavy_syndromes():
    """Errors hugging opposite boundaries must match each defect to its
    own boundary rather than across the lattice."""
    code = codes.rotated_surface(5)
    dec = MatchingDecoder(code)
    err = PauliOperator.single(code.n, 0, "X") * PauliOperator.single(code.n, 24, "X")
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
    assert res.correction.is_identity()


def test_bp_prior_validation():
    code = small_hgp()
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            BpDecoder(code, bad)


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
    assert trivial.iterations == 0 and trivial.correction.is_identity()


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
