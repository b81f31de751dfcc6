import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetcode.pauli import PauliOperator, multiply
from qnetcode.stabsim import StabilizerState

from dense_oracle import DenseState


def paulis(n_max=8):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    ).map(lambda t: PauliOperator(t[0], t[1], t[2]))


def pauli_pairs():
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(*[
            st.lists(st.integers(0, 1), min_size=n, max_size=n) for _ in range(4)
        ]).map(lambda t: (PauliOperator(n, t[0], t[1]), PauliOperator(n, t[2], t[3])))
    )


def test_string_round_trip():
    for s in ("I", "X", "Y", "Z", "IXYZ", "YZZXI"):
        p = PauliOperator.from_string(s)
        assert p.to_string() == s
        assert str(p) == s


def test_from_string_rejects_bad_input():
    with pytest.raises(ValueError):
        PauliOperator.from_string("IXQ")
    with pytest.raises(ValueError):
        PauliOperator.from_string("")


def test_single_and_identity():
    p = PauliOperator.single(4, 2, "Y")
    assert p.to_string() == "IIYI"
    assert PauliOperator.identity(3) == PauliOperator(3, np.zeros(3), np.zeros(3))
    assert p != PauliOperator.identity(4)
    assert np.count_nonzero(p.x_bits | p.z_bits) == 1
    for qubit in (-1, 4):
        with pytest.raises(IndexError):
            PauliOperator.single(4, qubit, "X")


def test_bits_are_immutable():
    p = PauliOperator.from_string("XZ")
    with pytest.raises(ValueError):
        p.x_bits[0] = 0


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(PauliOperator.identity(2), PauliOperator.identity(3))


@given(pauli_pairs())
def test_multiply_is_xor_and_self_inverse(pq):
    p, q = pq
    prod = p * q
    assert np.array_equal(prod.x_bits, p.x_bits ^ q.x_bits)
    assert (prod * q) == p
    assert p * p == PauliOperator.identity(p.num_qubits)


@given(paulis())
def test_identity_is_neutral(p):
    e = PauliOperator.identity(p.num_qubits)
    assert p * e == p


@given(pauli_pairs())
def test_weight_subadditive(pq):
    p, q = pq
    w_pq, w_p, w_q = (np.count_nonzero(r.x_bits | r.z_bits) for r in (p * q, p, q))
    assert w_pq <= w_p + w_q


@given(st.integers(1, 4), st.integers(0, 4 ** 4 - 1), st.integers(0, 4 ** 4 - 1))
def test_commutation_matches_dense_matrices(n, a, b):
    """The tableau's commutation test of a row against a Pauli equals the
    matrix commutation test."""
    def to_string(code):
        return "".join("IXYZ"[(code // 4 ** i) % 4] for i in range(n))

    p = PauliOperator.from_string(to_string(a))
    q = PauliOperator.from_string(to_string(b))
    dense = DenseState(n)
    mp = dense.pauli_matrix(p.to_string())
    mq = dense.pauli_matrix(q.to_string())
    commute = np.allclose(mp @ mq, mq @ mp)
    state = StabilizerState(n)
    state.x[0], state.z[0] = q.x_bits, q.z_bits
    assert state._anticommutes(p.x_bits, p.z_bits)[0] == (0 if commute else 1)
