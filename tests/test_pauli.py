import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetcode.pauli import LABEL_OF, LABELS, PauliOperator
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


def test_string_round_trip():
    """from_string reads each letter's bits from the table, and LABEL_OF
    maps the bits back to the letter."""
    p = PauliOperator.from_string("IXYZ")
    assert p.x_bits.tolist() == [0, 1, 1, 0] and p.z_bits.tolist() == [0, 0, 1, 1]
    for s in ("I", "X", "Y", "Z", "IXYZ", "YZZXI"):
        p = PauliOperator.from_string(s)
        assert "".join(LABELS[LABEL_OF[2 * x + z]] for x, z in zip(p.x_bits, p.z_bits)) == s


def test_from_string_rejects_bad_input():
    with pytest.raises(ValueError):
        PauliOperator.from_string("IXQ")
    with pytest.raises(ValueError):
        PauliOperator.from_string("")
    for letter in ("Q", "XY", ""):
        with pytest.raises(ValueError, match=f"invalid Pauli letter {letter!r}"):
            PauliOperator.single(4, 0, letter)


def test_single_and_identity():
    p = PauliOperator.single(4, 2, "Y")
    assert p == PauliOperator.from_string("IIYI")
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
        PauliOperator(3, np.zeros(2))
    with pytest.raises(ValueError):
        PauliOperator(2, np.zeros(2), np.zeros(3))


@given(paulis())
def test_identity_is_neutral(p):
    """The identity commutes with every Pauli, and equals one only if it
    has no bit set."""
    e = PauliOperator.identity(p.num_qubits)
    state = StabilizerState(p.num_qubits)
    state.x[0], state.z[0] = p.x_bits, p.z_bits
    assert state._anticommutes(e.x_bits, e.z_bits)[0] == 0
    assert (p == e) == (not (p.x_bits.any() or p.z_bits.any()))


@given(st.integers(1, 4), st.integers(0, 4 ** 4 - 1), st.integers(0, 4 ** 4 - 1))
def test_commutation_matches_dense_matrices(n, a, b):
    """The tableau's commutation test of a row against a Pauli equals the
    matrix commutation test."""
    def to_string(code):
        return "".join("IXYZ"[(code // 4 ** i) % 4] for i in range(n))

    p = PauliOperator.from_string(to_string(a))
    q = PauliOperator.from_string(to_string(b))
    dense = DenseState(n)
    mp = dense.pauli_matrix(to_string(a))
    mq = dense.pauli_matrix(to_string(b))
    commute = np.allclose(mp @ mq, mq @ mp)
    state = StabilizerState(n)
    state.x[0], state.z[0] = q.x_bits, q.z_bits
    assert state._anticommutes(p.x_bits, p.z_bits)[0] == (0 if commute else 1)
