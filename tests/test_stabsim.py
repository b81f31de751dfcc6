import copy
import itertools

import numpy as np
import pytest

from qnetcode.pauli import PauliOperator
from qnetcode.rng import stream, streams
from qnetcode.stabsim import StabilizerState, _phase_exponents, prepare_bell

from dense_oracle import DenseState
from trial_streams import trial_streams


def random_clifford_circuit(n, depth, rng):
    gates = []
    for _ in range(depth):
        kind = rng.integers(5)
        q = int(rng.integers(n))
        if kind == 0 and n > 1:
            t = int(rng.integers(n - 1))
            t = t if t < q else t + 1
            gates.append(("CNOT", q, t))
        elif kind == 1:
            gates.append(("H", q))
        else:
            gates.append(("XYZ"[kind - 2], q))
    return gates


def apply_gate(state, gate):
    """Apply ('H', q), ('CNOT', c, t) or ('X'|'Y'|'Z', q) on every trial."""
    name, *qubits = gate
    if name == "H":
        state.h(*qubits)
    elif name == "CNOT":
        state.cnot(*qubits)
    else:
        p = PauliOperator.from_string(name)
        state.apply_pauli(p.x_bits, p.z_bits, *qubits)


def tableau_ok(state):
    """Tableau invariant: the 2n rows are independent, with destabilizer i
    anticommuting with stabilizer i only and every other pair commuting."""
    n = state.num_qubits
    x, z = state.x.astype(np.int64), state.z.astype(np.int64)
    want = np.zeros((2 * n, 2 * n), dtype=np.int64)
    want[:n, n:] = want[n:, :n] = np.eye(n, dtype=np.int64)
    return np.array_equal((x @ z.T + z @ x.T) % 2, want)


def all_pauli_strings(n):
    for code in range(4 ** n):
        yield "".join("IXYZ"[(code // 4 ** i) % 4] for i in range(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expectations_match_dense_oracle(n):
    """After random circuits, every Pauli expectation agrees with a dense
    statevector simulation."""
    for seed in range(8):
        rng = stream(100 + seed, n)
        gates = random_clifford_circuit(n, 25, rng)
        stab = StabilizerState(n)
        dense = DenseState(n)
        for g in gates:
            apply_gate(stab, g)
            dense.apply_gate(g)
        assert tableau_ok(stab)
        for s in all_pauli_strings(n):
            got = stab.expectation(PauliOperator.from_string(s))[0]
            want = dense.expectation_pauli(s)
            assert got == pytest.approx(want, abs=1e-9), (s, gates)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_measurements_match_dense_oracle(n):
    """Feed the tableau's measurement outcomes into dense projections and
    compare probabilities and post-measurement expectations."""
    for seed in range(10):
        rng = stream(200 + seed, n)
        outcomes = streams(200 + seed, (n,), [0])
        stab = StabilizerState(n)
        dense = DenseState(n)
        for step in range(12):
            for g in random_clifford_circuit(n, 4, rng):
                apply_gate(stab, g)
                dense.apply_gate(g)
            q = int(rng.integers(n))
            prob0 = dense.prob_z0(q)
            expect = stab.expectation(PauliOperator.single(n, q, "Z"))[0]
            want_prob0 = {1: 1.0, -1: 0.0, 0: 0.5}[expect]
            assert prob0 == pytest.approx(want_prob0, abs=1e-9)
            outcome = int(stab.measure_z(q, outcomes)[0])
            dense.project_z(q, outcome)
        for s in all_pauli_strings(n):
            got = stab.expectation(PauliOperator.from_string(s))[0]
            assert got == pytest.approx(dense.expectation_pauli(s), abs=1e-9)


def test_repeated_measurement_is_stable():
    rng = trial_streams([stream(1)])
    state = StabilizerState(3)
    state.h(0)
    state.cnot(0, 1)
    first = state.measure_z(0, rng)
    for _ in range(5):
        assert state.measure_z(0, rng) == first
        assert state.measure_z(1, rng) == first


def test_bell_pair_measurements():
    rng = trial_streams([stream(2)])
    state = StabilizerState(2)
    prepare_bell(state, 0, 1)
    assert state.expectation(PauliOperator.from_string("XX")) == 1
    assert state.expectation(PauliOperator.from_string("ZZ")) == 1
    assert state.expectation(PauliOperator.from_string("YY")) == -1
    assert state.bell_measure(0, 1, rng) == (0, 0)


@pytest.mark.parametrize(
    "letter,expected",
    [("I", (0, 0)), ("X", (0, 1)), ("Z", (1, 0)), ("Y", (1, 1))],
)
def test_bell_measure_reads_error_labels(letter, expected):
    """An error sigma on one Bell half shows up as (xx, zz) = (z, x)."""
    rng = trial_streams([stream(3)])
    state = StabilizerState(2)
    prepare_bell(state, 0, 1)
    p = PauliOperator.from_string(letter + "I")
    state.apply_pauli(p.x_bits, p.z_bits)
    assert state.bell_measure(0, 1, rng) == expected


def test_deterministic_measurements():
    rng = trial_streams([stream(4)])
    state = StabilizerState(2)
    assert state.measure_z(0, rng) == 0
    state.apply_pauli([1], [0], 0)
    assert state.measure_z(0, rng) == 1
    state.h(1)
    x1 = PauliOperator.single(2, 1, "X")
    assert state.measure_pauli(x1, rng) == 0
    state.apply_pauli([0], [1], 1)
    assert state.measure_pauli(x1, rng) == 1


def test_random_measurement_statistics():
    rng = trial_streams([stream(5)])
    outcomes = []
    for _ in range(400):
        state = StabilizerState(1)
        state.h(0)
        outcomes.append(state.measure_z(0, rng)[0])
    mean = np.mean(outcomes)
    assert abs(mean - 0.5) < 3 * 0.5 / np.sqrt(400)


def test_joint_pauli_measurement():
    rng = trial_streams([stream(6)])
    state = StabilizerState(2)
    xx = PauliOperator.from_string("XX")
    outcome = state.measure_pauli(xx, rng)
    assert state.expectation(xx) == (1 if outcome == 0 else -1)
    # |00> is a ZZ=+1 eigenstate; XX measurement must preserve that
    assert state.expectation(PauliOperator.from_string("ZZ")) == 1
    assert state.measure_pauli(xx, rng) == outcome


def test_argument_validation():
    state = StabilizerState(2)
    rng = trial_streams([stream(7)])
    with pytest.raises(IndexError):
        state.h(2)
    with pytest.raises(ValueError):
        state.cnot(1, 1)
    with pytest.raises(ValueError):
        state.bell_measure(0, 0, rng)
    with pytest.raises(ValueError):
        state.apply_pauli(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        state.apply_pauli(np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError, match="draw for 2 trials, the state has 1"):
        state.measure_z(0, streams(7, (), range(2)))
    with pytest.raises(ValueError):
        StabilizerState(0)
    with pytest.raises(ValueError):
        StabilizerState(2, trials=0)


def _random_state(n, rng, trials=1):
    state = StabilizerState(n, trials)
    for g in random_clifford_circuit(n, 30, rng):
        apply_gate(state, g)
    return state


def _same_tableau(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "xzr")


def test_pauli_on_a_block_equals_the_padded_pauli():
    """apply_pauli, measure_pauli and expectation of a Pauli placed at
    offset ``at`` give the same outcome and tableau as that Pauli padded
    with identities to the state's width."""
    n = 6
    for seed in range(120):
        rng = stream(9, seed)
        width = int(rng.integers(1, n + 1))
        at = int(rng.integers(0, n - width + 1))
        x, z = rng.integers(0, 2, (2, width), dtype=np.uint8)
        local = PauliOperator(width, x, z)
        padded_x, padded_z = np.zeros((2, n), dtype=np.uint8)
        padded_x[at : at + width], padded_z[at : at + width] = x, z
        padded = PauliOperator(n, padded_x, padded_z)
        state = _random_state(n, rng)
        assert state.expectation(local, at) == state.expectation(padded)
        a, b = copy.deepcopy(state), copy.deepcopy(state)
        a.apply_pauli(x, z, at)
        b.apply_pauli(padded_x, padded_z)
        assert _same_tableau(a, b)
        a, b = copy.deepcopy(state), copy.deepcopy(state)
        assert a.measure_pauli(local, trial_streams([stream(10, seed)]), at) == b.measure_pauli(
            padded, trial_streams([stream(10, seed)])
        )
        assert _same_tableau(a, b) and tableau_ok(a)


def test_pauli_past_the_last_qubit_raises():
    state = StabilizerState(4)
    p = PauliOperator.from_string("XZ")
    for at in (-1, 3):
        with pytest.raises(ValueError, match="does not fit"):
            state.apply_pauli(p.x_bits, p.z_bits, at)
        with pytest.raises(ValueError, match="does not fit"):
            state.measure_pauli(p, trial_streams([stream(11)]), at)
        with pytest.raises(ValueError, match="does not fit"):
            state.expectation(p, at)


@pytest.mark.parametrize("letter", ["X", "Z"])
def test_conditional_frame_flips_only_its_trials(letter):
    """A conditional frame is apply_pauli with (T, 1) bits: a trial whose
    bit is set ends as under the one-qubit Pauli, the others as before."""
    rng = stream(12)
    bits = np.array([[0], [1], [1], [0]], dtype=np.uint8)
    zero = np.zeros_like(bits)
    for q in range(5):
        state = _random_state(5, rng, trials=len(bits))
        frame, pauli = copy.deepcopy(state), copy.deepcopy(state)
        frame.apply_pauli(*((bits, zero) if letter == "X" else (zero, bits)), q)
        apply_gate(pauli, (letter, q))
        assert np.array_equal(frame.x, state.x) and np.array_equal(frame.z, state.z)
        assert np.array_equal(frame.r, np.where(bits == 1, pauli.r, state.r))


# --- trial axis: T trials on one tableau against T one-trial runs ------------


def _trial_circuit(n, steps, rng):
    """Steps that every trial runs: H and CNOT gates, per-trial Paulis on
    a block ("pauli", at, w), measurements ("measure", p, at) and
    expectations ("expect", p, at) of random Paulis p on a block."""
    ops = []
    for _ in range(steps):
        kind = int(rng.integers(5))
        q = int(rng.integers(n))
        if kind == 0 and n > 1:
            t = int(rng.integers(n - 1))
            ops.append(("CNOT", q, t if t < q else t + 1))
        elif kind <= 1:
            ops.append(("H", q))
        else:
            w = int(rng.integers(1, n + 1))
            at = int(rng.integers(0, n - w + 1))
            if kind == 2:
                ops.append(("pauli", at, w))
            else:
                p = PauliOperator(w, *rng.integers(0, 2, (2, w), dtype=np.uint8))
                ops.append(("measure" if kind == 3 else "expect", p, at))
    return ops


def _run_trials(n, ops, rngs):
    """Run ops on one tableau over the len(rngs) trials of the TrialStreams
    rngs; each trial draws its Pauli bits as one row of uniforms below
    1/2. Returns the state and one record per non-gate step: Pauli bits
    (T, 2, w), outcomes (T,) or expectations (T,)."""
    state = StabilizerState(n, len(rngs))
    record = []
    for op in ops:
        if op[0] in ("H", "CNOT"):
            apply_gate(state, op)
        elif op[0] == "pauli":
            _, at, w = op
            bits = (rngs.random(2 * w) < 0.5).astype(np.uint8).reshape(-1, 2, w)
            state.apply_pauli(bits[:, 0], bits[:, 1], at)
            record.append(bits)
        elif op[0] == "measure":
            record.append(state.measure_pauli(op[1], rngs, op[2]))
        else:
            record.append(state.expectation(op[1], op[2]))
    return state, record


def _padded(p, at, n, bits=None):
    """Letters of the n-qubit Pauli that is p (or the bits (2, w)) at ``at``."""
    x, z = (p.x_bits, p.z_bits) if bits is None else bits
    letters = ["I"] * n
    for i, (xi, zi) in enumerate(zip(x, z)):
        letters[at + i] = "IZXY"[2 * int(xi) + int(zi)]
    return "".join(letters)


def _dense_replay(n, ops, record, t):
    """Replay trial t of a record on the dense statevector and check every
    expectation and the probability of every measured outcome."""
    dense = DenseState(n)
    steps = iter(record)
    for op in ops:
        if op[0] in ("H", "CNOT"):
            dense.apply_gate(op)
            continue
        got = next(steps)[t]
        if op[0] == "pauli":
            for q, letter in enumerate(_padded(None, op[1], n, got)):
                dense.apply_gate((letter, q))
            continue
        letters = _padded(op[1], op[2], n)
        if op[0] == "expect":
            assert dense.expectation_pauli(letters) == pytest.approx(got, abs=1e-9)
            continue
        # project onto the (-1)^outcome eigenspace of the measured Pauli
        psi = dense.psi.reshape(-1)
        projected = (psi + (-1) ** int(got) * (dense.pauli_matrix(letters) @ psi)) / 2
        prob = float(np.vdot(projected, projected).real)
        assert prob == pytest.approx(0.5, abs=1e-9) or prob == pytest.approx(1.0, abs=1e-9)
        dense.psi = (projected / np.sqrt(prob)).reshape((2,) * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_trials_equal_one_trial_runs_on_their_own_generators(n):
    """16 trials on one tableau give each trial the outcomes, expectations
    and signs of a one-trial run on that trial's own stream; for
    n <= 4 every trial also agrees with the dense statevector."""
    trials = 16
    for seed in range(6):
        ops = _trial_circuit(n, 40, stream(13, n, seed))
        state, record = _run_trials(n, ops, streams(14, (n, seed), range(trials)))
        assert tableau_ok(state)
        for t in range(trials):
            one, one_record = _run_trials(n, ops, streams(14, (n, seed), [t]))
            assert all(np.array_equal(got[t], want[0]) for got, want in zip(record, one_record)), (seed, t)
            assert np.array_equal(state.x, one.x) and np.array_equal(state.z, one.z)
            assert np.array_equal(state.r[t], one.r[0]), (seed, t)
            if n <= 4:
                _dense_replay(n, ops, record, t)


def _ag_g(x1, z1, x2, z2):
    """Aaronson & Gottesman's piecewise g(x1, z1, x2, z2), the reference."""
    if (x1, z1) == (0, 0):
        return 0
    if (x1, z1) == (1, 1):
        return z2 - x2
    if (x1, z1) == (1, 0):
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)


def test_phase_exponents_match_piecewise_rule_on_every_qubit_pair():
    for x1, z1, x2, z2 in itertools.product((0, 1), repeat=4):
        bits = [np.array([b], dtype=np.uint8) for b in (x1, z1, x2, z2)]
        got = int(_phase_exponents(*bits))
        assert (got - _ag_g(x1, z1, x2, z2)) % 4 == 0, (x1, z1, x2, z2, got)


def test_phase_exponents_sum_over_qubits_and_broadcast():
    rng = stream(8)
    x1, z1 = rng.integers(0, 2, (2, 6, 11), dtype=np.uint8)
    x2, z2 = rng.integers(0, 2, (2, 11), dtype=np.uint8)
    got = _phase_exponents(x1, z1, x2, z2)
    assert got.shape == (6,) and got.dtype == np.int64  # uint8 sums would wrap on subtraction
    for row in range(6):
        want = sum(_ag_g(*(int(a[q]) for a in (x1[row], z1[row], x2, z2))) for q in range(11))
        assert (int(got[row]) - want) % 4 == 0
