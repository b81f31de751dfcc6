from fractions import Fraction

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qnetcode import cli, ratecalc
from qnetcode.noise import effective_error_rate
from qnetcode.ratecalc import RateConfig, blocks, compare, epr_rate, fold_description


def test_blocks_reference_values():
    assert blocks(68200, 289) == 78
    assert blocks(68200, 3786) == 6
    assert blocks(867, 289) == 1
    assert blocks(866, 289) == 0


def test_blocks_validation():
    with pytest.raises(ValueError):
        blocks(0, 3)
    with pytest.raises(ValueError):
        blocks(100, 0)


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 4))
def test_blocks_definition_and_monotonicity(q, n):
    b = blocks(q, n)
    assert b == q // (3 * n)
    assert blocks(q + 1, n) >= b
    if n > 1:
        assert blocks(q, n - 1) >= b


def test_epr_rate_reference_values():
    assert ratecalc.ROUND_COST_T == 4  # the default cycle: one Knill round
    rep = epr_rate(RateConfig(68200, 289, 1))
    assert rep.blocks == 78
    assert rep.epr_units_per_T == Fraction(39, 2)
    assert float(rep.epr_units_per_T) == 19.5
    rep = epr_rate(RateConfig(68200, 3786, 946))
    assert rep.blocks == 6
    assert rep.epr_units_per_T == Fraction(1419)


def test_epr_rate_zero_k():
    assert epr_rate(RateConfig(68200, 289, 0)).epr_units_per_T == 0


def test_epr_rate_carries_effective_error(capsys):
    """The rate command reports p_eff = p_c + p_g next to each row, and the
    noise leaves every rate field of the row unchanged."""
    argv = ["rate", "--qubits", "1000", "--code", "surface:3", "--format", "json"]
    assert cli.main(argv) == 0
    (quiet,) = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--pc", "0.05", "--pg", "0.001"]) == 0
    (noisy,) = json.loads(capsys.readouterr().out)
    assert noisy["p_eff"] == effective_error_rate(0.05, 0.001)
    assert noisy["p_eff"] == pytest.approx(0.055, abs=1e-15)
    assert quiet["p_eff"] == 0.0
    assert {**noisy, "p_eff": 0.0} == quiet
    assert noisy["rate_per_T"] == str(epr_rate(RateConfig(1000, 9, 1)).epr_units_per_T)


def test_import_loads_no_other_qnetcode_module():
    """ratecalc is rate arithmetic alone: importing it loads no simulator module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qnetcode.ratecalc; print(sorted(m for m in sys.modules if m.startswith('qnetcode.')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "['qnetcode.ratecalc']"


def test_rate_config_validation():
    with pytest.raises(ValueError):
        RateConfig(0, 3, 1)
    with pytest.raises(ValueError):
        RateConfig(100, 3, -1)
    with pytest.raises(ValueError):
        RateConfig(100, 3, 1, cycle_T_units=0)


def test_compare_reference_ratio():
    a = RateConfig(68200, 289, 1)
    b = RateConfig(68200, 3786, 946)
    ratio = compare(a, b)
    assert ratio == Fraction(946, 13)
    assert 72 <= ratio <= 73
    assert fold_description(ratio) == "≈72-fold"
    # below 1 by the inverse, rounded down as above; zero has no fold
    assert fold_description(Fraction(1, 5)) == "≈5-fold lower"
    assert fold_description(Fraction(13, 946)) == "≈72-fold lower"
    assert fold_description(Fraction(1)) == "≈1-fold"
    assert fold_description(Fraction(0)) == "no rate"


def test_compare_identical_and_zero_baseline():
    a = RateConfig(68200, 289, 1)
    assert compare(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        compare(RateConfig(68200, 289, 0), a)


def test_compare_invariant_under_exact_budget_scaling():
    """Doubling Q doubles both block counts exactly here, so the ratio is
    unchanged (floor effects audited by direct recomputation)."""
    a1, b1 = RateConfig(3 * 289 * 10, 289, 1), RateConfig(3 * 289 * 10, 3786, 946)
    a2, b2 = RateConfig(2 * 3 * 289 * 10, 289, 1), RateConfig(2 * 3 * 289 * 10, 3786, 946)
    if (
        epr_rate(a2).blocks == 2 * epr_rate(a1).blocks
        and epr_rate(b2).blocks == 2 * epr_rate(b1).blocks
    ):
        assert compare(a1, b1) == compare(a2, b2)
    else:
        assert compare(a2, b2) == epr_rate(b2).epr_units_per_T / epr_rate(a2).epr_units_per_T


def test_rates_are_exact_rationals():
    rep = epr_rate(RateConfig(100, 7, 3, cycle_T_units=4))
    assert isinstance(rep.epr_units_per_T, Fraction)
    assert rep.epr_units_per_T == Fraction(3 * (100 // 21), 4)
