"""The names perfbench's tracer wraps must exist where it looks for them.

perfbench/tracer.py replaces each (module, class, attribute) of its LAYERS
by lookup, so a rename in qnetcode would break the traced benchmark run
without failing any test here. These tests read LAYERS from the tracer
itself and resolve every entry the way Tracer.install does.
"""

import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    from tracer import LAYERS
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize(
    "module,cls,attr",
    [entry[1:] for entry in LAYERS],
    ids=[".".join(part for part in entry[1:] if part) for entry in LAYERS],
)
def test_tracer_layer_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(owner, attr))
    else:  # methods are wrapped in the class's own __dict__
        assert callable(vars(getattr(owner, cls))[attr])


def test_decoders_bind_code_syndrome():
    from qnetcode import codes, decoders

    assert decoders.code_syndrome is codes.syndrome
