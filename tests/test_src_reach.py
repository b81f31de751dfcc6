"""Every function, class, method and module constant in src/qnetcode has
a reader there.

A name that only tests reach is code the package carries for nothing,
unless something outside src/ looks it up by name. This test parses the
package with ast, collects its module-level functions, classes and
assigned names (dunder names excepted) and its methods, and requires each
one to be referenced in src/ (as a name or an attribute) outside its own
definition, or to be listed in ALLOWED with the reason it stays. An
import does not count as a reference, and an ALLOWED entry that has
gained a caller or lost its definition fails the test too.

Dunder methods other than __init__ and __post_init__ count as
definitions: Python syntax calls them (``len(x)``, ``a == b``), not a
name, so each one needs an ALLOWED reason that names the syntax that
calls it. A TRACER reason must name a LAYERS entry of perfbench/tracer.py,
and an ACCEPTANCE reason a name that tests/test_acceptance.py imports.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qnetcode"
CONSTRUCTION = ("__init__", "__post_init__")

TRACER = "wrapped by a LAYERS entry of perfbench/tracer.py"
ACCEPTANCE = "imported by tests/test_acceptance.py"
ORACLE = "tableau oracle of the frame engine"
CONSTRUCTOR = "public constructor of a public type"

ALLOWED = {
    "codes.syndrome": TRACER,
    "decoders.LookupDecoder.decode": TRACER,
    "decoders.MatchingDecoder.decode": TRACER,
    "decoders.BpDecoder.decode": TRACER,
    "decoders.logical_failure": TRACER,
    "ftec.knill_ec_round": TRACER,
    "ftec.apply_output_corrections": TRACER,
    "ftec.verify_output": ORACLE,
    "gf2.matvec": TRACER,
    "netchain.sample_chain_trial": ACCEPTANCE,
    "protocols.purify_pair_sampled": ACCEPTANCE,
    "noise.sample_error": TRACER,
    "noise.NoiseModel.phase_flip": CONSTRUCTOR,
    "pauli.PauliOperator.identity": CONSTRUCTOR,
    "pauli.PauliOperator.single": CONSTRUCTOR,
    "pauli.PauliOperator.__eq__": "res.correction == err in criterion 9 of tests/test_acceptance.py",
    "rng.TrialStreams.__len__": "len(rngs) in stabsim, ftec and protocols",
}


def _definitions():
    """(qualified name, bare name, module path, definition node) of every
    module-level function, class or non-dunder assigned name and every
    method but __init__ and __post_init__."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not name.id.startswith("__"):
                        yield f"{path.stem}.{name.id}", name.id, path, node
            if not isinstance(node, kinds):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and item.name not in CONSTRUCTION:
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, path, item


def _references():
    """(bare name, module path, line) of every name and attribute read in
    src/; a name that is only assigned, such as a dataclass field, is not read."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, path, node.lineno


def _unreached():
    refs = list(_references())
    unreached = set()
    for qualified, name, path, node in _definitions():
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(r == name and not (p == path and line in inside) for r, p, line in refs):
            unreached.add(qualified)
    return unreached


def test_every_src_name_has_a_src_caller_or_a_reason():
    unreached = _unreached()
    assert sorted(unreached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unreached) == [], "stale ALLOWED entries"


def _tracer_layers():
    """Qualified names (module.attr or module.Class.attr) that perfbench's
    tracer wraps, read from its LAYERS as tests/test_tracer_names.py does."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import LAYERS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {
        ".".join(part for part in (module.removeprefix("qnetcode."), cls, attr) if part)
        for _, module, cls, attr in LAYERS
    }


def _acceptance_imports():
    """module.name of every name tests/test_acceptance.py imports from a
    qnetcode module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        f"{node.module.removeprefix('qnetcode.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qnetcode.")
        for alias in node.names
    }


def test_allowed_reasons_hold():
    for reason, names in ((TRACER, _tracer_layers()), (ACCEPTANCE, _acceptance_imports())):
        claimed = {name for name, why in ALLOWED.items() if why == reason}
        assert sorted(claimed - names) == [], reason
