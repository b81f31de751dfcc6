"""Every function, class and method in src/qnetcode has a caller there.

A name that only tests reach is code the package carries for nothing,
unless something outside src/ looks it up by name. This test parses the
package with ast, collects its module-level functions and classes and
its non-dunder methods, and requires each one to be referenced in src/
(as a name or an attribute) outside its own definition, or to be listed
in ALLOWED with the reason it stays. An import does not count as a
reference, and an ALLOWED entry that has gained a caller or lost its
definition fails the test too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qnetcode"

TRACER = "wrapped by a LAYERS entry of perfbench/tracer.py"
ACCEPTANCE = "imported or called by tests/test_acceptance.py"
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
    "netchain.sample_chain_trial": ACCEPTANCE,
    "protocols.purify_pair_sampled": ACCEPTANCE,
    "noise.sample_error": TRACER,
    "pauli.PauliOperator.is_identity": ACCEPTANCE,
    "noise.BellDiagonalState.perfect": CONSTRUCTOR,
    "noise.NoiseModel.phase_flip": CONSTRUCTOR,
    "pauli.PauliOperator.identity": CONSTRUCTOR,
    "pauli.PauliOperator.single": CONSTRUCTOR,
    "rng._PhiloxKey.generate_state": "called by numpy: Philox(seed) takes its key from seed.generate_state",
}


def _definitions():
    """(qualified name, bare name, module path, definition node) of every
    module-level function or class and every non-dunder method."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not item.name.startswith("__"):
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
