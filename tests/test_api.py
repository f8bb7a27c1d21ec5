"""The package's public names, the functions the benchmark wraps by name, and
the scalar reference's independence from private forestgen code."""

import ast
import importlib
from pathlib import Path

import forestgen

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets() -> tuple:
    """``TARGETS`` of the benchmark tracer, read from its source without
    importing or running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_public_names_and_benchmark_targets_resolve():
    missing = [name for name in forestgen.__all__ if not hasattr(forestgen, name)]
    targets = _span_targets()
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"forestgen.{module}")
        for part in attr.split("."):
            if not hasattr(obj, part):
                missing.append(f"{module}.{attr}")
                break
            obj = getattr(obj, part)
    assert not missing, missing


REFERENCE = Path(__file__).resolve().parent / "scalar_reference.py"


def _private_forestgen_names(source: str) -> list[str]:
    """``_``-prefixed names that ``source`` reads from forestgen: imported
    with ``from forestgen... import _name``, or read as an attribute of a
    name bound by a forestgen import."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "forestgen")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "forestgen":
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            bound.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_scalar_reference_uses_no_private_forestgen_name():
    # the reference must not share the code it checks
    assert sorted(_private_forestgen_names(
        "from forestgen import lsystem as ls\nimport forestgen.tree\n"
        "from forestgen.stl import _x\nls._Emission(); forestgen.tree._frames\n"
    )) == ["forestgen.stl._x", "forestgen.tree._frames", "ls._Emission"]
    assert _private_forestgen_names(REFERENCE.read_text()) == []
