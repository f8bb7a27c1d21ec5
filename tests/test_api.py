"""The package's public names, and the functions the benchmark wraps by name."""

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
