"""The package's public names, as README lists them, the functions the
benchmark wraps by name, and the scalar reference's independence from
private forestgen code."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import forestgen
from forestgen import cli, forest, stl, templates

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _readme_api() -> list[str]:
    """The names that the bullets of README's "Python API" section list."""
    section = ROOT.joinpath("README.md").read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    items = "\n".join(line for line in section.splitlines() if line.startswith(("- ", "  ")))
    return re.findall(r"`(\w+)`", items)


def test_public_api_is_the_readme_list():
    names = _readme_api()
    assert len(names) == len(set(names)) == 34
    assert sorted(forestgen.__all__) == sorted(names)
    # the package binds no other public name than its submodules
    exported = [name for name, value in vars(forestgen).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(exported) == sorted(names)


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


def test_every_benchmark_target_is_called(tmp_path, monkeypatch, capsys):
    # The benchmark's traced run counts a wrapped function that records no
    # call as a failed op, so a refactor that takes one off every op's path
    # fails here first. These are the benchmark's ops, at a small size.
    lib_path = stl.save_library(templates.default_library("tiny"), tmp_path / "lib")
    lib = stl.load_library(lib_path)
    config = tmp_path / "scene_config.json"
    config.write_text(json.dumps({
        "master_seed": 3,
        "region": {"x_min": 0.0, "x_max": 20.0, "y_min": 0.0, "y_max": 20.0},
        "intensity": {"form": "constant", "rate": 0.02},
        "tree_params": {"branch_count": 3, "subbranches_per_branch": 1,
                        "leaves_per_subbranch": 2, "trunk_height": 5.0},
        "min_spacing": 1.0,
    }))
    calls = {}
    for module, attr in _span_targets():
        owner = importlib.import_module(f"forestgen.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = f"{module}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=owner.__dict__[leaf], _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, leaf, counted)

    scene, tree = tmp_path / "scene", tmp_path / "tree.stl"
    tree_argv = ["tree", "--branches", 2, "--subbranches", 1, "--leaves", 2, "--seed", 4,
                 "--out", tree]
    argvs = [
        ["forest", "--config", config, "--out", scene, "--mode", "merged", "--lib", lib_path],
        tree_argv + ["--lib", lib_path],
        ["stl-info", tree],
        ["ipp-sample", "--region", "0,20,0,20", "--intensity", "constant:0.05", "--seed", 5,
         "--reps", 3, "--counts-only", "--out", tmp_path / "counts.csv"],
    ]
    for argv in argvs:
        assert cli.main([str(a) for a in argv]) == 0, argv
    regenerated = forest.regenerate_scene(scene / forest.MANIFEST_NAME, lib)
    forest.export_scene(regenerated, tmp_path / "regen", "merged")
    # building the built-in templates places meshes too, so it runs last,
    # where it cannot stand in for the placement layers
    assert [name for name, n in calls.items() if n == 0] == ["templates.default_library"]
    assert cli.main([str(a) for a in tree_argv]) == 0
    capsys.readouterr()
    assert calls["templates.default_library"] > 0


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
