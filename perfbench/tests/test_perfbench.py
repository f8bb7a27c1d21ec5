"""The benchmark's own tests, at smoke size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py",
         extra=()):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    sha = re.search(r"output sha256 ([0-9a-f]{64})", proc.stdout).group(1)
    return json.loads(lines[-1]), sha


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in on_disk["end_to_end"] + on_disk["per_layer"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert 0 < max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module", params=sorted(spec.WORKLOADS))
def both_runs(request, tmp_path_factory):
    span_file = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    traced = _result(_run(request.param, 1, extra=("--spans", str(span_file))))
    return request.param, _result(_run(request.param, 0)), traced, span_file


def test_every_metric_is_reported_with_its_unit_and_every_check_passes(both_runs):
    _, (untraced, _), (traced, _), _ = both_runs
    for result, declared in ((untraced, spec.END_TO_END), (traced, spec.PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: unit for name, unit, *_ in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, *_ in spec.END_TO_END:
        assert untraced["metrics"][name]["value"] > 0


def test_traced_and_untraced_outputs_have_equal_digests(both_runs):
    _, (_, untraced_sha), (traced, traced_sha), _ = both_runs
    assert traced_sha == untraced_sha
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_spans_are_written_with_parents_and_ops(both_runs):
    *_, span_file = both_runs
    spans_out = [json.loads(line) for line in span_file.read_text().splitlines()]
    names = {s["name"] for s in spans_out}
    assert {"op.scene_s", "cli.main", "forest.compose_forest", "tree.build_tree"} <= names
    for s in spans_out:
        assert s["end"] >= s["start"] and s["self_s"] <= s["end"] - s["start"] + 1e-9
        assert (s["parent"] is None) == s["name"].startswith("op.")


def test_wrappers_are_removed_when_an_op_raises():
    from forestgen import stl, tree

    originals = (tree.build_tree, tree.TreeModel.__dict__["full_mesh"], stl.read_stl)
    tracer = spans.Tracer()
    tracer.op = (0, "probe")
    with pytest.raises(stl.StlParseError):
        with tracer.installed():
            assert tree.build_tree is not originals[0]
            stl.read_stl(b"")
    assert (tree.build_tree, tree.TreeModel.__dict__["full_mesh"], stl.read_stl) == originals
    assert [s[0] for s in tracer.spans] == ["stl.read_stl"]


def test_a_function_bound_by_name_is_reported_silent():
    from forestgen import templates, tree

    bound = tree.build_tree  # as ``from .tree import build_tree`` would bind it
    tracer = spans.Tracer()
    tracer.op = (0, "probe")
    lib = templates.default_library("tiny")
    with tracer.installed():
        tree.build_tree(tree.TreeParams(branch_count=1, seed=3), lib)
    silent = spans.silent_layers(tracer.spans)
    assert "tree.build_tree" not in silent and "stl.read_stl.ascii" in silent
    tracer = spans.Tracer()
    tracer.op = (0, "probe")
    with tracer.installed():
        bound(tree.TreeParams(branch_count=1, seed=3), lib)
    assert "tree.build_tree" in spans.silent_layers(tracer.spans)
    assert "tree.build_skeleton" not in spans.silent_layers(tracer.spans)


def test_self_time_excludes_child_spans():
    from forestgen import templates, tree

    tracer = spans.Tracer()
    tracer.op = (0, "probe")
    lib = templates.default_library("tiny")
    with tracer.installed():
        tree.build_tree(tree.TreeParams(branch_count=2, seed=3), lib)
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    root = next(i for i, s in by_index.items() if s[0] == "tree.build_tree")
    name, start, end, self_s, parent, _, extra = by_index[root]
    children = sum(s[2] - s[1] for s in by_index.values() if s[4] == root)
    assert parent is None and extra["triangles"] > 0
    assert self_s == pytest.approx(end - start - children, abs=1e-9)
    metrics = spans.layer_metrics(tracer.spans, ["tree.build_tree.calls", "tree.instances"])
    assert metrics == {"tree.build_tree.calls": 1, "tree.instances": 1 + 2 + 6 + 6 * 5}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("canopy", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
