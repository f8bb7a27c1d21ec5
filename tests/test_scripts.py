"""Smoke test: every script under ``scripts/`` runs to exit 0 on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import forestgen

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> arguments that keep it small; every script but ipp_counts writes to --out
ARGS = {
    "bench.py": ["--smoke"],
    "figure_stages.py": ["--detail", "tiny"],
    "forest_demo.py": ["--detail", "tiny"],
    "ipp_counts.py": ["--reps", "20"],
    "make_templates.py": ["--detail", "tiny"],
    "src_lines.py": [],
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("script", sorted(ARGS))
def test_script_exits_0(script, tmp_path):
    src = str(Path(forestgen.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = [] if script == "ipp_counts.py" else ["--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, str(SCRIPTS / script), *ARGS[script], *out],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr


def run_src_lines(script: Path, *args: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, **env))


def in_git_checkout() -> bool:
    return shutil.which("git") is not None and subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=SCRIPTS, capture_output=True).returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs git and a git checkout")
def test_src_lines_against_a_revision_counts_the_working_tree_as_the_plain_run():
    plain = run_src_lines(SCRIPTS / "src_lines.py")
    against = run_src_lines(SCRIPTS / "src_lines.py", "--against", "HEAD")
    assert plain.returncode == 0 and against.returncode == 0, plain.stderr + against.stderr
    counts = dict(line.split() for line in plain.stdout.splitlines())
    head, *rows = [line.split() for line in against.stdout.splitlines()]
    assert head == ["HEAD", "now", "delta"]
    assert {name: now for name, _, now, _ in rows if now != "0" or name in counts} == counts
    for _, then, now, delta in rows:
        assert int(delta) == int(now) - int(then)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_lines_against_a_revision_outside_a_checkout_is_one_error_line(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(SCRIPTS.parent / "src" / "forestgen", copy / "src" / "forestgen")
    (copy / "scripts").mkdir()
    shutil.copy(SCRIPTS / "src_lines.py", copy / "scripts")
    result = run_src_lines(copy / "scripts" / "src_lines.py", "--against", "HEAD",
                           GIT_CEILING_DIRECTORIES=str(tmp_path))
    assert result.returncode == 1 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
