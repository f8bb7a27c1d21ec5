"""Smoke test: every script under ``scripts/`` runs to exit 0 on small inputs."""

import os
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
