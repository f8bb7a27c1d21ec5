import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forestgen import cli, stl
from forestgen import forest as fo

RULE1_GRAMMAR = "vars: g\nconsts: d\naxiom: g\nrule: g -> d(d)+d)[d(d)+d)\n"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture()
def lib_dir(tiny_library, tmp_path_factory):
    path = tmp_path_factory.mktemp("lib")
    return stl.save_library(tiny_library, path)


# ---------------------------------------------------------------------------
# rewrite

def test_rewrite_rule1(tmp_path, capsys):
    grammar = tmp_path / "rule1.txt"
    grammar.write_text(RULE1_GRAMMAR)
    code, out, err = run(["rewrite", "--grammar", str(grammar), "--iterations", "1"], capsys)
    assert code == 0
    pairs = kv(out)
    assert pairs["derivation"] == "d(d)+d)[d(d)+d)"
    assert pairs["branch_symbols"] == "6"


@pytest.mark.parametrize("iterations, stdout", [
    (0, "level=0\nderivation=g\nbranch_symbols=0\n"),
    (3, "level=3\nderivation=d[d[d[g\nbranch_symbols=3\n"),
])
def test_rewrite_stdout_is_pinned(iterations, stdout, tmp_path, capsys):
    grammar = tmp_path / "chain.txt"
    grammar.write_text("vars: g\nconsts: d\naxiom: g\nrule: g -> d[g\n")
    code, out, err = run(["rewrite", "--grammar", str(grammar),
                          "--iterations", str(iterations)], capsys)
    assert (code, out, err) == (0, stdout, "")


def test_rewrite_parse_failure_exit_3(tmp_path, capsys):
    grammar = tmp_path / "bad.txt"
    grammar.write_text("vars: g\naxiom: g\nrule: g -> g\nrule: g -> gg\n")
    code, out, err = run(["rewrite", "--grammar", str(grammar), "--iterations", "1"], capsys)
    assert code == 3
    assert err.startswith("error:")
    assert "line 4" in err


# ---------------------------------------------------------------------------
# tree

def test_tree_branches_stage(lib_dir, tmp_path, capsys):
    out_path = tmp_path / "t8.stl"
    code, out, err = run(["tree", "--branches", "8", "--seed", "2", "--lib", str(lib_dir),
                          "--out", str(out_path), "--stage", "branches"], capsys)
    assert code == 0
    mesh = stl.read_stl(out_path.read_bytes())
    lib = stl.load_library(lib_dir)
    assert len(mesh) == len(lib.trunk) + 8 * len(lib.branch)
    assert kv(out)["seed"] == "2"


def test_tree_leaves_stage_writes_csv(lib_dir, tmp_path, capsys):
    out_path = tmp_path / "t12.stl"
    code, out, err = run(["tree", "--branches", "12", "--seed", "4", "--lib", str(lib_dir),
                          "--out", str(out_path), "--stage", "leaves"], capsys)
    assert code == 0
    csv_path = tmp_path / "leaves.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 1 + 12 * 3 * 5


def test_tree_same_seed_identical_bytes(lib_dir, tmp_path, capsys):
    args = ["tree", "--branches", "8", "--seed", "31", "--lib", str(lib_dir), "--stage", "leaves"]
    code1, _, _ = run(args + ["--out", str(tmp_path / "a.stl")], capsys)
    code2, _, _ = run(args + ["--out", str(tmp_path / "b.stl")], capsys)
    assert code1 == code2 == 0
    assert (tmp_path / "a.stl").read_bytes() == (tmp_path / "b.stl").read_bytes()


def test_tree_invalid_flags_exit_2(tmp_path, capsys):
    code, out, err = run(["tree", "--branches", "0", "--out", str(tmp_path / "x.stl")], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_tree_missing_library_exit_3(tmp_path, capsys):
    code, out, err = run(["tree", "--branches", "4", "--lib", str(tmp_path / "nope.json"),
                          "--out", str(tmp_path / "x.stl")], capsys)
    assert code == 3
    assert err.startswith("error:")


def test_tree_seed_omitted_prints_chosen_seed(lib_dir, tmp_path, capsys):
    code, out, err = run(["tree", "--branches", "4", "--lib", str(lib_dir),
                          "--out", str(tmp_path / "t.stl")], capsys)
    assert code == 0
    assert int(kv(out)["seed"]) >= 0


def test_tree_from_ascii_library(tiny_library, tmp_path, capsys):
    # CAD tools often export ASCII STL: the templates of this library are ASCII
    manifest = stl.save_library(tiny_library, tmp_path / "lib", "ascii")
    out_path = tmp_path / "t.stl"
    code, out, err = run(["tree", "--branches", "4", "--subbranches", "2", "--leaves", "3",
                          "--seed", "7", "--lib", str(manifest), "--format", "ascii",
                          "--out", str(out_path)], capsys)
    assert code == 0, err
    lib = stl.load_library(manifest)
    ledger = len(lib.trunk) + 4 * len(lib.branch) + 8 * len(lib.sub_branch) + 8 * 3 * len(lib.leaf)
    assert kv(out)["triangles"] == str(ledger)
    mesh, fmt = stl.read_stl(out_path.read_bytes(), return_format=True)
    assert (fmt, len(mesh)) == ("ascii", ledger)


def test_tree_truncated_ascii_template_exit_3(tiny_library, tmp_path, capsys):
    manifest = stl.save_library(tiny_library, tmp_path / "lib", "ascii")
    leaf = manifest.parent / "leaf.stl"
    data = leaf.read_bytes()
    leaf.write_bytes(data[:data.rindex(b"endloop")])
    with pytest.raises(stl.StlParseError, match=r"^line \d+: unexpected end of file") as parse:
        stl.read_stl(leaf.read_bytes())
    code, out, err = run(["tree", "--branches", "2", "--seed", "1", "--lib", str(manifest),
                          "--out", str(tmp_path / "t.stl")], capsys)
    assert code == 3
    assert single_error_line(err) == f"error: cannot load template 'leaf' from {leaf}: {parse.value}"


# ---------------------------------------------------------------------------
# stl-info

def test_stl_info_empty_binary(tmp_path, capsys):
    path = tmp_path / "empty.stl"
    path.write_bytes(stl.write_stl(stl.empty_mesh("void"), "binary"))
    code, out, err = run(["stl-info", str(path)], capsys)
    assert code == 0
    pairs = kv(out)
    assert pairs["triangles"] == "0"
    assert pairs["format"] == "binary"
    assert pairs["bounds"] == "empty"


def test_stl_info_truncated_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    verts = rng.uniform(-1, 1, size=(3, 3, 3))
    facets = np.concatenate([np.zeros((3, 1, 3)), verts], axis=1)
    mesh = stl.recompute_normals(stl.TriangleMesh(facets))
    path = tmp_path / "trunc.stl"
    path.write_bytes(stl.write_stl(mesh, "binary")[:-10])
    code, out, err = run(["stl-info", str(path)], capsys)
    assert code == 3
    assert "234" in err and "224" in err  # expected vs actual byte counts


def test_stl_info_ascii(tmp_path, capsys):
    mesh = stl.recompute_normals(stl.TriangleMesh(
        np.array([[[0, 0, 0], [0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)))
    path = tmp_path / "tri.stl"
    path.write_bytes(stl.write_stl(mesh, "ascii"))
    code, out, err = run(["stl-info", str(path)], capsys)
    assert code == 0
    pairs = kv(out)
    assert pairs["format"] == "ascii"
    assert pairs["area"] == "2"


# ---------------------------------------------------------------------------
# ipp-sample

def test_ipp_sample_zero_rate_empty_csv(tmp_path, capsys):
    out_path = tmp_path / "pts.csv"
    code, out, err = run(["ipp-sample", "--region", "0,100,0,100", "--intensity",
                          "constant:0", "--seed", "1", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == "x,y\n"


def test_ipp_sample_counts_only_statistics(tmp_path, capsys):
    out_path = tmp_path / "counts.csv"
    code, out, err = run(["ipp-sample", "--region", "0,100,0,100", "--intensity",
                          "constant:0.01", "--seed", "6", "--reps", "400",
                          "--counts-only", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "rep,count"
    assert len(lines) == 401
    mean = float(kv(out)["mean_count"])
    assert abs(mean - 100.0) < 3 * (100.0 / 400) ** 0.5


def test_ipp_sample_multi_rep_files(tmp_path, capsys):
    out_dir = tmp_path / "samples"
    code, out, err = run(["ipp-sample", "--region", "0,50,0,50", "--intensity",
                          "constant:0.01", "--seed", "2", "--reps", "3",
                          "--out", str(out_dir)], capsys)
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "sample_0000.csv", "sample_0001.csv", "sample_0002.csv"]


# SHA-256 of the counts file, and of the 30 sample files joined in name
# order, that 30 reps of seed 11 write when every rep is sampled and seeded
# alone; batched seeding and counting each rep as it is sampled must keep them
IPP_SAMPLE_GOLDEN = {
    ("constant", True): "4b4a6d7872676c8b28e04dc43efa6e13a2377a78369c1eeeb5d072992e6d6e9a",
    ("constant", False): "31805fd110b3f8e37a4372d9a9b41fbf659a8d3c8888116e0eff99d7dd542b4b",
    ("raster", True): "9a905b583472884f1c3b0692dc66bf34a38451b0659e8a14614b376d27b8553f",
    ("raster", False): "ff43f523b7b9f1b637e34beab0e06b5d9331a93307aa323bd16700027ebddb96",
}


@pytest.mark.parametrize("form, counts_only", sorted(IPP_SAMPLE_GOLDEN))
def test_ipp_sample_bytes_are_pinned(form, counts_only, tmp_path, capsys):
    raster = tmp_path / "raster.json"
    raster.write_text(json.dumps({
        "x_min": 0.0, "y_min": 0.0, "cell_size": 25.0,
        "values": [[0.002, 0.01, 0.02, 0.005], [0.0, 0.015, 0.03, 0.01],
                   [0.004, 0.0, 0.012, 0.02], [0.02, 0.008, 0.0, 0.001]]}))
    intensity = "constant:0.01" if form == "constant" else f"raster:{raster}"
    out = tmp_path / ("counts.csv" if counts_only else "samples")
    code, _, err = run(["ipp-sample", "--region", "0,100,0,100", "--intensity", intensity,
                        "--seed", "11", "--reps", "30", "--out", str(out)]
                       + ["--counts-only"] * counts_only, capsys)
    assert code == 0, err
    files = [out] if counts_only else sorted(out.iterdir())
    assert len(files) == (1 if counts_only else 30)
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    assert digest == IPP_SAMPLE_GOLDEN[form, counts_only]


def test_ipp_sample_negative_raster_cell_exit_5(tmp_path, capsys):
    raster = tmp_path / "bad.json"
    raster.write_text(json.dumps({"x_min": 0, "y_min": 0, "cell_size": 50.0,
                                  "values": [[1.0, -2.0]]}))
    code, out, err = run(["ipp-sample", "--region", "0,100,0,50", "--intensity",
                          f"raster:{raster}", "--seed", "1", "--out", str(tmp_path / "o.csv")],
                         capsys)
    assert code == 5
    assert err.startswith("error:")
    assert "(i=1, j=0)" in err


def test_ipp_sample_bad_region_exit_2(tmp_path, capsys):
    code, out, err = run(["ipp-sample", "--region", "0,100", "--intensity", "constant:1",
                          "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# forest

def scene_config_file(tmp_path, rate=10.0 / 10000.0, master_seed=5, x_max=100) -> Path:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "master_seed": master_seed,
        "region": {"x_min": 0, "x_max": x_max, "y_min": 0, "y_max": 100},
        "intensity": {"form": "constant", "rate": rate},
        "tree_params": {"branch_count": 6, "subbranches_per_branch": 2,
                        "leaves_per_subbranch": 2, "trunk_height": 8.0,
                        "depth_scale_decay": 0.5,
                        "jitter": {"azimuth_range": 10, "pitch_range": 10,
                                   "scale_range": [0.85, 1.15]}},
        "min_spacing": 2.0,
    }))
    return path


def test_forest_empty_config(tmp_path, lib_dir, capsys):
    config = scene_config_file(tmp_path, rate=0.0)
    out_dir = tmp_path / "out"
    code, out, err = run(["forest", "--config", str(config), "--out", str(out_dir),
                          "--lib", str(lib_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "scene.json").read_text())
    assert manifest["trees"] == []
    assert kv(out)["trees"] == "0"


def test_forest_per_tree_file_count_matches_manifest(tmp_path, lib_dir, capsys):
    config = scene_config_file(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run(["forest", "--config", str(config), "--out", str(out_dir),
                          "--mode", "per-tree", "--lib", str(lib_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / fo.MANIFEST_NAME).read_text())
    stl_files = list(out_dir.glob("tree_*.stl"))
    assert len(stl_files) == len(manifest["trees"])


@pytest.mark.parametrize("cwd,config", [(".", "relcfg/scene.json"),
                                        ("relcfg", "scene.json"),
                                        ("elsewhere", "../relcfg/scene.json")])
def test_forest_library_relative_to_config(cwd, config, tmp_path, tiny_library, monkeypatch,
                                           capsys):
    cfg_dir = tmp_path / "relcfg"
    stl.save_library(tiny_library, cfg_dir / "templates")
    data = json.loads(scene_config_file(tmp_path).read_text())
    (cfg_dir / "scene.json").write_text(json.dumps(dict(data, library="templates/library.json")))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / cwd)
    code, out, err = run(["forest", "--config", config, "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (0, "")
    assert int(kv(out)["trees"]) > 0


def test_forest_invalid_config_exit_5(tmp_path, lib_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"master_seed": 1}))
    code, out, err = run(["forest", "--config", str(bad), "--out", str(tmp_path / "o"),
                          "--lib", str(lib_dir)], capsys)
    assert code == 5
    assert err.startswith("error:")


def run_bounded(argv, timeout=60.0) -> subprocess.CompletedProcess:
    """The CLI in a child process, killed (failing the test) if it outlives
    ``timeout`` seconds."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "forestgen.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("field", [{"rate": float("inf")}, {"rate": float("nan")},
                                   {"x_max": float("inf")}, {"x_max": float("nan")}])
def test_forest_non_finite_config_exit_5(field, tmp_path, lib_dir):
    config = scene_config_file(tmp_path, **field)
    assert "Infinity" in config.read_text() or "NaN" in config.read_text()
    result = run_bounded(["forest", "--config", config, "--out", tmp_path / "o",
                          "--lib", lib_dir])
    assert result.returncode == 5, result.stderr
    assert result.stderr.startswith("error:")
    assert len(result.stderr.strip().splitlines()) == 1
    assert "must be finite" in result.stderr


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_ipp_sample_non_finite_rate_exit_5(rate, tmp_path):
    result = run_bounded(["ipp-sample", "--region", "0,10,0,10", "--intensity",
                          f"constant:{rate}", "--seed", "1", "--out", tmp_path / "o.csv"])
    assert result.returncode == 5, result.stderr
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("counts", [
    ["--branches", 100_000_000],   # once an allocation of ~3.8 TB
    ["--branches", 3_000_000_000, "--subbranches", 3_000_000_000,
     "--leaves", 3_000_000_000],   # once an int64 overflow
])
def test_tree_over_triangle_budget_exit_2(counts, tmp_path):
    result = run_bounded(["tree", *counts, "--seed", 1, "--out", tmp_path / "t.stl"])
    assert result.returncode == 2, result.stderr
    assert "forestgen.tree.MAX_TRIANGLES" in single_error_line(result.stderr)
    assert not (tmp_path / "t.stl").exists()


def test_rewrite_over_derivation_budget_exit_3(tmp_path):
    # once still running after 10 s under a 1.5 GB address-space limit
    grammar = tmp_path / "g.txt"
    grammar.write_text("vars: g; axiom: g; rule: g -> gg")
    result = run_bounded(["rewrite", "--grammar", grammar, "--iterations", 40], timeout=20.0)
    assert result.returncode == 3, result.stderr
    assert "forestgen.lsystem.MAX_DERIVATION_SYMBOLS" in single_error_line(result.stderr)
    assert result.stdout == ""


def test_forest_over_triangle_budget_exit_5(tmp_path):
    # a scene config's fault, so the config code, not the flags code of `tree`;
    # seven 100 000-branch trees of the built-in normal templates need 98 M triangles
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({
        "master_seed": 3,
        "region": {"x_min": 0, "x_max": 20, "y_min": 0, "y_max": 20},
        "intensity": {"form": "constant", "rate": 0.01},
        "tree_params": {"branch_count": 100_000, "trunk_height": 8.0},
    }))
    result = run_bounded(["forest", "--config", config, "--out", tmp_path / "o"])
    assert result.returncode == 5, result.stderr
    assert "forestgen.tree.MAX_TRIANGLES" in single_error_line(result.stderr)


def test_ipp_sample_over_envelope_budget_exit_5(tmp_path):
    # once a run that was still drawing its 1e12-point envelope after 8 s
    result = run_bounded(["ipp-sample", "--region", "0,1e6,0,1e6", "--intensity", "constant:1",
                          "--seed", 1, "--out", tmp_path / "o.csv"], timeout=30.0)
    assert result.returncode == 5, result.stderr
    assert "forestgen.ipp.MAX_ENVELOPE_POINTS" in single_error_line(result.stderr)
    assert not (tmp_path / "o.csv").exists()


def test_ipp_sample_over_replication_budget_exit_5(tmp_path):
    # once a billion seeds listed before anything was checked; 10**9 reps of
    # an empty field charge one point each
    result = run_bounded(["ipp-sample", "--region", "0,10,0,10", "--intensity", "constant:0",
                          "--seed", 1, "--reps", 10**9, "--out", tmp_path / "o"], timeout=30.0)
    assert result.returncode == 5, result.stderr
    assert "forestgen.ipp.MAX_ENVELOPE_POINTS" in single_error_line(result.stderr)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["forest", "tree"])
def test_binary_stl_beyond_float32_exit_3(subcommand, tmp_path):
    # once a RuntimeWarning and exit 0, with a file that stl-info refused
    if subcommand == "forest":
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({
            "master_seed": 1,
            "region": {"x_min": 0.0, "x_max": 1e39, "y_min": 0.0, "y_max": 1.0},
            "intensity": {"form": "constant", "rate": 3e-39},
            "tree_params": {"branch_count": 1, "subbranches_per_branch": 0,
                            "leaves_per_subbranch": 0, "trunk_height": 5.0},
        }))
        out = tmp_path / "o"
        argv = ["forest", "--config", config, "--out", out, "--mode", "merged"]
    else:
        out = tmp_path / "t"
        argv = ["tree", "--branches", 1, "--subbranches", 0, "--leaves", 0, "--height", "1e39",
                "--format", "binary", "--seed", 1, "--out", out / "t.stl"]
    result = run_bounded(argv)
    assert result.returncode == 3, result.stderr
    assert "float32 range" in single_error_line(result.stderr)
    assert result.stdout == ""
    assert not out.exists() or not list(out.iterdir())


# ---------------------------------------------------------------------------
# one error line, with the documented code

def single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


DEGENERATE_LEAF = """solid leaf
  facet normal 0 0 0
    outer loop
      vertex 0 0 0
      vertex 0.5 0 1
      vertex 0 0.2 1
    endloop
  endfacet
  facet normal 0 0 0
    outer loop
      vertex 0 0 0
      vertex 0 0 1
      vertex 0 0 1
    endloop
  endfacet
endsolid leaf
"""


@pytest.mark.parametrize("subcommand", ["tree", "forest"])
def test_unwritable_template_exit_3(subcommand, tiny_library, tmp_path, capsys):
    # a zero-area leaf facet loads, but no tree that carries it can be written
    lib = stl.save_library(tiny_library, tmp_path / "lib")
    (lib.parent / "leaf.stl").write_text(DEGENERATE_LEAF)
    if subcommand == "tree":
        argv = ["tree", "--branches", "3", "--seed", "1", "--out", tmp_path / "t.stl"]
    else:
        argv = ["forest", "--config", scene_config_file(tmp_path), "--out", tmp_path / "o"]
    code, out, err = run([*map(str, argv), "--lib", str(lib)], capsys)
    assert code == 3
    assert "degenerate facet" in single_error_line(err)


NAN, INF = float("nan"), float("inf")


def replaced(data, keys, value):
    """``data`` with the entry at the key path ``keys`` set to ``value``
    (the whole document for an empty path)."""
    if not keys:
        return value
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


@pytest.mark.parametrize("keys, value, field", [
    (("tree_params", "trunk_height"), NAN, "trunk_height"),
    (("tree_params", "trunk_height"), INF, "trunk_height"),
    (("tree_params", "jitter", "azimuth_range"), NAN, "azimuth_range"),
    (("tree_params", "jitter", "azimuth_range"), INF, "azimuth_range"),
    (("tree_params", "jitter", "pitch_range"), NAN, "pitch_range"),
    (("tree_params", "jitter", "pitch_range"), INF, "pitch_range"),
    (("tree_params", "jitter", "scale_range"), [0.85, INF], "scale_range"),
    (("min_spacing",), NAN, "min_spacing"),
    (("min_spacing",), INF, "min_spacing"),
    (("parameter_jitter",), {"trunk_height": [1.0, INF]}, "trunk_height jitter"),
    (("parameter_jitter",), {"branch_count": [1, INF]}, "branch_count jitter"),
    # finite but above 360 degrees: the turtle's and the transform's sums overflow
    (("tree_params", "jitter", "azimuth_range"), 1e308, "azimuth_range"),
    (("tree_params", "jitter", "pitch_range"), 1e308, "pitch_range"),
    (("tree_params", "jitter", "scale_range"), [0.85, 1e308], "scale_range"),
])
def test_forest_non_finite_field_exit_5(keys, value, field, tmp_path, lib_dir, capsys):
    config = scene_config_file(tmp_path)
    config.write_text(json.dumps(replaced(json.loads(config.read_text()), keys, value)))
    code, out, err = run(["forest", "--config", str(config), "--out", str(tmp_path / "o"),
                          "--lib", str(lib_dir)], capsys)
    assert code == 5
    assert field in single_error_line(err)


# valid JSON of the wrong shape ends in one error line with the documented code
@pytest.mark.parametrize("keys, value", [
    ((), [1]),
    (("intensity",), 5),
    (("tree_params",), [1]),
    (("parameter_jitter",), 5),
    (("tree_params", "jitter"), [1]),
    (("intensity", "rate"), 10 ** 400),
])
def test_forest_config_of_wrong_shape_exit_5(keys, value, tmp_path, lib_dir, capsys):
    config = scene_config_file(tmp_path)
    config.write_text(json.dumps(replaced(json.loads(config.read_text()), keys, value)))
    code, out, err = run(["forest", "--config", str(config), "--out", str(tmp_path / "o"),
                          "--lib", str(lib_dir)], capsys)
    assert code == 5
    assert "malformed scene config" in single_error_line(err)


@pytest.mark.parametrize("raster", [[1, 2], 5, {"values": [[1]]}])
def test_ipp_sample_raster_of_wrong_shape_exit_5(raster, tmp_path, capsys):
    path = tmp_path / "raster.json"
    path.write_text(json.dumps(raster))
    code, out, err = run(["ipp-sample", "--region", "0,10,0,10", "--intensity", f"raster:{path}",
                          "--seed", "1", "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 5
    assert "malformed intensity file" in single_error_line(err)


@pytest.mark.parametrize("field, value", [("cell_size", "NaN"), ("cell_size", "Infinity"),
                                          ("x_min", "NaN")])
def test_ipp_sample_non_finite_raster_geometry_exit_5(field, value, tmp_path, capsys):
    path = tmp_path / "raster.json"
    raster = {"cell_size": 5.0, "values": [[1]]}
    raster[field] = value
    path.write_text(json.dumps(raster).replace(f'"{value}"', value))
    code, out, err = run(["ipp-sample", "--region", "0,5,0,5", "--intensity", f"raster:{path}",
                          "--seed", "1", "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 5
    assert f"raster {field} must be finite" in single_error_line(err)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("manifest", [{"trunk": {}}, {"trunk": 5}])
def test_tree_library_role_of_wrong_shape_exit_3(manifest, tmp_path, capsys):
    path = tmp_path / "library.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run(["tree", "--branches", "3", "--lib", str(path),
                          "--out", str(tmp_path / "t.stl")], capsys)
    assert code == 3
    assert "library role 'trunk'" in single_error_line(err)


def _raster_file(tmp_path) -> Path:
    path = tmp_path / "raster.json"
    path.write_text(json.dumps({"x_min": 0, "y_min": 0, "cell_size": 10.0,
                                "values": [[1.0]]}))
    return path


@pytest.mark.parametrize("argv, expected, message", [
    (["tree", "--branches", "0", "--out", "{tmp}/t.stl"], 2,
     "branch_count must be at least 1"),
    (["tree", "--branches", "3", "--height", "nan", "--out", "{tmp}/t.stl"], 2,
     "trunk_height must be finite"),
    (["tree", "--branches", "3", "--height", "inf", "--out", "{tmp}/t.stl"], 2,
     "trunk_height must be finite"),
    (["tree", "--branches", "4", "--lib", "{tmp}/nope.json", "--out", "{tmp}/t.stl"], 3,
     "cannot read library manifest"),
    (["forest", "--config", "{scene}", "--lib", "{tmp}/nope.json", "--out", "{tmp}/o"], 3,
     "cannot read library manifest"),
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "constant:-1",
      "--out", "{tmp}/o.csv"], 5, "intensity must be non-negative"),
    (["ipp-sample", "--region", "0,20,0,10", "--intensity", "raster:{raster}",
      "--out", "{tmp}/o.csv"], 5, "does not cover the region"),
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "raster:{tmp}/nope.json",
      "--out", "{tmp}/o.csv"], 5, "cannot read intensity file"),
    (["forest", "--config", "{tmp}/garbage.json", "--out", "{tmp}/o"], 5,
     "cannot read scene config"),
    (["forest", "--config", "{mistyped}", "--out", "{tmp}/o"], 5,
     "malformed scene config"),
    # a file that is not UTF-8 is a fault of the file, not of the flags
    (["rewrite", "--grammar", "{tmp}/latin.txt", "--iterations", "1"], 3, "cannot read"),
    (["forest", "--config", "{tmp}/latin.txt", "--out", "{tmp}/o"], 5,
     "cannot read scene config"),
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "raster:{tmp}/latin.txt",
      "--out", "{tmp}/o.csv"], 5, "cannot read intensity file"),
    (["tree", "--branches", "4", "--lib", "{tmp}/latin.txt", "--out", "{tmp}/t.stl"], 3,
     "cannot read library manifest"),
    (["forest", "--config", "{scene}", "--lib", "{tmp}/latin.txt", "--out", "{tmp}/o"], 3,
     "cannot read library manifest"),
    # seeds are 64 unsigned bits, as for `tree --seed`, not aliased modulo 2**64
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "constant:0.1", "--seed", "-5",
      "--out", "{tmp}/o.csv"], 2, "seed must fit in 64 unsigned bits"),
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "constant:0.1",
      "--seed", str(2 ** 64 + 3), "--out", "{tmp}/o.csv"], 2,
     "seed must fit in 64 unsigned bits"),
    (["rewrite", "--grammar", "{tmp}/g.txt", "--iterations", "-1"], 2,
     "iterations must be non-negative"),
    # a finite scale_range whose placed templates leave the float32 range of
    # binary STL is a fault of the scene config, not of the mesh
    (["forest", "--config", "{huge}", "--out", "{tmp}/o", "--mode", "merged"], 5, "scale_range"),
    (["forest", "--config", "{huge}", "--out", "{tmp}/o", "--mode", "per-tree"], 5,
     "scale_range"),
])
def test_error_keeps_code_and_message(argv, expected, message, tmp_path, capsys):
    (tmp_path / "garbage.json").write_text("{not json")
    (tmp_path / "latin.txt").write_bytes(b"\xff")
    (tmp_path / "g.txt").write_text("vars: g; axiom: g; rule: g -> gg")
    scene = scene_config_file(tmp_path)
    config = json.loads(scene.read_text())
    config["tree_params"]["branch_count"] = "many"
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps(config))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(replaced(json.loads(scene.read_text()),
                                        ("tree_params", "jitter", "scale_range"), [0.85, 1e300])))
    names = {"tmp": tmp_path, "scene": scene, "raster": _raster_file(tmp_path),
             "mistyped": mistyped, "huge": huge}
    code, out, err = run([a.format(**names) for a in argv], capsys)
    assert code == expected
    assert message in single_error_line(err)


def test_unknown_subcommand_exit_2(capsys):
    code, out, err = run(["prune"], capsys)
    assert code == 2
    assert err.startswith("error:")
