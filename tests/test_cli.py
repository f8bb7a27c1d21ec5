import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forestgen import cli, stl, templates
from forestgen import forest as fo

import scalar_reference as ref

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


def stl_records(facets, header: bytes | None = None) -> bytes:
    """A binary STL of ``facets`` (any float32 values, zero-area facets
    included) under ``header``, 80 bytes, or else one of NULs."""
    records = np.zeros(len(facets), dtype=[("vals", "<f4", (4, 3)), ("attr", "<u2")])
    records["vals"] = facets
    header = bytes(stl.HEADER_BYTES) if header is None else header
    return header + struct.pack("<I", len(facets)) + records.tobytes()


def whole_file_info(path: Path, shown=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``stl-info path`` as it read every
    file before it read binary files in pieces: the whole file by
    ``read_stl``, the stats by ``scalar_reference.mesh_stats``. ``shown`` is
    the path that the output names, ``path`` by default."""
    shown = path if shown is None else shown
    try:
        mesh, fmt = stl.read_stl(path.read_bytes(), return_format=True)
    except stl.StlParseError as exc:
        return 3, "", f"error: {shown}: {exc}\n"
    stats = ref.mesh_stats(mesh)
    lines = [f"file={shown}", f"format={fmt}", f"name={mesh.name}",
             f"triangles={stats.triangle_count}"]
    if stats.bounds is None:
        lines.append("bounds=empty")
    else:
        lines += [f"bounds_{side}=" + ",".join(f"{v:.9g}" for v in bound)
                  for side, bound in zip(("min", "max"), stats.bounds)]
    lines.append(f"area={stats.total_area:.9g}")
    return 0, "\n".join(lines) + "\n", ""


def signed_zero_facets(first: float) -> np.ndarray:
    """23 facets whose x coordinates are 0 or 1, y 0 or -1 and z 0 or 2, so
    that the x min, the y max and both z bounds are 0. Facets 0-9 hold zeros
    of sign ``first``, facets 10-17 zeros of the other sign, and facets
    18-22 none, so the last zero of every axis lies in facets 10-17."""
    facets = np.zeros((23, 4, 3))
    facets[:, 2:] = np.random.default_rng(7).choice([0.0, 1.0], size=(23, 2, 3)) * [1, -1, 2]
    facets[18:, 1:] = [1.0, -1.0, 2.0]
    zeros = facets == 0.0
    zeros[:, 0] = False
    facets[:10][zeros[:10]] = first
    facets[10:18][zeros[10:18]] = -first
    return facets


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_stl_info_keeps_the_sign_of_the_last_zero_across_pieces(chunk, first, monkeypatch,
                                                                tmp_path, capsys):
    path = tmp_path / "zeros.stl"
    path.write_bytes(stl_records(signed_zero_facets(first)))
    expected = whole_file_info(path)
    last = "0" if np.signbit(first) else "-0"
    assert kv(expected[1])["bounds_min"] == f"{last},-1,{last}"
    assert kv(expected[1])["bounds_max"] == f"1,{last},2"
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", chunk)
    assert run(["stl-info", str(path)], capsys) == expected


@pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
@pytest.mark.parametrize("fault", ["nan", "inf", "cut", "cut-at-piece", "trailing-bytes"])
def test_stl_info_faults_in_the_last_piece_match_the_whole_file_read(chunk, fault, monkeypatch,
                                                                     tmp_path, capsys):
    facets = np.random.default_rng(3).uniform(-5, 5, size=(21, 4, 3))
    if fault in ("nan", "inf"):
        facets[20, 3, 1] = float(fault)
    data = stl_records(facets)
    if fault == "cut":
        data = data[:-10]
    if fault == "cut-at-piece":  # ends after facet 14, where pieces of 1 and 7 end
        data = data[:-stl.FACET_BYTES * 7]
    if fault == "trailing-bytes":  # bytes past the declared records are not read
        data += b"solid"
    path = tmp_path / "fault.stl"
    path.write_bytes(data)
    expected = whole_file_info(path)
    assert expected[0] == (0 if fault == "trailing-bytes" else 3)
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", chunk)
    assert run(["stl-info", str(path)], capsys) == expected


EDGE_FACETS = np.random.default_rng(5).uniform(-5, 5, size=(9, 4, 3))


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("data", [
    # binary records under a header that starts with "solid", after whitespace or not
    stl_records(EDGE_FACETS, b"solid binary".ljust(80, b"\0")),
    stl_records(EDGE_FACETS, b" \n\t solid".ljust(80, b" ")),
    # a header of spaces: "solid" may follow it
    stl_records(EDGE_FACETS, b" " * 80),
    bytes(83),
    b"  so",
    b"",
], ids=["solid-header", "spaced-solid-header", "space-header", "83-bytes", "short", "empty"])
def test_stl_info_of_format_edges_matches_the_whole_file_read(chunk, data, monkeypatch,
                                                              tmp_path, capsys):
    path = tmp_path / "edge.stl"
    path.write_bytes(data)
    expected = whole_file_info(path)
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", chunk)
    assert run(["stl-info", str(path)], capsys) == expected


@pytest.mark.parametrize("chunk", [7, 4096])
def test_stl_info_of_a_file_that_shrinks_while_read_is_truncated(chunk, monkeypatch, tmp_path,
                                                                  capsys):
    data = stl_records(EDGE_FACETS)
    path = tmp_path / "shrunk.stl"
    path.write_bytes(data[:-60])
    expected = whole_file_info(path)
    assert expected[0] == 3
    fstat = os.fstat

    def stale_fstat(fd):  # the size the file had before it shrank
        st = fstat(fd)
        return os.stat_result(st[:6] + (len(data),) + st[7:10])

    monkeypatch.setattr(os, "fstat", stale_fstat)
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", chunk)
    assert run(["stl-info", str(path)], capsys) == expected


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("data", [stl_records(EDGE_FACETS), stl_records(EDGE_FACETS)[:-1]],
                         ids=["whole", "truncated"])
def test_stl_info_reads_a_pipe_whole(data, tmp_path):
    path = tmp_path / "piped.stl"
    path.write_bytes(data)
    result = run_bounded(["stl-info", "/dev/stdin"], stdin=data)
    expected = whole_file_info(path, shown="/dev/stdin")
    assert (result.returncode, result.stdout, result.stderr) == expected


def address_space_limit() -> int:
    """64 MB above the peak address space of a child that has imported the
    CLI."""
    probe = subprocess.run(
        [sys.executable, "-c", "import re, forestgen.cli\n"
         "print(re.search(r'VmPeak:\\s*(\\d+)', open('/proc/self/status').read())[1])"],
        capture_output=True, text=True, env=child_env(), check=True)
    return int(probe.stdout) * 1024 + (64 << 20)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc and RLIMIT_AS")
def test_stl_info_reads_a_large_binary_file_in_bounded_memory(tmp_path):
    """2**20 records, 52 MB, under an address space 64 MB above that of a
    child that has imported the CLI. Read whole, as a pipe is and as every
    file was before, the file takes 52 MB as bytes and 101 MB as float64
    facets, so the same limit stops it."""
    limit = address_space_limit()
    n, block = 1 << 20, 1 << 12
    facets = np.zeros((block, 4, 3))
    facets[:, 2, 0] = facets[:, 3, 1] = 1.0  # unit right triangles, area 0.5
    path = tmp_path / "big.stl"
    with open(path, "wb") as f:
        f.write(stl.binary_header("big", n))
        for k in range(n // block):
            facets[:, 1:, 2] = k
            f.write(stl_records(facets)[stl.HEADER_BYTES + 4:])
    result = run_bounded(["stl-info", path], address_space=limit)
    assert result.returncode == 0, result.stderr
    assert kv(result.stdout) == {"file": str(path), "format": "binary", "name": "big",
                                 "triangles": str(n), "bounds_min": "0,0,0",
                                 "bounds_max": f"1,1,{n // block - 1}", "area": str(n // 2)}
    whole = run_bounded(["stl-info", "/dev/stdin"], address_space=limit,
                        stdin=path.read_bytes())
    assert whole.returncode != 0 and "MemoryError" in whole.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc and RLIMIT_AS")
def test_stl_info_reads_a_large_ascii_file_in_bounded_memory(tmp_path):
    """2**19 facets, 63 MB of ASCII, under the limit of the binary test
    above. Read in blocks, stl-info holds a block and 8 B per triangle.
    Read whole, as a pipe is and as every ASCII file was before, the file
    takes 63 MB as bytes and 50 MB as float64 facets, so the same limit
    stops it."""
    limit = address_space_limit()
    n, block = 1 << 19, 1 << 12
    facet = ("  facet normal 0 0 1\n    outer loop\n      vertex 0 0 {0}\n"
             "      vertex 1 0 {0}\n      vertex 0 1 {0}\n    endloop\n  endfacet\n")
    path = tmp_path / "big.stl"
    with open(path, "w") as f:
        f.write("solid big\n")
        for k in range(n // block):
            f.write(facet.format(k) * block)
        f.write("endsolid big\n")
    result = run_bounded(["stl-info", path], address_space=limit)
    assert result.returncode == 0, result.stderr
    assert kv(result.stdout) == {"file": str(path), "format": "ascii", "name": "big",
                                 "triangles": str(n), "bounds_min": "0,0,0",
                                 "bounds_max": f"1,1,{n // block - 1}", "area": str(n // 2)}
    whole = run_bounded(["stl-info", "/dev/stdin"], address_space=limit,
                        stdin=path.read_bytes())
    assert whole.returncode != 0 and "MemoryError" in whole.stderr


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


def child_env() -> dict:
    """The environment of a child process that imports forestgen from here."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_bounded(argv, timeout=60.0, address_space=None,
                stdin=None) -> subprocess.CompletedProcess:
    """The CLI in a child process, killed (failing the test) if it outlives
    ``timeout`` seconds. ``stdin``, bytes, is fed to it through a pipe;
    ``address_space`` limits its virtual memory to that many bytes
    (RLIMIT_AS, set in the child alone)."""
    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    result = subprocess.run([sys.executable, "-m", "forestgen.cli", *map(str, argv)],
                            input=stdin, capture_output=True, timeout=timeout, env=child_env(),
                            preexec_fn=None if address_space is None else limit)
    return subprocess.CompletedProcess(result.args, result.returncode,
                                       result.stdout.decode(), result.stderr.decode())


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


def test_failed_per_tree_export_leaves_a_directory_its_manifest_rebuilds(tmp_path, capsys):
    # once this rewrote tree_0.stl to tree_2.stl of 23 before the tree it
    # could not write, and the old scene.json no longer rebuilt them
    config = {"master_seed": 1, "region": {"x_min": 0, "x_max": 20, "y_min": 0, "y_max": 20},
              "intensity": {"form": "constant", "rate": 0.05},
              "tree_params": {"branch_count": 2, "trunk_height": 10}}
    path, out = tmp_path / "scene_config.json", tmp_path / "scene"
    path.write_text(json.dumps(config))
    code, _, err = run(["forest", "--config", str(path), "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert len(before) == 24
    path.write_text(json.dumps(dict(config, parameter_jitter={"trunk_height": [1.0, 3e38]})))
    code, _, err = run(["forest", "--config", str(path), "--out", str(out)], capsys)
    assert code == 3
    assert "beyond the float32 range" in single_error_line(err)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    scene = fo.regenerate_scene(out / fo.MANIFEST_NAME, templates.default_library("normal"))
    fo.export_scene(scene, tmp_path / "rebuilt", "per-tree")
    assert {f.name: f.read_bytes() for f in (tmp_path / "rebuilt").iterdir()} == before


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


# a JSON boolean in a float field of a scene config: (name of the edited
# config, key path, value, message)
BOOL_FLOATS = [
    ("bool_height", ("tree_params", "trunk_height"), True,
     "trunk_height must be a number, got True"),
    ("bool_decay", ("tree_params", "depth_scale_decay"), True,
     "depth_scale_decay must be a number, got True"),
    ("bool_spacing", ("min_spacing",), True, "min_spacing must be a number, got True"),
    ("bool_height_min", ("parameter_jitter",), {"trunk_height": [True, 2]},
     "trunk_height jitter min must be a number, got True"),
    ("bool_height_max", ("parameter_jitter",), {"trunk_height": [1, True]},
     "trunk_height jitter max must be a number, got True"),
    ("bool_azimuth", ("tree_params", "jitter", "azimuth_range"), True,
     "azimuth_range must be a number, got True"),
    ("bool_pitch", ("tree_params", "jitter", "pitch_range"), False,
     "pitch_range must be a number, got False"),
    ("bool_scale_min", ("tree_params", "jitter", "scale_range"), [True, 1.15],
     "scale_range min must be a number, got True"),
    ("bool_scale_max", ("tree_params", "jitter", "scale_range"), [0.85, True],
     "scale_range max must be a number, got True"),
    ("bool_region", ("region", "x_min"), False,
     "region bound x_min must be a number, got False"),
    ("bool_rate", ("intensity", "rate"), False, "intensity must be a number, got False"),
    ("bool_cell", ("intensity",), {"form": "raster", "cell_size": True, "values": [[0.0]]},
     "raster cell_size must be a number, got True"),
    ("bool_origin", ("intensity",), {"form": "raster", "x_min": False, "cell_size": 100.0,
                                     "values": [[0.0]]},
     "raster x_min must be a number, got False"),
    ("bool_value", ("intensity",), {"form": "raster", "cell_size": 100.0,
                                    "values": [[0.5, True]]},
     "raster value must be a number, got True"),
]


# the other mistyped keys of a scene config that once ran to exit 0 with
# their values dropped: (name of the edited config, key path, message)
TYPOS = [
    ("parameter_jitter", ("paramter_jitter",),
     "unknown key paramter_jitter in scene config (did you mean parameter_jitter?)"),
    ("library", ("libary",), "unknown key libary in scene config (did you mean library?)"),
    ("azimuth", ("tree_params", "jitter", "azimuth_rnge"),
     "unknown key tree_params.jitter.azimuth_rnge in scene config "
     "(did you mean azimuth_range?)"),
    ("rate", ("intensity", "rat"), "unknown key intensity.rat in scene config (did you mean rate?)"),
    ("region", ("region", "z_max"), "unknown key region.z_max in scene config (did you mean"),
]


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
    # a region whose area overflows is refused where it is read
    (["forest", "--config", "{overflow}", "--out", "{tmp}/o"], 5, "region area must be finite"),
    (["ipp-sample", "--region", "0,1e300,0,1e300", "--intensity", "raster:{wide}",
      "--out", "{tmp}/o.csv"], 2, "region area must be finite"),
    (["ipp-sample", "--region=-1e308,1e308,0,1", "--intensity", "constant:1",
      "--out", "{tmp}/o.csv"], 2, "region area must be finite"),
    # a facet whose float32 vertices span no area cannot be written as binary STL
    (["tree", "--branches", "2", "--height", "1e-320", "--out", "{tmp}/t.stl"], 3,
     "zero area in the float32"),
    (["forest", "--config", "{flat}", "--out", "{tmp}/o", "--mode", "merged"], 3,
     "zero area in the float32"),
    (["forest", "--config", "{flat}", "--out", "{tmp}/o", "--mode", "per-tree"], 3,
     "zero area in the float32"),
    # a seed with a fractional part is refused, not truncated
    (["forest", "--config", "{fractional}", "--out", "{tmp}/o"], 5,
     "master_seed must be a whole number"),
    # jitter bounds on the branch count are whole numbers that the draw can hold
    (["forest", "--config", "{jitter_fractional}", "--out", "{tmp}/o"], 5,
     "branch_count jitter min must be a whole number"),
    (["forest", "--config", "{jitter_huge}", "--out", "{tmp}/o"], 5,
     "branch_count jitter max must be below 2**63"),
    # a JSON boolean is not a count or a seed
    (["forest", "--config", "{bool_count}", "--out", "{tmp}/o"], 5,
     "branch_count must be a whole number, got True"),
    (["forest", "--config", "{bool_seed}", "--out", "{tmp}/o"], 5,
     "master_seed must be a whole number, got True"),
    (["forest", "--config", "{bool_jitter}", "--out", "{tmp}/o"], 5,
     "branch_count jitter min must be a whole number, got True"),
    # nor a measure
    *[(["forest", "--config", "{%s}" % name, "--out", "{tmp}/o"], 5, message)
      for name, _, _, message in BOOL_FLOATS],
    # a JSON boolean is no intensity in a raster file either
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "raster:{bool_raster}",
      "--out", "{tmp}/o.csv"], 5, "raster value must be a number, got True"),
    # a range is a pair, not a string read character by character, a longer
    # list cut short, or a falsy value taken for no jitter
    (["forest", "--config", "{pair_text}", "--out", "{tmp}/o"], 5,
     "scale_range must be a pair [min, max], got '12'"),
    (["forest", "--config", "{pair_long}", "--out", "{tmp}/o"], 5,
     "scale_range must be a pair [min, max], got [0.9, 1.1, 7]"),
    (["forest", "--config", "{pair_height_text}", "--out", "{tmp}/o"], 5,
     "trunk_height jitter must be a pair [min, max], got '69'"),
    (["forest", "--config", "{pair_count_zero}", "--out", "{tmp}/o"], 5,
     "branch_count jitter must be a pair [min, max], got 0"),
    (["forest", "--config", "{pair_height_false}", "--out", "{tmp}/o"], 5,
     "trunk_height jitter must be a pair [min, max], got False"),
    # a raster's declared upper bounds are finite numbers
    (["forest", "--config", "{nan_bound}", "--out", "{tmp}/o"], 5, "raster x_max must be finite"),
    (["forest", "--config", "{bool_bound}", "--out", "{tmp}/o"], 5,
     "raster y_max must be a number, got True"),
    (["ipp-sample", "--region", "0,1,0,1", "--intensity", "raster:{nan_bound_raster}",
      "--out", "{tmp}/o.csv"], 5, "raster y_max must be finite"),
    (["ipp-sample", "--region", "0,1,0,1", "--intensity", "raster:{bool_bound_raster}",
      "--out", "{tmp}/o.csv"], 5, "raster x_max must be a number, got True"),
    # a document nested too deeply for the JSON reader, on each JSON surface
    (["forest", "--config", "{deep}", "--out", "{tmp}/o"], 5,
     "cannot read scene config: maximum recursion depth exceeded"),
    (["ipp-sample", "--region", "0,1,0,1", "--intensity", "raster:{deep}",
      "--out", "{tmp}/o.csv"], 5, "maximum recursion depth exceeded"),
    (["tree", "--branches", "2", "--lib", "{deep}", "--out", "{tmp}/t.stl"], 3,
     "cannot read library manifest"),
    # a raster grid nested deeper than numpy can walk by .flat
    (["ipp-sample", "--region", "0,1,0,1", "--intensity", "raster:{deep_grid}",
      "--out", "{tmp}/o.csv"], 5, "raster values must form a non-empty 2D grid"),
    # a mistyped key is refused, not dropped with the value it was meant to set
    (["forest", "--config", "{typo_spacing}", "--out", "{tmp}/o"], 5,
     "unknown key min_spaceing in scene config (did you mean min_spacing?)"),
    (["forest", "--config", "{typo_subbranches}", "--out", "{tmp}/o"], 5,
     "unknown key tree_params.subbranches_per_brnch in scene config "
     "(did you mean subbranches_per_branch?)"),
    *[(["forest", "--config", "{typo_%s}" % name, "--out", "{tmp}/o"], 5, message)
      for name, _, message in TYPOS],
    # a missing key is named as one
    (["forest", "--config", "{no_height}", "--out", "{tmp}/o"], 5,
     "malformed scene config: missing key tree_params.trunk_height"),
    (["ipp-sample", "--region", "0,1,0,1", "--intensity", "raster:{no_cell_raster}",
      "--out", "{tmp}/o.csv"], 5, "missing key 'cell_size'"),
    # a raster file's mistyped key is refused too, and before a missing one
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "raster:{typo_raster}",
      "--out", "{tmp}/o.csv"], 5,
     "typo_raster.json: unknown key x_mn (did you mean x_min?)"),
    (["ipp-sample", "--region", "0,10,0,10", "--intensity", "raster:{typo_cell_raster}",
      "--out", "{tmp}/o.csv"], 5, "unknown key cel_size (did you mean cell_size?)"),
    # a length that underflows is refused as one that overflows is: a branch
    # length that rounds to 0, or a placement scale that does
    (["forest", "--config", "{tiny_height}", "--out", "{tmp}/o"], 5,
     "trunk_height 5e-324 times depth_scale_decay 0.5 underflows to 0, the length of a branch"),
    (["forest", "--config", "{tiny_height_jitter}", "--out", "{tmp}/o"], 5,
     "trunk_height 5e-324 times depth_scale_decay 0.5 underflows to 0"),
    (["forest", "--config", "{tiny_height_undecayed}", "--out", "{tmp}/o"], 5,
     "placement scale underflows to 0: trunk_height is too small"),
    (["tree", "--branches", "3", "--height", "6.6e38", "--seed", "1", "--out", "{tmp}/t.stl"], 2,
     "trunk_height or scale_range is too large"),
    # each tree's seed comes from master_seed, so a template seed would be ignored
    (["forest", "--config", "{tree_seed}", "--out", "{tmp}/o"], 5,
     "unknown key tree_params.seed in scene config"),
    # a library manifest's mistyped key is refused, at its top level first
    (["tree", "--branches", "2", "--lib", "{lib_extra}", "--out", "{tmp}/t.stl"], 3,
     "unknown key extra_role in library manifest"),
    (["tree", "--branches", "2", "--lib", "{lib_origin}", "--out", "{tmp}/t.stl"], 3,
     "unknown key trunk.orign in library manifest (did you mean origin?)"),
    (["forest", "--config", "{scene}", "--lib", "{lib_axis}", "--out", "{tmp}/o"], 3,
     "unknown key leaf.axsi in library manifest (did you mean axis?)"),
    # a count no int64 column holds; once the triangle budget's error
    (["tree", "--branches", str(2 ** 63), "--out", "{tmp}/t.stl"], 2,
     "branch_count must be below 2**63"),
])
def test_error_keeps_code_and_message(argv, expected, message, tmp_path, capsys):
    (tmp_path / "garbage.json").write_text("{not json")
    (tmp_path / "latin.txt").write_bytes(b"\xff")
    (tmp_path / "g.txt").write_text("vars: g; axiom: g; rule: g -> gg")
    scene = scene_config_file(tmp_path)
    names = {"tmp": tmp_path, "scene": scene, "raster": _raster_file(tmp_path)}
    # scene configs that differ from the valid one at some key paths
    for name, edits in [
            ("mistyped", [(("tree_params", "branch_count"), "many")]),
            ("huge", [(("tree_params", "jitter", "scale_range"), [0.85, 1e300])]),
            ("overflow", [(("region", "x_max"), 1e308), (("region", "y_max"), 1e308),
                          (("intensity", "rate"), 0)]),
            ("flat", [(("tree_params", "trunk_height"), 1e-300)]),
            ("fractional", [(("master_seed",), 1.5)]),
            ("jitter_fractional", [(("parameter_jitter",), {"branch_count": [1.5, 3.2]})]),
            ("jitter_huge", [(("parameter_jitter",), {"branch_count": [1, 1e30]})]),
            ("bool_count", [(("tree_params", "branch_count"), True)]),
            ("bool_seed", [(("master_seed",), True)]),
            ("bool_jitter", [(("parameter_jitter",), {"branch_count": [True, 2]})]),
            ("pair_text", [(("tree_params", "jitter", "scale_range"), "12")]),
            ("pair_long", [(("tree_params", "jitter", "scale_range"), [0.9, 1.1, 7])]),
            ("pair_height_text", [(("parameter_jitter",), {"trunk_height": "69"})]),
            ("pair_count_zero", [(("parameter_jitter",),
                                  {"branch_count": 0, "trunk_height": False})]),
            ("pair_height_false", [(("parameter_jitter",), {"trunk_height": False})]),
            ("nan_bound", [(("intensity",), {"form": "raster", "cell_size": 100.0,
                                             "values": [[0.0]], "x_max": NAN})]),
            ("bool_bound", [(("intensity",), {"form": "raster", "cell_size": 100.0,
                                              "values": [[0.0]], "y_max": True})]),
            ("typo_spacing", [(("min_spaceing",), 5)]),
            ("typo_subbranches", [(("tree_params", "subbranches_per_brnch"), 3)]),
            ("no_height", [(("tree_params",), {"branch_count": 2})]),
            ("tiny_height", [(("tree_params", "trunk_height"), 5e-324)]),
            ("tiny_height_undecayed", [(("tree_params", "trunk_height"), 5e-324),
                                       (("tree_params", "depth_scale_decay"), 1.0)]),
            ("tiny_height_jitter", [(("parameter_jitter",), {"trunk_height": [5e-324, 5e-324]})]),
            ("tree_seed", [(("tree_params", "seed"), 7)]),
            *[("typo_" + name, [(keys, 1)]) for name, keys, _ in TYPOS],
            *[(name, [(keys, value)]) for name, keys, value, _ in BOOL_FLOATS]]:
        config = json.loads(scene.read_text())
        for keys, value in edits:
            config = replaced(config, keys, value)
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(config))
    names["bool_raster"] = tmp_path / "bool_raster.json"
    names["bool_raster"].write_text(json.dumps({"x_min": 0, "y_min": 0, "cell_size": 10.0,
                                                "values": [[True]]}))
    for name, bound in [("nan_bound_raster", {"y_max": NAN}),
                        ("bool_bound_raster", {"x_max": True})]:
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps({"x_min": 0, "y_min": 0, "cell_size": 1.0,
                                           "values": [[1.0]], **bound}))
    names["no_cell_raster"] = tmp_path / "no_cell_raster.json"
    names["no_cell_raster"].write_text(json.dumps({"x_min": 0, "y_min": 0, "values": [[1.0]]}))
    for name, raster in [("typo_raster", {"x_mn": 3.0, "cell_size": 10.0, "values": [[0.05]]}),
                         ("typo_cell_raster", {"cel_size": 10.0, "values": [[0.05]]})]:
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(raster))
    # library manifests beside valid templates, each with mistyped keys
    library = stl.save_library(templates.default_library("tiny"), tmp_path / "lib")
    for name, edits in [
            ("lib_extra", [(("trunk", "orign"), [0, 0, 0]), (("trunk", "axsi"), [0, 0, 1]),
                           (("extra_role",), {})]),
            ("lib_origin", [(("trunk", "orign"), [0, 0, 0]), (("trunk", "axsi"), [0, 0, 1])]),
            ("lib_axis", [(("leaf", "axsi"), [0, 0, 1])])]:
        manifest = json.loads(library.read_text())
        for keys, value in edits:
            manifest = replaced(manifest, keys, value)
        names[name] = library.parent / f"{name}.json"
        names[name].write_text(json.dumps(manifest))
    names["deep"] = tmp_path / "deep.json"
    names["deep"].write_text("[" * 200_000)
    names["deep_grid"] = tmp_path / "deep_grid.json"
    names["deep_grid"].write_text('{"x_min": 0, "y_min": 0, "cell_size": 1.0, "values": '
                                  + "[" * 40 + "1.0" + "]" * 40 + "}")
    names["wide"] = tmp_path / "wide.json"
    names["wide"].write_text(json.dumps({"x_min": 0, "y_min": 0, "cell_size": 1e300,
                                         "values": [[1e300]]}))
    code, out, err = run([a.format(**names) for a in argv], capsys)
    assert code == expected
    assert message in single_error_line(err)


def test_unknown_subcommand_exit_2(capsys):
    code, out, err = run(["prune"], capsys)
    assert code == 2
    assert err.startswith("error:")
