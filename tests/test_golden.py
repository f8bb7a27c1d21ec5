"""Golden SHA-256 digests of CLI exports.

These pin the exact bytes forestgen writes for fixed seeds, so a refactor of
the placement math (batching, reordering) that moves even one float32 or one
``%.9g`` digit fails here. A digest may change only together with a bump of
``forest.MANIFEST_VERSION`` and a stated reason. The digests assume IEEE
float64 arithmetic with the numpy/BLAS build the suite runs on.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forestgen
from forestgen import cli, forest, stl, templates


def digest_dir(path: Path, skip=()) -> str:
    """One SHA-256 over every file of a directory, by name and content,
    leaving out the files named in ``skip``."""
    h = hashlib.sha256()
    for f in sorted(f for f in path.iterdir() if f.name not in skip):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


@pytest.fixture(scope="module")
def libs(tmp_path_factory):
    """Saved libraries per detail level; None selects the CLI's built-in normal set."""
    root = tmp_path_factory.mktemp("golden_libs")
    paths = {"normal": None}
    for detail in ("tiny", "fine"):
        paths[detail] = stl.save_library(templates.default_library(detail), root / detail)
    return paths


def run_cli(argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"forestgen {' '.join(map(str, argv))} exited {code}"


# name -> (detail, tree flags)
TREE_CASES = {
    "tiny-6x3x5": ("tiny", ["--branches", 6, "--subbranches", 3, "--leaves", 5, "--seed", 7]),
    "normal-10x3x5": ("normal", ["--branches", 10, "--subbranches", 3, "--leaves", 5,
                                 "--seed", 11]),
    "fine-4x2x3": ("fine", ["--branches", 4, "--subbranches", 2, "--leaves", 3, "--seed", 5]),
    "tiny-1x0x0": ("tiny", ["--branches", 1, "--subbranches", 0, "--leaves", 0, "--seed", 3]),
    "normal-5x0x4": ("normal", ["--branches", 5, "--subbranches", 0, "--leaves", 4,
                                "--seed", 19]),
    "skeleton-12x3": ("tiny", ["--branches", 12, "--subbranches", 3, "--seed", 23,
                               "--stage", "skeleton"]),
    # the two stages exported as prefixes of the full tree, with and without sub-branches
    "branches-6x3x5": ("tiny", ["--branches", 6, "--subbranches", 3, "--leaves", 5, "--seed", 7,
                                "--stage", "branches"]),
    "subbranches-6x3x5": ("tiny", ["--branches", 6, "--subbranches", 3, "--leaves", 5,
                                   "--seed", 7, "--stage", "subbranches"]),
    "branches-5x0x4": ("tiny", ["--branches", 5, "--subbranches", 0, "--leaves", 4, "--seed", 19,
                                "--stage", "branches"]),
    "subbranches-5x0x4": ("tiny", ["--branches", 5, "--subbranches", 0, "--leaves", 4,
                                   "--seed", 19, "--stage", "subbranches"]),
}

TREE_GOLDEN = {
    ("tiny-6x3x5", "binary"):
        "f930e997801b37fdbb4d8a7c96c9bf0774751345f11531c9f2aae30eb3a417be",
    ("tiny-6x3x5", "ascii"):
        "d8a2e107df35e307eb9dc32dc319486f0e3dc78a87a840aee59082672a6a1099",
    ("normal-10x3x5", "binary"):
        "923a8b885006ddf3aba45db40d7e6cf2e5d4f3635f071eb654b9c1ccce08fb2f",
    ("normal-10x3x5", "ascii"):
        "9900d3b95d0291aa7806f62a78a93d30cdf08aa11bd5365e2ecbabe70fc5fb67",
    ("fine-4x2x3", "binary"):
        "34f67fefea749bf76086b6f6747c2245a154f61b0092f638816ead345cc74029",
    ("fine-4x2x3", "ascii"):
        "8b7418e7f5a61c74d59ce65148a54bc25d3a4e4186c79e5ebf39a4f7e4afe14f",
    ("tiny-1x0x0", "binary"):
        "9ff9f27d5e0232947a55842114d830e1044b0586d7253c28bd824c8e238ec31b",
    ("tiny-1x0x0", "ascii"):
        "7e2608ab5724e874988e030b356cf70f6083c9e85c236ab02c0dab9049f17dac",
    ("normal-5x0x4", "binary"):
        "e6abed8efae57598a9c620794169bc6c080c07aac8834207638fd5eba9b389fa",
    ("skeleton-12x3", "binary"):
        "2a80cbb7f8e4205c41acc3d8325cacc3ae0185d32ee5da509885056e46e79806",
    ("skeleton-12x3", "ascii"):
        "b0fec1f929252d77500bbdc7e5dcd29169d72e6ebc7d14bcededfc1608714ab2",
    ("branches-6x3x5", "binary"):
        "f96b81b7ee89f4ee8fcd64c4b34b75103b49dee00ecae7b55fde217fe7f47d37",
    ("branches-6x3x5", "ascii"):
        "be39c28ca7480006aa90ac95505f7b0c03c7ee85f920fb21d96d3c2f3817c471",
    ("subbranches-6x3x5", "binary"):
        "2748b4d6d5a4f01debaf126fac19df9ce1475635c799519b1e26d7d9d12bb4e3",
    ("subbranches-6x3x5", "ascii"):
        "64659fdfbcf58aab5173a00d64b4964ed7d76d36378e3f4727ba425b072d7c14",
    # without sub-branches the subbranches stage is the branches stage
    ("branches-5x0x4", "binary"):
        "bab0530acfc6d9e65a9a7a98b95c3a67c4872c922ce22634275765aa35062233",
    ("branches-5x0x4", "ascii"):
        "beaf8e1632d37d209559fa2eebedac06196d84a78f4e44e98845f3960d5bc10a",
    ("subbranches-5x0x4", "binary"):
        "bab0530acfc6d9e65a9a7a98b95c3a67c4872c922ce22634275765aa35062233",
    ("subbranches-5x0x4", "ascii"):
        "beaf8e1632d37d209559fa2eebedac06196d84a78f4e44e98845f3960d5bc10a",
}


@pytest.mark.parametrize("case,fmt", sorted(TREE_GOLDEN))
def test_tree_export_digest(case, fmt, libs, tmp_path):
    detail, flags = TREE_CASES[case]
    lib = [] if libs[detail] is None else ["--lib", libs[detail]]
    out = tmp_path / "out"
    run_cli(["tree", *flags, *lib, "--format", fmt, "--out", out / "tree.stl"])
    assert digest_dir(out) == TREE_GOLDEN[(case, fmt)]


_JITTER = {"azimuth_range": 10.0, "pitch_range": 10.0, "scale_range": [0.85, 1.15]}
_NO_JITTER = {"azimuth_range": 0.0, "pitch_range": 0.0, "scale_range": [1.0, 1.0]}

# name -> scene config (library path filled in per run)
FOREST_CASES = {
    "jittered": {
        "master_seed": 404,
        "region": {"x_min": 0.0, "x_max": 40.0, "y_min": 0.0, "y_max": 40.0},
        "intensity": {"form": "constant", "rate": 0.006},
        "tree_params": {"branch_count": 6, "subbranches_per_branch": 2,
                        "leaves_per_subbranch": 3, "trunk_height": 8.0,
                        "depth_scale_decay": 0.5, "jitter": _JITTER},
        "parameter_jitter": {"branch_count": [1, 9], "trunk_height": [5, 12]},
        "min_spacing": 2.0,
    },
    "unjittered": {
        "master_seed": 77,
        "region": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
        "intensity": {"form": "constant", "rate": 0.006},
        "tree_params": {"branch_count": 4, "subbranches_per_branch": 1,
                        "leaves_per_subbranch": 2, "trunk_height": 6.0,
                        "depth_scale_decay": 0.7, "jitter": _NO_JITTER},
        "min_spacing": 1.0,
    },
    # a few hundred trivial trees whose envelope (~480 points) has many
    # spacing conflicts: pins the spacing filter's choices and, through
    # stdout, the nearest_neighbor= line of scene_stats
    "crowded": {
        "master_seed": 2025,
        "region": {"x_min": 0.0, "x_max": 40.0, "y_min": 0.0, "y_max": 40.0},
        "intensity": {"form": "constant", "rate": 0.3},
        "tree_params": {"branch_count": 1, "subbranches_per_branch": 0,
                        "leaves_per_subbranch": 0, "trunk_height": 4.0,
                        "depth_scale_decay": 0.5, "jitter": _JITTER},
        "min_spacing": 1.0,
    },
}

FOREST_GOLDEN = {
    ("jittered", "per-tree"):
        "e49fececb13c4c292a47e98190dd5f5eac5f3c4dac2a8137c18295e7408cd786",
    ("jittered", "merged"):
        "0f107c932877c38fba74285172237c3e6e6835351cc5992d3dd2320b4673d1a7",
    ("unjittered", "per-tree"):
        "3790e9f7530a0afd10363c4840ab545fa89a53ed0385fe8bff5bb6f8c497f599",
    ("unjittered", "merged"):
        "fb352dc58486521cc1898b9632b6cf0a07cb4d605458ee556e83aa4ac86c8ee2",
    ("crowded", "per-tree"):
        "4dcb6a0e9c949a02b73953e006d3decdb40dc68d630c220e742572fd1f9fea2f",
    ("crowded", "merged"):
        "f9a40ecc30dc25200e23dcc9133fb8d950ec8f09c2e83f8cc46fbd6cedb05822",
}

# the same exports without scene.json: the STL bytes alone, which a change
# of the manifest's layout or version must not move
FOREST_STL_GOLDEN = {
    ("jittered", "per-tree"):
        "b8f838e904c5dc10cd80b7cea9acf3abe1b6e14ce454aa36920a97b82ef3333e",
    ("jittered", "merged"):
        "63ec424cd1d3eae4bdb505285775309c95f210b0f8a1b55f18f8899e8e8b811d",
    ("unjittered", "per-tree"):
        "a9c81b6bcf89b9d4ccdb1451f844ec9c9300d2d6c6fc79a9617a4732b8ac6a8c",
    ("unjittered", "merged"):
        "3c37ad18b46bfea7c33969735d1adbb8cc86667fa83bfb721d194b528f00a9c9",
    ("crowded", "per-tree"):
        "d3510148223d1200b5922418dfc9aee5ce31c8181dbbc478f5a2946e320caeba",
    ("crowded", "merged"):
        "085a90688ec756257711f86445333a55d770a0d308480e5f8db5e55d870f97d9",
}


# SHA-256 of the forest summary on stdout, with the output directory
# written as <out>
FOREST_STDOUT_GOLDEN = {
    ("jittered", "per-tree"):
        "3b9e3491f1e3fb8bcd098c4cbeda04f3448a227c49282a1c4a6c634a229e6bbb",
    ("jittered", "merged"):
        "e3f938fc948efd803c9738dc0e7cd4f4e3868fd515f488bda581dd2d13c63800",
    ("unjittered", "per-tree"):
        "190865d39ff31d633faee10dc104b50e39a24c3a3e40638234edf161d9596ccb",
    ("unjittered", "merged"):
        "6621a9ca467ef409907dbfb35a09d97d6bbea24f120e92810d39412ad9bab574",
    # trees=321 nearest_neighbor=1.00138941
    ("crowded", "per-tree"):
        "f859dc8f65e9d90010c7ef53c3ff7873367b96e68d5211170d2b4253dc52ef77",
    ("crowded", "merged"):
        "0c0e3de6112547479cf489ef1b44139c39a522f8cc7727474aebb655bef0b029",
}


@pytest.mark.parametrize("case,mode", sorted(FOREST_GOLDEN))
def test_forest_export_digest(case, mode, libs, tmp_path, capsys):
    config = dict(FOREST_CASES[case], library=str(libs["tiny"]))
    config_path = tmp_path / "scene_config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "scene"
    capsys.readouterr()
    run_cli(["forest", "--config", config_path, "--out", out, "--mode", mode])
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    assert digest_dir(out, skip={forest.MANIFEST_NAME}) == FOREST_STL_GOLDEN[(case, mode)]
    assert digest_dir(out) == FOREST_GOLDEN[(case, mode)]
    assert hashlib.sha256(stdout.encode()).hexdigest() == FOREST_STDOUT_GOLDEN[(case, mode)]


def _manifest_tree(index, x, y, seed, branches, subs, leaves, height, decay, jitter, triangles):
    azimuth, pitch, scale = jitter
    params = {"branch_count": branches, "subbranches_per_branch": subs,
              "leaves_per_subbranch": leaves, "trunk_height": height,
              "depth_scale_decay": decay, "seed": seed,
              "jitter": {"azimuth_range": azimuth, "pitch_range": pitch,
                         "scale_range": list(scale)}}
    return {"index": index, "x": x, "y": y, "seed": seed, "params": params,
            "file": None, "triangles": triangles}


# A hand-edited manifest: every tree has its own jitter ranges and counts, so
# a scene built in one stack must keep each tree's ranges and ledger apart.
# Tree 1 has leaves but no sub-branches (its leaves hang on the branches),
# tree 2 is a bare one-branch trunk and tree 5 has sub-branches but no leaves.
# Each tree's triangles are those the tiny library builds, as regeneration checks.
MIXED_MANIFEST = {
    "version": 1,
    "master_seed": 9,
    "region": {"x_min": 0.0, "x_max": 50.0, "y_min": 0.0, "y_max": 50.0},
    "intensity": {"form": "constant", "rate": 0.01},
    "min_spacing": 0.0,
    "mode": "merged",
    "trees": [
        _manifest_tree(0, 4.5, 7.25, 101, 6, 2, 3, 8.0, 0.5, (10.0, 10.0, (0.85, 1.15)), 444),
        _manifest_tree(1, 20.0, 3.0, 202, 3, 0, 4, 6.5, 0.7, (30.0, 5.0, (0.5, 2.0)), 138),
        _manifest_tree(2, 33.125, 41.0, 303, 1, 0, 0, 4.0, 1.0, (0.0, 0.0, (1.0, 1.0)), 66),
        _manifest_tree(3, 12.0, 30.5, 404, 9, 1, 2, 11.0, 0.6, (0.0, 20.0, (1.0, 1.0)), 468),
        _manifest_tree(4, 45.0, 15.0, 505, 2, 3, 1, 9.5, 0.4, (360.0, 0.5, (0.9, 1.1)), 198),
        _manifest_tree(5, 27.5, 25.0, 606, 5, 2, 0, 7.0, 0.5, (45.0, 0.0, (0.75, 1.25)), 346),
    ],
}

REGEN_GOLDEN = {
    "per-tree": "7ca1e00494e7950757177994024f6f32814e833b0fb5dcce15288d4b70be7ae3",
    "merged": "6fada29eb9bfcbf7860ae0fa3dc59744c7f07836ccd21d959d39a992dd35f282",
}

REGEN_STL_GOLDEN = {
    "per-tree": "b8ddf3acee24fcd08e09b0c9e646ee6e7492c70ea96a9851de9f10e450e1991a",
    "merged": "af6ea60c219d6ec967775388ed8d75c5a8739a84c9b12e745c48724f6db9185b",
}


@pytest.mark.parametrize("mode", sorted(REGEN_GOLDEN))
def test_regenerated_mixed_manifest_digest(mode, libs, tmp_path):
    scene = forest.regenerate_scene(MIXED_MANIFEST, stl.load_library(libs["tiny"]))
    forest.export_scene(scene, tmp_path, mode)
    assert digest_dir(tmp_path, skip={forest.MANIFEST_NAME}) == REGEN_STL_GOLDEN[mode]
    assert digest_dir(tmp_path) == REGEN_GOLDEN[mode]


def _signed_zero_stl() -> bytes:
    """A binary STL of two zero-area facets whose every coordinate is a
    signed zero: x is +0.0 in the first facet and -0.0 in the second, y the
    other way round, and z mixes both within each facet, so every bound is 0
    reached by both signs in both orders."""
    records = np.zeros(2, dtype=[("vals", "<f4", (4, 3)), ("attr", "<u2")])
    records["vals"][1, 1:, 0] = -0.0
    records["vals"][0, 1:, 1] = -0.0
    records["vals"][:, 1:, 2] = [[-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]]
    return stl.binary_header("zeros", 2) + records.tobytes()


def _stl_info_input(case, libs, path: Path) -> Path:
    """Write the STL file that STL_INFO_GOLDEN's ``case`` inspects under
    ``path`` and return it."""
    if case == "jittered-merged":
        config_path = path / "scene_config.json"
        config_path.write_text(json.dumps(dict(FOREST_CASES["jittered"],
                                               library=str(libs["tiny"]))))
        run_cli(["forest", "--config", config_path, "--out", path / "scene",
                 "--mode", "merged"])
        return path / "scene" / "forest.stl"
    if case == "tiny-6x3x5-ascii":
        run_cli(["tree", *TREE_CASES["tiny-6x3x5"][1], "--lib", libs["tiny"],
                 "--format", "ascii", "--out", path / "tree.stl"])
        return path / "tree.stl"
    (path / "zeros.stl").write_bytes(_signed_zero_stl())
    return path / "zeros.stl"


# SHA-256 of `forestgen stl-info` stdout, with the file's path written as
# <file>: a merged binary scene, an ASCII tree and a mesh of signed zeros
STL_INFO_GOLDEN = {
    "jittered-merged":
        "53411142ac69b473d0940d3d1c12e95538d0ab7b369b08ea99bf03186f8cb401",
    "tiny-6x3x5-ascii":
        "577fa3018c7d9d7211ac761c90a948a6818fcb98ace010f4cfed5026f9adc7d6",
    # bounds_min=-0,0,-0 and bounds_max=-0,0,-0
    "signed-zeros":
        "afb87b36736c3dfe60cdc0e35c516cc2e6c3c2ee7cb422bcdbf60d84c952237f",
}


@pytest.mark.parametrize("case", sorted(STL_INFO_GOLDEN))
def test_stl_info_digest(case, libs, tmp_path, capsys):
    path = _stl_info_input(case, libs, tmp_path)
    capsys.readouterr()
    run_cli(["stl-info", path])
    stdout = capsys.readouterr().out.replace(str(path), "<file>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STL_INFO_GOLDEN[case]


# OpenBLAS kernels, each with the CPU flag it needs
BLAS_KERNELS = {"avx512f": "SkylakeX", "avx2": "Haswell", "avx": "Sandybridge", "sse3": "Prescott"}


def cpu_kernels() -> list[str]:
    """The kernels of BLAS_KERNELS that this CPU supports, by the flags of
    /proc/cpuinfo; none off x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return []
    flags = {flag for line in lines if line.startswith("flags") for flag in line.split()}
    return [kernel for flag, kernel in BLAS_KERNELS.items() if flag in flags]


def blas_env(kernel: str) -> dict:
    """The environment of a child that runs with ``kernel`` forced and
    imports this checkout's forestgen."""
    src = str(Path(forestgen.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2", PYTHONPATH=path)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: STL bytes depend on the BLAS kernel; "
                                        "fine-4x2x3-ascii moves under Haswell and Sandybridge")
def test_every_blas_kernel_reproduces_the_digests():
    """The other cases of this file, run in a child process per OpenBLAS
    kernel the CPU supports, each pass. A kernel that OpenBLAS does not
    report as forced (``Core: <kernel>`` under ``OPENBLAS_VERBOSE=2``) is
    left out, since the child would run another."""
    forced = []
    for kernel in cpu_kernels():
        probe = subprocess.run([sys.executable, "-c", "import numpy"], env=blas_env(kernel),
                               capture_output=True, text=True, timeout=60)
        if f"Core: {kernel}" in probe.stderr.splitlines():
            forced.append(kernel)
    if len(forced) < 2:
        pytest.skip(f"needs two OpenBLAS kernels that can be forced on x86-64, got {forced}")
    failed = {}
    for kernel in forced:
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
             "-k", "not test_every_blas_kernel_reproduces_the_digests"],
            cwd=Path(__file__).resolve().parents[1], env=blas_env(kernel),
            capture_output=True, text=True, timeout=600)
        if child.returncode:
            failed[kernel] = [line for line in child.stdout.splitlines()
                              if line.startswith("FAILED")] or child.stdout[-2000:]
    assert not failed, f"digests that move with the BLAS kernel: {failed}"
