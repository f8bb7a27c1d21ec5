"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from forestgen import forest as fo
from forestgen import ipp
from forestgen import lsystem as lsys
from forestgen import stl
from forestgen import templates
from forestgen import transform as tf
from forestgen import tree as tm

RULE1 = "vars: g; consts: d; axiom: g; rule: g -> d(d)+d)[d(d)+d)"

# master seed chosen so the mass-10 configuration below yields exactly 10 trees
TEN_TREE_SEED = 5


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [FAIL] {description}")
        raise
    print(f"criterion {num} [PASS] {description}")


def random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrices via normalized quaternions."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=1)


def test_criterion_1_lsystem_fidelity():
    with criterion(1, "rule-1 derivation string and branch count, under 1 ms"):
        system = lsys.parse_lsystem(RULE1)  # warm imports and caches
        lsys.rewrite(system, 1)
        elapsed = min(_timed_rule1() for _ in range(5))
        derivation = lsys.rewrite(lsys.parse_lsystem(RULE1), 1)
        assert derivation == "d(d)+d)[d(d)+d)"
        assert lsys.count_branch_symbols(derivation) == 6
        assert elapsed < 1e-3, f"rule-1 expansion took {elapsed * 1e3:.3f} ms"


def _timed_rule1() -> float:
    start = time.perf_counter()
    system = lsys.parse_lsystem(RULE1)
    derivation = lsys.rewrite(system, 1)
    lsys.count_branch_symbols(derivation)
    return time.perf_counter() - start


def test_criterion_2_figure_parity_structure():
    with criterion(2, "8/12/16-branch staged builds with exact triangle ledgers, under 1 s each"):
        lib = templates.default_library("fine")
        t = {role: len(lib.template(role)) for role in stl.LIBRARY_ROLES}
        assert max(t.values()) <= 10_000
        for branches in (8, 12, 16):
            params = tm.TreeParams(branch_count=branches, subbranches_per_branch=3,
                                   leaves_per_subbranch=5, seed=1234)
            start = time.perf_counter()
            model = tm.build_tree(params, lib)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{branches}-branch build took {elapsed:.3f} s"
            assert len(model.skeleton.at_depth(1)) == branches
            expect_branches = t["trunk"] + branches * t["branch"]
            expect_subs = expect_branches + branches * 3 * t["sub_branch"]
            expect_leaves = expect_subs + branches * 3 * 5 * t["leaf"]
            assert len(model.stage_mesh("branches")) == expect_branches
            assert len(model.stage_mesh("subbranches")) == expect_subs
            assert len(model.stage_mesh("leaves")) == expect_leaves


def test_criterion_3_stl_round_trip_corpus():
    with criterion(3, "binary byte round trip, ASCII 1e-6 relative, 84+50T size law, 100+ meshes"):
        rng = np.random.default_rng(90125)
        for i in range(110):
            n = int(rng.integers(0, 60))
            verts = rng.uniform(-1000, 1000, size=(n, 3, 3))
            facets = np.concatenate([np.zeros((n, 1, 3)), verts], axis=1)
            mesh = stl.recompute_normals(stl.TriangleMesh(facets, f"corpus_{i}"))
            blob = stl.write_stl(mesh, "binary")
            assert len(blob) == 84 + 50 * n
            assert stl.write_stl(stl.read_stl(blob), "binary") == blob
            back = stl.read_stl(stl.write_stl(mesh, "ascii"))
            if n:
                rel = np.abs(back.facets - mesh.facets) / np.maximum(np.abs(mesh.facets), 1e-30)
                assert rel.max() < 1e-6


def test_criterion_4_ipp_count_law():
    with criterion(4, "constant-field counts: mean within 3 SE of 100, dispersion in [0.8, 1.2], under 5 s"):
        region = ipp.Region(0, 100, 0, 100)
        field = ipp.ConstantIntensity(0.01)
        start = time.perf_counter()
        counts = np.array([len(ipp.sample_ipp_thinning(field, region, s))
                           for s in ipp.replication_seeds(777, 2000)])
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"2000 replications took {elapsed:.2f} s"
        se = math.sqrt(100.0 / 2000)
        assert abs(counts.mean() - 100.0) <= 3 * se
        dispersion = counts.var(ddof=1) / counts.mean()
        assert 0.8 <= dispersion <= 1.2


def test_criterion_5_thinning_two_cell():
    with criterion(5, "two-cell thinning fraction inside the 99% CI around 2/3, vs density oracle"):
        field = ipp.RasterIntensity(0.0, 0.0, 50.0, np.array([[4.0, 2.0]]))
        region = ipp.Region(0, 100, 0, 50)
        # brute-force conditional-density oracle on a fine grid
        xs = np.linspace(region.x_min, region.x_max, 801)
        ys = np.linspace(region.y_min, region.y_max, 401)
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        gx, gy = np.meshgrid(cx, cy)
        rates = field.rate_at(np.column_stack([gx.ravel(), gy.ravel()]))
        oracle = float(rates[gx.ravel() < 50.0].sum() / rates.sum())
        assert oracle == pytest.approx(2.0 / 3.0, rel=1e-12)
        points = ipp.sample_ipp_thinning(field, region, seed=271828).points
        n = len(points)
        assert n >= 10_000
        fraction = float((points[:, 0] < 50.0).mean())
        half_width = 2.576 * math.sqrt(oracle * (1.0 - oracle) / n)
        assert abs(fraction - oracle) <= half_width


def test_criterion_6_leaf_centroids():
    with criterion(6, "12-branch tree: every leaf centroid equals its triangle mean within 1e-9"):
        lib = templates.default_library("tiny")
        params = tm.TreeParams(branch_count=12, subbranches_per_branch=3,
                               leaves_per_subbranch=3, seed=6)
        model = tm.build_tree(params, lib)
        assert len(model.leaf_centroids) >= 100
        leaf_facets = model.mesh.facets[model.stage_counts["subbranches"]:]
        assert len(model.leaf_centroids) == len(leaf_facets)
        means = leaf_facets[:, 1:, :].mean(axis=1)
        assert np.abs(model.leaf_centroids - means).max() <= 1e-9
        for i, (_, v0, v1, v2) in enumerate(leaf_facets):
            oracle = (v0 + v1 + v2) / 3
            assert np.abs(model.leaf_centroids[i] - oracle).max() <= 1e-9


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "10-tree forest: double export and manifest regeneration bitwise, under 10 s"):
        lib = templates.default_library("tiny")
        config = fo.SceneConfig(
            region=ipp.Region(0, 100, 0, 100),
            intensity=ipp.ConstantIntensity(0.001),
            tree_params_template=tm.TreeParams(branch_count=8, subbranches_per_branch=2,
                                               leaves_per_subbranch=3, trunk_height=9.0),
            min_spacing=2.0,
            master_seed=TEN_TREE_SEED,
        )
        start = time.perf_counter()
        scene_a = fo.compose_forest(config, lib)
        fo.export_scene(scene_a, tmp_path / "a", "per-tree")
        scene_b = fo.compose_forest(config, lib)
        fo.export_scene(scene_b, tmp_path / "b", "per-tree")
        elapsed = time.perf_counter() - start
        assert len(scene_a) == 10
        files_a = {f.name: f.read_bytes() for f in sorted((tmp_path / "a").iterdir())}
        files_b = {f.name: f.read_bytes() for f in sorted((tmp_path / "b").iterdir())}
        assert files_a == files_b
        regen = fo.regenerate_scene(tmp_path / "a" / fo.MANIFEST_NAME, lib)
        fo.export_scene(regen, tmp_path / "c", "per-tree")
        files_c = {f.name: f.read_bytes() for f in sorted((tmp_path / "c").iterdir())}
        assert files_a == files_c
        assert elapsed < 10.0, f"forest round trip took {elapsed:.2f} s"


def test_criterion_8_transform_numerics():
    with criterion(8, "1e5 rotation compositions: edge lengths within 1e-9 relative, associative"):
        rng = np.random.default_rng(31337)
        n = 100_000
        rots = random_rotations(2 * n, rng)
        a_list = [tf.RigidTransform(r, np.zeros(3), 1.0) for r in rots[:n]]
        b_list = [tf.RigidTransform(r, np.zeros(3), 1.0) for r in rots[n:]]
        composed = [tf.compose(a, b) for a, b in zip(a_list, b_list)]
        stack = np.stack([t.rotation for t in composed])
        edge = np.array([0.8, -1.3, 2.1])
        lengths = np.linalg.norm(stack @ edge, axis=1)
        assert np.abs(lengths / np.linalg.norm(edge) - 1.0).max() <= 1e-9
        # associativity over composed triples
        m = 20_000
        c_list = [tf.RigidTransform(r, np.zeros(3), 1.0) for r in random_rotations(m, rng)]
        for a, b, c in zip(a_list[:m], b_list[:m], c_list):
            left = tf.compose(tf.compose(a, b), c)
            right = tf.compose(a, tf.compose(b, c))
            assert np.abs(left.rotation - right.rotation).max() <= 1e-9
