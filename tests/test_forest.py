import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestgen import forest as fo
from forestgen import ipp
from forestgen import lsystem
from forestgen import stl
from forestgen import transform as tf
from forestgen import tree as tm
from forestgen.templates import default_library

import scalar_reference as ref


def make_config(**kw):
    defaults = dict(
        region=ipp.Region(0.0, 60.0, 0.0, 60.0),
        intensity=ipp.ConstantIntensity(8.0 / 3600.0),
        tree_params_template=tm.TreeParams(branch_count=6, subbranches_per_branch=2,
                                           leaves_per_subbranch=2, trunk_height=8.0),
        min_spacing=1.5,
        master_seed=404,
    )
    defaults.update(kw)
    return fo.SceneConfig(**defaults)


def read_dir(path: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


# ---------------------------------------------------------------------------
# composition

def test_zero_mass_scene_is_empty(tiny_library, tmp_path):
    config = make_config(intensity=ipp.ConstantIntensity(0.0))
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) == 0
    manifest = fo.export_scene(scene, tmp_path, "per-tree")
    assert manifest["trees"] == []
    assert not list(tmp_path.glob("*.stl"))


def test_compose_deterministic(tiny_library):
    config = make_config()
    a = fo.compose_forest(config, tiny_library)
    b = fo.compose_forest(config, tiny_library)
    assert len(a) == len(b)
    assert a.index == b.index
    assert a.xy.tobytes() == b.xy.tobytes()
    assert a.params == b.params
    assert np.array_equal(a.ends, b.ends)
    assert np.array_equal(a.mesh.facets, b.mesh.facets)


def test_tree_seeds_are_substreams(tiny_library):
    config = make_config()
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) > 1
    assert scene.index == list(range(len(scene)))
    seeds = [p.seed for p in scene.params]
    assert seeds == [fo.tree_seed_for(config.master_seed, i) for i in scene.index]
    assert len(set(seeds)) == len(scene)


def test_locations_respect_spacing_and_region(tiny_library):
    config = make_config(min_spacing=3.0)
    scene = fo.compose_forest(config, tiny_library)
    pts = scene.xy
    r = config.region
    assert np.all((r.x_min <= pts[:, 0]) & (pts[:, 0] <= r.x_max)
                  & (r.y_min <= pts[:, 1]) & (pts[:, 1] <= r.y_max))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) >= 3.0


def test_parameter_jitter_ranges(tiny_library):
    config = make_config(
        intensity=ipp.ConstantIntensity(20.0 / 3600.0),
        parameter_jitter=fo.ParameterJitter(branch_count=(4, 9), trunk_height=(5.0, 12.0)),
    )
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) > 3
    counts = {p.branch_count for p in scene.params}
    assert counts <= set(range(4, 10))
    for p in scene.params:
        assert 5.0 <= p.trunk_height <= 12.0
    # recorded params regenerate identical trees
    rebuilt = tm.build_tree(tm.params_from_dict(tm.params_to_dict(scene.params[0])), tiny_library)
    assert np.array_equal(rebuilt.full_mesh().facets, scene.tree(0).full_mesh().facets)


JITTERED = dict(parameter_jitter=fo.ParameterJitter(branch_count=(2, 7), trunk_height=(4.0, 11.0)))


def test_scene_builds_make_no_tree_model(tiny_library, tmp_path, monkeypatch):
    # a scene is columns: only Scene.tree makes a TreeModel
    made = []
    init = tm.TreeModel.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(tm.TreeModel, "__init__", counted)
    scene = fo.compose_forest(make_config(intensity=ipp.ConstantIntensity(80.0 / 3600.0)),
                              tiny_library)
    assert len(scene) >= 50
    fo.scene_stats(scene)
    for mode in fo.EXPORT_MODES:
        fo.export_scene(scene, tmp_path / mode, mode)
        regen = fo.regenerate_scene(tmp_path / mode / fo.MANIFEST_NAME, tiny_library)
        fo.scene_stats(regen)
        fo.export_scene(regen, tmp_path / "regen", mode)
    assert made == []
    scene.tree(0)
    assert len(made) == 1


def test_compose_and_regenerate_give_the_same_columns(tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(**JITTERED), tiny_library)
    assert len(scene) > 3 and len({p.branch_count for p in scene.params}) > 1
    scene.xy[0] = -0.0, 0.0
    scene.xy[1] = 0.0, -0.0
    fo.export_scene(scene, tmp_path, "merged")
    regen = fo.regenerate_scene(tmp_path / fo.MANIFEST_NAME, tiny_library)
    assert regen.index == scene.index and {type(i) for i in regen.index} == {int}
    assert regen.xy.dtype == scene.xy.dtype == np.float64
    assert regen.xy.tobytes() == scene.xy.tobytes()
    assert regen.params == scene.params
    assert regen.ends.dtype == scene.ends.dtype and regen.ends.shape == (len(scene), 4)
    assert regen.ends.tobytes() == scene.ends.tobytes()
    assert regen.mesh.facets.tobytes() == scene.mesh.facets.tobytes()


def test_scene_tree_is_the_tree_built_alone(tiny_library):
    scene = fo.compose_forest(make_config(**JITTERED), tiny_library)
    assert len(scene) > 3
    for i, params in enumerate(scene.params):
        tree, alone = scene.tree(i), tm.build_tree(params, tiny_library)
        assert tree.params is params
        assert tree.mesh.facets.tobytes() == alone.mesh.facets.tobytes()
        assert tree.stage_counts == alone.stage_counts
        for name in ("points", "directions", "depths", "lengths", "parents"):
            assert getattr(tree.skeleton, name).tobytes() == getattr(alone.skeleton, name).tobytes()
    assert scene.tree(-1).mesh.facets.tobytes() == scene.tree(len(scene) - 1).mesh.facets.tobytes()
    with pytest.raises(IndexError):
        scene.tree(len(scene))
    # its mesh is a view of the scene's
    scene.tree(1).mesh.facets[0, 1, 0] = 1234.5
    assert scene.mesh.facets[scene.ends[0, 3], 1, 0] == 1234.5


def test_scene_tree_builds_its_skeleton_only_when_read(tiny_library):
    scene = fo.compose_forest(make_config(), tiny_library)
    with mock.patch.object(lsystem, "interpret_turtle", wraps=lsystem.interpret_turtle) as walk:
        tree = scene.tree(0)
        tree.stage_mesh("branches")
        tree.leaf_centroids
        assert walk.call_count == 0
        tree.stage_mesh("skeleton")
        assert walk.call_count == 1


# ---------------------------------------------------------------------------
# export

def test_export_per_tree_files_match_manifest(tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.export_scene(scene, tmp_path, "per-tree")
    stl_files = sorted(tmp_path.glob("tree_*.stl"))
    assert len(stl_files) == len(manifest["trees"]) == len(scene)
    for entry in manifest["trees"]:
        mesh = stl.read_stl((tmp_path / entry["file"]).read_bytes())
        assert len(mesh) == entry["triangles"]


def test_export_twice_is_byte_identical(tiny_library, tmp_path):
    config = make_config()
    fo.export_scene(fo.compose_forest(config, tiny_library), tmp_path / "a", "per-tree")
    fo.export_scene(fo.compose_forest(config, tiny_library), tmp_path / "b", "per-tree")
    assert read_dir(tmp_path / "a") == read_dir(tmp_path / "b")


def test_merged_export_totals(tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.export_scene(scene, tmp_path, "merged")
    merged = stl.read_stl((tmp_path / fo.MERGED_NAME).read_bytes())
    assert len(merged) == sum(e["triangles"] for e in manifest["trees"])
    assert all(e["file"] is None for e in manifest["trees"])


def test_merged_vertices_are_per_tree_plus_offset(tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    fo.export_scene(scene, tmp_path / "per", "per-tree")
    fo.export_scene(scene, tmp_path / "mer", "merged")
    merged = stl.read_stl((tmp_path / "mer" / fo.MERGED_NAME).read_bytes())
    cursor = 0
    for index, (x, y) in zip(scene.index, scene.xy):
        local = stl.read_stl((tmp_path / "per" / f"tree_{index}.stl").read_bytes())
        chunk = merged.facets[cursor: cursor + len(local)]
        offset = np.array([x, y, 0.0])
        # agreement up to float32 quantization of the baked translation
        span = np.abs(chunk[:, 1:, :]).max() + 1.0
        assert np.allclose(chunk[:, 1:, :], local.facets[:, 1:, :] + offset,
                           atol=span * 1e-6)
        cursor += len(local)
    assert cursor == len(merged)


def merged_reference(scene: fo.Scene) -> bytes:
    return ref.write_merged([scene.tree(i).mesh.facets for i in range(len(scene))],
                            scene.xy.tolist(), "forest")


@pytest.mark.parametrize("run", ["one triangle", "mid-list", "one run"])
def test_merged_export_is_the_whole_scene_writer(run, tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    sizes = scene.triangles()
    assert len(sizes) > 3
    # a chunk of one triangle; chunks that end mid-way through trees; one chunk
    limit = {"one triangle": 1, "mid-list": sizes[0] + sizes[1] // 2, "one run": 1 << 40}[run]
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", limit)
    count = math.ceil(sum(sizes) / limit)
    if run == "mid-list":
        assert 1 < count < len(sizes)
    else:
        assert count == {"one triangle": sum(sizes), "one run": 1}[run]
    # signed zeros in the offsets, the vertices and the kept normals, and a
    # tree whose normals are off unit length, so they are recomputed after
    # the shift
    scene.xy[0] = -0.0, 0.0
    scene.xy[1] = 0.0, -0.0
    facets = scene.tree(2).mesh.facets
    for zeros in (facets[:, 1:, 2], facets[:, 0, :]):
        zeros[zeros == 0.0] = -0.0
        assert np.signbit(zeros[zeros == 0.0]).any()
    scene.tree(3).mesh.facets[:, 0, :] *= 2.0
    fo.export_scene(scene, tmp_path, "merged")
    assert (tmp_path / fo.MERGED_NAME).read_bytes() == merged_reference(scene)


def test_write_merged_of_stage_meshes(tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", 1)
    meshes = [scene.tree(i).stage_mesh("branches") for i in range(len(scene))]
    positions = scene.xy.tolist()
    count = fo.write_merged(tmp_path / "b.stl", meshes, positions, "stage")
    assert count == sum(len(m) for m in meshes)
    assert (tmp_path / "b.stl").read_bytes() == ref.write_merged(
        [m.facets for m in meshes], positions, "stage")
    assert fo.write_merged(tmp_path / "e.stl", [], [], "empty") == 0
    assert (tmp_path / "e.stl").read_bytes() == ref.write_merged([], [], "empty")


@pytest.mark.parametrize("chunk", ["one triangle", "under a third of the first tree",
                                   "half the first tree", "the first tree", "above the scene"])
@pytest.mark.parametrize("empty", ["first", "middle", "last", "all"])
def test_write_merged_cuts_chunks_across_empty_meshes(chunk, empty, tiny_library, tmp_path,
                                                      monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    assert len(scene) > 3
    trees = [scene.tree(i).stage_mesh("branches") for i in range(len(scene))]
    hole = stl.empty_mesh()
    meshes = {"first": [hole, *trees], "middle": [trees[0], hole, trees[1], hole, *trees[2:]],
              "last": [*trees, hole], "all": [hole] * 3}[empty]
    positions = [(1.5 * i - 4.0, 0.25 - i) for i in range(len(meshes))]
    sizes = [len(m) for m in meshes]
    first = next((k for k in sizes if k), 2)
    # a chunk wholly inside the first tree; chunks that end inside trees; a
    # chunk that ends exactly at the end of the first tree
    limit = {"one triangle": 1, "under a third of the first tree": max(1, (first - 1) // 3),
             "half the first tree": first // 2, "the first tree": first,
             "above the scene": sum(sizes) + 7}[chunk]
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", limit)
    assert fo.write_merged(tmp_path / "m.stl", meshes, positions, "cut") == sum(sizes)
    assert (tmp_path / "m.stl").read_bytes() == ref.write_merged(
        [m.facets for m in meshes], positions, "cut")


# The failure contract holds in both modes: each test below runs over
# fo.EXPORT_MODES, exporting each mode into its own directory.

def test_failed_merged_export_leaves_the_previous_files(tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    for mode in fo.EXPORT_MODES:
        fo.export_scene(scene, tmp_path / mode, mode)
    before = read_dir(tmp_path / "merged"), read_dir(tmp_path / "per-tree")
    # every triangle is a chunk of its own, so the chunks before the last are written
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", 1)
    scene.tree(-1).mesh.facets[:] = np.nan
    for mode in fo.EXPORT_MODES:
        with pytest.raises(stl.StlError, match="non-finite"):
            fo.export_scene(scene, tmp_path / mode, mode)
    assert (read_dir(tmp_path / "merged"), read_dir(tmp_path / "per-tree")) == before


@pytest.mark.parametrize("fault", ["nan", "beyond"])
def test_fault_in_the_last_chunk_leaves_the_previous_files(fault, tiny_library, tmp_path,
                                                           monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    for mode in fo.EXPORT_MODES:
        fo.export_scene(scene, tmp_path / mode, mode)
    before = read_dir(tmp_path / "merged"), read_dir(tmp_path / "per-tree")
    total = len(scene.mesh)
    monkeypatch.setattr(stl, "CHUNK_TRIANGLES", total // 3)
    assert math.ceil(total / (total // 3)) > 1
    # the last facet of the last tree is the last triangle of the file
    ref.set_fault(scene.tree(-1).mesh.facets, fault, -1)
    for mode in fo.EXPORT_MODES:
        with pytest.raises(stl.StlError, match=ref.WRITER_FAULTS[(fault,)]):
            fo.export_scene(scene, tmp_path / mode, mode)
    assert (read_dir(tmp_path / "merged"), read_dir(tmp_path / "per-tree")) == before


@pytest.mark.parametrize("faults, message", list(ref.WRITER_FAULTS.items()))
def test_merged_export_error_order_is_pinned(faults, message, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    # every fault in one facet, so in one chunk however the scene is cut
    for fault in faults:
        ref.set_fault(scene.tree(1).mesh.facets, fault, 3)
    for mode in fo.EXPORT_MODES:
        with pytest.raises(stl.StlError, match=message):
            fo.export_scene(scene, tmp_path / mode, mode)
        # the directory is made, and nothing is written into it
        assert not list((tmp_path / mode).iterdir())


def test_export_deletes_no_file(tiny_library, tmp_path):
    # a smaller re-export leaves the tree files beyond its count, and a
    # change of mode leaves the other mode's files
    large = fo.compose_forest(make_config(), tiny_library)
    small = fo.compose_forest(make_config(master_seed=7, intensity=ipp.ConstantIntensity(
        3.0 / 3600.0)), tiny_library)
    assert 0 < len(small) < len(large)
    fo.export_scene(large, tmp_path, "per-tree")
    stale = read_dir(tmp_path)
    fo.export_scene(small, tmp_path, "per-tree")
    files = read_dir(tmp_path)
    assert sorted(files) == sorted(stale)
    for i in range(len(small), len(large)):
        assert files[f"tree_{i}.stl"] == stale[f"tree_{i}.stl"]
    fo.export_scene(small, tmp_path, "merged")
    merged = read_dir(tmp_path)
    assert sorted(merged) == sorted([*stale, fo.MERGED_NAME])
    assert {k: v for k, v in merged.items() if k.startswith("tree_")} == \
        {k: v for k, v in files.items() if k.startswith("tree_")}
    assert json.loads(merged[fo.MANIFEST_NAME])["mode"] == "merged"


def test_merged_export_holds_one_run_at_a_time(tiny_library, tmp_path):
    config = make_config(intensity=ipp.ConstantIntensity(40.0 / 3600.0),
                         tree_params_template=tm.TreeParams(
                             branch_count=12, subbranches_per_branch=3, leaves_per_subbranch=4))
    scene = fo.compose_forest(config, tiny_library)
    chunk_bytes = stl.CHUNK_TRIANGLES * scene.mesh.facets[0].nbytes
    # the scene, and a build run, are many chunks
    assert len(scene.mesh) > 4 * stl.CHUNK_TRIANGLES
    assert tm._RUN_TRIANGLES >= 8 * stl.CHUNK_TRIANGLES
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fo.export_scene(scene, tmp_path, "merged")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # a chunk's copy, its records and their bytes, with room for the manifest
    assert peak < 3 * chunk_bytes
    assert (tmp_path / fo.MERGED_NAME).read_bytes() == merged_reference(scene)


def test_scene_stats(tiny_library, tmp_path):
    config = make_config(min_spacing=2.0)
    scene = fo.compose_forest(config, tiny_library)
    stats = fo.scene_stats(scene)
    assert stats.tree_count == len(scene)
    assert stats.nearest_neighbor_min_distance >= config.min_spacing
    # cross-check totals against independent recomputation from exported files
    manifest = fo.export_scene(scene, tmp_path, "per-tree")
    total = sum(len(stl.read_stl((tmp_path / e["file"]).read_bytes()))
                for e in manifest["trees"])
    assert stats.total_triangles == total


def test_scene_stats_single_tree_sentinel(tiny_library):
    scene = fo.compose_forest(make_config(intensity=ipp.ConstantIntensity(0.0)), tiny_library)
    assert fo.scene_stats(scene).nearest_neighbor_min_distance == math.inf


def test_integral_float_jitter_bounds_draw_as_integers(tiny_library):
    def counts(bounds):
        config = make_config(parameter_jitter=fo.ParameterJitter(branch_count=bounds))
        scene = fo.compose_forest(config, tiny_library)
        return [p.branch_count for p in scene.params]
    assert counts((2.0, 3.0)) == counts((2, 3))
    assert fo.ParameterJitter(branch_count=(np.float64(2.0), 3.0)).branch_count == (2, 3)


# ---------------------------------------------------------------------------
# manifest closure

def test_regenerate_from_manifest_bitwise(tiny_library, tmp_path):
    config = make_config()
    scene = fo.compose_forest(config, tiny_library)
    fo.export_scene(scene, tmp_path / "orig", "per-tree")
    regen = fo.regenerate_scene(tmp_path / "orig" / fo.MANIFEST_NAME, tiny_library)
    fo.export_scene(regen, tmp_path / "regen", "per-tree")
    assert read_dir(tmp_path / "orig") == read_dir(tmp_path / "regen")


@pytest.mark.parametrize("jitter", [
    tf.AngleJitterParams(10, 10, (1, 2)),
    tf.AngleJitterParams(np.float32(7.3), 10.0, (np.float32(0.9), 1.1)),
], ids=["ints", "float32"])
def test_python_api_jitter_numbers_round_trip(jitter, tiny_library, tmp_path):
    # the scene writes its jitter as floats, as its regeneration does
    params = tm.TreeParams(branch_count=4, subbranches_per_branch=1, leaves_per_subbranch=2,
                           trunk_height=6.0, jitter=jitter)
    scene = fo.compose_forest(make_config(tree_params_template=params), tiny_library)
    assert len(scene) > 1
    fo.export_scene(scene, tmp_path / "orig", "merged")
    regen = fo.regenerate_scene(tmp_path / "orig" / fo.MANIFEST_NAME, tiny_library)
    fo.export_scene(regen, tmp_path / "regen", "merged")
    assert read_dir(tmp_path / "orig") == read_dir(tmp_path / "regen")


@pytest.mark.parametrize("mode", fo.EXPORT_MODES)
def test_export_leaves_stored_mesh_name(mode, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    assert len(scene) > 1
    fo.export_scene(scene, tmp_path, mode)
    assert scene.mesh.name == "trees"
    trees = [scene.tree(i) for i in range(len(scene))]
    assert {t.mesh.name for t in trees} == {t.full_mesh().name for t in trees} == {"tree"}


@pytest.mark.parametrize("where", ["top-level", "intensity", "params"])
def test_regenerate_rejects_manifest_of_wrong_shape(where, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.build_manifest(scene, "per-tree")
    if where == "top-level":
        manifest = [1]
    elif where == "intensity":
        manifest["intensity"] = [1]
    else:
        manifest["trees"][0]["params"] = [1]
    path = tmp_path / fo.MANIFEST_NAME
    path.write_text(json.dumps(manifest))
    with pytest.raises(fo.SceneConfigError, match="malformed manifest"):
        fo.regenerate_scene(path, tiny_library)


@pytest.mark.parametrize("axis, value", [("x", math.nan), ("y", math.inf), ("x", -math.inf)])
def test_regenerate_rejects_non_finite_position(axis, value, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.build_manifest(scene, "per-tree")
    manifest["trees"][1][axis] = value
    path = tmp_path / fo.MANIFEST_NAME
    path.write_text(json.dumps(manifest))  # NaN / Infinity, as Python's json writes them
    with pytest.raises(fo.SceneConfigError, match="tree 1 position must be finite"):
        fo.regenerate_scene(path, tiny_library)


def test_regenerate_rejects_repeated_tree_index(tiny_library, tmp_path):
    # per-tree export would write both trees to one tree_<index>.stl
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.build_manifest(scene, "per-tree")
    assert len(manifest["trees"]) > 2
    manifest["trees"][2]["index"] = manifest["trees"][0]["index"]
    path = tmp_path / fo.MANIFEST_NAME
    path.write_text(json.dumps(manifest))
    with pytest.raises(fo.SceneConfigError, match="^tree index 0 is repeated$"):
        fo.regenerate_scene(path, tiny_library)


@pytest.mark.parametrize("keys, value, field", [
    (("trees", 1, "params", "branch_count"), 2.9, "branch_count"),
    (("trees", 1, "params", "leaves_per_subbranch"), 1.5, "leaves_per_subbranch"),
    (("trees", 1, "params", "seed"), 7.25, "seed"),
    (("trees", 1, "seed"), 7.25, "tree seed"),
    (("trees", 1, "index"), 1.5, "tree index"),
    (("master_seed",), 404.5, "master_seed"),
    # a JSON boolean is no count or seed either
    (("trees", 1, "seed"), True, "tree seed"),
    (("trees", 1, "params", "branch_count"), True, "branch_count"),
    (("master_seed",), True, "master_seed"),
])
def test_regenerate_refuses_a_fractional_seed_or_count(keys, value, field, tiny_library):
    # int() would truncate it, and the regenerated scene would re-export another number
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.build_manifest(scene, "per-tree")
    target = manifest
    for key in keys[:-1]:
        target = target[key]
    whole = target[keys[-1]]
    target[keys[-1]] = value
    with pytest.raises(fo.SceneConfigError, match=f"{field} must be a whole number"):
        fo.regenerate_scene(manifest, tiny_library)
    # the same number written as an integral float regenerates the scene (a
    # 64-bit tree seed has no float of its own)
    if float(whole) == whole:
        target[keys[-1]] = float(whole)
        regen = fo.regenerate_scene(manifest, tiny_library)
        assert np.array_equal(regen.mesh.facets, scene.mesh.facets)


@pytest.mark.parametrize("keys, field", [
    (("trees", 1, "x"), "tree x"),
    (("trees", 1, "y"), "tree y"),
    (("trees", 1, "params", "trunk_height"), "trunk_height"),
    (("trees", 1, "params", "depth_scale_decay"), "depth_scale_decay"),
    (("trees", 1, "params", "jitter", "azimuth_range"), "azimuth_range"),
    (("trees", 1, "params", "jitter", "scale_range", 1), "scale_range max"),
    (("min_spacing",), "min_spacing"),
    (("region", "y_max"), "region bound y_max"),
    (("intensity", "rate"), "intensity"),
])
def test_regenerate_refuses_a_boolean_measure(keys, field, tiny_library):
    # float() would read true as 1.0 and the manifest would name another scene
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "per-tree")
    target = manifest
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = True
    with pytest.raises(fo.SceneConfigError, match=f"{field} must be a number, got True"):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_refuses_a_boolean_raster_value(tiny_library):
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "per-tree")
    manifest["intensity"] = {"form": "raster", "cell_size": 60.0, "values": [[0.5, True]]}
    with pytest.raises(fo.SceneConfigError, match="^raster value must be a number, got True$"):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_refuses_a_tree_seed_unlike_its_params_seed(tiny_library):
    # the tree is built from its params' seed, and re-export would write the
    # other seed back beside it
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "per-tree")
    seed = manifest["trees"][1]["params"]["seed"]
    manifest["trees"][1]["seed"] = seed ^ 1
    with pytest.raises(fo.SceneConfigError,
                       match=f"^tree 1 seed {seed ^ 1} differs from its params seed {seed}$"):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_refuses_a_tree_whose_triangles_differ(tiny_library):
    # the triangles a tree rebuilds are checked against the recorded count
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "per-tree")
    built = manifest["trees"][1]["triangles"]
    manifest["trees"][1]["triangles"] = built + 5
    with pytest.raises(fo.SceneConfigError, match=f"^tree 1 builds {built} triangles where "
                                                  f"the manifest records {built + 5}: "):
        fo.regenerate_scene(manifest, tiny_library)
    manifest["trees"][1]["triangles"] = True
    with pytest.raises(fo.SceneConfigError, match="tree triangles must be a whole number"):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_refuses_a_manifest_of_another_library(tiny_library):
    normal = fo.build_manifest(fo.compose_forest(make_config(), default_library("normal")),
                               "merged")
    with pytest.raises(fo.SceneConfigError, match="^tree 0 builds .* another template library"):
        fo.regenerate_scene(normal, tiny_library)


def test_regenerate_reports_an_overflow_before_the_triangles(tiny_library):
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "merged")
    manifest["trees"][0]["params"]["jitter"]["scale_range"] = [0.85, 1e300]
    manifest["trees"][0]["triangles"] += 1
    with pytest.raises(fo.SceneConfigError, match="scale_range is too large"):
        fo.regenerate_scene(manifest, tiny_library)


@pytest.mark.parametrize("field", ["azimuth_range", "pitch_range"])
def test_regenerate_rejects_jitter_range_above_360(field, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.build_manifest(scene, "per-tree")
    manifest["trees"][1]["params"]["jitter"][field] = 1e308
    with pytest.raises(fo.SceneConfigError, match=f"{field} must be at most 360 degrees"):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_validates_each_distinct_jitter_once(tiny_library):
    scene = fo.compose_forest(make_config(), tiny_library)
    assert len(scene) > 2
    manifest = fo.build_manifest(scene, "merged")
    # -0.0 is a jitter of its own: it must come back as written
    manifest["trees"][1]["params"]["jitter"]["pitch_range"] = -0.0
    manifest = json.loads(json.dumps(manifest))
    regen = fo.regenerate_scene(manifest, tiny_library)
    jitters = [p.jitter for p in regen.params]
    assert len({id(j) for j in jitters}) == 2
    assert all(j is jitters[0] for i, j in enumerate(jitters) if i != 1)
    assert math.copysign(1.0, jitters[1].pitch_range) == -1.0
    assert ref.dumps_manifest(fo.build_manifest(regen, "merged")) == ref.dumps_manifest(manifest)


def test_scene_over_the_triangle_budget_is_a_scene_config_error(tiny_library):
    # one tree of 10 M branches alone needs more than 2 ** 25 triangles
    budget = r"^the stage ledger needs \d+ triangles, .* \(forestgen\.tree\.MAX_TRIANGLES\)$"
    config = make_config(tree_params_template=tm.TreeParams(branch_count=10_000_000))
    with pytest.raises(fo.SceneConfigError, match=budget):
        fo.compose_forest(config, tiny_library)
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), "merged")
    manifest["trees"][0]["params"]["branch_count"] = 10_000_000
    with pytest.raises(fo.SceneConfigError, match=budget):
        fo.regenerate_scene(manifest, tiny_library)


def test_regenerate_rejects_a_manifest_that_is_not_utf8(tiny_library, tmp_path):
    path = tmp_path / fo.MANIFEST_NAME
    path.write_bytes(b"\xff")
    with pytest.raises(fo.SceneConfigError, match="cannot read manifest"):
        fo.regenerate_scene(path, tiny_library)


@pytest.mark.parametrize("document", ["[" * 200_000, '{"a": ' * 100_000],
                         ids=["arrays", "objects"])
def test_regenerate_rejects_a_manifest_nested_too_deeply(document, tiny_library, tmp_path):
    path = tmp_path / fo.MANIFEST_NAME
    path.write_text(document)
    with pytest.raises(fo.SceneConfigError, match="cannot read manifest: maximum recursion"):
        fo.regenerate_scene(path, tiny_library)


def test_regenerate_rejects_bad_version(tiny_library, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(fo.SceneConfigError, match="version"):
        fo.regenerate_scene(path, tiny_library)


def test_load_scene_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "master_seed": 7,
        "region": {"x_min": 0, "x_max": 10, "y_min": 0, "y_max": 10},
        "intensity": {"form": "constant", "rate": 0.05},
        "tree_params": {"branch_count": 5, "trunk_height": 6.0},
        "min_spacing": 1.0,
        "library": "templates/library.json",
    }))
    config, lib_path = fo.load_scene_config(path)
    assert config.master_seed == 7
    assert config.tree_params_template.branch_count == 5
    assert lib_path == "templates/library.json"


def test_load_scene_config_rejects_garbage(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"region": {"x_min": 0}}))
    with pytest.raises(fo.SceneConfigError, match="malformed"):
        fo.load_scene_config(path)


# ---------------------------------------------------------------------------
# the manifest writer against json

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1e22, 1.7976931348623157e308]
manifest_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                            st.floats(allow_nan=False, allow_infinity=False))
manifest_ints = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers())
manifest_entries = st.fixed_dictionaries({
    "index": manifest_ints, "x": manifest_floats, "y": manifest_floats,
    "seed": manifest_ints, "triangles": manifest_ints, "file": st.none(),
    "params": st.fixed_dictionaries({
        "branch_count": manifest_ints, "subbranches_per_branch": manifest_ints,
        "leaves_per_subbranch": manifest_ints, "trunk_height": manifest_floats,
        "depth_scale_decay": manifest_floats, "seed": manifest_ints,
        "jitter": st.fixed_dictionaries({
            "azimuth_range": manifest_floats, "pitch_range": manifest_floats,
            "scale_range": st.lists(manifest_floats, min_size=2, max_size=2)}),
    }),
})


def _with_jitter(entry, **fields):
    params = entry["params"]
    return {**entry, "params": {**params, "jitter": {**params["jitter"], **fields}}}


# one entry changed: a value json writes its own way, or a shape unlike the first entry's
TWISTS = {
    "numpy float": lambda e: {**e, "x": np.float64(e["x"])},
    "nan": lambda e: {**e, "y": math.nan},
    "infinity": lambda e: _with_jitter(e, pitch_range=-math.inf),
    "booleans": lambda e: {**e, "index": True, "file": False},
    "escapes": lambda e: {**e, "file": "tr\u00e9e \"%s\"\n\x00.stl"},
    "extra key": lambda e: {**e, "note": "hand-edited"},
    "missing key": lambda e: {k: v for k, v in e.items() if k != "file"},
    "container for scalar": lambda e: {**e, "file": [1, {"a": None}]},
    "tuple for list": lambda e: _with_jitter(
        e, scale_range=tuple(e["params"]["jitter"]["scale_range"])),
    "longer list": lambda e: _with_jitter(e, scale_range=[1.0, 2.0, 3.0]),
}


def _canonical(text: str) -> str:
    """The JSON value of ``text``, written one way, so that values json reads
    back as equal (NaN, numpy floats, tuples, int keys) compare equal."""
    return json.dumps(json.loads(text), sort_keys=True)


def assert_manifest_written(manifest: dict):
    """``dumps_manifest`` reads back as ``manifest``, with each tree entry
    on a line of its own."""
    text = ref.dumps_manifest(manifest)
    assert _canonical(text) == _canonical(json.dumps(manifest))
    assert text.endswith("}\n")
    trees = manifest["trees"]
    lines = text.split("\n")
    if not trees:
        assert '  "trees": [],' in lines or '  "trees": []' in lines
        return
    at = lines.index('  "trees": [')
    assert lines[at + len(trees) + 1] in ("  ]", "  ],")
    for i, (line, entry) in enumerate(zip(lines[at + 1:], trees)):
        assert line.startswith("    {")
        assert line.endswith("," if i + 1 < len(trees) else "}")
        assert _canonical(line.strip().rstrip(",")) == _canonical(json.dumps(entry))


@given(data=st.data(), twist=st.sampled_from([None, *TWISTS]))
@settings(max_examples=200, deadline=None)
def test_dumps_manifest_is_json_dumps(data, twist):
    trees = data.draw(st.lists(manifest_entries, max_size=6))
    if data.draw(st.booleans()):
        # per-tree mode: every entry names its file
        for entry in trees:
            entry["file"] = data.draw(st.text(max_size=12))
    if twist is not None and trees:
        at = data.draw(st.integers(0, len(trees) - 1))
        trees[at] = TWISTS[twist](trees[at])
    manifest = {"version": fo.MANIFEST_VERSION, "master_seed": 2 ** 64 - 1,
                "region": {"x_min": -0.0, "x_max": 1e16, "y_min": 5e-324, "y_max": 1.0},
                "intensity": {"form": "raster", "values": [[0.5, np.float64(1.0)], [2.0, 0.0]]},
                "min_spacing": 0.0, "mode": "merged", "trees": trees}
    assert_manifest_written(manifest)


@pytest.mark.parametrize("trees", [
    [{"\x00": 1, "x": 0.5}, {"\x00": 2, "x": 1.5}],
    [{"%s": 1.0, "n": "%d"}, {"%s": 2.0, "n": "%%"}],     # format characters
    [{"i": 1}, {"i": True}], [{"i": True}, {"i": 1}],     # a bool among ints
    [{"f": None}, {"f": "a"}], [{"f": "a"}, {"f": None}],
    [{"x": np.float64(0.1)}, {"x": np.float64(-0.0)}],
    [{"a": [], "b": {}}, {"a": [], "b": {}}],             # no scalar at all
    [{2: "int keys", 10: 1}, {2: "int keys", 10: 2}],
    [{"f": "\n  \"trees\": []"}],                        # the text the writer replaces
])
def test_dumps_manifest_is_json_dumps_on_odd_columns(trees):
    assert_manifest_written({"version": fo.MANIFEST_VERSION, "trees": trees})


# ---------------------------------------------------------------------------
# the manifest text written from scene columns against the dict writer

_EDGE_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1]
# shared by many trees, and written as json writes each field's own type
_SCENE_JITTERS = [tm._DEFAULT_JITTER, tf.AngleJitterParams(),
                  tf.AngleJitterParams(azimuth_range=5, pitch_range=0, scale_range=(1, 2)),
                  tf.AngleJitterParams(azimuth_range=np.float64(2.5), pitch_range=-0.0,
                                       scale_range=[np.float64(0.5), 1e16])]
scene_positions = st.one_of(st.sampled_from(_SPECIAL_FLOATS + [math.nan, math.inf, -math.inf]),
                            st.floats())
scene_trees = st.lists(st.tuples(
    st.integers(0, 10 ** 6), scene_positions, scene_positions,
    st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2 ** 64 - 1),
    st.sampled_from([1, 2, 16]) | st.integers(1, 40), st.integers(0, 4), st.integers(0, 5),
    st.sampled_from([8.0, 10.0]) | st.floats(5e-324, 1e300),
    st.sampled_from([0.5, 1.0]) | st.floats(5e-324, 1.0),
    st.sampled_from(_SCENE_JITTERS), st.integers(0, 2 ** 25)), max_size=12)


def column_scene(trees) -> fo.Scene:
    """A scene holding only what its manifest reads: indices, locations,
    params (each tree's seed among them) and leaf row ends, with no meshes
    built."""
    config = make_config(intensity=ipp.RasterIntensity(-0.0, 5e-324, 1e16, np.array([[0.5, 1e-7]])),
                         master_seed=2 ** 64 - 1)
    params = [tm.TreeParams(branch_count=b, subbranches_per_branch=s, leaves_per_subbranch=n,
                            trunk_height=h, jitter=jitter, depth_scale_decay=d, seed=seed)
              for _, _, _, seed, b, s, n, h, d, jitter, _ in trees]
    ends = np.repeat(np.cumsum([0, *[t[-1] for t in trees]])[1:, None], 4, axis=1)
    return fo.Scene(config, [t[0] for t in trees], np.array([t[1:3] for t in trees]).reshape(-1, 2),
                    params, stl.empty_mesh("trees"), ends)


@given(trees=scene_trees)
@settings(max_examples=150, deadline=None)
def test_manifest_text_is_the_dict_writer(trees):
    scene = column_scene(trees)
    for mode in fo.EXPORT_MODES:
        manifest = fo.build_manifest(scene, mode)
        assert fo._manifest_text(scene, manifest) == ref.dumps_manifest(manifest)


def test_manifest_text_of_the_empty_scene():
    scene = column_scene([])
    manifest = fo.build_manifest(scene, "merged")
    assert fo._manifest_text(scene, manifest) == ref.dumps_manifest(manifest)
    assert '"trees": []' in ref.dumps_manifest(manifest)


edited_jitters = st.fixed_dictionaries({
    "azimuth_range": st.sampled_from([0, 5, 10.0, -0.0]) | st.floats(0.0, 360.0),
    "pitch_range": st.sampled_from([0, 10.0]) | st.floats(0.0, 360.0),
    "scale_range": st.tuples(st.sampled_from([1, 0.85]), st.sampled_from([1, 2, 1.15])).map(list)})


@given(edits=st.lists(st.tuples(
    st.sampled_from([-0.0, 5e-324, 1e16, 12.5]), st.sampled_from([-0.0, 5e-324, 1e16, 3.0]),
    st.sampled_from(_EDGE_SEEDS), edited_jitters | st.none()),
    min_size=1, max_size=6), mode=st.sampled_from(fo.EXPORT_MODES))
@settings(max_examples=40, deadline=None)
def test_regenerated_manifest_text_is_the_dict_writer(edits, mode, tiny_library):
    # a hand-edited manifest: positions, seeds (a tree's and its params',
    # which must agree), a jitter of its own per tree, int-valued or not, and
    # counts whose triangles are recorded anew; the regenerated scene writes
    # it as the dict writer does
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), mode)
    trees = manifest["trees"][:len(edits)]
    for entry, (x, y, seed, jitter) in zip(trees, edits):
        entry.update(x=x, y=y, seed=seed)
        entry["params"].update(seed=seed, branch_count=2, leaves_per_subbranch=1)
        if jitter is not None:
            entry["params"]["jitter"] = jitter
        built = tm.build_tree(tm.params_from_dict(entry["params"]), tiny_library)
        entry["triangles"] = built.stage_counts["leaves"]
    regen = fo.regenerate_scene({**manifest, "trees": trees}, tiny_library)
    again = fo.build_manifest(regen, mode)
    assert fo._manifest_text(regen, again) == ref.dumps_manifest(again)


@pytest.mark.parametrize("mode", fo.EXPORT_MODES)
def test_version_1_manifest_regenerates_the_same_stl_bytes(mode, tiny_library, tmp_path):
    # version 1 wrote the whole manifest with json.dumps(indent=2, sort_keys=True)
    scene = fo.compose_forest(make_config(), tiny_library)
    manifest = fo.export_scene(scene, tmp_path / "v2", mode)
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({**manifest, "version": 1}, indent=2, sort_keys=True) + "\n")
    fo.export_scene(fo.regenerate_scene(v1, tiny_library), tmp_path / "regen", mode)
    assert read_dir(tmp_path / "regen") == read_dir(tmp_path / "v2")
