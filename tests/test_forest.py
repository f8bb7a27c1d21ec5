import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestgen import forest as fo
from forestgen import ipp
from forestgen import stl
from forestgen import transform as tf
from forestgen import tree as tm

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
    for pa, pb in zip(a.placements, b.placements):
        assert (pa.x, pa.y, pa.seed) == (pb.x, pb.y, pb.seed)
        assert np.array_equal(pa.tree.full_mesh().facets, pb.tree.full_mesh().facets)


def test_tree_seeds_are_substreams(tiny_library):
    config = make_config()
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) > 1
    for p in scene.placements:
        assert p.seed == fo.tree_seed_for(config.master_seed, p.index)
        assert p.tree.params.seed == p.seed
    assert len({p.seed for p in scene.placements}) == len(scene)


def test_locations_respect_spacing_and_region(tiny_library):
    config = make_config(min_spacing=3.0)
    scene = fo.compose_forest(config, tiny_library)
    pts = np.array([[p.x, p.y] for p in scene.placements])
    assert np.all(config.region.contains(pts))
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
    counts = {p.tree.params.branch_count for p in scene.placements}
    assert counts <= set(range(4, 10))
    for p in scene.placements:
        assert 5.0 <= p.tree.params.trunk_height <= 12.0
    # recorded params regenerate identical trees
    p0 = scene.placements[0]
    rebuilt = tm.build_tree(tm.params_from_dict(tm.params_to_dict(p0.tree.params)), tiny_library)
    assert np.array_equal(rebuilt.full_mesh().facets, p0.tree.full_mesh().facets)


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
    for p in scene.placements:
        local = stl.read_stl((tmp_path / "per" / f"tree_{p.index}.stl").read_bytes())
        chunk = merged.facets[cursor: cursor + len(local)]
        offset = np.array([p.x, p.y, 0.0])
        # agreement up to float32 quantization of the baked translation
        span = np.abs(chunk[:, 1:, :]).max() + 1.0
        assert np.allclose(chunk[:, 1:, :], local.facets[:, 1:, :] + offset,
                           atol=span * 1e-6)
        cursor += len(local)
    assert cursor == len(merged)


def merged_reference(scene: fo.Scene) -> bytes:
    return ref.write_merged([p.tree.mesh.facets for p in scene.placements],
                            [(p.x, p.y) for p in scene.placements], "forest")


@pytest.mark.parametrize("run", ["one triangle", "mid-list", "one run"])
def test_merged_export_is_the_whole_scene_writer(run, tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    sizes = [len(p.tree.mesh) for p in scene.placements]
    assert len(sizes) > 3
    # a chunk of one triangle; chunks that end mid-way through trees; one chunk
    limit = {"one triangle": 1, "mid-list": sizes[0] + sizes[1] // 2, "one run": 1 << 40}[run]
    monkeypatch.setattr(fo, "_EXPORT_TRIANGLES", limit)
    count = math.ceil(sum(sizes) / limit)
    if run == "mid-list":
        assert 1 < count < len(sizes)
    else:
        assert count == {"one triangle": sum(sizes), "one run": 1}[run]
    # signed zeros in the offsets, the vertices and the kept normals, and a
    # tree whose normals are off unit length, so they are recomputed after
    # the shift
    scene.placements[0].x, scene.placements[0].y = -0.0, 0.0
    scene.placements[1].x, scene.placements[1].y = 0.0, -0.0
    facets = scene.placements[2].tree.mesh.facets
    for zeros in (facets[:, 1:, 2], facets[:, 0, :]):
        zeros[zeros == 0.0] = -0.0
        assert np.signbit(zeros[zeros == 0.0]).any()
    scene.placements[3].tree.mesh.facets[:, 0, :] *= 2.0
    fo.export_scene(scene, tmp_path, "merged")
    assert (tmp_path / fo.MERGED_NAME).read_bytes() == merged_reference(scene)


def test_write_merged_of_stage_meshes(tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    monkeypatch.setattr(fo, "_EXPORT_TRIANGLES", 1)
    meshes = [p.tree.stage_mesh("branches") for p in scene.placements]
    positions = [(p.x, p.y) for p in scene.placements]
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
    trees = [p.tree.stage_mesh("branches") for p in scene.placements]
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
    monkeypatch.setattr(fo, "_EXPORT_TRIANGLES", limit)
    assert fo.write_merged(tmp_path / "m.stl", meshes, positions, "cut") == sum(sizes)
    assert (tmp_path / "m.stl").read_bytes() == ref.write_merged(
        [m.facets for m in meshes], positions, "cut")


def test_failed_merged_export_leaves_the_previous_files(tiny_library, tmp_path, monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    fo.export_scene(scene, tmp_path, "merged")
    before = read_dir(tmp_path)
    # every triangle is a chunk of its own, so the chunks before the last are written
    monkeypatch.setattr(fo, "_EXPORT_TRIANGLES", 1)
    scene.placements[-1].tree.mesh.facets[:] = np.nan
    with pytest.raises(stl.StlError, match="non-finite"):
        fo.export_scene(scene, tmp_path, "merged")
    assert read_dir(tmp_path) == before


@pytest.mark.parametrize("fault", ["nan", "beyond"])
def test_fault_in_the_last_chunk_leaves_the_previous_files(fault, tiny_library, tmp_path,
                                                           monkeypatch):
    scene = fo.compose_forest(make_config(), tiny_library)
    fo.export_scene(scene, tmp_path, "merged")
    before = read_dir(tmp_path)
    total = len(scene.mesh)
    monkeypatch.setattr(fo, "_EXPORT_TRIANGLES", total // 3)
    assert math.ceil(total / (total // 3)) > 1
    # the last facet of the last tree is the last triangle of the file
    ref.set_fault(scene.placements[-1].tree.mesh.facets, fault, -1)
    with pytest.raises(stl.StlError, match=ref.WRITER_FAULTS[(fault,)]):
        fo.export_scene(scene, tmp_path, "merged")
    assert read_dir(tmp_path) == before


@pytest.mark.parametrize("faults, message", list(ref.WRITER_FAULTS.items()))
def test_merged_export_error_order_is_pinned(faults, message, tiny_library, tmp_path):
    scene = fo.compose_forest(make_config(), tiny_library)
    # every fault in one facet, so in one chunk however the scene is cut
    for fault in faults:
        ref.set_fault(scene.placements[1].tree.mesh.facets, fault, 3)
    with pytest.raises(stl.StlError, match=message):
        fo.export_scene(scene, tmp_path, "merged")
    assert not list(tmp_path.iterdir())


def test_merged_export_holds_one_run_at_a_time(tiny_library, tmp_path):
    config = make_config(intensity=ipp.ConstantIntensity(40.0 / 3600.0),
                         tree_params_template=tm.TreeParams(
                             branch_count=12, subbranches_per_branch=3, leaves_per_subbranch=4))
    scene = fo.compose_forest(config, tiny_library)
    chunk_bytes = fo._EXPORT_TRIANGLES * scene.mesh.facets[0].nbytes
    # the scene, and a build run, are many chunks
    assert len(scene.mesh) > 4 * fo._EXPORT_TRIANGLES
    assert tm._RUN_TRIANGLES >= 8 * fo._EXPORT_TRIANGLES
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
        return [p.tree.params.branch_count for p in scene.placements]
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
    assert {p.tree.mesh.name for p in scene.placements} == {"tree"}
    assert {p.tree.full_mesh().name for p in scene.placements} == {"tree"}


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
    jitters = [p.tree.params.jitter for p in regen.placements]
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
    st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2 ** 64 - 1),
    st.sampled_from(_SCENE_JITTERS), st.integers(0, 2 ** 25)), max_size=12)


def column_scene(trees) -> fo.Scene:
    """A scene holding only what its manifest reads: placements, params and
    triangle counts, with no meshes built."""
    config = make_config(intensity=ipp.RasterIntensity(-0.0, 5e-324, 1e16, np.array([[0.5, 1e-7]])),
                         master_seed=2 ** 64 - 1)
    placements = [
        fo.Placement(index, x, y, seed, tm.TreeModel(
            None, stl.empty_mesh("tree"),
            tm.TreeParams(branch_count=b, subbranches_per_branch=s, leaves_per_subbranch=n,
                          trunk_height=h, jitter=jitter, depth_scale_decay=d, seed=tree_seed),
            {"leaves": triangles}))
        for index, x, y, seed, b, s, n, h, d, tree_seed, jitter, triangles in trees]
    return fo.Scene(placements, config, stl.empty_mesh("trees"))


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
    st.sampled_from(_EDGE_SEEDS), st.sampled_from(_EDGE_SEEDS), edited_jitters | st.none()),
    min_size=1, max_size=6), mode=st.sampled_from(fo.EXPORT_MODES))
@settings(max_examples=40, deadline=None)
def test_regenerated_manifest_text_is_the_dict_writer(edits, mode, tiny_library):
    # a hand-edited manifest: positions, seeds and a jitter of its own per
    # tree, int-valued or not; the regenerated scene writes it as the dict
    # writer does
    manifest = fo.build_manifest(fo.compose_forest(make_config(), tiny_library), mode)
    trees = manifest["trees"][:len(edits)]
    for entry, (x, y, seed, tree_seed, jitter) in zip(trees, edits):
        entry.update(x=x, y=y, seed=seed)
        entry["params"].update(seed=tree_seed, branch_count=2, leaves_per_subbranch=1)
        if jitter is not None:
            entry["params"]["jitter"] = jitter
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
