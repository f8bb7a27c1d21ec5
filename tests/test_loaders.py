"""Loaders of JSON documents against documents of the wrong shape.

Each test starts from a valid document, replaces one entry (or the whole
document) with an arbitrary JSON value, and requires the loader to return a
result or raise its documented error: SceneConfigError for scene configs and
manifests, IntensityError for raster files, LibraryError for template
library manifests. Numbers are small, or an integer too large for any float,
a count the stage ledger refuses before any build.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestgen import forest as fo
from forestgen import ipp, stl
from forestgen import tree as tm

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(-2.0, 12.0, allow_nan=False)
    # a small alphabet: "/", "." and NUL cover the odd file names
    | st.text(alphabet="ab./\0", max_size=4)
    # an integer no float can hold
    | st.just(10 ** 400),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), children, max_size=3),
    max_leaves=6,
)


def key_paths(doc, prefix=()):
    """Every key path into ``doc``, the empty path (the whole document) first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from key_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` set to ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


SCENE_CONFIG = {
    "master_seed": 7,
    "region": {"x_min": 0, "x_max": 10, "y_min": 0, "y_max": 10},
    "intensity": {"form": "constant", "rate": 0.05},
    "tree_params": {"branch_count": 3, "subbranches_per_branch": 1, "leaves_per_subbranch": 1,
                    "trunk_height": 6.0, "depth_scale_decay": 0.5,
                    "jitter": {"azimuth_range": 5, "pitch_range": 5, "scale_range": [0.9, 1.1]}},
    "parameter_jitter": {"branch_count": [1, 4], "trunk_height": [2, 8]},
    "min_spacing": 1.0,
    "library": "templates/library.json",
}

RASTER = {"x_min": 0, "y_min": 0, "x_max": 20, "cell_size": 10.0,
          "values": [[1.0, 2.0], [0.5, 0.0]]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@pytest.fixture(scope="module")
def manifest(tiny_library):
    config = fo.load_scene_config(SCENE_CONFIG)[0]
    config.intensity = ipp.ConstantIntensity(0.03)
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) >= 2
    return fo.build_manifest(scene, "per-tree")


@pytest.fixture(scope="module")
def library_manifest(tiny_library, workdir):
    path = stl.save_library(tiny_library, workdir / "lib")
    return path, json.loads(path.read_text())


@given(data=st.data(), value=JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_scene_config_of_any_shape(data, value, workdir):
    doc = replaced(SCENE_CONFIG, data.draw(st.sampled_from(list(key_paths(SCENE_CONFIG)))), value)
    path = workdir / "scene_config.json"
    path.write_text(json.dumps(doc))
    try:
        config, library = fo.load_scene_config(path)
    except fo.SceneConfigError:
        return
    assert isinstance(config, fo.SceneConfig)
    assert library is None or isinstance(library, str)


@given(data=st.data(), value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_manifest_of_any_shape(data, value, manifest, tiny_library, workdir):
    doc = replaced(manifest, data.draw(st.sampled_from(list(key_paths(manifest)))), value)
    path = workdir / fo.MANIFEST_NAME
    path.write_text(json.dumps(doc))
    try:
        scene = fo.regenerate_scene(path, tiny_library)
    except fo.SceneConfigError:
        return
    assert len(scene.xy) == len(scene.params) == len(scene.ends) == len(scene)
    assert all(isinstance(scene.tree(i), tm.TreeModel) for i in range(len(scene)))


@given(data=st.data(), value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_raster_file_of_any_shape(data, value, workdir):
    doc = replaced(RASTER, data.draw(st.sampled_from(list(key_paths(RASTER)))), value)
    path = workdir / "raster.json"
    path.write_text(json.dumps(doc))
    try:
        field = ipp.load_intensity(path)
    except ipp.IntensityError:
        return
    assert isinstance(field, (ipp.RasterIntensity, ipp.ConstantIntensity))


@given(data=st.data(), value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_library_manifest_of_any_shape(data, value, library_manifest):
    path, spec = library_manifest
    doc = replaced(spec, data.draw(st.sampled_from(list(key_paths(spec)))), value)
    path.write_text(json.dumps(doc))
    try:
        lib = stl.load_library(path)
    except stl.LibraryError:
        return
    assert isinstance(lib, stl.MeshLibrary)
