"""Forest scenes: sampled tree locations, one stacked build, and export.

Locations come from the thinning sampler followed by the hard-core spacing
filter. Every tree is an independent rebuild: tree i is seeded with
substream i + 1 of the master seed (substream 0 drives location sampling),
so scenes are reproducible end to end. All trees of a scene are built
together by ``tree.build_trees``: each tree still walks its own turtle, and
each stage reads each tree's block of uniforms from that tree's own stream,
all trees' blocks drawn at once (``seeds.uniform_blocks``), so the random
streams are those of a tree built alone, and only the arithmetic of each
template role is stacked across trees. A scene is columns, one row per
tree: its index, location, params and row ends in the one buffer that holds
every tree's triangles, tree after tree. ``compose_forest`` makes the
columns from a config and ``regenerate_scene`` from a manifest; both build
them with ``_scene``. A tree's ``TreeModel`` is made only on demand
(``Scene.tree``).

Per-tree STL files hold the tree in its local frame (base at the origin);
the placement offset lives in the ``scene.json`` manifest, and merged export
bakes the offsets in, writing the scene a fixed number of triangles at a
time. The manifest records everything needed to rebuild the identical scene;
its tree lines are written from the scene's columns, one format per tree.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ipp
from . import stl
from . import tree as treemod
from .seeds import generators, stream_seed

MANIFEST_VERSION = 2
MANIFEST_NAME = "scene.json"
MERGED_NAME = "forest.stl"
EXPORT_MODES = ("per-tree", "merged")

# substream of a tree's own seed used for parameter jitter draws
_STREAM_PARAM_JITTER = 4


class SceneConfigError(Exception):
    """Invalid scene configuration or manifest."""


@dataclass
class ParameterJitter:
    """Optional per-tree variation; None leaves the template value alone."""

    branch_count: tuple[int, int] | None = None
    trunk_height: tuple[float, float] | None = None

    def __post_init__(self):
        if self.branch_count is not None:
            lo, hi = treemod.number_pair(self.branch_count, "branch_count jitter")
            if not (1 <= lo <= hi < math.inf):
                raise SceneConfigError("branch_count jitter must satisfy 1 <= min <= max < inf")
            # a fractional bound would be truncated by the draw
            self.branch_count = (treemod.whole_number(lo, "branch_count jitter min"),
                                 treemod.whole_number(hi, "branch_count jitter max"))
            if self.branch_count[1] >= 2 ** 63:
                raise SceneConfigError("branch_count jitter max must be below 2**63")
        if self.trunk_height is not None:
            lo, hi = treemod.number_pair(self.trunk_height, "trunk_height jitter")
            self.trunk_height = lo, hi = (treemod.real_number(lo, "trunk_height jitter min"),
                                          treemod.real_number(hi, "trunk_height jitter max"))
            if not (0 < lo <= hi < math.inf):
                raise SceneConfigError("trunk_height jitter must satisfy 0 < min <= max < inf")


@dataclass
class SceneConfig:
    region: ipp.Region
    intensity: object  # ConstantIntensity | RasterIntensity
    tree_params_template: treemod.TreeParams
    parameter_jitter: ParameterJitter | None = None
    min_spacing: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        self.min_spacing = treemod.real_number(self.min_spacing, "min_spacing")
        self.master_seed = treemod.whole_number(self.master_seed, "master_seed")
        if not math.isfinite(self.min_spacing):
            raise SceneConfigError("min_spacing must be finite")
        if self.min_spacing < 0:
            raise SceneConfigError("min_spacing must be non-negative")
        if not 0 <= self.master_seed < 2 ** 64:
            raise SceneConfigError("master_seed must fit in 64 unsigned bits")


@dataclass
class Scene:
    """The placed trees as columns, one row per tree in placement order:
    ``index`` (Python ints, as a manifest index may exceed int64), ``xy``
    ((n, 2) float64 locations), ``params`` (one TreeParams per tree, whose
    seed is the tree's seed), ``mesh`` (every tree in its local frame, tree
    after tree) and ``ends`` ((n, 4) row ends in ``mesh`` of each tree's
    trunk, branches, sub-branches and leaves, as ``tree.build_trees``
    gives them)."""

    config: SceneConfig
    index: list[int]
    xy: np.ndarray
    params: list[treemod.TreeParams]
    mesh: stl.TriangleMesh
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def triangles(self) -> list[int]:
        """Each tree's triangle count."""
        return np.diff(self.ends[:, 3], prepend=0).tolist()

    def tree(self, i: int) -> treemod.TreeModel:
        """Tree ``i`` as a TreeModel: its mesh is a view of ``mesh``, and its
        skeleton is built again from its params when it is first read."""
        i = range(len(self))[i]
        start = int(self.ends[i - 1, 3]) if i else 0
        return treemod.tree_model(self.params[i], self.mesh.facets, start, self.ends[i])


@dataclass
class SceneStats:
    tree_count: int
    total_triangles: int
    nearest_neighbor_min_distance: float


def tree_seed_for(master_seed: int, index: int) -> int:
    """Seed of tree ``index``; substream 0 is reserved for locations."""
    return stream_seed(master_seed, index + 1)


def _tree_params(config: SceneConfig, seeds: list[int]) -> list[treemod.TreeParams]:
    """The template params of each tree seed, varied by the parameter
    jitter, which each tree draws from its own substream."""
    params = [replace(config.tree_params_template, seed=seed) for seed in seeds]
    jitter = config.parameter_jitter
    if jitter is None or (jitter.branch_count is None and jitter.trunk_height is None):
        return params
    for p, rng in zip(params, generators([stream_seed(s, _STREAM_PARAM_JITTER) for s in seeds])):
        if jitter.branch_count is not None:
            lo, hi = jitter.branch_count
            p.branch_count = int(rng.integers(lo, hi + 1))
        if jitter.trunk_height is not None:
            lo, hi = jitter.trunk_height
            p.trunk_height = float(rng.uniform(lo, hi))
    return params


def compose_forest(config: SceneConfig, lib: stl.MeshLibrary) -> Scene:
    """Sample locations, then build one tree per kept location."""
    location_seed = stream_seed(config.master_seed, 0)
    pattern = ipp.sample_ipp_thinning(config.intensity, config.region, location_seed)
    pattern = ipp.min_distance_filter(pattern, config.min_spacing)
    seeds = [tree_seed_for(config.master_seed, i) for i in range(len(pattern))]
    return _scene(config, list(range(len(seeds))), pattern.points, _tree_params(config, seeds),
                  lib)


def _scene(config: SceneConfig, index: list[int], xy, params: list[treemod.TreeParams],
           lib: stl.MeshLibrary) -> Scene:
    """The scene of these columns, its trees built by ``tree.build_trees``.
    A scene too large to build, or whose placement scales overflow, is a
    fault of its config or manifest, so a SceneConfigError with the build's
    message."""
    try:
        mesh, ends = treemod.build_trees(params, lib)
    except (treemod.TriangleBudgetError, OverflowError) as exc:
        raise SceneConfigError(str(exc)) from exc
    return Scene(config, index, np.asarray(xy, dtype=np.float64).reshape(-1, 2), params, mesh,
                 ends)


def scene_stats(scene: Scene) -> SceneStats:
    """Exact aggregates over placed trees; the nearest-neighbor distance is
    ``ipp.nearest_pair_distance`` of the tree locations (+inf for fewer than
    two trees)."""
    return SceneStats(len(scene), len(scene.mesh), ipp.nearest_pair_distance(scene.xy))


# ---------------------------------------------------------------------------
# export / regeneration

def build_manifest(scene: Scene, mode: str) -> dict:
    trees = []
    for index, (x, y), params, triangles in zip(scene.index, scene.xy.tolist(), scene.params,
                                                scene.triangles()):
        trees.append({
            "index": index,
            "x": x,
            "y": y,
            "seed": params.seed,
            "params": treemod.params_to_dict(params),
            "file": f"tree_{index}.stl" if mode == "per-tree" else None,
            "triangles": triangles,
        })
    return {
        "version": MANIFEST_VERSION,
        "master_seed": scene.config.master_seed,
        "region": ipp.region_to_dict(scene.config.region),
        "intensity": ipp.intensity_to_dict(scene.config.intensity),
        "min_spacing": scene.config.min_spacing,
        "mode": mode,
        "trees": trees,
    }


def export_scene(scene: Scene, output_directory, mode: str = "per-tree") -> dict:
    """Write the scene and its manifest; returns the manifest dict.

    per-tree mode: one ``tree_<i>.stl`` per placement, in local frames.
    merged mode: a single ``forest.stl`` with every tree translated to its
    (x, y) location on the ground plane z = 0.

    A scene that cannot be written as binary STL raises, in either mode,
    before any previous file is replaced. Export deletes nothing: the files
    of a previous export that this one does not write stay.
    """
    if mode not in EXPORT_MODES:
        raise ValueError(f"unknown export mode '{mode}', expected one of {EXPORT_MODES}")
    out = Path(output_directory)
    out.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(scene, mode)
    ends = scene.ends[:, 3].tolist()
    trees = [scene.mesh.facets[a:b] for a, b in zip([0, *ends], ends)]
    if mode == "per-tree":
        # every writer check is per facet, so a pass over the scene fails
        # exactly when some tree's write would, before any file is touched
        for a in range(0, len(scene.mesh), stl.CHUNK_TRIANGLES):
            stl.write_stl(stl.TriangleMesh(scene.mesh.facets[a:a + stl.CHUNK_TRIANGLES]), "binary")
        for index, facets in zip(scene.index, trees):
            mesh = stl.TriangleMesh(facets, f"tree_{index}")
            (out / f"tree_{index}.stl").write_bytes(stl.write_stl(mesh, "binary"))
    else:
        write_merged(out / MERGED_NAME, [stl.TriangleMesh(facets) for facets in trees], scene.xy,
                     "forest")
    (out / MANIFEST_NAME).write_text(_manifest_text(scene, manifest))
    return manifest


def write_merged(path, meshes: list[stl.TriangleMesh], positions, name: str) -> int:
    """Write ``meshes`` as one binary STL named ``name`` at ``path``, each
    mesh moved by its (x, y) of ``positions`` on the ground plane; returns
    the triangle count.

    The file is the header of the whole count, then chunk k: triangles
    [k, k + 1) * stl.CHUNK_TRIANGLES of the meshes taken in order (the last
    chunk may be shorter). Each chunk is copied out of the meshes that hold
    its rows, found by their cumulative ends, shifted by each row's own
    mesh's offset, encoded and written, then dropped, so no copy of every
    mesh is ever held. The bytes are those of shifting the concatenation of
    every mesh and writing it with ``stl.write_stl``; each chunk is checked
    as ``stl.write_stl`` checks a mesh, so the first chunk that cannot be
    written gives the error. The file is written beside ``path`` and moved
    onto it once complete, so a write that fails leaves any previous file
    alone.
    """
    path = Path(path)
    sizes = np.array([len(m) for m in meshes], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(sizes.sum())
    # added to each mesh's (k, 12) rows: -0.0 leaves a normal's bits alone,
    # and +0.0 turns a vertex's -0.0 z into +0.0, as adding (x, y, 0.0) does
    shifts = np.zeros((len(meshes), 12))
    shifts[:, :3] = -0.0
    xy = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    shifts[:, 3::3] = xy[:, :1]
    shifts[:, 4::3] = xy[:, 1:]
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as f:
            f.write(stl.binary_header(name, total))
            for a in range(0, total, stl.CHUNK_TRIANGLES):
                b = min(a + stl.CHUNK_TRIANGLES, total)
                # meshes i..j hold rows a..b-1, the first and the last perhaps
                # only in part; an empty mesh holds none
                i, j = np.searchsorted(ends, (a, b - 1), side="right").tolist()
                pieces = list(meshes[i:j + 1])
                pieces[-1] = stl.TriangleMesh(pieces[-1].facets[:b - starts[j]])
                pieces[0] = stl.TriangleMesh(pieces[0].facets[a - starts[i]:])
                chunk = stl.concat_meshes(pieces, name)
                rows = chunk.facets.reshape(-1, 12)  # a view of the chunk's fresh copy
                rows += np.repeat(shifts[i:j + 1], np.minimum(ends[i:j + 1], b)
                                  - np.maximum(starts[i:j + 1], a), axis=0)
                f.write(memoryview(stl.write_stl(chunk, "binary"))[stl.HEADER_BYTES + 4:])
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return total


def _manifest_text(scene: Scene, manifest: dict) -> str:
    """The text of ``manifest``, the scene's ``build_manifest``: as
    ``json.dumps(indent=2, sort_keys=True)`` writes it, except that each
    ``"trees"`` entry is one line, indented four spaces, as ``json`` writes
    it without ``indent`` (see _tree_lines); the text ends in a newline."""
    text = json.dumps({**manifest, "trees": []}, indent=2, sort_keys=True)
    if len(scene):
        # a newline, two spaces and a quote start a top-level key and nothing else
        text = text.replace('\n  "trees": []', '\n  "trees": [\n'
                            + _tree_lines(scene, manifest["mode"]) + '\n  ]', 1)
    return text + "\n"


# a manifest tree entry, keys sorted, as json writes it without indent
_TREE_LINE = ('    {"file": %s, "index": %d, "params": %s%d%s, "seed": %d, "triangles": %d, '
              '"x": %s, "y": %s}')


def _tree_lines(scene: Scene, mode: str) -> str:
    """The manifest's tree entries, one line each, in placement order: one
    %-format per tree over the scene's columns, ints written as
    ``int.__repr__`` and floats as ``_json_floats`` write them, as ``json``
    does. The params object is formatted once per distinct block (jitter
    object, counts, trunk height and decay), with json's encoder, and cut
    around its seed, so a jitter field of any type is written as json
    writes it."""
    encode = json.JSONEncoder(sort_keys=True).encode
    blocks, heads, tails = {}, [], []
    for tp in scene.params:
        key = (id(tp.jitter), tp.branch_count, tp.subbranches_per_branch,
               tp.leaves_per_subbranch, tp.trunk_height, tp.depth_scale_decay)
        if key not in blocks:
            head, tail = encode({**treemod.params_to_dict(tp), "seed": 0}).split('"seed": 0', 1)
            blocks[key] = (head + '"seed": ', tail)
        head, tail = blocks[key]
        heads.append(head)
        tails.append(tail)
    files = ([f'"tree_{i}.stl"' for i in scene.index] if mode == "per-tree"
             else ["null"] * len(scene))
    seeds = [tp.seed for tp in scene.params]
    rows = zip(files, scene.index, heads, seeds, tails, seeds, scene.triangles(),
               _json_floats(scene.xy[:, 0].tolist()), _json_floats(scene.xy[:, 1].tolist()))
    return ",\n".join([_TREE_LINE % row for row in rows])


def _json_floats(values: list[float]) -> list[str]:
    """Each float as json writes it: ``float.__repr__``, and NaN, Infinity
    or -Infinity for a value that is not finite."""
    text = list(map(float.__repr__, values))
    if not math.isfinite(sum(values)):
        text = [t if math.isfinite(v) else json.dumps(v) for t, v in zip(text, values)]
    return text


def _parse(source, what: str, parse):
    """``parse`` applied to a JSON document: a dict, or the path of a file
    holding one. A document of any wrong shape ends in SceneConfigError."""
    if not isinstance(source, dict):
        try:
            source = json.loads(Path(source).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise SceneConfigError(f"cannot read {what}: {exc}") from exc
    try:
        return parse(source)
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SceneConfigError(f"malformed {what}: {exc}") from exc
    except ipp.IntensityError as exc:
        raise SceneConfigError(str(exc)) from exc


def _scene_config(data: dict, defaults: dict, **fields) -> SceneConfig:
    """SceneConfig from the keys a scene config and a manifest share
    (``region``, ``intensity``, ``min_spacing``, ``master_seed``; a key
    missing from ``data`` is taken from ``defaults``) plus ``fields``."""
    data = {**defaults, **data}
    return SceneConfig(region=ipp.region_from_dict(data["region"]),
                       intensity=ipp.intensity_from_dict(data["intensity"]),
                       min_spacing=data["min_spacing"], master_seed=data["master_seed"],
                       **fields)


def regenerate_scene(manifest, lib: stl.MeshLibrary) -> Scene:
    """Rebuild the exact scene recorded in a manifest (dict or path).

    Trees are rebuilt from their recorded params, not re-sampled, so the
    result re-exports bit-identically given the same library. A tree whose
    ``seed`` is not its params' seed, or whose rebuilt triangles are not its
    recorded ``triangles`` (as with another template library), is a
    SceneConfigError.
    """
    def parse(data: dict) -> Scene:
        if data.get("version") not in (1, MANIFEST_VERSION):  # 1 differs only in layout
            raise SceneConfigError(f"unsupported manifest version {data.get('version')}")
        config = _scene_config(data, {}, tree_params_template=treemod.TreeParams())
        xy, params, jitters, triangles = {}, [], {}, []  # xy by index: tree_<index>.stl
        for entry in data["trees"]:
            x = treemod.real_number(entry["x"], "tree x")
            y = treemod.real_number(entry["y"], "tree y")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SceneConfigError(f"tree {entry['index']} position must be finite")
            index = treemod.whole_number(entry["index"], "tree index")
            if index in xy:
                raise SceneConfigError(f"tree index {index} is repeated")
            seed = treemod.whole_number(entry["seed"], "tree seed")
            triangles.append(treemod.whole_number(entry["triangles"], "tree triangles"))
            xy[index] = (x, y)
            params.append(treemod.params_from_dict(entry["params"], jitters))
            # the tree is built from its params' seed: a seed of its own
            # would be written back beside a tree it did not build
            if params[-1].seed != seed:
                raise SceneConfigError(f"tree {index} seed {seed} differs from its params "
                                       f"seed {params[-1].seed}")
        scene = _scene(config, list(xy), list(xy.values()), params, lib)
        for index, recorded, built in zip(scene.index, triangles, scene.triangles()):
            if built != recorded:
                raise SceneConfigError(f"tree {index} builds {built} triangles where the "
                                       f"manifest records {recorded}: another template library?")
        return scene

    return _parse(manifest, "manifest", parse)


def load_scene_config(source) -> tuple[SceneConfig, str | None]:
    """Parse a scene config JSON (dict or path); returns the config plus the
    optional template library path named in the file."""
    def parse(data: dict) -> tuple[SceneConfig, str | None]:
        pj = data.get("parameter_jitter")
        jitter = None if pj is None else ParameterJitter(pj.get("branch_count"),
                                                         pj.get("trunk_height"))
        config = _scene_config(data, {"min_spacing": 0.0, "master_seed": 0},
                               tree_params_template=treemod.params_from_dict(data["tree_params"]),
                               parameter_jitter=jitter)
        library = data.get("library")
        if library is not None and not isinstance(library, str):
            raise SceneConfigError("scene config library must be a path string")
        return config, library

    return _parse(source, "scene config", parse)
