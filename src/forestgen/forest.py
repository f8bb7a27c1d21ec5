"""Forest scenes: sampled tree locations, one stacked build, and export.

Locations come from the thinning sampler followed by the hard-core spacing
filter. Every tree is an independent rebuild: tree i is seeded with
substream i + 1 of the master seed (substream 0 drives location sampling),
so scenes are reproducible end to end. All trees of a scene are built
together by ``tree.build_trees``: each stage reads each tree's block of
uniforms from that tree's own stream, all trees' blocks drawn at once
(``seeds.uniform_blocks``), so the random streams are those of a tree built
alone, and only the arithmetic of each template role is stacked across
trees. A scene is columns, one row per
tree: its index, location, params (a ``tree.ParamsTable``) and row ends in
the one buffer that holds every tree's triangles, tree after tree.
``compose_forest`` makes the columns from a config, broadcasting its
template params and then drawing the parameter jitter column by column;
``regenerate_scene`` reads them from a manifest a column at a time, each
column checked at once. Both build them with ``_scene``. A tree's
``TreeParams`` and ``TreeModel`` are made only on demand (``Scene.tree``).

Per-tree STL files hold the tree in its local frame (base at the origin);
the placement offset lives in the ``scene.json`` manifest, and merged export
bakes the offsets in, writing the scene a fixed number of triangles at a
time. The manifest records everything needed to rebuild the identical scene;
its tree lines are written from the scene's columns, one format per tree,
with each block of params encoded once.
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
from .seeds import generators, stream_seed, stream_seeds

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
    ((n, 2) float64 locations), ``params`` (a ``tree.ParamsTable``, whose
    seeds are the trees' seeds), ``mesh`` (every tree in its local frame,
    tree after tree) and ``ends`` ((n, 4) row ends in ``mesh`` of each
    tree's trunk, branches, sub-branches and leaves, as ``tree.build_trees``
    gives them)."""

    config: SceneConfig
    index: list[int]
    xy: np.ndarray
    params: treemod.ParamsTable
    mesh: stl.TriangleMesh
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def triangles(self) -> list[int]:
        """Each tree's triangle count."""
        return np.diff(self.ends[:, 3], prepend=0).tolist()

    def tree(self, i: int) -> treemod.TreeModel:
        """Tree ``i`` as a TreeModel: its mesh is a view of ``mesh``, and its
        skeleton is built again from its params (``params.row(i)``) when it is
        first read."""
        i = range(len(self))[i]
        start = int(self.ends[i - 1, 3]) if i else 0
        return treemod.tree_model(self.params.row(i), self.mesh.facets, start, self.ends[i])


@dataclass
class SceneStats:
    tree_count: int
    total_triangles: int
    nearest_neighbor_min_distance: float


def _tree_table(config: SceneConfig, seeds: np.ndarray) -> treemod.ParamsTable:
    """The params of each tree seed: the template's, one block for every
    tree, then varied by the parameter jitter column by column, each tree
    drawing from its own substream, and each jittered tree a block of its
    own."""
    n = len(seeds)
    table = replace(treemod.ParamsTable.of([config.tree_params_template])[np.zeros(n, int)],
                    seed=seeds)
    jitter = config.parameter_jitter
    if jitter is None or (jitter.branch_count is None and jitter.trunk_height is None):
        return table
    counts, heights = table.branch_count.copy(), table.trunk_height.copy()
    for i, rng in enumerate(generators(stream_seeds(seeds, _STREAM_PARAM_JITTER).tolist())):
        if jitter.branch_count is not None:
            lo, hi = jitter.branch_count
            counts[i] = rng.integers(lo, hi + 1)
        if jitter.trunk_height is not None:
            lo, hi = jitter.trunk_height
            heights[i] = rng.uniform(lo, hi)
    return replace(table, branch_count=counts, trunk_height=heights, block_id=np.arange(n),
                   block_ranges=table.ranges())


def compose_forest(config: SceneConfig, lib: stl.MeshLibrary) -> Scene:
    """Sample locations, then build one tree per kept location."""
    location_seed = stream_seed(config.master_seed, 0)
    pattern = ipp.sample_ipp_thinning(config.intensity, config.region, location_seed)
    pattern = ipp.min_distance_filter(pattern, config.min_spacing)
    # tree i's seed is substream i + 1; substream 0 is reserved for locations
    seeds = stream_seeds(config.master_seed, np.arange(1, len(pattern) + 1))
    return _scene(config, list(range(len(seeds))), pattern.points, _tree_table(config, seeds),
                  lib)


def _scene(config: SceneConfig, index: list[int], xy, params: treemod.ParamsTable,
           lib: stl.MeshLibrary) -> Scene:
    """The scene of these columns, its trees built by ``tree.build_trees``.
    A scene too large to build, or whose lengths or placement scales
    overflow or underflow, is a fault of its config or manifest, so a
    SceneConfigError with the build's message."""
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
    for index, (x, y), params, triangles in zip(scene.index, scene.xy.tolist(),
                                                scene.params.dicts(), scene.triangles()):
        trees.append({
            "index": index,
            "x": x,
            "y": y,
            "seed": params["seed"],
            "params": params,
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
    facets, ends = scene.mesh.facets, scene.ends[:, 3].tolist()
    if mode == "per-tree":
        # every writer check is per facet, so a pass over the scene fails
        # exactly when some tree's write would, before any file is touched
        for a in range(0, len(facets), stl.CHUNK_TRIANGLES):
            stl.write_stl(stl.TriangleMesh(facets[a:a + stl.CHUNK_TRIANGLES]), "binary")
        for index, a, b in zip(scene.index, [0, *ends], ends):
            mesh = stl.TriangleMesh(facets[a:b], f"tree_{index}")
            (out / f"tree_{index}.stl").write_bytes(stl.write_stl(mesh, "binary"))
    else:
        write_merged(out / MERGED_NAME, facets, ends, scene.xy, "forest")
    (out / MANIFEST_NAME).write_text(_manifest_text(scene, manifest))
    return manifest


def write_merged(path, facets: np.ndarray, ends, positions, name: str) -> int:
    """Write meshes held one after another in ``facets`` as one binary STL
    named ``name`` at ``path``, each mesh moved by its (x, y) of
    ``positions`` on the ground plane; returns the triangle count. ``ends``
    are the meshes' cumulative row ends in ``facets`` (``scene.ends[:, 3]``
    for a scene), so mesh i is rows ``ends[i - 1]`` to ``ends[i]``, and the
    last end is the triangle count.

    The file is the header of the whole count, then chunk k: rows
    [k, k + 1) * stl.CHUNK_TRIANGLES of ``facets`` (the last chunk may be
    shorter). Each chunk is copied out of ``facets``, shifted by each row's
    own mesh's offset (the meshes that hold its rows are found by their
    ends), encoded and written, then dropped, so no shifted copy of every
    mesh is ever held. The bytes are those of shifting every mesh and
    writing them with ``stl.write_stl``; each chunk is checked as
    ``stl.write_stl`` checks a mesh, so the first chunk that cannot be
    written gives the error. The file is written beside ``path`` and moved
    onto it once complete, so a write that fails leaves any previous file
    alone.
    """
    path = Path(path)
    ends = np.asarray(ends, dtype=np.int64)
    bounds = np.concatenate(([0], ends))  # mesh i is rows bounds[i]:bounds[i + 1]
    total = int(bounds[-1])
    # added to each mesh's (k, 12) rows: -0.0 leaves a normal's bits alone,
    # and +0.0 turns a vertex's -0.0 z into +0.0, as adding (x, y, 0.0) does
    shifts = np.zeros((len(ends), 12))
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
                chunk = stl.concat_meshes([stl.TriangleMesh(facets[a:b])], name)
                rows = chunk.facets.reshape(-1, 12)  # a view of the chunk's fresh copy
                rows += np.repeat(shifts[i:j + 1], np.diff(bounds[i:j + 2].clip(a, b)), axis=0)
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
    does. The params object is formatted once per block of the params
    table, with json's encoder, and cut around its seed, so each field is
    written as json writes it."""
    encode = json.JSONEncoder(sort_keys=True).encode
    table = scene.params
    blocks, first = np.unique(table.block_id, return_index=True)
    heads, tails = (np.empty(len(table.block_ranges), dtype=object) for _ in range(2))
    for block, params in zip(blocks.tolist(), table[first].dicts()):
        head, tail = encode({**params, "seed": 0}).split('"seed": 0', 1)
        heads[block], tails[block] = head + '"seed": ', tail
    files = ([f'"tree_{i}.stl"' for i in scene.index] if mode == "per-tree"
             else ["null"] * len(scene))
    seeds = table.seed.tolist()
    rows = zip(files, scene.index, heads[table.block_id], seeds, tails[table.block_id], seeds,
               scene.triangles(), _json_floats(scene.xy[:, 0].tolist()),
               _json_floats(scene.xy[:, 1].tolist()))
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
    except KeyError as exc:
        raise SceneConfigError(f"malformed {what}: missing key {exc}") from exc
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
        _check_keys(data, _MANIFEST_KEYS, "manifest")
        config = _scene_config(data, {}, tree_params_template=treemod.TreeParams())
        trees = data["trees"]
        xy = np.column_stack([treemod.column([entry[key] for entry in trees], f"tree {key}",
                                             np.float64) for key in "xy"]).reshape(-1, 2)
        finite = np.isfinite(xy).all(axis=1)
        if not finite.all():
            raise SceneConfigError(f"tree {trees[int(np.argmin(finite))]['index']} position "
                                   f"must be finite")
        # Python ints: a manifest index, seed or count may exceed int64
        index, seeds, triangles = (
            treemod.column([entry[key] for entry in trees], f"tree {key}", object).tolist()
            for key in ("index", "seed", "triangles"))
        if len(set(index)) < len(index):  # two trees would write one tree_<index>.stl
            repeated = next(i for n, i in enumerate(index) if i in index[:n])
            raise SceneConfigError(f"tree index {repeated} is repeated")
        params = treemod.ParamsTable.from_dicts([entry["params"] for entry in trees])
        # the tree is built from its params' seed: a seed of its own
        # would be written back beside a tree it did not build
        for i, (seed, own) in enumerate(zip(seeds, params.seed.tolist())):
            if seed != own:
                raise SceneConfigError(f"tree {index[i]} seed {seed} differs from its params "
                                       f"seed {own}")
        scene = _scene(config, index, xy, params, lib)
        for index, recorded, built in zip(scene.index, triangles, scene.triangles()):
            if built != recorded:
                raise SceneConfigError(f"tree {index} builds {built} triangles where the "
                                       f"manifest records {recorded}: another template library?")
        return scene

    return _parse(manifest, "manifest", parse)


# the (required, optional) keys of each object of a scene config, by key
# path; an intensity's keys are those of its form
_CONFIG_KEYS = {
    "": ("region intensity tree_params", "parameter_jitter min_spacing master_seed library"),
    "region": ("x_min x_max y_min y_max", ""),
    **{f"intensity.{form}": keys for form, keys in ipp.INTENSITY_KEYS.items()},
    "tree_params": ("branch_count trunk_height",
                    "subbranches_per_branch leaves_per_subbranch depth_scale_decay jitter"),
    "tree_params.jitter": ("", "azimuth_range pitch_range scale_range"),
    "parameter_jitter": ("", "branch_count trunk_height"),
}

# the keys of each object of a manifest, as _CONFIG_KEYS; "trees[]" is each
# tree entry. A key a tree entry or its params lack is named by the parse.
_MANIFEST_KEYS = {
    "": ("", "version master_seed region intensity min_spacing mode trees"),
    **{row: keys for row, keys in _CONFIG_KEYS.items() if row.startswith(("region", "intensity"))},
    "trees[]": ("", "index x y seed params file triangles"),
    "trees[].params": ("", " ".join(_CONFIG_KEYS["tree_params"]) + " seed"),
    "trees[].params.jitter": _CONFIG_KEYS["tree_params.jitter"],
}


def _check_keys(data: dict, tables: dict, what: str):
    """Refuse a document, the ``what``, with a key that ``tables`` does not
    know for its object, naming its path and the closest known key, or
    without a key its object needs. ``tables`` holds each object's
    (required, optional) keys by key path; an entry of a list at path P is
    checked by the row P[], and named by its index (``trees[3].x``).
    Objects are checked from the top down, a row at a time, each object's
    unknown keys first. The objects of one row, such as the entries of a
    list, are checked together by the union of their keys, and one by one
    only when the union finds a fault, so that the first object at fault
    is named. An object of a wrong type, or an intensity of an unknown
    form, is left to the parse."""
    known = {row: set(" ".join(keys).split()) for row, keys in tables.items()}
    # the key paths at or above some row of tables
    nodes = {row[:i] for row in tables for i, ch in enumerate(row) if ch in ".["} | set(tables)
    batches = [("", [("", data)] if isinstance(data, dict) else [])]  # (row, [(path, object)])
    for row, objects in batches:  # grows as it is walked
        keys, required = set().union(*[value for _, value in objects]), tables[row][0]
        if not keys <= known[row] or required and any(
                key not in value for _, value in objects for key in required.split()):
            for path, value in objects:
                prefix = f"{path}." if path else ""
                if not value.keys() <= known[row]:
                    key, hint = stl.unknown_key(value, tables[row])
                    raise SceneConfigError(f"unknown key {prefix}{key} in {what}{hint}")
                missing = [key for key in required.split() if key not in value]
                if missing:
                    raise SceneConfigError(f"malformed {what}: missing key {prefix}{missing[0]}")
        at = f"{row}." if row else ""
        # one object's keys in its own order, several objects' sorted
        for key in objects[0][1] if len(objects) == 1 else sorted(keys):
            if at + key not in nodes:
                continue
            children = [(f"{path}.{key}" if path else key, value[key])
                        for path, value in objects if key in value]
            if f"{at}{key}[]" in tables:
                batches.append((f"{at}{key}[]", [
                    (f"{path}[{i}]", entry) for path, child in children
                    if isinstance(child, list) for i, entry in enumerate(child)
                    if isinstance(entry, dict)]))
                continue
            forms = {}  # an intensity's row is its form's
            for path, child in children:
                if isinstance(child, dict):
                    form = at + key if at + key in tables else f"{at}{key}.{child.get('form')}"
                    forms.setdefault(form, []).append((path, child))
            batches += [(form, batch) for form, batch in forms.items() if form in tables]


def load_scene_config(source) -> tuple[SceneConfig, str | None]:
    """Parse a scene config JSON (dict or path); returns the config plus the
    optional template library path named in the file. A key the config
    does not know, or one it needs and lacks, is a SceneConfigError naming
    its path (``_check_keys``)."""
    def parse(data: dict) -> tuple[SceneConfig, str | None]:
        _check_keys(data, _CONFIG_KEYS, "scene config")
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
