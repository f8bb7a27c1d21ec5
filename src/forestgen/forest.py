"""Forest scenes: sampled tree locations, one stacked build, and export.

Locations come from the thinning sampler followed by the hard-core spacing
filter. Every tree is an independent rebuild: tree i is seeded with
substream i + 1 of the master seed (substream 0 drives location sampling),
so scenes are reproducible end to end. All trees of a scene are built
together by ``tree.build_trees``: each tree still walks its own turtle and
draws its own blocks from its own generators, so the random streams are
those of a tree built alone, and only the arithmetic of each template role
is stacked across trees. The scene keeps every tree's triangles in one
buffer, tree after tree, and each tree's mesh is a view of it.

Per-tree STL files hold the tree in its local frame (base at the origin);
the placement offset lives in the ``scene.json`` manifest, and merged export
bakes the offsets in. The manifest records everything needed to rebuild the
identical scene.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import ipp
from . import stl
from . import tree as treemod
from .seeds import stream_seed

MANIFEST_VERSION = 1
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
            lo, hi = self.branch_count
            if not (1 <= lo <= hi < math.inf):
                raise SceneConfigError("branch_count jitter must satisfy 1 <= min <= max < inf")
        if self.trunk_height is not None:
            lo, hi = self.trunk_height
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
        self.min_spacing = float(self.min_spacing)
        self.master_seed = int(self.master_seed)
        if not math.isfinite(self.min_spacing):
            raise SceneConfigError("min_spacing must be finite")
        if self.min_spacing < 0:
            raise SceneConfigError("min_spacing must be non-negative")
        if not 0 <= self.master_seed < 2 ** 64:
            raise SceneConfigError("master_seed must fit in 64 unsigned bits")


@dataclass
class Placement:
    index: int
    x: float
    y: float
    seed: int
    tree: treemod.TreeModel


@dataclass
class Scene:
    placements: list[Placement]
    config: SceneConfig
    # every tree in its local frame, in placement order; each placement's
    # tree mesh is a view of it
    mesh: stl.TriangleMesh

    def __len__(self) -> int:
        return len(self.placements)


@dataclass
class SceneStats:
    tree_count: int
    total_triangles: int
    bounds: tuple[np.ndarray, np.ndarray] | None
    nearest_neighbor_min_distance: float


def tree_seed_for(master_seed: int, index: int) -> int:
    """Seed of tree ``index``; substream 0 is reserved for locations."""
    return stream_seed(master_seed, index + 1)


def _tree_params_for(config: SceneConfig, seed: int) -> treemod.TreeParams:
    params = replace(config.tree_params_template, seed=seed)
    jitter = config.parameter_jitter
    if jitter is None or (jitter.branch_count is None and jitter.trunk_height is None):
        return params
    rng = np.random.default_rng(stream_seed(seed, _STREAM_PARAM_JITTER))
    if jitter.branch_count is not None:
        lo, hi = jitter.branch_count
        params.branch_count = int(rng.integers(lo, hi + 1))
    if jitter.trunk_height is not None:
        lo, hi = jitter.trunk_height
        params.trunk_height = float(rng.uniform(lo, hi))
    return params


def compose_forest(config: SceneConfig, lib: stl.MeshLibrary) -> Scene:
    """Sample locations, then build one tree per kept location."""
    location_seed = stream_seed(config.master_seed, 0)
    pattern = ipp.sample_ipp_thinning(config.intensity, config.region, location_seed)
    pattern = ipp.min_distance_filter(pattern, config.min_spacing)
    seeds = [tree_seed_for(config.master_seed, i) for i in range(len(pattern))]
    mesh, models = _build_trees([_tree_params_for(config, s) for s in seeds], lib)
    placements = [Placement(i, x, y, seed, model) for i, ((x, y), seed, model)
                  in enumerate(zip(pattern.points.tolist(), seeds, models))]
    return Scene(placements, config, mesh)


def _build_trees(params: list[treemod.TreeParams], lib: stl.MeshLibrary):
    """``tree.build_trees``; a scene too large to build is a fault of its
    config or manifest, so a SceneConfigError with the budget's message."""
    try:
        return treemod.build_trees(params, lib)
    except treemod.TriangleBudgetError as exc:
        raise SceneConfigError(str(exc)) from exc


def scene_stats(scene: Scene) -> SceneStats:
    """Exact aggregates over placed trees; the nearest-neighbor distance is
    ``ipp.nearest_pair_distance`` of the tree locations (+inf for fewer than
    two trees)."""
    sizes = [p.tree.stage_counts["leaves"] for p in scene.placements]
    bounds = None
    if sizes:
        # each tree's vertex bounds, reduced over the scene mesh at once
        vertices = scene.mesh.facets.reshape(-1, 12)[:, 3:]
        starts = np.cumsum(sizes) - sizes
        offsets = _offsets(scene)
        lo = np.minimum.reduceat(vertices, starts).reshape(-1, 3, 3).min(axis=1) + offsets
        hi = np.maximum.reduceat(vertices, starts).reshape(-1, 3, 3).max(axis=1) + offsets
        bounds = (lo.min(axis=0), hi.max(axis=0))
    nn = ipp.nearest_pair_distance([(p.x, p.y) for p in scene.placements])
    return SceneStats(len(scene), sum(sizes), bounds, nn)


def _offsets(scene: Scene) -> np.ndarray:
    """(x, y, 0) of every tree, one row per placement."""
    return np.array([(p.x, p.y, 0.0) for p in scene.placements]).reshape(-1, 3)


# ---------------------------------------------------------------------------
# export / regeneration

def build_manifest(scene: Scene, mode: str) -> dict:
    trees = []
    for p in scene.placements:
        trees.append({
            "index": p.index,
            "x": p.x,
            "y": p.y,
            "seed": p.seed,
            "params": treemod.params_to_dict(p.tree.params),
            "file": f"tree_{p.index}.stl" if mode == "per-tree" else None,
            "triangles": p.tree.stage_counts["leaves"],
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
    """
    if mode not in EXPORT_MODES:
        raise ValueError(f"unknown export mode '{mode}', expected one of {EXPORT_MODES}")
    out = Path(output_directory)
    out.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(scene, mode)
    if mode == "per-tree":
        for p in scene.placements:
            mesh = stl.TriangleMesh(p.tree.full_mesh().facets, f"tree_{p.index}")
            (out / f"tree_{p.index}.stl").write_bytes(stl.write_stl(mesh, "binary"))
    else:
        merged = stl.concat_meshes([p.tree.full_mesh() for p in scene.placements], "forest")
        sizes = [len(p.tree.mesh) for p in scene.placements]
        merged.facets[:, 1:, :] += np.repeat(_offsets(scene), sizes, axis=0)[:, None, :]
        (out / MERGED_NAME).write_bytes(stl.write_stl(merged, "binary"))
    (out / MANIFEST_NAME).write_text(dumps_manifest(manifest))
    return manifest


def dumps_manifest(manifest: dict) -> str:
    """``json.dumps(manifest, indent=2, sort_keys=True) + "\\n"``, at close
    to the C encoder's cost.

    With ``indent`` set, ``json`` runs its pure-Python encoder, which
    spends most of a scene's manifest on the tree entries. So when every
    entry of ``"trees"`` has the shape of the first, each is written from
    one template of that shape (see _entry_template), its scalars encoded
    by the functions ``json`` itself uses; the rest of the manifest is small
    and goes through ``json.dumps``. Any other manifest, such as one with
    NaN or numpy scalars in its entries, goes through ``json.dumps`` whole.
    """
    trees = manifest.get("trees") if isinstance(manifest, dict) else None
    entries = _dumps_entries(trees) if isinstance(trees, list) and trees else None
    if entries is None:
        return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    # the rest of the manifest, with "trees" written empty: a newline, two
    # spaces and a quote start a top-level key and nothing else
    text = json.dumps({**manifest, "trees": []}, indent=2, sort_keys=True)
    return text.replace('\n  "trees": []', '\n  "trees": [\n' + entries + '\n  ]', 1) + "\n"


# a leaf of a tree entry's template, written by json as "\u0000"
_LEAF = "\x00"


def _entry_template(entry) -> tuple[str, list, list]:
    """The text ``json.dumps(indent=2, sort_keys=True)`` writes for
    ``entry`` as an item of the manifest's ``"trees"``, with ``%s`` for
    every scalar, plus the key path of every scalar in the order the text
    holds them and the key path of every dict and list, parents first."""
    leaves, containers = [], []

    def mark(value, path):
        if isinstance(value, (list, tuple)):
            containers.append(path)
            return [mark(v, path + (i,)) for i, v in enumerate(value)]
        if isinstance(value, dict):
            containers.append(path)
            return {k: mark(v, path + (k,)) for k, v in sorted(value.items())}
        leaves.append(path)
        return _LEAF

    text = json.dumps(mark(entry, ()), indent=2, sort_keys=True)
    leaf = json.dumps(_LEAF)
    if text.count(leaf) != len(leaves):
        raise ValueError("a key of the entry writes as a leaf")
    template = "    " + text.replace("\n", "\n    ").replace("%", "%%").replace(leaf, "%s")
    return template, leaves, containers


def _dumps_entries(trees: list) -> str | None:
    """The items of ``"trees"`` as json writes them inside the manifest,
    joined; None when an entry differs in shape from the first (a key set,
    a list length or a container type), when the entries hold no scalar,
    or when a key path's values are not all of one type that
    _json_scalars encodes."""
    try:
        template, leaves, containers = _entry_template(trees[0])
        # one column per key path: its value in every entry, in entry order
        columns = {(): trees}
        for path in containers[1:] + leaves:
            columns[path] = [value[path[-1]] for value in columns[path[:-1]]]
        for path in containers:
            column = columns[path]
            kind, size = type(column[0]), len(column[0])
            if not all(type(value) is kind and len(value) == size for value in column):
                return None
        scalars = [_json_scalars(columns[path]) for path in leaves]
    except (LookupError, TypeError, ValueError):
        return None
    if not scalars or any(column is None for column in scalars):
        return None
    return ",\n".join(map(template.__mod__, zip(*scalars)))


# json's own encoders of the scalars a manifest holds
_SCALAR_ENCODERS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
                    type(None): lambda _: "null"}


def _json_scalars(column: list) -> list[str] | None:
    """Each value of ``column`` as ``json.dumps`` writes it, when all are
    finite floats, or all ints, strings or None; otherwise None."""
    kinds = set(map(type, column))
    encode = _SCALAR_ENCODERS.get(kinds.pop()) if len(kinds) == 1 else None
    if encode is None or (encode is float.__repr__ and not all(map(math.isfinite, column))):
        return None
    return list(map(encode, column))


def _parse(source, what: str, parse):
    """``parse`` applied to a JSON document: a dict, or the path of a file
    holding one. A document of any wrong shape ends in SceneConfigError."""
    if not isinstance(source, dict):
        try:
            source = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SceneConfigError(f"cannot read {what}: {exc}") from exc
    try:
        return parse(source)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
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

    Trees are rebuilt from their recorded params and seeds, not re-sampled,
    so the result re-exports bit-identically given the same library.
    """
    def parse(data: dict) -> Scene:
        if data.get("version") != MANIFEST_VERSION:
            raise SceneConfigError(f"unsupported manifest version {data.get('version')}")
        config = _scene_config(data, {}, tree_params_template=treemod.TreeParams())
        entries, jitters = [], {}
        for entry in data["trees"]:
            x, y = float(entry["x"]), float(entry["y"])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SceneConfigError(f"tree {entry['index']} position must be finite")
            entries.append((int(entry["index"]), x, y, int(entry["seed"]),
                            treemod.params_from_dict(entry["params"], jitters)))
        mesh, models = _build_trees([e[4] for e in entries], lib)
        placements = [Placement(*e[:4], model) for e, model in zip(entries, models)]
        return Scene(placements, config, mesh)

    return _parse(manifest, "manifest", parse)


def load_scene_config(source) -> tuple[SceneConfig, str | None]:
    """Parse a scene config JSON (dict or path); returns the config plus the
    optional template library path named in the file."""
    def parse(data: dict) -> tuple[SceneConfig, str | None]:
        jitter = None
        if data.get("parameter_jitter"):
            pj = data["parameter_jitter"]
            jitter = ParameterJitter(
                branch_count=tuple(pj["branch_count"]) if pj.get("branch_count") else None,
                trunk_height=tuple(pj["trunk_height"]) if pj.get("trunk_height") else None,
            )
        config = _scene_config(data, {"min_spacing": 0.0, "master_seed": 0},
                               tree_params_template=treemod.params_from_dict(data["tree_params"]),
                               parameter_jitter=jitter)
        library = data.get("library")
        if library is not None and not isinstance(library, str):
            raise SceneConfigError("scene config library must be a path string")
        return config, library

    return _parse(source, "scene config", parse)
