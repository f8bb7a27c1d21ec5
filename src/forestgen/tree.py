"""Staged tree assembly: skeleton, trunk+branches, +sub-branches, +leaves.

A tree is assembled by instancing template meshes onto a skeleton produced
by turtle interpretation of a synthesized derivation string. A tree is one
mesh, trunk first, then branches, sub-branches and leaves, so every stage
mesh is a prefix of it, cut at the stage's count in this exact ledger:

    branches     = trunk_tris + branch_count * branch_tris
    subbranches  = branches + branch_count * subs_per_branch * sub_tris
    leaves       = subbranches + leaf_anchor_count * leaves_each * leaf_tris

Randomness is split into one substream per stage (skeleton, branches,
sub-branches, leaves), so e.g. requesting leaves never perturbs the branch
geometry of an otherwise identical build. A stage draws every tree's block
at once (``seeds.uniform_blocks``) and hands the stacked blocks to
``lsystem.interpret_turtle(texts, cfgs, trunk_specs, uniforms)`` or
``transform.random_attachment_transform(frames, jitter, uniforms)``.

The ledger needs only the params and the template sizes, so ``build_trees``
sizes the buffer of a whole stack of trees (a scene) before placing
anything: each tree's block is the sum of its ledger, blocks follow each
other tree after tree, and within a block the trunk, branch, sub-branch and
leaf instances follow each other. The skeletons of the trees are placed as
one stack, and each template role is placed for every tree at once and
copied into its slots, so a tree's mesh is a contiguous view of the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lsystem as lsys
from . import stl
from . import transform as tf
from .seeds import stream_seed, uniform_blocks

STAGES = ("skeleton", "branches", "subbranches", "leaves")

# substream indices of TreeParams.seed
_STREAM_SKELETON = 0
_STREAM_BRANCHES = 1
_STREAM_SUBBRANCHES = 2
_STREAM_LEAVES = 3

# leaf anchors cover the distal portion of their parent axis
_LEAF_STATION_LO = 0.30
# leaf template extent relative to the parent node length
_LEAF_FRACTION = 0.25
# skeleton export: segment width relative to the segment length
_SEGMENT_WIDTH = 0.02

# the largest float32: _place refuses a jittered scale that takes a template
# beyond it
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# a trunk stands upright: its rotation, repeated once per tree
_EYE = np.eye(3)[None]

# build_trees places each role over a run of trees (see ``runs``) that closes
# once it holds this many triangles, so a role's temporaries stay small and
# near the cache. Scenes below the count are one run. On a 2-vCPU host a
# 505-tree, 3.3 M-triangle scene took 1.0 s and peaked at 355 MB this way,
# against 1.3-1.5 s and 613 MB as one run. Merged export cuts its own,
# smaller chunks (forest._EXPORT_TRIANGLES).
_RUN_TRIANGLES = 1 << 17

# build_trees refuses a tree or scene whose stage ledger exceeds this many
# triangles, about 3.2 GB of float64 facets: ten times the 3.3 M-triangle
# normal scene (505 trees of 16 branches), and more than a small host holds.
MAX_TRIANGLES = 1 << 25


class TriangleBudgetError(ValueError):
    """A tree or a stack of trees whose stage ledger exceeds MAX_TRIANGLES."""


_DEFAULT_JITTER = tf.AngleJitterParams(
    azimuth_range=10.0, pitch_range=10.0, scale_range=(0.85, 1.15))


def whole_number(value, name: str) -> int:
    """``int(value)``, refusing a number with a fractional part, which
    ``int`` would truncate, and a boolean, which is no count; a string is
    parsed by ``int`` as before."""
    if type(value) is int:
        return value
    number = int(value)
    if isinstance(value, (bool, np.bool_)) or (number != value and not isinstance(value, str)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return number


@dataclass
class TreeParams:
    branch_count: int = 8
    subbranches_per_branch: int = 3
    leaves_per_subbranch: int = 5
    trunk_height: float = 10.0
    jitter: tf.AngleJitterParams = field(default_factory=lambda: _DEFAULT_JITTER)
    depth_scale_decay: float = 0.5
    seed: int = 0

    def __post_init__(self):
        self.branch_count = whole_number(self.branch_count, "branch_count")
        self.subbranches_per_branch = whole_number(self.subbranches_per_branch,
                                                   "subbranches_per_branch")
        self.leaves_per_subbranch = whole_number(self.leaves_per_subbranch, "leaves_per_subbranch")
        self.trunk_height = float(self.trunk_height)
        self.depth_scale_decay = float(self.depth_scale_decay)
        self.seed = whole_number(self.seed, "seed")
        if self.branch_count < 1:
            raise ValueError("branch_count must be at least 1")
        if self.subbranches_per_branch < 0 or self.leaves_per_subbranch < 0:
            raise ValueError("per-level counts must be non-negative")
        if not math.isfinite(self.trunk_height):
            raise ValueError("trunk_height must be finite")
        if self.trunk_height <= 0.0:
            raise ValueError("trunk_height must be positive")
        if not 0.0 < self.depth_scale_decay <= 1.0:
            raise ValueError("depth_scale_decay must be in (0, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class TreeModel:
    skeleton: lsys.Skeleton
    mesh: stl.TriangleMesh            # trunk, branches, sub-branches, leaves
    params: TreeParams
    stage_counts: dict = field(default_factory=dict)  # triangle count after each stage

    @property
    def leaf_centroids(self) -> np.ndarray:
        """(n_leaves, 3): the centroid of every leaf triangle, in mesh order."""
        leaves = self.mesh.facets[self.stage_counts["subbranches"]:]
        return stl.triangle_centroids(stl.TriangleMesh(leaves, "leaves"))

    def stage_mesh(self, stage: str) -> stl.TriangleMesh:
        """The skeleton as segments, or the mesh after a placement stage: a
        prefix view of ``mesh``, not a copy."""
        if stage == "skeleton":
            return skeleton_to_mesh(self.skeleton)
        if stage == "leaves":
            return self.full_mesh()
        if stage not in STAGES:
            raise ValueError(f"unknown stage '{stage}', expected one of {STAGES}")
        return stl.TriangleMesh(self.mesh.facets[: self.stage_counts[stage]], self.mesh.name)

    def full_mesh(self) -> stl.TriangleMesh:
        """Every triangle of the tree, as a view of ``mesh``."""
        return stl.TriangleMesh(self.mesh.facets, self.mesh.name)


def synthesize_derivation(branch_count: int, subbranches_per_branch: int) -> str:
    """Derivation equivalent to the printed production patterns for an
    arbitrary branch count: first-level branches separated by unclosed '['
    (sibling separators), each followed by an explicit [d...d] child group
    when sub-branches are requested."""
    group = "[" + lsys.BRANCH_SYMBOL * subbranches_per_branch + "]" if subbranches_per_branch else ""
    chunk = lsys.BRANCH_SYMBOL + group
    return "[".join([chunk] * branch_count)


def turtle_config_for(params: TreeParams) -> lsys.TurtleConfig:
    return lsys.TurtleConfig(
        step_length=params.trunk_height * params.depth_scale_decay,
        yaw_angle=360.0 / params.branch_count,
        branch_pitch=40.0,
        jitter_range=params.jitter.azimuth_range,
    )


def build_skeleton(params: TreeParams | list[TreeParams]) -> lsys.Skeleton:
    """Skeleton with exactly branch_count depth-1 nodes and
    branch_count * subbranches_per_branch depth-2 nodes.

    A list of params gives the stack of their skeletons, tree after tree,
    as ``lsystem.interpret_turtle`` stacks them; each tree reads its own
    block of its own skeleton stream, so ``Skeleton.trees`` gives each
    tree's skeleton alone.
    """
    stack = [params] if isinstance(params, TreeParams) else params
    texts = [synthesize_derivation(p.branch_count, p.subbranches_per_branch) for p in stack]
    configs = [turtle_config_for(p) for p in stack]
    # a jittered tree reads one (azimuth, station) row per branch symbol
    counts = [lsys.count_branch_symbols(text) if cfg.jitter_range > 0 else 0
              for text, cfg in zip(texts, configs)]
    uniforms = uniform_blocks([stream_seed(p.seed, _STREAM_SKELETON) for p in stack], counts, 2)
    skeleton = lsys.interpret_turtle(texts, configs,
                                     [(p.trunk_height, (0.0, 0.0, 0.0)) for p in stack], uniforms)
    # the derivation nests one group deep, so depth 2 is the only decayed one
    decayed = (skeleton.depths == 2).nonzero()[0]
    if len(decayed):
        tree_of = np.cumsum(skeleton.depths == 0) - 1
        decay = np.array([p.depth_scale_decay for p in stack])
        skeleton.lengths[decayed] *= decay[tree_of[decayed]]
    return skeleton


def _frames(skeleton: lsys.Skeleton, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attachment points (k, 3), directions (k, 3) and lengths (k,) of the
    node rows ``nodes`` (``take`` is the cheap gather on few rows)."""
    return (skeleton.points.take(nodes, 0), skeleton.directions.take(nodes, 0),
            skeleton.lengths[nodes])


def _instances(p: TreeParams) -> tuple[int, int, int, int]:
    """Instances of each role in ``stl.LIBRARY_ROLES`` order: the stage
    ledger before it is multiplied by template sizes. The trunk, branch and
    sub-branch counts are also the tree's skeleton rows."""
    b, s, leaves = p.branch_count, p.subbranches_per_branch, p.leaves_per_subbranch
    return 1, b, b * s, (b * s if s else b) * leaves


def _instance_counts(params: list[TreeParams]) -> np.ndarray:
    """``_instances`` of each tree, one row per tree."""
    return np.array([_instances(p) for p in params], dtype=np.int64).reshape(-1, 4)


def _place(lib: stl.MeshLibrary, role: str, points: np.ndarray, directions: np.ndarray,
           lengths: np.ndarray, params: list[TreeParams], counts: np.ndarray,
           stream: int) -> stl.TriangleMesh:
    """One instance of a template role per frame, all from one stacked
    transform, each scaled to length / template extent on top of its jittered
    scale; instances are concatenated in frame order.

    The frames come tree after tree, ``counts[i]`` of them from tree i. Each
    tree reads its (counts[i], 3) block of uniforms from its own ``stream``
    and jitters within its own ranges, as it would alone. A placement scale
    that overflows, or whose jitter takes the template beyond the float32
    range of binary STL, is an OverflowError.
    """
    uniforms = uniform_blocks([stream_seed(p.seed, stream) for p in params], counts.tolist(), 3)
    jitter = params[0].jitter
    if any(p.jitter is not jitter and p.jitter != jitter for p in params):
        # trees of a hand-edited manifest may each have their own ranges
        ranges = np.repeat([(p.jitter.azimuth_range, p.jitter.pitch_range, *p.jitter.scale_range)
                            for p in params], counts, axis=0)
        jitter = tf.AngleJitterParams(ranges[:, 0], ranges[:, 1], (ranges[:, 2], ranges[:, 3]))
    t = tf.random_attachment_transform((points, directions), jitter, uniforms)
    template = lib.template(role)
    radius = np.sqrt((template.vertices ** 2).sum(axis=-1).max())
    with np.errstate(over="ignore"):
        size = lengths / lib.extent(role)
        scale = t.scale * size
        # the jitter takes a template vertex beyond float32 where the unjittered
        # instance stays within it (a tree too large is the STL writer's error)
        too_far = (scale * radius > _FLOAT32_MAX) & (size * radius <= _FLOAT32_MAX)
    if not np.isfinite(scale).all() or too_far.any():
        raise OverflowError(f"a {role} placement scale overflows or leaves the float32 range "
                            f"of binary STL: scale_range is too large")
    t = tf.RigidTransform(t.rotation, t.translation, scale)
    return tf.apply_to_mesh(t, template)


# The stage functions place one role over a stack of trees: ``skeleton``
# holds the nodes of every tree of ``params``, tree after tree (one tree's
# skeleton alone, or the stack ``build_trees`` makes), and each role's
# instances come out tree after tree.

def attach_branches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                    params: list[TreeParams]) -> tuple[stl.TriangleMesh, stl.TriangleMesh]:
    """The trunk template of each tree, and one branch instance per depth-1
    node."""
    points, _, lengths = _frames(skeleton, skeleton.at_depth(0))
    trunk_t = tf.RigidTransform(np.repeat(_EYE, len(points), axis=0), points,
                                lengths / lib.extent("trunk"))
    trunks = tf.apply_to_mesh(trunk_t, lib.trunk)
    branches = _place(lib, "branch", *_frames(skeleton, skeleton.at_depth(1)), params,
                      _instance_counts(params)[:, 1], _STREAM_BRANCHES)
    return trunks, branches


def attach_subbranches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                       params: list[TreeParams]) -> stl.TriangleMesh:
    """One sub-branch instance per depth-2 node; node lengths already carry
    the per-depth scale decay."""
    nodes = skeleton.at_depth(2)
    if not len(nodes):
        return stl.empty_mesh("sub_branch")
    return _place(lib, "sub_branch", *_frames(skeleton, nodes), params,
                  _instance_counts(params)[:, 2], _STREAM_SUBBRANCHES)


def attach_leaves(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                  params: list[TreeParams]) -> stl.TriangleMesh:
    """Leaf instances along the distal portion of each anchor axis.

    Anchors are the depth-2 nodes, falling back to depth-1 branches when the
    tree has no sub-branches. Leaves are placed anchor by anchor, stations
    ascending within an anchor.
    """
    if not any(p.leaves_per_subbranch for p in params):
        return stl.empty_mesh("leaf")
    counts = _instance_counts(params)
    each = np.array([p.leaves_per_subbranch for p in params], dtype=np.int64)
    anchor_depth = np.where(each > 0, np.where(counts[:, 2] > 0, 2, 1), -1)
    anchors = (skeleton.depths == np.repeat(anchor_depth, counts[:, :3].sum(1))).nonzero()[0]
    points, directions, lengths = _frames(skeleton, anchors)
    # every anchor of tree i carries each[i] leaves
    per_anchor = np.repeat(each, counts[:, 3] // np.maximum(each, 1))
    count = np.repeat(per_anchor, per_anchor)
    station = np.arange(len(count)) - np.repeat(np.cumsum(per_anchor) - per_anchor, per_anchor)
    stations = _LEAF_STATION_LO + (1.0 - _LEAF_STATION_LO) * (station + 1) / count
    lengths = np.repeat(lengths, per_anchor)
    directions = np.repeat(directions, per_anchor, axis=0)
    offsets = (stations * lengths)[:, None] * directions
    return _place(lib, "leaf", np.repeat(points, per_anchor, axis=0) + offsets,
                  directions, _LEAF_FRACTION * lengths, params, counts[:, 3], _STREAM_LEAVES)


def _scatter(facets: np.ndarray, mesh: stl.TriangleMesh, starts: list[int], sizes: list[int]):
    """Copy the blocks of ``mesh``, ``sizes[i]`` rows of tree i, tree after
    tree, to rows ``starts[i]`` onward of ``facets``. Block copies beat one
    fancy-indexed copy at every scene size."""
    if len(mesh):
        at = 0
        for start, size in zip(starts, sizes):
            facets[start:start + size] = mesh.facets[at:at + size]
            at += size


def build_trees(params: list[TreeParams],
                lib: stl.MeshLibrary) -> tuple[stl.TriangleMesh, list[TreeModel]]:
    """Build a stack of trees, such as every tree of a scene, together.

    Each tree's turtle walk and per-stage draws come from its own
    streams, so each tree is the tree ``build_tree`` gives alone; the
    skeletons of a run of trees (see ``runs``) are placed as one
    stack, and each template role by one stacked transform over the run.
    Returns the scene mesh, every tree's triangles tree after tree, and one
    TreeModel per params whose mesh and skeleton are views of the stacks.
    A stack whose ledger totals more than MAX_TRIANGLES is a
    TriangleBudgetError, raised before anything is allocated; a jittered
    scale too large to place is an OverflowError.
    """
    template_sizes = [len(lib.template(r)) for r in stl.LIBRARY_ROLES]
    # the ledger in Python integers, before any array can overflow or allocate
    total = sum(k * size for p in params for k, size in zip(_instances(p), template_sizes))
    if total > MAX_TRIANGLES:
        raise TriangleBudgetError(f"the stage ledger needs {total} triangles, more than the "
                                  f"budget of {MAX_TRIANGLES} (forestgen.tree.MAX_TRIANGLES)")
    # rows of each (tree, role) block, laid out tree after tree
    sizes = _instance_counts(params) * template_sizes
    ends = sizes.cumsum().reshape(sizes.shape)
    facets = np.empty((int(ends[-1, -1]) if len(params) else 0, 4, 3))
    models = []
    for run in runs(sizes.sum(axis=1).tolist()):
        models += _build_run(params[run], lib, facets, ends[run], sizes[run])
    return stl.TriangleMesh(facets, "trees"), models


def runs(triangles: list[int]):
    """Split trees of ``triangles[i]`` triangles each into runs of whole
    trees, yielding one slice per run: a run closes once it holds
    _RUN_TRIANGLES triangles, or at the last tree. ``build_trees`` builds a
    scene run by run."""
    first, held = 0, 0
    for last, k in enumerate(triangles, 1):
        held += k
        if held >= _RUN_TRIANGLES or last == len(triangles):
            yield slice(first, last)
            first, held = last, 0


def _build_run(params: list[TreeParams], lib: stl.MeshLibrary, facets: np.ndarray,
               ends: np.ndarray, sizes: np.ndarray) -> list[TreeModel]:
    """Build a run of trees into their blocks of ``facets``, which end at
    ``ends`` and hold ``sizes`` rows per role."""
    stack = build_skeleton(params)
    starts, rows = (ends - sizes).T.tolist(), sizes.T.tolist()
    # each role is copied in and dropped before the next is placed, so the
    # run never has a second, role-major copy
    trunks, branches = attach_branches(stack, lib, params)
    _scatter(facets, trunks, starts[0], rows[0])
    _scatter(facets, branches, starts[1], rows[1])
    del trunks, branches
    _scatter(facets, attach_subbranches(stack, lib, params), starts[2], rows[2])
    _scatter(facets, attach_leaves(stack, lib, params), starts[3], rows[3])
    models = []
    for sk, p, start, (_, branch_end, sub_end, end) in zip(
            stack.trees(), params, starts[0], ends.tolist()):
        stage_counts = {"branches": branch_end - start, "subbranches": sub_end - start,
                        "leaves": end - start}
        models.append(TreeModel(sk, stl.TriangleMesh(facets[start:end], "tree"), p, stage_counts))
    return models


def build_tree(params: TreeParams, lib: stl.MeshLibrary) -> TreeModel:
    """Run the full stage pipeline for one tree (the one-tree case of
    ``build_trees``); per-stage meshes stay retrievable from the result via
    TreeModel.stage_mesh."""
    return build_trees([params], lib)[1][0]


def skeleton_to_mesh(skeleton: lsys.Skeleton) -> stl.TriangleMesh:
    """Thin rectangle (two triangles) per skeleton segment, for STL export
    of the bare branching structure."""
    a, directions, lengths = skeleton.points, skeleton.directions, skeleton.lengths
    b = a + lengths[:, None] * directions
    # each segment's width runs along its aligned template's +X axis
    side = np.matmul(tf.z_alignments(directions), np.array([1.0, 0.0, 0.0]))
    half = (0.5 * _SEGMENT_WIDTH * lengths)[:, None] * side
    p0, p1, p2, p3 = a - half, a + half, b + half, b - half
    zero = np.zeros_like(a)
    facets = np.stack([zero, p0, p1, p2, zero, p0, p2, p3], axis=1).reshape(-1, 4, 3)
    return stl.recompute_normals(stl.TriangleMesh(facets, "skeleton"))


def centroids_to_csv(centroids: np.ndarray) -> str:
    """Leaf centroid table: header plus one x,y,z row per leaf triangle."""
    lines = ["x,y,z"]
    for x, y, z in np.asarray(centroids, dtype=np.float64).reshape(-1, 3):
        lines.append(f"{x:.9g},{y:.9g},{z:.9g}")
    return "\n".join(lines) + "\n"


def params_to_dict(params: TreeParams) -> dict:
    return {
        "branch_count": params.branch_count,
        "subbranches_per_branch": params.subbranches_per_branch,
        "leaves_per_subbranch": params.leaves_per_subbranch,
        "trunk_height": params.trunk_height,
        "jitter": {
            "azimuth_range": params.jitter.azimuth_range,
            "pitch_range": params.jitter.pitch_range,
            "scale_range": [params.jitter.scale_range[0], params.jitter.scale_range[1]],
        },
        "depth_scale_decay": params.depth_scale_decay,
        "seed": params.seed,
    }


def params_from_dict(data: dict, jitters: dict | None = None) -> TreeParams:
    """TreeParams from the form ``params_to_dict`` writes.

    ``jitters`` is a dict the caller keeps across calls, such as one per
    manifest: trees with the same jitter then share one AngleJitterParams,
    validated once.
    """
    jitter = data.get("jitter", {})
    scale_range = jitter.get("scale_range", (1.0, 1.0))
    ranges = (float(jitter.get("azimuth_range", 0.0)), float(jitter.get("pitch_range", 0.0)),
              float(scale_range[0]), float(scale_range[1]))
    jitters = {} if jitters is None else jitters
    # keyed by the bits, so that -0.0 and 0.0 stay apart
    key = tuple(map(float.hex, ranges))
    if key not in jitters:
        jitters[key] = tf.AngleJitterParams(ranges[0], ranges[1], ranges[2:])
    return TreeParams(
        branch_count=data["branch_count"],
        subbranches_per_branch=data.get("subbranches_per_branch", 0),
        leaves_per_subbranch=data.get("leaves_per_subbranch", 0),
        trunk_height=data["trunk_height"],
        jitter=jitters[key],
        depth_scale_decay=data.get("depth_scale_decay", 1.0),
        seed=data.get("seed", 0),
    )
