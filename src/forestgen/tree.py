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
geometry of an otherwise identical build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lsystem as lsys
from . import stl
from . import transform as tf
from .seeds import stream_seed

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

_DEFAULT_JITTER = tf.AngleJitterParams(
    azimuth_range=10.0, pitch_range=10.0, scale_range=(0.85, 1.15))


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
        self.branch_count = int(self.branch_count)
        self.subbranches_per_branch = int(self.subbranches_per_branch)
        self.leaves_per_subbranch = int(self.leaves_per_subbranch)
        self.trunk_height = float(self.trunk_height)
        self.depth_scale_decay = float(self.depth_scale_decay)
        self.seed = int(self.seed)
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
    leaf_centroids: np.ndarray        # (n_leaves, 3), one row per leaf triangle
    params: TreeParams
    stage_counts: dict = field(default_factory=dict)  # triangle count after each stage

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


def synthesize_derivation(branch_count: int, subbranches_per_branch: int) -> lsys.DerivationString:
    """Derivation equivalent to the printed production patterns for an
    arbitrary branch count: first-level branches separated by unclosed '['
    (sibling separators), each followed by an explicit [d...d] child group
    when sub-branches are requested."""
    group = "[" + lsys.BRANCH_SYMBOL * subbranches_per_branch + "]" if subbranches_per_branch else ""
    chunk = lsys.BRANCH_SYMBOL + group
    return lsys.DerivationString("[".join([chunk] * branch_count), level=1)


def turtle_config_for(params: TreeParams) -> lsys.TurtleConfig:
    return lsys.TurtleConfig(
        step_length=params.trunk_height * params.depth_scale_decay,
        yaw_angle=360.0 / params.branch_count,
        branch_pitch=40.0,
        jitter_range=params.jitter.azimuth_range,
    )


def build_skeleton(params: TreeParams) -> lsys.Skeleton:
    """Skeleton with exactly branch_count depth-1 nodes and
    branch_count * subbranches_per_branch depth-2 nodes."""
    derivation = synthesize_derivation(params.branch_count, params.subbranches_per_branch)
    cfg = turtle_config_for(params)
    rng = np.random.default_rng(stream_seed(params.seed, _STREAM_SKELETON))
    skeleton = lsys.interpret_turtle(derivation, cfg, (params.trunk_height, (0.0, 0.0, 0.0)), rng)
    if params.subbranches_per_branch:
        # the derivation nests one group deep, so depth 2 is the only decayed one
        skeleton.lengths[skeleton.depths == 2] *= params.depth_scale_decay
    return skeleton


def _frames(skeleton: lsys.Skeleton, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attachment points (k, 3), directions (k, 3) and lengths (k,) of the
    node rows ``nodes`` (``take`` is the cheap gather on few rows)."""
    return (skeleton.points.take(nodes, 0), skeleton.directions.take(nodes, 0),
            skeleton.lengths[nodes])


def _place(lib: stl.MeshLibrary, role: str, points: np.ndarray, directions: np.ndarray,
           lengths: np.ndarray, jitter: tf.AngleJitterParams,
           rng: np.random.Generator) -> stl.TriangleMesh:
    """One instance of a template role per frame, all from one stacked
    transform, each scaled to length / template extent on top of its jittered
    scale; instances are concatenated in frame order."""
    t = tf.random_attachment_transform((points, directions), jitter, rng)
    t = tf.RigidTransform(t.rotation, t.translation, t.scale * (lengths / lib.extent(role)))
    return tf.apply_to_mesh(t, lib.template(role))


def attach_branches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                    params: TreeParams) -> stl.TriangleMesh:
    """Trunk template plus one branch instance per depth-1 node."""
    rng = np.random.default_rng(stream_seed(params.seed, _STREAM_BRANCHES))
    trunk_t = tf.RigidTransform(np.eye(3), skeleton.points[0],
                                skeleton.lengths[0] / lib.extent("trunk"))
    trunk = tf.apply_to_mesh(trunk_t, lib.trunk)
    branches = _place(lib, "branch", *_frames(skeleton, skeleton.at_depth(1)),
                      params.jitter, rng)
    return stl.concat_meshes([trunk, branches], "tree")


def attach_subbranches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                       params: TreeParams) -> stl.TriangleMesh:
    """One sub-branch instance per depth-2 node; node lengths already carry
    the per-depth scale decay."""
    nodes = skeleton.at_depth(2)
    if not len(nodes):
        return stl.empty_mesh("sub_branches")
    rng = np.random.default_rng(stream_seed(params.seed, _STREAM_SUBBRANCHES))
    return _place(lib, "sub_branch", *_frames(skeleton, nodes), params.jitter, rng)


def attach_leaves(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                  params: TreeParams) -> tuple[stl.TriangleMesh, np.ndarray]:
    """Leaf instances along the distal portion of each anchor axis, plus the
    centroid of every placed leaf triangle (one row per triangle).

    Anchors are the depth-2 nodes, falling back to depth-1 branches when the
    tree has no sub-branches. Leaves are placed anchor by anchor, stations
    ascending within an anchor.
    """
    count = params.leaves_per_subbranch
    if count:
        anchors = skeleton.at_depth(2)
        if not len(anchors):
            anchors = skeleton.at_depth(1)
    if count == 0 or not len(anchors):
        return stl.empty_mesh("leaves"), np.zeros((0, 3))
    rng = np.random.default_rng(stream_seed(params.seed, _STREAM_LEAVES))
    stations = _LEAF_STATION_LO + (1.0 - _LEAF_STATION_LO) * (np.arange(count) + 1) / count
    points, directions, lengths = _frames(skeleton, anchors)
    offsets = (stations * lengths[:, None])[:, :, None] * directions[:, None, :]
    leaf_mesh = _place(lib, "leaf", (points[:, None, :] + offsets).reshape(-1, 3),
                       np.repeat(directions, count, axis=0),
                       np.repeat(_LEAF_FRACTION * lengths, count), params.jitter, rng)
    leaf_mesh.name = "leaves"
    return leaf_mesh, stl.triangle_centroids(leaf_mesh)


def build_tree(params: TreeParams, lib: stl.MeshLibrary) -> TreeModel:
    """Run the full stage pipeline; per-stage meshes stay retrievable from
    the result via TreeModel.stage_mesh."""
    skeleton = build_skeleton(params)
    branches = attach_branches(skeleton, lib, params)
    subs = attach_subbranches(skeleton, lib, params)
    leaves, centroids = attach_leaves(skeleton, lib, params)
    mesh = stl.concat_meshes([branches, subs, leaves], "tree")
    return TreeModel(
        skeleton=skeleton,
        mesh=mesh,
        leaf_centroids=centroids,
        params=params,
        stage_counts={
            "branches": len(branches),
            "subbranches": len(branches) + len(subs),
            "leaves": len(mesh),
        },
    )


def skeleton_to_mesh(skeleton: lsys.Skeleton, width_fraction: float = 0.02) -> stl.TriangleMesh:
    """Thin rectangle (two triangles) per skeleton segment, for STL export
    of the bare branching structure."""
    a, directions, lengths = skeleton.points, skeleton.directions, skeleton.lengths
    b = a + lengths[:, None] * directions
    # each segment's width runs along its aligned template's +X axis
    side = np.matmul(tf.z_alignments(directions), np.array([1.0, 0.0, 0.0]))
    half = (0.5 * width_fraction * lengths)[:, None] * side
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


def params_from_dict(data: dict) -> TreeParams:
    jitter = data.get("jitter", {})
    scale_range = jitter.get("scale_range", (1.0, 1.0))
    return TreeParams(
        branch_count=data["branch_count"],
        subbranches_per_branch=data.get("subbranches_per_branch", 0),
        leaves_per_subbranch=data.get("leaves_per_subbranch", 0),
        trunk_height=data["trunk_height"],
        jitter=tf.AngleJitterParams(
            azimuth_range=float(jitter.get("azimuth_range", 0.0)),
            pitch_range=float(jitter.get("pitch_range", 0.0)),
            scale_range=(float(scale_range[0]), float(scale_range[1])),
        ),
        depth_scale_decay=data.get("depth_scale_decay", 1.0),
        seed=data.get("seed", 0),
    )
