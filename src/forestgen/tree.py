"""Staged tree assembly: skeleton, trunk+branches, +sub-branches, +leaves.

A tree is assembled by instancing template meshes onto a skeleton: the
turtle reading of the tree's bracketed string, in closed form by its shape
(``lsystem.interpret_turtle``). A tree is one mesh, trunk first, then
branches, sub-branches and leaves, so every stage mesh is a prefix of it,
cut at the stage's count in this exact ledger:

    branches     = trunk_tris + branch_count * branch_tris
    subbranches  = branches + branch_count * subs_per_branch * sub_tris
    leaves       = subbranches + leaf_anchor_count * leaves_each * leaf_tris

A stack of trees, such as a scene's, is a ``ParamsTable``: its params as
columns, one row per tree (counts, trunk heights, decays and seeds), with
the jitter ranges held once per block of trees that share their params but
for their seeds. ``TreeParams`` is one tree's params, and a table's
``row(i)``. Every stage reads the columns; no stage makes a per-tree object.

Randomness is split into one substream per stage (skeleton, branches,
sub-branches, leaves), so e.g. requesting leaves never perturbs the branch
geometry of an otherwise identical build. Each tree's stage seeds are one
uint64 expression over the seed column (``seeds.stream_seeds``), and a
build hashes the seeds of all four stages in one call. A stage draws every
tree's block at once (``seeds.uniform_blocks``) and hands the stacked blocks
to ``lsystem.interpret_turtle(shapes, heights, lengths, jitters, uniforms)``
or ``transform.random_attachment_transform(frames, ranges, uniforms)``, with
one row of jitter ranges per frame, those of the frame's tree.

The ledger needs only the count columns and the template sizes, so
``build_trees`` sizes the buffer of a whole stack of trees (a scene) before
placing anything, summing the ledger in Python integers, which no count
can overflow: each tree's block is the sum of its ledger, blocks follow each
other tree after tree, and within a block the trunk, branch, sub-branch and
leaf instances follow each other. The skeletons of the trees are placed as
one stack, and each template role is placed for every tree at once and
copied into its slots, so a tree's rows are contiguous in the buffer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lsystem as lsys
from . import stl
from . import transform as tf
from .seeds import batch_words, stream_seeds, uniform_blocks

STAGES = ("skeleton", "branches", "subbranches", "leaves")

# substream indices of TreeParams.seed
_STREAM_SKELETON = 0
_STREAM_BRANCHES = 1
_STREAM_SUBBRANCHES = 2
_STREAM_LEAVES = 3
# the substream of each stage, in STAGES order: the columns of a build's
# stage seeds and seed words (``ParamsTable.stage_seeds`` and ``words``)
_STAGE_STREAMS = (_STREAM_SKELETON, _STREAM_BRANCHES, _STREAM_SUBBRANCHES, _STREAM_LEAVES)

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
# smaller chunks (stl.CHUNK_TRIANGLES).
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


def real_number(value, name: str) -> float:
    """``float(value)``, refusing a boolean, which is no measure; a string
    is parsed by ``float`` as before."""
    if type(value) is float:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def number_pair(value, name: str) -> tuple:
    """The two values of a (min, max) range, given as a list or tuple of
    exactly two; a string, a lone number or a third value is refused, not
    read character by character or cut short."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair [min, max], got {value!r}")
    return tuple(value)


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
        for name, (dtype, _) in _COLUMNS.items():
            number = real_number if dtype is np.float64 else whole_number
            setattr(self, name, number(getattr(self, name), name))
        _check_params([(getattr(self, name),) * 2 for name in _COLUMNS])


# the per-tree columns of a ParamsTable but its block ids, in TreeParams
# order: each one's dtype, and its default when a params dict leaves it out
# (None: the key is required). A tree's jitter is its row of the blocks.
_COLUMNS = {"branch_count": (np.int64, None), "subbranches_per_branch": (np.int64, 0),
            "leaves_per_subbranch": (np.int64, 0), "trunk_height": (np.float64, None),
            "depth_scale_decay": (np.float64, 1.0), "seed": (np.uint64, 0)}


def _check_params(bounds):
    """Refuse the params of one tree, or columns of them, that TreeParams
    refuses: the first check some tree fails names the fault. ``bounds``
    holds the (least, greatest) value of each of _COLUMNS: one tree's
    value twice, or a column's min and max, through which a NaN
    propagates. A count or seed beyond 64 bits comes as a Python int, from
    an object column."""
    (b, b_max), (s, s_max), (leaves, leaves_max), (h, h_max), (d, d_max), (seed, seed_max) = bounds
    if not b >= 1:
        raise ValueError("branch_count must be at least 1")
    if not (s >= 0 and leaves >= 0):
        raise ValueError("per-level counts must be non-negative")
    for name, count in zip(_COLUMNS, (b_max, s_max, leaves_max)):
        if not count < 2 ** 63:
            raise ValueError(f"{name} must be below 2**63")
    if not (math.isfinite(h) and math.isfinite(h_max)):
        raise ValueError("trunk_height must be finite")
    if not h > 0.0:
        raise ValueError("trunk_height must be positive")
    if not (0.0 < d and d_max <= 1.0):
        raise ValueError("depth_scale_decay must be in (0, 1]")
    if not (0 <= seed and seed_max < 2 ** 64):
        raise ValueError("seed must fit in 64 unsigned bits")


def column(values: list, name: str, dtype) -> np.ndarray:
    """``values`` of a document as one ``dtype`` column: read in one step
    when every value has the exact type it becomes (``float`` for float64,
    else ``int``, so no ``bool``), else each through ``real_number`` or
    ``whole_number``, so a string, a boolean or a fraction ends as it does
    alone. An int beyond ``dtype`` keeps the column as Python ints, for
    ``_check_params`` to refuse (an object column holds any int)."""
    exact, number = (float, real_number) if dtype is np.float64 else (int, whole_number)
    if not set(map(type, values)) <= {exact}:
        values = [number(v, name) for v in values]
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(eq=False)
class ParamsTable:
    """The TreeParams of a stack of trees as columns, one row per tree, in
    stack order: int64 counts, float64 trunk heights and decays, uint64
    seeds, and the jitter ranges as blocks.

    A block is one tree's params other than its seed: ``block_ranges``
    holds each block's (azimuth_range, pitch_range, scale min, scale max),
    and ``block_id`` each tree's block. Trees of one block have the same
    params but for their seeds, so a block's manifest text is made once.
    ``row(i)`` is tree i's TreeParams; ``table[rows]`` (a slice or an index
    array) is the table of those rows, sharing the blocks.

    ``stage_seeds``, when set, holds the seeds (``seeds.stream_seeds``) of
    each tree's four build streams, one per stage in ``_STAGE_STREAMS``
    order, and ``words`` their seed words (``seeds.batch_words``), each
    hashed once for a whole build (``build_trees``); None leaves each stage
    to hash its own.
    """

    branch_count: np.ndarray
    subbranches_per_branch: np.ndarray
    leaves_per_subbranch: np.ndarray
    trunk_height: np.ndarray
    depth_scale_decay: np.ndarray
    seed: np.ndarray
    block_id: np.ndarray
    block_ranges: np.ndarray
    stage_seeds: np.ndarray | None = field(default=None, repr=False)
    words: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of(cls, params: list[TreeParams]) -> ParamsTable:
        """The table of these TreeParams, each tree a block of its own."""
        ranges = [(p.jitter.azimuth_range, p.jitter.pitch_range, *p.jitter.scale_range)
                  for p in params]
        return cls(*(np.array([getattr(p, name) for p in params], dtype=dtype)
                     for name, (dtype, _) in _COLUMNS.items()),
                   np.arange(len(params)), np.array(ranges, dtype=np.float64).reshape(-1, 4))

    @classmethod
    def from_dicts(cls, dicts: list[dict]) -> ParamsTable:
        """The table of params in the form ``dicts`` writes, such as a
        manifest's; a key left out takes its default (see README). Each
        column is read in one pass (``column``), refused as TreeParams
        refuses one tree, jitter first, and trees whose params differ only
        by their seeds share a block."""
        jitters = [d.get("jitter", {}) for d in dicts]
        pairs = [number_pair(j.get("scale_range", (1.0, 1.0)), "scale_range") for j in jitters]
        ranges = np.column_stack([
            column([j.get("azimuth_range", 0.0) for j in jitters], "azimuth_range", np.float64),
            column([j.get("pitch_range", 0.0) for j in jitters], "pitch_range", np.float64),
            column([pair[0] for pair in pairs], "scale_range min", np.float64),
            column([pair[1] for pair in pairs], "scale_range max", np.float64)]).reshape(-1, 4)
        tf.check_ranges(ranges)
        columns = [column([d[name] for d in dicts] if default is None
                          else [d.get(name, default) for d in dicts], name, dtype)
                   for name, (dtype, default) in _COLUMNS.items()]
        if dicts:
            _check_params([(c.min(), c.max()) for c in columns])
        # a block's bits, counts and floats alike, so that -0.0 and 0.0 stay apart
        bits = np.column_stack([c.view(np.uint64) for c in (*columns[:5], *ranges.T)])
        # each row as one opaque value, whose unique values cost a quarter of
        # np.unique(axis=0)'s on 472 rows
        rows = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
        _, first, block_id = np.unique(rows, return_index=True, return_inverse=True)
        return cls(*columns, block_id, ranges[first])

    def __len__(self) -> int:
        return len(self.seed)

    def __getitem__(self, rows) -> ParamsTable:
        return ParamsTable(*(getattr(self, name)[rows] for name in _COLUMNS),
                           self.block_id[rows], self.block_ranges,
                           *(a if a is None else a[rows] for a in (self.stage_seeds, self.words)))

    def ranges(self, repeats=None) -> np.ndarray:
        """(n, 4): each tree's jitter ranges, as ``random_attachment_transform``
        reads them; with ``repeats``, tree i's row ``repeats[i]`` times."""
        block_id = self.block_id if repeats is None else np.repeat(self.block_id, repeats)
        return self.block_ranges[block_id]

    def row(self, i: int) -> TreeParams:
        """Tree i's params, as one TreeParams."""
        a, p, lo, hi = self.block_ranges[self.block_id[i]].tolist()
        return TreeParams(**{name: getattr(self, name)[i].item() for name in _COLUMNS},
                          jitter=tf.AngleJitterParams(a, p, (lo, hi)))

    def dicts(self) -> list[dict]:
        """Each tree's params as a manifest records them: a dict of the
        columns, and its jitter ranges as the ``jitter`` object."""
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS), self.ranges().tolist())
        return [{"branch_count": b, "subbranches_per_branch": s, "leaves_per_subbranch": n,
                 "trunk_height": h,
                 "jitter": {"azimuth_range": a, "pitch_range": p, "scale_range": [lo, hi]},
                 "depth_scale_decay": d, "seed": seed}
                for b, s, n, h, d, seed, (a, p, lo, hi) in rows]


@dataclass
class TreeModel:
    mesh: stl.TriangleMesh            # trunk, branches, sub-branches, leaves
    params: TreeParams
    stage_counts: dict = field(default_factory=dict)  # triangle count after each stage

    @functools.cached_property
    def skeleton(self) -> lsys.Skeleton:
        """The tree's skeleton, built from ``params`` when first read: from
        the same stream, so it is the skeleton its mesh was placed on, bit for
        bit."""
        return build_skeleton(self.params)

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


def as_table(params) -> ParamsTable:
    """``params`` as a ParamsTable: a table as it is, or the table of one
    TreeParams or of a list of them."""
    if isinstance(params, ParamsTable):
        return params
    return ParamsTable.of([params] if isinstance(params, TreeParams) else params)


def build_skeleton(params) -> lsys.Skeleton:
    """Skeleton with exactly branch_count depth-1 nodes and
    branch_count * subbranches_per_branch depth-2 nodes, sub-branch lengths
    decayed once more than branch lengths. A branch length that underflows
    to 0 is an OverflowError, as a placement scale that does (see
    ``_scales``).

    A ParamsTable (or a list of TreeParams, see ``as_table``) gives the
    stack of its trees' skeletons, tree after tree, as
    ``lsystem.interpret_turtle`` stacks them; each tree reads its own block
    of its own skeleton stream, so each tree's rows are those of its
    skeleton alone, with parent rows into the stack.
    """
    table = as_table(params)
    b, s = table.branch_count, table.subbranches_per_branch
    heights, decay = table.trunk_height, table.depth_scale_decay
    lengths = heights * decay
    if (lengths == 0.0).any():
        i = int(np.argmax(lengths == 0.0))
        raise OverflowError(f"trunk_height {heights[i].item()!r} times depth_scale_decay "
                            f"{decay[i].item()!r} underflows to 0, the length of a branch")
    jitters = table.ranges()[:, 0]
    # a jittered tree reads one (azimuth, station) row per branch and sub-branch
    counts = np.where(jitters > 0, b * (s + 1), 0)
    skeleton = lsys.interpret_turtle(np.column_stack([b, s]), heights, lengths, jitters,
                                     _uniforms(table, _STREAM_SKELETON, counts, 2))
    # sub-branches, at depth 2, decay once more; x * 1.0 is x, bit for bit
    skeleton.lengths *= np.where(skeleton.depths == 2, np.repeat(decay, 1 + b + b * s), 1.0)
    return skeleton


def _uniforms(table: ParamsTable, stream: int, counts: np.ndarray, width: int) -> np.ndarray:
    """Each tree's (counts[i], width) block of uniforms from its substream
    ``stream``, tree after tree (``seeds.uniform_blocks``), from the table's
    stage seeds and words when it holds them."""
    if table.stage_seeds is None:
        return uniform_blocks(stream_seeds(table.seed, stream), counts, width)
    k = _STAGE_STREAMS.index(stream)
    return uniform_blocks(table.stage_seeds[:, k], counts, width,
                          None if table.words is None else table.words[:, k])


def _frames(skeleton: lsys.Skeleton, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attachment points (k, 3), directions (k, 3) and lengths (k,) of the
    node rows ``nodes`` (``take`` is the cheap gather on few rows)."""
    return (skeleton.points.take(nodes, 0), skeleton.directions.take(nodes, 0),
            skeleton.lengths[nodes])


def _instance_counts(table: ParamsTable, dtype=np.int64) -> np.ndarray:
    """(n, 4): the instances of each role of each tree, in
    ``stl.LIBRARY_ROLES`` order: the stage ledger before it is multiplied by
    template sizes. The trunk, branch and sub-branch counts are also the
    tree's skeleton rows. With ``dtype=object`` they are Python ints, which
    no count can overflow."""
    b, s, leaves = (column.astype(dtype, copy=False) for column in (
        table.branch_count, table.subbranches_per_branch, table.leaves_per_subbranch))
    counts = np.ones((len(b), 4), dtype=dtype)
    counts[:, 1] = b
    counts[:, 2] = b * s
    counts[:, 3] = np.where(s > 0, counts[:, 2], b) * leaves
    return counts


def _scales(lib: stl.MeshLibrary, role: str, lengths: np.ndarray, jitter=1.0) -> np.ndarray:
    """The scale of each instance of a template role: its length / template
    extent, times its jittered scale. A scale that overflows or underflows
    to 0, or whose jitter takes the template beyond the float32 range of
    binary STL, is an OverflowError."""
    radius = np.sqrt((lib.template(role).vertices ** 2).sum(axis=-1).max())
    with np.errstate(over="ignore"):
        size = lengths / lib.extent(role)
        scale = jitter * size
        # the jitter takes a template vertex beyond float32 where the unjittered
        # instance stays within it (a tree too large is the STL writer's error)
        too_far = (scale * radius > _FLOAT32_MAX) & (size * radius <= _FLOAT32_MAX)
    if not np.isfinite(scale).all() or too_far.any():
        raise OverflowError(f"a {role} placement scale overflows or leaves the float32 range "
                            f"of binary STL: trunk_height or scale_range is too large")
    if not (scale > 0.0).all():
        raise OverflowError(f"a {role} placement scale underflows to 0: trunk_height is too small")
    return scale


def _place(lib: stl.MeshLibrary, role: str, points: np.ndarray, directions: np.ndarray,
           lengths: np.ndarray, table: ParamsTable, counts: np.ndarray,
           stream: int) -> stl.TriangleMesh:
    """One instance of a template role per frame, all from one stacked
    transform, each scaled by ``_scales``; instances are concatenated in
    frame order.

    The frames come tree after tree, ``counts[i]`` of them from tree i. Each
    tree reads its (counts[i], 3) block of uniforms from its own ``stream``
    and jitters within its own ranges, as it would alone.
    """
    t = tf.random_attachment_transform((points, directions), table.ranges(counts),
                                       _uniforms(table, stream, counts, 3))
    t = tf.RigidTransform(t.rotation, t.translation, _scales(lib, role, lengths, t.scale))
    return tf.apply_to_mesh(t, lib.template(role))


# The stage functions place one role over a stack of trees: ``skeleton``
# holds the nodes of every tree of ``params`` (see ``as_table``), tree after
# tree (one tree's skeleton alone, or the stack ``build_trees`` makes), and
# each role's instances come out tree after tree.

def attach_branches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                    params) -> tuple[stl.TriangleMesh, stl.TriangleMesh]:
    """The trunk template of each tree, and one branch instance per depth-1
    node."""
    table = as_table(params)
    points, _, lengths = _frames(skeleton, skeleton.at_depth(0))
    trunk_t = tf.RigidTransform(np.repeat(_EYE, len(points), axis=0), points,
                                _scales(lib, "trunk", lengths))
    trunks = tf.apply_to_mesh(trunk_t, lib.trunk)
    branches = _place(lib, "branch", *_frames(skeleton, skeleton.at_depth(1)), table,
                      table.branch_count, _STREAM_BRANCHES)
    return trunks, branches


def attach_subbranches(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                       params) -> stl.TriangleMesh:
    """One sub-branch instance per depth-2 node; node lengths already carry
    the per-depth scale decay."""
    table = as_table(params)
    nodes = skeleton.at_depth(2)
    if not len(nodes):
        return stl.empty_mesh("sub_branch")
    return _place(lib, "sub_branch", *_frames(skeleton, nodes), table,
                  table.branch_count * table.subbranches_per_branch, _STREAM_SUBBRANCHES)


def attach_leaves(skeleton: lsys.Skeleton, lib: stl.MeshLibrary,
                  params) -> stl.TriangleMesh:
    """Leaf instances along the distal portion of each anchor axis.

    Anchors are the depth-2 nodes, falling back to depth-1 branches when the
    tree has no sub-branches. Leaves are placed anchor by anchor, stations
    ascending within an anchor.
    """
    table = as_table(params)
    each = table.leaves_per_subbranch
    if not each.any():
        return stl.empty_mesh("leaf")
    counts = _instance_counts(table)
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
                  directions, _LEAF_FRACTION * lengths, table, counts[:, 3], _STREAM_LEAVES)


def _scatter(facets: np.ndarray, mesh: stl.TriangleMesh, starts: list[int], sizes: list[int]):
    """Copy the blocks of ``mesh``, ``sizes[i]`` rows of tree i, tree after
    tree, to rows ``starts[i]`` onward of ``facets``. Block copies beat one
    fancy-indexed copy at every scene size."""
    if len(mesh):
        at = 0
        for start, size in zip(starts, sizes):
            facets[start:start + size] = mesh.facets[at:at + size]
            at += size


def build_trees(params, lib: stl.MeshLibrary) -> tuple[stl.TriangleMesh, np.ndarray]:
    """Build a stack of trees, such as every tree of a scene, together:
    the rows of a ParamsTable (or TreeParams, see ``as_table``).

    Each tree's per-stage draws come from its own streams, so each tree
    is the tree ``build_tree`` gives alone; the skeletons of a run of trees
    (see ``runs``) are placed as one stack, and each template role by one
    stacked transform over the run.
    Returns the stack mesh, every tree's triangles tree after tree, and the
    (n, 4) ends of each tree's trunk, branch, sub-branch and leaf rows in
    it (``tree_model`` makes one tree's TreeModel from them).
    A stack whose ledger totals more than MAX_TRIANGLES is a
    TriangleBudgetError, raised before anything is allocated; a placement
    scale too large or too small to place, or a branch length that
    underflows to 0, is an OverflowError.
    """
    table = as_table(params)
    template_sizes = [len(lib.template(r)) for r in stl.LIBRARY_ROLES]
    # the ledger in Python integers, before any array can overflow or allocate
    total = int((_instance_counts(table, object) * template_sizes).sum())
    if total > MAX_TRIANGLES:
        raise TriangleBudgetError(f"the stage ledger needs {total} triangles, more than the "
                                  f"budget of {MAX_TRIANGLES} (forestgen.tree.MAX_TRIANGLES)")
    # rows of each (tree, role) block, laid out tree after tree
    sizes = _instance_counts(table) * template_sizes
    ends = sizes.cumsum().reshape(sizes.shape)
    facets = np.empty((total, 4, 3))
    # every stage's seeds and their words hashed once, for every run
    stage_seeds = stream_seeds(table.seed[:, None], np.array(_STAGE_STREAMS))
    table = replace(table, stage_seeds=stage_seeds, words=batch_words(stage_seeds))
    for run in runs(sizes.sum(axis=1).tolist()):
        _build_run(table[run], lib, facets, ends[run], sizes[run])
    return stl.TriangleMesh(facets, "trees"), ends


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


def _build_run(table: ParamsTable, lib: stl.MeshLibrary, facets: np.ndarray,
               ends: np.ndarray, sizes: np.ndarray):
    """Build a run of trees into their blocks of ``facets``, which end at
    ``ends`` and hold ``sizes`` rows per role."""
    stack = build_skeleton(table)
    starts, rows = (ends - sizes).T.tolist(), sizes.T.tolist()
    # each role is copied in and dropped before the next is placed, so the
    # run never has a second, role-major copy
    trunks, branches = attach_branches(stack, lib, table)
    _scatter(facets, trunks, starts[0], rows[0])
    _scatter(facets, branches, starts[1], rows[1])
    del trunks, branches
    _scatter(facets, attach_subbranches(stack, lib, table), starts[2], rows[2])
    _scatter(facets, attach_leaves(stack, lib, table), starts[3], rows[3])


def tree_model(params: TreeParams, facets: np.ndarray, start: int, ends) -> TreeModel:
    """One tree of a stack that ``build_trees`` built: its mesh is the view
    of ``facets`` from row ``start`` to its leaf end, and ``ends`` are its
    trunk, branch, sub-branch and leaf row ends. Its skeleton is built only
    if it is read (``TreeModel.skeleton``)."""
    _, branches, subbranches, leaves = (int(end) - start for end in ends)
    mesh = stl.TriangleMesh(facets[start:start + leaves], "tree")
    return TreeModel(mesh, params,
                     {"branches": branches, "subbranches": subbranches, "leaves": leaves})


def build_tree(params: TreeParams, lib: stl.MeshLibrary) -> TreeModel:
    """Run the full stage pipeline for one tree (the one-tree case of
    ``build_trees``); per-stage meshes stay retrievable from the result via
    TreeModel.stage_mesh."""
    mesh, ends = build_trees(params, lib)
    return tree_model(params, mesh.facets, 0, ends[0])


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
    rows = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    return "x,y,z\n" + ("%.9g,%.9g,%.9g\n" * len(rows)) % tuple(rows.ravel().tolist())


def params_from_dict(data: dict) -> TreeParams:
    """TreeParams from the form ``ParamsTable.dicts`` writes."""
    return ParamsTable.from_dicts([data]).row(0)
