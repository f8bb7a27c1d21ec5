"""One-at-a-time reference code that forestgen's faster paths must match
bit for bit.

Placement math, the reference for ``forestgen.transform``,
``forestgen.lsystem`` and ``forestgen.tree.skeleton_to_mesh``, does what
forestgen did before placement was batched: scalar ``rng.uniform`` draws,
``math`` trigonometry, ``np.cross`` and ``np.linalg.norm`` on single vectors,
and one mesh copy per instance. The point-pattern loops at the end are the
references for the grid code, the block-drawn counts and the block
thinning of ``forestgen.ipp`` (thinning one rep at a time, as it once
did), the per-facet text loop is the reference for ASCII
STL writing, and the whole-scene binary writer is the reference for binary
STL writing and merged export. The mesh queries at the end reduce over
each facet's length-3 axes with ``np.cross``, ``np.linalg.norm`` and
``min``/``max``/``mean`` over an axis, as ``forestgen.stl`` did before its
kernels went one coordinate at a time. The manifest writer at the very end
encodes a manifest dict entry by entry, as ``forestgen.forest`` did before it
wrote tree lines from the scene's columns, and the per-tree params of a
scene config are made one TreeParams at a time, and each written as a dict
field by field, as ``forestgen.forest`` and ``forestgen.tree`` did before
they held them as a params table. Last, the template tube is built
one ring and one quad at a time, and the CSV tables one f-string row at a
time, as ``forestgen.templates`` and the CSV writers did before they became
array expressions and one ``%``-format.
"""

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from forestgen import lsystem as lsys
from forestgen import stl
from forestgen import transform as tf
from forestgen.seeds import generators, stream_seed


def rotation_about_axis(axis, degrees: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    theta = math.radians(degrees)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def apply_point(t: tf.RigidTransform, p) -> np.ndarray:
    """A single transform applied to one point."""
    return t.scale * (t.rotation @ np.asarray(p, dtype=np.float64)) + t.translation


def align_z_to(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, d))
    if c >= 1.0 - 1e-15:
        return np.eye(3)
    if c <= -1.0 + 1e-15:
        return rotation_about_axis([1.0, 0.0, 0.0], 180.0)
    degrees = math.degrees(math.acos(max(-1.0, min(1.0, c))))
    return rotation_about_axis(np.cross(z, d), degrees)


def random_attachment_transform(frame, jitter: tf.AngleJitterParams,
                                rng: np.random.Generator) -> tf.RigidTransform:
    point, direction = frame
    azimuth = rng.uniform(-jitter.azimuth_range, jitter.azimuth_range)
    pitch = rng.uniform(-jitter.pitch_range, jitter.pitch_range)
    scale = rng.uniform(jitter.scale_range[0], jitter.scale_range[1])
    rotation = align_z_to(direction)
    if azimuth != 0.0 or pitch != 0.0:
        rotation = rotation @ rotation_about_axis([0, 0, 1], azimuth) \
                            @ rotation_about_axis([0, 1, 0], pitch)
    return tf.RigidTransform(rotation, np.asarray(point, dtype=np.float64), scale)


def apply_to_mesh(t: tf.RigidTransform, mesh: stl.TriangleMesh) -> stl.TriangleMesh:
    facets = mesh.facets.copy()
    if len(mesh) == 0:
        return stl.TriangleMesh(facets, mesh.name)
    verts = facets[:, 1:, :]
    facets[:, 1:, :] = t.scale * (verts @ t.rotation.T) + t.translation
    normals = facets[:, 0, :] @ t.rotation.T
    norms = np.linalg.norm(normals, axis=1)
    nonzero = norms > 0
    normals[nonzero] /= norms[nonzero, None]
    facets[:, 0, :] = normals
    return stl.TriangleMesh(facets, mesh.name)


@dataclass
class TurtleConfig:
    """The turtle of one string: the length of every branch node, the degrees
    turned by '+' and '-', a child's tilt off its parent axis, and the
    azimuth jitter (fans jitter exactly when it is > 0)."""

    step_length: float = 1.0
    yaw_angle: float = 60.0
    branch_pitch: float = 40.0
    jitter_range: float = 0.0


def synthesize_derivation(branch_count: int, subbranches_per_branch: int) -> str:
    """The bracketed string of a tree of ``branch_count`` branches with
    ``subbranches_per_branch`` sub-branches each: first-level branches
    separated by unclosed '[' (sibling separators), each followed by an
    explicit [d...d] child group when sub-branches are requested."""
    group = "[" + "d" * subbranches_per_branch + "]" if subbranches_per_branch else ""
    return "[".join(["d" + group] * branch_count)


class Node:
    """One branch symbol of the string, linked to its parent and children."""

    def __init__(self, parent, depth: int):
        self.parent = parent
        self.depth = depth
        self.children = []
        self.group_phase = 0.0  # cursor when this node's child group opened
        self.azimuth = 0.0
        self.station = 0.0
        self.row = 0


def emit_nodes(text: str, yaw_angle: float) -> tuple[Node, list[Node]]:
    """The root (trunk) and every branch node in string order. Only a '['
    that a later ']' closes opens a nested group, under the latest child of
    the current context."""
    open_at: list[int] = []
    closed: set[int] = set()
    for i, ch in enumerate(text):
        if ch == "[":
            open_at.append(i)
        elif ch == "]":
            if not open_at:
                raise lsys.TurtleError(f"']' at position {i} has no matching '['")
            closed.add(open_at.pop())
    root = Node(None, 0)
    nodes: list[Node] = []
    context = [root]
    pushed: list[bool] = []
    cursor = 0.0
    for i, ch in enumerate(text):
        if ch == "d":
            node = Node(context[-1], context[-1].depth + 1)
            context[-1].children.append(node)
            nodes.append(node)
        elif ch == "+":
            cursor += yaw_angle
        elif ch == "-":
            cursor -= yaw_angle
        elif ch == "[":
            if i in closed and context[-1].children:
                child = context[-1].children[-1]
                if not child.children:
                    child.group_phase = cursor
                context.append(child)
                pushed.append(True)
            else:
                pushed.append(False)
        elif ch == "]":
            if pushed.pop():
                context.pop()
    return root, nodes


def interpret_turtle(text: str, cfg: TurtleConfig, height: float, base,
                     rng: np.random.Generator) -> lsys.Skeleton:
    """Turtle interpretation with two scalar draws per child and one node
    placed at a time; the nodes are packed into arrays at the end."""
    root, emissions = emit_nodes(text, cfg.yaw_angle)
    lo, hi = 0.30, 0.95
    for parent in [root] + emissions:
        k = len(parent.children)
        gap = (hi - lo) / (k - 1) if k > 1 else 0.0
        for i, child in enumerate(parent.children):
            child.azimuth = parent.group_phase + i * (360.0 / k)
            child.station = hi if k == 1 else lo + i * gap
            if cfg.jitter_range > 0:
                child.azimuth += rng.uniform(-cfg.jitter_range, cfg.jitter_range)
                wiggle = rng.uniform(-1.0, 1.0) * 0.25 * (gap if k > 1 else (hi - lo))
                child.station = float(np.clip(child.station + wiggle, lo, hi))
    base = np.asarray(base, dtype=np.float64)
    # one (point, direction, depth, length, parent) row per node
    nodes = [(base.copy(), np.array([0.0, 0.0, 1.0]), 0, float(height), -1)]
    for em in emissions:
        point, axis, _, length, _ = nodes[em.parent.row]
        origin = point + em.station * length * axis
        pitch = math.radians(cfg.branch_pitch)
        azimuth = math.radians(em.azimuth)
        local = np.array([math.sin(pitch) * math.cos(azimuth),
                          math.sin(pitch) * math.sin(azimuth),
                          math.cos(pitch)])
        direction = align_z_to(axis) @ local
        direction /= np.linalg.norm(direction)
        em.row = len(nodes)
        nodes.append((origin, direction, em.depth, cfg.step_length, em.parent.row))
    points, directions, depths, lengths, parents = zip(*nodes)
    return lsys.Skeleton(np.array(points), np.array(directions), np.array(depths),
                         np.array(lengths), np.array(parents))


def split_skeleton(stack: lsys.Skeleton) -> list[lsys.Skeleton]:
    """The skeleton of each tree of a stack that ``lsystem.interpret_turtle``
    placed, tree after tree: each tree's rows run from its trunk row to the
    next tree's, and its parent rows are made local to it."""
    starts = stack.at_depth(0).tolist()
    trees = []
    for a, b in zip(starts, starts[1:] + [len(stack)]):
        parents = stack.parents[a:b].copy()
        parents[parents >= 0] -= a
        trees.append(lsys.Skeleton(stack.points[a:b], stack.directions[a:b], stack.depths[a:b],
                                   stack.lengths[a:b], parents))
    return trees


def skeleton_to_mesh(skeleton: lsys.Skeleton, width_fraction: float = 0.02) -> stl.TriangleMesh:
    """Two triangles per skeleton node, one node aligned at a time."""
    rows = []
    for a, direction, length in zip(skeleton.points, skeleton.directions,
                                    skeleton.lengths.tolist()):
        b = a + length * direction
        side = align_z_to(direction) @ np.array([1.0, 0.0, 0.0])
        half = 0.5 * width_fraction * length * side
        p0, p1, p2, p3 = a - half, a + half, b + half, b - half
        rows.append([np.zeros(3), p0, p1, p2])
        rows.append([np.zeros(3), p0, p2, p3])
    return stl.recompute_normals(stl.TriangleMesh(np.array(rows), "skeleton"))


# ---------------------------------------------------------------------------
# point patterns

def min_distance_filter(points: np.ndarray, r: float) -> np.ndarray:
    """Greedy hard-core filter that tests each point against every point
    kept so far."""
    kept: list[np.ndarray] = []
    r2 = r * r
    for p in points:
        if all(((p - q) ** 2).sum() >= r2 for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.zeros((0, 2))


def nearest_pair_distance(points) -> float:
    """Minimum of ``np.hypot`` over all pairs; +inf for fewer than two."""
    pts = [(float(x), float(y)) for x, y in points]
    nn = float("inf")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(np.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]))
            nn = min(nn, d)
    return nn


def poisson_count_by_gaps(mean: float, rng: np.random.Generator) -> int:
    """Poisson count from one unit-exponential draw per gap."""
    total = 0.0
    k = -1
    while total <= mean:
        total += rng.standard_exponential()
        k += 1
    return k


def poisson_count_by_inversion(mean: float, u: float) -> int | None:
    """The first k whose float pmf sum reaches u, term by term; None where
    the sum stops below u, once a term underflows to 0."""
    k = 0
    p = math.exp(-mean)
    cdf = p
    while u > cdf:
        if p == 0:
            return None
        k += 1
        p *= mean / k
        cdf += p
    return k


def sample_homogeneous(region, rate: float, rng: np.random.Generator) -> np.ndarray:
    """A Poisson(rate * area) count, by inversion of ``rng.uniform()`` below
    a mean of 30 and one gap per draw above, then that many points from one
    broadcasting ``rng.uniform(low, high, size=(n, 2))``."""
    mean = rate * region.area
    n = (poisson_count_by_inversion(mean, rng.uniform()) if mean < 30
         else poisson_count_by_gaps(mean, rng))
    return rng.uniform(low=[region.x_min, region.y_min], high=[region.x_max, region.y_max],
                       size=(n, 2))


def sample_replications(field, region, seeds) -> list[np.ndarray]:
    """Each rep's thinned points, one rep at a time: the envelope from
    ``default_rng(seed)``, and one ``uniform(size=n)`` acceptance draw per
    envelope point from ``default_rng(stream_seed(seed, 1))``."""
    lam_max = field.max_rate(region)
    patterns = []
    for seed in seeds:
        points = sample_homogeneous(region, lam_max, np.random.default_rng(seed))
        u = np.random.default_rng(stream_seed(seed, 1)).uniform(size=len(points))
        patterns.append(points[u * lam_max < field.rate_at(points)])
    return patterns


# ---------------------------------------------------------------------------
# STL text

def write_ascii(facets: np.ndarray, name: str) -> bytes:
    """ASCII STL one facet and one formatted number at a time, for a name
    already in the form the writer gives it (ASCII, single spaces, no space
    at either end)."""
    def f(x: float) -> str:
        return f"{x:.9g}"

    out = [f"solid {name}".rstrip()]
    for normal, v0, v1, v2 in facets:
        out.append(f"  facet normal {f(normal[0])} {f(normal[1])} {f(normal[2])}")
        out.append("    outer loop")
        for v in (v0, v1, v2):
            out.append(f"      vertex {f(v[0])} {f(v[1])} {f(v[2])}")
        out.append("    endloop")
        out.append("  endfacet")
    out.append(f"endsolid {name}".rstrip())
    return ("\n".join(out) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# binary STL

def write_binary(facets: np.ndarray, name: str) -> bytes:
    """Binary STL of the whole mesh at once: refuse non-finite values,
    recompute each normal that is not unit length (refusing one that stays
    zero), cast to float32 (refusing a value beyond its range, then a facet
    whose float32 vertices have a zero cross product, taken in float64)
    beside a zero attribute word, and join the header, the count and the
    records."""
    facets = np.asarray(facets, dtype=np.float64).reshape(-1, 4, 3)
    if not np.all(np.isfinite(facets)):
        raise stl.StlError("mesh contains non-finite values")
    if len(facets):
        bad = np.abs(np.linalg.norm(facets[:, 0, :], axis=1) - 1.0) > 1e-3
        if np.any(bad):
            fixed = stl.recompute_normals(stl.TriangleMesh(facets[bad])).facets
            if np.any(np.linalg.norm(fixed[:, 0, :], axis=1) == 0.0):
                raise stl.StlError("degenerate facet has no unit normal; cannot write")
            facets = facets.copy()
            facets[bad] = fixed
    with np.errstate(over="ignore"):
        values = facets.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise stl.StlError("mesh has values beyond the float32 range of binary STL")
    vertices = values[:, 1:].astype(np.float64)
    cross = np.cross(vertices[:, 1] - vertices[:, 0], vertices[:, 2] - vertices[:, 0])
    if np.any(np.all(cross == 0.0, axis=1)):
        raise stl.StlError("facet has zero area in the float32 of binary STL; cannot write")
    header = name.encode("latin-1", errors="replace")[:80].ljust(80, b"\0")
    records = np.zeros(len(facets), dtype=[("vals", "<f4", (4, 3)), ("attr", "<u2")])
    records["vals"] = values
    return header + struct.pack("<I", len(facets)) + records.tobytes()


def write_merged(meshes: list[np.ndarray], positions, name: str) -> bytes:
    """Merged export of the whole scene at once: concatenate every mesh's
    facets, add (x, y, 0.0) to each vertex of a mesh, and write the result
    with ``write_binary``."""
    sizes = [len(f) for f in meshes]
    merged = np.concatenate([np.zeros((0, 4, 3)), *meshes])
    offsets = np.array([(x, y, 0.0) for x, y in positions]).reshape(-1, 3)
    merged[:, 1:, :] += np.repeat(offsets, sizes, axis=0)[:, None, :]
    return write_binary(merged, name)


# faults that the binary writer refuses, and the one error each set of them
# raises: non-finite before degenerate before beyond float32 before a facet
# of zero area in float32
WRITER_FAULTS = {
    ("nan",): "mesh contains non-finite values",
    ("kept nan",): "mesh contains non-finite values",
    ("inf normal",): "mesh contains non-finite values",
    ("degenerate",): "degenerate facet has no unit normal",
    ("beyond",): "beyond the float32 range",
    ("nan", "beyond"): "non-finite",
    ("kept nan", "beyond"): "non-finite",
    ("kept nan", "degenerate"): "non-finite",
    ("degenerate", "beyond"): "degenerate",
    ("flat",): "zero area in the float32",
    ("beyond", "flat"): "beyond the float32 range",
}


def set_fault(facets: np.ndarray, fault: str, row: int) -> None:
    """Put one of ``WRITER_FAULTS``' faults into facet ``row`` of ``facets``."""
    f = facets[row]
    if fault == "nan":  # beside a normal off unit length, which is recomputed
        f[0] = (0.0, 0.0, 2.0)
        f[1, 0] = np.nan
    elif fault == "kept nan":  # beside the facet's own normal, which is kept
        f[1, 0] = np.nan
    elif fault == "inf normal":  # which recomputing the normal would drop
        f[0] = (np.inf, 0.0, 0.0)
    elif fault == "degenerate":  # a zero normal on a facet of no area
        f[0] = 0.0
        f[2:] = f[1]
    elif fault == "flat":  # a unit normal on a facet of no area in float32 alone
        f[0] = (0.0, 0.0, 1.0)
        f[2:] = f[1]
        f[1:, 0::2] = 1.0
        f[2, 0] += 1e-12
        f[3, 2] += 1e-12
    else:  # "beyond": every vertex's y past the largest float32
        f[1:, 1] = 1e39


# ---------------------------------------------------------------------------
# mesh queries

def sanitize_normals(facets: np.ndarray) -> np.ndarray:
    if facets.shape[0] == 0:
        return facets
    norms = np.linalg.norm(facets[:, 0, :], axis=1)
    off = np.abs(norms - 1.0) > 1e-3
    if not np.any(off):
        return facets
    tiny = norms <= 1e-6
    facets = facets.copy()
    facets[off & tiny, 0, :] = 0.0
    fix = off & ~tiny
    facets[fix, 0, :] /= norms[fix, None]
    return facets


def recompute_normals(mesh: stl.TriangleMesh) -> stl.TriangleMesh:
    facets = mesh.facets.copy()
    if len(mesh) == 0:
        return stl.TriangleMesh(facets, mesh.name)
    e1 = facets[:, 2, :] - facets[:, 1, :]
    e2 = facets[:, 3, :] - facets[:, 1, :]
    cross = np.cross(e1, e2)
    norms = np.linalg.norm(cross, axis=1)
    scale = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    degenerate = norms <= 1e-12 * np.maximum(scale, 1.0)
    safe = np.where(degenerate, 1.0, norms)
    facets[:, 0, :] = np.where(degenerate[:, None], 0.0, cross / safe[:, None])
    return stl.TriangleMesh(facets, mesh.name)


def triangle_centroids(mesh: stl.TriangleMesh) -> np.ndarray:
    return mesh.vertices.mean(axis=1)


def mesh_stats(mesh: stl.TriangleMesh) -> stl.MeshStats:
    if len(mesh) == 0:
        return stl.MeshStats(0, None, 0.0)
    verts = mesh.vertices.reshape(-1, 3)
    bounds = (verts.min(axis=0), verts.max(axis=0))
    e1 = mesh.facets[:, 2, :] - mesh.facets[:, 1, :]
    e2 = mesh.facets[:, 3, :] - mesh.facets[:, 1, :]
    area = 0.5 * float(np.linalg.norm(np.cross(e1, e2), axis=1).sum())
    return stl.MeshStats(len(mesh), bounds, area)


# ---------------------------------------------------------------------------
# manifest text

def dumps_manifest(manifest: dict) -> str:
    """The manifest as ``json.dumps(indent=2, sort_keys=True)`` writes it,
    except that each ``"trees"`` entry is one line, indented four spaces, as
    ``json`` writes it without ``indent``; the text ends in a newline."""
    text = json.dumps({**manifest, "trees": []}, indent=2, sort_keys=True)
    if manifest["trees"]:
        encode = json.JSONEncoder(sort_keys=True).encode
        entries = ",\n".join("    " + encode(entry) for entry in manifest["trees"])
        # a newline, two spaces and a quote start a top-level key and nothing else
        text = text.replace('\n  "trees": []', '\n  "trees": [\n' + entries + '\n  ]', 1)
    return text + "\n"


# ---------------------------------------------------------------------------
# template tubes and CSV tables

# the substream of a tree's seed that its parameter jitter draws from
PARAM_JITTER_STREAM = 4


def tree_params(config, seeds) -> list:
    """The params of each tree seed of a scene config: the template with
    the tree's seed, its branch count and trunk height then drawn by the
    parameter jitter from the tree's own substream, one generator per tree."""
    params = [replace(config.tree_params_template, seed=seed) for seed in seeds]
    jitter = config.parameter_jitter
    if jitter is None or (jitter.branch_count is None and jitter.trunk_height is None):
        return params
    streams = [stream_seed(seed, PARAM_JITTER_STREAM) for seed in seeds]
    for p, rng in zip(params, generators(streams)):
        if jitter.branch_count is not None:
            lo, hi = jitter.branch_count
            p.branch_count = int(rng.integers(lo, hi + 1))
        if jitter.trunk_height is not None:
            lo, hi = jitter.trunk_height
            p.trunk_height = float(rng.uniform(lo, hi))
    return params


def params_to_dict(params) -> dict:
    """One tree's params as a manifest records them, built field by field
    from its TreeParams, as ``forestgen.tree`` did before a params table
    wrote them."""
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


def tapered_tube(base_radius: float, tip_radius: float, height: float,
                 segments: int, rings: int, bend_degrees: float = 0.0,
                 name: str = "tube") -> stl.TriangleMesh:
    """The tube of ``forestgen.templates.tapered_tube``, built one ring and
    one quad at a time."""
    step = height / rings
    spine = [np.zeros(3)]
    dirs = []
    for j in range(rings):
        theta = math.radians(bend_degrees) * (j + 0.5) / rings
        d = np.array([math.sin(theta), 0.0, math.cos(theta)])
        dirs.append(d)
        spine.append(spine[-1] + step * d)

    circles = []
    for j in range(rings + 1):
        frac = j / rings
        radius = base_radius + (tip_radius - base_radius) * frac
        d = dirs[min(j, rings - 1)] if j > 0 else np.array([0.0, 0.0, 1.0])
        u = np.array([d[2], 0.0, -d[0]])  # in-plane perpendicular to the spine
        v = np.array([0.0, 1.0, 0.0])
        angles = 2.0 * np.pi * np.arange(segments) / segments
        ring = spine[j] + radius * (np.outer(np.cos(angles), u) + np.outer(np.sin(angles), v))
        circles.append(ring)

    rows = []
    zero = np.zeros(3)

    def quad(a, b, c, d):
        rows.append([zero, a, b, c])
        rows.append([zero, a, c, d])

    for j in range(rings):
        lo, hi = circles[j], circles[j + 1]
        for k in range(segments):
            k2 = (k + 1) % segments
            quad(lo[k], lo[k2], hi[k2], hi[k])
    base_center, tip_center = spine[0], spine[-1]
    for k in range(segments):
        k2 = (k + 1) % segments
        rows.append([zero, base_center, circles[0][k2], circles[0][k]])
        rows.append([zero, tip_center, circles[-1][k], circles[-1][k2]])

    return stl.recompute_normals(stl.TriangleMesh(np.array(rows), name))


def pattern_to_csv(points) -> str:
    """``forestgen.ipp.pattern_to_csv`` of a pattern of these (n, 2) points,
    one f-string row at a time."""
    lines = ["x,y"]
    for x, y in np.asarray(points, dtype=np.float64).reshape(-1, 2):
        lines.append(f"{x:.9g},{y:.9g}")
    return "\n".join(lines) + "\n"


def centroids_to_csv(centroids) -> str:
    """``forestgen.tree.centroids_to_csv``, one f-string row at a time."""
    lines = ["x,y,z"]
    for x, y, z in np.asarray(centroids, dtype=np.float64).reshape(-1, 3):
        lines.append(f"{x:.9g},{y:.9g},{z:.9g}")
    return "\n".join(lines) + "\n"
