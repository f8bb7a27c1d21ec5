"""Rigid-plus-uniform-scale transforms and their randomized generation:
``random_attachment_transform(frames, ranges, uniforms)`` maps (k, 3)
attachment frames, their jitter ranges and a pre-drawn (k, 3) block of
uniforms to a stack of k transforms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .stl import TriangleMesh

_EYE = np.eye(3)
# z x d = d[[1, 0, 2]] * these, for z = (0, 0, 1)
_Z_CROSS_SIGNS = np.array([-1.0, 1.0, 0.0])
# [a]x, the cross-product matrix of a, flattened: a[_SKEW_INDEX] * _SKEW_SIGNS
_SKEW_INDEX = [0, 2, 1, 2, 0, 0, 1, 0, 0]
_SKEW_SIGNS = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


@dataclass(frozen=True)
class RigidTransform:
    """p -> scale * R @ p + translation, with R orthonormal (det +1).

    A stack of k transforms carries a leading axis on every field: rotation
    (k, 3, 3), translation (k, 3) and scale (k,). The checks apply to every
    element of a stack.
    """

    rotation: np.ndarray
    translation: np.ndarray
    scale: float | np.ndarray = 1.0

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=np.float64)
        translation = np.asarray(self.translation, dtype=np.float64)
        lead = rotation.shape[:-2]
        if len(lead) > 1 or rotation.shape != lead + (3, 3):
            raise ValueError("rotation must be a 3x3 matrix or a (k, 3, 3) stack")
        if translation.shape != lead + (3,):
            raise ValueError("translation must be a 3-vector per rotation")
        if lead:
            scale = np.asarray(self.scale, dtype=np.float64)
            if scale.shape != lead:
                raise ValueError("scale must be one number per rotation")
            if not (scale > 0.0).all():
                raise ValueError("scale must be positive")
        else:
            scale = float(self.scale)
            if not scale > 0.0:
                raise ValueError("scale must be positive")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class AngleJitterParams:
    """Bounded uniform jitter for attachment transforms (degrees, scale)."""

    azimuth_range: float = 0.0
    pitch_range: float = 0.0
    scale_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        # kept as floats, so a scene writes and reads back the same numbers
        for name in ("azimuth_range", "pitch_range"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "scale_range", tuple(map(float, self.scale_range)))
        check_ranges([(self.azimuth_range, self.pitch_range, *self.scale_range)])


def check_ranges(ranges):
    """Refuse jitter ranges, (k, 4) rows of (azimuth_range, pitch_range,
    scale min, scale max), that no AngleJitterParams holds, with its
    message: the first check that some row fails names the fault."""
    a, p, lo, hi = np.asarray(ranges, dtype=np.float64).T
    for name, values in (("azimuth_range", a), ("pitch_range", p), ("scale_range", (lo, hi))):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    for name, values in (("azimuth_range", a), ("pitch_range", p)):
        if (values < 0).any():
            raise ValueError("jitter ranges must be non-negative")
        # a wider range only repeats turns, and a huge one overflows
        if (values > 360.0).any():
            raise ValueError(f"{name} must be at most 360 degrees")
    if not ((0 < lo) & (lo <= hi)).all():
        raise ValueError("scale_range must satisfy 0 < min <= max")


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equal to applying b first, then a."""
    rotation = a.rotation @ b.rotation
    translation = a.scale * (a.rotation @ b.translation) + a.translation
    return RigidTransform(rotation, translation, a.scale * b.scale)


def apply_to_mesh(t: RigidTransform, mesh: TriangleMesh) -> TriangleMesh:
    """Map vertices through the full transform and normals through the
    rotation alone (re-normalized; zero normals stay zero).

    A stack of k transforms maps the mesh once per transform and returns
    the k copies concatenated in stack order, as a mesh of ``mesh``'s type.
    """
    rotation_t = t.rotation.reshape(-1, 3, 3).transpose(0, 2, 1)
    k, m = rotation_t.shape[0], len(mesh)
    # One product per instance over all 4m rows; its vertex rows match
    # per-facet products bit for bit. The normal rows are redone as (m, 3)
    # products, as a single transform always took them (numpy switches to a
    # vector product when m == 1). Per-coordinate updates keep numpy's inner
    # loops long. The row product takes a contiguous copy of the transposed
    # stack, which BLAS multiplies three to four times as fast as the view,
    # with the same bits. The normal product keeps the view: a one-facet
    # mesh's vector product rounds differently on the copy.
    rows = np.matmul(mesh.facets.reshape(-1, 3), np.ascontiguousarray(rotation_t))
    rows *= np.asarray(t.scale).reshape(-1, 1, 1)
    translation = t.translation.reshape(-1, 3, 1)
    for j in range(3):
        rows[:, :, j] += translation[:, j]
    facets = rows.reshape(k, m, 4, 3)
    normals = facets[:, :, 0, :]
    np.matmul(mesh.facets[:, 0, :], rotation_t, out=normals)
    squares = normals * normals
    norms = squares[..., 0] + squares[..., 1]
    norms += squares[..., 2]
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0  # zero normals stay zero
    for j in range(3):
        normals[..., j] /= norms
    return type(mesh)(facets.reshape(k * m, 4, 3), mesh.name)


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Each row of a (k, 3) stack divided by its norm, which is taken as a
    dot product, the way ``np.linalg.norm`` takes it for a single vector."""
    return v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]


def _skew(a: np.ndarray) -> np.ndarray:
    """Cross-product matrices of a (k, 3) stack. A diagonal entry is -0.0
    where its axis component is negative; no rotation built from it sees the
    sign of a zero, since each of its entries adds the identity's first."""
    return (a[:, _SKEW_INDEX] * _SKEW_SIGNS).reshape(-1, 3, 3)


def _rodrigues(k: np.ndarray, k2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """I + sin(theta) K + (1 - cos(theta)) K^2 for every angle in ``theta``
    (radians), with K and its square K2 broadcast against the trailing 3x3
    axes."""
    s = np.sin(theta)[..., None, None]
    c = np.cos(theta)[..., None, None]
    return _EYE + s * k + (1.0 - c) * k2


def _axis_rotations(axes: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotations about a (k, 3) stack of non-zero axes by k angles (radians)."""
    k = _skew(normalize_rows(axes))
    return _rodrigues(k, k @ k, theta)


# cross-product matrices of the jitter axes: azimuth about +Z, pitch about +Y
_JITTER_K = _skew(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
_JITTER_K2 = _JITTER_K @ _JITTER_K
_FLIP_X = _axis_rotations(np.array([[1.0, 0.0, 0.0]]), np.radians([180.0]))[0]


def z_alignments(directions: np.ndarray) -> np.ndarray:
    """The minimal rotation taking +Z onto each of a (k, 3) stack of
    non-zero directions, as a (k, 3, 3) stack.

    Each rotates about the mutual perpendicular; the antipodal case (-Z)
    uses a 180 degree turn about +X.
    """
    d = normalize_rows(directions)
    c = d[:, 2]
    poles = np.abs(c) >= 1.0 - 1e-15
    any_pole = poles.any()
    if any_pole:
        pole_rotation = np.where(c[:, None, None] > 0.0, _EYE, _FLIP_X)
        if poles.all():
            return pole_rotation
    # z x d = (-d1, d0, 0), up to the sign of its zeros
    axis = d[:, [1, 0, 2]] * _Z_CROSS_SIGNS
    if any_pole:
        axis[poles] = (1.0, 0.0, 0.0)
    # math.acos, because np.arccos rounds differently on some inputs; the
    # degree round trip multiplies by the same constants as math's
    theta = np.radians(np.degrees(list(map(math.acos, c.clip(-1.0, 1.0).tolist()))))
    rotation = _axis_rotations(axis, theta)
    if any_pole:
        rotation[poles] = pole_rotation[poles]
    return rotation


def random_attachment_transform(frames, ranges, uniforms: np.ndarray) -> RigidTransform:
    """The stack of k transforms placing a +Z template at k attachment
    frames, (points, unit directions), each (k, 3).

    ``ranges`` holds (azimuth_range, pitch_range, scale min, scale max) as
    one (4,) row for every frame, or as a (k, 4) stack of one row per frame:
    anything that broadcasts to (k, 4). Each template axis lands on its
    direction perturbed by azimuth ~ U(-azimuth_range, +azimuth_range) then
    pitch ~ U(-pitch_range, +pitch_range); scale ~ U(scale min, scale max).
    Each frame reads one row of three uniforms (in that order) regardless of
    the ranges, so the stream layout is stable: ``uniforms`` is the (k, 3)
    block on [0, 1), as ``rng.random((k, 3))`` or ``seeds.uniform_blocks``
    draws it, and a block of any other shape is a ValueError. Frames of
    several streams, such as the trees of a scene, pass their blocks stacked
    in frame order, with one row of ranges per frame.
    """
    points, directions = frames
    k = len(directions)
    if np.shape(uniforms) != (k, 3):
        raise ValueError(f"need a ({k}, 3) block of uniforms, got {np.shape(uniforms)}")
    a, p, lo, hi = np.asarray(ranges, dtype=np.float64).T
    # low + (high - low) * U[0, 1) is how rng.uniform maps its draws, so this
    # gives its doubles without its per-call argument broadcasting
    span = np.array((a + a, p + p, hi - lo)).T
    draws = np.array((-a, -p, lo)).T + span * uniforms
    turns = _rodrigues(_JITTER_K, _JITTER_K2, np.radians(draws[:, :2]))
    rotation = z_alignments(np.asarray(directions, dtype=np.float64)) @ turns[:, 0] @ turns[:, 1]
    return RigidTransform(rotation, points, draws[:, 2])
