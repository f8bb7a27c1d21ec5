"""Rigid-plus-uniform-scale transforms and their randomized generation."""

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
    """Bounded uniform jitter for attachment transforms (degrees, scale).

    The jitter of a stack of k frames may instead carry one value per frame
    on every field: (k,) ranges and a pair of (k,) scale bounds. The checks
    apply to every element.
    """

    azimuth_range: float | np.ndarray = 0.0
    pitch_range: float | np.ndarray = 0.0
    scale_range: tuple = (1.0, 1.0)

    def __post_init__(self):
        for name in ("azimuth_range", "pitch_range", "scale_range"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for name in ("azimuth_range", "pitch_range"):
            degrees = np.asarray(getattr(self, name))
            if (degrees < 0).any():
                raise ValueError("jitter ranges must be non-negative")
            # a wider range only repeats turns, and a huge one overflows
            if (degrees > 360.0).any():
                raise ValueError(f"{name} must be at most 360 degrees")
        lo, hi = self.scale_range
        if not np.all((0 < np.asarray(lo)) & (np.asarray(lo) <= hi)):
            raise ValueError("scale_range must satisfy 0 < min <= max")


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3), 1.0)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equal to applying b first, then a."""
    rotation = a.rotation @ b.rotation
    translation = a.scale * (a.rotation @ b.translation) + a.translation
    return RigidTransform(rotation, translation, a.scale * b.scale)


def inverse(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform(rot, -(rot @ t.translation) / t.scale, 1.0 / t.scale)


def apply_point(t: RigidTransform, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return t.scale * (t.rotation @ p) + t.translation


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


def rotation_about_axis(axis, degrees: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (non-zero) axis."""
    axes = np.asarray(axis, dtype=np.float64).reshape(1, 3)
    return _axis_rotations(axes, np.radians([degrees]))[0]


# cross-product matrices of the jitter axes: azimuth about +Z, pitch about +Y
_JITTER_K = _skew(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
_JITTER_K2 = _JITTER_K @ _JITTER_K
_FLIP_X = rotation_about_axis([1.0, 0.0, 0.0], 180.0)


def align_z_to(direction) -> RigidTransform:
    """Minimal rotation taking +Z onto ``direction`` (unit vector).

    Rotates about the mutual perpendicular; the antipodal case (-Z) uses a
    180 degree turn about +X.
    """
    rotation = z_alignments(np.asarray(direction, dtype=np.float64).reshape(1, 3))
    return RigidTransform(rotation[0], np.zeros(3), 1.0)


def z_alignments(directions: np.ndarray) -> np.ndarray:
    """Rotations of :func:`align_z_to` for a (k, 3) stack of directions, as
    a (k, 3, 3) stack."""
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


def random_attachment_transform(frame, jitter: AngleJitterParams,
                                rng: np.random.Generator | np.ndarray) -> RigidTransform:
    """Transform placing a +Z template at an attachment frame.

    ``frame`` is (point, unit direction). The template axis lands on the
    direction perturbed by azimuth ~ U(-azimuth_range, +azimuth_range) then
    pitch ~ U(-pitch_range, +pitch_range); scale ~ U(*scale_range). Exactly
    three uniforms are drawn (in that order) regardless of the ranges, so
    the stream layout is stable.

    A frame of k stacked points and directions, each (k, 3), draws its
    uniforms as one (k, 3) block, which is the same stream as k single
    frames in turn, and returns a stack of k transforms.

    ``rng`` may also be that (k, 3) block of uniforms on [0, 1), already
    drawn. A stack gathered from several generators, such as the trees of a
    scene, passes their blocks stacked in frame order, together with a
    jitter that holds one range per frame.
    """
    points, directions = frame
    points = np.asarray(points, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    stacked = directions.ndim == 2
    directions = directions.reshape(-1, 3)
    k = len(directions)
    uniforms = rng.random((k, 3)) if isinstance(rng, np.random.Generator) else rng
    if uniforms.shape != (k, 3):
        raise ValueError(f"need a ({k}, 3) block of uniforms, got {uniforms.shape}")
    a, p = jitter.azimuth_range, jitter.pitch_range
    lo, hi = jitter.scale_range
    # low + (high - low) * U[0, 1) is how rng.uniform maps its draws, so this
    # gives its doubles without its per-call argument broadcasting
    span = np.array((a + a, p + p, hi - lo)).T
    draws = np.array((-a, -p, lo)).T + span * uniforms
    turns = _rodrigues(_JITTER_K, _JITTER_K2, np.radians(draws[:, :2]))
    rotation = z_alignments(directions) @ turns[:, 0] @ turns[:, 1]
    if not stacked:
        return RigidTransform(rotation[0], points, float(draws[0, 2]))
    return RigidTransform(rotation, points, draws[:, 2])
