"""Procedurally built template meshes (no binary assets shipped).

All templates live in the canonical library frame: attachment base at the
origin, growth along +Z, height about 1. Branch and sub-branch templates are
pre-bent; rotating instances about their own axis is what varies the curl
direction from branch to branch.
"""

from __future__ import annotations

import math

import numpy as np

from .stl import MeshLibrary, TriangleMesh, recompute_normals

DETAIL_PRESETS = ("tiny", "normal", "fine")


def tapered_tube(base_radius: float, tip_radius: float, height: float,
                 segments: int, rings: int, bend_degrees: float = 0.0,
                 name: str = "tube") -> TriangleMesh:
    """Closed tube of ``rings`` stacked bands whose spine bends by
    ``bend_degrees`` in the x-z plane. Both caps are triangle fans around a
    center vertex; the base center sits exactly at the origin.

    Each band is a quad per segment, split into two triangles; the bands
    come ring by ring, then the base and tip fans interleave segment by
    segment. Triangle count: 2 * segments * rings + 2 * segments.
    """
    if segments < 3 or rings < 1:
        raise ValueError("need at least 3 segments and 1 ring")
    # band j leans by its mid-band angle; math's sin and cos, not numpy's
    # (which may round differently), fix the bend's bits
    thetas = [math.radians(bend_degrees) * (j + 0.5) / rings for j in range(rings)]
    dirs = np.array([[math.sin(t), 0.0, math.cos(t)] for t in thetas])
    spine = np.cumsum(np.vstack([np.zeros(3), height / rings * dirs]), axis=0)
    # ring j faces along band j, but the base ring faces +Z and the tip ring the last band
    d = np.vstack([[0.0, 0.0, 1.0], dirs[1:], dirs[-1:]])
    u = np.stack([d[:, 2], np.zeros(rings + 1), -d[:, 0]], axis=1)
    radii = base_radius + (tip_radius - base_radius) * (np.arange(rings + 1) / rings)
    angles = 2.0 * np.pi * np.arange(segments) / segments
    # (rings + 1, segments, 3) ring points, then the base and tip centers
    points = spine[:, None] + radii[:, None, None] * (
        np.cos(angles)[:, None] * u[:, None] + np.sin(angles)[:, None] * [0.0, 1.0, 0.0])
    vertices = np.vstack([points.reshape(-1, 3), spine[[0, -1]]])
    at = np.arange((rings + 1) * segments).reshape(rings + 1, segments)
    on = np.roll(at, -1, axis=1)  # the next point round each ring
    base, tip = np.full(segments, at.size), np.full(segments, at.size + 1)
    bands = np.stack([at[:-1], on[:-1], on[1:], at[:-1], on[1:], at[1:]], axis=-1)
    caps = np.stack([base, on[0], at[0], tip, at[-1], on[-1]], axis=-1)
    corners = vertices[np.vstack([bands.reshape(-1, 6), caps]).reshape(-1, 3)]
    facets = np.concatenate([np.zeros((len(corners), 1, 3)), corners], axis=1)
    return recompute_normals(TriangleMesh(facets, name))


def leaf_triangle(width: float = 0.5, length: float = 1.0) -> TriangleMesh:
    """Single-triangle leaf: base tip at the origin, blade along +Z."""
    facets = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [width / 2.0, 0.0, length],
                        [-width / 2.0, 0.0, length]]])
    return recompute_normals(TriangleMesh(facets, "leaf"))


def default_library(detail: str = "normal") -> MeshLibrary:
    """Built-in template set at one of three tessellation levels.

    "tiny" keeps tests fast, "normal" is the CLI default, "fine" pushes the
    trunk template to 10k triangles for load benchmarks.
    """
    if detail == "tiny":
        trunk = tapered_tube(0.05, 0.02, 1.0, 6, 2, 0.0, "trunk")
        branch = tapered_tube(0.035, 0.012, 1.0, 5, 2, 20.0, "branch")
        sub = tapered_tube(0.022, 0.008, 1.0, 4, 1, 28.0, "sub_branch")
    elif detail == "normal":
        trunk = tapered_tube(0.05, 0.02, 1.0, 12, 8, 0.0, "trunk")
        branch = tapered_tube(0.035, 0.012, 1.0, 10, 6, 22.0, "branch")
        sub = tapered_tube(0.022, 0.008, 1.0, 8, 4, 30.0, "sub_branch")
    elif detail == "fine":
        trunk = tapered_tube(0.05, 0.02, 1.0, 50, 99, 0.0, "trunk")
        branch = tapered_tube(0.035, 0.012, 1.0, 24, 20, 22.0, "branch")
        sub = tapered_tube(0.022, 0.008, 1.0, 16, 12, 30.0, "sub_branch")
    else:
        raise ValueError(f"unknown detail preset '{detail}', expected one of {DETAIL_PRESETS}")
    return MeshLibrary(trunk=trunk, branch=branch, sub_branch=sub, leaf=leaf_triangle())
