"""STL triangle-mesh I/O and queries, plus the template mesh library.

Meshes are stored as float64 arrays of shape (n, 4, 3) where each row is
[normal, v0, v1, v2]. Binary STL narrows to little-endian float32 on write
(the format mandates it); reading widens back to float64 exactly, so a
write -> read -> write cycle is byte stable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER_BYTES = 80
FACET_BYTES = 50

_FACET_DTYPE = np.dtype([("vals", "<f4", (4, 3)), ("attr", "<u2")])
assert _FACET_DTYPE.itemsize == FACET_BYTES


class StlError(Exception):
    """Base error for STL handling."""


class StlParseError(StlError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LibraryError(StlError):
    """Raised when a template library or its manifest is invalid."""


@dataclass
class TriangleMesh:
    facets: np.ndarray  # (n, 4, 3) float64, rows are [normal, v0, v1, v2]
    name: str = "mesh"

    def __post_init__(self):
        arr = np.asarray(self.facets, dtype=np.float64)
        if arr.size == 0:
            arr = np.zeros((0, 4, 3), dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1:] != (4, 3):
            raise ValueError(f"facet array must have shape (n, 4, 3), got {arr.shape}")
        self.facets = arr

    def __len__(self) -> int:
        return self.facets.shape[0]

    @property
    def normals(self) -> np.ndarray:
        return self.facets[:, 0, :]

    @property
    def vertices(self) -> np.ndarray:
        """All vertices, shape (n, 3, 3)."""
        return self.facets[:, 1:, :]


def empty_mesh(name: str = "mesh") -> TriangleMesh:
    return TriangleMesh(np.zeros((0, 4, 3)), name)


def concat_meshes(meshes, name: str = "mesh") -> TriangleMesh:
    parts = [m.facets for m in meshes if len(m)]
    if not parts:
        return empty_mesh(name)
    return TriangleMesh(np.concatenate(parts, axis=0), name)


# ---------------------------------------------------------------------------
# reading

def read_stl(data: bytes, return_format: bool = False):
    """Parse STL bytes, auto-detecting ASCII vs binary.

    ASCII is assumed only when the payload starts with ``solid`` AND the
    facet grammar parses; otherwise the binary layout is tried (some binary
    files begin with "solid").
    """
    if len(data) == 0:
        raise StlParseError("empty input")
    ascii_error = None
    if data.lstrip()[:5] == b"solid":
        try:
            mesh = _read_ascii(data)
            return (mesh, "ascii") if return_format else mesh
        except StlParseError as exc:
            ascii_error = exc
    try:
        mesh = _read_binary(data)
        return (mesh, "binary") if return_format else mesh
    except StlParseError:
        if ascii_error is not None:
            raise ascii_error
        raise


def _read_binary(data: bytes) -> TriangleMesh:
    if len(data) < HEADER_BYTES + 4:
        raise StlParseError(
            f"binary STL needs at least {HEADER_BYTES + 4} header bytes, got {len(data)}"
        )
    count = struct.unpack_from("<I", data, HEADER_BYTES)[0]
    expected = HEADER_BYTES + 4 + FACET_BYTES * count
    if len(data) < expected:
        raise StlParseError(
            f"truncated binary STL: {count} declared facets require "
            f"{expected} bytes, got {len(data)}"
        )
    name = data[:HEADER_BYTES].split(b"\0", 1)[0].decode("latin-1")
    raw = np.frombuffer(data, dtype=_FACET_DTYPE, count=count, offset=HEADER_BYTES + 4)
    facets = raw["vals"].astype(np.float64)
    if not np.all(np.isfinite(facets)):
        raise StlParseError("binary STL contains non-finite values")
    return TriangleMesh(_sanitize_normals(facets), name)


def _sanitize_normals(facets: np.ndarray) -> np.ndarray:
    """Force stored normals onto {0} or the unit sphere (within 1e-3 they
    are kept bit-exact, so canonical files round-trip byte-identically)."""
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


def _read_ascii(data: bytes) -> TriangleMesh:
    text = data.decode("ascii", errors="replace")
    lines = [(i + 1, ln.split()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, toks) for no, toks in lines if toks]
    if not lines:
        raise StlParseError("empty input")
    pos = 0

    def take(expect_eof_msg: str):
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise StlParseError(f"unexpected end of file, {expect_eof_msg}", line=last)
        no, toks = lines[pos]
        pos += 1
        return no, toks

    def floats(toks, no, n):
        try:
            vals = [float(t) for t in toks]
        except ValueError:
            raise StlParseError(f"expected {n} numbers, got {' '.join(toks)}", line=no)
        if len(vals) != n:
            raise StlParseError(f"expected {n} numbers, got {len(vals)}", line=no)
        return vals

    no, toks = take("expected 'solid'")
    if toks[0] != "solid":
        raise StlParseError(f"expected 'solid', got '{toks[0]}'", line=no)
    name = " ".join(toks[1:])

    rows = []
    while True:
        no, toks = take("expected 'facet' or 'endsolid'")
        if toks[0] == "endsolid":
            break
        if toks[:2] != ["facet", "normal"]:
            raise StlParseError(f"expected 'facet normal', got '{' '.join(toks[:2])}'", line=no)
        normal = floats(toks[2:], no, 3)
        no, toks = take("expected 'outer loop'")
        if toks != ["outer", "loop"]:
            raise StlParseError("expected 'outer loop'", line=no)
        verts = []
        for _ in range(3):
            no, toks = take("expected 'vertex'")
            if toks[0] != "vertex":
                raise StlParseError(f"expected 'vertex', got '{toks[0]}'", line=no)
            verts.append(floats(toks[1:], no, 3))
        no, toks = take("expected 'endloop'")
        if toks != ["endloop"]:
            raise StlParseError("expected 'endloop'", line=no)
        no, toks = take("expected 'endfacet'")
        if toks != ["endfacet"]:
            raise StlParseError("expected 'endfacet'", line=no)
        rows.append([normal] + verts)

    if pos != len(lines):
        no = lines[pos][0]
        raise StlParseError("unexpected content after 'endsolid'", line=no)
    facets = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 4, 3))
    if not np.all(np.isfinite(facets)):
        raise StlParseError("ASCII STL contains non-finite values")
    return TriangleMesh(_sanitize_normals(facets), name)


# ---------------------------------------------------------------------------
# writing

def write_stl(mesh: TriangleMesh, fmt: str = "binary") -> bytes:
    """Serialize a mesh. Normals that are not unit length are recomputed;
    a degenerate facet that cannot carry a unit normal is an error."""
    if fmt not in ("binary", "ascii"):
        raise ValueError(f"unknown STL format '{fmt}'")
    if not np.all(np.isfinite(mesh.facets)):
        raise StlError("mesh contains non-finite values")
    facets = _with_writable_normals(mesh)
    if fmt == "binary":
        return _write_binary(facets, mesh.name)
    return _write_ascii(facets, mesh.name)


def _with_writable_normals(mesh: TriangleMesh) -> np.ndarray:
    facets = mesh.facets
    if len(mesh) == 0:
        return facets
    norms = np.linalg.norm(facets[:, 0, :], axis=1)
    bad = np.abs(norms - 1.0) > 1e-3
    if not np.any(bad):
        return facets
    fixed = recompute_normals(TriangleMesh(facets[bad], mesh.name)).facets
    if np.any(np.linalg.norm(fixed[:, 0, :], axis=1) == 0.0):
        raise StlError("degenerate facet has no unit normal; cannot write")
    out = facets.copy()
    out[bad] = fixed
    return out


def _write_binary(facets: np.ndarray, name: str) -> bytes:
    header = name.encode("latin-1", errors="replace")[:HEADER_BYTES]
    header = header.ljust(HEADER_BYTES, b"\0")
    n = facets.shape[0]
    arr = np.zeros(n, dtype=_FACET_DTYPE)
    arr["vals"] = facets.astype("<f4")
    return header + struct.pack("<I", n) + arr.tobytes()


def _write_ascii(facets: np.ndarray, name: str) -> bytes:
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
# queries

def triangle_centroids(mesh: TriangleMesh) -> np.ndarray:
    """Per-facet centroids, shape (n, 3)."""
    return mesh.vertices.mean(axis=1)


def recompute_normals(mesh: TriangleMesh) -> TriangleMesh:
    """Set each normal to the unit cross product (v1-v0) x (v2-v0).

    Degenerate (zero-area) facets are flagged by a zero normal in the output;
    such meshes are readable but refuse to serialize.
    """
    facets = mesh.facets.copy()
    if len(mesh) == 0:
        return TriangleMesh(facets, mesh.name)
    e1 = facets[:, 2, :] - facets[:, 1, :]
    e2 = facets[:, 3, :] - facets[:, 1, :]
    cross = np.cross(e1, e2)
    norms = np.linalg.norm(cross, axis=1)
    scale = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    degenerate = norms <= 1e-12 * np.maximum(scale, 1.0)
    safe = np.where(degenerate, 1.0, norms)
    facets[:, 0, :] = np.where(degenerate[:, None], 0.0, cross / safe[:, None])
    return TriangleMesh(facets, mesh.name)


@dataclass
class MeshStats:
    triangle_count: int
    bounds: tuple[np.ndarray, np.ndarray] | None  # (min, max), None when empty
    total_area: float


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    if len(mesh) == 0:
        return MeshStats(0, None, 0.0)
    verts = mesh.vertices.reshape(-1, 3)
    bounds = (verts.min(axis=0), verts.max(axis=0))
    e1 = mesh.facets[:, 2, :] - mesh.facets[:, 1, :]
    e2 = mesh.facets[:, 3, :] - mesh.facets[:, 1, :]
    area = 0.5 * float(np.linalg.norm(np.cross(e1, e2), axis=1).sum())
    return MeshStats(len(mesh), bounds, area)


# ---------------------------------------------------------------------------
# template library

LIBRARY_ROLES = ("trunk", "branch", "sub_branch", "leaf")


@dataclass
class MeshLibrary:
    """Template meshes in canonical local frames: attachment base at the
    origin, growth axis +Z. Extents along +Z are cached for scaling."""

    trunk: TriangleMesh
    branch: TriangleMesh
    sub_branch: TriangleMesh
    leaf: TriangleMesh
    extents: dict = field(init=False)

    def __post_init__(self):
        self.extents = {}
        for role in LIBRARY_ROLES:
            mesh = getattr(self, role)
            if len(mesh) == 0:
                raise LibraryError(f"template '{role}' is empty")
            extent = float(mesh.vertices[..., 2].max())
            if extent <= 0.0:
                raise LibraryError(f"template '{role}' has no extent along +Z")
            self.extents[role] = extent

    def template(self, role: str) -> TriangleMesh:
        return getattr(self, role)

    def extent(self, role: str) -> float:
        return self.extents[role]


def load_library(manifest_path) -> MeshLibrary:
    """Load a template library from a JSON manifest.

    The manifest maps each role in ``LIBRARY_ROLES`` to
    ``{"file": <stl path>, "origin": [x,y,z], "axis": [x,y,z]}``; origin and
    axis declare the template's local frame and default to the canonical
    one (origin zero, axis +Z). Non-canonical frames are normalized on load.
    """
    path = Path(manifest_path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise LibraryError(f"cannot read library manifest {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise LibraryError(f"library manifest {path} must be a JSON object")
    meshes = {}
    for role in LIBRARY_ROLES:
        if role not in spec:
            raise LibraryError(f"library manifest missing role '{role}'")
        entry = spec[role]
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise LibraryError(f"library role '{role}' must be an object with a \"file\" path")
        stl_path = path.parent / entry["file"]
        try:
            mesh = read_stl(stl_path.read_bytes())
        except (OSError, ValueError, StlParseError) as exc:
            raise LibraryError(f"cannot load template '{role}' from {stl_path}: {exc}") from exc
        mesh.name = role
        origin = _frame_vector(entry.get("origin"), (0.0, 0.0, 0.0), f"{role} origin")
        axis = _frame_vector(entry.get("axis"), (0.0, 0.0, 1.0), f"{role} axis")
        meshes[role] = _canonicalize(mesh, origin, axis)
    return MeshLibrary(**meshes)


def _frame_vector(value, default, what: str) -> np.ndarray:
    """A template frame's 3-vector; ``default`` when the manifest omits it."""
    try:
        vector = np.asarray(default if value is None else value, dtype=np.float64)
        if vector.shape == (3,) and np.isfinite(vector).all():
            return vector
    except (TypeError, ValueError):
        pass
    raise LibraryError(f"template {what} must be three finite numbers")


def _canonicalize(mesh: TriangleMesh, origin: np.ndarray, axis: np.ndarray) -> TriangleMesh:
    from . import transform as tf  # runtime import; transform depends on stl

    norm = np.linalg.norm(axis)
    if norm == 0:
        raise LibraryError("template axis must be non-zero")
    axis = axis / norm
    if np.allclose(origin, 0.0) and np.allclose(axis, [0.0, 0.0, 1.0]):
        return mesh
    # rotation taking the declared axis onto +Z, then shift base to origin
    rot = tf.align_z_to(axis).rotation.T
    t = tf.RigidTransform(rot, -rot @ origin, 1.0)
    return tf.apply_to_mesh(t, mesh)


def save_library(lib: MeshLibrary, directory, fmt: str = "binary") -> Path:
    """Write the four templates plus a ``library.json`` manifest; returns
    the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for role in LIBRARY_ROLES:
        fname = f"{role}.stl"
        (directory / fname).write_bytes(write_stl(lib.template(role), fmt))
        manifest[role] = {"file": fname, "origin": [0.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0]}
    out = directory / "library.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
