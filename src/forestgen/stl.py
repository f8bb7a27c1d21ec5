"""STL triangle-mesh I/O and queries, plus the template mesh library.

Meshes are stored as float64 arrays of shape (n, 4, 3) where each row is
[normal, v0, v1, v2]. Binary STL narrows to little-endian float32 on write
(the format mandates it); reading widens back to float64 exactly. ASCII STL
writes every number at 9 significant digits. In either format a
write -> read -> write cycle is byte stable.

The per-facet kernels (normal lengths, cross products, areas, centroids and
bounds) work one coordinate at a time on (n,) columns, so numpy runs one
long loop per coordinate instead of a length-3 loop per facet. Each keeps
the operation order of the axis form it replaces (``np.cross``,
``np.linalg.norm``, ``mean`` and ``min``/``max`` over an axis), so every
result is the same bit for bit.
"""

from __future__ import annotations

import difflib
import io
import itertools
import json
import os
import re
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import transform as tf

HEADER_BYTES = 80
FACET_BYTES = 50

_FACET_DTYPE = np.dtype([("vals", "<f4", (4, 3)), ("attr", "<u2")])
assert _FACET_DTYPE.itemsize == FACET_BYTES

# merged export writes, file_stats reads and mesh_stats folds this many
# triangles at a time: about 390 KB of float64 facets and 200 KB of records,
# so a piece's passes stay near the cache
CHUNK_TRIANGLES = 1 << 12

# what read_stl tries as ASCII: ``solid`` after any leading whitespace, the
# bytes that ``bytes.lstrip`` strips
_SOLID = re.compile(rb"\s*solid")

# ASCII STL is read in blocks of about this many bytes (see ``_ascii_blocks``)
ASCII_BLOCK_BYTES = 1 << 17

# where a block may end: after an endfacet token (whitespace before it, as
# str.split() sees it), spaces, and one line-break byte (str.splitlines())
_ENDFACET_LINE = re.compile(rb"[\t-\r\x1c- ]endfacet[\t\x1f ]*[\n-\r\x1c-\x1e]")


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
    """Parse STL bytes (or any bytes-like buffer), auto-detecting ASCII vs
    binary.

    ASCII is assumed only when the payload starts with ``solid`` AND the
    facet grammar parses; otherwise the binary layout is tried (some binary
    files begin with "solid").
    """
    if len(data) == 0:
        raise StlParseError("empty input")
    ascii_error = None
    if _SOLID.match(data):
        try:
            mesh = _read_ascii(bytes(data))
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


def _binary_count(head, size: int) -> int:
    """The facet count that ``head``, the first bytes of a binary STL of
    ``size`` bytes, declares; an error if the file is too short for it."""
    if size < HEADER_BYTES + 4:
        raise StlParseError(
            f"binary STL needs at least {HEADER_BYTES + 4} header bytes, got {size}"
        )
    count = struct.unpack_from("<I", head, HEADER_BYTES)[0]
    expected = HEADER_BYTES + 4 + FACET_BYTES * count
    if size < expected:
        raise StlParseError(
            f"truncated binary STL: {count} declared facets require "
            f"{expected} bytes, got {size}"
        )
    return count


def _binary_name(head) -> str:
    return bytes(head[:HEADER_BYTES]).split(b"\0", 1)[0].decode("latin-1")


def _read_binary(data: bytes) -> TriangleMesh:
    count = _binary_count(data, len(data))
    raw = np.frombuffer(data, dtype=_FACET_DTYPE, count=count, offset=HEADER_BYTES + 4)
    facets = raw["vals"].astype(np.float64)
    if not np.all(np.isfinite(facets)):
        raise StlParseError("binary STL contains non-finite values")
    return TriangleMesh(_sanitize_normals(facets), _binary_name(data))


def _sanitize_normals(facets: np.ndarray) -> np.ndarray:
    """Force stored normals onto {0} or the unit sphere (within 1e-3 they
    are kept bit-exact, so canonical files round-trip byte-identically)."""
    if facets.shape[0] == 0:
        return facets
    norms = _norms(facets[:, 0].T)
    off = np.abs(norms - 1.0) > 1e-3
    if not np.any(off):
        return facets
    tiny = norms <= 1e-6
    facets = facets.copy()
    facets[off & tiny, 0, :] = 0.0
    fix = off & ~tiny
    facets[fix, 0, :] /= norms[fix, None]
    return facets


def _ascii_blocks(read):
    """Cut the ASCII STL that ``read(size)`` reads into blocks, each a
    complete ASCII STL of its own, and yield each with True if it is the
    whole input. Each read of ASCII_BLOCK_BYTES ends a block right after
    the line break of the last endfacet line before it. The first block
    keeps the input's solid line, each later one gets a bare one, and each
    but the last an endsolid line. Since every cut falls after a line
    break, where every block parses as ASCII so does the input, to the
    blocks' facets in order under the first block's name. A read with no
    cut before it just joins the next, so an input with few cuts or none is
    read in larger blocks, at worst in one."""
    head, buf, start = b"", bytearray(read(ASCII_BLOCK_BYTES)), 1
    while more := read(ASCII_BLOCK_BYTES):
        end, line = len(buf), None
        while line is None and (end := buf.rfind(b"endfacet", start, end)) > 0:
            line = _ENDFACET_LINE.match(buf, end - 1)
        if line:
            yield head + buf[:line.end()] + b"\nendsolid\n", False
            head, buf = b"solid\n", buf[line.end():]
        # the bytes left hold no cut, but for one whose line break is yet to come
        start = max(1, len(buf) - 64)
        buf += more
    yield head + buf, not head


def _read_ascii(data: bytes) -> TriangleMesh:
    meshes = []
    for block, whole in _ascii_blocks(io.BytesIO(data).read):
        text = block.decode("ascii", errors="replace")
        meshes.append(_read_ascii_table(block, text))
        if meshes[-1] is None:  # a block refused: the input is read whole
            text = text if whole else data.decode("ascii", errors="replace")
            mesh = None if whole else _read_ascii_table(data, text)
            return _read_ascii_lines(text) if mesh is None else mesh
    return concat_meshes(meshes, meshes[0].name)


# The control bytes that str.split() treats as whitespace, and those of them
# that str.splitlines() breaks at. Space is the only other whitespace byte:
# an ASCII decode maps every byte above 0x7f to U+FFFD, which is neither.
_SPACE_CONTROLS = (9, 10, 11, 12, 13, 28, 29, 30, 31)
_BREAK_CONTROLS = (10, 11, 12, 13, 28, 29, 30)

# one facet as the line parser reads it: 21 tokens on 7 lines
_FACET_KEYWORDS = ((0, "facet"), (1, "normal"), (5, "outer"), (6, "loop"), (7, "vertex"),
                   (11, "vertex"), (15, "vertex"), (19, "endloop"), (20, "endfacet"))
_FACET_NUMBERS = (2, 3, 4, 8, 9, 10, 12, 13, 14, 16, 17, 18)
_FACET_LINE_STARTS = np.isin(np.arange(21), (0, 5, 7, 11, 15, 19, 20))


def _read_ascii_table(data: bytes, text: str) -> TriangleMesh | None:
    """The whole-file reading of an ASCII STL: split ``text`` once, check the
    keywords column by column of the (n, 21) token table, check on ``data``
    that line breaks fall between the facet lines and nowhere else, and
    convert all 12 n numbers in one pass. Returns None where any check fails,
    a non-finite value included, leaving the outcome to ``_read_ascii_lines``;
    a mesh it returns is the one that parser gives."""
    tokens = text.split()
    if tokens[:1] != ["solid"]:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    controls = np.flatnonzero(buf < 32)
    codes = buf[controls]
    if not np.isin(codes, _SPACE_CONTROLS).all():
        return None  # a control byte inside a token
    space = buf <= 32
    # the byte before each token that does not start the file
    before = np.flatnonzero(space[:-1] > space[1:])
    # first[k]: token k begins a line (k = len(tokens) stands for the end)
    first = np.zeros(len(tokens) + 1, dtype=bool)
    first[0] = True
    breaks = controls[np.isin(codes, _BREAK_CONTROLS)]
    first[np.searchsorted(before, breaks) + (not space[0])] = True
    lines = np.flatnonzero(first[:-1])
    if len(lines) < 2:
        return None
    head, tail = int(lines[1]), int(lines[-1])  # the solid line ends, the endsolid line starts
    n, rest = divmod(tail - head, 21)
    if rest or tokens[tail] != "endsolid":
        return None
    body = tokens[head:tail]
    if any(body[col::21].count(word) != n for col, word in _FACET_KEYWORDS):
        return None
    if not np.array_equal(first[head:tail], np.tile(_FACET_LINE_STARTS, n)):
        return None
    numbers = itertools.chain.from_iterable(body[col::21] for col in _FACET_NUMBERS)
    try:
        values = np.fromiter(map(float, numbers), dtype=np.float64, count=12 * n)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    facets = values.reshape(12, n).T.reshape(n, 4, 3)
    return TriangleMesh(_sanitize_normals(facets), " ".join(tokens[1:head]))


def _read_ascii_lines(text: str) -> TriangleMesh:
    """The line-by-line reading of an ASCII STL, whose errors name the line;
    it decides every file the whole-file reading turns down."""
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
    """Serialize a mesh. Normals that are not unit length are recomputed.
    A non-finite value is an error, and so are a degenerate facet that
    cannot carry a unit normal and, in binary, a value beyond the range of
    float32 and a facet of zero area in float32; a mesh with several of
    these faults raises the first of them in that order."""
    if fmt not in ("binary", "ascii"):
        raise ValueError(f"unknown STL format '{fmt}'")
    if fmt == "binary":
        return _write_binary(mesh)
    _refuse_if_not_finite(mesh.facets)
    return _write_ascii(_with_writable_normals(mesh), mesh.name)


def _refuse_if_not_finite(facets: np.ndarray) -> None:
    if not np.isfinite(facets).all():
        raise StlError("mesh contains non-finite values")


def _with_writable_normals(mesh: TriangleMesh) -> np.ndarray:
    """The facets with each normal off unit length recomputed. The facets
    of such a normal are checked to be finite first, since recomputing it
    would drop a non-finite normal."""
    facets = mesh.facets
    if len(mesh) == 0:
        return facets
    bad = np.abs(_norms(facets[:, 0].T) - 1.0) > 1e-3
    if not np.any(bad):
        return facets
    fixed = facets[bad]
    _refuse_if_not_finite(fixed)
    fixed = recompute_normals(TriangleMesh(fixed, mesh.name)).facets
    if np.any(_norms(fixed[:, 0].T) == 0.0):
        _refuse_if_not_finite(facets)
        raise StlError("degenerate facet has no unit normal; cannot write")
    out = facets.copy()
    out[bad] = fixed
    return out


def binary_header(name: str, count: int) -> bytes:
    """The 84 bytes that open a binary STL of ``count`` facets: ``name`` in
    latin-1, cut or NUL-padded to 80 bytes, then the little-endian count."""
    header = name.encode("latin-1", errors="replace")[:HEADER_BYTES]
    return header.ljust(HEADER_BYTES, b"\0") + struct.pack("<I", count)


def _write_binary(mesh: TriangleMesh) -> bytes:
    """Header, count and records in one buffer. One finiteness pass, over
    the float32 values, catches both a non-finite value and one that float32
    cannot hold (an error, not an infinity in the file); the float64 facets
    are looked at again only to tell the two apart. A facet whose float32
    vertices span no area is refused too."""
    facets = _with_writable_normals(mesh)
    n = facets.shape[0]
    buf = np.empty(HEADER_BYTES + 4 + FACET_BYTES * n, dtype=np.uint8)
    buf[:HEADER_BYTES + 4] = np.frombuffer(binary_header(mesh.name, n), dtype=np.uint8)
    records = buf[HEADER_BYTES + 4:].view(_FACET_DTYPE)
    with np.errstate(over="ignore"):
        records["vals"] = facets
    if not np.isfinite(records["vals"]).all():
        _refuse_if_not_finite(mesh.facets)
        raise StlError("mesh has values beyond the float32 range of binary STL")
    if len(_zero_area_rows(records["vals"][:, 1:])):
        raise StlError("facet has zero area in the float32 of binary STL; cannot write")
    records["attr"] = 0
    return buf.tobytes()


def _zero_area_rows(vertices: np.ndarray) -> np.ndarray:
    """Rows of the facets whose float32 vertices (k, 3, 3) have a zero cross
    product. It is taken in float64, where products of float32 values cannot
    underflow, one component at a time (x * y - z * w == 0 as x * y == z *
    w), each on the rows whose components so far are all zero: after the
    first, few rows are left."""
    rows = None
    for i, j in ((0, 1), (1, 2), (2, 0)):
        v = vertices if rows is None else vertices[rows]
        ai, aj, bi, bj = (np.subtract(v[:, k, c], v[:, 0, c], dtype=np.float64)
                          for k in (1, 2) for c in (i, j))
        zero = ai * bj == aj * bi
        rows = zero.nonzero()[0] if rows is None else rows[zero]
        if not len(rows):
            break
    return rows


_ASCII_FACET = ("  facet normal %.9g %.9g %.9g\n    outer loop\n"
                + "      vertex %.9g %.9g %.9g\n" * 3 + "    endloop\n  endfacet\n")


def _write_ascii(facets: np.ndarray, name: str) -> bytes:
    """Every number at 9 significant digits, CHUNK_TRIANGLES facets
    formatted at a time. The name goes on the solid and endsolid lines as
    the reader gives it back: ASCII, with '?' for any other character, and
    each run of whitespace one space."""
    name = " ".join(name.encode("ascii", errors="replace").decode("ascii").split())
    pieces = np.split(facets, range(CHUNK_TRIANGLES, len(facets), CHUNK_TRIANGLES))
    body = [((_ASCII_FACET * len(p)) % tuple(p.ravel().tolist())).encode("ascii") for p in pieces]
    return b"".join([f"solid {name}".rstrip().encode("ascii") + b"\n", *body,
                     f"endsolid {name}".rstrip().encode("ascii") + b"\n"])


# ---------------------------------------------------------------------------
# queries

def _norms(coords) -> np.ndarray:
    """Lengths of vectors given as three coordinate columns (a tuple, or the
    (3, n) transpose of an (n, 3) stack), summed in ``np.linalg.norm``'s
    order."""
    x, y, z = coords
    return np.sqrt(x * x + y * y + z * z)


def _edges_and_cross(facets: np.ndarray):
    """Each facet's edges v1 - v0 and v2 - v0 and their cross product, each
    as three coordinate columns; the cross product in ``np.cross``'s order."""
    v0, v1, v2 = facets[:, 1], facets[:, 2], facets[:, 3]
    ax, ay, az = (v1[:, j] - v0[:, j] for j in range(3))
    bx, by, bz = (v2[:, j] - v0[:, j] for j in range(3))
    cross = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return (ax, ay, az), (bx, by, bz), cross


def triangle_centroids(mesh: TriangleMesh) -> np.ndarray:
    """Per-facet centroids (v0 + v1 + v2) / 3, shape (n, 3). The sum starts
    from +0.0, as ``mean``'s does, so three -0.0 give +0.0."""
    v = mesh.facets
    centroids = np.empty((len(mesh), 3))
    for j in range(3):
        centroids[:, j] = (0.0 + v[:, 1, j] + v[:, 2, j] + v[:, 3, j]) / 3
    return centroids


def recompute_normals(mesh: TriangleMesh) -> TriangleMesh:
    """Set each normal to the unit cross product (v1-v0) x (v2-v0).

    Degenerate (zero-area) facets are flagged by a zero normal in the output;
    such meshes are readable but refuse to serialize.
    """
    facets = mesh.facets.copy()
    if len(mesh) == 0:
        return TriangleMesh(facets, mesh.name)
    e1, e2, cross = _edges_and_cross(facets)
    norms = _norms(cross)
    scale = _norms(e1) * _norms(e2)
    degenerate = norms <= 1e-12 * np.maximum(scale, 1.0)
    safe = np.where(degenerate, 1.0, norms)
    for j in range(3):
        facets[:, 0, j] = np.where(degenerate, 0.0, cross[j] / safe)
    return TriangleMesh(facets, mesh.name)


@dataclass
class MeshStats:
    triangle_count: int
    bounds: tuple[np.ndarray, np.ndarray] | None  # (min, max), None when empty
    total_area: float


class _StatsFold:
    """Facet count, vertex bounds and total area of a mesh given piece by
    piece, in facet order; a piece may be empty.

    Each bound is one min or max over the (k, 3) vertex coordinates of one
    axis in each piece, then over the pieces. The value of a min or max does
    not depend on the order it is taken in, but the sign of a zero bound
    does: a bound equal to 0 has the sign of the last zero of its axis, in
    facet-then-vertex order, which is the sign ``min(axis=0)`` and
    ``max(axis=0)`` over the (3n, 3) vertex rows give, since they keep the
    last of equal values. When a bound is 0, every piece holding a zero of
    its axis has that piece's bound 0 too, so the last zero is the last one
    taken from such a piece. The area is half the sum of one column of the
    cross-product norms, the pieces' norms joined and summed once at the
    end, as over the whole mesh.
    """

    def __init__(self):
        self.norms = []
        self.lo, self.hi = np.full(3, np.inf), np.full(3, -np.inf)
        self.last_zero = np.zeros(3)

    def add(self, facets: np.ndarray):
        lo, hi = np.empty(3), np.empty(3)
        for k in range(3):
            coord = facets[:, 1:, k]
            lo[k], hi[k] = coord.min(initial=np.inf), coord.max(initial=-np.inf)
            if lo[k] == 0.0 or hi[k] == 0.0:
                self.last_zero[k] = coord[coord == 0.0][-1]
        np.minimum(self.lo, lo, out=self.lo)
        np.maximum(self.hi, hi, out=self.hi)
        self.norms.append(_norms(_edges_and_cross(facets)[2]))

    def stats(self) -> MeshStats:
        norms = np.concatenate([np.empty(0), *self.norms])
        lo = np.where(self.lo == 0.0, self.last_zero, self.lo)
        hi = np.where(self.hi == 0.0, self.last_zero, self.hi)
        return MeshStats(len(norms), (lo, hi) if len(norms) else None, 0.5 * float(norms.sum()))


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Facet count, vertex bounds and total area, folded over the mesh
    CHUNK_TRIANGLES facets at a time (see ``_StatsFold``)."""
    fold = _StatsFold()
    for a in range(0, len(mesh), CHUNK_TRIANGLES):
        fold.add(mesh.facets[a:a + CHUNK_TRIANGLES])
    return fold.stats()


def _block_stats(read) -> tuple[str, str, MeshStats] | None:
    """The name, format and stats of the input that ``read(size)`` reads,
    block by block (``_ascii_blocks``): each block is decoded by
    ``read_stl`` and folded in, so memory holds one block and 8 B per
    triangle. None if a block that is not the whole input is refused or
    read as binary: the input is then to be read whole."""
    fold, name = _StatsFold(), None
    for block, whole in _ascii_blocks(read):
        try:
            mesh, fmt = read_stl(block, return_format=True)
        except StlParseError:
            if whole:  # the input's own error
                raise
            return None
        if fmt != "ascii" and not whole:
            return None
        name = mesh.name if name is None else name
        fold.add(mesh.facets)
    return name, fmt, fold.stats()


def file_stats(path) -> tuple[str, str, MeshStats]:
    """The name, format ("binary" or "ascii") and ``mesh_stats`` of the STL
    file at ``path``, or the error of ``read_stl`` on its bytes.

    A regular file that ``read_stl`` reads as binary, one whose first
    HEADER_BYTES + 4 bytes show it does not start with ``solid`` after
    whitespace, is read CHUNK_TRIANGLES records at a time: each piece is
    decoded by ``read_stl`` and folded in, so memory holds one piece and
    8 B per triangle. Any other regular file (ASCII, one that starts with
    ``solid``, one shorter than a header) is read in the blocks of
    ``_ascii_blocks`` and folded in alike (``_block_stats``). A file one of
    whose blocks is refused or read as binary is then read whole, as a pipe
    is.
    """
    with open(path, "rb", buffering=0) as fh:
        st = os.fstat(fh.fileno())
        head = fh.read(HEADER_BYTES + 4) if stat.S_ISREG(st.st_mode) else b""
        # "solid" after the whitespace, or too few bytes after it to tell
        if len(head) < HEADER_BYTES + 4 or b"solid".startswith(head.lstrip()[:5]):
            if head:
                fh.seek(0)
                if found := _block_stats(fh.read):
                    return found
                fh.seek(0)
            mesh, fmt = read_stl(fh.readall(), return_format=True)
            return mesh.name, fmt, mesh_stats(mesh)
        count = _binary_count(head, st.st_size)
        fold = _StatsFold()
        # each piece is a binary STL of its own, under a header of zeros
        piece = bytearray(HEADER_BYTES + 4 + FACET_BYTES * min(count, CHUNK_TRIANGLES))
        view = memoryview(piece)
        for a in range(0, count, CHUNK_TRIANGLES):
            m = min(count - a, CHUNK_TRIANGLES)
            struct.pack_into("<I", piece, HEADER_BYTES, m)
            end = HEADER_BYTES + 4 + FACET_BYTES * m
            filled = HEADER_BYTES + 4
            while filled < end:
                got = fh.readinto(view[filled:end])
                if not got:  # the file shrank while it was read
                    _binary_count(head, FACET_BYTES * a + filled)
                filled += got
            fold.add(read_stl(view[:end]).facets)
        return _binary_name(head), "binary", fold.stats()


# ---------------------------------------------------------------------------
# template library

LIBRARY_ROLES = ("trunk", "branch", "sub_branch", "leaf")

# the (required, optional) keys of a library manifest, and of each role in it
_LIBRARY_KEYS = (" ".join(LIBRARY_ROLES), "")
_ROLE_KEYS = ("file", "origin axis")


def unknown_key(obj: dict, keys: tuple[str, str]) -> tuple[str, str] | None:
    """The first key of ``obj`` that ``keys``, a (required, optional) pair
    of space-separated names, does not name, and a hint: " (did you mean
    K?)" for the closest known key K, or "" if none is close. None if every
    key is known."""
    known = " ".join(keys).split()
    for key in obj:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, 1)
            return key, f" (did you mean {close[0]}?)" if close else ""
    return None


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
    A key the manifest does not know, at its top level or in a role, is a
    LibraryError naming its path and the closest known key.
    """
    path = Path(manifest_path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise LibraryError(f"cannot read library manifest {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise LibraryError(f"library manifest {path} must be a JSON object")
    unknown = unknown_key(spec, _LIBRARY_KEYS)
    if unknown:
        raise LibraryError(f"unknown key {unknown[0]} in library manifest{unknown[1]}")
    meshes = {}
    for role in LIBRARY_ROLES:
        if role not in spec:
            raise LibraryError(f"library manifest missing role '{role}'")
        entry = spec[role]
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
            raise LibraryError(f"library role '{role}' must be an object with a \"file\" path")
        unknown = unknown_key(entry, _ROLE_KEYS)
        if unknown:
            raise LibraryError(f"unknown key {role}.{unknown[0]} in library manifest{unknown[1]}")
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
    except (TypeError, ValueError, OverflowError):
        pass
    raise LibraryError(f"template {what} must be three finite numbers")


def _canonicalize(mesh: TriangleMesh, origin: np.ndarray, axis: np.ndarray) -> TriangleMesh:
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise LibraryError("template axis must be non-zero")
    axis = axis / norm
    if np.allclose(origin, 0.0) and np.allclose(axis, [0.0, 0.0, 1.0]):
        return mesh
    # rotation taking the declared axis onto +Z, then shift base to origin
    rot = tf.z_alignments(axis[None])[0].T
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
