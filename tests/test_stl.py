import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forestgen import stl
from forestgen import transform as tf

import scalar_reference as ref

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32)


def random_mesh(rng, n, name="m"):
    verts = rng.uniform(-100, 100, size=(n, 3, 3))
    facets = np.concatenate([np.zeros((n, 1, 3)), verts], axis=1)
    return stl.recompute_normals(stl.TriangleMesh(facets, name))


def unit_cube_mesh():
    """Closed unit cube as 12 triangles, built by hand (area oracle: 6)."""
    v = [np.array(p, dtype=float) for p in
         [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
          (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]]
    quads = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
             (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]
    rows = []
    for a, b, c, d in quads:
        rows.append([np.zeros(3), v[a], v[b], v[c]])
        rows.append([np.zeros(3), v[a], v[c], v[d]])
    return stl.recompute_normals(stl.TriangleMesh(np.array(rows), "cube"))


# ---------------------------------------------------------------------------
# reading

def test_read_binary_two_triangles_layout():
    rng = np.random.default_rng(1)
    mesh = random_mesh(rng, 2)
    data = stl.write_stl(mesh, "binary")
    assert len(data) == 84 + 2 * 50
    out = stl.read_stl(data)
    assert len(out) == 2
    assert np.allclose(out.facets, mesh.facets, atol=1e-4)


def test_read_ascii_single_facet_exact():
    text = """solid demo
facet normal 0 0 1
 outer loop
  vertex 0 0 0
  vertex 1 0 0
  vertex 0 1 0
 endloop
endfacet
endsolid demo
"""
    mesh, fmt = stl.read_stl(text.encode(), return_format=True)
    assert fmt == "ascii"
    assert len(mesh) == 1
    assert np.array_equal(mesh.facets[0],
                          [[0, 0, 1], [0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert mesh.name == "demo"


def test_read_empty_input_rejected():
    with pytest.raises(stl.StlParseError, match="empty"):
        stl.read_stl(b"")


def test_read_truncated_binary_reports_byte_counts():
    rng = np.random.default_rng(2)
    data = stl.write_stl(random_mesh(rng, 3), "binary")
    with pytest.raises(stl.StlParseError) as err:
        stl.read_stl(data[:-20])
    assert "234" in str(err.value)      # expected bytes for 3 facets
    assert "214" in str(err.value)      # actual


def test_read_ascii_error_carries_line_number():
    bad = b"solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0 z\n"
    with pytest.raises(stl.StlParseError, match="line 4"):
        stl.read_stl(bad)


def test_read_normalizes_out_of_tolerance_normals():
    import struct
    arr = np.zeros(1, dtype=np.dtype([("vals", "<f4", (4, 3)), ("attr", "<u2")]))
    arr["vals"][0] = [[0, 0, 5.0], [0, 0, 0], [1, 0, 0], [0, 1, 0]]
    blob = b"x".ljust(80, b"\0") + struct.pack("<I", 1) + arr.tobytes()
    mesh = stl.read_stl(blob)
    assert np.allclose(mesh.normals[0], [0, 0, 1])
    arr["vals"][0, 0] = [1e-8, 0, 0]  # near-zero collapses to the zero flag
    blob = b"x".ljust(80, b"\0") + struct.pack("<I", 1) + arr.tobytes()
    assert np.array_equal(stl.read_stl(blob).normals[0], [0, 0, 0])


def test_read_ascii_rejects_nan_tokens():
    bad = (b"solid s\nfacet normal 0 0 1\nouter loop\nvertex 0 0 nan\n"
           b"vertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid s\n")
    with pytest.raises(stl.StlParseError, match="non-finite"):
        stl.read_stl(bad)


def test_binary_file_starting_with_solid_falls_back():
    rng = np.random.default_rng(3)
    mesh = random_mesh(rng, 4, name="solid block")  # header begins with 'solid'
    data = stl.write_stl(mesh, "binary")
    out, fmt = stl.read_stl(data, return_format=True)
    assert fmt == "binary"
    assert len(out) == 4


# Reading ASCII takes the whole file at once and leaves every file it turns
# down to the line parser, whose messages name the line. The outcome must be
# the line parser's either way.

def read_outcome(data: bytes, whole_file: bool = True):
    """read_stl's mesh (name, format and facet bits) or its error message,
    with the whole-file reading on or off."""
    with pytest.MonkeyPatch.context() as mp:
        if not whole_file:
            mp.setattr(stl, "_read_ascii_table", lambda data, text: None)
        try:
            mesh, fmt = stl.read_stl(data, return_format=True)
        except stl.StlParseError as exc:
            return "error", str(exc)
    return fmt, mesh.name, mesh.facets.tobytes()


SEPARATORS = [b" ", b"  ", b"\t", b"\x1f"]
LINE_BREAKS = [b"\n", b"\r\n", b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\n \n",
               b"\r\r\n"]
ODD_NUMBERS = [b"nan", b"-inf", b"Infinity", b"1_0", b"1__0", b"1e400", b"-1e-400", b"-0", b"0x1",
               b"+.5", b"5.", b"1e", b"1\xff", b"1\x00"]
ODD_TOKENS = [b"solid", b"facet", b"normal", b"outer", b"loop", b"vertex", b"endloop",
              b"endfacet", b"endsolid", b"\xff", b"caf\xc3\xa9", b"\x01", b"\x7f", b"1"]


@st.composite
def mutated_ascii(draw):
    n = draw(st.integers(0, 3))
    facets = draw(arrays(np.float64, (n, 4, 3), elements=st.floats(-1e3, 1e3, width=32)))
    norms = np.linalg.norm(facets[:, 0], axis=1, keepdims=True)
    facets[:, 0] = np.where(norms > 1e-3, facets[:, 0] / np.maximum(norms, 1e-3), [0, 0, 1])
    text = ref.write_ascii(facets, draw(st.sampled_from(["", "part", "a b"])))
    lines = [line.split(b" ") for line in text.split(b"\n") if line.strip()]
    lines = [[t for t in line if t] for line in lines]
    # sampled_from draws rows and places evenly, where integers() would favour the ends
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["swap", "delete", "duplicate", "glue", "merge", "split",
                                   "blank", "odd", "after", "stray"]))
        row = draw(st.sampled_from(range(len(lines))))
        line = lines[row]
        at = draw(st.sampled_from(range(max(len(line), 1))))
        if op == "swap" and line:
            other = draw(st.sampled_from(lines))
            if other:
                j = draw(st.sampled_from(range(len(other))))
                line[at], other[j] = other[j], line[at]
        elif op == "delete" and line:
            del line[at]
        elif op == "duplicate" and line:
            line.insert(at, line[at])
        elif op == "merge" and row + 1 < len(lines):
            lines[row:row + 2] = [line + lines[row + 1]]
        elif op == "split":
            lines[row:row + 1] = [line[:at], line[at:]]
        elif op == "blank":
            lines.insert(row, [])
        elif op == "glue" and at + 1 < len(line):
            line[at:at + 2] = [line[at] + line[at + 1]]
        elif op == "odd" and line:
            number = line[at][-1:].isdigit()
            line[at] = draw(st.sampled_from(ODD_NUMBERS if number else ODD_TOKENS))
        elif op == "after":
            lines.append(draw(st.sampled_from([[b"x"], [b"solid", b"again"], [b"\xfe"]])))
        elif op == "stray":
            line.insert(at, draw(st.sampled_from(ODD_TOKENS)))
    seps = st.sampled_from(SEPARATORS)
    out = draw(st.sampled_from([b"", b"\n", b" \t"]))
    for line in lines:
        out += draw(seps).join(line) + draw(st.sampled_from(LINE_BREAKS))
    return out if draw(st.booleans()) else out.rstrip()


def one_edit_away(lines: list[list[bytes]]):
    """Every file one token or line edit away from ``lines``, lists of tokens."""
    def render(edited):
        return b"\n".join(b" ".join(line) for line in edited) + b"\n"

    places = [(r, i) for r, line in enumerate(lines) for i in range(len(line))]
    for r, i in places:
        line = lines[r]
        news = [[], [line[i], line[i]], *([t] for t in ODD_NUMBERS + ODD_TOKENS)]
        for new in news:
            yield render(lines[:r] + [line[:i] + new + line[i + 1:]] + lines[r + 1:])
        yield render(lines[:r] + [line[:i] + [line[i] + b"x"] + line[i + 1:]] + lines[r + 1:])
        if i + 1 < len(line):
            yield render(lines[:r] + [line[:i] + [line[i] + line[i + 1]] + line[i + 2:]]
                         + lines[r + 1:])
        yield render(lines[:r] + [line[:i], line[i:]] + lines[r + 1:])
    for r in range(len(lines) - 1):
        yield render(lines[:r] + [lines[r] + lines[r + 1]] + lines[r + 2:])
    for a, (r1, i1) in enumerate(places):
        for r2, i2 in places[a + 1:]:
            swapped = [list(line) for line in lines]
            swapped[r1][i1], swapped[r2][i2] = lines[r2][i2], lines[r1][i1]
            yield render(swapped)


def test_read_ascii_one_edit_away_same_outcome_as_line_parser():
    facets = np.array([[[0, 0, 1], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=np.float64)
    text = ref.write_ascii(facets, "part")
    lines = [line.split() for line in text.splitlines()]
    for data in one_edit_away(lines):
        assert read_outcome(data) == read_outcome(data, whole_file=False), data


@given(data=mutated_ascii())
@settings(max_examples=400, deadline=None)
def test_read_ascii_same_outcome_as_line_parser(data):
    assert read_outcome(data) == read_outcome(data, whole_file=False)


@pytest.mark.parametrize("variant", [
    pytest.param(lambda d: d, id="as written"),
    pytest.param(lambda d: b"\n\t  " + d + b"\n\n", id="blank lines around"),
    pytest.param(lambda d: d.replace(b"\n", b"\r\n"), id="CRLF"),
    pytest.param(lambda d: d.replace(b"\n", b"\x1c").replace(b"    ", b"\t\x1f"),
                 id="x1c breaks, tab and x1f spaces"),
    pytest.param(lambda d: d.replace(b"endsolid part", b"endsolid other words"),
                 id="other endsolid words"),
    pytest.param(lambda d: d.replace(b"outer loop", b"outer\tloop\n\n"), id="blank lines inside"),
    pytest.param(lambda d: d.replace(b"facet normal 0 ", b"facet normal 1_0e-1_0 "),
                 id="underscores in a number"),
    pytest.param(lambda d: d.replace(b"solid part", b"solid  caf\xc3\xa9   part"),
                 id="non-ASCII name"),
])
def test_whole_file_reading_takes_well_formed_files(variant):
    facets = np.zeros((3, 4, 3))
    facets[:, 0, 2] = 1.0
    facets[:, 2, 0] = facets[:, 3, 1] = [1.0, 2.5e-7, -3e8]
    data = variant(ref.write_ascii(facets, "part"))
    assert stl._read_ascii_table(data, data.decode("ascii", errors="replace")) is not None
    assert read_outcome(data) == read_outcome(data, whole_file=False)


# ---------------------------------------------------------------------------
# writing and round trips

def test_write_empty_binary_is_84_bytes():
    data = stl.write_stl(stl.empty_mesh("void"), "binary")
    assert len(data) == 84
    assert data[80:] == b"\0\0\0\0"


def test_write_one_triangle_binary_is_134_bytes():
    mesh = stl.recompute_normals(stl.TriangleMesh(
        np.array([[[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)))
    assert len(stl.write_stl(mesh, "binary")) == 134


def test_write_rejects_non_finite():
    facets = np.array([[[0, 0, 1], [0, 0, 0], [1, 0, 0], [0, np.nan, 0]]])
    with pytest.raises(stl.StlError, match="non-finite"):
        stl.write_stl(stl.TriangleMesh(facets), "binary")


def test_binary_round_trip_corpus_byte_identical():
    rng = np.random.default_rng(42)
    for i in range(30):
        mesh = random_mesh(rng, int(rng.integers(0, 40)), name=f"corpus_{i}")
        b1 = stl.write_stl(mesh, "binary")
        assert len(b1) == 84 + 50 * len(mesh)
        b2 = stl.write_stl(stl.read_stl(b1), "binary")
        assert b1 == b2


def test_ascii_round_trip_corpus_byte_identical():
    rng = np.random.default_rng(44)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, 1.0 / 3.0]
    for i in range(30):
        n = int(rng.integers(0, 40))
        verts = 10.0 ** rng.uniform(-300, 300, size=(n, 3, 3)) * rng.choice([-1.0, 1.0], (n, 3, 3))
        verts.reshape(-1)[rng.integers(0, 9 * n, size=min(n, 9))] = rng.choice(special, min(n, 9))
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        if n:
            normals[0] = [-0.0, 5e-324, 1.0]
        mesh = stl.TriangleMesh(np.concatenate([normals[:, None], verts], axis=1), f"corpus {i}")
        a1 = stl.write_stl(mesh, "ascii")
        assert stl.write_stl(stl.read_stl(a1), "ascii") == a1


finite = st.floats(allow_nan=False, allow_infinity=False)
# names in the form the ASCII writer gives them
written_name = st.from_regex(r"([!-~]+( [!-~]+)*)?", fullmatch=True)


@given(normals=arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)),
       verts=arrays(np.float64, (3, 3, 3), elements=finite), name=written_name)
@settings(max_examples=200, deadline=None)
def test_ascii_writer_matches_per_facet_reference(normals, verts, name):
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.where(norms > 0.0, normals / np.where(norms > 0.0, norms, 1.0), [0.0, 0.0, 1.0])
    assume(np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-3))
    facets = np.concatenate([normals[:, None], verts], axis=1)
    assert stl.write_stl(stl.TriangleMesh(facets, name), "ascii") == ref.write_ascii(facets, name)


@pytest.mark.parametrize("name, solid_line", [
    ("caf\u00e9 \u00fcber", b"solid caf? ?ber"),   # as from a binary header byte >= 0x80
    ("two\nlines", b"solid two lines"),
    ("a  b", b"solid a b"),
    (" lead\t", b"solid lead"),
    ("x\u2028y\x85z\x1cw", b"solid x?y?z w"),
    (" \r\n ", b"solid"),
])
def test_ascii_name_written_as_one_ascii_line(name, solid_line):
    mesh = unit_cube_mesh()
    mesh.name = name
    a1 = stl.write_stl(mesh, "ascii")
    assert a1.startswith(solid_line + b"\n")
    assert a1.endswith(b"\nend" + solid_line + b"\n")
    back = stl.read_stl(a1)
    assert back.name == solid_line[6:].decode()
    assert stl.write_stl(back, "ascii") == a1


# the largest float32, the float64 halfway to 2**128 (the smallest value that
# rounds past it) and its predecessor, and 2**128
F32_EDGES = (float(np.finfo(np.float32).max), 2.0 ** 128 - 2.0 ** 103,
             float(np.nextafter(2.0 ** 128 - 2.0 ** 103, 0.0)), 2.0 ** 128)
binary_value = (st.floats(-3.5e38, 3.5e38)
                | st.sampled_from([0.0, -0.0, *F32_EDGES, *(-v for v in F32_EDGES)]))


def write_outcome(write):
    """The bytes written, or the StlError raised."""
    try:
        return write()
    except stl.StlError as exc:
        return f"StlError: {exc}"


@given(data=st.data(), name=st.text(max_size=90))
@settings(max_examples=300, deadline=None)
def test_binary_writer_matches_whole_mesh_reference(data, name):
    n = data.draw(st.integers(0, 4))
    verts = data.draw(arrays(np.float64, (n, 3, 3), elements=binary_value))
    normals = data.draw(arrays(np.float64, (n, 3),
                               elements=st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])))
    # a unit normal is kept, any other is recomputed (or refused if degenerate)
    unit = data.draw(arrays(np.bool_, (n,)))
    norms = np.linalg.norm(normals, axis=1)
    normals[unit & (norms > 0)] /= norms[unit & (norms > 0), None]
    facets = np.concatenate([normals[:, None], verts], axis=1)
    got = write_outcome(lambda: stl.write_stl(stl.TriangleMesh(facets, name), "binary"))
    assert got == write_outcome(lambda: ref.write_binary(facets, name))


@pytest.mark.parametrize("value", [2.0 ** 128 - 2.0 ** 103, -1e39, 1e100])
def test_binary_write_refuses_values_beyond_float32(value):
    facets = np.array([[[0, 0, 1], [0, 0, 0], [value, 0, 0], [0, 1, 0]]], dtype=float)
    mesh = stl.recompute_normals(stl.TriangleMesh(facets))
    with pytest.raises(stl.StlError, match="float32 range"):
        stl.write_stl(mesh, "binary")
    # ASCII carries any finite value
    assert stl.read_stl(stl.write_stl(mesh, "ascii")).facets[0, 2, 0] == float(f"{value:.9g}")


@pytest.mark.parametrize("faults, message", list(ref.WRITER_FAULTS.items()))
@pytest.mark.parametrize("rows", ["apart", "one facet"])
def test_binary_write_error_order_is_pinned(faults, message, rows):
    mesh = unit_cube_mesh()
    # apart, the fault whose error is raised comes last in the mesh
    for k, fault in enumerate(faults):
        ref.set_fault(mesh.facets, fault, 9 - 4 * k if rows == "apart" else 5)
    with pytest.raises(stl.StlError, match=message):
        stl.write_stl(mesh, "binary")


def test_ascii_round_trip_relative_error():
    rng = np.random.default_rng(43)
    mesh = random_mesh(rng, 25)
    out = stl.read_stl(stl.write_stl(mesh, "ascii"))
    rel = np.abs(out.facets - mesh.facets) / np.maximum(np.abs(mesh.facets), 1e-30)
    assert rel.max() < 1e-6


@given(verts=arrays(np.float64, (3, 3, 3), elements=coord))
@settings(max_examples=40, deadline=None)
def test_round_trip_properties(verts):
    facets = np.concatenate([np.zeros((3, 1, 3)), verts], axis=1)
    mesh = stl.recompute_normals(stl.TriangleMesh(facets))
    if np.any(np.linalg.norm(mesh.normals, axis=1) == 0):
        return  # degenerate facets refuse to serialize
    b1 = stl.write_stl(mesh, "binary")
    assert len(b1) == 84 + 50 * 3
    assert stl.write_stl(stl.read_stl(b1), "binary") == b1
    back = stl.read_stl(stl.write_stl(mesh, "ascii"))
    rel = np.abs(back.facets - mesh.facets) / np.maximum(np.abs(mesh.facets), 1e-30)
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# normals

def test_recompute_normals_right_hand_rule():
    mesh = stl.TriangleMesh(np.array([[[9, 9, 9], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float))
    out = stl.recompute_normals(mesh)
    assert np.allclose(out.facets[0, 0], [0, 0, 1])


def test_recompute_normals_flags_degenerate_with_zero():
    mesh = stl.TriangleMesh(np.array([[[1, 0, 0], [0, 0, 0], [1, 1, 1], [2, 2, 2]]], dtype=float))
    out = stl.recompute_normals(mesh)
    assert np.array_equal(out.facets[0, 0], [0, 0, 0])


@given(verts=arrays(np.float64, (1, 3, 3), elements=coord))
@settings(max_examples=60, deadline=None)
def test_recomputed_normal_orthogonal_to_edges(verts):
    facets = np.concatenate([np.zeros((1, 1, 3)), verts], axis=1)
    out = stl.recompute_normals(stl.TriangleMesh(facets))
    n = out.facets[0, 0]
    if np.linalg.norm(n) == 0:
        return
    e1 = verts[0, 1] - verts[0, 0]
    e2 = verts[0, 2] - verts[0, 0]
    assert abs(np.dot(n, e1)) <= 1e-9 * max(1.0, np.linalg.norm(e1))
    assert abs(np.dot(n, e2)) <= 1e-9 * max(1.0, np.linalg.norm(e2))


def test_recompute_normals_idempotent():
    rng = np.random.default_rng(5)
    mesh = random_mesh(rng, 10)
    once = stl.recompute_normals(mesh)
    twice = stl.recompute_normals(once)
    assert np.array_equal(once.facets, twice.facets)


# ---------------------------------------------------------------------------
# centroid and stats

def one_facet(v0, v1, v2) -> stl.TriangleMesh:
    return stl.TriangleMesh(np.array([[[0, 0, 1], v0, v1, v2]], dtype=np.float64))


def test_centroid_simple():
    centroid = stl.triangle_centroids(one_facet([0, 0, 0], [3, 0, 0], [0, 3, 0]))[0]
    assert np.allclose(centroid, [1, 1, 0])


def test_centroid_equilateral_at_origin():
    pts = [(np.cos(a), np.sin(a), 0.0) for a in (0, 2 * np.pi / 3, 4 * np.pi / 3)]
    assert np.allclose(stl.triangle_centroids(one_facet(*pts))[0], [0, 0, 0], atol=1e-15)


@given(verts=arrays(np.float64, (3, 3), elements=coord),
       perm=st.permutations([0, 1, 2]))
@settings(max_examples=50, deadline=None)
def test_centroid_invariant_under_vertex_permutation(verts, perm):
    a = stl.triangle_centroids(one_facet(*verts))[0]
    b = stl.triangle_centroids(one_facet(*verts[list(perm)]))[0]
    assert np.allclose(a, b, atol=1e-12)


def test_mesh_stats_empty():
    stats = stl.mesh_stats(stl.empty_mesh())
    assert stats.triangle_count == 0
    assert stats.bounds is None
    assert stats.total_area == 0.0


def test_mesh_stats_unit_right_triangle():
    mesh = stl.recompute_normals(stl.TriangleMesh(
        np.array([[[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)))
    stats = stl.mesh_stats(mesh)
    assert stats.total_area == pytest.approx(0.5)
    assert np.allclose(stats.bounds[0], [0, 0, 0])
    assert np.allclose(stats.bounds[1], [1, 1, 0])


def test_mesh_stats_cube_area_is_six():
    assert stl.mesh_stats(unit_cube_mesh()).total_area == pytest.approx(6.0)


def test_total_area_invariant_under_rigid_transform():
    rng = np.random.default_rng(11)
    mesh = random_mesh(rng, 20)
    before = stl.mesh_stats(mesh).total_area
    t = tf.RigidTransform(ref.rotation_about_axis([1, 2, 3], 77.0), np.array([5.0, -2.0, 9.0]), 1.0)
    after = stl.mesh_stats(tf.apply_to_mesh(t, mesh)).total_area
    assert after == pytest.approx(before, rel=1e-6)


def assert_same(a, b):
    """Equal values (NaN equal to NaN) with equal sign bits, zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# coordinates that tie at a bound: signed zeros beside a few other values
_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def facet_arrays(elements=st.one_of(_TIES, coord)):
    return st.integers(0, 40).flatmap(
        lambda n: arrays(np.float64, (n, 4, 3), elements=elements))


def assert_stats_match_reference(facets):
    mesh = stl.TriangleMesh(facets)
    with np.errstate(all="ignore"):  # inf - inf in the edges of a non-finite mesh
        got, want = stl.mesh_stats(mesh), ref.mesh_stats(mesh)
    assert got.triangle_count == want.triangle_count
    assert (got.bounds is None) == (want.bounds is None)
    if got.bounds is not None:
        assert_same(got.bounds[0], want.bounds[0])
        assert_same(got.bounds[1], want.bounds[1])
    assert_same(got.total_area, want.total_area)


@given(facets=facet_arrays())
@settings(max_examples=200, deadline=None)
def test_mesh_stats_matches_reference_bit_for_bit(facets):
    assert_stats_match_reference(facets)


@given(facets=facet_arrays(elements=st.one_of(_TIES, _NON_FINITE, coord)))
@settings(max_examples=100, deadline=None)
def test_mesh_stats_of_non_finite_values_matches_reference(facets):
    assert_stats_match_reference(facets)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000),
       palette=st.sampled_from([(0.0, -0.0), (0.0, -0.0, 1.0), (0.0, -0.0, -1.0),
                                (0.0, -0.0, 1.0, -1.0, 2.5)]))
@settings(max_examples=60, deadline=None)
def test_mesh_stats_signed_zero_bounds_match_reference_on_large_meshes(seed, n, palette):
    # long enough for numpy's unrolled and vectorized reduction loops
    facets = np.random.default_rng(seed).choice(palette, size=(n, 4, 3))
    assert_stats_match_reference(facets)


@given(facets=facet_arrays(elements=st.one_of(_TIES, _NON_FINITE, coord)),
       chunk=st.sampled_from([1, 2, 3, 7, 16]))
@settings(max_examples=200, deadline=None)
def test_mesh_stats_matches_reference_at_every_chunk_size(facets, chunk):
    # each piece's zeros, NaNs and infinities fold into the whole mesh's bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stl, "CHUNK_TRIANGLES", chunk)
        assert_stats_match_reference(facets)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), chunk=st.sampled_from([1, 2, 7, 64]),
       palette=st.sampled_from([(0.0, -0.0), (0.0, -0.0, 1.0), (0.0, -0.0, -1.0)]))
@settings(max_examples=60, deadline=None)
def test_mesh_stats_signed_zero_bounds_match_reference_at_every_chunk_size(seed, n, chunk,
                                                                           palette):
    facets = np.random.default_rng(seed).choice(palette, size=(n, 4, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stl, "CHUNK_TRIANGLES", chunk)
        assert_stats_match_reference(facets)


@pytest.mark.parametrize("facets", [
    np.zeros((0, 4, 3)),
    np.array([[[0, 0, 1], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float),
    np.array([[[0, 0, 0], [-0.0, 0, -0.0], [0, -0.0, 0], [-0.0, -0.0, 0]]]),
    np.array([[[0, 0, 0], [1, 2, 3], [1, 2, 3], [1, 2, 3]]], dtype=float),  # degenerate
    np.array([[[0, 0, 0], [np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]]]),
])
def test_mesh_stats_of_empty_one_facet_and_degenerate_meshes_match_reference(facets):
    assert_stats_match_reference(facets)


@given(facets=facet_arrays())
@settings(max_examples=150, deadline=None)
def test_recompute_normals_and_centroids_match_reference_bit_for_bit(facets):
    facets[1::3, 2:] = facets[1::3, 1:2]  # every third facet degenerate
    mesh = stl.TriangleMesh(facets)
    assert_same(stl.recompute_normals(mesh).facets, ref.recompute_normals(mesh).facets)
    assert_same(stl.triangle_centroids(mesh), ref.triangle_centroids(mesh))


@given(facets=facet_arrays(elements=st.one_of(_TIES, st.sampled_from([1e-7, 0.6, 0.8]),
                                              coord)))
@settings(max_examples=150, deadline=None)
def test_sanitized_normals_match_reference_bit_for_bit(facets):
    assert_same(stl._sanitize_normals(facets.copy()), ref.sanitize_normals(facets.copy()))


# ---------------------------------------------------------------------------
# library

def test_library_save_load_round_trip(tiny_library, tmp_path):
    manifest = stl.save_library(tiny_library, tmp_path)
    lib = stl.load_library(manifest)
    for role in stl.LIBRARY_ROLES:
        a, b = tiny_library.template(role), lib.template(role)
        assert np.allclose(a.facets, b.facets, atol=1e-5)
        assert lib.extent(role) == pytest.approx(tiny_library.extent(role), rel=1e-5)


def test_library_ascii_save_load(tiny_library, tmp_path):
    lib = stl.load_library(stl.save_library(tiny_library, tmp_path, "ascii"))
    for role in stl.LIBRARY_ROLES:
        assert (tmp_path / f"{role}.stl").read_bytes().startswith(b"solid ")
        expected = stl.read_stl(stl.write_stl(tiny_library.template(role), "ascii"))
        assert np.array_equal(lib.template(role).facets, expected.facets)
        assert lib.extent(role) == float(expected.vertices[..., 2].max())


def test_library_rejects_empty_template(tiny_library):
    with pytest.raises(stl.LibraryError, match="empty"):
        stl.MeshLibrary(trunk=stl.empty_mesh(), branch=tiny_library.branch,
                        sub_branch=tiny_library.sub_branch, leaf=tiny_library.leaf)


def test_library_manifest_missing_role(tmp_path):
    (tmp_path / "library.json").write_text(json.dumps({"branch": {"file": "b.stl"}}))
    with pytest.raises(stl.LibraryError, match="missing role 'trunk'"):
        stl.load_library(tmp_path / "library.json")


def test_library_non_canonical_frame_normalized(tiny_library, tmp_path):
    # declare the branch template as lying along +X with a shifted base
    shifted = tf.apply_to_mesh(
        tf.RigidTransform(ref.align_z_to([1, 0, 0]), np.array([2.0, 0.0, 0.0]), 1.0),
        tiny_library.branch)
    (tmp_path / "branch.stl").write_bytes(stl.write_stl(shifted, "binary"))
    for role in ("trunk", "sub_branch", "leaf"):
        (tmp_path / f"{role}.stl").write_bytes(stl.write_stl(tiny_library.template(role), "binary"))
    manifest = {role: {"file": f"{role}.stl"} for role in ("trunk", "sub_branch", "leaf")}
    manifest["branch"] = {"file": "branch.stl", "origin": [2.0, 0.0, 0.0], "axis": [1.0, 0.0, 0.0]}
    path = tmp_path / "library.json"
    path.write_text(json.dumps(manifest))
    lib = stl.load_library(path)
    assert np.allclose(lib.branch.facets, tiny_library.branch.facets, atol=1e-4)
