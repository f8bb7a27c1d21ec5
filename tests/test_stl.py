import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forestgen import stl
from forestgen import transform as tf

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
    t = tf.RigidTransform(tf.rotation_about_axis([1, 2, 3], 77.0), np.array([5.0, -2.0, 9.0]), 1.0)
    after = stl.mesh_stats(tf.apply_to_mesh(t, mesh)).total_area
    assert after == pytest.approx(before, rel=1e-6)


# ---------------------------------------------------------------------------
# library

def test_library_save_load_round_trip(tiny_library, tmp_path):
    manifest = stl.save_library(tiny_library, tmp_path)
    lib = stl.load_library(manifest)
    for role in stl.LIBRARY_ROLES:
        a, b = tiny_library.template(role), lib.template(role)
        assert np.allclose(a.facets, b.facets, atol=1e-5)
        assert lib.extent(role) == pytest.approx(tiny_library.extent(role), rel=1e-5)


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
        tf.RigidTransform(tf.align_z_to([1, 0, 0]).rotation, np.array([2.0, 0.0, 0.0]), 1.0),
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
