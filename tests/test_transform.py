import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestgen import stl
from forestgen import transform as tf

import scalar_reference as ref

angle = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def random_rotation_transform(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return tf.RigidTransform(ref.rotation_about_axis(axis, rng.uniform(-180, 180)),
                             rng.uniform(-10, 10, size=3), 1.0)


def random_similarity(rng):
    t = random_rotation_transform(rng)
    return tf.RigidTransform(t.rotation, t.translation, rng.uniform(0.2, 3.0))


# ---------------------------------------------------------------------------
# compose

IDENTITY = tf.RigidTransform(np.eye(3), np.zeros(3), 1.0)


def test_compose_identity_left_and_right(rng):
    t = random_similarity(rng)
    for composed in (tf.compose(IDENTITY, t), tf.compose(t, IDENTITY)):
        assert np.allclose(composed.rotation, t.rotation, atol=1e-12)
        assert np.allclose(composed.translation, t.translation, atol=1e-12)
        assert composed.scale == pytest.approx(t.scale)


def test_compose_matches_sequential_application(rng):
    a, b = random_similarity(rng), random_similarity(rng)
    p = rng.uniform(-5, 5, size=3)
    assert np.allclose(ref.apply_point(tf.compose(a, b), p),
                       ref.apply_point(a, ref.apply_point(b, p)), atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_compose_associative(seed):
    r = np.random.default_rng(seed)
    a, b, c = (random_similarity(r) for _ in range(3))
    left = tf.compose(tf.compose(a, b), c)
    right = tf.compose(a, tf.compose(b, c))
    assert np.allclose(left.rotation, right.rotation, atol=1e-9)
    assert np.allclose(left.translation, right.translation, atol=1e-9)
    assert left.scale == pytest.approx(right.scale, rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rotations_preserve_distances(seed):
    r = np.random.default_rng(seed)
    t = random_rotation_transform(r)
    p, q = r.uniform(-10, 10, size=(2, 3))
    d0 = np.linalg.norm(p - q)
    d1 = np.linalg.norm(ref.apply_point(t, p) - ref.apply_point(t, q))
    assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generated_rotations_have_unit_determinant(seed):
    r = np.random.default_rng(seed)
    t = random_rotation_transform(r)
    assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)


def test_transform_validation():
    with pytest.raises(ValueError):
        tf.RigidTransform(np.eye(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        tf.RigidTransform(np.eye(2), np.zeros(3), 1.0)


# ---------------------------------------------------------------------------
# meshes

def test_apply_identity_to_mesh(tiny_library):
    out = tf.apply_to_mesh(IDENTITY, tiny_library.branch)
    assert np.array_equal(out.vertices, tiny_library.branch.vertices)
    assert np.allclose(out.normals, tiny_library.branch.normals, atol=1e-12)


def test_apply_pure_translation():
    tri = np.array([[[0, 0, 1], [0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
    t = tf.RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]), 1.0)
    out = tf.apply_to_mesh(t, stl.TriangleMesh(tri))
    assert np.array_equal(out.facets[0, 1:], tri[0, 1:] + [1, 2, 3])
    assert np.array_equal(out.facets[0, 0], tri[0, 0])  # normal untouched


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_edge_lengths_scale_exactly(seed, scale):
    r = np.random.default_rng(seed)
    verts = r.uniform(-10, 10, size=(5, 3, 3))
    facets = np.concatenate([np.zeros((5, 1, 3)), verts], axis=1)
    mesh = stl.TriangleMesh(facets)
    t = tf.RigidTransform(random_rotation_transform(r).rotation, r.uniform(-5, 5, 3), scale)
    out = tf.apply_to_mesh(t, mesh)
    e_before = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    e_after = np.linalg.norm(out.vertices[:, 1] - out.vertices[:, 0], axis=1)
    assert np.allclose(e_after, scale * e_before, rtol=1e-9)


# ---------------------------------------------------------------------------
# alignment and random attachment

def test_align_z_to_antipodal():
    rotation = tf.z_alignments(np.array([[0.0, 0.0, -1.0]]))[0]
    assert np.allclose(rotation @ [0, 0, 1], [0, 0, -1], atol=1e-12)
    assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_align_z_to_lands_on_direction(seed):
    r = np.random.default_rng(seed)
    d = r.normal(size=3)
    d /= np.linalg.norm(d)
    rotation = tf.z_alignments(d[None])[0]
    assert np.allclose(rotation @ [0, 0, 1], d, atol=1e-9)


def test_attachment_zero_jitter_z_is_identity():
    t = tf.random_attachment_transform(([(0, 0, 0)], [(0, 0, 1)]), (0.0, 0.0, 1.0, 1.0),
                                       np.random.default_rng(0).random((1, 3)))
    assert np.array_equal(t.rotation, [np.eye(3)])
    assert np.array_equal(t.translation, [[0, 0, 0]])
    assert t.scale.tolist() == [1.0]


def test_attachment_zero_jitter_x_alignment():
    t = tf.random_attachment_transform(([(0, 0, 5)], [(1, 0, 0)]), (0.0, 0.0, 1.0, 1.0),
                                       np.random.default_rng(0).random((1, 3)))
    assert np.allclose(t.rotation[0] @ [0, 0, 1], [1, 0, 0], atol=1e-12)
    assert np.array_equal(t.translation, [[0, 0, 5]])


def test_attachment_reproducible_per_seed():
    jit = (30.0, 15.0, 0.5, 2.0)
    frames = ([(1, 2, 3)], [(0, 1, 0)])
    a = tf.random_attachment_transform(frames, jit, np.random.default_rng(99).random((1, 3)))
    b = tf.random_attachment_transform(frames, jit, np.random.default_rng(99).random((1, 3)))
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)
    assert np.array_equal(a.scale, b.scale)


def test_attachment_pitch_jitter_monte_carlo():
    # pitch ~ U(-10, 10) so |deviation| from the target direction has mean 5
    rng = np.random.default_rng(7)
    jit = (0.0, 10.0, 1.0, 1.0)
    direction = np.array([0.0, 0.0, 1.0])
    frames = (np.zeros((10_000, 3)), np.tile(direction, (10_000, 1)))
    t = tf.random_attachment_transform(frames, jit, rng.random((10_000, 3)))
    z = t.rotation @ [0, 0, 1]
    devs = np.degrees(np.arccos(np.clip(z @ direction, -1, 1)))
    assert devs.max() <= 10.0 + 1e-9
    assert abs(devs.mean() - 5.0) <= 0.2


def test_jitter_params_validation():
    with pytest.raises(ValueError):
        tf.AngleJitterParams(azimuth_range=-1)
    with pytest.raises(ValueError):
        tf.AngleJitterParams(scale_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        tf.AngleJitterParams(scale_range=(0.0, 1.0))
    for field in ("azimuth_range", "pitch_range"):
        with pytest.raises(ValueError, match=f"{field} must be at most 360 degrees"):
            tf.AngleJitterParams(**{field: 360.5})
        tf.AngleJitterParams(**{field: 360.0})


def test_jitter_params_hold_floats():
    jitter = tf.AngleJitterParams(10, np.float32(2.5), (1, np.int64(2)))
    assert [type(v) for v in (jitter.azimuth_range, jitter.pitch_range, *jitter.scale_range)] \
        == [float] * 4
    assert jitter == tf.AngleJitterParams(10.0, 2.5, (1.0, 2.0))


def test_jitter_params_refuse_per_frame_arrays():
    # per-frame ranges are rows of the placement's ranges, not a jitter
    ok = np.array([0.0, 10.0])
    for fields in [(ok,), (1.0, ok), (1.0, 1.0, (np.array([0.5, 1.0]), np.array([1.0, 2.0])))]:
        with pytest.raises(TypeError):
            tf.AngleJitterParams(*fields)


# ---------------------------------------------------------------------------
# stacks of transforms: one batched call per placement stage

JITTERS = [
    tf.AngleJitterParams(),
    tf.AngleJitterParams(azimuth_range=10.0, pitch_range=10.0, scale_range=(0.85, 1.15)),
    tf.AngleJitterParams(azimuth_range=30.0, pitch_range=5.0, scale_range=(0.5, 2.0)),
]


def ranges(jitter: tf.AngleJitterParams) -> tuple:
    """The (4,) row of ranges that ``random_attachment_transform`` reads."""
    return (jitter.azimuth_range, jitter.pitch_range, *jitter.scale_range)


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_frames(r, k):
    """k attachment points and unit directions, some on the poles or in the
    x-z plane, where the alignment takes its special paths."""
    directions = r.normal(size=(k, 3))
    for i in range(k):
        kind = r.integers(6)
        if kind == 0:
            directions[i] = (0.0, 0.0, 1.0)
        elif kind == 1:
            directions[i] = (0.0, 0.0, -1.0)
        elif kind == 2:
            directions[i, 1] = 0.0
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    return r.uniform(-5.0, 5.0, size=(k, 3)), directions


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), jitter=st.sampled_from(JITTERS))
@settings(max_examples=60, deadline=None)
def test_stacked_attachment_matches_single_frames_and_scalar_reference(seed, k, jitter):
    points, directions = random_frames(np.random.default_rng(seed), k)
    rng_stack, rng_single, rng_ref = (np.random.default_rng(seed + 1) for _ in range(3))
    stacked = tf.random_attachment_transform((points, directions), ranges(jitter),
                                             rng_stack.random((k, 3)))
    assert stacked.rotation.shape == (k, 3, 3)
    assert stacked.translation.shape == (k, 3)
    assert stacked.scale.shape == (k,)
    for i in range(k):
        single = tf.random_attachment_transform((points[i:i + 1], directions[i:i + 1]),
                                                ranges(jitter), rng_single.random((1, 3)))
        scalar = ref.random_attachment_transform((points[i], directions[i]), jitter, rng_ref)
        for rotation, translation, scale in [
                (single.rotation[0], single.translation[0], single.scale[0]),
                (scalar.rotation, scalar.translation, scalar.scale)]:
            assert same_bits(rotation, stacked.rotation[i])
            assert same_bits(translation, stacked.translation[i])
            assert scale == stacked.scale[i]
    # the (k, 3) block consumed exactly the k scalar triples
    assert rng_stack.random() == rng_single.random() == rng_ref.random()


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10), jitter=st.sampled_from(JITTERS),
       role=st.sampled_from(["trunk", "branch", "leaf"]), fmt=st.sampled_from(["binary", "ascii"]))
@settings(max_examples=60, deadline=None)
def test_stacked_placement_writes_same_stl_bytes_as_single_frames(seed, k, jitter, role, fmt,
                                                                   tiny_library):
    template = tiny_library.template(role)
    points, directions = random_frames(np.random.default_rng(seed), k)
    rng_stack, rng_single, rng_ref = (np.random.default_rng(seed + 1) for _ in range(3))
    stacked = tf.apply_to_mesh(
        tf.random_attachment_transform((points, directions), ranges(jitter),
                                       rng_stack.random((k, 3))),
        template)
    singles = stl.concat_meshes([
        tf.apply_to_mesh(tf.random_attachment_transform(
            (points[i:i + 1], directions[i:i + 1]), ranges(jitter), rng_single.random((1, 3))),
            template)
        for i in range(k)])
    scalar = stl.concat_meshes([
        ref.apply_to_mesh(ref.random_attachment_transform((points[i], directions[i]), jitter,
                                                          rng_ref), template)
        for i in range(k)])
    assert len(stacked) == k * len(template)
    assert same_bits(stacked.facets, singles.facets)
    assert same_bits(stacked.facets, scalar.facets)
    written = [stl.write_stl(stl.TriangleMesh(m.facets, "instances"), fmt)
               for m in (stacked, singles, scalar)]
    assert written[0] == written[1] == written[2]


@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(JITTERS)),
                       min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_drawn_blocks_with_per_frame_jitter_match_per_block_calls(seed, blocks):
    # frames of several generators and jitter ranges, as the trees of a scene
    # stack them: the blocks of uniforms drawn in turn, one range per frame
    sizes = [k for k, _ in blocks]
    points, directions = random_frames(np.random.default_rng(seed), sum(sizes))
    rngs = [np.random.default_rng(seed + 1 + i) for i in range(len(blocks))]
    uniforms = np.concatenate([g.random((k, 3)) for g, (k, _) in zip(rngs, blocks)])
    rows = np.repeat([ranges(j) for _, j in blocks], sizes, axis=0)
    stacked = tf.random_attachment_transform((points, directions), rows, uniforms)
    at = 0
    for i, (k, block_jitter) in enumerate(blocks):
        alone = tf.random_attachment_transform(
            (points[at:at + k], directions[at:at + k]), ranges(block_jitter),
            np.random.default_rng(seed + 1 + i).random((k, 3)))
        assert same_bits(alone.rotation, stacked.rotation[at:at + k])
        assert same_bits(alone.translation, stacked.translation[at:at + k])
        assert same_bits(alone.scale, stacked.scale[at:at + k])
        at += k


def test_drawn_uniforms_must_match_the_stack():
    points, directions = random_frames(np.random.default_rng(1), 3)
    # a block one row short, one row long, and a generator in its place
    for block, shape in [(np.zeros((2, 3)), r"\(2, 3\)"), (np.zeros((4, 3)), r"\(4, 3\)"),
                         (np.random.default_rng(1), r"\(\)")]:
        with pytest.raises(ValueError, match=r"need a \(3, 3\) block of uniforms, got " + shape):
            tf.random_attachment_transform((points, directions), ranges(JITTERS[1]), block)


def test_stacked_apply_concatenates_in_stack_order(tiny_library):
    rotations = np.stack([np.eye(3), ref.rotation_about_axis([1, 0, 0], 90.0)])
    t = tf.RigidTransform(rotations, np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
                          np.array([1.0, 2.5]))
    mesh = tiny_library.branch
    out = tf.apply_to_mesh(t, mesh)
    for i in range(2):
        one = tf.RigidTransform(rotations[i], t.translation[i], t.scale[i])
        assert same_bits(out.facets[i * len(mesh):(i + 1) * len(mesh)],
                         tf.apply_to_mesh(one, mesh).facets)
    assert len(tf.apply_to_mesh(t, stl.empty_mesh())) == 0


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 50]),
       m=st.sampled_from([1, 2, 3, 17]), jitter=st.sampled_from(JITTERS))
@settings(max_examples=60, deadline=None)
def test_stacked_apply_matches_per_instance_reference(seed, k, m, jitter):
    # m == 1 is the mesh numpy multiplies as a vector; some normals are zero
    r = np.random.default_rng(seed)
    facets = r.uniform(-3.0, 3.0, size=(m, 4, 3))
    facets[r.random(m) < 0.3, 0] = 0.0
    mesh = stl.TriangleMesh(facets)
    stack = tf.random_attachment_transform(random_frames(r, k), ranges(jitter), r.random((k, 3)))
    scalar = [ref.apply_to_mesh(tf.RigidTransform(stack.rotation[i], stack.translation[i],
                                                  stack.scale[i]), mesh).facets
              for i in range(k)]
    assert same_bits(tf.apply_to_mesh(stack, mesh).facets, np.concatenate(scalar))


def test_z_alignments_match_single_alignments():
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                           [0.6, 0.0, 0.8], [-0.6, -0.0, -0.8], [0.0, 0.6, -0.8]])
    directions = np.concatenate([directions, np.random.default_rng(5).normal(size=(20, 3))])
    stack = tf.z_alignments(directions)
    for d, rotation in zip(directions, stack):
        assert same_bits(rotation, tf.z_alignments(d[None])[0])
        assert same_bits(rotation, ref.align_z_to(d))
    poles = tf.z_alignments(directions[:2])
    assert same_bits(poles[0], np.eye(3))
    assert same_bits(poles[1], ref.align_z_to([0.0, 0.0, -1.0]))


def test_rotation_about_axis_matches_scalar_reference():
    r = np.random.default_rng(11)
    axes, degrees = r.normal(size=(200, 3)), r.uniform(-360.0, 360.0, size=200)
    for axis, angle, rotation in zip(axes, degrees, tf._axis_rotations(axes, np.radians(degrees))):
        assert same_bits(rotation, ref.rotation_about_axis(axis, angle))


def test_stacked_transform_validation():
    rotations = np.stack([np.eye(3)] * 3)
    t = tf.RigidTransform(rotations, np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
    assert t.scale.shape == (3,)
    bad = [
        (rotations, np.zeros((3, 3)), np.array([1.0, 0.0, 2.0])),     # one scale not positive
        (rotations, np.zeros((3, 3)), np.array([1.0, np.nan, 2.0])),  # one scale not a number
        (rotations, np.zeros((2, 3)), np.ones(3)),                    # translations short
        (rotations, np.zeros((3, 3)), np.ones(2)),                    # scales short
        (rotations, np.zeros((3, 3)), 1.0),                           # one scale for a stack
        (rotations[None], np.zeros((1, 3, 3)), np.ones((1, 3))),      # two leading axes
        (np.zeros((3, 2, 3)), np.zeros((3, 3)), np.ones(3)),          # not 3x3
    ]
    for rotation, translation, scale in bad:
        with pytest.raises(ValueError):
            tf.RigidTransform(rotation, translation, scale)
    with pytest.raises(ValueError):
        tf.RigidTransform(np.eye(3), np.zeros(3), np.nan)
