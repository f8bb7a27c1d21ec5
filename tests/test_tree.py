from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestgen import lsystem, stl, templates
from forestgen import transform as tf
from forestgen import tree as tm
from forestgen.seeds import generators, stream_seed

import scalar_reference as ref


def make_params(**kw):
    defaults = dict(branch_count=8, subbranches_per_branch=3, leaves_per_subbranch=5,
                    trunk_height=10.0, seed=17)
    defaults.update(kw)
    return tm.TreeParams(**defaults)


# ---------------------------------------------------------------------------
# substream generators

@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1])
def test_stream_rng_is_default_rng_of_the_stream_seed(seed):
    # the generator of a stream seed skips default_rng's argument handling;
    # its state and draws must be those default_rng builds
    assert (np.random.Generator(np.random.PCG64(seed)).bytes(64)
            == np.random.default_rng(seed).bytes(64))
    for stream in (0, 4):
        got = next(generators([stream_seed(seed, stream)]))
        want = np.random.default_rng(stream_seed(seed, stream))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random((5, 3)).tobytes() == want.random((5, 3)).tobytes()


# ---------------------------------------------------------------------------
# skeleton

@pytest.mark.parametrize("branches", [8, 12, 16])
def test_skeleton_depth1_counts(branches):
    sk = tm.build_skeleton(make_params(branch_count=branches))
    assert len(sk.at_depth(0)) == 1
    assert len(sk.at_depth(1)) == branches
    assert len(sk.at_depth(2)) == branches * 3


def test_skeleton_no_subbranches():
    sk = tm.build_skeleton(make_params(branch_count=8, subbranches_per_branch=0))
    assert len(sk) == 1 + 8
    assert sk.at_depth(2).tolist() == []


def test_skeleton_deterministic():
    a = tm.build_skeleton(make_params(seed=123))
    b = tm.build_skeleton(make_params(seed=123))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.directions, b.directions)


def test_skeleton_subbranch_lengths_decay():
    params = make_params(depth_scale_decay=0.5)
    sk = tm.build_skeleton(params)
    depth1 = sk.lengths[sk.at_depth(1)[0]]
    depth2 = sk.lengths[sk.at_depth(2)[0]]
    assert depth1 == pytest.approx(params.trunk_height * 0.5)
    assert depth2 == pytest.approx(depth1 * 0.5)


def test_synthesize_derivation_forms():
    assert ref.synthesize_derivation(4, 0) == "d[d[d[d"
    assert ref.synthesize_derivation(2, 3) == "d[ddd][d[ddd]"
    assert ref.synthesize_derivation(1, 0) == "d"


# ---------------------------------------------------------------------------
# stage meshes

def test_branch_stage_triangle_ledger(tiny_library):
    params = make_params(branch_count=8)
    sk = tm.build_skeleton(params)
    trunks, branches = tm.attach_branches(sk, tiny_library, [params])
    expected = len(tiny_library.trunk) + 8 * len(tiny_library.branch)
    assert len(trunks) + len(branches) == expected


def test_subbranch_stage_counts(tiny_library):
    params = make_params(branch_count=8, subbranches_per_branch=3)
    sk = tm.build_skeleton(params)
    subs = tm.attach_subbranches(sk, tiny_library, [params])
    assert len(subs) == 24 * len(tiny_library.sub_branch)


def test_subbranch_stage_noop_when_zero(tiny_library):
    params = make_params(subbranches_per_branch=0)
    sk = tm.build_skeleton(params)
    assert len(tm.attach_subbranches(sk, tiny_library, [params])) == 0


def test_leaves_zero_gives_empty(tiny_library):
    params = make_params(leaves_per_subbranch=0)
    sk = tm.build_skeleton(params)
    leaf_mesh = tm.attach_leaves(sk, tiny_library, [params])
    centroids = tm.build_tree(params, tiny_library).leaf_centroids
    assert len(leaf_mesh) == 0
    assert centroids.shape == (0, 3)


def test_leaf_counts_and_centroids(tiny_library):
    # 8 branches x 3 sub-branches x 5 leaves with a 1-triangle template
    params = make_params()
    sk = tm.build_skeleton(params)
    leaf_mesh = tm.attach_leaves(sk, tiny_library, [params])
    centroids = tm.build_tree(params, tiny_library).leaf_centroids
    assert len(leaf_mesh) == 8 * 3 * 5
    assert centroids.shape == (len(leaf_mesh), 3)
    for i, (_, v0, v1, v2) in enumerate(leaf_mesh.facets):
        oracle = (v0 + v1 + v2) / 3
        assert np.allclose(centroids[i], oracle, atol=1e-9)


def test_leaves_fall_back_to_branches(tiny_library):
    params = make_params(subbranches_per_branch=0, leaves_per_subbranch=2)
    sk = tm.build_skeleton(params)
    leaf_mesh = tm.attach_leaves(sk, tiny_library, [params])
    assert len(leaf_mesh) == 8 * 2


def test_branch_bases_land_on_attachment_points(tiny_library):
    params = make_params(seed=5)
    sk = tm.build_skeleton(params)
    _, branches = tm.attach_branches(sk, tiny_library, [params])
    per_branch = len(tiny_library.branch)
    for rank, i in enumerate(sk.at_depth(1)):
        verts = branches.vertices[rank * per_branch: (rank + 1) * per_branch]
        nearest = np.linalg.norm(verts.reshape(-1, 3) - sk.points[i], axis=1).min()
        assert nearest <= 1e-6 * params.trunk_height


def test_subbranch_attachments_on_parent_axes():
    params = make_params(seed=11)
    sk = tm.build_skeleton(params)
    for i in sk.at_depth(2):
        parent = sk.parents[i]
        rel = sk.points[i] - sk.points[parent]
        along = float(np.dot(rel, sk.directions[parent]))
        off = np.linalg.norm(rel - along * sk.directions[parent])
        assert off <= 1e-6 * params.trunk_height
        assert -1e-9 <= along <= sk.lengths[parent] + 1e-9


# ---------------------------------------------------------------------------
# full builds

def test_build_tree_stage_monotone_prefix(tiny_library):
    model = tm.build_tree(make_params(), tiny_library)
    branches = model.stage_mesh("branches")
    subs = model.stage_mesh("subbranches")
    leaves = model.stage_mesh("leaves")
    assert np.array_equal(subs.facets[: len(branches)], branches.facets)
    assert np.array_equal(leaves.facets[: len(subs)], subs.facets)
    assert model.stage_counts["leaves"] == len(leaves)


@pytest.mark.parametrize("subs, leaves", [(3, 5), (0, 4), (2, 0)])
def test_stage_meshes_are_views_of_one_mesh(subs, leaves, tiny_library):
    model = tm.build_tree(make_params(subbranches_per_branch=subs, leaves_per_subbranch=leaves),
                          tiny_library)
    for stage in ("branches", "subbranches", "leaves"):
        mesh = model.stage_mesh(stage)
        assert np.shares_memory(mesh.facets, model.mesh.facets)
        assert len(mesh) == model.stage_counts[stage]
        assert mesh.name == "tree"
    assert np.shares_memory(model.full_mesh().facets, model.mesh.facets)
    assert len(model.full_mesh()) == len(model.mesh) == model.stage_counts["leaves"]


def test_build_tree_deterministic_export(tiny_library):
    params = make_params(seed=77)
    a = stl.write_stl(tm.build_tree(params, tiny_library).full_mesh(), "binary")
    b = stl.write_stl(tm.build_tree(params, tiny_library).full_mesh(), "binary")
    assert a == b


def test_leaf_request_does_not_disturb_branches(tiny_library):
    bare = tm.build_tree(make_params(leaves_per_subbranch=0), tiny_library)
    leafy = tm.build_tree(make_params(leaves_per_subbranch=5), tiny_library)
    assert np.array_equal(bare.stage_mesh("subbranches").facets,
                          leafy.stage_mesh("subbranches").facets)


def test_zero_jitter_build_reproducible(tiny_library):
    params = make_params(jitter=tf.AngleJitterParams(0.0, 0.0, (1.0, 1.0)), seed=3)
    a = tm.build_tree(params, tiny_library)
    b = tm.build_tree(params, tiny_library)
    assert np.array_equal(a.full_mesh().facets, b.full_mesh().facets)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_bounding_box_height_within_growth_envelope(seed, tiny_library):
    params = make_params(seed=seed)
    model = tm.build_tree(params, tiny_library)
    stats = stl.mesh_stats(model.full_mesh())
    assert np.all(np.isfinite(model.full_mesh().facets))
    height = stats.bounds[1][2] - stats.bounds[0][2]
    assert height >= params.trunk_height - 1e-9
    assert height <= params.trunk_height * (1 + 2 * params.depth_scale_decay) * 1.25


def test_stage_skeleton_mesh(tiny_library):
    model = tm.build_tree(make_params(branch_count=6), tiny_library)
    wire = model.stage_mesh("skeleton")
    # two triangles per node: trunk + 6 branches + 18 sub-branches
    assert len(wire) == 2 * (1 + 6 + 18)


def test_build_tree_walks_its_turtle_once(tiny_library):
    # the stacked build walks the turtle; the model's skeleton is built again
    # only when it is read, and then kept
    with mock.patch.object(lsystem, "interpret_turtle", wraps=lsystem.interpret_turtle) as walk:
        model = tm.build_tree(make_params(), tiny_library)
        model.stage_mesh("leaves")
        assert walk.call_count == 1
        model.stage_mesh("skeleton")
        assert model.skeleton is model.skeleton
        assert walk.call_count == 2


@pytest.mark.parametrize("branches, subs, seed", [(1, 0, 0), (6, 3, 17), (16, 2, 5),
                                                  (9, 4, 2 ** 63)])
@pytest.mark.parametrize("jitter", [tf.AngleJitterParams(), tm._DEFAULT_JITTER])
def test_skeleton_mesh_matches_scalar_reference(branches, subs, seed, jitter):
    sk = tm.build_skeleton(make_params(branch_count=branches, subbranches_per_branch=subs,
                                       seed=seed, jitter=jitter))
    assert tm.skeleton_to_mesh(sk).facets.tobytes() == ref.skeleton_to_mesh(sk).facets.tobytes()


def test_unknown_stage_rejected(tiny_library):
    model = tm.build_tree(make_params(), tiny_library)
    with pytest.raises(ValueError, match="unknown stage"):
        model.stage_mesh("flowers")


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(branch_count=0)
    with pytest.raises(ValueError):
        make_params(trunk_height=-1.0)
    with pytest.raises(ValueError):
        make_params(depth_scale_decay=0.0)
    with pytest.raises(ValueError):
        make_params(subbranches_per_branch=-1)


def test_params_dict_round_trip():
    params = make_params(branch_count=12, seed=987654321)
    again = tm.params_from_dict(ref.params_to_dict(params))
    assert again == params


def test_centroids_csv_format():
    csv = tm.centroids_to_csv(np.array([[1.0, 2.0, 3.0], [0.5, 0.25, -1.0]]))
    lines = csv.strip().split("\n")
    assert lines[0] == "x,y,z"
    assert lines[1] == "1,2,3"
    assert lines[2] == "0.5,0.25,-1"


CSV_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 123456789.5,
             1.7976931348623157e308]


@given(rows=st.lists(st.tuples(*[st.sampled_from(CSV_EDGES) | st.floats()] * 3), max_size=40))
@example(rows=[])
@example(rows=[(-0.0, 5e-324, 1e16), (1e22, -0.0, 0.1)])
@settings(max_examples=100, deadline=None)
def test_centroids_csv_matches_scalar_reference(rows):
    centroids = np.array(rows, dtype=np.float64).reshape(-1, 3)
    assert tm.centroids_to_csv(centroids) == ref.centroids_to_csv(centroids)
    assert tm.centroids_to_csv(rows) == ref.centroids_to_csv(centroids)


# ---------------------------------------------------------------------------
# a stack of trees built together

STACK_JITTERS = [
    tf.AngleJitterParams(),
    tm._DEFAULT_JITTER,
    tf.AngleJitterParams(azimuth_range=30.0, pitch_range=5.0, scale_range=(0.5, 2.0)),
    tf.AngleJitterParams(azimuth_range=360.0, pitch_range=0.0, scale_range=(1.0, 1.25)),
]

stack_trees = st.lists(st.tuples(
    st.integers(1, 6), st.integers(0, 3), st.integers(0, 3),
    st.floats(0.5, 20.0), st.sampled_from([0.3, 0.5, 1.0]),
    st.integers(0, 2 ** 64 - 1), st.sampled_from(STACK_JITTERS)), min_size=1, max_size=6)


@given(sizes=st.lists(st.integers(0, 50), max_size=30), limit=st.integers(1, 120))
@settings(max_examples=200, deadline=None)
def test_runs_close_once_they_hold_the_run_triangles(sizes, limit):
    with mock.patch.object(tm, "_RUN_TRIANGLES", limit):
        runs = list(tm.runs(sizes))
    # consecutive runs of whole trees, covering every tree once
    assert [i for run in runs for i in range(len(sizes))[run]] == list(range(len(sizes)))
    for k, run in enumerate(runs):
        held = sum(sizes[run])
        assert run.stop > run.start
        # each run but the last holds the limit, and held less before its last tree
        assert k == len(runs) - 1 or held >= limit
        assert held - sizes[run.stop - 1] < limit


# stacks of 20 trees, above seeds._BATCH_MIN: in the first every stage's
# streams are short, so their uniforms come by jump-ahead; in the second the
# skeleton, sub-branch and leaf streams are long (48, 54 and 162 values, past
# seeds._JUMP_VALUES), so those come from generators
SHORT_BUILD = [(1 + i % 2, 1, 1 + i % 2, 2.0 + i, 0.5, 2 ** 64 - 1 - i, STACK_JITTERS[1 + i % 3])
               for i in range(20)]
LONG_BUILD = [(6, 3, 3, 2.0 + i, 0.5, i, STACK_JITTERS[1 + i % 3]) for i in range(20)]


@given(trees=stack_trees, shared_jitter=st.booleans(),
       detail=st.sampled_from(["tiny", "normal"]), run=st.sampled_from([1, 400, 1 << 17]))
@example(trees=SHORT_BUILD, shared_jitter=False, detail="tiny", run=1 << 17)
@example(trees=LONG_BUILD, shared_jitter=True, detail="tiny", run=1 << 17)
@settings(max_examples=60, deadline=None)
def test_stacked_build_matches_trees_built_alone(trees, shared_jitter, detail, run):
    lib = templates.default_library(detail)
    params = [tm.TreeParams(branch_count=b, subbranches_per_branch=s, leaves_per_subbranch=n,
                            trunk_height=h, depth_scale_decay=d, seed=seed,
                            jitter=trees[0][6] if shared_jitter else jitter)
              for b, s, n, h, d, seed, jitter in trees]
    # runs of one tree, of a few trees, and one run for the whole stack
    with mock.patch.object(tm, "_RUN_TRIANGLES", run):
        mesh, ends = tm.build_trees(params, lib)
    assert ends.shape == (len(params), 4)
    at = 0
    for p, tree_ends in zip(params, ends):
        model = tm.tree_model(p, mesh.facets, at, tree_ends)
        alone = tm.build_tree(p, lib)
        assert model.mesh.facets.tobytes() == alone.mesh.facets.tobytes()
        assert model.stage_counts == alone.stage_counts
        assert model.leaf_centroids.tobytes() == alone.leaf_centroids.tobytes()
        # the trunk's rows end before the branches' rows
        assert tree_ends[0] - at == len(lib.trunk)
        # each tree is the next contiguous block of the one scene mesh
        assert model.mesh.facets.base is mesh.facets
        assert model.mesh.facets.tobytes() == mesh.facets[at:at + len(model.mesh)].tobytes()
        at += len(model.mesh)
    assert at == len(mesh)


def test_build_trees_of_no_trees(tiny_library):
    mesh, ends = tm.build_trees([], tiny_library)
    assert len(mesh) == 0 and ends.shape == (0, 4)


@given(trees=st.lists(st.tuples(
    st.integers(1, 19), st.integers(0, 4), st.floats(0.5, 30.0),
    st.sampled_from([0.3, 0.5, 1.0]),
    st.one_of(st.sampled_from([0.0, 10.0, 359.0]), st.floats(0.0, 360.0)),
    st.integers(0, 2 ** 64 - 1)),
    min_size=1, max_size=8))
# 20 jittered trees of at most 4 rows each (8 values a stream), so the stack
# jumps ahead; 20 of 60 rows each (120 values), so it draws from generators
@example(trees=[(1 + i % 2, i % 2, 3.0 + i, 0.5, 12.0, 7 * i) for i in range(20)])
@example(trees=[(12, 4, 3.0 + i, 0.5, 12.0 + i, 2 ** 63 + i) for i in range(20)])
@settings(max_examples=40, deadline=None)
def test_stacked_skeletons_match_each_tree_alone(trees, tiny_library):
    params = [tm.TreeParams(branch_count=b, subbranches_per_branch=s, leaves_per_subbranch=0,
                            trunk_height=h, depth_scale_decay=d, seed=seed,
                            jitter=tf.AngleJitterParams(azimuth_range=jitter))
              for b, s, h, d, jitter, seed in trees]
    # the stack a build places, split by its trunk rows
    for p, skeleton in zip(params, ref.split_skeleton(tm.build_skeleton(params)), strict=True):
        text = ref.synthesize_derivation(p.branch_count, p.subbranches_per_branch)
        cfg = ref.TurtleConfig(step_length=p.trunk_height * p.depth_scale_decay,
                               jitter_range=p.jitter.azimuth_range)
        want = ref.interpret_turtle(text, cfg, p.trunk_height, (0, 0, 0),
                                    np.random.default_rng(stream_seed(p.seed, 0)))
        want.lengths[want.depths == 2] *= p.depth_scale_decay
        alone = tm.build_skeleton(p)
        for name in ("points", "directions", "depths", "lengths", "parents"):
            got = getattr(skeleton, name).tobytes()
            assert got == getattr(alone, name).tobytes() == getattr(want, name).tobytes(), name
        # parent rows are the tree's own: the trunk's is -1, every other row's an earlier row
        parents = skeleton.parents
        assert parents[0] == -1 and (0 <= parents[1:]).all()
        assert (parents[1:] < np.arange(1, len(parents))).all()
