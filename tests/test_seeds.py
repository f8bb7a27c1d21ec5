"""Batched generator seeding and draws against numpy's own ``default_rng``.

``seeds.generators`` reproduces numpy's SeedSequence and PCG64 seeding
algorithms over a whole batch of seeds, and ``seeds.uniform_blocks`` each
seed's first block of uniforms, by PCG64 jump-ahead for short streams; these
tests pin both on the installed numpy, on both sides of the batch threshold
and of the jump's stream length.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestgen import forest as fo
from forestgen import ipp, templates
from forestgen import seeds as sd
from forestgen import tree as tm
from forestgen import transform as tf

import scalar_reference as ref

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1]

seed_lists = st.lists(st.integers(0, 2 ** 64 - 1) | st.sampled_from(EDGE_SEEDS),
                      min_size=0, max_size=40)


def assert_default_rng(seeds):
    count = 0
    for seed, rng in zip(seeds, sd.generators(seeds), strict=True):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state, seed
        assert rng.random((5, 3)).tobytes() == want.random((5, 3)).tobytes(), seed
        count += 1
    assert count == len(seeds)


@given(seeds=seed_lists)
@settings(max_examples=200, deadline=None)
def test_generators_start_as_default_rng(seeds):
    assert_default_rng(seeds)


@pytest.mark.parametrize("copies", [1, 3, 200])
def test_generators_of_edge_seeds(copies):
    # 6, 18 and 1200 seeds: one below the batch threshold, two above it
    assert_default_rng(EDGE_SEEDS * copies)


def test_generators_outside_64_bits_fall_back_to_pcg64():
    # a batch holding a seed of more than 64 bits is seeded one seed at a time
    assert_default_rng(EDGE_SEEDS * 3 + [2 ** 64, 2 ** 100 + 7])
    with pytest.raises(ValueError):
        next(sd.generators([-1] * 20))


def test_batched_generators_reuse_one_generator():
    batch = list(sd.generators(range(sd._BATCH_MIN)))
    assert all(rng is batch[0] for rng in batch)
    small = list(sd.generators(range(sd._BATCH_MIN - 1)))
    assert len({id(rng) for rng in small}) == len(small)


def reference_blocks(seeds, counts, width):
    """What ``uniform_blocks`` must return: each seed's block, one at a time."""
    blocks = [np.random.default_rng(s).random((k, width)) for s, k in zip(seeds, counts)]
    return np.concatenate([np.empty((0, width))] + blocks)


def assert_uniform_blocks(seeds, counts, width):
    """``uniform_blocks`` gives the reference bytes, by the path its rule
    picks: the jump for at least _BATCH_MIN streams with rows, each seed in
    [0, 2**64) and none longer than _JUMP_VALUES values."""
    streams = [(s, k) for s, k in zip(seeds, counts) if k]
    jumps = (len(streams) >= sd._BATCH_MIN and all(0 <= s < 2 ** 64 for s, _ in streams)
             and max(k for _, k in streams) * width <= sd._JUMP_VALUES)
    with mock.patch.object(sd, "_jump_ahead", wraps=sd._jump_ahead) as jump, \
            mock.patch.object(sd, "generators", wraps=sd.generators) as gens:
        got = sd.uniform_blocks(seeds, counts, width)
    assert got.shape == (sum(counts), width)
    assert got.tobytes() == reference_blocks(seeds, counts, width).tobytes()
    assert jump.called == jumps
    assert gens.called == (bool(streams) and not jumps)
    return jumps


# rows per seed, cycled: short streams, streams at the jump's longest, and
# one stream just past it; each holds seeds with no rows
COUNT_CYCLES = {
    "short": [1, 0, 2, 3],
    "at-the-bound": [sd._JUMP_VALUES // 3, 0, 1],
    "one-past-the-bound": [sd._JUMP_VALUES // 2 + 1] + [1] * 30 + [0],
}


@pytest.mark.parametrize("cycle", sorted(COUNT_CYCLES))
@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("copies", [1, 3, 200])
def test_uniform_blocks_of_edge_seeds(copies, width, cycle):
    seeds = EDGE_SEEDS * copies
    counts = (COUNT_CYCLES[cycle] * len(seeds))[:len(seeds)]
    jumps = assert_uniform_blocks(seeds, counts, width)
    # below the batch threshold nothing jumps; 1200 seeds jump unless a
    # stream is too long
    if copies == 1:
        assert not jumps
    if copies == 200:
        assert jumps == (cycle != "one-past-the-bound")


@given(seeds=seed_lists, width=st.sampled_from([2, 3]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_uniform_blocks_are_default_rng_blocks(seeds, width, data):
    longest = data.draw(st.sampled_from([1, sd._JUMP_VALUES // width, 40]))
    counts = data.draw(st.lists(st.integers(0, longest), min_size=len(seeds),
                                max_size=len(seeds)))
    assert_uniform_blocks(seeds, counts, width)


def test_uniform_blocks_of_no_rows():
    assert sd.uniform_blocks([], [], 3).shape == (0, 3)
    assert sd.uniform_blocks(EDGE_SEEDS * 5, [0] * 30, 2).shape == (0, 2)


def test_uniform_blocks_outside_64_bits_fall_back_to_pcg64():
    seeds = EDGE_SEEDS * 3 + [2 ** 64, 2 ** 100 + 7]
    assert not assert_uniform_blocks(seeds, [2] * len(seeds), 3)
    with pytest.raises(ValueError):
        sd.uniform_blocks([-1] * 20, [1] * 20, 3)


FIELDS = {
    "constant": ipp.ConstantIntensity(0.02),
    # about one envelope point per rep, so many reps have an empty envelope
    "sparse": ipp.ConstantIntensity(0.0025),
    "zero": ipp.ConstantIntensity(0.0),
    "raster": ipp.RasterIntensity(0.0, 0.0, 10.0, np.array([[0.01, 0.05], [0.0, 0.03]])),
}
REGION = ipp.Region(0.0, 20.0, 0.0, 20.0)


@given(seeds=seed_lists, form=st.sampled_from(sorted(FIELDS)))
@settings(max_examples=80, deadline=None)
def test_sample_replications_match_each_rep_alone(seeds, form):
    field = FIELDS[form]
    reps = list(ipp.sample_replications(field, REGION, seeds))
    assert len(reps) == len(seeds)
    for seed, got in zip(seeds, reps):
        want = ipp.sample_ipp_thinning(field, REGION, seed)
        assert got.seed == want.seed == seed
        assert got.points.tobytes() == want.points.tobytes()


def test_stacked_build_of_a_batch_matches_trees_built_alone():
    # 20 trees in one run seed every stage in one batch; alone, each tree
    # seeds its few generators one at a time
    lib = templates.default_library("tiny")
    jitter = tf.AngleJitterParams(azimuth_range=25.0, pitch_range=8.0, scale_range=(0.8, 1.2))
    params = [tm.TreeParams(branch_count=1 + i % 5, subbranches_per_branch=i % 3,
                            leaves_per_subbranch=(i * 7) % 4, trunk_height=4.0 + i,
                            jitter=jitter, seed=sd.stream_seed(99, i))
              for i in range(20)]
    with mock.patch.object(tm, "_RUN_TRIANGLES", 1 << 40):
        mesh, ends = tm.build_trees(params, lib)
    stack = ref.split_skeleton(tm.build_skeleton(params))
    for p, a, b, skeleton in zip(params, [0, *ends[:, 3].tolist()], ends[:, 3].tolist(), stack):
        alone = tm.build_tree(p, lib)
        assert mesh.facets[a:b].tobytes() == alone.mesh.facets.tobytes()
        assert skeleton.points.tobytes() == alone.skeleton.points.tobytes()


@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), max_size=30))
@settings(max_examples=60, deadline=None)
def test_stream_seeds_are_stream_seed(seeds):
    seeds = [0, 1, 2 ** 63, 2 ** 64 - 1] + seeds
    column = np.array(seeds, dtype=np.uint64)
    for stream in range(5):
        got = sd.stream_seeds(column, stream)
        assert got.dtype == np.uint64
        assert got.tolist() == [sd.stream_seed(seed, stream) for seed in seeds]
    every = sd.stream_seeds(column[:, None], np.arange(5))
    assert every.tolist() == [[sd.stream_seed(seed, k) for k in range(5)] for seed in seeds]
    assert sd.stream_seeds(seeds[-1], np.arange(1, 4)).tolist() == [
        sd.stream_seed(seeds[-1], k) for k in range(1, 4)]


def test_a_build_hashes_every_stage_seed_in_one_call():
    # the four stages of every run read their seed words from one hash
    lib = templates.default_library("tiny")
    jitter = tf.AngleJitterParams(azimuth_range=25.0, pitch_range=8.0, scale_range=(0.8, 1.2))
    params = [tm.TreeParams(branch_count=1 + i % 5, subbranches_per_branch=i % 3,
                            leaves_per_subbranch=(i * 7) % 4, trunk_height=4.0 + i,
                            jitter=jitter, seed=sd.stream_seed(7, i)) for i in range(40)]
    with mock.patch.object(tm, "_RUN_TRIANGLES", 1 << 40):
        whole = tm.build_trees(params, lib)[0]
    for run in (1 << 40, 1 << 11):
        with mock.patch.object(tm, "_RUN_TRIANGLES", run), \
                mock.patch.object(sd, "_seed_words", wraps=sd._seed_words) as words:
            mesh, ends = tm.build_trees(params, lib)
        assert words.call_count == 1
        assert mesh.facets.tobytes() == whole.facets.tobytes()


def test_parameter_jitter_of_a_batch_is_each_tree_stream(tiny_library):
    config = fo.SceneConfig(
        region=ipp.Region(0.0, 60.0, 0.0, 60.0), intensity=ipp.ConstantIntensity(0.01),
        tree_params_template=tm.TreeParams(branch_count=3, subbranches_per_branch=1,
                                           leaves_per_subbranch=0),
        parameter_jitter=fo.ParameterJitter(branch_count=(1, 9), trunk_height=(2.0, 15.0)),
        master_seed=3)
    scene = fo.compose_forest(config, tiny_library)
    assert len(scene) >= sd._BATCH_MIN
    for i, index in enumerate(scene.index):
        p = scene.params.row(i)
        assert p.seed == sd.stream_seed(config.master_seed, index + 1)
        rng = np.random.default_rng(sd.stream_seed(p.seed, fo._STREAM_PARAM_JITTER))
        assert p.branch_count == int(rng.integers(1, 10))
        assert p.trunk_height == float(rng.uniform(2.0, 15.0))
