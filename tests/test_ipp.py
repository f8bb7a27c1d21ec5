import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import scalar_reference as ref
from forestgen import ipp

REGION = ipp.Region(0.0, 100.0, 0.0, 100.0)


def brute_force_min_distance_ok(points: np.ndarray, r: float) -> bool:
    """O(n^2) oracle: every retained pair at least r apart."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) < r:
                return False
    return True


def riemann_mass(field, region, cells=400):
    """Independent integral oracle: midpoint Riemann sum on a fine grid."""
    xs = np.linspace(region.x_min, region.x_max, cells + 1)
    ys = np.linspace(region.y_min, region.y_max, cells + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(cx, cy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cell_area = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float(field.rate_at(pts).sum() * cell_area)


# ---------------------------------------------------------------------------
# regions and intensity fields

def test_region_validation():
    with pytest.raises(ValueError):
        ipp.Region(0, 0, 0, 1)
    with pytest.raises(ValueError):
        ipp.Region(0, 1, 2, 1)


@pytest.mark.parametrize("bound", ["x_min", "x_max", "y_min", "y_max"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_region_rejects_non_finite_bounds(bound, value):
    bounds = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}
    bounds[bound] = value
    with pytest.raises(ValueError, match="finite"):
        ipp.Region(**bounds)


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_constant_intensity_rejects_non_finite_rate(rate):
    with pytest.raises(ipp.IntensityError, match="finite"):
        ipp.ConstantIntensity(rate)
    with pytest.raises(ipp.IntensityError, match="finite"):
        ipp.sample_homogeneous(REGION, rate, 0)
    with pytest.raises(ValueError, match="finite"):
        ipp.poisson_count(rate, np.random.default_rng(0))


def test_integrate_constant():
    assert ipp.ConstantIntensity(0.01).integrate(REGION) == pytest.approx(100.0)
    assert ipp.ConstantIntensity(0.0).integrate(REGION) == 0.0


def test_integrate_two_cell_raster():
    # two cells of area 50 each with intensities 2 and 1 -> mass 150
    cell = math.sqrt(50.0)
    field = ipp.RasterIntensity(0.0, 0.0, cell, np.array([[2.0, 1.0]]))
    region = ipp.Region(0.0, 2 * cell, 0.0, cell)
    assert field.integrate(region) == pytest.approx(150.0, rel=1e-12)
    assert field.integrate(region) == pytest.approx(
        riemann_mass(field, region), rel=1e-9)


def test_integrate_raster_clips_to_region():
    field = ipp.RasterIntensity(0.0, 0.0, 10.0, np.array([[1.0, 3.0]]))
    # region covers the left cell plus half of the right one
    region = ipp.Region(0.0, 15.0, 0.0, 10.0)
    assert field.integrate(region) == pytest.approx(100.0 + 150.0)


def test_integrate_requires_coverage():
    field = ipp.RasterIntensity(0.0, 0.0, 10.0, np.array([[1.0]]))
    with pytest.raises(ipp.IntensityError, match="does not cover"):
        field.integrate(ipp.Region(0, 20, 0, 10))


@pytest.mark.parametrize("values", [[[True]], [[0.5, False], [1.0, 2.0]], [[1, np.True_]],
                                    np.array([[False, True]])])
def test_raster_refuses_a_boolean_value(values):
    # float64 would read a JSON true as 1.0
    first = next(v for row in values for v in row if isinstance(v, (bool, np.bool_)))
    with pytest.raises(ipp.IntensityError, match=f"^raster value must be a number, got {first}$"):
        ipp.RasterIntensity(0, 0, 1.0, values)


def test_raster_rejects_negative_cell():
    with pytest.raises(ipp.IntensityError, match=r"\(i=1, j=0\)"):
        ipp.RasterIntensity(0, 0, 1.0, np.array([[1.0, -2.0]]))


def test_raster_max_rate_over_region_only():
    field = ipp.RasterIntensity(0, 0, 10.0, np.array([[1.0, 5.0]]))
    assert field.max_rate(ipp.Region(0, 10, 0, 10)) == 1.0
    assert field.max_rate(ipp.Region(0, 20, 0, 10)) == 5.0


# ---------------------------------------------------------------------------
# homogeneous sampling

def test_sample_rate_zero_always_empty():
    for seed in range(10):
        assert len(ipp.sample_homogeneous(REGION, 0.0, seed)) == 0


def test_sample_homogeneous_count_statistics():
    counts = np.array([len(ipp.sample_homogeneous(REGION, 0.01, s))
                       for s in ipp.replication_seeds(314, 2000)])
    se = math.sqrt(100.0 / 2000)
    assert abs(counts.mean() - 100.0) <= 3 * se
    dispersion = counts.var(ddof=1) / counts.mean()
    assert 0.8 <= dispersion <= 1.2


def test_sample_homogeneous_uniformity_ks():
    xs = np.concatenate([ipp.sample_homogeneous(REGION, 0.005, s).points[:, 0]
                         for s in ipp.replication_seeds(2718, 150)])
    assert len(xs) > 5000
    result = sps.kstest(xs / 100.0, "uniform")
    assert result.pvalue >= 0.01


def test_sample_points_inside_region():
    pattern = ipp.sample_homogeneous(ipp.Region(-5, 5, 10, 30), 1.0, seed=9)
    assert np.all(pattern.points[:, 0] >= -5) and np.all(pattern.points[:, 0] <= 5)
    assert np.all(pattern.points[:, 1] >= 10) and np.all(pattern.points[:, 1] <= 30)


def test_envelope_budget_refuses_before_drawing():
    # REGION at rate 0.01 expects exactly 100 points
    with mock.patch.object(ipp, "MAX_ENVELOPE_POINTS", 100):
        at_budget = ipp.sample_homogeneous(REGION, 0.01, seed=6)
        for sample in (lambda: ipp.sample_homogeneous(REGION, 0.0101, seed=6),
                       lambda: ipp.sample_ipp_thinning(ipp.ConstantIntensity(0.0101), REGION, 6)):
            with pytest.raises(ipp.IntensityError, match="forestgen.ipp.MAX_ENVELOPE_POINTS"):
                sample()
    assert np.array_equal(at_budget.points, ipp.sample_homogeneous(REGION, 0.01, seed=6).points)


@pytest.mark.parametrize("rate,reps_at_budget", [(0.0, 1000), (0.01, 9), (0.0101, 9)])
def test_replication_budget_charges_envelope_mean_plus_one_per_rep(rate, reps_at_budget):
    # REGION expects 100 * rate / 0.01 points per rep: 0 points cost 1 each,
    # 100 cost 101 and 101 cost 102, against a budget of 1000
    field = ipp.ConstantIntensity(rate)
    with mock.patch.object(ipp, "MAX_ENVELOPE_POINTS", 1000):
        ipp.check_replication_budget(field, REGION, reps_at_budget)
        with pytest.raises(ipp.IntensityError, match="forestgen.ipp.MAX_ENVELOPE_POINTS"):
            ipp.check_replication_budget(field, REGION, reps_at_budget + 1)


def test_sample_deterministic_per_seed():
    a = ipp.sample_homogeneous(REGION, 0.02, seed=4)
    b = ipp.sample_homogeneous(REGION, 0.02, seed=4)
    assert np.array_equal(a.points, b.points)
    assert a.seed == b.seed == 4


def test_poisson_count_exactness_small_means():
    # inversion regime: empirical pmf against the analytic pmf
    rng = np.random.default_rng(1)
    draws = np.array([ipp.poisson_count(3.0, rng) for _ in range(20000)])
    for k in range(8):
        expected = math.exp(-3.0) * 3.0 ** k / math.factorial(k)
        assert abs((draws == k).mean() - expected) < 0.01


def test_poisson_count_large_mean_regime():
    rng = np.random.default_rng(2)
    draws = np.array([ipp.poisson_count(80.0, rng) for _ in range(3000)])
    assert abs(draws.mean() - 80.0) < 3 * math.sqrt(80.0 / 3000)
    assert 0.8 <= draws.var(ddof=1) / draws.mean() <= 1.2


@given(seed=st.integers(0, 2**64 - 1),
       mean=st.floats(30.0, 2e5) | st.sampled_from([30.0, 65536.0, 131072.5, 140000.0]))
@settings(max_examples=150, deadline=None)
def test_poisson_count_matches_one_draw_per_gap(seed, mean):
    # same count, and the generator left where the scalar loop leaves it;
    # means near 65536 and above cross between blocks of gaps
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert ipp.poisson_count(mean, fast) == ref.poisson_count_by_gaps(mean, slow)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.uniform() == slow.uniform()


@given(mean=st.floats(0.0, 30.0, exclude_max=True), u=st.floats(0.0, 1.0, exclude_max=True))
@example(mean=3.0, u=0.0)
@example(mean=29.999, u=1 - 2 ** -53)
@settings(max_examples=300, deadline=None)
def test_poisson_inversion_matches_term_by_term_sum(mean, u):
    # where the pmf sum reaches u, the same k; where it stops short, any end
    expected = ref.poisson_count_by_inversion(mean, u)
    k = ipp.poisson_count(mean, SimpleNamespace(random=lambda: u))
    assert k == expected if expected is not None else k >= 0


def test_poisson_inversion_ends_where_its_pmf_sum_stops():
    # the float pmf sum of this mean stops at 1 - 2**-52, below the largest
    # uniform, 1 - 2**-53: the count ends once the terms underflow to 0
    # instead of spinning. In a child process, killed (failing the test)
    # after the timeout; the stub answers random() and uniform() alike.
    code = ("import math\n"
            "from forestgen import ipp\n"
            "class Top:\n"
            "    def random(self):\n"
            "        return math.nextafter(1.0, 0.0)\n"
            "    uniform = random\n"
            "print(ipp.poisson_count(0.027988599619987335, Top()))\n")
    src = str(Path(ipp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=20, env=env)
    assert result.returncode == 0, result.stderr
    assert ref.poisson_count_by_inversion(0.027988599619987335, 1 - 2 ** -53) is None
    assert int(result.stdout) > 0


# ---------------------------------------------------------------------------
# thinning

BOUNDS = [-0.0, 0.0, -37.5, -1000.125, 3.0]


@st.composite
def regions(draw):
    """A region with negative or -0.0 bounds among its corners."""
    x_min, y_min = draw(st.sampled_from(BOUNDS)), draw(st.sampled_from(BOUNDS))
    width, height = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
    return ipp.Region(x_min, x_min + width, y_min, y_min + height)


@st.composite
def thinning_cases(draw):
    """A constant or raster field over a region, expecting 0 to 45 envelope
    points per rep (zero-mass fields included, and means on both sides of
    the inversion switch at 30), rep seeds, and a block bound from one rep
    per block to all of them."""
    region = draw(regions())
    rate = draw(st.sampled_from([0.0, 1.0, 5.0, 20.0, 45.0])) / region.area
    if draw(st.booleans()):
        field = ipp.ConstantIntensity(rate)
    else:
        cell = draw(st.floats(10.0, 50.0))
        nx = math.ceil((region.x_max - region.x_min) / cell) + 1
        ny = math.ceil((region.y_max - region.y_min) / cell) + 1
        values = draw(st.lists(st.sampled_from([0.0, rate / 3, rate]),
                               min_size=nx * ny, max_size=nx * ny))
        field = ipp.RasterIntensity(region.x_min - cell / 2, region.y_min - cell / 2, cell,
                                    np.reshape(values, (ny, nx)))
    reps = draw(st.sampled_from([1, 15, 16, 17]) | st.integers(1, 40))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=reps, max_size=reps))
    return field, region, seeds, draw(st.sampled_from([1, 20, 100, ipp._GAP_BLOCK_MAX]))


@given(case=thinning_cases())
@settings(max_examples=150, deadline=None)
def test_replications_match_one_rep_at_a_time(case):
    # the block sampler against the per-rep sampler it replaced; a small
    # block bound closes blocks inside the envelopes of a few reps
    field, region, seeds, block = case
    with mock.patch.object(ipp, "_GAP_BLOCK_MAX", block):
        patterns = list(ipp.sample_replications(field, region, seeds))
    expected = ref.sample_replications(field, region, seeds)
    assert [p.seed for p in patterns] == seeds
    for pattern, points in zip(patterns, expected, strict=True):
        assert pattern.points.shape == points.shape
        assert np.array_equal(pattern.points.view(np.int64), points.view(np.int64))


@given(region=regions(), mean=st.sampled_from([0.0, 1.0, 17.0, 45.0, 600.0]),
       seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_homogeneous_matches_broadcasting_uniform(region, mean, seed):
    points = ipp.sample_homogeneous(region, mean / region.area, seed).points
    expected = ref.sample_homogeneous(region, mean / region.area, np.random.default_rng(seed))
    assert points.shape == expected.shape
    assert np.array_equal(points.view(np.int64), expected.view(np.int64))


def test_thinning_constant_field_equals_homogeneous():
    field = ipp.ConstantIntensity(0.015)
    for seed in (0, 1, 99):
        thin = ipp.sample_ipp_thinning(field, REGION, seed)
        homog = ipp.sample_homogeneous(REGION, 0.015, seed)
        assert np.array_equal(thin.points, homog.points)


def test_thinning_zero_mass_returns_empty():
    assert len(ipp.sample_ipp_thinning(ipp.ConstantIntensity(0.0), REGION, 5)) == 0


def test_thinning_never_exceeds_envelope():
    field = ipp.RasterIntensity(0, 0, 50.0, np.array([[0.02, 0.005], [0.01, 0.03]]))
    for seed in range(20):
        thin = ipp.sample_ipp_thinning(field, REGION, seed)
        envelope = ipp.sample_homogeneous(REGION, field.max_rate(REGION), seed)
        assert len(thin) <= len(envelope)
        x, y = thin.points.T
        assert np.all((REGION.x_min <= x) & (x <= REGION.x_max)
                      & (REGION.y_min <= y) & (y <= REGION.y_max))


def test_thinning_two_cell_conditional_fraction():
    # lambda1 = 2 * lambda2 over equal areas: a point lands in cell 1 with
    # probability 2/3 (oracle: Riemann masses of the two halves)
    field = ipp.RasterIntensity(0, 0, 50.0, np.array([[4.0, 2.0]]))
    region = ipp.Region(0, 100, 0, 50)
    left = ipp.Region(0, 50, 0, 50)
    expected = riemann_mass(field, left) / riemann_mass(field, region)
    assert expected == pytest.approx(2.0 / 3.0, rel=1e-9)
    pts = ipp.sample_ipp_thinning(field, region, seed=12345).points
    n = len(pts)
    assert n >= 10_000
    frac = float((pts[:, 0] < 50.0).mean())
    half_width = 2.576 * math.sqrt(expected * (1 - expected) / n)
    assert abs(frac - expected) <= half_width


def test_thinning_mean_count_matches_mass():
    field = ipp.RasterIntensity(0, 0, 50.0, np.array([[0.02, 0.01], [0.005, 0.04]]))
    mass = field.integrate(REGION)
    counts = np.array([len(ipp.sample_ipp_thinning(field, REGION, s))
                       for s in ipp.replication_seeds(55, 800)])
    se = math.sqrt(mass / 800)
    assert abs(counts.mean() - mass) <= 3 * se


# ---------------------------------------------------------------------------
# spacing filter

def test_filter_r_zero_unchanged():
    pattern = ipp.sample_homogeneous(REGION, 0.01, seed=8)
    out = ipp.min_distance_filter(pattern, 0.0)
    assert np.array_equal(out.points, pattern.points)


def test_filter_keeps_first_of_close_pair():
    pattern = ipp.PointPattern(np.array([[0.0, 0.0], [0.0, 0.5]]), seed=0)
    out = ipp.min_distance_filter(pattern, 1.0)
    assert np.array_equal(out.points, [[0.0, 0.0]])


def test_filter_thousand_points_against_oracle():
    rng = np.random.default_rng(3)
    pattern = ipp.PointPattern(rng.uniform(0, 100, size=(1000, 2)), seed=3)
    out = ipp.min_distance_filter(pattern, 4.0)
    assert brute_force_min_distance_ok(out.points, 4.0)
    # greedy keeps the earliest point of any conflicting set
    assert np.array_equal(out.points[0], pattern.points[0])


@given(seed=st.integers(0, 2**31), r=st.floats(0.0, 30.0))
@settings(max_examples=25, deadline=None)
def test_filter_property(seed, r):
    rng = np.random.default_rng(seed)
    pattern = ipp.PointPattern(rng.uniform(0, 100, size=(60, 2)), seed=seed)
    out = ipp.min_distance_filter(pattern, r)
    assert brute_force_min_distance_ok(out.points, r)
    assert len(out) <= len(pattern)


@st.composite
def grid_cases(draw):
    """Points and a spacing at one scale from 1e-300 to 1e300: random,
    lattice (so with duplicates and exact distances) or packed into one
    cell; r is zero, subnormal, a multiple of the scale, or a pair's own
    distance, exactly or one ulp either side."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "lattice", "one-cell"]))
    if kind == "lattice":
        coords = [draw(st.integers(-6, 6)) for _ in range(2 * n)]
    else:
        coords = [draw(st.floats(-6.0, 6.0)) for _ in range(2 * n)]
    points = np.array(coords, dtype=np.float64).reshape(-1, 2) * scale
    points += draw(st.sampled_from([0.0, 1.0, -1e3, 7.5e5])) * scale
    r_kind = draw(st.sampled_from(["zero", "subnormal", "scaled", "pair"]))
    if r_kind == "zero":
        r = 0.0
    elif r_kind == "subnormal":
        r = draw(st.sampled_from([5e-324, 1e-310, 2.2e-308]))
    elif r_kind == "scaled" or n < 2:
        r = draw(st.floats(0.0, 20.0)) * scale
        if kind == "one-cell":
            r = 1e3 * scale
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d = float(np.hypot(*(points[i] - points[j])))
        r = abs(float(np.nextafter(d, draw(st.sampled_from([-math.inf, d, math.inf])))))
    return points, r


@given(case=grid_cases())
@settings(max_examples=400, deadline=None)
@example(case=(np.array([[0.0, 0.0], [1.5e-162, 0.0]]), 2.2e-162))   # r*r subnormal
@example(case=(np.array([[0.0, 0.0], [3e154, 0.0], [0.0, 1e200]]), 2e154))   # r*r overflows
@example(case=(np.array([[-1.7e308, 0.0], [1.7e308, 0.0]]), 1.0))
def test_filter_matches_scalar_reference(case):
    points, r = case
    out = ipp.min_distance_filter(ipp.PointPattern(points, seed=1), r)
    with np.errstate(over="ignore"):
        expected = ref.min_distance_filter(points, r).reshape(-1, 2)
    np.testing.assert_array_equal(out.points, expected)


@given(case=grid_cases())
@settings(max_examples=400, deadline=None)
@example(case=(np.zeros((0, 2)), 0.0))
@example(case=(np.array([[1.0, 2.0]]), 0.0))
@example(case=(np.array([[1e-320, 0.0], [0.0, 3e-320], [2e-320, 2e-320]]), 0.0))
@example(case=(np.array([[-1.7e308, 0.0], [1.7e308, 0.0], [0.0, 1e308]]), 0.0))
# spread out so that the nearest pair lies in non-adjacent cells of the
# first grid, while an adjacent pair is only slightly further apart
@example(case=(np.array([[0.4196685744769144, 0.4443162068217552],
                         [0.45851856099809474, 0.9854236870170019],
                         [0.9965119796711706, 0.2999565266181031],
                         [0.07144595451835412, 0.024852512705043184],
                         [0.9922195972766491, 0.9299871402561328]]), 0.0))
@example(case=(np.array([[0.07957051946839178, 0.08222075216952018],
                         [0.12156394000623505, 0.8075613577318947],
                         [0.6507159487011063, 0.36978631019759345],
                         [0.7982547911627095, 0.7845152642054329],
                         [0.9178976287588468, 0.017856898035384927]]), 0.0))
def test_nearest_pair_distance_matches_scalar_reference(case):
    points, _ = case
    with np.errstate(over="ignore"):
        expected = ref.nearest_pair_distance(points)
    assert ipp.nearest_pair_distance(points) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_points(bad):
    points = np.array([[0.0, 0.0], [1.0, bad], [2.0, 2.0]])
    with pytest.raises(ValueError, match=r"non-finite point.*index 1 "):
        ipp.min_distance_filter(ipp.PointPattern(points, seed=0), 1.0)
    with pytest.raises(ValueError, match=r"non-finite point.*index 1 "):
        ipp.nearest_pair_distance(points)


@pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
def test_filter_rejects_bad_distance(r):
    pattern = ipp.PointPattern(np.zeros((2, 2)), seed=0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        ipp.min_distance_filter(pattern, r)


@pytest.mark.parametrize("layout", ["spread", "stacked"])
def test_grid_scales_linearly(layout):
    # 20 000 points, spread out or all on one spot: the filter and the sweep
    # take well under a second, an all-pairs loop minutes
    if layout == "spread":
        points = np.random.default_rng(41).uniform(0.0, 1000.0, size=(20000, 2))
    else:
        points = np.full((20000, 2), 3.0)
    start = time.perf_counter()
    kept = ipp.min_distance_filter(ipp.PointPattern(points, seed=41), 1.0)
    nearest = ipp.nearest_pair_distance(points)
    assert time.perf_counter() - start < 10.0
    if layout == "spread":
        assert 0 < len(kept) < len(points) and 0 < nearest < 1.0
    else:
        assert len(kept) == 1 and nearest == 0.0


# ---------------------------------------------------------------------------
# serialization

def test_intensity_dict_round_trip():
    field = ipp.RasterIntensity(1.0, 2.0, 5.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    again = ipp.intensity_from_dict(ipp.intensity_to_dict(field))
    assert np.array_equal(again.values, field.values)
    assert (again.x_min, again.y_min, again.cell_size) == (1.0, 2.0, 5.0)


def test_intensity_dict_rejects_bad_bounds():
    data = ipp.intensity_to_dict(ipp.RasterIntensity(0, 0, 5.0, np.array([[1.0]])))
    data["x_max"] = 7.0
    with pytest.raises(ipp.IntensityError, match="does not match"):
        ipp.intensity_from_dict(data)


def test_pattern_csv():
    pattern = ipp.PointPattern(np.array([[1.5, 2.25]]), seed=0)
    assert ipp.pattern_to_csv(pattern) == "x,y\n1.5,2.25\n"
    empty = ipp.PointPattern(np.zeros((0, 2)), seed=0)
    assert ipp.pattern_to_csv(empty) == "x,y\n"


CSV_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 123456789.5,
             1.7976931348623157e308]


@given(points=st.lists(st.tuples(*[st.sampled_from(CSV_EDGES) | st.floats()] * 2), max_size=40))
@example(points=[])
@example(points=[(-0.0, 5e-324), (1e16, 1e22)])
@settings(max_examples=100, deadline=None)
def test_pattern_csv_matches_scalar_reference(points):
    pattern = ipp.PointPattern(np.array(points, dtype=np.float64).reshape(-1, 2), seed=0)
    assert ipp.pattern_to_csv(pattern) == ref.pattern_to_csv(pattern.points)
