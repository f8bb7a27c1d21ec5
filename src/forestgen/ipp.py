"""Inhomogeneous Poisson point sampling on a planar rectangle.

The sampler follows the classic thinning construction: draw a homogeneous
pattern at the intensity supremum, then keep each point s independently with
probability lambda(s) / lambda_max. Counts are drawn exactly, by CDF
inversion for small means and by accumulating unit-exponential gaps
otherwise; no normal approximation anywhere.

All sampling entry points take an integer seed (recorded on the returned
pattern). Independent substreams come from :mod:`forestgen.seeds`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeds import generators, stream_seed
from .tree import real_number

# switch point between inversion and exponential-gap counting
_INVERSION_MAX_MEAN = 30.0
# most exponential gaps drawn at once, which bounds a count's memory
_GAP_BLOCK_MAX = 65536

# sample_homogeneous refuses a pattern whose expected point count (rate times
# area) exceeds this many points, before drawing anything: about 4.2 M
# points, whose coordinates alone take 67 MB. That is a thousand times the
# envelope of any scene here (a few thousand points), and a small host holds
# the points and the thinning's per-point arrays.
MAX_ENVELOPE_POINTS = 1 << 22


class IntensityError(Exception):
    """Invalid intensity field, or one that does not cover the region."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle, the sampling window."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"region bound {name}"))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"region bound {name} must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("region must have positive extent on both axes")
        if not math.isfinite(self.area):
            raise ValueError("region area must be finite")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class ConstantIntensity:
    """lambda(s) = rate everywhere."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", real_number(self.rate, "intensity"))
        if not math.isfinite(self.rate):
            raise IntensityError("intensity must be finite")
        if self.rate < 0:
            raise IntensityError("intensity must be non-negative")

    def max_rate(self, region: Region) -> float:
        return self.rate

    def rate_at(self, points: np.ndarray) -> np.ndarray:
        n = np.asarray(points, dtype=np.float64).reshape(-1, 2).shape[0]
        return np.full(n, self.rate)

    def integrate(self, region: Region) -> float:
        return self.rate * region.area


@dataclass
class RasterIntensity:
    """Piecewise-constant intensity on a row-major grid of square cells.

    ``values[j, i]`` covers ``[x_min + i*c, x_min + (i+1)*c) x
    [y_min + j*c, y_min + (j+1)*c)``. Lookups are not interpolated, which
    keeps the supremum exact for thinning.
    """

    x_min: float
    y_min: float
    cell_size: float
    values: np.ndarray

    def __post_init__(self):
        for name in ("x_min", "y_min", "cell_size"):
            setattr(self, name, real_number(getattr(self, name), f"raster {name}"))
            if not math.isfinite(getattr(self, name)):
                raise IntensityError(f"raster {name} must be finite")
        values = (self.values if isinstance(self.values, np.ndarray)
                  else np.asarray(self.values, dtype=object))
        # the shape first: .flat walks at most 32 dimensions
        if values.ndim != 2 or values.size == 0:
            raise IntensityError("raster values must form a non-empty 2D grid")
        # a JSON boolean is no intensity: refused before float64 reads it as 1.0 or 0.0
        if values.dtype in (bool, object) and {bool, np.bool_} & set(map(type, values.flat)):
            boolean = next(v for v in values.flat if type(v) in (bool, np.bool_))
            raise IntensityError(f"raster value must be a number, got {bool(boolean)}")
        self.values = np.asarray(values, dtype=np.float64)
        if self.cell_size <= 0:
            raise IntensityError("cell_size must be positive")
        if not np.all(np.isfinite(self.values)):
            raise IntensityError("raster contains non-finite intensities")
        negative = np.argwhere(self.values < 0)
        if negative.size:
            j, i = negative[0]
            raise IntensityError(
                f"raster cell (i={i}, j={j}) has negative intensity {self.values[j, i]}")

    @property
    def x_max(self) -> float:
        return self.x_min + self.values.shape[1] * self.cell_size

    @property
    def y_max(self) -> float:
        return self.y_min + self.values.shape[0] * self.cell_size

    def _check_covers(self, region: Region):
        eps = 1e-9 * max(1.0, self.cell_size)
        if (region.x_min < self.x_min - eps or region.x_max > self.x_max + eps
                or region.y_min < self.y_min - eps or region.y_max > self.y_max + eps):
            raise IntensityError(
                f"raster extent [{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}] "
                f"does not cover the region")

    def _cell_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        ny, nx = self.values.shape
        ix = np.floor((pts[:, 0] - self.x_min) / self.cell_size).astype(int)
        iy = np.floor((pts[:, 1] - self.y_min) / self.cell_size).astype(int)
        return np.clip(ix, 0, nx - 1), np.clip(iy, 0, ny - 1)

    def max_rate(self, region: Region) -> float:
        self._check_covers(region)
        mask = self._overlap_areas(region) > 0
        return float(self.values[mask].max()) if mask.any() else 0.0

    def rate_at(self, points: np.ndarray) -> np.ndarray:
        ix, iy = self._cell_indices(points)
        return self.values[iy, ix]

    def _overlap_areas(self, region: Region) -> np.ndarray:
        ny, nx = self.values.shape
        x_edges = self.x_min + self.cell_size * np.arange(nx + 1)
        y_edges = self.y_min + self.cell_size * np.arange(ny + 1)
        wx = np.clip(np.minimum(x_edges[1:], region.x_max)
                     - np.maximum(x_edges[:-1], region.x_min), 0.0, None)
        wy = np.clip(np.minimum(y_edges[1:], region.y_max)
                     - np.maximum(y_edges[:-1], region.y_min), 0.0, None)
        return np.outer(wy, wx)

    def integrate(self, region: Region) -> float:
        self._check_covers(region)
        return float((self.values * self._overlap_areas(region)).sum())


@dataclass
class PointPattern:
    points: np.ndarray  # (n, 2)
    seed: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)

    def __len__(self) -> int:
        return self.points.shape[0]


def poisson_count(mean: float, rng: np.random.Generator) -> int:
    """Exact Poisson draw: CDF inversion below _INVERSION_MAX_MEAN,
    unit-exponential gap counting above."""
    if not 0 <= mean < math.inf:
        raise ValueError("Poisson mean must be finite and non-negative")
    if mean == 0:
        return 0
    if mean < _INVERSION_MAX_MEAN:
        u = rng.uniform()
        k = 0
        p = math.exp(-mean)
        cdf = p
        while u > cdf:
            k += 1
            p *= mean / k
            cdf += p
        return k
    # k counts the gaps whose running sum stays <= mean. Gaps are drawn in
    # blocks of about twice the count still expected (so one block usually
    # suffices), and cumsum adds them one at a time in draw order, the running
    # total carried into the first, as one draw per gap would; the block
    # holding the crossing is drawn again up to the crossing, so the
    # generator ends where one draw per gap would leave it.
    total = 0.0
    k = 0
    while True:
        state = rng.bit_generator.state
        gaps = rng.standard_exponential(min(_GAP_BLOCK_MAX, int(2 * (mean - total)) + 64))
        gaps[0] += total
        sums = np.cumsum(gaps)
        crossing = int(np.searchsorted(sums, mean, side="right"))
        if crossing < len(gaps):
            rng.bit_generator.state = state
            rng.standard_exponential(crossing + 1)
            return k + crossing
        k += len(gaps)
        total = float(sums[-1])


def sample_homogeneous(region: Region, rate: float, seed: int,
                       rng: np.random.Generator | None = None) -> PointPattern:
    """Homogeneous Poisson pattern: Poisson(rate * area) points placed
    independently and uniformly over the region, drawn from
    ``np.random.default_rng(seed)``; a caller that has seeded that
    generator already passes it as ``rng``. An expected count above
    MAX_ENVELOPE_POINTS is an IntensityError."""
    if not 0 <= rate < math.inf:
        raise IntensityError("rate must be finite and non-negative")
    mean = rate * region.area
    if mean > MAX_ENVELOPE_POINTS:
        raise IntensityError(f"the pattern expects {mean:.6g} points, more than the budget of "
                             f"{MAX_ENVELOPE_POINTS} (forestgen.ipp.MAX_ENVELOPE_POINTS)")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = poisson_count(mean, rng)
    pts = rng.uniform(low=[region.x_min, region.y_min],
                      high=[region.x_max, region.y_max], size=(n, 2))
    return PointPattern(pts, seed)


def sample_ipp_thinning(field, region: Region, seed: int) -> PointPattern:
    """Lewis-Shedler thinning: homogeneous envelope at the supremum, then an
    independent keep decision per point with probability lambda(s)/lambda_max.

    The envelope uses ``seed`` itself and the acceptance draws use substream
    1, so a constant field reproduces ``sample_homogeneous(region, rate,
    seed)`` exactly. This is the one-rep case of ``sample_replications``.
    """
    return next(sample_replications(field, region, [seed]))


def sample_replications(field, region: Region, seeds):
    """Yield ``sample_ipp_thinning(field, region, seed)`` for each seed in
    turn. The supremum is taken once, and every rep's two generators are
    seeded in one batch."""
    seeds = list(seeds)
    rngs = generators([s for seed in seeds for s in (seed, stream_seed(seed, 1))])
    lam_max = field.max_rate(region)
    for seed in seeds:
        envelope = sample_homogeneous(region, lam_max, seed, next(rngs))
        keep = next(rngs).uniform(size=len(envelope)) * lam_max < field.rate_at(envelope.points)
        yield PointPattern(envelope.points[keep], seed)


def _finite_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        shown = ", ".join(f"{i} ({pts[i, 0]}, {pts[i, 1]})" for i in bad[:3])
        raise ValueError(f"{bad.size} non-finite point(s), at index {shown}")
    return pts


def min_distance_filter(pattern: PointPattern, r: float) -> PointPattern:
    """Greedy hard-core filter: walk points in generation order, keeping a
    point only when it is at least r away from everything kept so far.

    Kept points go into a uniform grid, so each point is tested only
    against kept points in its 3 x 3 cells; the result is the same as
    testing it against every kept point.
    """
    if not 0 <= r < math.inf:
        raise ValueError("minimum distance must be finite and non-negative")
    pts = _finite_points(pattern.points)
    r2 = r * r
    if r2 == 0 or len(pts) == 0:
        return PointPattern(pts.copy(), pattern.seed)
    # A pair fails dx*dx + dy*dy >= r2 only if |dx| and |dy| are both below
    # sqrt(r2) (sqrt(2**1024) once r2 overflows): cells that wide, with a
    # margin for rounding dx and the square root, hold every such pair.
    h = math.sqrt(min(r2, sys.float_info.max)) * (1 + 2 ** -50)
    # The cell side exceeds h by a 2**-40 margin, plus 2**-40 of the
    # pattern's extent, which absorbs the rounding of the cell computation.
    # Cells are counted from the pattern's lower-left corner in half units,
    # so neither a coordinate difference nor a cell number (below 2**41) can
    # overflow.
    half = pts * 0.5
    lo = half.min(axis=0)
    side = h * 0.5 * (1 + 2 ** -40) + float((half.max(axis=0) - lo).max()) * 2 ** -40
    cells = [tuple(c) for c in np.floor((half - lo) / side).astype(np.int64).tolist()]
    members: dict[tuple[int, int], list[int]] = {}
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    kept = []
    for i, (x, y, (cx, cy)) in enumerate(zip(xs, ys, cells)):
        if all((x - xs[j]) * (x - xs[j]) + (y - ys[j]) * (y - ys[j]) >= r2
               for a in (cx - 1, cx, cx + 1) for b in (cy - 1, cy, cy + 1)
               for j in members.get((a, b), ())):
            members.setdefault((cx, cy), []).append(i)
            kept.append(i)
    return PointPattern(pts[kept], pattern.seed)


def nearest_pair_distance(points) -> float:
    """Smallest ``np.hypot`` distance between two of ``points`` (an (n, 2)
    array of finite coordinates); +inf for fewer than two points.

    A plane sweep: points sorted along their wider axis are compared with
    the point k places on, for k = 1, 2, ..., until every such gap along
    that axis is at least the nearest distance found. Rounding is monotone,
    so a pair further apart in the order has an axis gap at least as large,
    and its distance is at least that gap: the result is exact.
    """
    pts = _finite_points(points)
    n = len(pts)
    if n < 2:
        return math.inf
    axis = int(np.ptp(pts * 0.5, axis=0).argmax())
    order = np.argsort(pts[:, axis], kind="stable")
    a, b = pts[order, axis], pts[order, 1 - axis]
    nearest = math.inf
    # points over ~1.8e308 apart overflow to inf, the rounded distance
    with np.errstate(over="ignore"):
        for k in range(1, n):
            gaps = a[k:] - a[:-k]
            if gaps.min() >= nearest:
                break
            nearest = min(nearest, float(np.hypot(gaps, b[k:] - b[:-k]).min()))
    return nearest


def check_replication_budget(field, region: Region, reps: int) -> None:
    """Refuse, as an IntensityError, ``reps`` thinned patterns whose work
    exceeds MAX_ENVELOPE_POINTS: each rep counts its envelope mean plus one,
    the one for seeding its generators on an empty field. Run before the
    seeds are listed, since listing and seeding them is work per rep too."""
    mean = field.max_rate(region) * region.area
    if reps * (mean + 1.0) > MAX_ENVELOPE_POINTS:
        raise IntensityError(f"{reps} replications of {mean:.6g} expected points each exceed "
                             f"the budget of {MAX_ENVELOPE_POINTS} points "
                             f"(forestgen.ipp.MAX_ENVELOPE_POINTS)")


def replication_seeds(master_seed: int, count: int) -> list[int]:
    """Independent per-replication seeds (documented splitting rule)."""
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return [stream_seed(master_seed, k) for k in range(count)]


def pattern_to_csv(pattern: PointPattern) -> str:
    """Header plus one x,y row per point, each number at 9 significant digits."""
    return "x,y\n" + ("%.9g,%.9g\n" * len(pattern)) % tuple(pattern.points.ravel().tolist())


# ---------------------------------------------------------------------------
# serialization

def region_to_dict(region: Region) -> dict:
    return {"x_min": region.x_min, "x_max": region.x_max,
            "y_min": region.y_min, "y_max": region.y_max}


def region_from_dict(data: dict) -> Region:
    return Region(data["x_min"], data["x_max"], data["y_min"], data["y_max"])


def intensity_to_dict(field) -> dict:
    if isinstance(field, ConstantIntensity):
        return {"form": "constant", "rate": field.rate}
    if isinstance(field, RasterIntensity):
        return {"form": "raster", "x_min": field.x_min, "x_max": field.x_max,
                "y_min": field.y_min, "y_max": field.y_max,
                "cell_size": field.cell_size,
                "values": [[float(v) for v in row] for row in field.values]}
    raise IntensityError(f"unknown intensity field type {type(field).__name__}")


def intensity_from_dict(data: dict):
    form = data.get("form")
    if form == "constant":
        return ConstantIntensity(data["rate"])
    if form == "raster":
        raster = RasterIntensity(data.get("x_min", 0.0), data.get("y_min", 0.0),
                                 data["cell_size"], data["values"])
        # declared bounds, when present, must agree with origin + grid * cell
        for key, actual in (("x_max", raster.x_max), ("y_max", raster.y_max)):
            if data.get(key) is None:
                continue
            declared = real_number(data[key], f"raster {key}")
            if not math.isfinite(declared):
                raise IntensityError(f"raster {key} must be finite")
            if abs(declared - actual) > 1e-6 * raster.cell_size:
                raise IntensityError(
                    f"declared {key}={declared} does not match grid extent {actual}")
        return raster
    raise IntensityError(f"unknown intensity form '{form}'")


def load_intensity(path) -> RasterIntensity | ConstantIntensity:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise IntensityError(f"cannot read intensity file {path}: {exc}") from exc
    try:
        if "form" not in data:
            data = dict(data, form="raster")
        return intensity_from_dict(data)
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise IntensityError(f"malformed intensity file {path}: {exc}") from exc
