"""Command-line surface: tree, forest, ipp-sample, stl-info, rewrite.

Every subcommand is bit-reproducible given the same flags, seed, and input
files. Summaries go to stdout as ``key=value`` lines; failures print a
single ``error: ...`` line to stderr and exit with a documented code:
2 invalid flags, 3 parse/library failure (a mesh that cannot be written as
STL included), 4 write failure, 5 invalid scene or intensity configuration.
``main`` alone maps library errors to these codes; ``CliError`` carries its
own code and only wraps errors whose code or message the CLI changes.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path

import numpy as np

from . import forest as forestmod
from . import ipp
from . import lsystem as lsys
from . import stl
from . import templates
from . import tree as treemod

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_WRITE = 4
EXIT_CONFIG = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the single-line error channel
    def error(self, message):
        raise CliError(message, EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(key: str, value):
    print(f"{key}={value}")


def _pick_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _write(path: Path, data: bytes | str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_WRITE) from exc


def _load_library(path: str | None) -> stl.MeshLibrary:
    if path is None:
        return templates.default_library("normal")
    return stl.load_library(path)


def _print_stats(stats: stl.MeshStats):
    _emit("triangles", stats.triangle_count)
    if stats.bounds is None:
        _emit("bounds", "empty")
    else:
        lo, hi = stats.bounds
        _emit("bounds_min", ",".join(_fmt(v) for v in lo))
        _emit("bounds_max", ",".join(_fmt(v) for v in hi))
    _emit("area", _fmt(stats.total_area))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_tree(args) -> int:
    seed = _pick_seed(args.seed)
    params = treemod.TreeParams(
        branch_count=args.branches,
        subbranches_per_branch=args.subbranches,
        leaves_per_subbranch=args.leaves,
        trunk_height=args.height,
        seed=seed,
    )
    lib = _load_library(args.lib)
    try:
        model = treemod.build_tree(params, lib)
    except OverflowError as exc:  # a --height too large or too small to place
        raise CliError(str(exc)) from exc
    mesh = model.stage_mesh(args.stage)
    out = Path(args.out)
    _write(out, stl.write_stl(mesh, args.format))
    _emit("seed", seed)
    _emit("stage", args.stage)
    _print_stats(stl.mesh_stats(mesh))
    _emit("out", out)
    if args.stage == "leaves":
        csv_path = out.parent / "leaves.csv"
        centroids = model.leaf_centroids
        _write(csv_path, treemod.centroids_to_csv(centroids))
        _emit("leaf_centroids", len(centroids))
        _emit("leaves_csv", csv_path)
    return EXIT_OK


def _cmd_forest(args) -> int:
    config, lib_path = forestmod.load_scene_config(args.config)
    if args.lib is None and lib_path is not None:
        # a relative library path names a file beside the scene config
        lib_path = str(Path(args.config).parent / lib_path)
    lib = _load_library(args.lib or lib_path)
    scene = forestmod.compose_forest(config, lib)
    try:
        forestmod.export_scene(scene, args.out, args.mode)
    except OSError as exc:
        raise CliError(f"cannot write scene: {exc}", EXIT_WRITE) from exc
    stats = forestmod.scene_stats(scene)
    _emit("master_seed", config.master_seed)
    _emit("mode", args.mode)
    _emit("trees", stats.tree_count)
    _emit("triangles", stats.total_triangles)
    _emit("nearest_neighbor", _fmt(stats.nearest_neighbor_min_distance)
          if stats.tree_count > 1 else "inf")
    _emit("manifest", Path(args.out) / forestmod.MANIFEST_NAME)
    return EXIT_OK


def _parse_region(text: str) -> ipp.Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--region expects x0,x1,y0,y1, got '{text}'")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
        return ipp.Region(x0, x1, y0, y1)
    except ValueError as exc:
        raise CliError(f"invalid region '{text}': {exc}") from exc


def _parse_intensity(text: str):
    kind, _, rest = text.partition(":")
    if kind == "constant":
        try:
            rate = float(rest)
        except ValueError as exc:
            raise CliError(f"invalid constant intensity '{rest}'") from exc
        return ipp.ConstantIntensity(rate)
    if kind == "raster":
        return ipp.load_intensity(rest)
    raise CliError(f"--intensity expects constant:RATE or raster:FILE, got '{text}'")


def _cmd_ipp_sample(args) -> int:
    region = _parse_region(args.region)
    field = _parse_intensity(args.intensity)
    seed = _pick_seed(args.seed)
    if args.reps < 1:
        raise CliError("--reps must be at least 1")
    ipp.check_replication_budget(field, region, args.reps)
    out = Path(args.out)
    # each pattern is written, or only counted, as it is sampled
    counts = []
    for i, pattern in enumerate(ipp.sample_replications(
            field, region, ipp.replication_seeds(seed, args.reps))):
        counts.append(len(pattern))
        if not args.counts_only:
            _write(out if args.reps == 1 else out / f"sample_{i:04d}.csv",
                   ipp.pattern_to_csv(pattern))
    counts = np.array(counts)
    if args.counts_only:
        lines = ["rep,count"] + [f"{i},{c}" for i, c in enumerate(counts)]
        _write(out, "\n".join(lines) + "\n")
    _emit("seed", seed)
    _emit("reps", args.reps)
    _emit("mean_count", _fmt(float(counts.mean())))
    if args.reps > 1:
        var = float(counts.var(ddof=1))
        _emit("var_count", _fmt(var))
        mean = float(counts.mean())
        _emit("dispersion", _fmt(var / mean) if mean > 0 else "nan")
    _emit("out", out)
    return EXIT_OK


def _cmd_stl_info(args) -> int:
    path = Path(args.file)
    try:
        name, fmt, stats = stl.file_stats(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except stl.StlParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc
    _emit("file", path)
    _emit("format", fmt)
    _emit("name", name)
    _print_stats(stats)
    return EXIT_OK


def _cmd_rewrite(args) -> int:
    try:
        text = Path(args.grammar).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {args.grammar}: {exc}", EXIT_PARSE) from exc
    derivation = lsys.rewrite(lsys.parse_lsystem(text), args.iterations)
    _emit("level", args.iterations)
    _emit("derivation", derivation)
    _emit("branch_symbols", lsys.count_branch_symbols(derivation))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="forestgen",
                     description="Procedural trees and forests from L-system "
                                 "skeletons, template meshes, and Poisson sampling.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tree", help="build one tree and write a stage STL")
    p.add_argument("--branches", type=int, required=True)
    p.add_argument("--subbranches", type=int, default=3)
    p.add_argument("--leaves", type=int, default=5,
                   help="leaves per sub-branch (per branch when no sub-branches)")
    p.add_argument("--height", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lib", default=None, help="library.json path (default: built-in templates)")
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=treemod.STAGES, default="leaves")
    p.add_argument("--format", choices=("binary", "ascii"), default="binary")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("forest", help="compose and export a forest scene")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=forestmod.EXPORT_MODES, default="per-tree")
    p.add_argument("--lib", default=None)
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("ipp-sample", help="sample point patterns from an intensity field")
    p.add_argument("--region", required=True, help="x0,x1,y0,y1")
    p.add_argument("--intensity", required=True, help="constant:RATE or raster:FILE")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ipp_sample)

    p = sub.add_parser("stl-info", help="inspect an STL file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stl_info)

    p = sub.add_parser("rewrite", help="expand an L-system grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.set_defaults(func=_cmd_rewrite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (lsys.LSystemError, stl.StlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ipp.IntensityError, forestmod.SceneConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
