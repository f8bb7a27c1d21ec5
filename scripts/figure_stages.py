#!/usr/bin/env python3
"""Reproduce the staged single-tree builds: 8, 12, and 16 branches, each
exported at every stage (skeleton, branches, subbranches, leaves) plus the
leaf-centroid table.

Usage: python scripts/figure_stages.py [--out DIR] [--seed N] [--detail ...]
"""

import argparse
from pathlib import Path

from forestgen import stl, templates
from forestgen import tree as tm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/stages")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--detail", choices=templates.DETAIL_PRESETS, default="normal")
    args = parser.parse_args()

    lib = templates.default_library(args.detail)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for branches in (8, 12, 16):
        params = tm.TreeParams(branch_count=branches, subbranches_per_branch=3,
                               leaves_per_subbranch=5, trunk_height=10.0, seed=args.seed)
        model = tm.build_tree(params, lib)
        for stage in tm.STAGES:
            mesh = model.stage_mesh(stage)
            path = out / f"tree{branches:02d}_{stage}.stl"
            path.write_bytes(stl.write_stl(mesh, "binary"))
            print(f"{path}  triangles={len(mesh)}")
        csv_path = out / f"tree{branches:02d}_leaves.csv"
        centroids = model.leaf_centroids
        csv_path.write_text(tm.centroids_to_csv(centroids))
        print(f"{csv_path}  centroids={len(centroids)}")


if __name__ == "__main__":
    main()
