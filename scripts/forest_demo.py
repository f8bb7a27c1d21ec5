#!/usr/bin/env python3
"""Forest composition demos.

Scene A: a two-tree region exported in branch and sub-branch stages.
Scene B: a larger forest with per-tree parameter jitter, merged export.

Usage: python scripts/forest_demo.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from forestgen import forest as fo
from forestgen import ipp, stl, templates
from forestgen import tree as tm


def two_tree_scene(lib, out: Path):
    # mass 2 on a small patch; seed picked so exactly two locations survive
    config = fo.SceneConfig(
        region=ipp.Region(0.0, 30.0, 0.0, 30.0),
        intensity=ipp.ConstantIntensity(2.0 / 900.0),
        tree_params_template=tm.TreeParams(branch_count=8, subbranches_per_branch=3,
                                           leaves_per_subbranch=0, trunk_height=10.0),
        min_spacing=4.0,
        master_seed=4,
    )
    scene = fo.compose_forest(config, lib)
    print(f"scene A: {len(scene)} trees")
    for stage in ("branches", "subbranches"):
        path = out / f"two_trees_{stage}.stl"
        meshes = [scene.tree(i).stage_mesh(stage) for i in range(len(scene))]
        count = fo.write_merged(path, stl.concat_meshes(meshes).facets,
                                np.cumsum([len(m) for m in meshes]), scene.xy,
                                f"two_trees_{stage}")
        print(f"  {path}  triangles={count}")
    fo.export_scene(scene, out / "two_trees", "per-tree")


def jittered_forest(lib, out: Path):
    config = fo.SceneConfig(
        region=ipp.Region(0.0, 120.0, 0.0, 120.0),
        intensity=ipp.ConstantIntensity(25.0 / 14400.0),
        tree_params_template=tm.TreeParams(branch_count=10, subbranches_per_branch=2,
                                           leaves_per_subbranch=3, trunk_height=9.0),
        parameter_jitter=fo.ParameterJitter(branch_count=(6, 14), trunk_height=(6.0, 13.0)),
        min_spacing=5.0,
        master_seed=2025,
    )
    scene = fo.compose_forest(config, lib)
    manifest = fo.export_scene(scene, out / "forest", "merged")
    stats = fo.scene_stats(scene)
    print(f"scene B: {stats.tree_count} trees, {stats.total_triangles} triangles, "
          f"nearest neighbor {stats.nearest_neighbor_min_distance:.2f}")
    print(f"  manifest: {out / 'forest' / fo.MANIFEST_NAME}")
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/forest_demo")
    parser.add_argument("--detail", choices=templates.DETAIL_PRESETS, default="normal")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lib = templates.default_library(args.detail)
    two_tree_scene(lib, out)
    jittered_forest(lib, out)


if __name__ == "__main__":
    main()
