"""forestgen: procedural 3D trees and forests.

L-system derivations give branching skeletons, template STL meshes give the
geometry of trunks, branches, sub-branches, and leaves, and an inhomogeneous
Poisson process lays trees out into forest scenes.
"""

from .forest import (ParameterJitter, Scene, SceneConfig, SceneConfigError,
                     compose_forest, export_scene, regenerate_scene, scene_stats)
from .ipp import (ConstantIntensity, IntensityError, PointPattern, RasterIntensity,
                  Region, min_distance_filter,
                  sample_homogeneous, sample_ipp_thinning)
from .lsystem import (DerivationString, GrammarError, LSystem, Skeleton,
                      TurtleConfig, TurtleError, count_branch_symbols,
                      interpret_turtle, parse_lsystem, rewrite)
from .stl import (LibraryError, MeshLibrary, StlParseError, TriangleMesh, load_library,
                  mesh_stats, read_stl, recompute_normals, save_library, write_stl)
from .templates import default_library
from .transform import (AngleJitterParams, RigidTransform, apply_point, apply_to_mesh,
                        compose, inverse, random_attachment_transform)
from .tree import TreeModel, TreeParams, build_skeleton, build_tree

__version__ = "0.1.0"

__all__ = [
    "AngleJitterParams", "ConstantIntensity", "DerivationString", "GrammarError",
    "IntensityError", "LSystem", "LibraryError", "MeshLibrary", "ParameterJitter",
    "PointPattern", "RasterIntensity", "Region", "RigidTransform", "Scene",
    "SceneConfig", "SceneConfigError", "Skeleton", "StlParseError", "TriangleMesh",
    "TreeModel", "TreeParams", "TurtleConfig", "TurtleError",
    "apply_point", "apply_to_mesh", "build_skeleton", "build_tree", "compose",
    "compose_forest", "count_branch_symbols", "default_library", "export_scene",
    "interpret_turtle", "inverse", "load_library",
    "mesh_stats", "min_distance_filter", "parse_lsystem", "random_attachment_transform",
    "read_stl", "recompute_normals", "regenerate_scene", "rewrite",
    "sample_homogeneous", "sample_ipp_thinning", "save_library", "scene_stats", "write_stl",
]
