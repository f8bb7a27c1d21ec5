"""forestgen: procedural 3D trees and forests.

L-system derivations give branching skeletons, template STL meshes give the
geometry of trunks, branches, sub-branches, and leaves, and an inhomogeneous
Poisson process lays trees out into forest scenes.

The names in ``__all__`` are the public API, as README's "Python API" lists
them. Every other name, such as the build stages in ``forestgen.tree`` and
``forestgen.transform``, may change between versions.
"""

from .forest import (ParameterJitter, Scene, SceneConfig, SceneConfigError,
                     compose_forest, export_scene, regenerate_scene, scene_stats)
from .ipp import (ConstantIntensity, IntensityError, PointPattern, RasterIntensity,
                  Region, min_distance_filter,
                  sample_homogeneous, sample_ipp_thinning)
from .lsystem import GrammarError, LSystem, parse_lsystem, rewrite
from .stl import (LibraryError, MeshLibrary, StlParseError, TriangleMesh, load_library,
                  mesh_stats, read_stl, save_library, write_stl)
from .templates import default_library
from .transform import AngleJitterParams
from .tree import TreeModel, TreeParams, build_tree

__version__ = "0.4.0"

__all__ = [
    "AngleJitterParams", "ConstantIntensity", "GrammarError",
    "IntensityError", "LSystem", "LibraryError", "MeshLibrary", "ParameterJitter",
    "PointPattern", "RasterIntensity", "Region", "Scene",
    "SceneConfig", "SceneConfigError", "StlParseError", "TriangleMesh",
    "TreeModel", "TreeParams", "build_tree",
    "compose_forest", "default_library", "export_scene", "load_library",
    "mesh_stats", "min_distance_filter", "parse_lsystem",
    "read_stl", "regenerate_scene", "rewrite",
    "sample_homogeneous", "sample_ipp_thinning", "save_library", "scene_stats", "write_stl",
]
