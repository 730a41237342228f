"""Exact wall structures, tropical cylinders, and primitive cylinder counts
on blowups of smooth complete toric surfaces."""

from .classes import (
    CurveClass,
    class_from_profile,
    divisor_class,
    exceptional_class,
    intersect,
    intersection_matrix,
    make_class,
    zero_class,
)
from .counting import (
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    count_primitive_cylinder,
    count_spine,
    default_table,
    elementary_class,
    elementary_cylinder,
    splitting_measure,
    splitting_sum,
)
from .deformation import (
    DeformationFamily,
    build_deformation,
    degeneration_path,
    replay_induction,
)
from .lattice import Fan, cone_coordinates, norm, refine_fan
from .model import (
    F1_RAYS,
    P1XP1_RAYS,
    P2_RAYS,
    ToricModel,
    build_model,
    cubic_model,
    refine_model,
)
from .tropical import (
    Cylinder,
    MappedTree,
    canonical_spine_split,
    classify,
    cylinder_tree,
    extension_class,
    make_tree,
    spine_decomposition,
)
from .walls import WallStructure, generate_walls, is_wall_direction

__version__ = "0.1.0"

__all__ = [
    "CurveClass",
    "Cylinder",
    "DeformationFamily",
    "ElementaryCountTable",
    "F1_RAYS",
    "Fan",
    "MappedTree",
    "P1XP1_RAYS",
    "P2_RAYS",
    "ToricModel",
    "WallStructure",
    "build_cylinder",
    "build_deformation",
    "build_model",
    "canonical_spine_split",
    "class_from_profile",
    "classify",
    "cone_coordinates",
    "contributing_classes",
    "count_primitive_cylinder",
    "count_spine",
    "cubic_model",
    "cylinder_tree",
    "default_table",
    "degeneration_path",
    "divisor_class",
    "elementary_class",
    "elementary_cylinder",
    "exceptional_class",
    "extension_class",
    "generate_walls",
    "intersect",
    "intersection_matrix",
    "is_wall_direction",
    "make_class",
    "make_tree",
    "norm",
    "refine_fan",
    "refine_model",
    "replay_induction",
    "spine_decomposition",
    "splitting_measure",
    "splitting_sum",
    "zero_class",
]
