"""Exact-arithmetic toppling-ideal engine: Groebner bases, flag-indexed
minimal free resolutions, graded Betti tables, and brute-force verifiers
for pointed multigraphs."""

from .divisors import (
    PicClass,
    acyclic_orientations_unique_source,
    dhar_burn,
    is_q_reduced,
    linear_system,
    linearly_equivalent,
    maximal_reduced_divisors,
    pic_class,
    q_reduce,
    spanning_tree_count,
)
from .fields import PrimeField, RationalField, get_field
from .flags import (
    ConnectedFlag,
    enumerate_all_connected_flags,
    enumerate_minimal_flags,
    flag_divisor,
    flag_orientation,
    flags_equivalent,
    incidence_sign,
    merge_sets,
    theta,
    validate_flag,
)
from .graphs import PointedGraph, bfs_term_order, build_graph
from .oracle import (
    brute_force_class_count,
    delta_complex,
    hochster_betti,
    minimalize,
    reduced_homology_dims,
    schreyer_resolution,
    schreyer_step,
)
from .poly import division_normal_form
from .resolution import (
    BettiTable,
    FreeResolution,
    betti_table,
    buchberger_check,
    build_resolution,
    build_resolutions,
    format_resolution,
    groebner_basis,
    hilbert_check,
    initial_ideal,
    verify_resolution,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "ConnectedFlag",
    "FreeResolution",
    "PicClass",
    "PointedGraph",
    "PrimeField",
    "RationalField",
    "acyclic_orientations_unique_source",
    "betti_table",
    "bfs_term_order",
    "brute_force_class_count",
    "buchberger_check",
    "build_graph",
    "build_resolution",
    "build_resolutions",
    "delta_complex",
    "dhar_burn",
    "division_normal_form",
    "enumerate_all_connected_flags",
    "enumerate_minimal_flags",
    "flag_divisor",
    "flag_orientation",
    "flags_equivalent",
    "format_resolution",
    "get_field",
    "groebner_basis",
    "hilbert_check",
    "hochster_betti",
    "incidence_sign",
    "initial_ideal",
    "is_q_reduced",
    "linear_system",
    "linearly_equivalent",
    "maximal_reduced_divisors",
    "merge_sets",
    "minimalize",
    "pic_class",
    "q_reduce",
    "reduced_homology_dims",
    "schreyer_resolution",
    "schreyer_step",
    "spanning_tree_count",
    "theta",
    "validate_flag",
    "verify_resolution",
]
