"""Exact covering radii, error distances and deep holes of Reed-Solomon-type
and MDS codes over small odd-characteristic finite fields."""

from .code import (LinearCode, codes_equal, extend_code, export_code_spec,
                   from_matrix, glynn_code, is_mds, min_distance,
                   parse_code_spec, prs_code, rs_code)
from .dist import (CosetRep, DeepHoleReport, RadiusReport, covering_radius,
                   covering_radius_brute, covering_radius_sweep,
                   covering_radius_syndrome, deep_hole_family_prs, deep_holes,
                   error_distance_brute, error_distance_mds,
                   error_distances_brute, error_distances_mds,
                   nested_max_distance,
                   prs_bound_via_rs, reduce_to_coset_rep,
                   reduce_to_coset_reps)
from .gf import FieldCtx, field_create, field_for_size
from .poly import (NEG_INF, Poly, evaluate_word, from_roots, hamming,
                   interpolate, weight)
from .ssp import nearest_codeword_deg_k, ssp_solve, validate_certificate
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "field_create", "field_for_size",
    "Poly", "NEG_INF", "evaluate_word", "interpolate", "from_roots",
    "weight", "hamming",
    "LinearCode", "rs_code", "prs_code", "glynn_code",
    "from_matrix", "extend_code", "min_distance", "is_mds", "codes_equal",
    "export_code_spec", "parse_code_spec",
    "CosetRep", "RadiusReport", "DeepHoleReport",
    "error_distance_brute", "error_distance_mds", "error_distances_brute",
    "error_distances_mds",
    "covering_radius", "covering_radius_syndrome", "covering_radius_sweep",
    "covering_radius_brute", "deep_holes", "deep_hole_family_prs",
    "reduce_to_coset_rep", "reduce_to_coset_reps", "nested_max_distance",
    "prs_bound_via_rs",
    "ssp_solve", "validate_certificate", "nearest_codeword_deg_k",
    "run_verification",
]
