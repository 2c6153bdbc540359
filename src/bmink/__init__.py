"""Minkowski sums, differences and boundary sums of compact sets.

Exact rational engine for convex polygons in the plane, a voxel engine for
general compact sets in dimensions 2-4, checkers for the boundary-sum
volume inequalities with their equality cases, restricted sums, and a
reproducible campaign harness with a CLI.
"""

from .exact2d import (ConvexPolygon, EngineInconsistencyError, EqualityClass,
                      EqualityTag, ErosionResult, GeometryError, Point2,
                      area, boundary_sum_volume, classify_equality, erode,
                      is_centrally_symmetric, minkowski_sum, partial_sum_area,
                      point, reflect, scale, support_value, translate, width)
from .voxel import (DecompositionReport, GridError, GridExtentError, GridSet,
                    ShapeSpec, boundary, check_lemma_bc, decomposition_check,
                    dilate, erode_open, interior, is_boundary_connected,
                    rasterize, volume)
from .inequalities import (InequalityReport, check_cor_multi, check_lemma_pbm,
                           check_rn, check_thm_av, check_thm_bbm, rn_value)
from .restricted import (RestrictedSumResult, ThetaSpec, check_arithmetic_bm,
                         check_theta_bounds, restricted_sum,
                         shrinking_pair_demo)
from .generators import (GridGenParams, PolygonGenParams,
                         gen_connected_boundary_set, gen_convex_polygon,
                         gen_polygon_pair, gen_symmetric_polygon, trial_rng)
from .campaign import CampaignConfig, CampaignSummary, run_campaign
from .render import render_decomposition_svg

__version__ = "0.1.0"

__all__ = [
    "ConvexPolygon", "EngineInconsistencyError", "EqualityClass",
    "EqualityTag", "ErosionResult", "GeometryError", "Point2", "area",
    "boundary_sum_volume", "classify_equality", "erode",
    "is_centrally_symmetric", "minkowski_sum", "partial_sum_area", "point",
    "reflect", "scale", "support_value", "translate", "width",
    "DecompositionReport", "GridError", "GridExtentError", "GridSet",
    "ShapeSpec", "boundary", "check_lemma_bc", "decomposition_check",
    "dilate", "erode_open", "interior", "is_boundary_connected", "rasterize",
    "volume",
    "InequalityReport", "check_cor_multi", "check_lemma_pbm", "check_rn",
    "check_thm_av", "check_thm_bbm", "rn_value",
    "RestrictedSumResult", "ThetaSpec", "check_arithmetic_bm",
    "check_theta_bounds", "restricted_sum", "shrinking_pair_demo",
    "GridGenParams", "PolygonGenParams", "gen_connected_boundary_set",
    "gen_convex_polygon", "gen_polygon_pair", "gen_symmetric_polygon",
    "trial_rng",
    "CampaignConfig", "CampaignSummary", "run_campaign",
    "render_decomposition_svg",
]
