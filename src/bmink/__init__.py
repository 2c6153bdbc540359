"""Minkowski sums, differences and boundary sums of compact sets.

Exact rational engine for convex polygons in the plane, a voxel engine for
general compact sets in dimensions 2-4, checkers for the boundary-sum
volume inequalities with their equality cases (thm-4.2 with the bounds
eq-4.2 and eq-4.3 of its proof included), and a reproducible campaign
harness with a CLI.

The voxel engine (bmink.voxel, the only module that imports numpy) loads
on first use of one of its names here, so `import bmink` and the exact
and scalar checks never load it.
"""

import importlib

from .exact2d import (ConvexPolygon, EqualityClass, EqualityTag,
                      ErosionResult, GeometryError, Point2,
                      boundary_sum_volume, classify_equality, erode,
                      is_centrally_symmetric, minkowski_sum, partial_sum_area,
                      reflect, scale, translate)
from .serialize import GridError, ShapeSpec
from .inequalities import (InequalityReport, check_cor_multi,
                           check_lemma_pbm, check_rn, check_thm_4_2,
                           check_thm_av, check_thm_bbm, rn_value,
                           shrinking_pair_demo)
from .generators import (gen_connected_boundary_set, gen_convex_polygon,
                         gen_polygon_pair, gen_symmetric_polygon, trial_rng)
from .campaign import CampaignConfig, CampaignSummary, run_campaign
from .render import render_decomposition_svg

__version__ = "0.1.0"

# The names served by the voxel engine.
_LAZY = ("DecompositionReport", "GridExtentError", "GridSet", "boundary",
         "decomposition_check", "dilate", "erode_open",
         "is_boundary_connected", "rasterize", "volume")


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(".voxel", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "ConvexPolygon", "EqualityClass", "EqualityTag", "ErosionResult",
    "GeometryError", "Point2",
    "boundary_sum_volume", "classify_equality", "erode",
    "is_centrally_symmetric", "minkowski_sum", "partial_sum_area",
    "reflect", "scale", "translate",
    "DecompositionReport", "GridError", "GridExtentError", "GridSet",
    "ShapeSpec", "boundary", "decomposition_check", "dilate", "erode_open",
    "is_boundary_connected", "rasterize", "volume",
    "InequalityReport", "check_cor_multi", "check_lemma_pbm", "check_rn",
    "check_thm_av", "check_thm_bbm", "rn_value",
    "check_thm_4_2", "shrinking_pair_demo",
    "gen_connected_boundary_set", "gen_convex_polygon", "gen_polygon_pair",
    "gen_symmetric_polygon", "trial_rng",
    "CampaignConfig", "CampaignSummary", "run_campaign",
    "render_decomposition_svg",
]
