from fractions import Fraction as F

import pytest

from bmink.exact2d import (ConvexPolygon, EqualityTag, GeometryError, point,
                           scale, translate)
from bmink.generators import GridGenParams, gen_connected_boundary_set, trial_rng
from bmink.inequalities import (check_cor_multi, check_lemma_pbm, check_rn,
                                check_thm_av, check_thm_bbm,
                                multi_boundary_sum_volume, rn_value)
from bmink.voxel import ShapeSpec

SQUARE = ConvexPolygon.box((-1, -1), (1, 1))
HALF = ConvexPolygon.box((F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
TRI = ConvexPolygon([(0, 0), (1, 0), (0, 1)])


# -- average-of-boundaries bound ------------------------------------------------

def test_thm_av_equality_fixture():
    r = check_thm_av(SQUARE, HALF)
    assert r.lhs == 4 and r.rhs == 4  # squared comparable form
    assert r.details["boundary_sum_volume"] == 2
    assert r.equality
    assert r.equality_class.tag is EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D


def test_thm_av_triangle_strict():
    r = check_thm_av(TRI, scale(TRI, F(1, 3)))
    assert r.lhs == F(25, 576) and r.rhs == F(1, 36)
    assert r.slack > 0 and not r.equality
    assert r.equality_class.tag is EqualityTag.NO_EQUALITY


def test_thm_av_self_pair():
    r = check_thm_av(TRI, TRI)
    assert r.equality
    assert r.equality_class.tag is EqualityTag.TRANSLATE
    assert r.details["boundary_sum_volume"] == TRI.area


def test_thm_av_voxel_engine():
    rng = trial_rng(77, 0)
    k, _ = gen_connected_boundary_set(rng, GridGenParams(), 2, 1 / 32)
    t, _ = gen_connected_boundary_set(rng, GridGenParams(), 2, 1 / 32)
    r = check_thm_av(k, t, engine="voxel")
    assert r.slack >= -r.tolerance
    assert r.equality_class is None


# -- multi-body bound --------------------------------------------------------------

def test_cor_multi_translates_equality():
    bodies = [SQUARE, translate(SQUARE, point(2, 3)), translate(SQUARE, point(-1, 4))]
    r = check_cor_multi(bodies)
    assert r.equality
    assert r.details["scaled_boundary_sum_volume"] == 4
    assert r.equality_class.tag is EqualityTag.TRANSLATE


def test_cor_multi_strict_for_non_translates():
    big = ConvexPolygon.box((-3, -3), (3, 3))
    r = check_cor_multi([SQUARE, SQUARE, big])
    assert r.slack > 0 and not r.equality
    # Completion keeps the boundary on the largest body:
    # area(big + 2*square) - area(big erode 2*square) = 100 - 4 = 96.
    assert multi_boundary_sum_volume([SQUARE, SQUARE, big]) == 96


def test_cor_multi_needs_three_bodies():
    with pytest.raises(GeometryError):
        check_cor_multi([SQUARE, SQUARE])


def test_cor_multi_voxel_engine():
    rng = trial_rng(78, 0)
    grids = [gen_connected_boundary_set(rng, GridGenParams(), 2, 1 / 16)[0]
             for _ in range(3)]
    r = check_cor_multi(grids, engine="voxel")
    assert r.slack >= -r.tolerance


# -- weighted product bound -----------------------------------------------------------

def test_thm_bbm_equality_fixture():
    r = check_thm_bbm(SQUARE, HALF, F(1, 4))
    assert r.details["factor_kt"] == F(3, 2)
    assert r.details["factor_tk"] == F(3, 2)
    assert r.lhs == F(9, 4) and r.rhs == F(9, 4)
    assert r.equality and not r.flags


def test_thm_bbm_half_reduces_to_av():
    r = check_thm_bbm(TRI, SQUARE, F(1, 2))
    av = check_thm_av(TRI, SQUARE)
    assert r.lhs == av.lhs and r.rhs == av.rhs


def test_thm_bbm_strict_for_non_symmetric():
    r = check_thm_bbm(TRI, translate(scale(TRI, 2), point(1, 1)), F(1, 3))
    assert r.slack > 0 and not r.equality


def test_thm_bbm_symmetric_under_role_swap():
    lam = F(1, 3)
    a = check_thm_bbm(SQUARE, TRI, lam)
    b = check_thm_bbm(TRI, SQUARE, 1 - lam)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_thm_bbm_voxel_engine():
    k = ShapeSpec.box((-1, -1), (1, 1))
    t = ShapeSpec.ball((0, 0), 0.75)
    r = check_thm_bbm(k, t, F(1, 4), engine="voxel", h=1 / 32)
    assert r.slack >= -r.tolerance


def test_thm_bbm_lambda_validated():
    with pytest.raises(GeometryError):
        check_thm_bbm(SQUARE, HALF, F(5, 4))


# -- scale-ratio function --------------------------------------------------------------

def test_rn_constant_in_dimension_two():
    for x in (0.1, 1.0, 7.0):
        assert abs(rn_value(2, 0.25, x) - 9 / 16) < 1e-9


def test_rn_at_one_matches_weighted_constant():
    for n in (2, 3, 4, 6):
        for lam in (0.1, 0.3, 0.5):
            expect = (1 - abs(1 - 2 * lam) ** n) ** 2
            assert abs(rn_value(n, lam, 1.0) - expect) < 1e-12


def test_rn_strict_above_base_for_higher_dims():
    assert rn_value(3, 1 / 3, 2.0) > rn_value(3, 1 / 3, 1.0)


def test_rn_rejects_bad_input():
    with pytest.raises(GeometryError):
        rn_value(3, 0.5, 0.0)
    with pytest.raises(GeometryError):
        rn_value(1, 0.5, 1.0)


def test_check_rn_report():
    r = check_rn(4, 0.3, 3.7)
    assert r.slack > 0
    assert check_rn(2, 0.3, 3.7).equality


# -- auxiliary scalar inequality ----------------------------------------------------------

def test_lemma_pbm_equality_boundary_case():
    r = check_lemma_pbm([1.0, 1.0])
    assert r.equality and r.lhs == r.rhs == 1.0


def test_lemma_pbm_strict_case():
    r = check_lemma_pbm([0.5, 0.5, 1.0])
    assert abs(r.lhs - 2 / 3) < 1e-12
    assert abs(r.rhs - 0.25 ** (1 / 3)) < 1e-9
    assert r.slack > 0
    assert r.details["strict_expected"]


def test_lemma_pbm_zero_factor():
    r = check_lemma_pbm([0.0, 0.5, 1.0])
    assert r.rhs == 0.0 and r.slack >= 0


def test_lemma_pbm_rejects_infeasible():
    with pytest.raises(GeometryError):
        check_lemma_pbm([2.0, 2.0, 1.0])
    with pytest.raises(GeometryError):
        check_lemma_pbm([-1.0, 2.0])


# -- report serialization -------------------------------------------------------------------

def test_report_json_round_values():
    r = check_thm_av(SQUARE, HALF)
    d = r.to_json_dict()
    assert d["v"] == 1
    assert d["theorem_id"] == "thm-av"
    assert d["lhs"] == "4" and d["rhs"] == "4"
    assert d["equality"] is True
    assert d["equality_class"]["tag"] == "homothetic_centrally_symmetric_2d"
    assert d["violation"] is False


def test_report_flags_equality_outside_characterization():
    # A non-symmetric self pair forced through an asymmetric-lambda check hits
    # equality only when lambda = 1/2; with another lambda slack is positive,
    # so no flag is raised for honest strict pairs.
    r = check_thm_bbm(TRI, TRI, F(1, 3))
    assert "equality_outside_characterization" not in r.flags
