import json
import math
from fractions import Fraction as F

import pytest

from bmink.exact2d import (ConvexPolygon, EqualityTag, GeometryError, Point2,
                           multi_boundary_sum_volume, scale, translate)
from bmink.generators import gen_connected_boundary_set, trial_rng
from bmink.inequalities import (InequalityReport, check_cor_multi,
                                check_lemma_pbm, check_rn, check_thm_av,
                                check_thm_bbm, left_sum, rn_value)
from bmink.voxel import GridError, ShapeSpec, rasterize

SQUARE = ConvexPolygon.box((-1, -1), (1, 1))
HALF = ConvexPolygon.box((F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
TRI = ConvexPolygon([(0, 0), (1, 0), (0, 1)])


# -- the verdict a report derives from its sides ---------------------------------

def report(lhs, rhs, tolerance=0.0):
    return InequalityReport(theorem_id="thm-av", engine="exact", lhs=lhs,
                            rhs=rhs, tolerance=tolerance)


def test_exact_sides_give_equality_only_when_equal():
    same = report(F(9, 4), F(9, 4))
    assert same.slack == 0 and type(same.slack) is F and same.equality
    tiny = F(1, 10 ** 30)  # far below any float tolerance's resolution
    above = report(F(9, 4) + tiny, F(9, 4))
    below = report(F(9, 4), F(9, 4) + tiny)
    assert above.slack == tiny and not above.equality and not above.violation
    assert below.slack == -tiny and not below.equality and below.violation


def test_float_sides_give_equality_within_the_tolerance():
    # Dyadic values, so every difference is exact.
    inside = report(1.0, 1.25, tolerance=0.5)
    assert inside.slack == -0.25 and inside.equality and not inside.violation
    outside = report(2.0, 1.25, tolerance=0.5)
    assert outside.slack == 0.75 and not outside.equality
    assert not outside.violation


def test_a_violation_lies_strictly_beyond_minus_the_tolerance():
    edge = report(0.75, 1.25, tolerance=0.5)
    assert edge.slack == -0.5 and edge.equality and not edge.violation
    beyond = report(0.5, 1.25, tolerance=0.5)
    assert beyond.slack == -0.75 and not beyond.equality and beyond.violation


@pytest.mark.parametrize("lhs, rhs, tolerance", [
    (F(5, 2), F(9, 4), 0.0), (F(9, 4), F(9, 4), 0.0), (F(2), F(9, 4), 0.0),
    (1.5, 1.25, 0.0), (1.25, 1.25, 0.0), (1.0, 1.25, 0.0),
    (1.5, 1.25, -0.0), (1.25, 1.25, -0.0), (1.0, 1.25, -0.0),
    (1.5, 1.25, 0.25), (1.0, 1.25, 0.25), (0.75, 1.25, 0.25),
    (2.0, 1.25, 0.25),
    (math.nan, 1.25, 0.0), (math.nan, 1.25, 0.25),
    (7, 7, 0.0), (9, 7, 0.0), (5, 7, 0.0),
])
def test_verdicts_are_those_of_the_slack(lhs, rhs, tolerance):
    r = report(lhs, rhs, tolerance)
    assert r.equality is (abs(r.slack) <= tolerance)
    assert r.violation is (r.slack < -tolerance)
    if math.isnan(lhs):
        assert not r.equality and not r.violation


def test_an_exact_slack_is_never_compared_with_a_float(monkeypatch):
    # Fraction's rich comparisons all go through _richcmp; a zero
    # tolerance is compared as the int 0.
    others = []
    richcmp = F._richcmp

    def spy(self, other, op):
        others.append(type(other))
        return richcmp(self, other, op)

    monkeypatch.setattr(F, "_richcmp", spy)
    for lhs in (F(5, 2), F(9, 4), F(2)):
        r = report(lhs, F(9, 4))
        assert (r.equality, r.violation) == (lhs == F(9, 4), lhs < F(9, 4))
    assert others and float not in others


def test_integer_sides_keep_an_integer_slack():
    # eq-4.2 compares two pair counts; its line shows the slack as 0.
    pairs = InequalityReport(theorem_id="eq-4.2", engine="voxel", lhs=7, rhs=7)
    assert pairs.slack == 0 and type(pairs.slack) is int and pairs.equality
    line = pairs.line()
    assert '"slack":0,' in line and '"equality":true,' in line


def test_a_report_takes_no_verdict():
    with pytest.raises(TypeError):
        InequalityReport(theorem_id="rn", engine="float", lhs=1.0, rhs=1.0,
                         slack=0.0)
    with pytest.raises(TypeError):
        InequalityReport(theorem_id="rn", engine="float", lhs=1.0, rhs=1.0,
                         equality=True)


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
    k, _ = gen_connected_boundary_set(rng, 2, 1 / 32)
    t, _ = gen_connected_boundary_set(rng, 2, 1 / 32)
    r = check_thm_av(k, t)
    assert r.slack >= -r.tolerance
    assert r.equality_class is None


def test_voxel_thm_av_takes_its_root_from_math_sqrt():
    # For boxes of 7 x 31 and 5 x 31 cells at h = 1/16, the float power
    # 1/2 of the volume product misses the correctly rounded square root
    # in the last bit, so the rhs must be math.sqrt's, bit for bit.
    h = 1 / 16
    k = rasterize(ShapeSpec.box((0, 0), (7 * h, 31 * h)), h)
    t = rasterize(ShapeSpec.box((0, 0), (5 * h, 31 * h)), h)
    assert (k.count, t.count) == (7 * 31, 5 * 31)
    r = check_thm_av(k, t)
    product = r.details["vol_k"] * r.details["vol_t"]
    assert product ** 0.5 != math.sqrt(product)
    assert r.rhs == math.sqrt(product)


# -- multi-body bound --------------------------------------------------------------

def test_cor_multi_translates_equality():
    bodies = [SQUARE, translate(SQUARE, Point2(2, 3)), translate(SQUARE, Point2(-1, 4))]
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
    grids = [gen_connected_boundary_set(rng, 2, 1 / 16)[0]
             for _ in range(3)]
    r = check_cor_multi(grids)
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
    r = check_thm_bbm(TRI, translate(scale(TRI, 2), Point2(1, 1)), F(1, 3))
    assert r.slack > 0 and not r.equality


def test_thm_bbm_symmetric_under_role_swap():
    lam = F(1, 3)
    a = check_thm_bbm(SQUARE, TRI, lam)
    b = check_thm_bbm(TRI, SQUARE, 1 - lam)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_thm_bbm_voxel_engine():
    k = ShapeSpec.box((-1, -1), (1, 1))
    t = ShapeSpec.ball((0, 0), 0.75)
    h = 1 / 32
    r = check_thm_bbm((rasterize(k, h), k), (rasterize(t, h), t), F(1, 4))
    assert r.slack >= -r.tolerance
    with pytest.raises(GridError):
        check_thm_bbm((rasterize(k, h), k), (rasterize(t, h / 2), t),
                      F(1, 4))


def test_thm_bbm_lambda_validated():
    with pytest.raises(GeometryError):
        check_thm_bbm(SQUARE, HALF, F(5, 4))


@pytest.mark.parametrize("theorem", ["thm-bbm", "cor-multi"])
def test_exact_sides_on_ints_match_their_fraction_formulas(theorem):
    # check_thm_bbm takes (1 - |1 - 2l|^2)^2 as (4p(q - p))^2 / q^4 for
    # l = p/q, and check_cor_multi builds its area product and m-th power
    # on ints; the Fraction formulas they replaced stay the oracle.
    from bmink.campaign import CampaignConfig, _run_trial

    config = CampaignConfig(theorem=theorem, trials=60, seed=3, bodies=4,
                            plant_rate=0.3)
    for k in range(config.trials):
        report, = _run_trial(config, k)
        bodies = report.shapes
        areas = F(1)
        for b in bodies:
            areas *= b.area
        if theorem == "thm-bbm":
            lam = report.lam
            assert report.rhs == areas * (1 - abs(1 - 2 * lam) ** 2) ** 2
        else:
            m = len(bodies)
            side = multi_boundary_sum_volume(bodies) / F(m) ** 2
            assert report.rhs == areas and report.lhs == side ** m


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


def test_left_sum_rounds_once_per_term_from_the_left():
    # sum() compensates its rounding since Python 3.12 and would give 1.0
    # and 0.6 here; lemma-pbm bytes must not depend on the Python version.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 != 0.6
    assert left_sum([]) == 0.0 and left_sum((2.5,)) == 2.5


def test_lemma_pbm_trial_rounds_as_before_python_3_12():
    # Trial 39 of `bmink verify lemma-pbm` is the first whose rhs differs
    # when its sums are compensated (1.8663498462496422).
    from bmink.campaign import CampaignConfig, _run_trial

    report, = _run_trial(CampaignConfig(theorem="lemma-pbm"), 39)
    assert report.rhs == 1.866349846249642


# -- report serialization -------------------------------------------------------------------

def test_report_json_round_values():
    r = check_thm_av(SQUARE, HALF)
    d = json.loads(r.line())
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
