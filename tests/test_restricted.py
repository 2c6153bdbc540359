from fractions import Fraction as F

import pytest

from bmink.exact2d import ConvexPolygon, scale
from bmink.generators import GridGenParams, gen_decomposition_pair, trial_rng
from bmink.restricted import (ThetaSpec, check_arithmetic_bm,
                              check_theta_bounds, restricted_sum,
                              shrinking_pair_demo)
from bmink.voxel import (GridError, ShapeSpec, boundary, dilate, erode_open,
                         is_subset, rasterize)

SQUARE = ConvexPolygon.box((-1, -1), (1, 1))


def fixture_pair(h=1 / 16):
    k = rasterize(ShapeSpec.box((-2, -2), (2, 2)), h)
    t = rasterize(ShapeSpec.box((-1, -1), (1, 1)), h)
    return k, t


# -- restricted sums ------------------------------------------------------------

def test_erosion_complement_containment():
    k, t = fixture_pair()
    r = restricted_sum(k, t, ThetaSpec.erosion_complement(k, t))
    assert r.containment_verdict is True
    assert is_subset(r.sum_set, dilate(boundary(k), boundary(t)))


def test_erosion_complement_monotone_vs_full():
    k, t = fixture_pair()
    part = restricted_sum(k, t, ThetaSpec.erosion_complement(k, t))
    assert part.sum_set.count <= dilate(k, t).count
    assert part.admitted_pairs <= k.count * t.count


def test_empty_erosion_gives_full_theta():
    _, t = fixture_pair()
    r = restricted_sum(t, t, ThetaSpec.erosion_complement(t, t))
    assert r.admitted_pairs == t.count ** 2
    assert r.sum_set == dilate(t, t)


def test_theta_pair_mismatch_rejected():
    k, t = fixture_pair()
    theta = ThetaSpec.erosion_complement(k, t)
    with pytest.raises(GridError):
        restricted_sum(t, k, theta)


def test_admitted_pairs_exact_on_nested_boxes():
    # With the erosion contained in K for every shift, the excluded count is
    # exactly |T| * |erosion|.
    k, t = fixture_pair()
    e = erode_open(k, t)
    r = restricted_sum(k, t, ThetaSpec.erosion_complement(k, t, e))
    assert r.admitted_pairs == k.count * t.count - t.count * e.count


# -- volume bounds ------------------------------------------------------------------

def test_theta_bounds_fixture():
    k, t = fixture_pair()
    pairs, roots = check_theta_bounds(k, t)
    assert not pairs.violation
    assert pairs.theorem_id == "eq-4.2"
    assert pairs.details["containment_verdict"] is True
    assert roots.theorem_id == "eq-4.3"
    assert not roots.violation
    # Continuum-tight case: sqrt(4) = sqrt(16) - sqrt(4).
    assert roots.lhs == pytest.approx(2.0, abs=0.01)


def test_theta_bounds_cell_exact_on_random_pairs():
    for seed in range(10):
        rng = trial_rng(904, seed)
        k, _, t, _ = gen_decomposition_pair(rng, GridGenParams(), 2, 1 / 16)
        pairs, roots = check_theta_bounds(k, t)
        assert pairs.slack >= 0  # counting bound is cell-exact
        assert not roots.violation


def test_theta_bounds_requires_volume_order():
    k, t = fixture_pair()
    with pytest.raises(GridError):
        check_theta_bounds(t, k)


# -- arithmetic bound ---------------------------------------------------------------

def test_arithmetic_bm_self_pair_exact():
    r = check_arithmetic_bm(SQUARE, SQUARE)
    assert r.lhs == 16 and r.rhs == 8
    assert r.slack > 0
    assert r.details["ratio_ok"] is True


def test_arithmetic_bm_shrunk_pair_fails_as_expected():
    r = check_arithmetic_bm(SQUARE, scale(SQUARE, F(1, 100)))
    assert r.lhs == F(16, 100)
    assert r.slack < 0
    assert "ratio_condition_violated" in r.flags
    assert r.details["ratio_ok"] is False


def test_arithmetic_bm_voxel_engine():
    k, t = fixture_pair()
    r = check_arithmetic_bm(k, t, engine="voxel")
    assert r.slack >= -r.tolerance
    assert r.details["ratio_ok"] is False  # ratio 2 exceeds sqrt(2)


def test_shrinking_pair_demo_values():
    d = shrinking_pair_demo(F(1, 100))
    assert d["lhs"] == F(4, 25)            # 0.16
    assert d["rhs"] == 4 + F(4, 10000)     # 4.0004
    assert d["holds"] is False
    assert d["ratio_ok"] is False
