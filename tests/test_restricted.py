from fractions import Fraction as F

import pytest

from bmink import restricted, voxel
from bmink.campaign import CampaignConfig, _run_trial, run_campaign
from bmink.exact2d import ConvexPolygon, scale
from bmink.generators import GridGenParams, gen_decomposition_pair, trial_rng
from bmink.restricted import (check_arithmetic_bm, check_thm_4_2_voxel,
                              restricted_sum, shrinking_pair_demo)
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
    sum_set, _ = restricted_sum(k, t, erode_open(k, t))
    assert is_subset(sum_set, dilate(boundary(k), boundary(t)))


def test_erosion_complement_monotone_vs_full():
    k, t = fixture_pair()
    sum_set, admitted = restricted_sum(k, t, erode_open(k, t))
    assert sum_set.count <= dilate(k, t).count
    assert admitted <= k.count * t.count


def test_empty_erosion_gives_full_theta():
    _, t = fixture_pair()
    sum_set, admitted = restricted_sum(t, t, erode_open(t, t))
    assert admitted == t.count ** 2
    assert sum_set == dilate(t, t)


def test_theta_pair_mismatch_rejected():
    # The erosion must live on the grid of K and T.
    k, t = fixture_pair()
    coarse_k, coarse_t = fixture_pair(h=1 / 8)
    with pytest.raises(GridError):
        restricted_sum(k, t, erode_open(coarse_k, coarse_t))


def test_admitted_pairs_exact_on_nested_boxes():
    # With the erosion contained in K for every shift, the excluded count is
    # exactly |T| * |erosion|.
    k, t = fixture_pair()
    e = erode_open(k, t)
    _, admitted = restricted_sum(k, t, e)
    assert admitted == k.count * t.count - t.count * e.count


# -- volume bounds ------------------------------------------------------------------

def test_theta_bounds_fixture():
    k, t = fixture_pair()
    _, pairs, roots = check_thm_4_2_voxel(k, t)
    assert not pairs.violation
    assert pairs.theorem_id == "eq-4.2"
    assert pairs.details["containment_verdict"] is True
    assert "containment_failed" not in pairs.flags
    assert roots.theorem_id == "eq-4.3"
    assert not roots.violation
    # Continuum-tight case: sqrt(4) = sqrt(16) - sqrt(4).
    assert roots.lhs == pytest.approx(2.0, abs=0.01)


def test_theta_bounds_cell_exact_on_random_pairs():
    for seed in range(10):
        rng = trial_rng(904, seed)
        k, _, t, _ = gen_decomposition_pair(rng, GridGenParams(), 2, 1 / 16)
        _, pairs, roots = check_thm_4_2_voxel(k, t)
        assert pairs.slack >= 0  # counting bound is cell-exact
        assert not roots.violation


def test_theta_bounds_requires_volume_order():
    k, t = fixture_pair()
    with pytest.raises(GridError):
        check_thm_4_2_voxel(t, k)


def test_one_pass_per_voxel_trial(monkeypatch):
    # One voxel thm-4.2 trial builds bK and bT once, and makes three kernel
    # calls: the open erosion and the K * T restricted sum convolve, and
    # bK + bT, a sparse boundary sum at this size, scatters pairs.
    calls = {"_convolve": 0, "_pair_sums": 0, "boundary": 0}

    def counted(name):
        original = getattr(voxel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(voxel, name, wrapper)
        if hasattr(restricted, name):
            monkeypatch.setattr(restricted, name, wrapper)
    config = CampaignConfig(theorem="thm-4.2", engine="voxel", h=1 / 16,
                            seed=5)
    reports = _run_trial(config, 0)
    assert [r.theorem_id for r in reports] == ["thm-4.2", "eq-4.2", "eq-4.3"]
    assert calls == {"_convolve": 2, "_pair_sums": 1, "boundary": 2}


@pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 8), (4, 1 / 4)])
def test_voxel_pair_count_is_an_identity(dim, h):
    # Every erosion cell x has x - T inside int K, so the K * T count there
    # is |T|: the admitted pairs are exactly |T| (|K| - |K erosion T|).
    config = CampaignConfig(theorem="thm-4.2", engine="voxel", dim=dim, h=h,
                            seed=5)
    reports = [_run_trial(config, trial)[1] for trial in range(30)]
    # Generated 4D pairs all have empty erosions; nested boxes do not.
    k = rasterize(ShapeSpec.box((-2,) * dim, (2,) * dim), h)
    t = rasterize(ShapeSpec.box((-1,) * dim, (1,) * dim), h)
    nested = check_thm_4_2_voxel(k, t)[1]
    assert nested.details["vol_erosion"] > 0
    for pairs in reports + [nested]:
        assert pairs.slack == 0 and pairs.equality


def test_containment_failure_is_flagged_violation(monkeypatch):
    # The eq-4.2 report carries containment_failed itself, and the campaign
    # counts it as a violation.
    monkeypatch.setattr(restricted, "is_subset", lambda a, b: False)
    k, t = fixture_pair()
    _, pairs, _ = check_thm_4_2_voxel(k, t)
    assert pairs.flags == ("containment_failed",)
    assert pairs.details["containment_verdict"] is False
    summary = run_campaign(CampaignConfig(theorem="thm-4.2", engine="voxel",
                                          h=1 / 16, trials=2, seed=5))
    assert summary.violations == 2


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
    r = check_thm_4_2_voxel(k, t)[0]
    assert r.theorem_id == "thm-4.2" and r.engine == "voxel"
    assert r.slack >= -r.tolerance
    assert r.details["ratio_ok"] is False  # ratio 2 exceeds sqrt(2)


def test_shrinking_pair_demo_values():
    d = shrinking_pair_demo(F(1, 100))
    assert d["lhs"] == F(4, 25)            # 0.16
    assert d["rhs"] == 4 + F(4, 10000)     # 4.0004
    assert d["holds"] is False
    assert d["ratio_ok"] is False
