import io
from fractions import Fraction as F

import numpy as np
import pytest

from bmink import campaign, voxel
from bmink.campaign import CampaignConfig, _run_trial, run_campaign
from bmink.exact2d import ConvexPolygon, scale
from bmink.generators import gen_decomposition_pair, trial_rng
from bmink.inequalities import check_thm_4_2, shrinking_pair_demo
from bmink.voxel import (GridError, ShapeSpec, boundary, dilate, erode_open,
                         rasterize)

from test_voxel_oracle import is_subset, restricted_sum

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
    _, pairs, roots = check_thm_4_2(k, t)
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
        k, _, t, _ = gen_decomposition_pair(rng, 2, 1 / 16)
        _, pairs, roots = check_thm_4_2(k, t)
        assert pairs.slack >= 0  # counting bound is cell-exact
        assert not roots.violation


def test_theta_bounds_requires_volume_order():
    k, t = fixture_pair()
    with pytest.raises(GridError):
        check_thm_4_2(t, k)


def test_one_pass_per_voxel_trial(monkeypatch):
    # One voxel thm-4.2 trial builds bK once and bT never, and neither
    # convolves nor scatters pairs: T is a box, so bK + bT (as bK + T) and
    # the open erosion by T both take the box runs, and |bT| is read from
    # T's sides.  A boundary is built by the first boundary() call on a
    # body, the connectivity check's; later calls return the cached
    # GridSet.  Trial 0 of the 3D campaign draws a K narrower than T on
    # one axis, whose erosion is empty without any kernel, so the 3D case
    # is trial 1.
    calls = {}
    originals = {name: getattr(voxel, name)
                 for name in ("_convolve", "_pair_sums", "boundary")}

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    def counted_boundary(a):
        calls["boundary builds"] += a._boundary is None and not a.is_empty
        return originals["boundary"](a)

    wrappers = {"_convolve": counted("_convolve"),
                "_pair_sums": counted("_pair_sums"),
                "boundary": counted_boundary}
    for name, wrapper in wrappers.items():
        monkeypatch.setattr(voxel, name, wrapper)
    for dim, trial in (2, 0), (3, 1):
        calls.update({"_convolve": 0, "_pair_sums": 0, "boundary builds": 0})
        config = CampaignConfig(theorem="thm-4.2", engine="voxel", dim=dim,
                                h=1 / 16, seed=5)
        reports = _run_trial(config, trial)
        assert [r.theorem_id for r in reports] == [
            "thm-4.2", "eq-4.2", "eq-4.3"]
        assert calls == {"_convolve": 0, "_pair_sums": 0,
                         "boundary builds": 1}


@pytest.mark.parametrize("dim,h,trials", [(2, 1 / 32, 20), (3, 1 / 16, 8)])
def test_voxel_thm_4_2_campaign_needs_no_fft_or_pairs(monkeypatch, dim, h,
                                                     trials):
    # With _convolve and _pair_sums unable to run, a voxel thm-4.2
    # campaign writes the same bytes.  Forked workers would run the
    # unpatched kernels, so the campaign runs inline.
    monkeypatch.setattr(campaign, "_workers", lambda: 1)
    config = CampaignConfig(theorem="thm-4.2", engine="voxel", dim=dim, h=h,
                            trials=trials, seed=11)
    expected = io.StringIO()
    run_campaign(config, out=expected)

    def unavailable(*args):
        raise AssertionError("a thm-4.2 trial must take the box runs")

    monkeypatch.setattr(voxel, "_convolve", unavailable)
    monkeypatch.setattr(voxel, "_pair_sums", unavailable)
    got = io.StringIO()
    run_campaign(config, out=got)
    assert got.getvalue() == expected.getvalue()
    assert expected.getvalue().count("\n") == 3 * trials


# Trial 0 of the 3D campaign draws a K narrower than T on one axis, whose
# erosion is empty without a transform; trial 1 does not.
@pytest.mark.parametrize("dim,h,trial", [(2, 1 / 16, 0), (3, 1 / 8, 1)])
def test_voxel_trial_erodes_in_the_fit_frame(monkeypatch, dim, h, trial):
    # The open erosion of a voxel thm-4.2 trial's K by a body that is not a
    # box, the trial's box T minus one corner cell, convolves: it
    # transforms its fit window, at most the 5-smooth padding of K's array
    # per axis, not the padded sum frame of K and T.
    k, _, t, _ = gen_decomposition_pair(trial_rng(5, trial), dim, h)
    occ = t.occ.copy()
    occ[(1,) * dim] = False
    t = voxel.GridSet(dim, h, t.origin, occ)
    frames, forward = [], np.fft.rfftn

    def recorded_rfftn(x, s=None, *args, **kwargs):
        frames.append(tuple(s))
        return forward(x, s, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", recorded_rfftn)
    erode_open(k, t)
    assert len(frames) == 2
    for frame in frames:
        assert all(f <= voxel._smooth_length(m)
                   for f, m in zip(frame, k.shape))


@pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 8), (4, 1 / 4)])
def test_voxel_pair_count_is_an_identity(dim, h):
    # Every erosion cell x has x - T inside int K, so the K * T count there
    # is |T|: the admitted pairs are exactly |T| (|K| - |K erosion T|).  The
    # report takes them from that identity; the oracle counts them from the
    # convolution of K with T.
    bodies = [gen_decomposition_pair(trial_rng(5, trial),
                                     dim, h)[::2] for trial in range(30)]
    # Generated 4D pairs all have empty erosions; nested boxes do not.
    nested = (rasterize(ShapeSpec.box((-2,) * dim, (2,) * dim), h),
              rasterize(ShapeSpec.box((-1,) * dim, (1,) * dim), h))
    assert not erode_open(*nested).is_empty
    for k, t in bodies + [nested]:
        pairs = check_thm_4_2(k, t)[1]
        assert pairs.slack == 0 and pairs.equality
        assert pairs.lhs == restricted_sum(k, t, erode_open(k, t))[1]


def test_containment_failure_is_flagged_violation(monkeypatch):
    # The eq-4.2 report carries containment_failed itself, and the campaign
    # counts it as a violation.  Forked workers would run the unpatched
    # kernel, so the campaign runs inline.
    monkeypatch.setattr(campaign, "_workers", lambda: 1)
    monkeypatch.setattr(voxel, "_restricted_sum_contained",
                        lambda k, erosion, bsum: False)
    k, t = fixture_pair()
    _, pairs, _ = check_thm_4_2(k, t)
    assert pairs.flags == ("containment_failed",)
    assert pairs.details["containment_verdict"] is False
    summary = run_campaign(CampaignConfig(theorem="thm-4.2", engine="voxel",
                                          h=1 / 16, trials=2, seed=5))
    assert summary.violations == 2


# -- arithmetic bound ---------------------------------------------------------------

def test_arithmetic_bm_self_pair_exact():
    r, = check_thm_4_2(SQUARE, SQUARE)
    assert r.lhs == 16 and r.rhs == 8
    assert r.slack > 0
    assert r.details["ratio_ok"] is True


def test_arithmetic_bm_shrunk_pair_fails_as_expected():
    r, = check_thm_4_2(SQUARE, scale(SQUARE, F(1, 100)))
    assert r.lhs == F(16, 100)
    assert r.slack < 0
    assert "ratio_condition_violated" in r.flags
    assert r.details["ratio_ok"] is False


def test_arithmetic_bm_voxel_engine():
    k, t = fixture_pair()
    r = check_thm_4_2(k, t)[0]
    assert r.theorem_id == "thm-4.2" and r.engine == "voxel"
    assert r.slack >= -r.tolerance
    assert r.details["ratio_ok"] is False  # ratio 2 exceeds sqrt(2)


def test_shrinking_pair_demo_values():
    d = shrinking_pair_demo(F(1, 100))
    assert d["lhs"] == F(4, 25)            # 0.16
    assert d["rhs"] == 4 + F(4, 10000)     # 4.0004
    assert d["holds"] is False
    assert d["ratio_ok"] is False
