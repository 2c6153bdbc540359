"""Acceptance suite: every criterion printed as one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as tests
execute.  Each criterion asserts its stated tolerance and runtime budget.
"""

import io
import json
import time
from fractions import Fraction as F

import conftest

import bmink
from bmink import campaign, generators
from bmink.campaign import CampaignConfig, run_campaign
from bmink.cli import main
from bmink.exact2d import ConvexPolygon, minkowski_sum, scale
from bmink.generators import gen_decomposition_pair, gen_polygon_pair, trial_rng
from bmink.inequalities import check_thm_4_2, check_thm_bbm, rn_value
from bmink.serialize import spec_from_polygon
from bmink.voxel import (ShapeSpec, decomposition_check, dilate, erode_open,
                         rasterize, volume)


def _line(num: int, ok: bool, dt: float, detail: str) -> None:
    # Printed live under -s and repeated in the terminal summary section,
    # so the per-criterion lines show in any run mode.
    status = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:2d}] {status} ({dt:6.1f}s) {detail}"
    print(msg)
    conftest.acceptance_lines.append(msg)


def test_criterion_01_erosion_fixture():
    t0 = time.perf_counter()
    big = ConvexPolygon.box((-2, -2), (2, 2))
    small = ConvexPolygon.box((-1, -1), (1, 1))
    exact = bmink.erode(big, small)
    exact_ok = (not exact.is_empty) and exact.region == small

    h = 1 / 32
    vox = erode_open(rasterize(ShapeSpec.box((-2, -2), (2, 2)), h),
                     rasterize(ShapeSpec.box((-1, -1), (1, 1)), h))
    vox_err = abs(volume(vox) - 4.0)
    dt = time.perf_counter() - t0
    ok = exact_ok and vox_err <= 0.3 and dt < 1.0
    _line(1, ok, dt, f"exact region exact-match={exact_ok}, "
                     f"voxel |vol-4|={vox_err:.4f} <= 0.3")
    assert ok


def test_criterion_02_simplex_remark():
    t0 = time.perf_counter()
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    third = scale(tri, F(1, 3))
    res = bmink.erode(tri, third)
    cls = bmink.classify_equality(third, res.region)
    dt = time.perf_counter() - t0
    ok = (not res.is_empty
          and cls.tag is bmink.EqualityTag.TRANSLATE
          and res.region.area == third.area
          and dt < 1.0)
    _line(2, ok, dt, f"erosion = (1/3)-scaled simplex translated by "
                     f"({cls.translation.x},{cls.translation.y})")
    assert ok


def test_criterion_03_exact_campaign_thm_av():
    t0 = time.perf_counter()
    cfg = CampaignConfig(theorem="thm-av", engine="exact", trials=10_000,
                         seed=20240, plant_rate=0.1)
    buf = io.StringIO()
    summary = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    planted = [l for l in lines if l["details"].get("planted")]
    planted_ok = all(l["equality"]
                     and l["equality_class"]["tag"] != "no_equality"
                     for l in planted)
    classified_ok = all(l["equality_class"]["tag"] != "no_equality"
                        for l in lines if l["equality"])
    dt = time.perf_counter() - t0
    ok = (summary.violations == 0 and planted_ok and classified_ok
          and len(planted) > 0 and dt < 120.0)
    _line(3, ok, dt, f"10^4 exact pairs: violations={summary.violations}, "
                     f"planted={len(planted)} all detected+classified")
    assert ok


def test_criterion_04_voxel_campaign_thm_av(monkeypatch):
    t0 = time.perf_counter()
    cfg2 = CampaignConfig(theorem="thm-av", engine="voxel", trials=1000,
                          seed=301, dim=2, h=1 / 32)
    s2 = run_campaign(cfg2, out=io.StringIO())
    # The 3D bodies are drawn smaller.  Workers forked before the patch
    # would keep the old size, so this campaign runs in this process.
    monkeypatch.setattr(generators, "MAX_SIZE", 0.8)
    monkeypatch.setattr(campaign, "_workers", lambda: 1)
    cfg3 = CampaignConfig(theorem="thm-av", engine="voxel", trials=100,
                          seed=302, dim=3, h=1 / 16)
    s3 = run_campaign(cfg3, out=io.StringIO())
    dt = time.perf_counter() - t0
    ok = s2.violations == 0 and s3.violations == 0 and dt < 600.0
    _line(4, ok, dt, f"10^3 pairs n=2 h=1/32 (viol={s2.violations}, "
                     f"min slack={s2.min_slack['thm-av']:.4f}); 100 pairs n=3 h=1/16 "
                     f"(viol={s3.violations})")
    assert ok


def test_criterion_05_decomposition_campaign():
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        rng = trial_rng(50_000, i)
        k, _, t, _ = gen_decomposition_pair(rng, 2, 1 / 16)
        if not decomposition_check(k, t).all_pass:
            failures += 1
    fig = decomposition_check(rasterize(ShapeSpec.box((-2, -2), (2, 2)), 1 / 16),
                              rasterize(ShapeSpec.ball((0, 0), 1.0), 1 / 16))
    dt = time.perf_counter() - t0
    ok = failures == 0 and fig.all_pass and dt < 300.0
    _line(5, ok, dt, f"10^3 random pairs: {failures} verdict failures; "
                     f"square+disk fixture all_pass={fig.all_pass}")
    assert ok


def test_criterion_06_weighted_product_fixture_and_campaign():
    t0 = time.perf_counter()
    sq = ConvexPolygon.box((-1, -1), (1, 1))
    half = ConvexPolygon.box((F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
    fixture = check_thm_bbm(sq, half, F(1, 4))
    fixture_ok = (fixture.lhs == F(9, 4) and fixture.rhs == F(9, 4)
                  and fixture.equality)
    cfg = CampaignConfig(theorem="thm-bbm", engine="exact", trials=1000,
                         seed=404)
    summary = run_campaign(cfg, out=io.StringIO())
    dt = time.perf_counter() - t0
    ok = fixture_ok and summary.violations == 0 and dt < 60.0
    _line(6, ok, dt, f"fixture lhs=rhs=9/4 exact; 10^3 random (K,T,lambda) "
                     f"trials: violations={summary.violations}")
    assert ok


def test_criterion_07_multi_body_campaign():
    t0 = time.perf_counter()
    cfg = CampaignConfig(theorem="cor-multi", engine="exact", trials=1000,
                         seed=505, bodies=3, plant_rate=0.15)
    buf = io.StringIO()
    summary = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    planted = [l for l in lines if l["details"].get("planted")]
    planted_ok = all(l["equality"] for l in planted)
    dt = time.perf_counter() - t0
    ok = (summary.violations == 0 and planted_ok and len(planted) > 0
          and dt < 120.0)
    _line(7, ok, dt, f"m=3, 10^3 trials: violations={summary.violations}; "
                     f"{len(planted)} planted translate-triples all exact equality")
    assert ok


def test_criterion_08_scale_ratio_function_suite():
    t0 = time.perf_counter()
    lam_grid = [k / 100 for k in range(1, 100)]
    x_grid = [10.0 ** (-2 + 4 * k / 40) for k in range(41)]

    const_ok = all(
        abs(rn_value(2, lam, x) - 16 * lam * lam * (1 - lam) ** 2) <= 1e-9
        for lam in lam_grid for x in x_grid)

    lam_coarse = [k / 20 for k in range(1, 20)]
    strict_ok = True
    for n in (3, 4, 5, 6):
        for lam in lam_coarse:
            base = rn_value(n, lam, 1.0)
            for x in x_grid:
                if abs(x - 1.0) < 1e-3:
                    continue
                if not rn_value(n, lam, x) > base + 1e-12:
                    strict_ok = False

    sym_ok = True
    for n in (2, 3, 4, 5, 6):
        for lam in lam_coarse:
            for x in x_grid:
                v = rn_value(n, lam, x)
                if abs(v - rn_value(n, lam, 1.0 / x)) > 1e-9 * max(1.0, v):
                    sym_ok = False
                if abs(v - rn_value(n, 1.0 - lam, x)) > 1e-9 * max(1.0, v):
                    sym_ok = False

    dt = time.perf_counter() - t0
    ok = const_ok and strict_ok and sym_ok and dt < 10.0
    _line(8, ok, dt, f"n=2 constancy<=1e-9: {const_ok}; strict minimum at 1 "
                     f"for n=3..6: {strict_ok}; x<->1/x and lam<->1-lam "
                     f"symmetries<=1e-9: {sym_ok}")
    assert ok


def test_criterion_09_scalar_inequality_campaign():
    t0 = time.perf_counter()
    cfg = CampaignConfig(theorem="lemma-pbm", trials=10_000, seed=606)
    buf = io.StringIO()
    summary = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    strict = [l for l in lines if l["details"]["strict_expected"]]
    strict_ok = all(l["slack"] > 0 for l in strict)
    dt = time.perf_counter() - t0
    ok = (summary.violations == 0 and strict_ok and len(strict) > 0
          and dt < 60.0)
    _line(9, ok, dt, f"10^4 feasible tuples: violations={summary.violations}; "
                     f"strict margin > 0 on all {len(strict)} eligible tuples")
    assert ok


def test_criterion_10_restricted_sum_suite(capsys):
    t0 = time.perf_counter()
    pair_ok = root_ok = containment_ok = True
    for i in range(200):
        rng = trial_rng(70_000, i)
        k, _, t, _ = gen_decomposition_pair(rng, 2, 1 / 16)
        _, pairs, roots = check_thm_4_2(k, t)
        if pairs.slack < 0:
            pair_ok = False
        if roots.violation:
            root_ok = False
        if pairs.details["containment_verdict"] is not True:
            containment_ok = False

    code = main(["demo", "remark-4.3", "--a", "0.01"])
    out = capsys.readouterr().out
    demo_ok = (code == 0 and "0.16" in out and "4.0004" in out
               and "FAILS, as expected" in out)
    dt = time.perf_counter() - t0
    ok = pair_ok and root_ok and containment_ok and demo_ok and dt < 300.0
    _line(10, ok, dt, f"200 pairs: pair-count bound cell-exact={pair_ok}, "
                      f"root bound in tolerance={root_ok}, containment="
                      f"{containment_ok}; demo prints 0.16 vs 4.0004={demo_ok}")
    assert ok


def test_criterion_11_oracle_convergence(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(generators, "COORD_RANGE", 1)
    monkeypatch.setattr(generators, "SNAP", 8)
    resolutions = (1 / 16, 1 / 32, 1 / 64)
    errors = {h: [] for h in resolutions}
    for i in range(100):
        rng = trial_rng(80_000, i)
        k, t, _ = gen_polygon_pair(rng, 0.0)
        exact = float(minkowski_sum(k, t).area)
        for h in resolutions:
            gk = rasterize(spec_from_polygon(k), h)
            gt = rasterize(spec_from_polygon(t), h)
            errors[h].append(abs(volume(dilate(gk, gt)) - exact))

    def median(vals):
        s = sorted(vals)
        return s[len(s) // 2]

    m16, m32, m64 = (median(errors[h]) for h in resolutions)
    r1 = m32 / m16
    r2 = m64 / m32
    dt = time.perf_counter() - t0
    ok = r1 <= 0.6 and r2 <= 0.6
    _line(11, ok, dt, f"median |voxel-exact| vol(K+T): {m16:.4f} -> {m32:.4f} "
                      f"-> {m64:.4f}; halving ratios {r1:.3f}, {r2:.3f} <= 0.6")
    assert ok


def test_criterion_12_campaign_determinism():
    t0 = time.perf_counter()
    configs = [
        CampaignConfig(theorem="thm-av", engine="exact", trials=50, seed=17,
                       plant_rate=0.2),
        CampaignConfig(theorem="thm-bbm", engine="exact", trials=20, seed=18),
        CampaignConfig(theorem="thm-4.2", engine="voxel", trials=5, seed=19,
                       h=1 / 16),
    ]
    identical = True
    for cfg in configs:
        a, b = io.StringIO(), io.StringIO()
        run_campaign(cfg, out=a)
        run_campaign(cfg, out=b)
        if a.getvalue().encode() != b.getvalue().encode():
            identical = False
    dt = time.perf_counter() - t0
    ok = identical
    _line(12, ok, dt, f"three campaign kinds repeated: byte-identical={identical}")
    assert ok
