import io
import json
import threading
from fractions import Fraction as F

import pytest

from bmink.campaign import (CampaignConfig, CampaignSummary, _is_violation,
                            run_campaign)
from bmink.exact2d import GeometryError
from bmink.inequalities import InequalityReport


def small_config(**kw):
    base = dict(theorem="thm-av", engine="exact", trials=25, seed=7,
                plant_rate=0.2)
    base.update(kw)
    return CampaignConfig(**base)


def test_campaign_byte_identical_repeat():
    a, b = io.StringIO(), io.StringIO()
    run_campaign(small_config(), out=a)
    run_campaign(small_config(), out=b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().count("\n") == 25


def test_campaign_seed_changes_output():
    a, b = io.StringIO(), io.StringIO()
    run_campaign(small_config(), out=a)
    run_campaign(small_config(seed=8), out=b)
    assert a.getvalue() != b.getvalue()


def test_campaign_summary_contents():
    buf = io.StringIO()
    s = run_campaign(small_config(), out=buf)
    assert s.trials == 25 and s.reports == 25
    assert s.violations == 0 and s.exit_code == 0
    assert s.min_slack is not None and s.min_slack >= 0
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert all(l["theorem_id"] == "thm-av" for l in lines)
    assert all(l["seed"] == 7 for l in lines)
    assert [l["trial"] for l in lines] == list(range(25))


def test_campaign_writes_file(tmp_path):
    path = tmp_path / "out.jsonl"
    cfg = small_config(trials=5, out_path=str(path))
    s = run_campaign(cfg)
    assert s.exit_code == 0
    assert len(path.read_text().splitlines()) == 5


def test_campaign_config_validation():
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="nope").validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", trials=0).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", lam=F(3, 2)).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", engine="exact", dim=3).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="cor-multi", bodies=2).validate()


def test_violation_counting_and_exit_code(monkeypatch):
    # Force a rigged negative-slack report through the pipeline to check the
    # exit-code contract; honest checkers never produce one.
    import bmink.campaign as camp

    def rigged(*args, **kwargs):
        return InequalityReport(theorem_id="thm-av", engine="exact",
                                lhs=F(0), rhs=F(1), slack=F(-1),
                                equality=False, seed=0, trial=kwargs.get("trial"))

    monkeypatch.setattr(camp, "check_thm_av", rigged)
    s = run_campaign(small_config(trials=3, plant_rate=0.0), out=io.StringIO())
    assert s.violations == 3
    assert s.exit_code == 1
    assert len(s.violation_witnesses) == 3


def test_ratio_tagged_failures_are_not_violations():
    report = InequalityReport(theorem_id="thm-4.2", engine="voxel",
                              lhs=0.1, rhs=4.0, slack=-3.9, equality=False,
                              flags=("ratio_condition_violated",),
                              details={"ratio_ok": False})
    assert not _is_violation(report)
    hard = InequalityReport(theorem_id="thm-4.2", engine="voxel",
                            lhs=0.1, rhs=4.0, slack=-3.9, equality=False,
                            details={"ratio_ok": True})
    assert _is_violation(hard)


def test_trials_run_in_order_on_calling_thread(monkeypatch):
    import bmink.campaign as camp

    calls = []
    real = camp.check_thm_av

    def recording(*args, **kwargs):
        calls.append((threading.get_ident(), kwargs["trial"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(camp, "check_thm_av", recording)
    run_campaign(small_config(trials=8), out=io.StringIO())
    assert calls == [(threading.get_ident(), k) for k in range(8)]


def test_lambda_forwarded_to_reports():
    cfg = CampaignConfig(theorem="thm-bbm", engine="exact", trials=4, seed=3,
                         lam=F(1, 4))
    buf = io.StringIO()
    run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert all(l["lambda"] == "1/4" for l in lines)


def test_thm42_voxel_trial_emits_three_reports():
    cfg = CampaignConfig(theorem="thm-4.2", engine="voxel", trials=2, seed=5,
                         h=1 / 16)
    buf = io.StringIO()
    s = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert s.reports == 6
    assert [l["theorem_id"] for l in lines[:3]] == ["thm-4.2", "eq-4.2", "eq-4.3"]


def test_summary_json_shape():
    s = CampaignSummary(theorem="thm-av", engine="exact")
    d = s.to_json_dict()
    assert set(d) == {"theorem", "engine", "trials", "reports", "violations",
                      "violation_witnesses", "equality_hits",
                      "equality_classes", "planted", "min_slack",
                      "wall_time_s"}
