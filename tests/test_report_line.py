"""The report line writer against the dict path it replaced.

InequalityReport.line() writes a report's JSON line in one pass.  Before
it, a line was dumps_canonical of the report's dict, which the function
kept here as ref_report_dict built.  That path stays as the oracle: for
every report of every campaign, and for hand-built reports holding the
values a campaign rarely or never writes.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from bmink.campaign import _TRIALS, CampaignConfig, _run_trial
from bmink.exact2d import EqualityClass, EqualityTag, Point2
from bmink.generators import PLANT_HOMOTHETIC_SYMMETRIC, PLANT_TRANSLATE
from bmink.inequalities import EXACT, InequalityReport
from bmink.serialize import (REPORT_VERSION, dumps_canonical, encode_number,
                             shapespec_to_json)


def ref_report_dict(report: InequalityReport) -> dict:
    """The report's JSON object as the dict path built it."""
    eq_class = None
    if report.equality_class is not None:
        eq_class = {"tag": report.equality_class.tag.value}
        if report.equality_class.translation is not None:
            t = report.equality_class.translation
            eq_class["translation"] = [encode_number(t.x), encode_number(t.y)]
        if report.equality_class.ratio is not None:
            eq_class["ratio"] = encode_number(report.equality_class.ratio)
    return {
        "v": REPORT_VERSION,
        "theorem_id": report.theorem_id,
        "engine": report.engine,
        "lhs": encode_number(report.lhs),
        "rhs": encode_number(report.rhs),
        "slack": encode_number(report.slack),
        "equality": report.equality,
        "equality_class": eq_class,
        "shapes": [shapespec_to_json(s) for s in report.shapes],
        "lambda": None if report.lam is None else encode_number(report.lam),
        "seed": report.seed,
        "trial": report.trial,
        "tolerance": report.tolerance,
        "violation": report.violation,
        "flags": list(report.flags),
        # A details value: Fractions become "p/q" strings, anything else
        # passes through.
        "details": {k: str(v) if isinstance(v, F) else v
                    for k, v in sorted(report.details.items())},
    }


def ref_line(report: InequalityReport) -> str:
    return dumps_canonical(ref_report_dict(report))


# Small campaigns of every (theorem, engine); the exact ones that can plant
# an equality case plant at half their trials.
_PLANTING = {"thm-av", "thm-bbm", "cor-multi"}


@pytest.mark.parametrize("key", sorted(_TRIALS), ids="-".join)
def test_every_campaign_line_matches_the_dict_path(key):
    theorem, engine = key
    exact = engine == EXACT
    config = CampaignConfig(
        theorem=theorem, engine=engine, seed=5, h=1 / 16,
        trials=40 if exact else 3,
        plant_rate=0.5 if exact and theorem in _PLANTING else 0.0)
    config.validate()
    planted = set()
    for k in range(config.trials):
        for report in _run_trial(config, k):
            assert report.line() == ref_line(report)
            planted.add(report.details.get("planted"))
    if exact and theorem in ("thm-av", "thm-bbm"):
        assert {PLANT_TRANSLATE, PLANT_HOMOTHETIC_SYMMETRIC, None} <= planted
    if exact and theorem == "cor-multi":
        assert {PLANT_TRANSLATE, None} <= planted


def report(lhs=F(1, 2), rhs=F(1, 3), **fields) -> InequalityReport:
    return InequalityReport(theorem_id="thm-av", engine="exact", lhs=lhs,
                            rhs=rhs, **fields)


@pytest.mark.parametrize("lhs", [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, True, 0, -3,
    2 ** 70, F(-7, 3), F(4)], ids=repr)
def test_plain_sides_match_the_dict_path(lhs):
    rhs = F(0) if type(lhs) is F else 0.0
    r = report(lhs, rhs, seed=None, trial=None)
    assert r.line() == ref_line(r)


@pytest.mark.parametrize("lhs", [np.float64(0.1), np.float64(-np.inf),
                                 np.int64(-5), np.int32(7)], ids=repr)
def test_numpy_sides_match_the_dict_path(lhs):
    r = report(lhs, 0.0)
    # A numpy side still gives plain bool verdicts, which both paths write.
    assert type(r.equality) is bool and type(r.violation) is bool
    assert r.line() == ref_line(r)
    assert json.loads(r.line())["lhs"] == encode_number(lhs)


def test_a_class_witness_and_every_optional_field_match_the_dict_path():
    witness = EqualityClass(EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D,
                            translation=Point2(F(-1, 3), F(2)),
                            ratio=F(5, 7))
    r = report(equality_class=witness, lam=F(3, 16), seed=2 ** 64, trial=0,
               tolerance=1e-9, flags=('say "q"', "back\\slash", "ünïcode"),
               details={"z": F(1, 2), "a": 'say "q"', "m": "back\\slash",
                        "é": "ü☃", "n": None, "b": True, "i": 3,
                        "f": -0.0, "np": np.float64(2.5), "list": [1, "x"]})
    assert r.line() == ref_line(r)
    line = json.loads(r.line())
    assert line["equality_class"] == {
        "ratio": "5/7", "tag": "homothetic_centrally_symmetric_2d",
        "translation": ["-1/3", "2"]}
    assert list(line["details"]) == sorted(r.details)
    for eq_class in (EqualityClass(EqualityTag.TRANSLATE, ratio=F(1)),
                     EqualityClass(EqualityTag.TRANSLATE,
                                   translation=Point2(F(0), F(1, 4))),
                     EqualityClass(EqualityTag.NO_EQUALITY)):
        r = report(equality_class=eq_class)
        assert r.line() == ref_line(r)


@pytest.mark.parametrize("lam", [F(1, 2), np.float64(0.25), 0.75, 1],
                         ids=repr)
def test_lambda_matches_the_dict_path(lam):
    r = report(lam=lam)
    assert r.line() == ref_line(r)

