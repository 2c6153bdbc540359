"""Pinned report bytes of small fixed-seed exact campaigns.

Each sha256 below was recorded from the `fractions.Fraction` engine, before
the exact engine moved to integer vertices over one denominator.  The
reports carry exact rationals, so any drift in a computed area, slack,
equality tag or witness changes a byte and fails here.  The campaigns cover
planted translate and homothet pairs (thm-av), random λ = k/16 (thm-bbm),
three bodies (cor-multi) and the arithmetic bound on the exact engine
(thm-4.2).
"""

import hashlib
import io

import pytest

from bmink.campaign import CampaignConfig, run_campaign

PINNED = [
    (dict(theorem="thm-av", trials=60, seed=11, plant_rate=0.1),
     "b3af2726ba4071d8a1e8d7c39777b1d97cabb322b6d83a57e1c1937c8739a215"),
    (dict(theorem="thm-bbm", trials=30, seed=12, plant_rate=0.2),
     "f3f1c26d1fead9d56cad7d6d5578f1b0cdc87db2007467b33c0ee56ced12715d"),
    (dict(theorem="cor-multi", trials=20, seed=13, bodies=3, plant_rate=0.3),
     "e61264f9ac1030bf22c03370a0618bab55965a614953ae624370c7cd5837c90b"),
    (dict(theorem="thm-4.2", trials=30, seed=14),
     "4f3d523e1c92ae101b960cc8868e87419c904c39b1cd8791f634907fef32a874"),
]


@pytest.mark.parametrize("settings,digest", PINNED,
                         ids=[s["theorem"] for s, _ in PINNED])
def test_exact_campaign_report_bytes(settings, digest):
    buf = io.StringIO()
    run_campaign(CampaignConfig(engine="exact", **settings), out=buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
