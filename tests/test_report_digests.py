"""Pinned report bytes of small fixed-seed campaigns on both engines.

The exact sha256 digests were recorded from the `fractions.Fraction`
engine, before the exact engine moved to integer vertices over one
denominator.  They were also recorded while the generators drew every
polygon point and planted shift with `random.randint`, and while every
hull ring was walked again by `_canonical_ring`, before the draws moved to
`getrandbits` and the hull built its canonical ring directly; the draws
must leave the streams exactly as `randint` did.  The reports carry exact
rationals, so any drift in a computed area, slack, equality tag or witness
changes a byte and fails here.  The exact campaigns cover planted
translate and homothet pairs (thm-av), random λ = k/16 (thm-bbm), three
bodies (cor-multi) and the arithmetic bound on the exact engine (thm-4.2).

The voxel digests pin thm-4.2 with its restricted-sum bounds eq-4.2 and
eq-4.3 in 2D at h = 1/16 and 3D at h = 1/32.  They were recorded while each
bound still came from its own checker, before the three reports of a trial
shared one pass over the pair, so the float volumes, tolerances, pair
counts and containment flags must match that code to the last bit.

The voxel boundary-sum pins cover thm-av in 2D at h = 1/64 and 3D at
h = 1/16, cor-multi with three bodies and thm-bbm, which re-rasterizes the
scaled shape specs on every trial.  They were recorded while rasterization
still evaluated the specs on a (cells x dim) point matrix, so the open-mesh
rasterizer must reproduce its occupancy cell for cell.

The 3D pins of thm-bbm and cor-multi at h = 1/16 were recorded while
every body was still built from one GridSet per rasterized part, every
kernel output was normalized by its bounding-box projections, and voxel
thm-bbm re-rasterized K and T from their shape specs.  The 3D cor-multi
sums take the FFT path, so the pin covers dilate's output frame there.

The resolution pins cover thm-av in 2D at h = 1/10, 3D at h = 1/7 and 4D
at h = 1/8, and cor-multi in 2D at h = 1/7.  At h = 1/10 and 1/7 the cell
centres are not exact binary fractions.  They were recorded while the body
generator still re-rasterized the whole union spec for every candidate
part and labelled it, before parts were accepted by face contact.

The scalar pins cover lemma-pbm and rn, whose checkers take floats, not
bodies.  They were recorded while every checker still took the report's
seed, trial and shape specs as arguments, before the campaign stamped them
on each report.
"""

import hashlib
import io

import pytest

from bmink.campaign import CampaignConfig, run_campaign

PINNED = [
    (dict(theorem="thm-av", engine="exact", trials=60, seed=11,
          plant_rate=0.1),
     "b3af2726ba4071d8a1e8d7c39777b1d97cabb322b6d83a57e1c1937c8739a215"),
    (dict(theorem="thm-bbm", engine="exact", trials=30, seed=12,
          plant_rate=0.2),
     "f3f1c26d1fead9d56cad7d6d5578f1b0cdc87db2007467b33c0ee56ced12715d"),
    (dict(theorem="cor-multi", engine="exact", trials=20, seed=13, bodies=3,
          plant_rate=0.3),
     "e61264f9ac1030bf22c03370a0618bab55965a614953ae624370c7cd5837c90b"),
    (dict(theorem="thm-4.2", engine="exact", trials=30, seed=14),
     "4f3d523e1c92ae101b960cc8868e87419c904c39b1cd8791f634907fef32a874"),
    (dict(theorem="thm-4.2", engine="voxel", dim=2, h=1 / 16, trials=8,
          seed=21),
     "c23085ed5711f6050f11da79651841947fad22dfaf6b1382b54d4f6b089f021a"),
    (dict(theorem="thm-4.2", engine="voxel", dim=3, h=1 / 32, trials=3,
          seed=22),
     "a84adc12bfe3a92590ac4e601b000fc7b57343a4d7df7a157a3f0fe03414f2ad"),
    (dict(theorem="thm-av", engine="voxel", dim=2, h=1 / 64, trials=12,
          seed=31),
     "e910744a729e99d90aaf1fcab49e11c77211c0af0319e081dde2e3af4f137ec4"),
    (dict(theorem="thm-av", engine="voxel", dim=3, h=1 / 16, trials=4,
          seed=32),
     "15b5e639c1ec4c80e87e3ca6d576e7dbc4ae08ae49f3a4f04f2cc8f80ca7bc96"),
    (dict(theorem="cor-multi", engine="voxel", dim=2, h=1 / 64, trials=5,
          seed=33, bodies=3),
     "494566ae69701bb8d051747c7368915726c95286067199289fe38e098176daa9"),
    (dict(theorem="thm-bbm", engine="voxel", dim=2, h=1 / 64, trials=8,
          seed=34),
     "7d02c0448776d2d937cf5bccaa7dc227a999b3e6ad9bbb2d0397a9f0598bba05"),
    (dict(theorem="thm-bbm", engine="voxel", dim=3, h=1 / 16, trials=4,
          seed=35),
     "779729a9d800761087114cac6414d7dc9bfbd5adec68533f2dc4552d17b1ae13"),
    (dict(theorem="cor-multi", engine="voxel", dim=3, h=1 / 16, trials=3,
          seed=36, bodies=3),
     "335f6c99967521fdf3cdcb15ca772cbcfcffb92e537c5c6892bb1bb8df87a776"),
]
EXACT = [(s, d) for s, d in PINNED if s["engine"] == "exact"]
VOXEL = [(s, d) for s, d in PINNED if s["engine"] == "voxel"]
RESOLUTIONS = [
    (dict(theorem="thm-av", engine="voxel", dim=2, h=1 / 10, trials=12,
          seed=41),
     "f66b4f846886874f4debbbdb4dafa0d3f8cdd7c79a5352e7010cb405ef1adeee"),
    (dict(theorem="thm-av", engine="voxel", dim=3, h=1 / 7, trials=4,
          seed=42),
     "3b7d69bf573a3a6cf3e204002d50944edfc997d6280b491b1a8f38159d7a76ea"),
    (dict(theorem="thm-av", engine="voxel", dim=4, h=1 / 8, trials=3,
          seed=43),
     "e2daa0c6f10a2b6801d0bc58f5b11f6064266a82ab0b3adf89436a2207641fa6"),
    (dict(theorem="cor-multi", engine="voxel", dim=2, h=1 / 7, trials=5,
          seed=44, bodies=3),
     "0b9fa78de138e03de5962a913f1905d7200f6c3560ccd99fe479ebe3ae6dd09e"),
]

SCALAR = [
    (dict(theorem="lemma-pbm", trials=200, seed=15),
     "58b815ee3c707e6ca8d13f9f2f246d7a9aae87e2a4561c26bb7f9758d0d636b8"),
    (dict(theorem="rn", trials=100, seed=16),
     "6ec7d0828426292e21a10a63793595feca7102a7bcf6fe7d47dc754ec934552b"),
]


def _digest(settings: dict) -> str:
    buf = io.StringIO()
    run_campaign(CampaignConfig(**settings), out=buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("settings,digest", EXACT,
                         ids=[s["theorem"] for s, _ in EXACT])
def test_exact_campaign_report_bytes(settings, digest):
    assert _digest(settings) == digest


@pytest.mark.parametrize("settings,digest", VOXEL,
                         ids=[f"{s['theorem']}-{s['dim']}d" for s, _ in VOXEL])
def test_voxel_campaign_report_bytes(settings, digest):
    assert _digest(settings) == digest


@pytest.mark.parametrize(
    "settings,digest", RESOLUTIONS,
    ids=[f"{s['theorem']}-{s['dim']}d-h1/{round(1 / s['h'])}"
         for s, _ in RESOLUTIONS])
def test_voxel_resolution_report_bytes(settings, digest):
    assert _digest(settings) == digest


@pytest.mark.parametrize("settings,digest", SCALAR,
                         ids=[s["theorem"] for s, _ in SCALAR])
def test_scalar_campaign_report_bytes(settings, digest):
    assert _digest(settings) == digest
