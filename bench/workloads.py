"""The benchmark's workloads: which campaigns each one feeds to bmink.

A workload is an endless sequence of chunks.  Chunk ``i`` is a fixed list
of campaign configurations whose campaign seeds derive from the workload
name, the benchmark seed and ``i``.  A run measures by running chunks
0, 1, 2, ... until its time is up, so the same seed always gives the same
inputs and a longer run only adds chunks.  The values here are the same
plain settings ``bmink verify`` accepts; generator parameters stay at the
CLI defaults.

This module imports nothing from bmink, so the orchestrator can use it
without paying for the package import.
"""

from __future__ import annotations

import random

# Each campaign is a dict of CampaignConfig fields; `h` is a rational
# string, as on the command line (`--res 1/128`).
#
# The trial counts follow the `bmink verify` campaigns documented in the
# project README (thm-av x10000, thm-bbm x1000, cor-multi x1000,
# lemma-pbm x10000, rn x500, thm-4.2 voxel 2D x200, thm-av voxel 3D x100).
# A chunk keeps their proportions, scaled down by one factor per workload
# so that a chunk takes about a second and every campaign still has at
# least as many trials as a 2-CPU machine has workers.  Engines,
# resolutions, plant rates and lambda are those the workloads are defined
# by; they are not part of the documented mix.

WORKLOADS: dict[str, dict] = {
    "exact-mix": {
        "why": ("exact engine: Fraction-heavy hull, Minkowski sum and "
                "erosion; planted equality cases and random lambda=k/16"),
        # thm-av : thm-bbm : cor-multi = 10000 : 1000 : 1000, scaled 1/100
        "campaigns": (
            {"theorem": "thm-av", "engine": "exact", "trials": 100,
             "plant_rate": 0.1},
            {"theorem": "thm-bbm", "engine": "exact", "trials": 10},
            {"theorem": "cor-multi", "engine": "exact", "trials": 10,
             "bodies": 3, "plant_rate": 0.15},
        ),
    },
    "voxel-dense": {
        "why": ("voxel thm-4.2 on decomposition pairs: dilation of full "
                "bodies, open erosion and restricted pair counting"),
        # 2D : 3D = 200 : 100 as in the documented voxel runs, scaled 1/50
        "campaigns": (
            {"theorem": "thm-4.2", "engine": "voxel", "trials": 4,
             "dim": 2, "h": "1/128"},
            {"theorem": "thm-4.2", "engine": "voxel", "trials": 2,
             "dim": 3, "h": "1/32"},
        ),
    },
    "voxel-sparse": {
        "why": ("voxel boundary-sum checks: dilation of boundary by "
                "boundary, rasterization and rejection-sampled generators"),
        # the theorem mix of exact-mix on the voxel engine, scaled 1/100
        "campaigns": (
            {"theorem": "thm-av", "engine": "voxel", "trials": 100,
             "dim": 2, "h": "1/128"},
            {"theorem": "cor-multi", "engine": "voxel", "trials": 10,
             "dim": 2, "h": "1/128", "bodies": 3},
            {"theorem": "thm-bbm", "engine": "voxel", "trials": 10,
             "dim": 2, "h": "1/128"},
        ),
    },
    "scalar-stream": {
        "why": ("float-only checks with many trials: campaign dispatch and "
                "report encoding are all the work"),
        # lemma-pbm : rn = 10000 : 500, the documented campaigns unscaled
        "campaigns": (
            {"theorem": "lemma-pbm", "engine": "exact", "trials": 10000},
            {"theorem": "rn", "engine": "exact", "trials": 500},
        ),
    },
}


def campaign_seed(workload: str, seed: int, chunk: int, position: int) -> int:
    """Root seed of one campaign, a pure function of its coordinates."""
    return random.Random(f"{workload}:{seed}:{chunk}:{position}").getrandbits(31)


def chunk(workload: str, seed: int, index: int) -> list[dict]:
    """Campaign settings of chunk `index` of `workload` under `seed`."""
    return [dict(spec, seed=campaign_seed(workload, seed, index, j))
            for j, spec in enumerate(WORKLOADS[workload]["campaigns"])]
