"""Campaign runner: randomized verification sweeps with JSONL reports.

A campaign draws independent trials from a root seed (per-trial streams are
derived by counter, so any single trial can be replayed in isolation), runs
one theorem checker per trial and streams one JSON report line per check.
Trials run in order on the calling thread, so identical configurations
produce byte-identical output.  The exit-code contract is nonzero exactly
when some report is a beyond-tolerance violation.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Optional, Sequence

from . import restricted
from .exact2d import GeometryError, translate
from .generators import (GridGenParams, PLANT_TRANSLATE, PolygonGenParams,
                         gen_connected_boundary_set, gen_decomposition_pair,
                         gen_polygon_pair, random_lattice_shift, trial_rng)
from .inequalities import (EXACT, VOXEL, InequalityReport, check_cor_multi,
                           check_lemma_pbm, check_rn, check_thm_av,
                           check_thm_bbm)
from .serialize import dumps_canonical, spec_from_polygon

THEOREMS = ("thm-av", "thm-bbm", "cor-multi", "lemma-pbm", "rn", "thm-4.2")

VIOLATION_FLAGS = ("containment_failed",)


@dataclass(frozen=True)
class CampaignConfig:
    theorem: str
    engine: str = EXACT
    trials: int = 100
    dim: int = 2
    h: float = 1.0 / 32.0
    lam: Optional[Fraction] = None
    bodies: int = 3
    plant_rate: float = 0.0
    seed: int = 0
    out_path: Optional[str] = None
    polygon_params: PolygonGenParams = field(default_factory=PolygonGenParams)
    grid_params: GridGenParams = field(default_factory=GridGenParams)

    def validate(self) -> None:
        if self.theorem not in THEOREMS:
            raise GeometryError(f"unknown theorem {self.theorem!r}")
        if self.engine not in (EXACT, VOXEL):
            raise GeometryError(f"unknown engine {self.engine!r}")
        if self.trials < 1:
            raise GeometryError("trial count must be at least 1")
        if not self.h > 0:
            raise GeometryError("resolution must be positive")
        if self.lam is not None and not 0 < self.lam < 1:
            raise GeometryError("lambda must lie strictly between 0 and 1")
        if not 0.0 <= self.plant_rate <= 1.0:
            raise GeometryError("plant rate must lie in [0, 1]")
        if self.bodies < 3:
            raise GeometryError("multi-body campaigns need at least 3 bodies")
        if self.dim not in (2, 3, 4):
            raise GeometryError("dimension must be 2, 3 or 4")
        if self.engine == EXACT and self.dim != 2:
            raise GeometryError("the exact engine is two-dimensional")


@dataclass
class CampaignSummary:
    theorem: str
    engine: str
    trials: int = 0
    reports: int = 0
    violations: int = 0
    violation_witnesses: list = field(default_factory=list)
    equality_hits: int = 0
    equality_classes: dict = field(default_factory=dict)
    planted: int = 0
    min_slack: Optional[float] = None
    wall_time: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "engine": self.engine,
            "trials": self.trials,
            "reports": self.reports,
            "violations": self.violations,
            "violation_witnesses": self.violation_witnesses,
            "equality_hits": self.equality_hits,
            "equality_classes": self.equality_classes,
            "planted": self.planted,
            "min_slack": self.min_slack,
            "wall_time_s": round(self.wall_time, 3),
        }


def worker_count(trials: int) -> int:
    """Always 1: campaigns run serially.  Kept because bench/worker.py
    records it for every benchmark run."""
    return 1


def _random_lambda(rng) -> Fraction:
    return Fraction(rng.randint(1, 15), 16)


def _polygon_pair(config: CampaignConfig, rng, plant_rate: float):
    """An exact (K, T) pair, its shape specs and its planted mode."""
    kp, tp, mode = gen_polygon_pair(rng, config.polygon_params, plant_rate)
    return kp, tp, (spec_from_polygon(kp), spec_from_polygon(tp)), mode


def _boundary_sets(config: CampaignConfig, rng, m: int):
    """m voxel bodies with connected boundaries, and their shape specs."""
    bodies = [gen_connected_boundary_set(rng, config.grid_params, config.dim,
                                         config.h) for _ in range(m)]
    return [g for g, _ in bodies], tuple(s for _, s in bodies)


def _tagged(report: InequalityReport, planted) -> list[InequalityReport]:
    report.details["planted"] = planted
    return [report]


def _run_trial(config: CampaignConfig, k: int) -> list[InequalityReport]:
    rng = trial_rng(config.seed, k)
    theorem, engine = config.theorem, config.engine
    ids = {"seed": config.seed, "trial": k}

    if theorem == "thm-av":
        if engine == EXACT:
            kp, tp, shapes, mode = _polygon_pair(config, rng, config.plant_rate)
            return _tagged(check_thm_av(kp, tp, EXACT, shapes=shapes, **ids),
                           mode)
        grids, shapes = _boundary_sets(config, rng, 2)
        return [check_thm_av(*grids, VOXEL, shapes=shapes, **ids)]

    if theorem == "thm-bbm":
        lam = config.lam if config.lam is not None else _random_lambda(rng)
        if engine == EXACT:
            kp, tp, shapes, mode = _polygon_pair(config, rng, config.plant_rate)
            return _tagged(
                check_thm_bbm(kp, tp, lam, EXACT, shapes=shapes, **ids), mode)
        _, shapes = _boundary_sets(config, rng, 2)
        return [check_thm_bbm(*shapes, lam, VOXEL, h=config.h, shapes=shapes,
                              **ids)]

    if theorem == "cor-multi":
        if engine == EXACT:
            planted = rng.random() < config.plant_rate
            if planted:
                base, first, _ = gen_polygon_pair(
                    rng, config.polygon_params, 1.0,
                    plant_mode=PLANT_TRANSLATE)
                bodies = [base, first]
                while len(bodies) < config.bodies:
                    bodies.append(translate(
                        base, random_lattice_shift(rng, config.polygon_params)))
            else:
                bodies = [gen_polygon_pair(rng, config.polygon_params, 0.0)[0]
                          for _ in range(config.bodies)]
            shapes = tuple(spec_from_polygon(b) for b in bodies)
            return _tagged(check_cor_multi(bodies, EXACT, shapes=shapes, **ids),
                           PLANT_TRANSLATE if planted else None)
        grids, shapes = _boundary_sets(config, rng, config.bodies)
        return [check_cor_multi(grids, VOXEL, shapes=shapes, **ids)]

    if theorem == "lemma-pbm":
        m = rng.randint(1, 4)
        prefix = [rng.uniform(0.01, 2.0) for _ in range(m)]
        last = sum(prefix) / rng.uniform(0.05, 1.0)
        return [check_lemma_pbm(prefix + [last], **ids)]

    if theorem == "rn":
        n = rng.choice([2, 3, 4, 5, 6])
        lam = rng.uniform(0.01, 0.99)
        x = 10.0 ** rng.uniform(-2.0, 2.0)
        return [check_rn(n, lam, x, **ids)]

    if theorem == "thm-4.2":
        if engine == EXACT:
            kp, tp, shapes, _ = _polygon_pair(config, rng, 0.0)
            return [restricted.check_arithmetic_bm(kp, tp, EXACT,
                                                   shapes=shapes, **ids)]
        gk, sk, gt, st = gen_decomposition_pair(rng, config.grid_params,
                                                config.dim, config.h)
        main = restricted.check_arithmetic_bm(gk, gt, VOXEL, shapes=(sk, st),
                                              **ids)
        pairs, roots = restricted.check_theta_bounds(gk, gt, shapes=(sk, st),
                                                     **ids)
        if pairs.details.get("containment_verdict") is False:
            pairs.flags = pairs.flags + ("containment_failed",)
        return [main, pairs, roots]

    raise GeometryError(f"unknown theorem {config.theorem!r}")


def _is_violation(report: InequalityReport) -> bool:
    if report.theorem_id == "thm-4.2" and not report.details.get("ratio_ok", True):
        # Outside the ratio window the bound is expected to fail; those are
        # findings, not violations.
        return any(f in VIOLATION_FLAGS for f in report.flags)
    return report.violation or any(f in VIOLATION_FLAGS for f in report.flags)


def run_campaign(config: CampaignConfig,
                 out: Optional[IO[str]] = None) -> CampaignSummary:
    """Run all trials, stream JSONL reports and return the summary.

    Reports go to `out` when given, else to config.out_path, else they are
    only aggregated.  Trials run in order on the calling thread, so
    identical configs give byte-identical files.
    """
    config.validate()
    summary = CampaignSummary(theorem=config.theorem, engine=config.engine)
    start = time.perf_counter()

    stream: Optional[IO[str]] = out
    close_after = False
    if stream is None and config.out_path is not None:
        stream = open(config.out_path, "w", encoding="utf-8")
        close_after = True

    try:
        for k in range(config.trials):
            _consume(summary, _run_trial(config, k), stream)
    finally:
        if stream is not None:
            stream.flush()
        if close_after:
            stream.close()

    summary.wall_time = time.perf_counter() - start
    return summary


def _consume(summary: CampaignSummary, batch: Sequence[InequalityReport],
             stream: Optional[IO[str]]) -> None:
    summary.trials += 1
    for report in batch:
        summary.reports += 1
        slack = float(report.slack)
        if summary.min_slack is None or slack < summary.min_slack:
            summary.min_slack = slack
        if report.details.get("planted"):
            summary.planted += 1
        if report.equality:
            summary.equality_hits += 1
            if report.equality_class is not None:
                tag = report.equality_class.tag.value
                summary.equality_classes[tag] = \
                    summary.equality_classes.get(tag, 0) + 1
        if _is_violation(report):
            summary.violations += 1
            if len(summary.violation_witnesses) < 10:
                summary.violation_witnesses.append(report.to_json_dict())
        if stream is not None:
            stream.write(dumps_canonical(report.to_json_dict()))
            stream.write("\n")


def print_summary(summary: CampaignSummary, file: IO[str] = sys.stdout) -> None:
    file.write(dumps_canonical(summary.to_json_dict()) + "\n")
