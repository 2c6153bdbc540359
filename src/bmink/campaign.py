"""Campaign runner: randomized verification sweeps with JSONL reports.

A (theorem, engine) campaign is one `_TRIALS` entry, a trial function run
on independent trials of a root seed (per-trial streams are derived by
counter, so any single trial can be replayed in isolation); it streams one
JSON report line per check.  The exit-code contract is nonzero exactly when
some report is a beyond-tolerance violation.

Trials run on every CPU the process may use.  The trial range is cut into
contiguous blocks; a pool of worker processes, forked once per process at
the first campaign with more than one block and reused by later ones, runs
each block and returns every report as its JSON line plus the facts the
summary keeps.  The calling process merges the blocks in trial order, so
identical configurations produce byte-identical files and summaries
whatever the number of workers.  With one CPU, one block, or no
`os.sched_getaffinity` (outside Linux), the trials run in order on the
calling thread and nothing is forked.  The process machinery is imported
when the pool is first built, so set-up never pays for it.

Validating a voxel config loads the voxel engine, bmink.voxel, so its
import is paid in set-up, not in the first trial; exact and scalar
campaigns never load it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import islice
from typing import IO, Iterator, Optional, Sequence

from .exact2d import GeometryError, translate
from .generators import (GridGenParams, PLANT_TRANSLATE, PolygonGenParams,
                         gen_connected_boundary_set, gen_decomposition_pair,
                         gen_polygon_pair, random_lattice_shift, trial_rng)
from .inequalities import (EXACT, VOXEL, InequalityReport, check_arithmetic_bm,
                           check_cor_multi, check_lemma_pbm, check_rn,
                           check_thm_4_2_voxel, check_thm_av, check_thm_bbm)
from .serialize import dumps_canonical, spec_from_polygon

POLYGON_PARAMS = PolygonGenParams()  # the exact engine's polygon generator


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
        if self.engine == EXACT and self.theorem == "cor-multi":
            # Bodies in [-r, r]^2 have areas up to (2r)^2, so the m-th power
            # slack is at most (2r)^(2m).  Capping m at 512 keeps the power
            # small: for 2r >= 2 it already exceeds the float range there.
            span = 2 * POLYGON_PARAMS.coord_range
            if span ** (2 * min(self.bodies, 512)) > sys.float_info.max:
                raise GeometryError(
                    f"exact cor-multi with {self.bodies} bodies: the slack "
                    f"can reach {span}**{2 * self.bodies}, beyond the float "
                    "range of the campaign summary")
        if self.dim not in (2, 3, 4):
            raise GeometryError("dimension must be 2, 3 or 4")
        if self.engine == EXACT and self.dim != 2:
            raise GeometryError("the exact engine is two-dimensional")
        if (self.theorem, self.engine) not in _TRIALS:  # a scalar check
            raise GeometryError(f"{self.theorem} checks scalars and has no "
                                "voxel engine")
        if self.engine == VOXEL:
            from . import voxel  # noqa: F401  (see module doc)


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
    min_slack: dict = field(default_factory=dict)  # theorem_id -> float
    wall_time: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["wall_time_s"] = round(doc.pop("wall_time"), 3)
        return doc


# A block is a contiguous run of trials, the unit a worker runs and returns.
# Several blocks per worker even out trials of unequal cost; the size cap
# and the window of blocks in flight bound the reports the calling process
# holds, whatever the trial count.
_BLOCKS_PER_WORKER = 4
_MAX_BLOCK = 256
_IN_FLIGHT_PER_WORKER = 2

_POOL = None  # the worker processes, built by the first campaign that uses them


def _workers() -> int:
    """One worker per CPU this process may run on; 1 where the affinity
    mask is unknown (outside Linux), so nothing is forked there."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _block_size(trials: int, workers: int) -> int:
    return min(_MAX_BLOCK, -(-trials // (workers * _BLOCKS_PER_WORKER)))


def worker_count(trials: int) -> int:
    """The processes a campaign of `trials` trials runs on: one per CPU, at
    most one per block, and 1 (the calling process) for a single block."""
    workers = _workers()
    return min(workers, -(-trials // _block_size(trials, workers)))


def _polygon_pair(rng, plant_rate: float):
    """An exact (K, T) pair, its shape specs and its planted mode."""
    kp, tp, mode = gen_polygon_pair(rng, POLYGON_PARAMS, plant_rate)
    return kp, tp, (spec_from_polygon(kp), spec_from_polygon(tp)), mode


def _boundary_sets(config: CampaignConfig, rng, m: int):
    """m voxel bodies with connected boundaries, and their shape specs."""
    bodies = [gen_connected_boundary_set(rng, config.grid_params, config.dim,
                                         config.h) for _ in range(m)]
    return [g for g, _ in bodies], tuple(s for _, s in bodies)


def _thm_av_exact(config, rng):
    kp, tp, shapes, mode = _polygon_pair(rng, config.plant_rate)
    return [check_thm_av(kp, tp)], shapes, mode


def _thm_av_voxel(config, rng):
    grids, shapes = _boundary_sets(config, rng, 2)
    return [check_thm_av(*grids)], shapes


def _thm_bbm_exact(config, rng):
    lam = config.lam or Fraction(rng.randint(1, 15), 16)
    kp, tp, shapes, mode = _polygon_pair(rng, config.plant_rate)
    return [check_thm_bbm(kp, tp, lam)], shapes, mode


def _thm_bbm_voxel(config, rng):
    lam = config.lam or Fraction(rng.randint(1, 15), 16)
    grids, shapes = _boundary_sets(config, rng, 2)
    return [check_thm_bbm(*zip(grids, shapes), lam)], shapes


def _cor_multi_exact(config, rng):
    if rng.random() < config.plant_rate:
        base, first, mode = gen_polygon_pair(rng, POLYGON_PARAMS, 1.0,
                                             plant_mode=PLANT_TRANSLATE)
        bodies = [base, first] + [
            translate(base, random_lattice_shift(rng, POLYGON_PARAMS))
            for _ in range(config.bodies - 2)]
    else:
        mode = None
        bodies = [gen_polygon_pair(rng, POLYGON_PARAMS, 0.0)[0]
                  for _ in range(config.bodies)]
    shapes = tuple(spec_from_polygon(b) for b in bodies)
    return [check_cor_multi(bodies)], shapes, mode


def _cor_multi_voxel(config, rng):
    grids, shapes = _boundary_sets(config, rng, config.bodies)
    return [check_cor_multi(grids)], shapes


def _lemma_pbm(config, rng):
    m = rng.randint(1, 4)
    prefix = [rng.uniform(0.01, 2.0) for _ in range(m)]
    last = sum(prefix) / rng.uniform(0.05, 1.0)
    return [check_lemma_pbm(prefix + [last])], ()


def _rn(config, rng):
    n = rng.choice([2, 3, 4, 5, 6])
    lam = rng.uniform(0.01, 0.99)
    x = 10.0 ** rng.uniform(-2.0, 2.0)
    return [check_rn(n, lam, x)], ()


def _thm_4_2_exact(config, rng):
    kp, tp, shapes, _ = _polygon_pair(rng, 0.0)
    return [check_arithmetic_bm(kp, tp)], shapes


def _thm_4_2_voxel(config, rng):
    gk, sk, gt, st = gen_decomposition_pair(rng, config.grid_params,
                                            config.dim, config.h)
    return check_thm_4_2_voxel(gk, gt), (sk, st)


# One trial per (theorem, engine) campaign a config may ask for.  Trials
# look checkers and generators up as module globals at call time, so
# rebinding one here reaches every trial.
_TRIALS = {
    ("thm-av", EXACT): _thm_av_exact,
    ("thm-av", VOXEL): _thm_av_voxel,
    ("thm-bbm", EXACT): _thm_bbm_exact,
    ("thm-bbm", VOXEL): _thm_bbm_voxel,
    ("cor-multi", EXACT): _cor_multi_exact,
    ("cor-multi", VOXEL): _cor_multi_voxel,
    ("lemma-pbm", EXACT): _lemma_pbm,
    ("rn", EXACT): _rn,
    ("thm-4.2", EXACT): _thm_4_2_exact,
    ("thm-4.2", VOXEL): _thm_4_2_voxel,
}

THEOREMS = tuple(dict.fromkeys(theorem for theorem, _ in _TRIALS))


def _run_trial(config: CampaignConfig, k: int) -> list[InequalityReport]:
    """The reports of trial k, stamped with the campaign seed, the trial
    index and the shape specs the trial drew.  The exact polygon trials,
    which can plant an equality case, also return the planted mode (None
    included), and only their reports record it."""
    reports, shapes, *planted = _TRIALS[config.theorem, config.engine](
        config, trial_rng(config.seed, k))
    for report in reports:
        report.seed, report.trial, report.shapes = config.seed, k, shapes
        if planted:
            report.details["planted"] = planted[0]
    return reports


def _is_violation(report: InequalityReport) -> bool:
    # A ratio-tagged thm-4.2 failure lies outside the window where the bound
    # is claimed: a finding, not a violation.
    return "containment_failed" in report.flags or (
        report.violation and "ratio_condition_violated" not in report.flags)


def run_campaign(config: CampaignConfig,
                 out: Optional[IO[str]] = None) -> CampaignSummary:
    """Run all trials, stream JSONL reports and return the summary.

    Reports go to `out` when given, else to config.out_path, else they are
    only aggregated.  Lines are written in trial order whatever the number
    of workers, so identical configs give byte-identical files.  A trial
    that raises ends the campaign with its exception, after the lines of
    every earlier trial.
    """
    config.validate()
    summary = CampaignSummary(theorem=config.theorem, engine=config.engine)
    start = time.perf_counter()
    workers = worker_count(config.trials)
    # Fork before opening the report file, so no worker inherits it.
    pool = _pool() if workers > 1 else None

    close_after = out is None and config.out_path is not None
    stream = (open(config.out_path, "w", encoding="utf-8") if close_after
              else out)

    try:
        if pool is None:
            for trial in _encoded_trials(config, 0, config.trials,
                                         stream is not None):
                _consume(summary, trial, stream)
        else:
            _run_blocks(pool, workers, config, summary, stream)
    finally:
        if stream is not None:
            stream.flush()
        if close_after:
            stream.close()

    summary.wall_time = time.perf_counter() - start
    return summary


def _pool():
    """The process pool, built at first use with one worker per CPU.

    Workers are forked, not spawned, so they start with every module the
    calling process has loaded instead of importing numpy and scipy again;
    they keep the code as it was at fork time.  The executor shuts its
    workers down when the interpreter exits.
    """
    global _POOL
    if _POOL is None:
        import atexit
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(
            _workers(), mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(os.getpid(),))
        atexit.register(_drop_pool)
    return _POOL


def _drop_pool() -> None:
    # Shut the executor down and wait for its workers: at exit, while the
    # modules it uses at collection are still loaded, or once it broke.
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _start_worker(parent: int) -> None:
    """Worker set-up.  Ctrl-C reaches the whole process group; the calling
    process handles it, and its pool then stops the workers.  A calling
    process that is killed cannot stop them, so each worker also watches
    its parent and exits once it is gone."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _run_blocks(pool, workers: int, config: CampaignConfig,
                summary: CampaignSummary, stream: Optional[IO[str]]) -> None:
    """Run the campaign's blocks on the pool and merge them in trial order,
    with at most _IN_FLIGHT_PER_WORKER blocks per worker submitted and not
    yet merged.  A pool that breaks before the first merge lost a worker
    between campaigns: the campaign runs once more on a fresh pool, forked
    with the report file open.  Breaking again, or later, raises."""
    from concurrent.futures.process import BrokenProcessPool

    size, lines = _block_size(config.trials, workers), stream is not None
    for retry in (True, False):
        blocks = (pool.submit(_run_block, config, k,
                              min(k + size, config.trials), lines)
                  for k in range(0, config.trials, size))
        window: deque = deque()
        try:
            window.extend(islice(blocks, _IN_FLIGHT_PER_WORKER * workers))
            while window:
                trials, error, trace = window.popleft().result()
                window.extend(islice(blocks, 1))
                for trial in trials:
                    _consume(summary, trial, stream)
                if error is not None:
                    raise error from _WorkerTraceback(trace)
            return
        except BrokenProcessPool:
            _drop_pool()  # and wait until its workers are gone
            if summary.trials or not retry:
                raise
        finally:
            for future in window:
                future.cancel()
        pool = _pool()


class _WorkerTraceback(Exception):
    """The traceback of an exception a worker raised, as the cause of its
    copy in the calling process."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _run_block(config: CampaignConfig, start: int, stop: int, lines: bool):
    """Worker side: the encoded trials start .. stop-1, and the exception
    that ended the block early (with its traceback as text), if any."""
    done = []
    try:
        for trial in _encoded_trials(config, start, stop, lines):
            done.append(trial)
    except Exception as exc:
        import traceback

        return done, exc, "".join(traceback.format_exception(exc))
    return done, None, None


def _encoded_trials(config: CampaignConfig, start: int, stop: int,
                    lines: bool) -> Iterator[list[tuple]]:
    for k in range(start, stop):
        yield [_encode(report, lines) for report in _run_trial(config, k)]


def _encode(report: InequalityReport, lines: bool) -> tuple:
    """A report as its JSON line (None unless `lines`) plus what the
    summary keeps of it: theorem_id, slack, planted, equality, the class
    tag, the violation verdict and, for a violation, the witness dict."""
    violation = _is_violation(report)
    doc = report.to_json_dict() if lines or violation else None
    equality = bool(report.equality)
    tag = (report.equality_class.tag.value
           if equality and report.equality_class is not None else None)
    return (dumps_canonical(doc) if lines else None, report.theorem_id,
            float(report.slack), bool(report.details.get("planted")),
            equality, tag, violation, doc if violation else None)


def _consume(summary: CampaignSummary, trial: Sequence[tuple],
             stream: Optional[IO[str]]) -> None:
    """Merge one trial's encoded reports into the summary and the stream."""
    summary.trials += 1
    for line, tid, slack, planted, equality, tag, violation, witness in trial:
        summary.reports += 1
        if tid not in summary.min_slack or slack < summary.min_slack[tid]:
            summary.min_slack[tid] = slack
        if planted:
            summary.planted += 1
        if equality:
            summary.equality_hits += 1
            if tag is not None:
                summary.equality_classes[tag] = \
                    summary.equality_classes.get(tag, 0) + 1
        if violation:
            summary.violations += 1
            if len(summary.violation_witnesses) < 10:
                summary.violation_witnesses.append(witness)
        if stream is not None:
            stream.write(line)
            stream.write("\n")
