"""Campaign runner: randomized verification sweeps with JSONL reports.

A (theorem, engine) campaign is one `_TRIALS` entry, a trial function run
on independent trials of a root seed (per-trial streams are derived by
counter, so any single trial can be replayed in isolation); it streams one
JSON report line per check.  The exit-code contract is nonzero exactly when
some report is a beyond-tolerance violation.

Trials run on every CPU the process may use.  The trial range is cut into
contiguous blocks.  The first campaign with more than one block forks one
worker per CPU, joined to the calling process by one duplex pipe, and
later campaigns reuse them.  A worker runs one block at a time and answers
with one block message: the trials done, their report lines as one
string, the facts the summary keeps of each report, and the lines of the
first violations.  The calling process keeps at most two blocks per
worker sent and not yet merged, and merges the messages in trial order,
so identical configurations produce byte-identical files and summaries
whatever the number of workers.  A block stops at its first trial that
raises, and no exception leaves a worker: the calling process reruns that
trial itself, which raises there after the lines of every earlier trial.
Each trial is a pure function of the config and its index, so the rerun
draws what the worker drew.  A worker exits when its pipe ends, so the
workers go with the calling process even when it is killed; one that
dies breaks the pool, and the campaign raises BrokenProcessPool (after
one retry on a fresh pool if nothing was merged yet).  With one CPU, one
block, or no `os.sched_getaffinity` (outside Linux), the blocks run in
order on the calling thread and nothing is forked.  The process machinery
is imported when the pool is first built, so set-up never pays for it,
and the calling process starts no thread.

Validating a voxel config loads the voxel engine, bmink.voxel, so its
import is paid in set-up, not in the first trial; exact and scalar
campaigns never load it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import IO, Iterator, Optional

from .exact2d import GeometryError, translate
from .generators import (GridGenParams, PLANT_TRANSLATE, PolygonGenParams,
                         gen_connected_boundary_set, gen_decomposition_pair,
                         gen_polygon_pair, random_lattice_shift, trial_rng)
from .inequalities import (EXACT, VOXEL, InequalityReport, check_arithmetic_bm,
                           check_cor_multi, check_lemma_pbm, check_rn,
                           check_thm_4_2_voxel, check_thm_av, check_thm_bbm)
from .serialize import ALLOWED_DIMS, dumps_canonical, spec_from_polygon

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
        if self.dim not in ALLOWED_DIMS:
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


# A block is a contiguous run of trials, the unit a worker runs and returns
# as one message.  Several blocks per worker even out trials of unequal
# cost; the size cap and the window of blocks in flight bound the reports
# the calling process holds, whatever the trial count.
_BLOCKS_PER_WORKER = 4
_MAX_BLOCK = 256
_IN_FLIGHT_PER_WORKER = 2
_WITNESSES = 10  # violation reports the summary keeps in full

_POOL = None  # [(pipe end, worker process)], built by the first pooled campaign


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
            for first, stop in _bounds(config.trials, workers):
                _merge(summary, config, first, stop,
                       _run_block(config, first, stop), stream)
        else:
            _run_blocks(pool, workers, config, summary, stream)
    finally:
        if stream is not None:
            stream.flush()
        if close_after:
            stream.close()

    summary.wall_time = time.perf_counter() - start
    return summary


def _bounds(trials: int, workers: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) trial bounds of a campaign's blocks, in order."""
    size = _block_size(trials, workers)
    return ((k, min(k + size, trials)) for k in range(0, trials, size))


def _pool() -> list:
    """The worker processes as (pipe end, process) pairs, forked at first
    use, one per CPU.

    Workers are forked, not spawned, so they start with every module the
    calling process has loaded instead of importing numpy and scipy again;
    they keep the code as it was at fork time.  bmink starts no thread in
    the calling process, which keeps forking safe.  The pool is dropped
    when the interpreter exits.
    """
    global _POOL
    if _POOL is None:
        import atexit
        import multiprocessing

        context = multiprocessing.get_context("fork")
        _POOL = []
        atexit.unregister(_drop_pool)  # registered once, however many pools
        atexit.register(_drop_pool)
        try:
            for _ in range(_workers()):
                ours, theirs = context.Pipe()
                worker = context.Process(target=_serve, daemon=True, args=(
                    theirs, [end for end, _ in _POOL] + [ours]))
                worker.start()
                theirs.close()
                _POOL.append((ours, worker))
        except BaseException:
            _drop_pool()
            raise
    return _POOL


def _drop_pool() -> None:
    # Close the pipes, stop the workers and wait until they are gone: at
    # exit, once the pool broke, or when a campaign ended with blocks in
    # flight, whose replies no later campaign may read.
    global _POOL
    pool, _POOL = _POOL or (), None
    for end, worker in pool:
        end.close()
        worker.terminate()
    for _, worker in pool:
        worker.join()


def _serve(conn, inherited: list) -> None:
    """Worker loop: answer each block request with its block message, until
    the calling process closes its end of the pipe or dies.

    Ctrl-C reaches the whole process group; the calling process handles
    it, and the worker ignores it.  The worker first closes the calling
    process's ends of its own pipe and of the pipes of the workers forked
    before it, so that every pipe ends, and every worker exits, however
    the calling process exits.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    with suppress(EOFError, BrokenPipeError, ConnectionResetError):
        while True:
            conn.send(_run_block(*conn.recv()))


def _run_blocks(pool, workers: int, config: CampaignConfig,
                summary: CampaignSummary, stream: Optional[IO[str]]) -> None:
    """Run the campaign's blocks on the pool's first `workers` workers and
    merge them in trial order.  A pool that breaks (a pipe ends) before
    the first merge lost a worker between campaigns: the campaign runs
    once more on a fresh pool, forked with the report file open.  Breaking
    again, or later, raises BrokenProcessPool."""
    for retry in (True, False):
        replies = _replies([end for end, _ in pool[:workers]], config,
                           workers)
        try:
            while True:
                try:
                    block = next(replies, None)
                except (EOFError, BrokenPipeError,
                        ConnectionResetError) as exc:
                    lost = exc
                    break
                if block is None:
                    return
                _merge(summary, config, *block, stream)
        finally:
            replies.close()
        _drop_pool()  # and wait until its workers are gone
        if summary.trials or not retry:
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool(
                "a campaign worker process ended unexpectedly") from lost
        pool = _pool()


def _replies(conns: list, config: CampaignConfig,
             workers: int) -> Iterator[list]:
    """The campaign's blocks as [start, stop, block message], in trial
    order.  A worker runs one block at a time and gets the next one as soon
    as it answers, so a slow block holds up no other worker; at most
    _IN_FLIGHT_PER_WORKER blocks per worker are sent and not yet yielded.
    Once the next block to yield is one that a trial cut short, no block
    is sent until every reply in flight is in, so the rerun of that trial
    can raise with no block in flight.  A generator closed with blocks in
    flight drops the pool."""
    from multiprocessing.connection import wait

    bounds = _bounds(config.trials, workers)
    cap = _IN_FLIGHT_PER_WORKER * len(conns)
    busy = {}  # pipe end -> the block its worker is running
    window: deque = deque()  # sent and not yet yielded, in trial order
    try:
        while True:
            start, stop, reply = window[0] if window else (0, 0, None)
            cut = reply is not None and reply[0] < stop - start
            for conn in conns:
                if cut or len(window) == cap:
                    break
                if conn in busy:
                    continue
                bound = next(bounds, None)
                if bound is None:
                    break
                conn.send((config, *bound))
                busy[conn] = [*bound, None]
                window.append(busy[conn])
            if not window:
                return
            if window[0][2] is None or (cut and busy):
                for conn in wait(list(busy)):
                    busy[conn][2] = conn.recv()
                    del busy[conn]
            else:
                yield window.popleft()
    finally:
        if busy:
            _drop_pool()


def _merge(summary: CampaignSummary, config: CampaignConfig, start: int,
           stop: int, block: tuple, stream: Optional[IO[str]]) -> None:
    """Merge the block message of trials start .. stop-1.  A block that a
    trial cut short is finished here, so that trial raises in this
    process; each trial is a pure function of the config and its index,
    so the rerun draws what the block drew."""
    while True:
        _consume(summary, block, stream)
        start += block[0]
        if start == stop:
            return
        _run_trial(config, start)  # raises, as it did in the block
        block = _run_block(config, start, stop)  # if not, run on here


def _run_block(config: CampaignConfig, start: int, stop: int) -> tuple:
    """The block message of trials start .. stop-1, up to the first that
    raises: the number of trials done, their report lines as one string,
    the summary facts of each report, and the lines of the first
    violations, for the witnesses.  Nothing of the exception leaves the
    block; whoever merges it reruns that trial and raises it there."""
    lines, facts, witnesses = [], [], []
    done = 0
    with suppress(Exception):
        for k in range(start, stop):
            for line, fact in [_encode(report)
                               for report in _run_trial(config, k)]:
                lines.append(line)
                facts.append(fact)
                if fact[-1] and len(witnesses) < _WITNESSES:
                    witnesses.append(line)
            done += 1
    return done, "".join(f"{line}\n" for line in lines), facts, witnesses


def _encode(report: InequalityReport) -> tuple[str, tuple]:
    """A report as its JSON line plus what the summary keeps of it:
    theorem_id, slack, planted, equality, the class tag and the violation
    verdict."""
    equality = bool(report.equality)
    tag = (report.equality_class.tag.value
           if equality and report.equality_class is not None else None)
    return dumps_canonical(report.to_json_dict()), (
        report.theorem_id, float(report.slack),
        bool(report.details.get("planted")), equality, tag,
        _is_violation(report))


def _consume(summary: CampaignSummary, block: tuple,
             stream: Optional[IO[str]]) -> None:
    """Merge one block message into the summary and the stream."""
    done, text, facts, witnesses = block
    summary.trials += done
    summary.reports += len(facts)
    for tid, slack, planted, equality, tag, violation in facts:
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
    room = _WITNESSES - len(summary.violation_witnesses)
    summary.violation_witnesses.extend(map(json.loads, witnesses[:room]))
    if stream is not None and text:
        stream.write(text)
