"""bmink benchmark: campaign throughput end to end, and a traced per-layer run.

    python3 bench/run.py --workload exact-mix --seed 0 --seconds 16 --trace 0

Run from anywhere; the benchmark finds the checkout's ``src/`` from its own
location and imports bmink only from there.  Every measured process is a
fresh interpreter (bench/worker.py), so set-up time and peak memory belong
to one workload.

``--trace 0`` (end to end, tracing off):
  * the measured work, --seconds in all, is split into SEGMENTS fresh
    processes with BMINK_THREADS unset (one worker per CPU, the CLI
    default); each continues with the chunk after the previous one's last,
    and ``trials_per_s`` is the median of their rates;
  * set-up probes, fresh interpreters that import bmink and validate the
    first chunk's configurations, run before, between and after them;
  * a check process with BMINK_THREADS=1 reruns the last chunk, whose
    report digest must equal the measured process's.

``--trace 1`` (per layer):
  * an untraced process runs chunks for a quarter of --seconds;
  * two traced processes run exactly those chunks again; their reports
    must match the untraced ones and their computed counts each other.

Every run checks the report digests against bench/digests.json when the
seed has recorded digests, and counts a trial as failed when its campaign
raised, reported a violation, or wrote reports whose digest did not match.
All metrics are printed one per line with their units; the last line of
standard output is the JSON result.  A full record, with the machine
description, is written under .bench_run/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The whole run must end within 180 s; a child still running at the
# deadline is killed and the run fails.
DEADLINE_S = 170.0
# Measured processes per end-to-end run; a set-up probe runs before each of
# them and after the last.  A slow spell of the machine then moves one
# segment's rate and a few set-up samples rather than the medians.
SEGMENTS = 4


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed trial)."""


class Children:
    """Starts worker processes and kills any still running at the deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, extra: tuple = (),
              threads: Optional[str] = None) -> tuple[float, Optional[dict]]:
        """Run one worker; returns (set-up seconds, its JSON result)."""
        env = dict(os.environ)
        env.pop("BMINK_THREADS", None)
        if threads is not None:
            env["BMINK_THREADS"] = threads
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
        cmd = [sys.executable, str(WORKER), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(self.workdir),
               *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise BenchError(f"worker {mode} {' '.join(extra)} exited with "
                             f"code {code}")
        if mode == "setup":
            return setup_s, None
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def recorded_digests(workload: str, seed: int) -> list[str]:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return []
    return table.get(workload, {}).get(str(seed), [])


def judge(workload: str, seed: int, passes: list[dict]
          ) -> tuple[int, int, list[str]]:
    """Attempted and failed trial counts over all passes, with reasons."""
    recorded = recorded_digests(workload, seed)
    seen: dict[int, set] = {}
    for p in passes:
        for c in p["chunks"]:
            seen.setdefault(c["index"], set()).add(c["digest"])
    attempted = failed = 0
    problems = []
    for p in passes:
        for c in p["chunks"]:
            i = c["index"]
            trials = sum(r["trials"] for r in c["campaigns"])
            attempted += trials
            bad = 0
            for r in c["campaigns"]:
                if r["error"]:
                    bad += r["trials"]
                    problems.append(f"chunk {i} {r['theorem']}: {r['error']}")
                elif r["violations"]:
                    bad += min(r["trials"], r["violations"])
                    problems.append(f"chunk {i} {r['theorem']}: "
                                    f"{r['violations']} violation reports")
            if len(seen[i]) > 1:
                bad = trials
                problems.append(f"chunk {i}: report digests differ between "
                                f"runs: {sorted(seen[i])}")
            elif i < len(recorded) and recorded[i] != c["digest"]:
                bad = trials
                problems.append(f"chunk {i}: report digest {c['digest']} != "
                                f"recorded {recorded[i]}")
            failed += bad
    return attempted, failed, problems


def throughput(result: dict) -> tuple[int, float]:
    """Trials completed and trials per second of campaign wall time."""
    trials, wall = 0, 0.0
    for c in result["chunks"]:
        for r in c["campaigns"]:
            if not r["error"]:
                trials += r["trials_done"]
                wall += r["wall_s"]
    return trials, (trials / wall if wall else 0.0)


def max_workers(result: dict) -> int:
    return max(r["workers"] for c in result["chunks"] for r in c["campaigns"])


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(children: Children, seconds: float) -> dict:
    setups, segments, first = [], [], 0
    for _ in range(SEGMENTS):
        setups.append(children.spawn("setup")[0])
        setup_s, segment = children.spawn(
            "run", ("--seconds", repr(seconds / SEGMENTS),
                    "--first-chunk", str(first)))
        setups.append(setup_s)
        segments.append(segment)
        first = segment["chunks"][-1]["index"] + 1
    setups.append(children.spawn("setup")[0])
    setup_s, check = children.spawn(
        "run", ("--chunk-ids", str(first - 1)), threads="1")
    setups.append(setup_s)
    attempted, failed, problems = judge(children.workload, children.seed,
                                        [*segments, check])
    rates = [throughput(s)[1] for s in segments]
    chunks = [c for s in segments for c in s["chunks"]]
    metrics = {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in segments), "MB"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "machine": segments[0]["machine"],
            "workers": max(max_workers(s) for s in segments),
            "trials": sum(throughput(s)[0] for s in segments),
            "chunks": len(chunks), "segment_rates": rates,
            "segment_peak_rss_mb": [s["peak_rss_mb"] for s in segments],
            "setup_samples_s": setups,
            "chunk_digests": [c["digest"] for c in chunks]}


def per_layer(children: Children, seconds: float) -> dict:
    _, untraced = children.spawn("run", ("--seconds", repr(seconds / 4)))
    ids = ",".join(str(c["index"]) for c in untraced["chunks"])
    _, first = children.spawn("run", ("--chunk-ids", ids, "--trace"))
    _, second = children.spawn("run", ("--chunk-ids", ids, "--trace"))
    attempted, failed, problems = judge(children.workload, children.seed,
                                        [untraced, first, second])
    counts = tracing.computed_counts(first["trace"])
    if counts != tracing.computed_counts(second["trace"]):
        failed = attempted
        problems.append("computed counts differ between the two traced runs")
    trials, traced_rate = throughput(first)
    _, untraced_rate = throughput(untraced)
    values = tracing.per_layer_metrics(first["trace"], trials,
                                       max_workers(first), traced_rate,
                                       untraced_rate)
    units = tracing.per_layer_units()
    metrics = {name: (values[name], units[name]) for name in units}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "machine": first["machine"],
            "workers": max_workers(first), "trials": trials,
            "chunks": len(first["chunks"]), "computed_counts": counts,
            "threads": first["trace"]["threads"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="bmink benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if not (ROOT / "src" / "bmink" / "__init__.py").is_file():
        print(f"error: no bmink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    children = Children(args.workload, args.seed, workdir)
    try:
        run = (per_layer if args.trace else end_to_end)(children, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run["machine"].update(git_commit=git_commit(),
                          resolved_workers=run["workers"])
    failed_frac = run["failed"] / run["attempted"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_frac": failed_frac, **run,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in run["metrics"].items()}}
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(run["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {run['chunks']} chunks, "
          f"{run['trials']} trials, {run['workers']} workers")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {failed_frac} ratio "
          f"({run['failed']} of {run['attempted']} trials)")
    print(json.dumps({"correct": run["failed"] == 0 and not run["problems"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
