"""One benchmark process: import bmink, then run chunks of a workload.

Usage (the orchestrator, run.py, starts this; it is not a user command):

    python3 bench/worker.py setup --workload W --seed N --workdir DIR
    python3 bench/worker.py run --workload W --seed N --workdir DIR
        (--seconds S [--first-chunk I] | --chunk-ids 0,7,...) [--trace]

Both modes import bmink and validate the first chunk's configurations,
then print ``READY``: the orchestrator's clock from process start to that
line is the set-up time.  `setup` exits there.  `run` drives the public
``bmink.campaign.run_campaign`` with ``out_path`` set, as ``bmink verify
--out`` does, over chunks I, I+1, I+2, ... (I defaults to 0) until S
seconds have passed, or over exactly the listed chunks.  Each campaign's
JSONL file is hashed and deleted.  The last line of standard output is a JSON object with the
per-chunk results, the peak resident memory and the machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def _import_bmink():
    import bmink
    from bmink import campaign

    src = (ROOT / "src").resolve()
    if src not in Path(bmink.__file__).resolve().parents:
        raise SystemExit(f"error: imported bmink from {bmink.__file__}, "
                         f"not from the checkout's src/")
    return bmink, campaign


def _config(campaign, settings: dict, out_path: str):
    values = dict(settings)
    if "h" in values:
        values["h"] = float(Fraction(values["h"]))
    return campaign.CampaignConfig(out_path=out_path, **values)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_chunk(campaign, workload: str, seed: int, index: int,
              workdir: Path) -> dict:
    """Run every campaign of one chunk; hash and delete each report file."""
    runs = []
    chunk_digest = hashlib.sha256()
    for j, settings in enumerate(workloads.chunk(workload, seed, index)):
        out_path = workdir / f"{os.getpid()}-chunk{index}-{j}.jsonl"
        config = _config(campaign, settings, str(out_path))
        entry = {"theorem": config.theorem, "engine": config.engine,
                 "trials": config.trials, "wall_s": 0.0, "violations": 0,
                 "error": None,
                 "workers": campaign.worker_count(config.trials)}
        t0 = time.perf_counter()
        try:
            summary = campaign.run_campaign(config)
        except Exception as exc:  # a failed campaign is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            entry["error"] = f"{type(exc).__name__}: {exc}"
            chunk_digest.update(b"error")
        else:
            entry["wall_s"] = time.perf_counter() - t0
            entry["violations"] = summary.violations
            entry["trials_done"] = summary.trials
            chunk_digest.update(_sha256(out_path).encode())
        finally:
            out_path.unlink(missing_ok=True)
        runs.append(entry)
    return {"index": index, "digest": chunk_digest.hexdigest()[:16],
            "campaigns": runs}


def machine(bmink) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bmink": getattr(bmink, "__version__", "unknown"),
        "BMINK_THREADS": os.environ.get("BMINK_THREADS", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-chunk", type=int, default=0)
    parser.add_argument("--chunk-ids", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bmink, campaign = _import_bmink()
    workdir = Path(args.workdir)
    for settings in workloads.chunk(args.workload, args.seed, 0):
        _config(campaign, settings, str(workdir / "unused.jsonl")).validate()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        for target in tracing.install(tracer):
            print(f"warning: trace target {target} not found", file=sys.stderr)

    chunks = []
    start = time.perf_counter()
    if args.chunk_ids is not None:
        for index in (int(i) for i in args.chunk_ids.split(",")):
            chunks.append(run_chunk(campaign, args.workload, args.seed, index,
                                    workdir))
    else:
        index = args.first_chunk
        while not chunks or time.perf_counter() - start < args.seconds:
            chunks.append(run_chunk(campaign, args.workload, args.seed, index,
                                    workdir))
            index += 1
    result = {
        "chunks": chunks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine(bmink),
        "trace": None if tracer is None else tracer.totals(),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
