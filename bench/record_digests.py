"""Record the report digests that bench/run.py checks for the default seeds.

    python3 bench/record_digests.py

For every workload and each seed in DEFAULT_SEEDS this runs the first
RECORDED_CHUNKS[workload] chunks once with BMINK_THREADS=1 and writes their
digests to bench/digests.json.  Rerun it only when a change is meant to
alter report bytes, and say so in the change: the recorded digests are what
shows that a speed-up left every report unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import DIGESTS, RUN_DIR, Children

DEFAULT_SEEDS = range(11)
# At least 1.5 times the chunks a 16-second run makes at the commit that
# recorded them; chunks past these are checked only against their reruns.
RECORDED_CHUNKS = {"exact-mix": 33, "voxel-dense": 32, "voxel-sparse": 27,
                   "scalar-stream": 27}


def record(workload: str, seed: int, workdir) -> list[str]:
    ids = ",".join(str(i) for i in range(RECORDED_CHUNKS[workload]))
    _, result = Children(workload, seed, workdir).spawn(
        "run", ("--chunk-ids", ids), threads="1")
    for c in result["chunks"]:
        for r in c["campaigns"]:
            if r["error"] or r["violations"]:
                raise RuntimeError(f"{workload} seed {seed} chunk "
                                   f"{c['index']} failed: {r}")
    print(workload, seed, flush=True)
    return [c["digest"] for c in result["chunks"]]


def main() -> int:
    workdir = RUN_DIR / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = [(w, s) for w in RECORDED_CHUNKS for s in DEFAULT_SEEDS]
    try:
        # Two processes at a time: each campaign runs on one worker.
        with ThreadPoolExecutor(max_workers=2) as pool:
            digests = list(pool.map(lambda job: record(*job, workdir), jobs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table: dict[str, dict[str, list[str]]] = {}
    for (workload, seed), chunk_digests in zip(jobs, digests):
        table.setdefault(workload, {})[str(seed)] = chunk_digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
