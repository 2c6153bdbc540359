import errno
import io
import json
import threading
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from bmink.campaign import (THEOREMS, _TRIALS, CampaignConfig,
                            CampaignSummary, _is_violation, run_campaign)
from bmink.exact2d import GeometryError
from bmink.inequalities import InequalityReport, shrinking_pair_demo


def small_config(**kw):
    base = dict(theorem="thm-av", engine="exact", trials=25, seed=7,
                plant_rate=0.2)
    base.update(kw)
    return CampaignConfig(**base)


def test_campaign_byte_identical_repeat():
    a, b = io.StringIO(), io.StringIO()
    run_campaign(small_config(), out=a)
    run_campaign(small_config(), out=b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().count("\n") == 25


def test_campaign_seed_changes_output():
    a, b = io.StringIO(), io.StringIO()
    run_campaign(small_config(), out=a)
    run_campaign(small_config(seed=8), out=b)
    assert a.getvalue() != b.getvalue()


def test_campaign_summary_contents():
    buf = io.StringIO()
    s = run_campaign(small_config(), out=buf)
    assert s.trials == 25 and s.reports == 25
    assert s.violations == 0 and s.exit_code == 0
    assert set(s.min_slack) == {"thm-av"} and s.min_slack["thm-av"] >= 0
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert all(l["theorem_id"] == "thm-av" for l in lines)
    assert all(l["seed"] == 7 for l in lines)
    assert [l["trial"] for l in lines] == list(range(25))
    tags = Counter(l["equality_class"]["tag"] for l in lines if l["equality"])
    assert len(tags) == 2
    assert s.to_json_dict()["equality_classes"] == dict(tags)


def test_campaign_writes_file(tmp_path):
    path = tmp_path / "out.jsonl"
    cfg = small_config(trials=5, out_path=str(path))
    s = run_campaign(cfg)
    assert s.exit_code == 0
    assert len(path.read_text().splitlines()) == 5


def test_campaign_config_validation():
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="nope").validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", trials=0).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", lam=F(3, 2)).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="thm-av", engine="exact", dim=3).validate()
    with pytest.raises(GeometryError):
        CampaignConfig(theorem="cor-multi", bodies=2).validate()


def test_exact_cor_multi_body_limit():
    # With the default coordinate range 3 the slack bound 6^(2m) fits a
    # float up to m = 198; the voxel engine's slack is a float already.
    CampaignConfig(theorem="cor-multi", engine="exact", bodies=198).validate()
    with pytest.raises(GeometryError, match="199 bodies"):
        CampaignConfig(theorem="cor-multi", engine="exact",
                       bodies=199).validate()
    CampaignConfig(theorem="cor-multi", engine="voxel", bodies=199).validate()


def test_violation_counting_and_exit_code(monkeypatch):
    # Force a rigged negative-slack report through the pipeline to check the
    # exit-code contract; honest checkers never produce one.  Forked
    # workers would run the unpatched checker, so the trials run inline.
    import bmink.campaign as camp

    monkeypatch.setattr(camp, "_workers", lambda: 1)

    def rigged(*args):
        return InequalityReport(theorem_id="thm-av", engine="exact",
                                lhs=F(0), rhs=F(1))

    monkeypatch.setattr(camp, "check_thm_av", rigged)
    s = run_campaign(small_config(trials=3, plant_rate=0.0), out=io.StringIO())
    assert s.violations == 3
    assert s.exit_code == 1
    assert len(s.violation_witnesses) == 3


def test_ratio_tagged_failures_are_not_violations():
    report = InequalityReport(theorem_id="thm-4.2", engine="voxel",
                              lhs=0.1, rhs=4.0,
                              flags=("ratio_condition_violated",),
                              details={"ratio_ok": False})
    assert not _is_violation(report)
    hard = InequalityReport(theorem_id="thm-4.2", engine="voxel",
                            lhs=0.1, rhs=4.0, details={"ratio_ok": True})
    assert _is_violation(hard)
    # The exact engine's out-of-window failure: the square [-1, 1]^2 and its
    # 1/100 copy.
    exact = shrinking_pair_demo()["report"]
    assert exact.engine == "exact" and exact.violation
    assert exact.flags == ("ratio_condition_violated",)
    assert not _is_violation(exact)
    # A failed containment is a violation inside or outside the window.
    both = InequalityReport(theorem_id="thm-4.2", engine="voxel",
                            lhs=0.1, rhs=4.0,
                            flags=("ratio_condition_violated",
                                   "containment_failed"),
                            details={"ratio_ok": False})
    assert _is_violation(both)


def test_trials_run_in_order_on_calling_thread(monkeypatch):
    # With one worker the trials run in order on the calling thread.
    import bmink.campaign as camp

    monkeypatch.setattr(camp, "_workers", lambda: 1)
    calls = []
    real = camp.trial_rng

    def recording(seed, k):
        calls.append((threading.get_ident(), k))
        return real(seed, k)

    monkeypatch.setattr(camp, "trial_rng", recording)
    run_campaign(small_config(trials=8), out=io.StringIO())
    assert calls == [(threading.get_ident(), k) for k in range(8)]


def test_lambda_forwarded_to_reports():
    cfg = CampaignConfig(theorem="thm-bbm", engine="exact", trials=4, seed=3,
                         lam=F(1, 4))
    buf = io.StringIO()
    run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert all(l["lambda"] == "1/4" for l in lines)


def test_thm42_voxel_trial_emits_three_reports():
    cfg = CampaignConfig(theorem="thm-4.2", engine="voxel", trials=2, seed=5,
                         h=1 / 16)
    buf = io.StringIO()
    s = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert s.reports == 6
    assert [l["theorem_id"] for l in lines[:3]] == ["thm-4.2", "eq-4.2", "eq-4.3"]


def test_min_slack_is_kept_per_theorem_id():
    # A voxel thm-4.2 trial reports volumes (thm-4.2), pair counts (eq-4.2)
    # and lengths (eq-4.3); their slacks are never compared with each other.
    cfg = CampaignConfig(theorem="thm-4.2", engine="voxel", trials=3, seed=5,
                         h=1 / 16)
    buf = io.StringIO()
    s = run_campaign(cfg, out=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert set(s.min_slack) == {"thm-4.2", "eq-4.2", "eq-4.3"}
    for tid, value in s.min_slack.items():
        assert value == min(float(F(l["slack"])) for l in lines
                            if l["theorem_id"] == tid)
    assert s.to_json_dict()["min_slack"] == s.min_slack


def test_summary_json_shape():
    s = CampaignSummary(theorem="thm-av", engine="exact")
    d = s.to_json_dict()
    assert set(d) == {"theorem", "engine", "trials", "reports", "violations",
                      "violation_witnesses", "equality_hits",
                      "equality_classes", "planted", "min_slack",
                      "wall_time_s"}
    assert d["min_slack"] == {}


# -- the trial table ----------------------------------------------------------

# The checker each (theorem, engine) campaign runs.
CHECKERS = {
    ("thm-av", "exact"): "check_thm_av", ("thm-av", "voxel"): "check_thm_av",
    ("thm-bbm", "exact"): "check_thm_bbm",
    ("thm-bbm", "voxel"): "check_thm_bbm",
    ("cor-multi", "exact"): "check_cor_multi",
    ("cor-multi", "voxel"): "check_cor_multi",
    ("lemma-pbm", "exact"): "check_lemma_pbm", ("rn", "exact"): "check_rn",
    ("thm-4.2", "exact"): "check_arithmetic_bm",
    ("thm-4.2", "voxel"): "check_thm_4_2_voxel",
}


def test_the_table_holds_the_ten_campaigns_in_cli_order():
    assert set(_TRIALS) == set(CHECKERS)
    assert THEOREMS == ("thm-av", "thm-bbm", "cor-multi", "lemma-pbm", "rn",
                        "thm-4.2")


@pytest.mark.parametrize("dim", (2, 3, 4))
@pytest.mark.parametrize("engine", ("exact", "voxel"))
@pytest.mark.parametrize("theorem", THEOREMS)
def test_validate_accepts_exactly_the_table(theorem, engine, dim):
    # The exact engine is planar; the voxel engine takes 2 to 4 dimensions.
    config = CampaignConfig(theorem=theorem, engine=engine, dim=dim,
                            trials=1, seed=5, h=1 / 16)
    if (theorem, engine) not in _TRIALS or (engine == "exact" and dim != 2):
        with pytest.raises(GeometryError):
            config.validate()
        return
    config.validate()
    if dim == 2:
        buf = io.StringIO()
        assert run_campaign(config, out=buf).trials == 1
        assert buf.getvalue().count("\n") >= 1


@pytest.mark.parametrize("key", sorted(CHECKERS), ids="-".join)
def test_every_trial_calls_its_checker_through_the_module_global(
        monkeypatch, key):
    # The bench's per-layer spans and the tests that rig a checker rebind
    # these globals; a trial that held its own reference would bypass them.
    import bmink.campaign as camp

    called = []

    def recording(name, checker):
        def wrapper(*args):
            called.append(name)
            return checker(*args)
        return wrapper

    for name in set(CHECKERS.values()):
        monkeypatch.setattr(camp, name, recording(name, getattr(camp, name)))
    theorem, engine = key
    config = CampaignConfig(theorem=theorem, engine=engine, trials=1, seed=2,
                            h=1 / 16)
    config.validate()
    assert camp._run_trial(config, 0)
    assert called == [CHECKERS[key]]


# -- trials on worker processes ---------------------------------------------------

# Every (theorem, engine) pair, with trial counts that are not a multiple of
# the block size at two workers.
POOL_CASES = [
    dict(theorem="thm-av", engine="exact", trials=19, plant_rate=0.3),
    dict(theorem="thm-bbm", engine="exact", trials=11, plant_rate=0.3),
    dict(theorem="cor-multi", engine="exact", trials=11, plant_rate=0.3),
    dict(theorem="lemma-pbm", engine="exact", trials=37),
    dict(theorem="rn", engine="exact", trials=37),
    dict(theorem="thm-4.2", engine="exact", trials=11),
    dict(theorem="thm-av", engine="voxel", trials=11, h=1 / 16),
    dict(theorem="thm-bbm", engine="voxel", trials=11, h=1 / 16),
    dict(theorem="cor-multi", engine="voxel", trials=11, h=1 / 16),
    dict(theorem="thm-4.2", engine="voxel", trials=11, h=1 / 16),
    dict(theorem="thm-4.2", engine="voxel", trials=11, dim=3, h=1 / 8),
]


def _bytes_and_summary(config):
    buf = io.StringIO()
    summary = run_campaign(config, out=buf).to_json_dict()
    del summary["wall_time_s"]
    return buf.getvalue(), summary


@pytest.mark.parametrize("case", POOL_CASES, ids=lambda c: "-".join(
    [c["theorem"], c["engine"], f"{c.get('dim', 2)}d"]))
def test_pool_and_one_worker_give_the_same_bytes(monkeypatch, case):
    import bmink.campaign as camp

    config = CampaignConfig(seed=3, **case)
    monkeypatch.setattr(camp, "_workers", lambda: 2)
    assert camp.worker_count(config.trials) == 2
    assert config.trials % camp._block_size(config.trials, 2) != 0
    pooled = _bytes_and_summary(config)
    monkeypatch.setattr(camp, "_workers", lambda: 1)
    assert camp.worker_count(config.trials) == 1
    assert pooled == _bytes_and_summary(config)
    assert pooled[0].count("\n") == pooled[1]["reports"] > 0


def test_worker_count_follows_cpus_and_blocks(monkeypatch):
    import bmink.campaign as camp

    monkeypatch.setattr(camp, "_workers", lambda: 4)
    assert [camp.worker_count(t) for t in (1, 2, 3, 4, 5, 10 ** 6)] == [
        1, 2, 3, 4, 4, 4]
    monkeypatch.setattr(camp, "_workers", lambda: 1)
    assert camp.worker_count(10 ** 6) == 1


RAISING_TRIAL = """
from bmink import campaign
from bmink.campaign import CampaignConfig, run_campaign
from bmink.exact2d import GeometryError

run_trial = campaign._run_trial

def rigged(config, k):
    # Every fifth trial is a violation; trial 23 raises.
    if config.theorem == "thm-bbm" and k == 23:
        raise GeometryError(f"trial {k} of seed {config.seed} failed")
    reports = run_trial(config, k)
    if k % 5 == 0:
        reports[0].flags += ("containment_failed",)
    return reports

campaign._run_trial = rigged  # before any worker is forked
for workers in (2, 1):
    campaign._workers = lambda: workers
    side = out[str(workers)] = {}
    buf = io.StringIO()
    summary = run_campaign(CampaignConfig(theorem="thm-av", trials=61,
                                          seed=4), out=buf).to_json_dict()
    del summary["wall_time_s"]
    side["summary"], side["bytes"] = summary, buf.getvalue()
    buf = io.StringIO()
    try:
        run_campaign(CampaignConfig(theorem="thm-bbm", trials=50, seed=4),
                     out=buf)
    except GeometryError as exc:
        side["error"] = [type(exc).__name__, str(exc)]
    side["partial"] = buf.getvalue()
import multiprocessing
out["forked"] = len(multiprocessing.active_children())
"""


def test_violations_and_a_raising_trial_match_one_worker(tmp_path):
    # In a fresh interpreter, so the patched trial code precedes the fork.
    from test_package import _fresh

    result = _fresh(RAISING_TRIAL, tmp_path)
    pooled, inline = result["2"], result["1"]
    assert result["forked"] == 2
    assert pooled == inline
    assert inline["summary"]["violations"] == 13
    assert len(inline["summary"]["violation_witnesses"]) == 10
    assert inline["error"] == ["GeometryError", "trial 23 of seed 4 failed"]
    assert [json.loads(line)["trial"] for line in
            inline["partial"].splitlines()] == list(range(23))


ODD_EXCEPTION = """
from bmink import campaign
from bmink.campaign import CampaignConfig, run_campaign

class Odd(Exception):
    # Pickled, it keeps only its message, so a copy cannot be rebuilt.
    def __init__(self, trial, seed):
        super().__init__(f"trial {trial} of seed {seed} is odd")

run_trial = campaign._run_trial

def rigged(config, k):
    if config.seed == 4 and k == 23:
        raise Odd(k, config.seed)
    return run_trial(config, k)

campaign._run_trial = rigged  # before any worker is forked
for workers in (2, 1):
    campaign._workers = lambda: workers
    side = out[str(workers)] = {}
    buf = io.StringIO()
    try:
        run_campaign(CampaignConfig(theorem="rn", trials=50, seed=4), out=buf)
    except Odd as exc:
        side["error"] = [type(exc).__name__, str(exc)]
    side["partial"] = buf.getvalue()
    pool = campaign._POOL
    buf = io.StringIO()
    run_campaign(CampaignConfig(theorem="rn", trials=50, seed=5), out=buf)
    side["next"] = buf.getvalue()
    side["same_pool"] = pool is not None and campaign._POOL is pool
"""


def test_an_exception_that_cannot_be_pickled_is_raised_as_on_one_worker(
        tmp_path):
    # A pooled campaign raises a trial's own exception after the same lines
    # as one worker, and leaves the pool working for the next campaign.
    from test_package import _fresh

    result = _fresh(ODD_EXCEPTION, tmp_path)
    pooled, inline = result["2"], result["1"]
    assert pooled["error"] == inline["error"] == [
        "Odd", "trial 23 of seed 4 is odd"]
    assert pooled["partial"] == inline["partial"]
    assert [json.loads(line)["trial"] for line in
            inline["partial"].splitlines()] == list(range(23))
    assert pooled["next"] == inline["next"]
    assert inline["next"].count("\n") == 50
    assert pooled["same_pool"]  # the campaign after it ran with no retry


class _Recording:
    """A worker's pipe end that records each block sent through it; the
    blocks sent and not yet merged are counted across all the workers."""

    def __init__(self, conn, log):
        self.conn, self.log = conn, log

    def fileno(self):
        return self.conn.fileno()

    def send(self, request):
        _, start, stop = request
        self.log.open += 1
        self.log.most = max(self.log.most, self.log.open)
        self.log.blocks.append((start, stop))
        self.conn.send(request)

    def recv(self):
        return self.conn.recv()


class _Log:
    def __init__(self):
        self.open = self.most = 0
        self.blocks = []


def test_blocks_in_flight_stay_bounded(monkeypatch):
    # Trial 0 is slow on the workers, so the others run ahead of its block
    # until the window of blocks sent and not yet merged is full.
    import bmink.campaign as camp

    run_trial = camp._run_trial

    def slow_start(config, k):
        if k == 0:
            time.sleep(0.5)
        return run_trial(config, k)

    monkeypatch.setattr(camp, "_workers", lambda: 3)
    camp._drop_pool()
    monkeypatch.setattr(camp, "_run_trial", slow_start)
    real, log = camp._pool(), _Log()
    monkeypatch.setattr(camp, "_run_trial", run_trial)
    try:
        monkeypatch.setattr(camp, "_pool", lambda: [
            (_Recording(end, log), worker) for end, worker in real])
        consume = camp._consume

        def merged(summary, block, stream):
            log.open -= 1
            consume(summary, block, stream)

        monkeypatch.setattr(camp, "_consume", merged)
        config = CampaignConfig(theorem="rn", trials=6000, seed=2)
        pooled = _bytes_and_summary(config)
        assert camp._POOL is real  # no block was left in flight
    finally:
        camp._drop_pool()
    assert log.most == 2 * 3 and log.open == 0
    starts, stops = zip(*log.blocks)
    assert starts == (0,) + stops[:-1] and stops[-1] == 6000
    assert max(b - a for a, b in log.blocks) == camp._MAX_BLOCK
    monkeypatch.setattr(camp, "_consume", consume)
    monkeypatch.setattr(camp, "_workers", lambda: 1)
    assert pooled == _bytes_and_summary(config)


DEAD_WORKER = """
import multiprocessing, os, signal
from bmink import campaign
from bmink.campaign import CampaignConfig, run_campaign

campaign._workers = lambda: 2
campaign_config = CampaignConfig(theorem="thm-av", trials=40, seed=1)

def run():
    buf = io.StringIO()
    run_campaign(campaign_config, out=buf)
    return buf.getvalue()

first = run()
victim = multiprocessing.active_children()[0]
os.kill(victim.pid, signal.SIGKILL)
victim.join(10)
try:
    out["same"] = run() == first
except Exception as exc:
    out["error"] = type(exc).__name__
"""


def test_a_dead_worker_drops_the_pool(tmp_path):
    # A worker that died between campaigns breaks the pool before the next
    # campaign merges anything, so that campaign runs again on a fresh pool
    # and gives the same bytes.
    from test_package import _fresh

    assert _fresh(DEAD_WORKER, tmp_path) == {"same": True, "loaded": []}


WORKER_EXIT = """
import multiprocessing, os
from concurrent.futures.process import BrokenProcessPool
from bmink import campaign
from bmink.campaign import CampaignConfig, run_campaign

run_trial, parent = campaign._run_trial, os.getpid()

def rigged(config, k):
    # The worker that runs trial 0 exits, leaving a mark, on every pool.
    if k == 0 and os.getpid() != parent:
        open(f"exit-{os.getpid()}", "w").close()
        os._exit(3)
    return run_trial(config, k)

campaign._run_trial = rigged  # before any worker is forked
campaign._workers = lambda: 2
buf = io.StringIO()
try:
    run_campaign(CampaignConfig(theorem="rn", trials=40, seed=1), out=buf)
except BrokenProcessPool as exc:
    out["error"] = type(exc).__name__
out["bytes"] = buf.getvalue()
out["exits"] = len([f for f in os.listdir() if f.startswith("exit-")])
out["children"] = len(multiprocessing.active_children())
"""


def test_a_worker_lost_in_the_campaign_breaks_it_after_one_retry(tmp_path):
    # The first block's worker dies on the first pool and on the fresh one:
    # the campaign raises, writes nothing and leaves no worker behind.
    from test_package import _fresh

    assert _fresh(WORKER_EXIT, tmp_path) == {
        "error": "BrokenProcessPool", "bytes": "", "exits": 2, "children": 0,
        "loaded": []}


THREADS = """
import multiprocessing, threading
from bmink import campaign
from bmink.campaign import CampaignConfig, run_campaign

campaign._workers = lambda: 2
out["before"] = threading.active_count()
out["trials"] = run_campaign(CampaignConfig(theorem="rn", trials=40)).trials
out["after"] = threading.active_count()
out["forked"] = len(multiprocessing.active_children())
"""


def test_a_pooled_campaign_starts_no_thread(tmp_path):
    from test_package import _fresh

    assert _fresh(THREADS, tmp_path) == {
        "before": 1, "trials": 40, "after": 1, "forked": 2, "loaded": []}


class _FullDisk(io.StringIO):
    """A report stream that fails as a full disk would on the write that
    takes it past 30 lines."""

    def write(self, text):
        if self.getvalue().count("\n") + text.count("\n") > 30:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


def test_an_interrupted_campaign_leaves_no_stale_block(monkeypatch):
    # The write fails with later blocks in flight; the next campaign must
    # read none of their replies.
    import bmink.campaign as camp

    monkeypatch.setattr(camp, "_workers", lambda: 2)
    with pytest.raises(OSError):
        run_campaign(CampaignConfig(theorem="thm-av", trials=200, seed=1),
                     out=_FullDisk())
    config = CampaignConfig(theorem="thm-av", trials=200, seed=2)
    pooled = _bytes_and_summary(config)
    monkeypatch.setattr(camp, "_workers", lambda: 1)
    assert pooled == _bytes_and_summary(config)
