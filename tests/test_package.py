import ast
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bmink


def test_every_exported_name_resolves():
    missing = [name for name in bmink.__all__ if not hasattr(bmink, name)]
    assert missing == []
    assert len(set(bmink.__all__)) == len(bmink.__all__)


@pytest.mark.parametrize("checker", [
    bmink.check_thm_av, bmink.check_cor_multi, bmink.check_thm_bbm,
    bmink.check_lemma_pbm, bmink.check_rn, bmink.check_arithmetic_bm,
    bmink.check_thm_4_2_voxel,
], ids=lambda f: f.__name__)
def test_checkers_take_only_their_mathematical_inputs(checker):
    # The campaign stamps seed, trial and shapes on each report, and the
    # engine follows from the type of the bodies.
    params = set(inspect.signature(checker).parameters)
    assert not params & {"shapes", "seed", "trial", "engine"}


# -- the voxel engine loads only for voxel work ------------------------------

ENGINE_MODULES = ("numpy", "scipy", "bmink.voxel")


def _env() -> dict:
    """The environment of a fresh interpreter that imports this bmink."""
    src = str(Path(bmink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _fresh(body: str, cwd) -> dict:
    """Run body in a fresh interpreter in cwd; the result holds the engine
    modules loaded at the end and the body's own `out` dict."""
    code = "\n".join([
        "import contextlib, io, json, sys", "out = {}", body,
        f"out['loaded'] = [m for m in {ENGINE_MODULES!r} if m in sys.modules]",
        "print(json.dumps(out))"])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, cwd=cwd, env=_env())
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


EXACT_CAMPAIGNS = """
import bmink
from bmink.campaign import THEOREMS, CampaignConfig, run_campaign
out['trials'] = [run_campaign(CampaignConfig(
    theorem=theorem, trials=3, out_path=theorem + '.jsonl')).trials
    for theorem in THEOREMS]
"""

EXACT_COMMANDS = """
from bmink.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    out['codes'] = [
        main(['verify', 'rn', '--trials', '3', '--out', 'rn.jsonl']),
        main(['erode', '--k', 'k.json', '--t', 't.json', '--engine', 'exact']),
        main(['render', '--k', 'k.json', '--t', 't.json', '--out', 'kt.svg']),
        main(['demo', 'remark-4.3'])]
"""


@pytest.mark.parametrize("body,done", [
    (EXACT_CAMPAIGNS, {"trials": [3] * 6}),
    (EXACT_COMMANDS, {"codes": [0] * 4}),
], ids=["campaigns", "cli"])
def test_exact_and_scalar_work_never_loads_numpy_or_scipy(tmp_path, body,
                                                          done):
    (tmp_path / "k.json").write_text(
        '{"kind": "box", "lo": ["-2", "-2"], "hi": ["2", "2"]}')
    (tmp_path / "t.json").write_text(
        '{"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"]]}')
    assert _fresh(body, tmp_path) == {**done, "loaded": []}


def test_validating_a_voxel_config_loads_the_voxel_engine(tmp_path):
    result = _fresh("from bmink.campaign import CampaignConfig\n"
                    "CampaignConfig(theorem='thm-av', engine='voxel')"
                    ".validate()", tmp_path)
    assert result["loaded"] == list(ENGINE_MODULES)


def test_lazy_exports_are_their_home_modules_names(tmp_path):
    # dir() lists every exported name without loading the voxel engine;
    # each lazy name then resolves to the object of bmink.voxel.
    result = _fresh("""
import importlib
import bmink
out['unlisted'] = sorted(set(bmink.__all__) - set(dir(bmink)))
out['loaded_by_dir'] = 'bmink.voxel' in sys.modules
out['not_exported'] = sorted(set(bmink._LAZY) - set(bmink.__all__))
out['foreign'] = [name for name in bmink._LAZY if getattr(bmink, name)
                  is not getattr(importlib.import_module('bmink.voxel'), name)]
""", tmp_path)
    assert result == {"unlisted": [], "loaded_by_dir": False,
                      "not_exported": [], "foreign": [],
                      "loaded": list(ENGINE_MODULES)}
    with pytest.raises(AttributeError, match="no_such_name"):
        bmink.no_such_name


def _imported_modules(tree: ast.AST):
    """The absolute module names a parsed module imports, at any nesting
    level: in functions, branches and TYPE_CHECKING blocks alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_voxel_is_the_only_module_that_imports_numpy_or_scipy():
    package = Path(bmink.__file__).resolve().parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        if any(name.split(".")[0] in ("numpy", "scipy") for name in
               _imported_modules(ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == ["voxel.py"]


# -- worker processes -------------------------------------------------------------

PROCESS_MODULES = ("multiprocessing", "concurrent.futures")


def test_validating_configs_loads_no_process_machinery(tmp_path):
    result = _fresh(f"""
import bmink
from bmink.campaign import CampaignConfig
for theorem in ("thm-av", "rn"):
    CampaignConfig(theorem=theorem).validate()
out['process'] = [m for m in {PROCESS_MODULES!r} if m in sys.modules]
""", tmp_path)
    assert result == {"process": [], "loaded": []}


def test_no_worker_outlives_the_cli(tmp_path):
    result = _fresh("""
import multiprocessing
from bmink.cli import main
with contextlib.redirect_stderr(io.StringIO()):
    out['code'] = main(['verify', 'thm-av', '--trials', '64', '--out',
                        'r.jsonl'])
out['children'] = [p.pid for p in multiprocessing.active_children()]
""", tmp_path)
    from bmink.campaign import worker_count

    assert result["code"] == 0
    expected = worker_count(64)
    assert len(result["children"]) == (expected if expected > 1 else 0)
    for pid in result["children"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_one_cpu_forks_nothing(tmp_path):
    result = _fresh(f"""
import os
import signal
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from bmink.campaign import CampaignConfig, run_campaign, worker_count
out['workers'] = worker_count(64)
out['trials'] = run_campaign(CampaignConfig(theorem='thm-av', trials=64)).trials
out['process'] = [m for m in {PROCESS_MODULES!r} if m in sys.modules]
""", tmp_path)
    assert result == {"workers": 1, "trials": 64, "process": [], "loaded": []}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_the_calling_process_is_killed(tmp_path):
    # A killed interpreter runs no exit handler; its workers notice that
    # their parent is gone and exit by themselves.
    code = "\n".join([
        "import multiprocessing, os, signal",
        "from bmink import campaign",
        "from bmink.campaign import CampaignConfig, run_campaign",
        "campaign._workers = lambda: 2",
        "run_campaign(CampaignConfig(theorem='thm-av', trials=40))",
        "print(*(p.pid for p in multiprocessing.active_children()), flush=True)",
        "os.kill(os.getpid(), signal.SIGKILL)"])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, cwd=tmp_path, env=_env())
    pids = [int(pid) for pid in run.stdout.split()]
    assert run.returncode == -9 and len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(map(_alive, pids))


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_worker_exits_with_the_caller_while_a_later_one_is_stopped(
        tmp_path):
    # Each worker closes the calling process's pipe ends it inherited, so
    # the first worker's pipe ends with the calling process even while the
    # worker forked after it, which inherited that end, cannot run.
    code = "\n".join([
        "import os, signal",
        "from bmink import campaign",
        "from bmink.campaign import CampaignConfig, run_campaign",
        "campaign._workers = lambda: 2",
        "run_campaign(CampaignConfig(theorem='rn', trials=40))",
        "first, last = (worker.pid for _, worker in campaign._POOL)",
        "print(first, last, flush=True)",
        "os.kill(last, signal.SIGSTOP)",
        "os.kill(os.getpid(), signal.SIGKILL)"])
    # The stopped worker keeps the interpreter's stdout open: use a file.
    with open(tmp_path / "pids", "w+", encoding="ascii") as pids:
        run = subprocess.run([sys.executable, "-c", code], stdout=pids,
                             timeout=60, cwd=tmp_path, env=_env())
        pids.seek(0)
        first, last = (int(pid) for pid in pids.read().split())
    try:
        assert run.returncode == -9
        deadline = time.monotonic() + 10
        while _alive(first) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _alive(first)
    finally:
        os.kill(last, signal.SIGKILL)
