import ast
import inspect
import json
import os
import subprocess
import sys
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


def _fresh(body: str, cwd) -> dict:
    """Run body in a fresh interpreter in cwd; the result holds the engine
    modules loaded at the end and the body's own `out` dict."""
    src = str(Path(bmink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "\n".join([
        "import contextlib, io, json, sys", "out = {}", body,
        f"out['loaded'] = [m for m in {ENGINE_MODULES!r} if m in sys.modules]",
        "print(json.dumps(out))"])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": path})
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
