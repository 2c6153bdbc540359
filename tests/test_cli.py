import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import bmink
from bmink.campaign import CampaignConfig
from bmink.cli import (EXIT_CLOSED_STDOUT, _CONFIG_FIELDS, _verify_config,
                       build_parser, main)
from bmink.serialize import MAX_SPEC_DEPTH, shapespec_to_json
from bmink.voxel import ShapeSpec


@pytest.fixture
def shape_files(tmp_path):
    k = tmp_path / "k.json"
    t = tmp_path / "t.json"
    k.write_text(json.dumps(shapespec_to_json(ShapeSpec.box((-2, -2), (2, 2)))))
    t.write_text(json.dumps(
        {"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}))
    return str(k), str(t)


def test_verify_writes_jsonl_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    code = main(["verify", "thm-av", "--engine", "exact", "--trials", "10",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["violations"] == 0


def test_verify_stdout_when_no_out(capsys):
    code = main(["verify", "lemma-pbm", "--trials", "5", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 5


def test_verify_reproducible_files(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["verify", "thm-bbm", "--trials", "8", "--seed", "11",
            "--lambda", "1/4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "seed": 9}))
    out = tmp_path / "o.jsonl"
    code = main(["verify", "rn", "--config", str(cfg), "--trials", "6",
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 6  # flag wins over config file
    assert all(l["seed"] == 9 for l in lines)


def test_verify_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["verify", "rn", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("values", [
    {"trials": True}, {"trials": 2.9}, {"seed": 1.5}, {"dim": "2"},
    {"bodies": 3.0}, {"plant_rate": False}, {"out": 2},
], ids=["trials-bool", "trials-float", "seed-float", "dim-string",
        "bodies-float", "plant-rate-bool", "out-int"])
def test_verify_rejects_wrongly_typed_config_values(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main(["verify", "rn", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_every_campaign_setting_has_a_config_key():
    # The theorem is the positional argument; every other field of the
    # config is reachable from a flag and a config file key.
    assert {f.name for f in fields(CampaignConfig)} == {
        "theorem", *_CONFIG_FIELDS.values()}


def test_verify_config_accepts_null_out_and_integer_plant_rate(tmp_path,
                                                               capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None, "plant_rate": 0, "trials": 2}))
    assert main(["verify", "thm-av", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_decompose_command(shape_files, capsys):
    k, t = shape_files
    code = main(["decompose", "--k", k, "--t", t, "--res", "1/16"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    assert "volume[sum]" in out


@pytest.mark.parametrize("lo", [0, 100])
def test_decompose_far_from_the_origin(tmp_path, capsys, lo):
    # A box paired with itself has an empty erosion.  The empty set's array
    # sits at the lattice origin, and must not stretch the frame of the
    # union (bK + bT) | erosion from there to a box far away.
    far = tmp_path / "far.json"
    far.write_text(json.dumps(shapespec_to_json(
        ShapeSpec.box((lo, lo), (lo + 1, lo + 1)))))
    code = main(["decompose", "--k", str(far), "--t", str(far),
                 "--res", "1/32"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.count("pass") == 4


def test_erode_exact_command(shape_files, capsys):
    k, t = shape_files
    code = main(["erode", "--k", k, "--t", t])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "exact"
    assert payload["empty"] is False
    assert payload["area"] == "4"
    verts = payload["region"]["vertices"]
    assert ["-1", "-1"] in verts


def test_erode_exact_reports_disk_gap(tmp_path, capsys):
    k = tmp_path / "k.json"
    t = tmp_path / "t.json"
    k.write_text(json.dumps(shapespec_to_json(ShapeSpec.box((-2, -2), (2, 2)))))
    t.write_text(json.dumps(shapespec_to_json(ShapeSpec.ball((0, 0), 1))))
    assert main(["erode", "--k", str(k), "--t", str(t)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["input_approximation_gap"] < 0.01


_BOX = '{"kind": "box", "lo": [-2, -2], "hi": [2, 2]}'
_BALL = '{"kind": "ball", "center": ["1/2", 0], "radius": "3/4"}'


@pytest.mark.parametrize("k, t, expected", [
    (_BOX, _BALL,
     '{"area":"25/4","empty":false,"engine":"exact",'
     '"input_approximation_gap":0.00283715393099615,'
     '"note":"stored region is the closure; the true set is its interior",'
     '"region":{"vertices":[["-3/4","-5/4"],["7/4","-5/4"],["7/4","5/4"],'
     '["-3/4","5/4"]]}}'),
    (_BALL, _BOX,
     '{"area":"0","empty":true,"engine":"exact",'
     '"input_approximation_gap":0.0028371539309972604,'
     '"note":"stored region is the closure; the true set is its interior"}'),
    ('{"vertices": [["2", "0"], ["0", "2"], ["-2", "1"], ["-1", "-2"], '
     '["1", "-2"]]}',
     '{"vertices": [["0", "0"], ["1", "0"], ["-1/5", "1/7"]]}',
     '{"area":"7229/1225","empty":false,"engine":"exact",'
     '"note":"stored region is the closure; the true set is its interior",'
     '"region":{"vertices":[["-1","1"],["-1/21","-13/7"],["4/5","-13/7"],'
     '["9/5","1/7"],["31/105","173/105"]]}}'),
], ids=["box-by-ball", "ball-by-box", "pentagon-by-triangle"])
def test_erode_exact_output_bytes(tmp_path, capsys, k, t, expected):
    # The gap sums K's and T's area deficits in that order, so the two
    # orders differ in the last digits; both are pinned.  Polygon files
    # have no gap, and their region mixes integer, negative and unlike
    # denominators.
    (tmp_path / "k.json").write_text(k)
    (tmp_path / "t.json").write_text(t)
    assert main(["erode", "--k", str(tmp_path / "k.json"),
                 "--t", str(tmp_path / "t.json")]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_erode_voxel_command(shape_files, capsys):
    k, t = shape_files
    code = main(["erode", "--k", k, "--t", t, "--engine", "voxel",
                 "--res", "1/32"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "voxel"
    assert abs(payload["volume"] - 4.0) <= 0.3


def test_polygon_node_is_the_same_hull_on_both_engines(tmp_path, capsys):
    # The ring dents inward at (1, 1/5); its hull is the square [0, 2]^2.
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"kind": "polygon", "vertices": [
        [0, 0], [2, 0], [1, "1/5"], [2, 2], [0, 2]]}))
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"kind": "box", "lo": ["-1/8", "-1/8"],
                             "hi": ["1/8", "1/8"]}))
    assert main(["erode", "--k", str(k), "--t", str(t)]) == 0
    assert json.loads(capsys.readouterr().out)["area"] == "49/16"
    assert main(["erode", "--k", str(k), "--t", str(t), "--engine", "voxel",
                 "--res", "1/32"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["volume"] - 49 / 16) <= 0.3


@pytest.mark.parametrize("command", [
    ["erode"], ["erode", "--engine", "voxel"], ["decompose"]])
def test_collinear_polygon_node_errors_on_both_engines(tmp_path, capsys,
                                                       command):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"kind": "polygon",
                             "vertices": [[0, 0], [1, 1], [2, 2]]}))
    assert main(command + ["--k", str(k), "--t", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_inexact_convolution_errors_cleanly(shape_files, tmp_path,
                                           monkeypatch, capsys):
    inverse = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *args, **kwargs: inverse(*args, **kwargs) + 0.3)
    k, _ = shape_files
    # A disk, not a box: the erosion takes the convolution.
    t = tmp_path / "disk.json"
    t.write_text(json.dumps({"kind": "ball", "center": [0, 0],
                             "radius": "1"}))
    code = main(["erode", "--k", k, "--t", str(t), "--engine", "voxel",
                 "--res", "1/32"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_render_command(shape_files, tmp_path, capsys):
    k, t = shape_files
    out = tmp_path / "fig.svg"
    code = main(["render", "--k", k, "--t", t, "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_demo_remark_numbers(capsys):
    code = main(["demo", "remark-4.3", "--a", "1/100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.16" in out
    assert "4.0004" in out
    assert "FAILS, as expected" in out


def test_missing_file_errors_cleanly(tmp_path, capsys):
    code = main(["erode", "--k", str(tmp_path / "nope.json"),
                 "--t", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_non_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["verify", "rn", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_shape_file_missing_field_errors_cleanly(tmp_path, capsys):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"kind": "box"}))
    assert main(["erode", "--k", str(k), "--t", str(k)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_shape_file_bad_number_errors_cleanly(tmp_path, capsys):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"kind": "ball", "center": [0, 0],
                             "radius": "x"}))
    assert main(["erode", "--k", str(k), "--t", str(k)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _reflected_box(depth: int) -> str:
    """Shape file text: a box inside `depth` nested reflected nodes."""
    return ('{"kind": "reflected", "child": ' * depth
            + '{"kind": "box", "lo": [0, 0], "hi": [1, 1]}' + "}" * depth)


@pytest.mark.parametrize("text", [
    _reflected_box(MAX_SPEC_DEPTH + 1),
    _reflected_box(900),
    "[" * 100_000 + "]" * 100_000,
], ids=["spec-limit", "spec-900", "json-arrays"])
def test_deeply_nested_shape_file_errors_cleanly(tmp_path, capsys,
                                                 shape_files, text):
    k = tmp_path / "deep.json"
    k.write_text(text)
    assert main(["decompose", "--k", str(k), "--t", shape_files[1]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nests" in err
    assert len(err.splitlines()) == 1


def test_shape_file_at_the_nesting_limit_loads(tmp_path):
    k = tmp_path / "k.json"
    k.write_text(_reflected_box(MAX_SPEC_DEPTH))
    assert main(["erode", "--engine", "voxel", "--k", str(k), "--t", str(k),
                 "--res", "1/8"]) == 0


@pytest.mark.parametrize("command", [["erode", "--engine", "voxel"],
                                     ["decompose"]])
@pytest.mark.parametrize("spec", [
    {"kind": "box", "lo": [0, 0], "hi": [float("inf"), 1]},
    {"kind": "ball", "center": [1e300, 0], "radius": 1},
], ids=["infinite-box", "far-ball"])
def test_non_finite_shape_window_errors_cleanly(tmp_path, capsys, command,
                                                spec):
    k = tmp_path / "k.json"
    # json.dumps writes inf as `Infinity`; a literal 1e400 parses the same.
    k.write_text(json.dumps(spec).replace("Infinity", "1e400"))
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"kind": "box", "lo": [0, 0], "hi": [1, 1]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--k", str(k), "--t", str(t), "--res", "1/32"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert len(err.splitlines()) == 1


def _one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", [["erode", "--engine", "exact"],
                                     ["render", "--out", "fig.svg"]],
                         ids=["erode-exact", "render"])
@pytest.mark.parametrize("text", [
    '{"kind": "scaled", "factor": 1, "child": 5}',
    '{"kind": "union", "parts": [5, 6]}',
    '{"kind": "simplex", "dim": 1e400}',
    '{"kind": "simplex", "dim": 2.7}',
    '{"kind": "box", "lo": [0, 0], "hi": [1e400, 1]}',
    '{"kind": "ball", "center": [0, 0], "radius": 1e200}',
    '{"vertices": [[0, 0], [1e400, 0], [0, 1]]}',
    '{"kind": "box", "lo": "00", "hi": "12"}',
    '{"kind": "polygon", "vertices": ["00", "10", "01"]}',
    '{"vertices": ["00", "10", "01"]}',
], ids=["scalar-child", "scalar-parts", "infinite-dim", "fractional-dim",
        "infinite-box", "huge-ball", "infinite-polygon-vertex",
        "string-corners", "string-points", "string-polygon-file-points"])
def test_malformed_shape_file_errors_cleanly(tmp_path, capsys, monkeypatch,
                                             command, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(text)
    (tmp_path / "t.json").write_text(
        '{"kind": "box", "lo": [0, 0], "hi": [1, 1]}')
    assert main(command + ["--k", "k.json", "--t", "t.json"]) == 2
    _one_error_line(capsys)
    assert not (tmp_path / "fig.svg").exists()


_VOXEL_THM_AV = ["verify", "thm-av", "--engine", "voxel", "--trials", "1"]


@pytest.mark.parametrize("argv, config", [
    (_VOXEL_THM_AV + ["--res", "1e400"], None),
    (_VOXEL_THM_AV + ["--res", "1e300"], None),
    (_VOXEL_THM_AV, {"res": "1e400"}),
    (_VOXEL_THM_AV, {"res": "1e300"}),
    (["decompose", "--res", "1e400"], None),
    (["erode", "--engine", "voxel", "--res", "1e400"], None),
], ids=["verify-flag", "verify-flag-finite", "verify-config",
        "verify-config-finite", "decompose", "erode-voxel"])
def test_oversized_resolution_errors_cleanly(tmp_path, capsys, shape_files,
                                             argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    if argv[0] != "verify":
        argv = argv + ["--k", shape_files[0], "--t", shape_files[1]]
    assert main(argv) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("number", ["1e9999999", "1E-9999999"])
@pytest.mark.parametrize("where", ["flag", "shape-file", "config"])
def test_huge_decimal_exponent_errors_quickly(tmp_path, capsys, shape_files,
                                             where, number):
    # Fraction computes 10**exponent exactly: about 10 s for these inputs
    # without the exponent bound.
    start = time.monotonic()
    if where == "flag":
        with pytest.raises(SystemExit) as exit_:
            main(["demo", "remark-4.3", "--a", number])
        code = exit_.value.code
        err = capsys.readouterr().err.splitlines()[-1]
    else:
        if where == "shape-file":
            k = tmp_path / "k.json"
            k.write_text(json.dumps({"kind": "ball", "center": [0, number],
                                     "radius": 1}))
            argv = ["erode", "--k", str(k), "--t", shape_files[1]]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"res": number}))
            argv = _VOXEL_THM_AV + ["--config", str(tmp_path / "cfg.json")]
        code = main(argv)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "error:" in err and "exponent" in err


def test_demo_runs_with_an_area_ratio_beyond_the_float_range(capsys):
    # The exact report keeps its areas as rationals and records no float
    # ratio, so the area ratio 1/a^2 may pass the float range, as it does
    # at a = 1e-160 and not at a = 1e-150.
    for a in ("1e-160", "1e-150"):
        assert main(["demo", "remark-4.3", "--a", a]) == 0
        assert "FAILS, as expected" in capsys.readouterr().out


def _checkout_env() -> dict:
    # A checkout runs the CLI without installing it: PYTHONPATH names the
    # directory that holds the package, and `python -m bmink` finds main.
    src = str(Path(bmink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_python_m_bmink_runs_the_cli():
    run = subprocess.run(
        [sys.executable, "-m", "bmink", "demo", "remark-4.3", "--a", "1/100"],
        capture_output=True, text=True, timeout=120, env=_checkout_env())
    assert run.returncode == 0, run.stderr
    assert "4.0004" in run.stdout and "FAILS, as expected" in run.stdout


def test_verify_into_a_pipe_closed_after_one_line():
    # `bmink verify rn --trials 20000 | head -1`: the reports run to
    # megabytes, so the campaign is still writing when the reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bmink", "verify", "rn", "--trials", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env())
    try:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        proc.wait(timeout=120)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert first["theorem_id"] == "rn" and first["trial"] == 0
    assert err == b""
    assert proc.returncode == EXIT_CLOSED_STDOUT == 141


def test_decompose_into_a_closed_pipe(shape_files):
    # decompose writes its few lines in one flush, so the reader is gone
    # before the command starts: the first write meets the closed pipe.
    k, t = shape_files
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "bmink", "decompose", "--k", k, "--t", t,
             "--res", "1/16"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=_checkout_env())
    finally:
        os.close(write_end)
    assert run.stderr == b""
    assert run.returncode == EXIT_CLOSED_STDOUT


def test_flagless_verify_takes_campaign_defaults():
    args = build_parser().parse_args(["verify", "thm-bbm"])
    assert _verify_config(args) == CampaignConfig(theorem="thm-bbm")


@pytest.mark.parametrize("theorem", ["lemma-pbm", "rn"])
def test_verify_rejects_voxel_engine_for_scalar_checks(theorem, capsys):
    assert main(["verify", theorem, "--engine", "voxel", "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "voxel" in err


def test_verify_4d_decomposition_campaign_runs(tmp_path, capsys):
    # Trial 3 of seed 1 draws a K smaller than the smallest box T at this
    # resolution; the generator redraws it instead of aborting the campaign.
    out = tmp_path / "r.jsonl"
    code = main(["verify", "thm-4.2", "--engine", "voxel", "--dim", "4",
                 "--res", "1/8", "--trials", "6", "--seed", "1",
                 "--out", str(out)])
    assert code in (0, 1)
    assert len(out.read_text().splitlines()) == 18


@pytest.mark.parametrize("bodies", ["199", "250", "1000"])
def test_verify_rejects_exact_cor_multi_beyond_float_slack(bodies, capsys):
    assert main(["verify", "cor-multi", "--bodies", bodies,
                 "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_rejects_a_voxel_cor_multi_sum_beyond_the_caps_early(capsys):
    # The sum of the 1100 bodies spans 7401 cells per axis, beyond the cap
    # of 4096: the check stops before its first dilation, not its last.
    start = time.perf_counter()
    assert main(["verify", "cor-multi", "--engine", "voxel", "--bodies",
                 "1100", "--trials", "1", "--res", "1/8", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 15
    err = capsys.readouterr().err
    assert err.startswith("error: extent") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    "cor-multi --engine voxel --bodies 200000 --trials 1 --res 1/4",
    "thm-av --engine voxel --plant-rate 1 --res 1/8 --trials 3",
    "thm-av --lambda 1/4",
    "rn --plant-rate 1 --bodies 9 --lambda 1/3",
    "thm-av --bodies 2",
])
def test_verify_refuses_a_setting_it_cannot_honour_before_a_trial(argv,
                                                                  capsys):
    # A body count whose sum can never fit the grid caps, and a setting the
    # campaign would never read, end in one error line before any drawing.
    start = time.perf_counter()
    assert main(["verify", *argv.split()]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


LOST_WORKER = """
import os
from bmink import campaign
from bmink.cli import main

out['process'] = [m for m in ("multiprocessing", "concurrent.futures")
                  if m in sys.modules]
run_trial, parent = campaign._run_trial, os.getpid()

def rigged(config, k):
    # The worker that runs trial 0 exits.
    if k == 0 and os.getpid() != parent:
        os._exit(3)
    return run_trial(config, k)

campaign._run_trial = rigged  # before any worker is forked
campaign._workers = lambda: 2
err = io.StringIO()
with contextlib.redirect_stderr(err):
    out['code'] = main(['verify', 'rn', '--trials', '40', '--out', 'r.jsonl'])
out['err'] = err.getvalue()
import multiprocessing
out['children'] = len(multiprocessing.active_children())
"""


def test_a_lost_worker_ends_verify_with_one_error_line(tmp_path):
    # Importing the CLI loads no process machinery, and a campaign whose
    # worker dies ends in a one-line error, not a traceback.
    from test_package import _fresh

    result = _fresh(LOST_WORKER, tmp_path)
    assert result.pop("err").startswith("error: ")
    assert result == {"process": [], "code": 2, "children": 0, "loaded": []}
    assert (tmp_path / "r.jsonl").read_text() == ""
