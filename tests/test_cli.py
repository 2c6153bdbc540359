import json

import pytest

from bmink.cli import main
from bmink.serialize import shapespec_to_json
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


def test_decompose_command(shape_files, capsys):
    k, t = shape_files
    code = main(["decompose", "--k", k, "--t", t, "--res", "1/16"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    assert "volume[sum]" in out


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


def test_erode_voxel_command(shape_files, capsys):
    k, t = shape_files
    code = main(["erode", "--k", k, "--t", t, "--engine", "voxel",
                 "--res", "1/32"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "voxel"
    assert abs(payload["volume"] - 4.0) <= 0.3


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
