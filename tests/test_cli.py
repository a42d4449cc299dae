"""End-to-end CLI behavior through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import variants

import piip
from piip import explorer, harness
from piip.cli import main
from piip.config import preset, render_config

SWEEP_SPEC = """\
[sweep]
base = piip-tiny-test
resolutions.2 = 32, 48
resolutions.3 = 64, 96
budget_gflops = 0.0005
"""


def test_cost_table(capsys):
    assert main(["cost", "piip-tiny-test"]) == 0
    out = capsys.readouterr().out
    assert "branch1" in out
    assert "91,770" in out
    assert out.endswith("\n")


def test_python_dash_m_entry_point_prints_what_main_prints(capsys):
    assert main(["cost", "piip-tiny-test"]) == 0
    want = capsys.readouterr().out
    src = str(Path(piip.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "piip.cli", "cost", "piip-tiny-test"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


def test_cost_json(capsys):
    assert main(["cost", "piip-b", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_params"] == 98_578_691
    assert doc["total_flops"] == 17_945_722_880


def test_cost_from_config_file(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(render_config(preset("piip-tiny-test")))
    assert main(["cost", str(path)]) == 0
    assert "91,770" in capsys.readouterr().out


def test_unknown_preset_treated_as_path(capsys):
    # a name that is not a preset is taken as a config path; the open() fails
    assert main(["cost", "no-such-preset"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[interactions]\ncount = 2\n")
    assert main(["cost", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["cost", str(tmp_path / "absent.ini")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_sweep_csv_and_budget(tmp_path, capsys):
    spec = tmp_path / "sweep.ini"
    spec.write_text(SWEEP_SPEC)
    out = tmp_path / "table.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    rows = explorer.read_table(out.read_text())[1]
    assert all(set(r) == {"config_id", "resolutions", "params", "flops", "within_budget"}
               for r in rows)
    assert any(not r["within_budget"] for r in rows)  # 0.0005 GFLOPs is tight

    # --budget overrides the spec's budget
    assert main(["sweep", str(spec), "--out", str(out), "--budget", "1000"]) == 0
    rows = explorer.read_table(out.read_text())[1]
    assert all(r["within_budget"] for r in rows)

    # a NaN budget is an error, not a table with every row over budget
    capsys.readouterr()
    assert main(["sweep", str(spec), "--out", str(out), "--budget", "nan"]) == 1
    assert "budget_gflops must be a number, got nan" in capsys.readouterr().err


def test_sweep_json_output(tmp_path):
    spec = tmp_path / "sweep.ini"
    spec.write_text(SWEEP_SPEC)
    out = tmp_path / "table.json"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == explorer.SCHEMA_ID
    assert len(doc["rows"]) >= 2


def test_pareto_stdout(tmp_path, capsys):
    table = tmp_path / "measured.csv"
    table.write_text(
        "config_id,flops,acc\n"
        "r16,100,0.5\n"
        "r32,200,0.9\n"
        "r48,300,0.8\n"
    )
    assert main(["pareto", str(table), "--cost", "flops", "--quality", "acc"]) == 0
    out = capsys.readouterr().out
    assert out == "config_id,flops,acc\nr16,100,0.5\nr32,200,0.9\n"


def test_pareto_to_file_and_missing_column(tmp_path, capsys):
    table = tmp_path / "measured.csv"
    table.write_text("config_id,flops,acc\nr16,100,0.5\n")
    out = tmp_path / "front.csv"
    assert main(["pareto", str(table), "--out", str(out)]) == 0
    assert out.read_text() == "config_id,flops,acc\nr16,100,0.5\n"

    assert main(["pareto", str(table), "--quality", "miou"]) == 1
    assert "miou" in capsys.readouterr().err


def test_pareto_header_only_table_prints_its_header(tmp_path, capsys):
    table = tmp_path / "empty.csv"
    table.write_text("config_id,flops,acc\n")
    assert main(["pareto", str(table)]) == 0
    assert capsys.readouterr().out == "config_id,flops,acc\n"


def test_pareto_rejects_extra_cells(tmp_path, capsys):
    table = tmp_path / "ragged.csv"
    table.write_text("id,flops,acc\n1,2.0,0.5,EXTRA\n")
    assert main(["pareto", str(table)]) == 1
    assert "line 2 has 4 cells" in capsys.readouterr().err


def test_train_toy_writes_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    rc = main([
        "train-toy", "piip-tiny-test", "--out", str(out),
        "--steps", "3", "--samples", "8", "--batch", "4",
    ])
    assert rc == 0
    assert "step 3" in capsys.readouterr().out
    rows = explorer.read_table(out.read_text())[1]
    assert [r["step"] for r in rows] == [1, 2, 3]
    assert rows[0]["config-id"] == "r16-32-64"
    assert set(rows[0]) == {"config-id", "step", "loss", "acc"}


@pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--batch", "0"), ("--lr", "nan")])
def test_train_toy_bad_argument_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "metrics.csv"
    rc = main([
        "train-toy", "piip-tiny-test", "--out", str(out),
        "--steps", "2", "--samples", "8", "--batch", "4", flag, value,
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]}")
    assert not out.exists()


def test_train_toy_rejects_a_dense_config_before_building_a_model(tmp_path, capsys, monkeypatch):
    # a dense config used to build the model, then end in a RuntimeError traceback
    config = tmp_path / "dense.ini"
    config.write_text(render_config(variants.DENSE_LINEAR))
    out = tmp_path / "metrics.csv"

    def no_model(cfg):
        raise AssertionError("train_toy built a model")

    monkeypatch.setattr(harness, "PiipModel", no_model)
    rc = main(["train-toy", str(config), "--out", str(out), "--steps", "2"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: train_toy needs a classification-mode config, got mode = dense\n"
    )
    assert not out.exists()


def test_piip_seed_env_changes_training(tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["train-toy", "piip-tiny-test", "--steps", "2", "--samples", "8",
            "--batch", "4"]
    assert main(args + ["--out", str(out_a)]) == 0
    monkeypatch.setenv("PIIP_SEED", "123")
    assert main(args + ["--out", str(out_b)]) == 0
    rows_a = explorer.read_table(out_a.read_text())[1]
    rows_b = explorer.read_table(out_b.read_text())[1]
    assert rows_a != rows_b


def test_piip_seed_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    # used to print int()'s own message, which names no variable
    monkeypatch.setenv("PIIP_SEED", "abc")
    out = tmp_path / "metrics.csv"
    assert main(["train-toy", "piip-tiny-test", "--out", str(out), "--steps", "2"]) == 1
    assert capsys.readouterr().err == "error: PIIP_SEED must be an integer, got 'abc'\n"
    assert not out.exists()


def test_verify_subcommand(monkeypatch, capsys):
    verdicts = [harness.Verdict("stub pass", True, "a"), harness.Verdict("stub fail", False, "b")]
    monkeypatch.setattr(harness, "CHECKS", tuple((lambda v=v: v) for v in verdicts))
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS  stub pass  [a]",
        "FAIL  stub fail  [b]",
        "FAILED: 1/2 verification checks passed",
    ]


def test_usage_error_on_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
