"""CLI tests: subcommands, config precedence, artifact round trips."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from densecil import cli
from densecil import expansion as E
from densecil.config import ConfigError


FAST = ["--epochs", "2", "--tune-epochs", "1", "--per-class", "8",
        "--classes", "4", "--first-task", "2", "--h1", "2", "--layers", "1",
        "--head-dim", "8", "--batch-size", "8"]


def test_counts_subcommand(capsys):
    assert cli.main(["counts", "--heads", "16", "--patches", "64"]) == 0
    out = capsys.readouterr().out
    assert "967,680" in out and "92.29%" in out


def test_flops_subcommand_prints_crossover(capsys):
    assert cli.main(["flops", "--heads", "12", "--patches", "196"]) == 0
    out = capsys.readouterr().out
    assert "T < 2300" in out


def test_gradcheck_output_independent_of_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "densecil.cli", "gradcheck",
                               "--points", "1", "--seed", "0"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "passed" in proc.stdout
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_train_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["train", *FAST, "--seed", "5", "--out", str(out)])
    assert rc == 0
    for name in ("metrics.csv", "summary.json", "attention.json",
                 "flops.json", "model.ckpt"):
        assert (out / name).exists(), name


def test_train_csv_accuracy_rows_consistent_with_aa(tmp_path):
    out = tmp_path / "run"
    cli.main(["train", *FAST, "--seed", "6", "--out", str(out)])
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    accs = [float(r["value"]) for r in rows if r["metric"] == "accuracy"]
    aa = [float(r["value"]) for r in rows if r["metric"] == "AA"][0]
    assert aa == pytest.approx(sum(accs) / len(accs))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accuracies"] == accs


def _parse(argv):
    import argparse
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("train")
    cli._add_run_flags(p)
    return parser.parse_args(argv)


def test_summary_config_echo_matches_parsed_input(tmp_path):
    out = tmp_path / "run"
    args = ["train", *FAST, "--seed", "7", "--out", str(out), "--strategy", "ia"]
    parsed = cli.load_run_config(_parse(args))
    cli.main(args)
    summary = json.loads((out / "summary.json").read_text())
    from dataclasses import asdict
    assert summary["config"] == asdict(parsed)


def test_checkpoint_round_trip_logits(tmp_path):
    out = tmp_path / "run"
    cli.main(["train", *FAST, "--seed", "8", "--out", str(out)])
    model = E.load_checkpoint(out / "model.ckpt")
    rng = np.random.default_rng(0)
    img = rng.random((3, model.cfg.image_size, model.cfg.image_size))
    first = model.eval_logits(img)
    again = E.load_checkpoint(out / "model.ckpt").eval_logits(img)
    np.testing.assert_array_equal(first, again)


def test_same_seed_identical_metrics(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["train", *FAST, "--seed", "9", "--out", str(out1)])
    cli.main(["train", *FAST, "--seed", "9", "--out", str(out2)])
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 3, "seed": 11, "strategy": "ia"}))
    args = _parse(["train", "--config", str(cfg_file), "--epochs", "4"])
    cfg = cli.load_run_config(args)
    assert cfg.epochs == 4          # flag wins
    assert cfg.seed == 11           # file value survives
    assert cfg.strategy == "ia"


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    for values in ({"not_a_key": 1}, {"lw_distill": 1.0}):
        cfg_file.write_text(json.dumps(values))
        args = _parse(["train", "--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            cli.load_run_config(args)


@pytest.mark.parametrize("text,problem", [
    pytest.param('{"epochs": ', "not valid JSON", id="truncated"),
    pytest.param("[1, 2]", "holds a JSON list, not an object", id="list"),
    pytest.param('"epochs"', "holds a JSON str, not an object", id="string"),
    pytest.param('{"epochs": "5"}', "epochs must be int, got '5'", id="str-for-int"),
    pytest.param('{"epochs": 2.5}', "epochs must be int, got 2.5", id="float-for-int"),
    pytest.param('{"joint": 1}', "joint must be bool, got 1", id="int-for-bool"),
    pytest.param('{"seed": true}', "seed must be int, got True", id="bool-for-int"),
    pytest.param('{"lr": "0.1"}', "lr must be float, got '0.1'", id="str-for-float"),
    pytest.param('{"strategy": null}', "strategy must be str, got None", id="null-for-str"),
    pytest.param('{"cta_layers": 10}', "cta_layers must be str | None, got 10", id="int-for-mask"),
])
def test_config_file_rejects_malformed_json_and_wrong_types(tmp_path, capsys, text, problem):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(problem)):
        cli.load_run_config(_parse(["train", "--config", str(cfg_file)]))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and problem in lines[0], lines
    assert not out.exists()


def test_config_file_accepts_ints_for_floats_and_null_for_optional_paths(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1, "noise": 0, "cifar_train": None}))
    cfg = cli.load_run_config(_parse(["train", "--config", str(cfg_file)]))
    assert (cfg.lr, cfg.noise, cfg.cifar_train) == (1, 0, None)


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--config", "{tmp}/missing.json"], id="config"),
    pytest.param(["train", "--dataset", "cifar100", "--cifar-train", "{tmp}/missing.bin",
                  "--cifar-test", "{tmp}/missing.bin"], id="cifar-missing"),
    pytest.param(["train", "--dataset", "cifar100", "--cifar-train", "{tmp}/short.bin",
                  "--cifar-test", "{tmp}/short.bin"], id="cifar-short"),
    pytest.param(["analyze-attention", "--ckpt", "{tmp}/missing.ckpt"], id="ckpt"),
])
def test_missing_or_short_input_file_is_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "short.bin").write_bytes(b"\x00")
    out = tmp_path / "run"
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


def test_invalid_strategy_exits_nonzero(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"strategy": "nope"}))
    rc = cli.main(["train", "--config", str(cfg_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("values", [
    {"sta_variant": "bogus"}, {"share_q": "x"}, {"image_size": 10}, {"gamma": 0},
])
def test_bad_model_config_fails_before_making_the_run_directory(tmp_path, capsys, values):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


def test_wiring_flag_the_strategy_ignores_fails_before_making_the_run_directory(
        tmp_path, capsys):
    out = tmp_path / "d"
    assert cli.main(["train", "--strategy", "ia", "--cta-mhsa", "true", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


def test_analyze_attention_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", *FAST, "--seed", "12", "--out", str(out)])
    rc = cli.main(["analyze-attention", "--ckpt", str(out / "model.ckpt"),
                   "--out", str(tmp_path / "attn.json"), "--images", "2"])
    assert rc == 0
    data = json.loads((tmp_path / "attn.json").read_text())
    portions = [g["portion"] for g in data["groups"].values()]
    assert sum(portions) == pytest.approx(1.0, abs=1e-6)


def _cifar_stream(tmp_path, **kw):
    """``build_stream`` over a tiny CIFAR pair whose pixels hold each record's index."""
    def write(path, labels):
        path.write_bytes(b"".join(bytes([0, c]) + bytes([i]) * 3072
                                  for i, c in enumerate(labels)))
    write(tmp_path / "train.bin", [c for _ in range(3) for c in range(12)])
    write(tmp_path / "test.bin", [c for _ in range(2) for c in range(12)])
    cfg = cli.RunConfig(dataset="cifar100", cifar_train=str(tmp_path / "train.bin"),
                        cifar_test=str(tmp_path / "test.bin"), per_class=2,
                        eval_per_class=1, **kw)
    return cli.build_stream(cfg)


def test_cifar_stream_validates_task_split(tmp_path):
    for kw in (dict(classes=10, first_task=4, step_size=4), dict(classes=3, first_task=4)):
        with pytest.raises(ConfigError):
            _cifar_stream(tmp_path, **kw)
    stream = _cifar_stream(tmp_path, classes=6, first_task=2, step_size=2, seed=3)
    record = lambda s: round(s.image[0, 0, 0] * 255)
    got = [(t.classes, [record(s) for s in t.train], [record(s) for s in t.eval])
           for t in stream.tasks]
    assert got == [((0, 1), [0, 12, 1, 25], [0, 1]), ((2, 3), [14, 26, 3, 27], [2, 3]),
                   ((4, 5), [16, 28, 5, 29], [4, 5])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_run_names_task_phase_epoch_and_batch(tmp_path, capsys):
    rc = cli.main(["train", "--lr", "1e300", "--epochs", "2", "--tune-epochs", "0",
                   "--classes", "4", "--first-task", "2", "--per-class", "4",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: task 0, phase 1, epoch 1, batch 0: softmax_rows: non-finite input\n")


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -0.1), ("lr", float("inf")), ("lr", float("nan")),
    ("weight_decay", -1e-6), ("weight_decay", float("nan")),
    ("momentum", -0.5), ("momentum", float("inf")), ("noise", float("nan")),
])
def test_config_rejects_nonfinite_or_negative_optimizer_values(tmp_path, capsys, field, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: value}))
    assert cli.main(["train", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")


def _tiny_checkpoint(tmp_path):
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1)
    model = E.CilModel(cfg, seed=0).add_expert(1, 2)
    E.save_checkpoint(model, tmp_path / "model.ckpt")
    return str(tmp_path / "model.ckpt")


@pytest.mark.parametrize("argv", [
    ["flops", "--heads", "0", "--patches", "4"],
    ["flops", "--heads", "2", "--patches", "4", "--tasks", "0"],
    ["flops", "--heads", "2", "--patches", "4", "--dim", "0"],
    ["counts", "--heads", "0", "--patches", "4"],
    ["analyze-attention", "--ckpt", "{ckpt}", "--images", "0"],
    ["analyze-attention", "--ckpt", "{ckpt}", "--mode", "final", "--images", "-1"],
])
def test_subcommand_rejects_degenerate_sizes_with_one_error_line(tmp_path, capsys, argv):
    argv = [_tiny_checkpoint(tmp_path) if a == "{ckpt}" else a for a in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "NaN" not in captured.out


def test_sta_variant_flag_accepts_every_variant():
    for variant in E.STA_VARIANTS:
        cfg = cli.load_run_config(_parse(["train", "--strategy", "sta",
                                          "--sta-variant", variant]))
        assert cfg.model_config().sta_variant == variant


def test_joint_run_reports_gap_to_joint_accuracy(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--joint", "--classes", "4", "--first-task", "2",
                     "--step-size", "1", "--per-class", "4", "--epochs", "1",
                     "--tune-epochs", "0", "--out", str(out)]) == 0
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    d_gap = [float(r["value"]) for r in rows if r["metric"] == "D_gap"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["joint_accuracy"] is not None
    assert d_gap == [summary["joint_accuracy"] - summary["LA"]]
    assert summary["D_gap"] == d_gap[0]
