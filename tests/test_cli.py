"""CLI tests: subcommands, config precedence, artifact round trips."""

import csv
import json
import os
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


def test_gradcheck_subcommand_passes(capsys):
    assert cli.main(["gradcheck", "--points", "1"]) == 0
    assert "passed" in capsys.readouterr().out


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
    rows = list(csv.DictReader(open(out / "metrics.csv")))
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


def test_invalid_strategy_exits_nonzero(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"strategy": "nope"}))
    rc = cli.main(["train", "--config", str(cfg_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_analyze_attention_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", *FAST, "--seed", "12", "--out", str(out)])
    rc = cli.main(["analyze-attention", "--ckpt", str(out / "model.ckpt"),
                   "--out", str(tmp_path / "attn.json"), "--images", "2"])
    assert rc == 0
    data = json.loads((tmp_path / "attn.json").read_text())
    portions = [g["portion"] for g in data["groups"].values()]
    assert sum(portions) == pytest.approx(1.0, abs=1e-6)
