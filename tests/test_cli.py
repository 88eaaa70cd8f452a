"""CLI tests: subcommands, config precedence, artifact round trips."""

import csv
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from densecil import analysis as A
from densecil import cli
from densecil import expansion as E
from densecil.config import ConfigError

import oracles as O


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
    procs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        procs.append(subprocess.Popen([sys.executable, "-m", "densecil.cli", "gradcheck",
                                       "--points", "1", "--seed", "0"], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    outputs = []
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert "passed" in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("points", [0, -3])
def test_gradcheck_rejects_fewer_than_one_point(points, capsys):
    assert cli.main(["gradcheck", "--points", str(points)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: points must be at least 1, got {points}\n"
    assert captured.out == ""


def test_train_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["train", *FAST, "--seed", "5", "--out", str(out)])
    assert rc == 0
    for name in ("metrics.csv", "summary.json", "attention.json",
                 "flops.json", "model.ckpt"):
        assert (out / name).exists(), name
    flops = json.loads((out / "flops.json").read_text())
    assert flops["model_macs"] == flops["instrumented_macs"] > 0


def test_train_flops_json_uses_the_run_geometry(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", *FAST, "--patch-size", "8", "--out", str(out)]) == 0
    flops = json.loads((out / "flops.json").read_text())
    model = E.load_checkpoint(out / "model.ckpt")
    classes = [max(model.classes_per_task)] * model.task_count
    for strategy, heads in (("ia", 2), ("dne", 1)):      # ia at --h1 2
        cfg = replace(model.cfg, strategy=strategy)
        assert flops["analytic_macs"][strategy] == \
            A.flops_layout(cfg, [heads] * model.task_count, classes)


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
    first = O.eval_logits(model, img)
    again = O.eval_logits(E.load_checkpoint(out / "model.ckpt"), img)
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


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(b'{"epochs": "\xff"}')
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "is not valid JSON" in lines[0], lines
    assert not (tmp_path / "run").exists()


def test_config_file_accepts_ints_for_floats_and_null_for_optional_paths(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1, "noise": 0, "cifar_train": None}))
    cfg = cli.load_run_config(_parse(["train", "--config", str(cfg_file)]))
    assert (cfg.lr, cfg.noise, cfg.cifar_train) == (1, 0, None)


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--config", "{tmp}/missing.json"], id="config"),
    pytest.param(["train", "--dataset", "cifar100", "--cifar-train", "{tmp}/missing.bin",
                  "--cifar-test", "{tmp}/missing.bin", "--image-size", "32"],
                 id="cifar-missing"),
    pytest.param(["train", "--dataset", "cifar100", "--cifar-train", "{tmp}/short.bin",
                  "--cifar-test", "{tmp}/short.bin", "--image-size", "32"], id="cifar-short"),
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
    {"attention_mode": "bogus"}, {"channels": 1},
])
def test_bad_model_config_fails_before_making_the_run_directory(tmp_path, capsys, values):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


@pytest.mark.parametrize("flag,value,problem", [
    pytest.param("--strategy", "nope", "unknown strategy 'nope'", id="strategy"),
    pytest.param("--sta-variant", "x", "unknown sta variant 'x'", id="sta-variant"),
    pytest.param("--dataset", "x", "unknown dataset 'x'", id="dataset"),
    pytest.param("--share-q", "x", "share mode must be 's' or 'f', got 'x'", id="share-q"),
    pytest.param("--epochs", "two", "epochs must be int, got 'two'", id="epochs"),
    pytest.param("--lr", "abc", "lr must be float, got 'abc'", id="lr"),
    pytest.param("--joint", "maybe", "joint must be bool, got 'maybe'", id="joint"),
])
def test_bad_flag_value_is_one_error_line_before_making_the_run_directory(
        tmp_path, capsys, flag, value, problem):
    out = tmp_path / "run"
    assert cli.main(["train", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


# A value other than the default for every RunConfig field, with the other
# settings that value needs to pass validation.
NON_DEFAULT = {
    "dataset": ("cifar100", {"cifar_train": "a.bin", "cifar_test": "b.bin",
                             "image_size": 32}),
    "cifar_train": ("a.bin", {}), "cifar_test": ("b.bin", {}), "classes": (6, {}),
    "per_class": (4, {}), "eval_per_class": (3, {}), "noise": (0.5, {}),
    "image_size": (32, {}), "patch_size": (8, {}), "head_dim": (8, {}), "gamma": (2, {}),
    "layers": (3, {}), "first_task": (2, {}),
    "step_size": (4, {}), "h1": (2, {}), "k": (2, {}), "strategy": ("ia", {}),
    "sta_variant": ("spdh", {"strategy": "sta"}), "cta_layers": ("10", {}),
    "cta_mhsa": (True, {}), "cta_fc1": (False, {}), "cta_fc2": (False, {}),
    "share_q": ("f", {}), "share_k": ("f", {}), "share_v": ("s", {}),
    "lw_ce": (0.5, {}), "lw_aux": (0.25, {}), "lr": (0.125, {}),
    "weight_decay": (0.001, {}), "momentum": (0.9, {}), "batch_size": (4, {}),
    "epochs": (3, {}), "tune_epochs": (0, {}), "buffer": (10, {}), "joint": (True, {}),
    "seed": (7, {}), "out": ("elsewhere", {}), "attention_mode": ("final", {}),
}

# Flags spelled by hand before every field had one; scripts use these spellings.
ESTABLISHED_FLAGS = [
    "--seed", "--strategy", "--sta-variant", "--k", "--h1", "--step-size", "--buffer",
    "--epochs", "--tune-epochs", "--lr", "--batch-size", "--out", "--joint", "--dataset",
    "--cifar-train", "--cifar-test", "--classes", "--per-class", "--first-task",
    "--layers", "--head-dim", "--cta-layers", "--cta-mhsa", "--cta-fc1", "--cta-fc2",
    "--share-q", "--share-k", "--share-v"]


def _flags(values: dict) -> list[str]:
    return [a for name, value in values.items()
            for a in ("--" + name.replace("_", "-"), str(value).lower()
                      if isinstance(value, bool) else str(value))]


@pytest.mark.parametrize("name", [f.name for f in fields(cli.RunConfig)])
def test_every_setting_is_a_flag_equal_to_its_config_file_entry(tmp_path, name):
    value, needs = NON_DEFAULT[name]
    values = {**needs, name: value}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    from_file = cli.load_run_config(_parse(["train", "--config", str(cfg_file)]))
    from_flags = cli.load_run_config(_parse(["train", *_flags(values)]))
    assert from_flags == from_file
    assert getattr(from_flags, name) == value != getattr(cli.RunConfig(), name)


def test_established_flag_spellings_and_bare_bool_flags():
    assert len(NON_DEFAULT) == len(fields(cli.RunConfig)) == 38
    assert len(ESTABLISHED_FLAGS) == 28
    assert set(ESTABLISHED_FLAGS) <= {"--" + name.replace("_", "-") for name in NON_DEFAULT}
    assert cli.load_run_config(_parse(["train", "--joint"])).joint is True
    cfg = cli.load_run_config(_parse(["train", "--cta-mhsa", "false", "--joint", "--seed", "2"]))
    assert (cfg.cta_mhsa, cfg.joint, cfg.seed) == (False, True, 2)


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


@pytest.mark.parametrize("value", [b"\xff" * 8, struct.pack("<d", float("inf"))],
                         ids=["nan", "inf"])
def test_analyze_attention_rejects_a_nonfinite_checkpoint_value(tmp_path, capsys, value):
    out = tmp_path / "run"
    cli.main(["train", *FAST, "--seed", "12", "--out", str(out)])
    raw = (out / "model.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", raw[1:5])
    last = json.loads(raw[5:5 + hlen])["params"][-1]["name"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:-8] + value)
    capsys.readouterr()
    assert cli.main(["analyze-attention", "--ckpt", str(bad),
                     "--out", str(tmp_path / "attn.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: parameter {last!r} holds a non-finite value"]
    assert not (tmp_path / "attn.json").exists()


def test_analyze_attention_rejects_an_unknown_mode(tmp_path, capsys):
    out = tmp_path / "attn.json"
    argv = ["analyze-attention", "--ckpt", _tiny_checkpoint(tmp_path), "--mode", "x",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: unknown aggregation mode 'x'\n"
    assert not out.exists()


def test_no_module_imports_scipy():
    """Importing every densecil module and running ``densecil flops`` loads
    no scipy module: numpy is the only runtime dependency."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import importlib, pkgutil, sys, densecil\n"
            "for m in pkgutil.iter_modules(densecil.__path__):\n"
            "    importlib.import_module('densecil.' + m.name)\n"
            "from densecil import cli\n"
            "assert cli.main(['flops', '--heads', '12', '--patches', '196']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def _cifar_pair(tmp_path):
    """A tiny CIFAR pair (3 train and 2 test records of 12 classes) whose
    pixels hold each record's index."""
    def write(path, labels):
        path.write_bytes(b"".join(bytes([0, c]) + bytes([i]) * 3072
                                  for i, c in enumerate(labels)))
    write(tmp_path / "train.bin", [c for _ in range(3) for c in range(12)])
    write(tmp_path / "test.bin", [c for _ in range(2) for c in range(12)])
    return str(tmp_path / "train.bin"), str(tmp_path / "test.bin")


def _cifar_stream(tmp_path, **kw):
    """``build_stream`` over ``_cifar_pair``."""
    train, test = _cifar_pair(tmp_path)
    cfg = cli.RunConfig(dataset="cifar100", cifar_train=train, cifar_test=test,
                        per_class=2, eval_per_class=1, **kw)
    return cli.build_stream(cfg)


def test_cifar_run_needs_32_pixel_images(tmp_path, capsys):
    train, test = _cifar_pair(tmp_path)
    out = tmp_path / "run"
    argv = ["train", "--dataset", "cifar100", "--cifar-train", train, "--cifar-test", test,
            "--classes", "4", "--first-task", "2", "--per-class", "2",
            "--eval-per-class", "1", "--epochs", "1", "--tune-epochs", "0", "--layers", "1",
            "--head-dim", "8", "--patch-size", "8", "--h1", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: cifar100 images need image_size 32, got 16\n")
    assert not out.exists()
    assert cli.main([*argv, "--image-size", "32"]) == 0
    assert (out / "model.ckpt").exists()


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
        "error: task 0, phase 1, epoch 1, batch 0: attention_block: non-finite input\n")


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -0.1), ("lr", float("inf")), ("lr", float("nan")),
    ("weight_decay", -1e-6), ("weight_decay", float("nan")),
    ("momentum", -0.5), ("momentum", float("inf")), ("noise", float("nan")),
    ("lw_ce", float("nan")), ("lw_ce", -1.0), ("lw_aux", float("inf")),
])
def test_config_rejects_nonfinite_or_negative_optimizer_values(tmp_path, capsys, field, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: value}))
    assert cli.main(["train", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize("field", ["per_class", "eval_per_class"])
def test_synthetic_sample_count_below_two_names_its_field(tmp_path, capsys, field):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: 1}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {field} must be >= 2, got 1\n"
    assert not out.exists()


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
    ["flops", "--heads", "two", "--patches", "4"],
    ["train", "--bogus"],
    ["train", "--epochs"],
    ["counts", "--heads", "2"],
    [],
    ["gradcheck", "--seed", "-1", "--points", "1"],
    ["analyze-attention", "--ckpt", "{ckpt}", "--seed", "-1"],
    ["flops", "--heads", "2", "--patches", "10"],
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
