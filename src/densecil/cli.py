"""Experiment orchestration: config parsing, subcommands, report emission.

Subcommands: ``train`` runs the incremental protocol and writes
metrics.csv / summary.json / attention.json / flops.json / model.ckpt;
``analyze-attention`` decomposes a checkpoint's attention by group;
``flops`` prints the analytic compute table and crossover bound;
``gradcheck`` verifies all gradients; ``counts`` prints the group entry
populations.

Config values come from a flat JSON file (``--config``) with command-line
flags taking precedence; every run is fully determined by one seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis as A
from . import continual as C
from . import datasets as D
from . import expansion as E
from . import tensor as T
from .config import ConfigError


@dataclass
class RunConfig:
    # data
    dataset: str = "synthetic"
    cifar_train: str | None = None
    cifar_test: str | None = None
    classes: int = 8
    per_class: int = 24
    eval_per_class: int = 10
    noise: float = 0.08
    # geometry (desk scale: 16x16 images, 4x4 patches, 3 tasks)
    image_size: int = 16
    patch_size: int = 4
    channels: int = 3
    head_dim: int = 16
    gamma: int = 4
    layers: int = 2
    first_task: int = 4
    step_size: int = 2
    h1: int = 4
    k: int = 1
    # wiring
    strategy: str = "dne"
    sta_variant: str = "both"
    cta_layers: str | None = None      # e.g. "10" to enable only block 0
    cta_mhsa: bool = False
    cta_fc1: bool = True
    cta_fc2: bool = True
    share_q: str = "s"
    share_k: str = "s"
    share_v: str = "f"
    # optimization
    lw_ce: float = 1.0
    lw_aux: float = 0.1
    lr: float = 0.05
    weight_decay: float = 1e-6
    momentum: float = 0.0
    batch_size: int = 16
    epochs: int = 20
    tune_epochs: int = 5
    buffer: int = 2000
    joint: bool = False
    # bookkeeping
    seed: int = 0
    out: str = "runs/latest"
    attention_mode: str = "layer_mean"

    def validate(self) -> None:
        """Reject bad values before anything runs; the model geometry and
        wiring are checked by building the ``ModelConfig``.  Each value must
        have its field's type exactly (an int is a valid float, a bool is
        not a valid int)."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(value).__name__.replace("NoneType", "None")
            if kind not in f.type.replace("float", "float | int").split(" | "):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        positive = ("classes", "per_class", "eval_per_class",
                    "first_task", "step_size", "h1", "k", "batch_size")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("epochs", "tune_epochs", "buffer", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        for name in ("weight_decay", "momentum", "noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if self.dataset not in ("synthetic", "cifar100"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "cifar100" and not (self.cifar_train and self.cifar_test):
            raise ConfigError("cifar100 needs --cifar-train and --cifar-test paths")
        if self.cta_layers is not None:
            if len(self.cta_layers) != self.layers or set(self.cta_layers) - {"0", "1"}:
                raise ConfigError(
                    f"cta_layers mask must be {self.layers} chars of 0/1")
        self.model_config()

    def model_config(self) -> E.ModelConfig:
        mask = None
        if self.cta_layers is not None:
            mask = tuple(ch == "1" for ch in self.cta_layers)
        return E.ModelConfig(
            image_size=self.image_size, patch_size=self.patch_size,
            in_channels=self.channels, head_dim=self.head_dim, gamma=self.gamma,
            layers=self.layers, strategy=self.strategy, sta_variant=self.sta_variant,
            cta_layers=mask, cta_in_mhsa=self.cta_mhsa, cta_in_fc1=self.cta_fc1,
            cta_in_fc2=self.cta_fc2, share_q=self.share_q, share_k=self.share_k,
            share_v=self.share_v)

    def train_config(self) -> C.TrainConfig:
        return C.TrainConfig(
            epochs=self.epochs, tune_epochs=self.tune_epochs, lr=self.lr,
            weight_decay=self.weight_decay, momentum=self.momentum,
            batch_size=self.batch_size,
            loss_weights=C.LossWeights(self.lw_ce, self.lw_aux),
            heads_first=self.h1, heads_per_step=self.k)


def build_stream(cfg: RunConfig) -> C.TaskStream:
    if cfg.dataset == "synthetic":
        return D.synth_stream(cfg.classes, cfg.per_class, cfg.image_size, cfg.seed,
                              first_task=cfg.first_task, step_size=cfg.step_size,
                              eval_per_class=cfg.eval_per_class, noise=cfg.noise)
    train = D.load_cifar100_binary(cfg.cifar_train)
    test = D.load_cifar100_binary(cfg.cifar_test)
    by_label_train: dict[int, list] = {}
    by_label_test: dict[int, list] = {}
    for s in train:
        by_label_train.setdefault(s.label, []).append(s)
    for s in test:
        by_label_test.setdefault(s.label, []).append(s)
    rng = np.random.default_rng(cfg.seed)
    tasks = []
    for ids in D.split_classes(cfg.classes, cfg.first_task, cfg.step_size):
        tr, ev = [], []
        for c in ids:
            pool = by_label_train.get(c, [])
            if len(pool) > cfg.per_class:
                pick = rng.choice(len(pool), size=cfg.per_class, replace=False)
                pool = [pool[i] for i in sorted(pick)]
            tr.extend(pool)
            ev.extend(by_label_test.get(c, [])[: cfg.eval_per_class])
        tasks.append(C.Task(tuple(ids), tr, ev))
    return C.TaskStream(tasks)


def run(cfg: RunConfig) -> int:
    """Execute the full train/evaluate protocol and write all artifacts."""
    cfg.validate()
    stream = build_stream(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, record = C.run_stream(cfg.model_config(), stream, cfg.train_config(),
                                 cfg.seed, buffer_capacity=cfg.buffer)
    if cfg.joint:
        record.set_joint(C.train_joint(cfg.model_config(), stream,
                                       cfg.train_config(), cfg.seed))
    record.flops_macs = A.flops_model(model)

    C.write_metrics_csv(record, out_dir / "metrics.csv")
    C.write_summary_json(record, asdict(cfg), cfg.seed, out_dir / "summary.json")
    E.save_checkpoint(model, out_dir / "model.ckpt")

    probe = [s.image for s in stream.tasks[0].eval[:4]]
    stats = A.model_attention_stats(model, probe, mode=cfg.attention_mode)
    A.write_attention_json(stats, out_dir / "attention.json",
                           extra={"mode": cfg.attention_mode,
                                  "heads_per_task": list(model.heads_per_task)})

    report = A.flops_report(model.task_count, cfg.h1, cfg.model_config().num_patches,
                            cfg.head_dim, instrumented=A.instrumented_macs(
                                model, stream.tasks[0].eval[0].image),
                            layers=cfg.layers, gamma=cfg.gamma,
                            classes_per_task=max(model.classes_per_task))
    A.write_flops_json(report, out_dir / "flops.json")

    for i, acc in enumerate(record.accuracies, start=1):
        print(f"step {i}: accuracy {acc:.2f}")
    print(f"LA {record.la:.2f}  AA {record.aa:.2f}  heads {model.heads_per_task}")
    if record.d_gap is not None:
        print(f"D_gap {record.d_gap:.2f}")
    print(f"artifacts in {out_dir}")
    return 0


# ------------------------------------------------------------------ parsing

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", choices=list(E.STRATEGIES), default=None)
    p.add_argument("--sta-variant", dest="sta_variant",
                   choices=list(E.STA_VARIANTS), default=None)
    p.add_argument("--k", type=int, default=None, help="heads added per task")
    p.add_argument("--h1", type=int, default=None, help="first-task heads")
    p.add_argument("--step-size", dest="step_size", type=int, default=None)
    p.add_argument("--buffer", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--tune-epochs", dest="tune_epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--joint", action="store_true", default=None,
                   help="also train the joint upper bound for the D metric")
    p.add_argument("--dataset", choices=["synthetic", "cifar100"], default=None)
    p.add_argument("--cifar-train", dest="cifar_train", type=str, default=None)
    p.add_argument("--cifar-test", dest="cifar_test", type=str, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--per-class", dest="per_class", type=int, default=None)
    p.add_argument("--first-task", dest="first_task", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--head-dim", dest="head_dim", type=int, default=None)
    p.add_argument("--cta-layers", dest="cta_layers", type=str, default=None,
                   help="per-layer mask, e.g. 10")
    p.add_argument("--cta-mhsa", dest="cta_mhsa", type=_parse_bool, default=None)
    p.add_argument("--cta-fc1", dest="cta_fc1", type=_parse_bool, default=None)
    p.add_argument("--cta-fc2", dest="cta_fc2", type=_parse_bool, default=None)
    p.add_argument("--share-q", dest="share_q", choices=["s", "f"], default=None)
    p.add_argument("--share-k", dest="share_k", choices=["s", "f"], default=None)
    p.add_argument("--share-v", dest="share_v", choices=["s", "f"], default=None)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < JSON config file < explicit command-line flags."""
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as f:
                values = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from None
        if not isinstance(values, dict):
            raise ConfigError(f"config file {args.config} holds a JSON "
                              f"{type(values).__name__}, not an object")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="densecil",
        description="desk-scale class-incremental learning with growing task experts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the incremental protocol")
    _add_run_flags(p_train)

    p_attn = sub.add_parser("analyze-attention",
                            help="group decomposition of a trained model's attention")
    p_attn.add_argument("--ckpt", required=True)
    p_attn.add_argument("--out", default=None, help="output JSON path")
    p_attn.add_argument("--mode", choices=["layer_mean", "final"], default="layer_mean")
    p_attn.add_argument("--seed", type=int, default=0)
    p_attn.add_argument("--images", type=int, default=4)

    p_flops = sub.add_parser("flops", help="analytic compute table")
    p_flops.add_argument("--heads", type=int, required=True)
    p_flops.add_argument("--patches", type=int, required=True)
    p_flops.add_argument("--tasks", type=int, default=6)
    p_flops.add_argument("--dim", type=int, default=64)
    p_flops.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--points", type=int, default=10)
    p_grad.add_argument("--seed", type=int, default=0)

    p_counts = sub.add_parser("counts", help="attention-group entry populations")
    p_counts.add_argument("--heads", type=int, required=True)
    p_counts.add_argument("--patches", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return run(load_run_config(args))
        if args.command == "analyze-attention":
            return _cmd_attention(args)
        if args.command == "flops":
            return _cmd_flops(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "counts":
            return _cmd_counts(args)
    except (ConfigError, C.StreamError, D.FormatError, E.CheckpointError,
            T.NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def _cmd_attention(args) -> int:
    model = E.load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    images = [rng.random((model.cfg.in_channels, model.cfg.image_size,
                          model.cfg.image_size)) for _ in range(args.images)]
    stats = A.model_attention_stats(model, images, mode=args.mode)
    text = json.dumps(stats.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_flops(args) -> int:
    report = A.flops_report(args.tasks, args.heads, args.patches, args.dim)
    print(f"crossover bound: T < {report.crossover_tasks}")
    print(f"analytic MACs  ia({args.tasks} tasks x {args.heads} heads): "
          f"{report.analytic['ia']:,}")
    print(f"analytic MACs  dne({args.tasks} tasks x 1 head):  "
          f"{report.analytic['dne']:,}")
    print(f"ratio dne/ia: {report.ratio_dne_over_ia:.4f}  "
          f"closed form: {report.ratio_formula:.4f}")
    if args.out:
        A.write_flops_json(report, args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_all
    results = run_all(points=args.points, seed=args.seed, verbose=True)
    failed = [name for name, _, ok in results if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} gradient checks passed")
    return 0


def _cmd_counts(args) -> int:
    counts = A.group_entry_counts(args.heads, args.patches)
    total = sum(counts.values())
    for name, value in counts.items():
        print(f"{name}: {value:,} ({100.0 * value / total:.2f}%)")
    print(f"total: {total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
