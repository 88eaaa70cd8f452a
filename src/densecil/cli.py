"""Experiment orchestration: config parsing, subcommands, report emission.

Subcommands: ``train`` runs the incremental protocol and writes
metrics.csv / summary.json / attention.json / flops.json / model.ckpt;
``analyze-attention`` decomposes a checkpoint's attention by group;
``flops`` prints the analytic compute table and crossover bound;
``gradcheck`` verifies all gradients; ``counts`` prints the group entry
populations.

Every ``RunConfig`` key is also a ``train`` flag (``image_size`` is
``--image-size``); flags override a flat JSON file (``--config``), both pass
``RunConfig.validate``, and every run is fully determined by one seed.
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


_MODEL = E.ModelConfig()      # the default model, whose settings RunConfig and flops read


@dataclass
class RunConfig:
    """Every ``densecil train`` setting; the geometry and wiring defaults are ``ModelConfig``'s."""
    # data
    dataset: str = "synthetic"
    cifar_train: str | None = None
    cifar_test: str | None = None
    classes: int = 8
    per_class: int = 24
    eval_per_class: int = 10
    noise: float = 0.08
    # geometry
    image_size: int = _MODEL.image_size
    patch_size: int = _MODEL.patch_size
    head_dim: int = _MODEL.head_dim
    gamma: int = _MODEL.gamma
    layers: int = _MODEL.layers
    first_task: int = 4
    step_size: int = 2
    h1: int = 4
    k: int = 1
    # wiring
    strategy: str = _MODEL.strategy
    sta_variant: str = _MODEL.sta_variant
    cta_layers: str | None = None      # None every block, e.g. "10" only block 0
    cta_mhsa: bool = _MODEL.cta_in_mhsa
    cta_fc1: bool = _MODEL.cta_in_fc1
    cta_fc2: bool = _MODEL.cta_in_fc2
    share_q: str = _MODEL.share_q
    share_k: str = _MODEL.share_k
    share_v: str = _MODEL.share_v
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
        for name in ("weight_decay", "momentum", "noise", "lw_ce", "lw_aux"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if self.attention_mode not in A.ATTENTION_MODES:
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if self.dataset not in ("synthetic", "cifar100"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "cifar100" and not (self.cifar_train and self.cifar_test):
            raise ConfigError("cifar100 needs --cifar-train and --cifar-test paths")
        if self.dataset == "cifar100" and self.image_size != 32:
            raise ConfigError(f"cifar100 images need image_size 32, got {self.image_size}")
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
            image_size=self.image_size, patch_size=self.patch_size, head_dim=self.head_dim,
            gamma=self.gamma, layers=self.layers, strategy=self.strategy,
            sta_variant=self.sta_variant, cta_layers=mask, cta_in_mhsa=self.cta_mhsa,
            cta_in_fc1=self.cta_fc1, cta_in_fc2=self.cta_fc2, share_q=self.share_q,
            share_k=self.share_k, share_v=self.share_v)

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
    return D.cifar_stream(cfg.cifar_train, cfg.cifar_test, cfg.classes, cfg.per_class,
                          cfg.seed, first_task=cfg.first_task, step_size=cfg.step_size,
                          eval_per_class=cfg.eval_per_class)


def write_json(payload: dict, path) -> str:
    """The JSON text of every artifact (sorted keys, indent 2, trailing
    newline), also written to ``path`` unless it is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


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
    write_json({"config": asdict(cfg), "seed": cfg.seed, **record.to_dict()},
               out_dir / "summary.json")
    E.save_checkpoint(model, out_dir / "model.ckpt")

    probe = [s.image for s in stream.tasks[0].eval[:4]]
    stats = A.model_attention_stats(model, probe, mode=cfg.attention_mode)
    write_json({**stats.to_dict(), "mode": cfg.attention_mode,
                "heads_per_task": list(model.heads_per_task)}, out_dir / "attention.json")

    write_json(A.flops_report(model.cfg, model.task_count, cfg.h1,
                              max(model.classes_per_task),
                              A.instrumented_macs(model, stream.tasks[0].eval[0].image),
                              record.flops_macs), out_dir / "flops.json")

    for i, acc in enumerate(record.accuracies, start=1):
        print(f"step {i}: accuracy {acc:.2f}")
    print(f"LA {record.la:.2f}  AA {record.aa:.2f}  heads {model.heads_per_task}")
    if record.d_gap is not None:
        print(f"D_gap {record.d_gap:.2f}")
    print(f"artifacts in {out_dir}")
    return 0


# ------------------------------------------------------------------ parsing

_FLAG_HELP = {"k": "heads added per task", "h1": "first-task heads",
              "joint": "also train the joint upper bound for the D metric",
              "cta_layers": "per-layer mask, e.g. 10"}

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_PARSE = {"int": int, "float": float, "str": str, "bool": lambda text: _BOOLS[text.lower()]}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """One text-valued flag per ``RunConfig`` field, ``--<name>`` with ``-``
    for ``_``; a bool flag given alone means true."""
    p.add_argument("--config", help="flat JSON config file")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), help=_FLAG_HELP.get(f.name),
                       **({"nargs": "?", "const": "true"} if f.type == "bool" else {}))


def _flag_value(f, text: str):
    """A flag's text as a value of field ``f``'s type."""
    try:
        return _PARSE[f.type.split(" | ")[0]](text)
    except (KeyError, ValueError):
        raise ConfigError(f"{f.name} must be {f.type}, got {text!r}") from None


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < JSON config file < explicit command-line flags."""
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (ValueError, RecursionError) as e:   # malformed or too deep JSON, bad UTF-8
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from None
        if not isinstance(values, dict):
            raise ConfigError(f"config file {args.config} holds a JSON "
                              f"{type(values).__name__}, not an object")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(RunConfig):
        text = getattr(args, f.name)
        if text is not None:
            values[f.name] = _flag_value(f, text)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ConfigError``, so it too prints one
    ``error:`` line and exits 1."""

    def error(self, message):           # argparse's hook for every parse error
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="densecil",
        description="desk-scale class-incremental learning with growing task experts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the incremental protocol")
    _add_run_flags(p_train)
    p_train.set_defaults(func=lambda args: run(load_run_config(args)))

    p_attn = sub.add_parser("analyze-attention",
                            help="group decomposition of a trained model's attention")
    p_attn.add_argument("--ckpt", required=True)
    p_attn.add_argument("--out", default=None, help="output JSON path")
    p_attn.add_argument("--mode", default=RunConfig.attention_mode,
                        help=", ".join(A.ATTENTION_MODES))
    p_attn.add_argument("--seed", type=int, default=0)
    p_attn.add_argument("--images", type=int, default=4)
    p_attn.set_defaults(func=_cmd_attention)

    p_flops = sub.add_parser("flops", help="analytic compute table")
    p_flops.add_argument("--heads", type=int, required=True)
    p_flops.add_argument("--patches", type=int, required=True,
                         help="patches per image, a square number")
    p_flops.add_argument("--tasks", type=int, default=6)
    p_flops.add_argument("--dim", type=int, default=64)
    p_flops.add_argument("--out", default=None)
    p_flops.set_defaults(func=_cmd_flops)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--points", type=int, default=10)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_counts = sub.add_parser("counts", help="attention-group entry populations")
    p_counts.add_argument("--heads", type=int, required=True)
    p_counts.add_argument("--patches", type=int, required=True)
    p_counts.set_defaults(func=_cmd_counts)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, C.StreamError, D.FormatError, E.CheckpointError,
            T.NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _cmd_attention(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    model = E.load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    images = [rng.random((model.cfg.in_channels, model.cfg.image_size,
                          model.cfg.image_size)) for _ in range(args.images)]
    stats = A.model_attention_stats(model, images, mode=args.mode)
    print(write_json(stats.to_dict(), args.out), end="")
    return 0


def _cmd_flops(args) -> int:
    side = math.isqrt(max(args.patches, 0))
    if args.patches < 1 or side * side != args.patches:
        raise ConfigError(f"patches must be a positive square number, got {args.patches}")
    # the default model with a side x side patch grid
    cfg = E.ModelConfig(image_size=_MODEL.patch_size * side, head_dim=args.dim)
    report = A.flops_report(cfg, args.tasks, args.heads, classes_per_task=2)
    macs = report["analytic_macs"]
    print(f"crossover bound: T < {report['crossover_tasks']}")
    print(f"analytic MACs  ia({args.tasks} tasks x {args.heads} heads): {macs['ia']:,}")
    print(f"analytic MACs  dne({args.tasks} tasks x 1 head):  {macs['dne']:,}")
    print(f"ratio dne/ia: {report['ratio_dne_over_ia']:.4f}  "
          f"closed form: {report['ratio_formula']:.4f}")
    write_json(report, args.out)
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
