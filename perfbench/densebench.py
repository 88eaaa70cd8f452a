"""Closed-loop load generator for densecil, with optional outside-in tracing.

Three workloads, each driven by one caller that starts the next operation
only when the previous one has returned:

* ``train-dne`` - the default ``densecil train`` protocol (8 classes in
  tasks of 4+2+2, heads (4,1,1), TAB in fc1/fc2, herding buffer,
  distillation, batch 16) with fewer epochs and samples per class.  One
  operation is one whole ``run_stream`` training run.
* ``train-sta`` - the same protocol with the joint masked spatial-task
  attention wiring, which never runs the TAB.
* ``infer-dne`` - no-grad evaluation of a 6-expert dne model (heads
  (4,1,1,1,1,1), 14 classes) restored from checkpoint bytes.  One
  operation is one ``evaluate`` call over a fixed-size chunk of images.

The seed selects the synthetic data; the program receives only the
generated inputs.  The last line of standard output is the JSON result.
With ``--trace 1`` the run alternates untraced and traced operations and
reports per-layer self times and MAC counts instead of end-to-end numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from densecil import analysis, backbone, cli, continual, datasets, expansion, tensor
from densecil.config import TOL

from hostspeed import HostSampler
from spantrace import Span, Tracer, self_macs, self_times, write_spans

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
WORKLOADS = ("train-dne", "train-sta", "infer-dne")
INFER_MODEL_SEED = 0      # the infer-dne model is fixed; --seed picks its inputs
PROBE_SEED = 2303         # fixed probe images for the infer-dne logits check
PROBE_IMAGES = 8


@dataclass(frozen=True)
class Size:
    name: str
    classes: int          # train-* class count; tasks are first_task + k * step_size
    first_task: int
    step_size: int
    per_class: int        # training samples per class
    h1: int               # heads of the first expert; later experts get one
    epochs: int
    tune_epochs: int
    infer_classes: int    # infer-dne: 1 + (infer_classes - first_task) / step_size experts
    infer_per_class: int  # infer-dne image pool: (infer_per_class + 10) per class
    infer_chunk: int      # images per eval request
    setups: int           # set-up repetitions; setup_s is their median


SIZES = {
    "standard": Size(name="standard", classes=8, first_task=4, step_size=2, per_class=8, h1=4,
                     epochs=2, tune_epochs=1, infer_classes=14, infer_per_class=6,
                     infer_chunk=8, setups=5),
    "tiny": Size(name="tiny", classes=4, first_task=2, step_size=1, per_class=2, h1=1,
                 epochs=1, tune_epochs=1, infer_classes=4, infer_per_class=2,
                 infer_chunk=2, setups=2),
}

SELF_SECONDS = {
    "continual.teacher_forward_s": "continual.teacher_forward",
    "continual.distillation_loss_s": "continual.distillation_loss",
    "expansion.clone_model_s": "expansion.clone_model",
    "expansion.tab_forward.frozen_s": "expansion.tab_forward.frozen",
    "expansion.tab_forward.trainable_s": "expansion.tab_forward.trainable",
    "backbone.mhsa_block.frozen_s": "backbone.mhsa_block.frozen",
    "backbone.mhsa_block.trainable_s": "backbone.mhsa_block.trainable",
    "tensor.backward_s": "tensor.backward",
    "tensor.sgd_step_s": "tensor.sgd_step",
    "expansion.sta_attention_stage_s": "expansion.sta_attention_stage",
    "expansion.forward.self_s": "expansion.forward",
    "expansion.cross_task_mhsa.self_s": "expansion.cross_task_mhsa",
    "expansion.task_token_head_s": "expansion.task_token_head",
    "backbone.patch_embed_s": "backbone.patch_embed",
}
CALL_COUNTS = {
    "continual.teacher_forwards": "continual.teacher_forward",
    "expansion.forward_calls": "expansion.forward",
}
SETUP_SECONDS = {
    "datasets.synth_stream_s": "datasets.synth_stream",
    "expansion.model_from_bytes_s": "expansion.model_from_bytes",
}
MACS = {
    "backbone.patch_embed.macs": "backbone.patch_embed",
    "backbone.mhsa_block.macs": "backbone.mhsa_block",
    "expansion.tab_forward.macs": "expansion.tab_forward",
    "expansion.sta_attention_stage.macs": "expansion.sta_attention_stage",
    "expansion.task_token_head.macs": "expansion.task_token_head",
    "expansion.forward.macs": "expansion.forward",
}
PHASES = ("continual.phase1_s", "continual.herding_s", "continual.phase2_s")

LAYER_METRICS = {
    **{name: "s" for name in SELF_SECONDS},
    **{name: "count" for name in CALL_COUNTS},
    "tensor.graph_nodes_per_step": "count",
    **{name: "s" for name in PHASES},
    "continual.evaluate_s": "s",
    **{name: "s" for name in SETUP_SECONDS},
    "tensor.macs_per_forward": "MAC",
    **{name: "MAC" for name in MACS},
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------- results

@dataclass
class Outcome:
    """What one benchmark run measured and checked."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    info: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    report: dict = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def result(self) -> dict:
        return {"correct": self.failed == 0,
                "attempted": max(self.attempted, 1),
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- instrumentation

class LossCheck:
    """Counts backward passes (one per optimizer step) and non-finite losses."""

    def __init__(self):
        self.steps = 0
        self.nonfinite = 0

    def __call__(self, args, kwargs) -> None:
        self.steps += 1
        loss = args[0] if args else kwargs.get("root")
        if not np.all(np.isfinite(getattr(loss, "data", np.nan))):
            self.nonfinite += 1


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _trainable(obj) -> bool | None:
    """Whether the first tensor inside ``obj`` still requires gradients.

    Experts are frozen as a whole, so one tensor answers for all of them.
    """
    if hasattr(obj, "requires_grad"):
        return bool(obj.requires_grad)
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            found = _trainable(getattr(obj, f.name))
            if found is not None:
                return found
    return None


def _split_frozen(label: str, locate):
    """Span namer that appends ``.frozen`` or ``.trainable`` to ``label``."""
    def name(args, kwargs) -> str:
        try:
            trainable = _trainable(locate(args, kwargs))
        except (IndexError, KeyError, AttributeError, TypeError):
            trainable = None
        if trainable is None:
            return label
        return f"{label}.trainable" if trainable else f"{label}.frozen"
    return name


@dataclass
class TraceState:
    teachers: weakref.WeakSet = dataclasses.field(default_factory=weakref.WeakSet)
    graph_nodes: list[int] = dataclasses.field(default_factory=list)


def instrument(tracer: Tracer, loss_check: LossCheck, trace: bool) -> TraceState:
    """Install the loss check, and with ``trace`` the span wrappers."""
    state = TraceState()
    tracer.hook(tensor, "backward", "tensor.backward(loss check)", loss_check)
    if not trace:
        return state
    C, E, B, T, D = continual, expansion, backbone, tensor, datasets
    topo_order = getattr(T, "topo_order", None)

    def count_nodes(args, kwargs) -> None:
        if topo_order is not None:
            state.graph_nodes.append(len(topo_order(args[0] if args else kwargs["root"])))

    def is_teacher(args, kwargs) -> bool:
        return args[0] in state.teachers

    tracer.wrap(D, "synth_stream", "datasets.synth_stream")
    tracer.wrap(E, "model_from_bytes", "expansion.model_from_bytes")
    tracer.wrap(C, "run_stream", "continual.run_stream")
    tracer.wrap(C, "train_task", "continual.train_task")
    tracer.wrap(C, "token_features", "continual.token_features")
    tracer.wrap(C, "herding_select", "continual.herding_select")
    tracer.wrap(C, "evaluate", "continual.evaluate")
    tracer.wrap(C, "distillation_loss", "continual.distillation_loss")
    tracer.wrap(E, "clone_model", "expansion.clone_model", opaque=True,
                after=state.teachers.add)
    tracer.wrap(E.CilModel, "forward", "expansion.forward",
                name=lambda a, k: ("continual.teacher_forward" if is_teacher(a, k)
                                   else "expansion.forward"),
                opaque=is_teacher)
    tracer.wrap(E, "cross_task_mhsa", "expansion.cross_task_mhsa")
    tracer.wrap(E, "sta_attention_stage", "expansion.sta_attention_stage")
    tracer.wrap(E, "tab_forward", "expansion.tab_forward",
                name=_split_frozen("expansion.tab_forward",
                                   lambda a, k: _arg(a, k, 2, "model").experts[_arg(a, k, 4, "task")]))
    tracer.wrap(E, "task_token_head", "expansion.task_token_head")
    tracer.wrap(B, "patch_embed", "backbone.patch_embed")
    tracer.wrap(B, "mhsa_block", "backbone.mhsa_block",
                name=_split_frozen("backbone.mhsa_block", lambda a, k: _arg(a, k, 1, "params")))
    tracer.wrap(T, "backward", "tensor.backward", before=count_nodes)
    tracer.wrap(T.SGD, "step", "tensor.sgd_step")
    return state


def phase_split(spans: list[Span]) -> tuple[float, float, float]:
    """Split each ``train_task`` span at its herding calls.

    Phase 1 runs from the task's start to its first herding call, herding
    is the time inside ``token_features`` and ``herding_select``, and phase 2
    runs from the last herding call to the task's end.
    """
    herding = ("continual.token_features", "continual.herding_select")
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0 and span.name in herding:
            children[span.parent].append(span)
    phase1 = herd = phase2 = 0.0
    for i, span in enumerate(spans):
        if span.name != "continual.train_task":
            continue
        calls = children[i]
        if not calls:
            phase1 += span.duration
            continue
        phase1 += calls[0].start - span.start
        herd += sum(c.duration for c in calls)
        phase2 += span.end - calls[-1].end
    return phase1, herd, phase2


def layer_self(spans: list[Span]) -> dict[str, float]:
    """Self seconds summed per span name."""
    by: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by[span.name] += own
    return by


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds, call counts, phase split and evaluate time."""
    self_by = layer_self(spans)
    wall_by: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        wall_by[span.name] += span.duration
        calls[span.name] += 1
    out = {metric: self_by[name] for metric, name in SELF_SECONDS.items()}
    out.update({metric: float(calls[name]) for metric, name in CALL_COUNTS.items()})
    out.update(zip(PHASES, phase_split(spans)))
    out["continual.evaluate_s"] = wall_by["continual.evaluate"]
    return out


def forward_macs(spans: list[Span]) -> dict[str, int]:
    """Self MACs per layer of one forward pass, and their sum."""
    by_layer: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_macs(spans)):
        base = span.name.removesuffix(".frozen").removesuffix(".trainable")
        by_layer[base] += own
    out = {metric: by_layer[name] for metric, name in MACS.items()}
    out["tensor.macs_per_forward"] = sum(by_layer.values())
    return out


# ----------------------------------------------------------------- workloads

def train_config(workload: str, size: Size, seed: int) -> cli.RunConfig:
    return cli.RunConfig(strategy=workload.removeprefix("train-"), classes=size.classes,
                         first_task=size.first_task, step_size=size.step_size,
                         per_class=size.per_class, h1=size.h1, k=1, epochs=size.epochs,
                         tune_epochs=size.tune_epochs, seed=seed)


def infer_config(size: Size, seed: int, per_class: int) -> cli.RunConfig:
    return cli.RunConfig(strategy="dne", classes=size.infer_classes,
                         first_task=size.first_task, step_size=size.step_size,
                         per_class=per_class, h1=size.h1, k=1, seed=seed)


def train_once(cfg: cli.RunConfig, stream) -> tuple[object, dict, tuple[float, float]]:
    """One timed ``run_stream``; returns the model, its summary and the interval."""
    t0 = time.perf_counter()
    model, record = continual.run_stream(cfg.model_config(), stream, cfg.train_config(),
                                         cfg.seed, buffer_capacity=cfg.buffer)
    t1 = time.perf_counter()
    summary = {"final_acc": float(record.la), "avg_acc": float(record.aa),
               "sha256": hashlib.sha256(expansion.checkpoint_bytes(model)).hexdigest()}
    return model, summary, (t0, t1)


def build_infer_model(cfg: cli.RunConfig, stream):
    """Seeded 6-expert model, restored from its own checkpoint bytes."""
    model = expansion.CilModel(cfg.model_config(), seed=INFER_MODEL_SEED)
    for i, task in enumerate(stream.tasks):
        model.add_expert(cfg.h1 if i == 0 else cfg.k, len(task.classes))
    model = expansion.model_from_bytes(expansion.checkpoint_bytes(model))
    registry = continual.ClassIndex()
    registry.extend(stream.class_order())
    continual.bind_class_index(model, registry)
    return model


def probe_images(size: Size) -> list[np.ndarray]:
    stream = cli.build_stream(infer_config(size, PROBE_SEED, per_class=2))
    samples = [s for task in stream.tasks for s in task.eval]
    return [s.image for s in samples[:: max(len(samples) // PROBE_IMAGES, 1)][:PROBE_IMAGES]]


def probe_logits(model, images) -> np.ndarray:
    with tensor.no_grad():
        return np.stack([model.forward(img).logits.data for img in images])


class Loop:
    """The set-ups and closed-loop operations of one run, with their intervals.

    One caller: the next operation starts when the previous one returned.
    Without tracing, the set-ups after the first are spread over the run so
    that ``setup_s`` sees the same host conditions as the operations, and
    every interval is converted to reference milliseconds by ``host``.
    With tracing, untraced and traced operations alternate, and times are
    plain wall times.
    """

    def __init__(self, seconds: float, trace: bool, size: Size, tracer: Tracer,
                 host: HostSampler | None):
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.tracer = tracer
        self.host = host
        self.setups: list[tuple[float, float]] = []
        self.setup_spans: list[list[Span]] = []
        self.ops: list[tuple[float, float, bool]] = []

    def ms(self, start: float, end: float) -> float:
        if self.host is None:
            return 1000.0 * (end - start)
        return self.host.reference_ms(start, end)

    def setup(self, build):
        self.tracer.enabled = self.trace
        t0 = time.perf_counter()
        try:
            built = build()
        finally:
            self.tracer.enabled = False
        self.setups.append((t0, time.perf_counter()))
        self.setup_spans.append(self.tracer.take())
        return built

    def run(self, op, build) -> None:
        """Call ``op(traced)`` until the next call would overrun the run.

        ``op`` returns the (start, end) of its timed call, or None to stop
        early after a failed operation.
        """
        pending = self.size.setups - len(self.setups)
        while self.trace and pending:
            self.setup(build)
            pending -= 1
        start = time.perf_counter()
        while True:
            traced = sum(1 for o in self.ops if o[2])
            use_trace = self.trace and traced < len(self.ops) - traced
            interval = op(use_trace)
            if interval is None:
                break
            self.ops.append((*interval, use_trace))
            elapsed = time.perf_counter() - start
            if pending and elapsed >= (self.size.setups - pending) * self.seconds / self.size.setups:
                self.setup(build)
                pending -= 1
            if use_trace or not self.trace or traced:
                typical = statistics.median(e - s for s, e, _ in self.ops)
                if elapsed + typical > self.seconds:
                    break
        for _ in range(pending):
            self.setup(build)

    def op_ms(self, traced: bool) -> list[float]:
        return [self.ms(s, e) for s, e, t in self.ops if t == traced]

    def raw_op_ms(self) -> list[float]:
        return [1000.0 * (e - s) for s, e, t in self.ops if not t]

    def setup_seconds(self) -> float:
        return statistics.median(self.ms(s, e) for s, e in self.setups) / 1000.0


def run_train(workload: str, seed: int, loop: Loop, state: TraceState,
              loss_check: LossCheck, out: Outcome) -> list[list[Span]]:
    tracer, size = loop.tracer, loop.size
    cfg = train_config(workload, size, seed)
    build = lambda: cli.build_stream(cfg)
    stream = loop.setup(build)
    ref = load_reference().get(workload, {}).get(size.name, {}).get(str(seed))
    first: dict | None = None
    traced_runs: list[list[Span]] = []
    nodes: list[int] = []
    final_model = None

    def op(traced: bool):
        nonlocal first, final_model
        tracer.enabled = traced
        state.graph_nodes.clear()
        try:
            model, summary, interval = train_once(cfg, stream)
        except Exception as e:          # a failed operation is counted, not fatal
            out.fail(f"run_stream raised {type(e).__name__}: {e}")
            return None
        finally:
            tracer.enabled = False
            spans = tracer.take()
        if traced:
            traced_runs.append(spans)
            nodes.extend(state.graph_nodes)
        final_model = model
        if first is None:
            first = summary
            if ref is not None and (ref["final_acc"], ref["avg_acc"]) != (
                    summary["final_acc"], summary["avg_acc"]):
                out.fail(f"accuracy {summary['final_acc']}/{summary['avg_acc']} differs "
                         f"from reference {ref['final_acc']}/{ref['avg_acc']}")
        elif summary != first:
            out.fail(f"repeated run gave {summary}, first gave {first}")
        return interval

    loop.run(op, build)
    out.attempted = loss_check.steps
    out.failed += loss_check.nonfinite
    if loss_check.nonfinite:
        out.errors.append(f"{loss_check.nonfinite} non-finite losses")
    if first is not None:
        out.info["final_acc"] = (first["final_acc"], "%")
        out.info["avg_acc"] = (first["avg_acc"], "%")
        out.report["sha256"] = first["sha256"]
    out.report["reference"] = ref
    if ref is not None and first is not None:
        out.report["checkpoint_matches_reference"] = ref.get("sha256") == first["sha256"]
    if loop.raw_op_ms():
        out.info["train_s"] = (statistics.median(loop.raw_op_ms()) / 1000.0, "s")
    if not loop.trace:
        return traced_runs
    layers = mean_layers(traced_runs)
    layers["tensor.graph_nodes_per_step"] = float(statistics.median(nodes)) if nodes else 0.0
    finish_trace(out, layers, loop, final_model, stream.tasks[0].eval[0].image)
    return loop.setup_spans + traced_runs


def run_infer(seed: int, loop: Loop, out: Outcome) -> list[list[Span]]:
    tracer, size = loop.tracer, loop.size
    cfg = infer_config(size, seed, per_class=size.infer_per_class)

    def build():
        stream = cli.build_stream(cfg)
        return stream, build_infer_model(cfg, stream)

    stream, model = loop.setup(build)
    images = probe_images(size)
    ref = load_reference().get("infer-dne", {}).get(size.name)
    check_probe(model, images, ref, out)

    pool = [s for task in stream.tasks for s in task.train + task.eval]
    order = np.random.default_rng(seed).permutation(len(pool))
    chunk = size.infer_chunk
    requests = [continual.Task(tuple(stream.class_order()), [],
                               [pool[i] for i in order[j:j + chunk]])
                for j in range(0, len(order) - chunk + 1, chunk)]
    seen_acc: dict[int, float] = {}
    traced_runs: list[list[Span]] = []

    def op(traced: bool):
        index = out.attempted % len(requests)
        out.attempted += 1
        tracer.enabled = traced
        try:
            t0 = time.perf_counter()
            acc, _ = continual.evaluate(model, [requests[index]])
            t1 = time.perf_counter()
        except Exception as e:          # a failed request is counted, not fatal
            out.fail(f"evaluate raised {type(e).__name__}: {e}")
            return None
        finally:
            tracer.enabled = False
            spans = tracer.take()
        if traced:
            traced_runs.append(spans)
        if seen_acc.setdefault(index, acc) != acc:
            out.fail(f"request {index} accuracy {acc} differs from first pass {seen_acc[index]}")
        return t0, t1

    loop.run(op, build)
    check_probe(model, images, ref, out)
    raw = sorted(loop.raw_op_ms())
    out.report["requests"] = {"untraced": len(raw), "traced": len(traced_runs),
                              "images_per_request": chunk, "distinct": len(requests)}
    if raw:
        out.info["eval_images_per_s"] = (chunk * len(raw) / (sum(raw) / 1000.0), "1/s")
        out.info["eval_request_ms.p50"] = (statistics.median(raw), "ms")
        if len(raw) >= 100:        # ten samples beyond the 90th percentile
            out.info["eval_request_ms.p90"] = (float(np.percentile(raw, 90)), "ms")
    if not loop.trace:
        return traced_runs
    layers = mean_layers(traced_runs)
    layers["tensor.graph_nodes_per_step"] = 0.0
    finish_trace(out, layers, loop, model, images[0])
    return loop.setup_spans + traced_runs


def check_probe(model, images, ref: dict | None, out: Outcome) -> None:
    logits = probe_logits(model, images)
    if not np.all(np.isfinite(logits)):
        out.fail("probe logits are not finite")
    if ref is None:
        out.report["probe_reference"] = None
        return
    want = np.asarray(ref["probe_logits"])
    err = float(np.max(np.abs(logits - want))) if want.shape == logits.shape else float("inf")
    out.report["probe_max_abs_err"] = err
    if not err <= TOL.block:
        out.fail(f"probe logits differ from reference by {err} > {TOL.block}")


def mean_layers(runs: list[list[Span]]) -> dict[str, float]:
    """Per-layer seconds and counts per operation, averaged over traced ones."""
    total: dict[str, float] = defaultdict(float, layer_seconds([]))
    for spans in runs:
        for k, v in layer_seconds(spans).items():
            total[k] += v
    return {k: v / max(len(runs), 1) for k, v in total.items()}


def finish_trace(out: Outcome, layers: dict, loop: Loop, model, image) -> None:
    """Add set-up spans, the probe forward's MACs and the tracing overhead."""
    tracer = loop.tracer
    setup_layers = [layer_self(spans) for spans in loop.setup_spans]
    for metric, name in SETUP_SECONDS.items():
        layers[metric] = statistics.median(s.get(name, 0.0) for s in setup_layers)
    if model is not None:
        tracer.enabled = True
        try:
            probe_logits(model, [image])
        finally:
            tracer.enabled = False
        macs = forward_macs(tracer.take())
        expected = analysis.flops_model(model)
        out.report["flops_model"] = expected
        if macs["tensor.macs_per_forward"] != expected:
            out.fail(f"traced MACs {macs['tensor.macs_per_forward']} != "
                     f"flops_model {expected}")
        layers.update(macs)
    plain, traced = loop.op_ms(False), loop.op_ms(True)
    if plain and traced:
        layers["trace.untraced_op_ms"] = statistics.median(plain)
        layers["trace.op_ms"] = statistics.median(traced)
        layers["trace.overhead_frac"] = layers["trace.op_ms"] / layers["trace.untraced_op_ms"] - 1
    out.report["absent"] = list(tracer.absent)
    for metric, unit in LAYER_METRICS.items():
        out.metrics[metric] = (float(layers.get(metric, 0.0)), unit)


# ----------------------------------------------------------------- entry point

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="standard",
                   help="input sizes; 'tiny' is for the benchmark's own tests")
    p.add_argument("--trace-out", default=None,
                   help="where a traced run writes its spans (gzip JSON lines)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = SIZES[args.size]
    trace = bool(args.trace)
    out = Outcome(report={"workload": args.workload, "size": args.size, "trace": trace,
                          "env": environment(args.seed)})
    tracer = Tracer(counter=getattr(tensor, "MacCounter", None))
    loss_check = LossCheck()
    state = instrument(tracer, loss_check, trace)
    host = None if trace else HostSampler()
    loop = Loop(args.seconds, trace, size, tracer, host)
    try:
        with host or contextlib.nullcontext():
            if args.workload == "infer-dne":
                runs = run_infer(args.seed, loop, out)
            else:
                runs = run_train(args.workload, args.seed, loop, state, loss_check, out)
    finally:
        tracer.restore()
    if not trace:
        if loop.ops:
            out.metrics["norm_latency_ms"] = (statistics.median(loop.op_ms(False)), "ms")
        out.metrics["setup_s"] = (loop.setup_seconds(), "s")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if host.samples:
            out.info["host_kernel_ms.mean"] = (1000.0 * statistics.fmean(
                d for _, d in host.samples), "ms")
    else:
        path = Path(args.trace_out) if args.trace_out else \
            HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(path, runs)
        out.report["trace_file"] = str(path)
    out.report["errors"] = out.errors[:10]
    result = out.result()
    out.info["failed_frac"] = (out.failed / result["attempted"], "ratio")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in out.info.items():
        print(f"{name} {value:.6g} {unit}")
    out.report["info"] = {k: {"value": v, "unit": u} for k, (v, u) in out.info.items()}
    print("report " + json.dumps(out.report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0
