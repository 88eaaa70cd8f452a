"""Incremental training: losses, herding buffer, two-phase task loop, metrics.

Each task is learned in two phases.  Phase 1 runs SGD over the task data
plus the replay buffer with a two-part objective (joint cross entropy and
a new-vs-old auxiliary cross entropy).  Phase 2 rebalances: the buffer is
refreshed by herding, then only the newest token block and classifier
slice are tuned on an equal-count-per-class subset.  The frozen experts
run once per training sample per task; ``FrozenCache`` keeps their
outputs batch-major, one row per phase-1 sample, under a per-level budget.

Every model call takes a batch: one graph per SGD batch in training, and
one graph-free forward per ``EVAL_CHUNK`` images in evaluation, herding
and cache filling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import expansion as E
from . import tensor as T
from .config import ConfigError
from .tensor import Tensor


class StreamError(ValueError):
    """Task stream violates its invariants (class overlap, empty task)."""


@dataclass
class Sample:
    image: np.ndarray           # (C, h, w), values in [0, 1]
    label: int


@dataclass
class Task:
    classes: tuple[int, ...]
    train: list[Sample]
    eval: list[Sample]


class TaskStream:
    """Ordered tasks over pairwise-disjoint class sets."""

    def __init__(self, tasks: list[Task]):
        seen: set[int] = set()
        for i, task in enumerate(tasks):
            overlap = seen & set(task.classes)
            if overlap:
                raise StreamError(f"task {i} reuses classes {sorted(overlap)}")
            if not task.classes or not task.train:
                raise StreamError(f"task {i} is empty")
            seen.update(task.classes)
        self.tasks = tasks

    def __len__(self) -> int:
        return len(self.tasks)

    def class_order(self) -> list[int]:
        out = []
        for task in self.tasks:
            out.extend(task.classes)
        return out


# ------------------------------------------------------------------ losses

@dataclass(frozen=True)
class LossWeights:
    ce: float = 1.0        # joint classifier cross entropy
    aux: float = 0.1       # new-task expertise head

    def __post_init__(self):
        if min(self.ce, self.aux) < 0:
            raise ConfigError("loss weights must be nonnegative")


def auxiliary_label(y: int, prior_class_count: int, task_classes) -> int:
    """Map a global class index to the expertise head's label space.

    ``y`` lives in the model's presentation-order index space: indices
    below ``prior_class_count`` belong to earlier tasks and collapse to the
    outlier label 0; the c-th class of the current task maps to c + 1.
    """
    task_classes = list(task_classes)
    if y in task_classes:
        return task_classes.index(y) + 1
    if 0 <= y < prior_class_count:
        return 0
    raise StreamError(f"class index {y} was never seen")


def distillation_loss(new_logits: Tensor, old_logits, n_old: int) -> Tensor:
    """KL(softmax(new logits over old classes) || softmax(old logits)).

    The current model's distribution is the first argument.  With no old
    classes there is nothing to preserve and the loss is zero.  Training
    does not use it: old experts, old heads and the old classifier slices
    are frozen, so the new model's old-class logits equal the old model's
    bit for bit and this KL is exactly 0.
    """
    if n_old == 0:
        return Tensor(np.asarray(0.0))
    old = old_logits.data if isinstance(old_logits, Tensor) else np.asarray(old_logits)
    if old.shape != (n_old,):
        raise T.ShapeError(f"old logits shape {old.shape} vs expected ({n_old},)")
    new_slice = T.reshape(T.narrow(T.reshape(new_logits, (1, -1)), 1, 0, n_old), (1, n_old))
    lp = T.log_softmax_rows(new_slice)
    with np.errstate(divide="ignore"):
        m = old.max()
        lq = (old - m) - np.log(np.exp(old - m).sum())
    p = T.exp(lp)
    return T.sum_all(T.mul(p, T.sub(lp, Tensor(lq.reshape(1, n_old)))))


def images(samples: list[Sample]) -> np.ndarray:
    """The samples' images as one (B, C, h, w) batch."""
    return np.stack([s.image for s in samples])


def total_loss(batch: list[Sample], model: E.CilModel, w: LossWeights,
               task_index_classes: list[int], prior_class_count: int,
               forward: Callable[[list[Sample]], E.ForwardResult] | None = None) -> Tensor:
    """Weighted sum of the per-sample losses, averaged over the batch.

    ``task_index_classes`` are the current task's classifier columns in
    presentation order; sample labels are resolved through the model's
    bound class registry.  ``forward`` runs the model on the whole batch
    at once (default: an uncached ``model.forward``).
    """
    res = forward(batch) if forward is not None else model.forward(images(batch))
    y = [class_index(model, s.label) for s in batch]
    loss = T.mul(Tensor(np.asarray(w.ce)), T.cross_entropy_logits(res.logits, y))
    if w.aux > 0:
        aux_y = [auxiliary_label(i, prior_class_count, task_index_classes) for i in y]
        loss = T.add(loss, T.mul(Tensor(np.asarray(w.aux)),
                                 T.cross_entropy_logits(res.aux_logits, aux_y)))
    return T.mul(Tensor(np.asarray(1.0 / len(batch))), T.sum_all(loss))


class ClassIndex:
    """Bidirectional map between raw class ids and classifier columns."""

    def __init__(self):
        self.order: list[int] = []
        self._index: dict[int, int] = {}

    def extend(self, classes) -> None:
        for c in classes:
            if c in self._index:
                raise StreamError(f"class {c} registered twice")
            self._index[c] = len(self.order)
            self.order.append(c)

    def index(self, label: int) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StreamError(f"class id {label} was never seen") from None

    def label(self, index: int) -> int:
        return self.order[index]

    def __len__(self):
        return len(self.order)


def class_index(model: E.CilModel, label: int) -> int:
    idx = getattr(model, "class_registry", None)
    if idx is None:
        raise T.ContractError("model has no class registry; use bind_class_index")
    return idx.index(label)


def bind_class_index(model: E.CilModel, index: ClassIndex) -> None:
    model.class_registry = index


# ------------------------------------------------------------------ buffer

class MemoryBuffer:
    """Capacity-limited exemplar store, balanced across seen classes.

    Exemplars are kept in herding order per class, so quota shrinkage is a
    prefix truncation.  The remainder of capacity // classes goes to the
    earliest-seen classes, one extra exemplar each.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError("buffer capacity must be nonnegative")
        self.capacity = capacity
        self._store: dict[int, list[Sample]] = {}
        self._class_order: list[int] = []

    def __len__(self) -> int:
        return sum(len(v) for v in self._store.values())

    @property
    def classes_seen(self) -> list[int]:
        return list(self._class_order)

    def quota(self, n_classes: int | None = None) -> int:
        n = n_classes if n_classes is not None else len(self._class_order)
        return 0 if n == 0 else self.capacity // n

    def class_count(self, label: int) -> int:
        return len(self._store.get(label, ()))

    def add_class(self, label: int, ordered: list[Sample]) -> None:
        if label in self._store:
            raise StreamError(f"class {label} already buffered")
        self._class_order.append(label)
        self._store[label] = list(ordered)

    def rebalance(self) -> None:
        n = len(self._class_order)
        if n == 0:
            return
        base = self.capacity // n
        extra = self.capacity - base * n
        for i, label in enumerate(self._class_order):
            limit = base + (1 if i < extra else 0)
            self._store[label] = self._store[label][:limit]

    def samples(self) -> list[Sample]:
        out: list[Sample] = []
        for label in self._class_order:
            out.extend(self._store[label])
        return out

    def class_samples(self, label: int) -> list[Sample]:
        return list(self._store.get(label, ()))


def herding_select(features: np.ndarray, m: int) -> list[int]:
    """Greedy exemplar choice: repeatedly add the sample whose inclusion
    keeps the running exemplar mean closest (L2) to the class mean.

    Ties break to the lowest index.  Returns indices in selection order.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if m > n:
        raise ConfigError(f"cannot select {m} exemplars from {n} samples")
    target = features.mean(axis=0)
    chosen: list[int] = []
    remaining = list(range(n))
    for _ in range(m):
        best_idx, best_dist = None, None
        k = len(chosen) + 1
        for idx in remaining:
            rows = features[chosen + [idx]]
            cand = rows.sum(axis=0) / k
            dist = float(np.linalg.norm(target - cand))
            if best_dist is None or dist < best_dist:
                best_idx, best_dist = idx, dist
        chosen.append(best_idx)
        remaining.remove(best_idx)
    return chosen


def chunks(samples: list) -> list[list]:
    """Consecutive pieces of at most ``EVAL_CHUNK`` items."""
    return [samples[i:i + EVAL_CHUNK] for i in range(0, len(samples), EVAL_CHUNK)]


def token_features(model: E.CilModel, samples: list[Sample],
                   forward: Callable[[list[Sample]], E.ForwardResult] | None = None,
                   ) -> np.ndarray:
    """Concatenated task-token read-outs, the herding feature space."""
    rows = []
    with T.no_grad():
        for chunk in chunks(samples):
            res = forward(chunk) if forward is not None else model.forward(images(chunk))
            rows.append(np.concatenate([f.data.reshape(len(chunk), -1)
                                        for f in res.token_feats], axis=1))
    return np.concatenate(rows)


def class_balanced_subsample(current_data: list[Sample], buffer: MemoryBuffer,
                             rng: np.random.Generator) -> list[Sample]:
    """Equal-count tuning set: buffer exemplars for old classes plus a
    seeded uniform subsample of the current data for the new ones."""
    by_class: dict[int, list[Sample]] = {}
    for s in current_data:
        by_class.setdefault(s.label, []).append(s)
    counts = [buffer.class_count(c) for c in buffer.classes_seen
              if c not in by_class]
    quota = buffer.quota()
    if counts:
        quota = min(quota, min(counts))
    quota = min(quota, *(len(v) for v in by_class.values()))
    out: list[Sample] = []
    for c in buffer.classes_seen:
        if c in by_class:
            continue
        out.extend(buffer.class_samples(c)[:quota])
    for c, samples in by_class.items():
        if len(samples) > quota:
            pick = rng.choice(len(samples), size=quota, replace=False)
            out.extend(samples[i] for i in sorted(pick))
        else:
            out.extend(samples)
    return out


# ------------------------------------------------------------------ metrics

@dataclass
class MetricsRecord:
    """Accuracies per incremental step plus the derived summary numbers."""
    accuracies: list[float] = field(default_factory=list)
    per_task_final: list[float] = field(default_factory=list)
    d_gap: float | None = None
    joint_accuracy: float | None = None
    flops_macs: int | None = None

    @property
    def la(self) -> float:
        return self.accuracies[-1]

    @property
    def aa(self) -> float:
        return float(np.mean(self.accuracies))

    def set_joint(self, joint_accuracy: float) -> None:
        self.joint_accuracy = joint_accuracy
        self.d_gap = joint_accuracy - self.la

    def to_dict(self) -> dict:
        return {
            "accuracies": self.accuracies,
            "LA": self.la,
            "AA": self.aa,
            "per_task_final": self.per_task_final,
            "joint_accuracy": self.joint_accuracy,
            "D_gap": self.d_gap,
            "flops_macs": self.flops_macs,
        }


def evaluate(model: E.CilModel, seen_tasks: list[Task]) -> tuple[float, list[float]]:
    """Top-1 accuracy over the union of seen eval sets, plus per-task accuracy.

    Counts are integers accumulated in task order, so the result does not
    depend on evaluation order.
    """
    per_task: list[float] = []
    correct_total = 0
    n_total = 0
    with T.no_grad():
        for task in seen_tasks:
            correct = 0
            for chunk in chunks(task.eval):
                pred = np.argmax(model.forward(images(chunk)).logits.data, axis=-1)
                correct += sum(class_index(model, s.label) == int(p)
                               for s, p in zip(chunk, pred))
            per_task.append(100.0 * correct / len(task.eval) if task.eval else 0.0)
            correct_total += correct
            n_total += len(task.eval)
    union = 100.0 * correct_total / n_total if n_total else 0.0
    return union, per_task


# ------------------------------------------------------------------ frozen-expert cache

EVAL_CHUNK = 16
"""Images per graph-free forward in ``evaluate``, ``token_features`` and
``FrozenCache.prefetch``; measured per image on this code, 16 was faster
than both smaller and larger chunks."""

CACHE_BYTES = 256 * 2**20
"""Byte budget of one task's ``FrozenCache``; a level past it is not stored."""


class FrozenCache:
    """Frozen-expert outputs of one task's training samples, batch-major.

    While the newest expert trains, experts 0..t-1 are frozen and read only
    older experts, so their outputs are fixed functions of the image.  Row
    i of every kept array belongs to ``samples[i]``, and ``level[i]`` says
    what that row holds: 0 nothing, 1 the frozen prefix, 2 the prefix plus
    the newest expert's final features.  Rows are filled to level 1 by
    forwards in phase 1 and to level 2 once ``body_fixed`` is set (phase 1
    is over), so the tuning phase runs only the newest token head.

    ``forward`` takes a batch of the cache's samples.  It runs from the
    deepest level all its rows hold, with one index gather per kept array,
    and fills the rows it computed with one scatter.  The first fill sizes
    the store for every row: a level whose bytes do not fit ``CACHE_BYTES``
    is not stored, and with no frozen expert level 1 holds nothing and is
    skipped.  Results are bit-identical to uncached forwards.
    """

    def __init__(self, model: E.CilModel, samples: list[Sample]):
        self.model = model
        self.n = model.task_count - 1
        self.body_fixed = False
        self.samples = samples
        self.level = np.zeros(len(samples), dtype=np.int8)
        self.top: int | None = None     # deepest storable level, set by the first fill
        self.nbytes = 0
        self._rows = {id(s): i for i, s in enumerate(samples)}
        self._store: E.FrozenOutputs | None = None

    def _target(self) -> int:
        """The level a forward now fills its rows to."""
        want = 2 if self.body_fixed else int(self.n > 0)
        return want if self.top is None else min(want, self.top)

    def _allocate(self, kept: E.FrozenOutputs) -> None:
        """Size the store from one batch's outputs, prefix and features: the
        deepest level whose bytes for every row fit ``CACHE_BYTES``."""
        count = len(self.samples)
        sizes = [count * a[0].nbytes for a in kept.arrays()]
        prefix, total = sum(sizes[:-len(kept.features)]), sum(sizes)
        self.top = 2 if total <= CACHE_BYTES else int(0 < prefix <= CACHE_BYTES)
        self.nbytes = (0, prefix, total)[self.top]
        if self.top:
            self._store = E.map_frozen(kept, lambda a: np.empty((count, *a.shape[1:])),
                                       self.top == 2)

    def forward(self, samples: list[Sample]) -> E.ForwardResult:
        rows = np.array([self._rows[id(s)] for s in samples])
        depth = int(self.level[rows].min())
        frozen = (None if depth == 0 else
                  E.map_frozen(self._store, lambda a: a[rows], depth == 2))
        res = self.model.forward(images(samples), frozen=frozen)
        if self.top is None:
            self._allocate(E.freeze_outputs(self.model, res, self.n, features=True))
        want = self._target()
        if depth < want:
            kept = E.freeze_outputs(self.model, res, self.n, features=want == 2)
            # below level 2, ``kept`` stops before the store's feature arrays
            for dst, src in zip(self._store.arrays(), kept.arrays()):
                dst[rows] = src
            self.level[rows] = want
        return res

    def prefetch(self, samples: list[Sample]) -> None:
        """Compute without a graph what later forwards of ``samples`` reuse."""
        want = self._target()
        todo = [s for s in samples if self.level[self._rows[id(s)]] < want]
        with T.no_grad():
            for chunk in chunks(todo):
                self.forward(chunk)


# ------------------------------------------------------------------ training

@dataclass
class TrainConfig:
    epochs: int = 500
    tune_epochs: int = 20
    lr: float = 2.5e-4
    weight_decay: float = 1e-6
    momentum: float = 0.0
    batch_size: int = 256
    loss_weights: LossWeights = field(default_factory=LossWeights)
    heads_first: int = 12
    heads_per_step: int = 1


def _sgd_epochs(params, data, epochs, cfg: TrainConfig, rng, loss_fn, where: str):
    """SGD over ``data``; a ``NumericError`` is re-raised naming ``where``
    (task and phase), the epoch and the batch.

    numpy's overflow and invalid-value warnings are silenced here: a
    diverging run reaches a finiteness check, which raises instead."""
    opt = T.SGD(params, lr=cfg.lr, weight_decay=cfg.weight_decay,
                momentum=cfg.momentum)
    n = len(data)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = [data[i] for i in order[start:start + cfg.batch_size]]
                try:
                    loss = loss_fn(batch)
                except T.NumericError as e:
                    raise T.NumericError(
                        f"{where}, epoch {epoch}, batch {start // cfg.batch_size}: {e}") from e
                opt.zero_grad()
                T.backward(loss)
                opt.step()


def train_task(model: E.CilModel, task: Task, buffer: MemoryBuffer,
               cfg: TrainConfig, *, class_registry: ClassIndex,
               rng: np.random.Generator) -> E.CilModel:
    """Learn one task in place: train, refresh the buffer, tune.

    The expert for ``task`` must already have been added; this runs the
    optimization phases.
    """
    prior = len(class_registry) - len(task.classes)
    t = model.task_count - 1
    w = cfg.loss_weights
    task_cols = list(range(prior, prior + len(task.classes)))
    if buffer.capacity == 0 and prior > 0:
        phase1_data = list(task.train)
    else:
        phase1_data = list(task.train) + buffer.samples()

    cache = FrozenCache(model, phase1_data)
    _sgd_epochs(model.trainable_parameters(), phase1_data, cfg.epochs, cfg, rng,
                lambda batch: total_loss(batch, model, w, task_cols, prior, cache.forward),
                f"task {t}, phase 1")
    cache.body_fixed = True

    # herding refresh: features from the freshly trained model
    if buffer.capacity > 0:
        by_class: dict[int, list[Sample]] = {}
        for s in task.train:
            by_class.setdefault(s.label, []).append(s)
        quota = buffer.quota(len(buffer.classes_seen) + len(by_class))
        for c in task.classes:
            samples = by_class[c]
            feats = token_features(model, samples, cache.forward)
            order = herding_select(feats, min(quota, len(samples)))
            buffer.add_class(c, [samples[i] for i in order])
        buffer.rebalance()

    if cfg.tune_epochs > 0:
        balanced = class_balanced_subsample(task.train, buffer, rng) \
            if buffer.capacity > 0 else list(task.train)
        tune_params = model.parameters_with_prefix(f"task{t}.tok_blk", f"task{t}.head")
        cache.prefetch(balanced)
        _sgd_epochs(tune_params, balanced, cfg.tune_epochs, cfg, rng,
                    lambda batch: total_loss(batch, model, LossWeights(w.ce, 0.0),
                                             task_cols, prior, cache.forward),
                    f"task {t}, phase 2")
    return model


def run_stream(model_cfg: E.ModelConfig, stream: TaskStream, cfg: TrainConfig,
               seed: int, buffer_capacity: int = 2000,
               ) -> tuple[E.CilModel, MetricsRecord]:
    """Drive the full incremental protocol over a task stream."""
    seeds = np.random.SeedSequence(seed).spawn(len(stream) + 1)
    model = E.CilModel(model_cfg, seed=seed)
    registry = ClassIndex()
    bind_class_index(model, registry)
    buffer = MemoryBuffer(buffer_capacity)
    record = MetricsRecord()
    for i, task in enumerate(stream.tasks):
        heads = cfg.heads_first if i == 0 else cfg.heads_per_step
        model.add_expert(heads, len(task.classes))
        registry.extend(task.classes)
        rng = np.random.default_rng(seeds[i])
        train_task(model, task, buffer, cfg, class_registry=registry, rng=rng)
        acc, per_task = evaluate(model, stream.tasks[: i + 1])
        record.accuracies.append(acc)
        record.per_task_final = per_task
    return model, record


def train_joint(model_cfg: E.ModelConfig, stream: TaskStream, cfg: TrainConfig,
                seed: int) -> float:
    """Upper-bound reference: one expert, all classes at once, same epochs."""
    all_classes: list[int] = stream.class_order()
    train = [s for task in stream.tasks for s in task.train]
    joint_task = Task(tuple(all_classes), train,
                      [s for task in stream.tasks for s in task.eval])
    joint_stream = TaskStream([joint_task])
    joint_cfg = replace(cfg, tune_epochs=0, loss_weights=LossWeights(cfg.loss_weights.ce, 0.0))
    _, rec = run_stream(model_cfg, joint_stream, joint_cfg, seed, buffer_capacity=0)
    return rec.la


# ------------------------------------------------------------------ reports

def write_metrics_csv(record: MetricsRecord, path) -> None:
    """One row per (task_step, metric); summary rows use the final step."""
    final = len(record.accuracies)
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(["task_step", "metric", "value"])
        for i, acc in enumerate(record.accuracies, start=1):
            out.writerow([i, "accuracy", repr(acc)])
        out.writerow([final, "LA", repr(record.la)])
        out.writerow([final, "AA", repr(record.aa)])
        if record.d_gap is not None:
            out.writerow([final, "D_gap", repr(record.d_gap)])
        if record.flops_macs is not None:
            out.writerow([final, "flops_macs", record.flops_macs])


def write_summary_json(record: MetricsRecord, config_echo: dict, seed: int, path) -> None:
    payload = {"config": config_echo, "seed": seed, **record.to_dict()}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
