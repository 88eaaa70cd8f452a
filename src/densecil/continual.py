"""Incremental training: losses, herding buffer, two-phase task loop, metrics.

Each task is learned in two phases.  Phase 1 runs SGD over the task data
plus the replay buffer with a two-part objective (joint cross entropy and
a new-vs-old auxiliary cross entropy).  Phase 2 rebalances: the buffer is
refreshed by herding, then only the newest token block and classifier
slice are tuned on an equal-count-per-class subset.  A trained expert runs
once per sample per run: the run's ``FrozenStore`` keeps its outputs in
one batch-major row per training sample and per eval sample that a later
step scores again, under one byte budget, ``CACHE_BYTES``.

Every model call takes a batch: one graph per SGD batch in training, and
one graph-free forward per ``EVAL_CHUNK`` images in evaluation, herding
and store filling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import expansion as E
from . import tensor as T
from .config import ConfigError
from .tensor import Tensor


class StreamError(ValueError):
    """Task stream violates its invariants (overlap, empty task, class with no sample)."""


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
    """Ordered tasks over disjoint class sets; each class has training and eval samples."""

    def __init__(self, tasks: list[Task]):
        seen: set[int] = set()
        for i, task in enumerate(tasks):
            overlap = seen & set(task.classes)
            if overlap:
                raise StreamError(f"task {i} reuses classes {sorted(overlap)}")
            if not task.classes or not task.train:
                raise StreamError(f"task {i} is empty")
            for split, samples in (("training", task.train), ("eval", task.eval)):
                if missing := sorted(set(task.classes) - {s.label for s in samples}):
                    raise StreamError(f"task {i} has no {split} sample of class {missing[0]}")
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
    ce: float              # joint classifier cross entropy
    aux: float             # new-task expertise head

    def __post_init__(self):
        if not all(np.isfinite(w) and w >= 0 for w in (self.ce, self.aux)):
            raise ConfigError("loss weights must be finite and nonnegative")


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
    bit for bit and this KL is exactly 0.  It stays because the benchmark
    traces it by this name.  It is one graph node: with p and q the two
    softmaxes, its input gradient is ``p * (log p - log q - KL)`` on the
    old classes and zero past them.
    """
    if n_old == 0:
        return Tensor(np.asarray(0.0))
    old = old_logits.data if isinstance(old_logits, Tensor) else np.asarray(old_logits)
    new = new_logits.data.reshape(-1)
    if old.shape != (n_old,) or new.size < n_old:
        raise T.ShapeError(f"old logits shape {old.shape} vs expected ({n_old},) "
                           f"of new logits {new_logits.shape}")
    x = np.stack([new[:n_old], old])
    shifted = x - x.max(axis=-1, keepdims=True)
    lp, lq = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p = np.exp(lp)
    diff = lp - lq
    kl = (p * diff).sum()

    def bwd(g):
        dx = np.zeros(new.shape)
        dx[:n_old] = g * p * (diff - kl)
        return (dx.reshape(new_logits.shape),)

    return T._make(np.asarray(kl), (new_logits,), "distillation_loss", bwd)


def images(samples: list[Sample]) -> np.ndarray:
    """The samples' images as one (B, C, h, w) batch."""
    return np.stack([s.image for s in samples])


def total_loss(batch: list[Sample], model: E.CilModel, w: LossWeights,
               task_index_classes: list[int], prior_class_count: int,
               forward: Callable[[list[Sample]], E.ForwardResult]) -> Tensor:
    """Weighted sum of the per-sample losses, averaged over the batch.

    ``task_index_classes`` are the current task's classifier columns in
    presentation order; sample labels are resolved through the model's
    bound class registry.  ``forward`` runs the model on the whole batch
    at once.
    """
    res = forward(batch)
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

    def __len__(self):
        return len(self.order)


def class_index(model: E.CilModel, label: int) -> int:
    if model.class_registry is None:
        raise T.ContractError("model has no class registry; use bind_class_index")
    return model.class_registry.index(label)


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
        self._store: dict[int, list[Sample]] = {}   # in the order classes were seen

    @property
    def classes_seen(self) -> list[int]:
        return list(self._store)

    def quota(self, n_classes: int | None = None) -> int:
        n = n_classes if n_classes is not None else len(self._store)
        return 0 if n == 0 else self.capacity // n

    def class_count(self, label: int) -> int:
        return len(self._store.get(label, ()))

    def add_class(self, label: int, ordered: list[Sample]) -> None:
        if label in self._store:
            raise StreamError(f"class {label} already buffered")
        self._store[label] = list(ordered)

    def rebalance(self) -> None:
        n = len(self._store)
        if n == 0:
            return
        base = self.capacity // n
        extra = self.capacity - base * n
        for i, label in enumerate(self._store):
            limit = base + (1 if i < extra else 0)
            self._store[label] = self._store[label][:limit]

    def samples(self) -> list[Sample]:
        out: list[Sample] = []
        for kept in self._store.values():
            out.extend(kept)
        return out

    def class_samples(self, label: int) -> list[Sample]:
        return list(self._store.get(label, ()))


def herding_select(features: np.ndarray, m: int) -> list[int]:
    """Greedy exemplar choice: repeatedly add the sample whose inclusion
    keeps the running exemplar mean closest (L2) to the class mean.

    Ties break to the lowest index.  Returns indices in selection order.
    The chosen rows' sum is kept as it grows, adding rows in selection
    order, which is the order in which a sum over the chosen rows adds them.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if m > n:
        raise ConfigError(f"cannot select {m} exemplars from {n} samples")
    target = features.mean(axis=0)
    total = np.zeros(features.shape[1:])
    chosen: list[int] = []
    remaining = list(range(n))
    for _ in range(m):
        best_idx, best_dist = None, None
        k = len(chosen) + 1
        for idx in remaining:
            cand = (total + features[idx]) / k
            dist = float(np.linalg.norm(target - cand))
            if best_dist is None or dist < best_dist:
                best_idx, best_dist = idx, dist
        chosen.append(best_idx)
        remaining.remove(best_idx)
        total += features[best_idx]
    return chosen


def chunks(samples: list) -> list[list]:
    """Consecutive pieces of at most ``EVAL_CHUNK`` items."""
    return [samples[i:i + EVAL_CHUNK] for i in range(0, len(samples), EVAL_CHUNK)]


def token_features(samples: list[Sample],
                   forward: Callable[[list[Sample]], E.ForwardResult]) -> np.ndarray:
    """Concatenated task-token read-outs of ``forward``'s model, the herding
    feature space."""
    rows = []
    with T.no_grad():
        for chunk in chunks(samples):
            res = forward(chunk)
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


def evaluate(model: E.CilModel, seen_tasks: list[Task],
             store: FrozenStore | None = None) -> tuple[float, list[float]]:
    """Top-1 accuracy over the union of seen eval sets, plus per-task accuracy.

    Counts are integers accumulated in task order, so the result does not
    depend on evaluation order.  With ``store``, every chunk runs through
    ``store.forward``.
    """
    per_task: list[float] = []
    correct_total = 0
    n_total = 0
    with T.no_grad():
        for task in seen_tasks:
            correct = 0
            for chunk in chunks(task.eval):
                res = store.forward(chunk) if store is not None else model.forward(images(chunk))
                pred = np.argmax(res.logits.data, axis=-1)
                correct += sum(class_index(model, s.label) == int(p)
                               for s, p in zip(chunk, pred))
            per_task.append(100.0 * correct / len(task.eval) if task.eval else 0.0)
            correct_total += correct
            n_total += len(task.eval)
    union = 100.0 * correct_total / n_total if n_total else 0.0
    return union, per_task


# ------------------------------------------------------------------ frozen-expert store

EVAL_CHUNK = 16
"""Images per graph-free forward in ``evaluate``, ``token_features`` and
``FrozenStore.prefetch``; measured per image on this code, 16 was faster
than both smaller and larger chunks."""

CACHE_BYTES = 256 * 2**20
"""Byte budget of a run's ``FrozenStore``: an expert's arrays are allocated
for every row if they fit, and for none otherwise.  A forward that finds no
entry runs the experts itself."""


class FrozenStore:
    """A run's frozen-expert outputs: one batch-major row per training
    sample of the stream, then one per eval sample of every task but the
    last, which is scored only at the last step.

    All rows form one prefix (``freeze_outputs``) with a row axis, in two
    stages per expert: its body, an array for each list of
    ``ForwardResult.reads``, then its token head, its token feature alone
    (a forward forms the classifier slice from it).  Row i holds the first
    ``held[i]`` stages; holding the newest body but not its token head, it
    holds that expert's final features too, so a forward from it runs only
    the token head.  Forwards keep the stages the model has frozen: both of
    every older expert, then the newest expert's body and token head as
    each stops training.  ``prefetch`` fills rows ahead of their forwards.
    Of the stream's last expert only the features are kept.  Results are
    bit-identical to uncached forwards.
    """

    def __init__(self, model: E.CilModel, stream: TaskStream):
        samples = ([s for task in stream.tasks for s in task.train]
                   + [s for task in stream.tasks[:-1] for s in task.eval])
        self.model = model
        self._stream = stream
        self.held = np.zeros(len(samples), dtype=np.min_scalar_type(2 * len(stream)))
        self.nbytes = 0                 # bytes of the rows' arrays
        self._rows = {id(s): i for i, s in enumerate(samples)}
        self._data: E.ForwardResult | None = None   # every row's arrays

    def _frozen_stages(self) -> int:
        """How many stages the model has frozen, by its ``requires_grad`` flags."""
        t = self.model.task_count - 1
        training = [n for n, p in self.model.named_parameters() if p.requires_grad]
        head = (f"task{t}.token", f"task{t}.tok_blk", f"task{t}.head")
        return 2 * t + all(n.startswith(head) for n in training) + (not training)

    def _grow(self, kept: E.ForwardResult, features: Tensor | None) -> int:
        """Allocate for every row, in expert order while they fit, the arrays
        of the experts whose every list ``kept`` holds and a later task reads,
        then the newest expert's ``features``; returns the width."""
        count, t = len(self.held), self.model.task_count - 1

        def fits(nbytes: int) -> bool:
            if self.nbytes + nbytes > CACHE_BYTES:
                return False
            self.nbytes += nbytes
            return True

        if self._data is None:          # an empty record shaped like ``kept``
            self._data = E.freeze_outputs(kept, 0)
        width = len(self._data.token_feats)
        for j in range(width, min(*map(len, kept.columns()), len(self._stream) - 1)):
            new = [s[j].data for s in kept.columns()]
            if not fits(sum(count * a[0].nbytes for a in new)):
                break
            for dst, a in zip(self._data.columns(), new):
                dst.append(Tensor(np.empty((count, *a.shape[1:]))))
            width += 1
        if (features is not None and not self._data.features and width >= t
                and fits(count * features.data[0].nbytes)):
            self._data.features = [None] * t + [Tensor(np.empty((count, *features.shape[1:])))]
        return width

    def forward(self, samples: list[Sample]) -> E.ForwardResult:
        """Run a batch of the stream's samples from the stages all its rows
        hold; keep in the rows the frozen stages they lack and fit.  A batch
        with a sample that has no row runs without the store."""
        rows = [self._rows.get(id(s)) for s in samples]
        if None in rows:
            return self.model.forward(images(samples))
        rows = np.array(rows)
        held = int(self.held[rows].min())
        frozen = (E.freeze_outputs(self._data, held // 2, features=held % 2 == 1, rows=rows)
                  if held else None)
        res = self.model.forward(images(samples), frozen=frozen)
        keep = self._frozen_stages()
        if held < keep:
            kept = E.freeze_outputs(res, (keep + 1) // 2)
            top = min(keep, 2 * self._grow(kept, res.features[-1] if keep % 2 else None))
            # the newest body is held only with its features
            top = keep if keep % 2 and self._data.features else top - top % 2
            columns = self._data.columns()
            for c, (dst, src) in enumerate(zip(columns, kept.columns())):
                b = c < len(columns) - 1    # a body column: entry j is stage 2j, else 2j + 1
                for d, s in zip(dst[(held + b) // 2:(top + b) // 2], src[(held + b) // 2:]):
                    d.data[rows] = s.data
            if top % 2:
                self._data.features[-1].data[rows] = res.features[-1].data
            self.held[rows] = np.maximum(self.held[rows], top)
        return res

    def prefetch(self, samples: list[Sample]) -> None:
        """Compute without a graph what later forwards of ``samples`` reuse, one
        forward per ``EVAL_CHUNK`` rows of one ``held``, while the rows have room."""
        keep = self._frozen_stages()
        todo: dict[int, list[Sample]] = {}
        for s in samples:
            held = int(self.held[self._rows[id(s)]])
            if held < keep:
                todo.setdefault(held, []).append(s)
        with T.no_grad():
            for held, group in todo.items():
                for chunk in chunks(group):
                    self.forward(chunk)
                    if self.held[self._rows[id(chunk[0])]] == held:
                        break           # no room for these rows

    def complete(self, samples: list[Sample]) -> None:
        """End the task of a frozen model: unless its expert is the stream's
        last, fill the rows of ``samples`` and of the next task's training
        samples past it.  Then drop the features, rounding ``held`` down."""
        if self.model.task_count < len(self._stream):
            self.prefetch(samples + self._stream.tasks[self.model.task_count].train)
        if self._data is not None and self._data.features:
            self.nbytes -= self._data.features[-1].data.nbytes
            self._data.features = []
        self.held -= self.held % 2


# ------------------------------------------------------------------ training

@dataclass
class TrainConfig:
    """The optimisation settings of a run; ``cli.RunConfig.train_config``
    builds it, and ``RunConfig`` holds every setting's default."""
    epochs: int
    tune_epochs: int
    lr: float
    weight_decay: float
    momentum: float
    batch_size: int
    loss_weights: LossWeights
    heads_first: int
    heads_per_step: int


def _located(where: str, fn):
    """``fn()``, re-raising a ``NumericError`` with ``where`` (task and
    step) in front.  numpy's overflow and invalid-value warnings are silenced
    here: a diverging run reaches a finiteness check, which raises instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn()
        except T.NumericError as e:
            raise T.NumericError(f"{where}: {e}") from e


def _sgd_epochs(params, data, epochs, cfg: TrainConfig, rng, loss_fn, where: str):
    """SGD over ``data``; an error names ``where`` (task and phase), epoch and batch."""
    opt = T.SGD(params, lr=cfg.lr, weight_decay=cfg.weight_decay, momentum=cfg.momentum)

    def step(batch):
        opt.zero_grad()
        T.backward(loss_fn(batch))
        opt.step()

    for epoch in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            _located(f"{where}, epoch {epoch}, batch {start // cfg.batch_size}",
                     lambda: step([data[i] for i in order[start:start + cfg.batch_size]]))


def train_task(model: E.CilModel, task: Task, buffer: MemoryBuffer,
               cfg: TrainConfig, *, rng: np.random.Generator,
               store: FrozenStore) -> E.CilModel:
    """Learn one task in place: train, refresh the buffer, tune.

    The expert for ``task`` must already have been added, and its classes
    to the model's class registry.  After phase 1 only the newest token
    block and classifier slice train, and after phase 2 nothing does.
    ``store`` is the run's ``FrozenStore``; every forward goes through it.
    """
    prior = len(model.class_registry) - len(task.classes)
    t = model.task_count - 1
    w = cfg.loss_weights
    task_cols = list(range(prior, prior + len(task.classes)))
    phase1_data = list(task.train) + buffer.samples()
    _sgd_epochs(model.trainable_parameters(), phase1_data, cfg.epochs, cfg, rng,
                lambda batch: total_loss(batch, model, w, task_cols, prior, store.forward),
                f"task {t}, phase 1")
    for name, p in model.named_parameters():
        p.requires_grad = p.requires_grad and name.startswith((f"task{t}.tok_blk", f"task{t}.head"))

    # herding refresh: features from the freshly trained model
    if buffer.capacity > 0:
        by_class: dict[int, list[int]] = {}
        for i, s in enumerate(task.train):
            by_class.setdefault(s.label, []).append(i)
        quota = buffer.quota(len(buffer.classes_seen) + len(by_class))
        feats = _located(f"task {t}, herding", lambda: token_features(task.train, store.forward))
        for c in task.classes:
            rows = by_class[c]
            order = herding_select(feats[rows], min(quota, len(rows)))
            buffer.add_class(c, [task.train[rows[i]] for i in order])
        buffer.rebalance()

    if cfg.tune_epochs > 0:
        balanced = class_balanced_subsample(task.train, buffer, rng) \
            if buffer.capacity > 0 else list(task.train)
        _located(f"task {t}, store fill", lambda: store.prefetch(balanced))
        _sgd_epochs(model.trainable_parameters(), balanced, cfg.tune_epochs, cfg, rng,
                    lambda batch: total_loss(batch, model, LossWeights(w.ce, 0.0),
                                             task_cols, prior, store.forward),
                    f"task {t}, phase 2")
    model.freeze_all()
    _located(f"task {t}, store fill", lambda: store.complete(buffer.samples()))
    return model


def run_stream(model_cfg: E.ModelConfig, stream: TaskStream, cfg: TrainConfig,
               seed: int, buffer_capacity: int) -> tuple[E.CilModel, MetricsRecord]:
    """Drive the full incremental protocol over a task stream."""
    seeds = np.random.SeedSequence(seed).spawn(len(stream))
    model = E.CilModel(model_cfg, seed=seed)
    registry = ClassIndex()
    bind_class_index(model, registry)
    buffer = MemoryBuffer(buffer_capacity)
    record = MetricsRecord()
    store = FrozenStore(model, stream)
    for i, task in enumerate(stream.tasks):
        heads = cfg.heads_first if i == 0 else cfg.heads_per_step
        model.add_expert(heads, len(task.classes))
        registry.extend(task.classes)
        rng = np.random.default_rng(seeds[i])
        train_task(model, task, buffer, cfg, rng=rng, store=store)
        acc, per_task = _located(f"task {i}, evaluate",
                                 lambda: evaluate(model, stream.tasks[: i + 1], store))
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
