"""Continual-learning tests: labels, losses, herding, buffer, metrics."""

import inspect
import weakref

import numpy as np
import pytest

from densecil import cli
from densecil import continual as C
from densecil import expansion as E
from densecil import gradcheck as G
from densecil import tensor as T
from densecil.config import TOL, ConfigError

import oracles as O


# ------------------------------------------------------------ task stream

def _sample(label, seed=0, size=8):
    rng = np.random.default_rng(seed + 1000 * label)
    return C.Sample(rng.random((3, size, size)), label)


def _task(classes, n_train=3, n_eval=2, size=8):
    train = [_sample(c, i, size) for c in classes for i in range(n_train)]
    ev = [_sample(c, 100 + i, size) for c in classes for i in range(n_eval)]
    return C.Task(tuple(classes), train, ev)


def test_stream_rejects_overlap():
    with pytest.raises(C.StreamError):
        C.TaskStream([_task([0, 1]), _task([1, 2])])


def test_stream_rejects_empty_task():
    with pytest.raises(C.StreamError):
        C.TaskStream([C.Task((0,), [], [])])


@pytest.mark.parametrize("split", ["training", "eval"])
def test_stream_rejects_a_class_with_no_sample_in_a_split(split):
    task = _task([4, 5])
    field = "train" if split == "training" else "eval"
    setattr(task, field, [s for s in getattr(task, field) if s.label != 5])
    with pytest.raises(C.StreamError, match=f"^task 1 has no {split} sample of class 5$"):
        C.TaskStream([_task([0, 1]), task])
    with pytest.raises(C.StreamError, match="^task 0 is empty$"):     # checked first
        C.TaskStream([C.Task((0, 1), [], [])])


# ------------------------------------------------------------ auxiliary label

def test_auxiliary_label_old_class_is_outlier():
    assert C.auxiliary_label(1, 4, [4, 5]) == 0


def test_auxiliary_label_first_current_class():
    assert C.auxiliary_label(4, 4, [4, 5]) == 1


def test_auxiliary_label_range_covers_all():
    task = list(range(4, 14))
    labels = {C.auxiliary_label(y, 4, task) for y in range(14)}
    assert labels == set(range(11))


def test_auxiliary_label_rejects_unseen():
    with pytest.raises(C.StreamError):
        C.auxiliary_label(9, 4, [4, 5])


# ------------------------------------------------------------ distillation

def kl_oracle(new, old, n_old):
    """Direct elementwise sum p*log(p/q) from raw logits."""
    p = np.exp(new[:n_old] - new[:n_old].max())
    p /= p.sum()
    q = np.exp(old - old.max())
    q /= q.sum()
    return float(np.sum(p * (np.log(p) - np.log(q))))


def test_distillation_identical_logits_zero():
    logits = T.Tensor(np.array([1.0, 2.0, 3.0, 9.0]))
    out = C.distillation_loss(logits, np.array([1.0, 2.0, 3.0]), 3)
    assert abs(out.item()) < 1e-15


def test_distillation_shift_invariance():
    new = T.Tensor(np.array([1.0, 2.0, 3.0, 0.0]))
    out = C.distillation_loss(new, np.array([1.0, 2.0, 3.0]) + 7.5, 3)
    assert abs(out.item()) < 1e-12


def test_distillation_matches_direct_sum_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        new = rng.normal(size=8)
        old = rng.normal(size=5)
        got = C.distillation_loss(T.Tensor(new), old, 5).item()
        assert abs(got - kl_oracle(new, old, 5)) < TOL.loss


def test_distillation_no_old_classes_is_zero():
    out = C.distillation_loss(T.Tensor(np.array([1.0, 2.0])), np.zeros(0), 0)
    assert out.item() == 0.0


def test_distillation_gradient_flows_to_new_logits():
    rng = np.random.default_rng(2)
    new = T.Tensor(rng.normal(size=6), requires_grad=True)
    old = rng.normal(size=4)
    loss = C.distillation_loss(new, old, 4)
    T.backward(loss)
    assert new.grad is not None
    np.testing.assert_array_equal(new.grad[4:], 0.0)


@pytest.mark.parametrize("shape, n_old", [((6,), 4), ((1, 6), 6)])
def test_distillation_gradient_matches_central_differences(shape, n_old):
    """Below and at the logit count, on 1-D and (1, C) logits."""
    rng = np.random.default_rng(3)
    new, old = rng.normal(size=shape), rng.normal(size=n_old)
    err = G.check_function(lambda t: C.distillation_loss(t[0], old, n_old), [new], seed=0)
    assert err < TOL.fd_rel


# ------------------------------------------------------------ total loss

def _tiny_model_and_stream(strategy="dne"):
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy=strategy)
    stream = C.TaskStream([_task([0, 1]), _task([2, 3])])
    return cfg, stream


def test_total_loss_first_task_has_no_distillation_term():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1])
    C.bind_class_index(model, reg)
    batch = stream.tasks[0].train[:2]
    loss = C.total_loss(batch, model, C.LossWeights(1.0, 0.1),
                        [0, 1], 0, O.forward_samples(model))
    assert np.isfinite(loss.item())


def test_total_loss_defaults_weigh_terms():
    w = cli.RunConfig().train_config().loss_weights
    assert (w.ce, w.aux) == (1.0, 0.1)
    for bad in (dict(ce=-1.0), dict(ce=float("nan")), dict(aux=float("inf"))):
        with pytest.raises(ConfigError):
            C.LossWeights(**{"ce": 1.0, "aux": 0.1, **bad})


def test_total_loss_ce_only_equals_plain_cross_entropy():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1])
    C.bind_class_index(model, reg)
    batch = stream.tasks[0].train[:3]
    got = C.total_loss(batch, model, C.LossWeights(1.0, 0.0),
                       [0, 1], 0, O.forward_samples(model))
    want = np.mean([T.cross_entropy_logits(model.forward(s.image).logits,
                                           reg.index(s.label)).item()
                    for s in batch])
    assert abs(got.item() - want) < TOL.loss


def test_total_loss_gradient_skips_frozen():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1, 2, 3])
    C.bind_class_index(model, reg)
    loss = C.total_loss(stream.tasks[1].train[:2], model, C.LossWeights(1.0, 0.1),
                        [2, 3], 2, O.forward_samples(model))
    T.backward(loss)
    for name, t in model.named_parameters():
        if not t.requires_grad:
            assert t.grad is None, name


def test_total_loss_batch_gradient_is_sum_of_per_sample_gradients():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1, 2, 3])
    C.bind_class_index(model, reg)
    batch = stream.tasks[1].train[:2] + stream.tasks[0].train[:1]
    params = model.trainable_parameters()

    def grads(samples):
        for p in params:
            p.grad = None
        loss = C.total_loss(samples, model, C.LossWeights(1.0, 0.1), [2, 3], 2,
                            O.forward_samples(model))
        T.backward(loss)
        return loss.item(), [p.grad.copy() for p in params]

    loss, batched = grads(batch)
    singles = [grads([s]) for s in batch]
    assert abs(loss - np.mean([l for l, _ in singles])) < TOL.loss
    for i, g in enumerate(batched):
        want = sum(gs[i] for _, gs in singles) / len(batch)
        assert np.abs(g - want).max() < TOL.block


def _two_expert_dne_model():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1, 2, 3])
    C.bind_class_index(model, reg)
    return model, stream


def test_backward_releases_the_training_graph_and_keeps_parameter_gradients():
    model, stream = _two_expert_dne_model()
    batch = stream.tasks[1].train[:2] + stream.tasks[0].train[:1]
    loss = C.total_loss(batch, model, C.LossWeights(1.0, 0.1),
                        [2, 3], 2, O.forward_samples(model))
    nodes = [n for n in T.topo_order(loss) if n.op != "leaf"]
    assert "task_attention" in {n.op for n in nodes}
    T.backward(loss)
    for node in nodes:
        assert node._backward.__closure__ is None, node.op
        assert node.parents == () and node.grad is None, node.op
    for name, p in model.named_parameters():
        assert (p.grad is not None) == p.requires_grad, name


def test_backward_refuses_a_graph_an_earlier_backward_released():
    model, stream = _two_expert_dne_model()
    batch = stream.tasks[1].train[:2]
    loss = C.total_loss(batch, model, C.LossWeights(1.0, 0.1),
                        [2, 3], 2, O.forward_samples(model))
    T.backward(loss)
    with pytest.raises(T.ContractError):
        T.backward(loss)
    res = model.forward(C.images(batch))
    first = T.sum_all(res.logits)
    T.backward(first)
    grads = [p.grad.copy() for p in model.trainable_parameters()]
    with pytest.raises(T.ContractError):
        T.backward(T.sum_all(res.aux_logits))       # shares the experts' nodes
    for p, g in zip(model.trainable_parameters(), grads):
        np.testing.assert_array_equal(p.grad, g)


def test_sgd_step_frees_the_previous_steps_graph_before_the_next_forward():
    """A weak reference to arrays that step k's task-attention nodes saved
    is dead when step k+1's loss function starts."""
    model, stream = _two_expert_dne_model()
    data = stream.tasks[1].train + stream.tasks[0].train[:2]
    saved: list[weakref.ref] = []
    steps = []

    def loss_fn(batch):
        steps.append([ref() is None for ref in saved])
        saved.clear()
        loss = C.total_loss(batch, model, C.LossWeights(1.0, 0.1), [2, 3], 2,
                            O.forward_samples(model))
        for node in T.topo_order(loss):
            if node.op == "task_attention":
                cells = dict(zip(node._backward.__code__.co_freevars,
                                 (c.cell_contents for c in node._backward.__closure__)))
                saved.extend(weakref.ref(cells[name]) for name in ("x", "v", "pre"))
        return loss

    tc = cli.RunConfig(lr=2.5e-4, batch_size=3).train_config()
    C._sgd_epochs(model.trainable_parameters(), data, 2, tc, np.random.default_rng(0), loss_fn,
                  "test")
    assert len(steps) == 6 and steps[0] == []
    assert all(len(dead) == 3 * 2 and all(dead) for dead in steps[1:])   # fc1 and fc2


# ------------------------------------------------------------ herding

def herding_oracle(features, m):
    """Brute-force greedy: recompute every candidate mean from scratch."""
    target = features.mean(axis=0)
    chosen = []
    pool = list(range(len(features)))
    for _ in range(m):
        dists = []
        for idx in pool:
            cand = np.mean(features[chosen + [idx]], axis=0)
            dists.append((float(np.linalg.norm(target - cand)), idx))
        best = min(dists, key=lambda p: (p[0], p[1]))
        chosen.append(best[1])
        pool.remove(best[1])
    return chosen


def test_herding_all_samples_in_selection_order():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 3))
    got = C.herding_select(feats, 4)
    assert sorted(got) == [0, 1, 2, 3]
    assert got == herding_oracle(feats, 4)


def test_herding_single_sample():
    assert C.herding_select(np.ones((1, 5)), 1) == [0]


def test_herding_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 4))
    assert C.herding_select(feats, 3) == herding_oracle(feats, 3)


def test_herding_running_sum_picks_the_resummed_order():
    """Keeping the chosen rows' sum as it grows picks the indices, in order,
    that summing the chosen rows again for every candidate picks: on random
    features over six decades of scale, with exact ties and signed zeros."""
    rng = np.random.default_rng(26)
    cases = [rng.normal(size=(int(rng.integers(1, 61)), int(rng.integers(16, 97))))
             * 10.0 ** rng.uniform(-3, 3) for _ in range(40)]
    rows = rng.normal(size=(5, 16))
    cases.append(np.concatenate([rows, rows[::-1], rows[:2]]))       # every row tied
    signed = rng.normal(size=(12, 16))
    signed[:, ::3] = 0.0
    signed[::2, ::3] = -0.0
    cases.append(signed)
    cases.append(np.where(np.arange(16) % 2, 0.0, -0.0) * np.ones((6, 1)))   # all distances 0
    for feats in cases:
        assert C.herding_select(feats, len(feats)) == O.herding_select(feats, len(feats))


def test_herding_rejects_overdraw():
    with pytest.raises(ConfigError):
        C.herding_select(np.ones((2, 2)), 3)


def test_herding_oracle_sweep_small_sets():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        feats = rng.normal(size=(n, 3))
        for m in range(1, n + 1):
            assert C.herding_select(feats, m) == herding_oracle(feats, m)


# ------------------------------------------------------------ buffer

def test_buffer_quota_and_remainder_rule():
    buf = C.MemoryBuffer(10)
    buf.add_class(7, [_sample(7, i) for i in range(6)])
    buf.add_class(8, [_sample(8, i) for i in range(6)])
    buf.add_class(9, [_sample(9, i) for i in range(6)])
    buf.rebalance()
    # 10 // 3 = 3 each, remainder 1 goes to the earliest class
    assert [buf.class_count(c) for c in (7, 8, 9)] == [4, 3, 3]
    assert len(buf.samples()) == 10


def test_buffer_never_exceeds_capacity():
    buf = C.MemoryBuffer(5)
    for c in range(4):
        buf.add_class(c, [_sample(c, i) for i in range(5)])
        buf.rebalance()
        assert len(buf.samples()) <= 5


def test_buffer_truncation_keeps_selection_prefix():
    buf = C.MemoryBuffer(4)
    first = [_sample(0, i) for i in range(4)]
    buf.add_class(0, first)
    buf.rebalance()
    buf.add_class(1, [_sample(1, i) for i in range(4)])
    buf.rebalance()
    kept = buf.class_samples(0)
    assert [id(s) for s in kept] == [id(s) for s in first[:2]]


# ------------------------------------------------------------ balanced subsample

def test_balanced_subsample_counts_match_quota():
    # mirrors the training flow: the buffer is refreshed with the new
    # classes (herding) before the balanced set is drawn
    buf = C.MemoryBuffer(40)
    for c in (0, 1):
        buf.add_class(c, [_sample(c, i) for i in range(30)])
    buf.rebalance()
    current = [_sample(2, i) for i in range(50)] + [_sample(3, i) for i in range(50)]
    for c in (2, 3):
        buf.add_class(c, [s for s in current if s.label == c][:10])
    buf.rebalance()
    rng = np.random.default_rng(6)
    out = C.class_balanced_subsample(current, buf, rng)
    counts = {}
    for s in out:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert set(counts) == {0, 1, 2, 3}
    assert len(set(counts.values())) == 1
    assert counts[2] == 40 // 4


def test_balanced_subsample_keeps_exact_quota_class():
    buf = C.MemoryBuffer(8)
    buf.add_class(0, [_sample(0, i) for i in range(4)])
    buf.rebalance()
    current = [_sample(1, i) for i in range(4)]
    out = C.class_balanced_subsample(current, buf, np.random.default_rng(7))
    counts = {}
    for s in out:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert counts == {0: 4, 1: 4}


def test_balanced_subsample_histogram_constant():
    buf = C.MemoryBuffer(30)
    for c in (0, 1, 2):
        buf.add_class(c, [_sample(c, i) for i in range(20)])
    buf.rebalance()
    current = [_sample(3, i) for i in range(25)]
    out = C.class_balanced_subsample(current, buf, np.random.default_rng(8))
    counts = {}
    for s in out:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert len(set(counts.values())) == 1


# ------------------------------------------------------------ metrics

def test_metrics_identities():
    rec = C.MetricsRecord(accuracies=[60.0, 50.0, 40.0])
    assert rec.aa == pytest.approx(50.0)
    assert rec.la == 40.0


def test_metrics_d_gap():
    rec = C.MetricsRecord(accuracies=[70.0, 68.04])
    rec.set_joint(76.12)
    assert rec.d_gap == pytest.approx(8.08)


def test_metrics_single_task():
    rec = C.MetricsRecord(accuracies=[55.0])
    assert rec.aa == rec.la == 55.0


def test_metrics_csv_rows(tmp_path):
    rec = C.MetricsRecord(accuracies=[60.0, 50.0])
    path = tmp_path / "metrics.csv"
    C.write_metrics_csv(rec, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "task_step,metric,value"
    assert rows[1].startswith("1,accuracy")
    assert any(r.startswith("2,LA") for r in rows)
    assert any(r.startswith("2,AA") for r in rows)


# ------------------------------------------------------------ evaluation chunks

@pytest.mark.parametrize("n", [1, 16, 17, 33, 40])
def test_chunks_are_consecutive_pieces_of_at_most_eval_chunk(n):
    items = list(range(n))
    pieces = C.chunks(items)
    assert len(pieces) == -(-n // C.EVAL_CHUNK)
    assert all(0 < len(p) <= C.EVAL_CHUNK for p in pieces)
    assert [x for p in pieces for x in p] == items


# ------------------------------------------------------------ end-to-end small run

def _micro_stream(seed=0, size=8, n_tasks=2):
    rng = np.random.default_rng(seed)

    def mk(label, n):
        out = []
        for i in range(n):
            img = np.zeros((3, size, size))
            img[label % 3, (label * 2) % size, :] = 1.0
            img += 0.05 * rng.random((3, size, size))
            out.append(C.Sample(np.clip(img, 0, 1), label))
        return out

    tasks = [C.Task((2 * i, 2 * i + 1), mk(2 * i, 6) + mk(2 * i + 1, 6),
                    mk(2 * i, 3) + mk(2 * i + 1, 3)) for i in range(n_tasks)]
    return C.TaskStream(tasks)


def test_run_stream_produces_metrics_and_respects_buffer():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = cli.RunConfig(epochs=2, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    stream = _micro_stream()
    model, rec = C.run_stream(cfg, stream, tc, seed=3, buffer_capacity=6)
    assert len(rec.accuracies) == 2
    assert model.task_count == 2
    assert model.heads_per_task == (2, 1)


def test_run_stream_deterministic():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = cli.RunConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    _, rec1 = C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    _, rec2 = C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    assert rec1.accuracies == rec2.accuracies
    assert rec1.per_task_final == rec2.per_task_final


@pytest.mark.parametrize("strategy", ["dne", "sta", "ia"])
def test_old_experts_keep_every_parameter_byte_for_byte(strategy, monkeypatch):
    """The paper's experts keep the feature space of old classes: after each
    task t, every parameter of experts 0..t-1 holds the bytes it held when
    its own task ended, while task t changed its own expert's."""
    train_task = C.train_task
    ended: list[dict[str, bytes]] = []      # per expert: its parameters' bytes at its end

    def checked_train_task(model, task, *args, **kw):
        old = {n for own in ended for n in own}
        mine = {n: p.data.tobytes() for n, p in model.named_parameters()
                if n not in old and not n.startswith("aux.")}
        out = train_task(model, task, *args, **kw)
        params = dict(model.named_parameters())
        for own in ended:
            assert {n: params[n].data.tobytes() for n in own} == own
        now = {n: params[n].data.tobytes() for n in mine}
        assert now != mine
        ended.append(now)
        return out

    monkeypatch.setattr(C, "train_task", checked_train_task)
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=2, strategy=strategy)
    tc = cli.RunConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    C.run_stream(cfg, _micro_stream(n_tasks=4), tc, seed=9, buffer_capacity=6)
    assert len(ended) == 4


def test_herding_reads_each_class_rows_of_one_pass_per_task(monkeypatch):
    """Herding makes one ``token_features`` pass per task, and each class
    is selected from its own samples' rows, bit for bit those of a plain
    forward of that class alone."""
    features, select, train_task = C.token_features, C.herding_select, C.train_task
    state, passes, selected = {}, [], []

    def logged_train_task(model, task, *args, **kw):
        state.update(model=model, task=task, classes=iter(task.classes))
        return train_task(model, task, *args, **kw)

    def logged_features(samples, forward):
        passes.append(len(samples))
        return features(samples, forward)

    def logged_select(feats, m):
        label = next(state["classes"])
        own = [s for s in state["task"].train if s.label == label]
        np.testing.assert_array_equal(feats, features(own, O.forward_samples(state["model"])))
        selected.append(label)
        return select(feats, m)

    monkeypatch.setattr(C, "train_task", logged_train_task)
    monkeypatch.setattr(C, "token_features", logged_features)
    monkeypatch.setattr(C, "herding_select", logged_select)
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = cli.RunConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    stream = _micro_stream(n_tasks=3)
    C.run_stream(cfg, stream, tc, seed=9, buffer_capacity=6)
    assert passes == [len(task.train) for task in stream.tasks]
    assert selected == stream.class_order()


def test_every_tensor_function_runs_in_training(monkeypatch):
    """Every function ``tensor.__all__`` lists runs in a two-task run of dne,
    dne with cross-task MHSA or sta ``both``."""
    names = [n for n in T.__all__ if inspect.isfunction(getattr(T, n))]
    ran = set()

    def counted(name, fn):
        def call(*args, **kw):
            ran.add(name)
            return fn(*args, **kw)
        return call

    for name in names:
        monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
    tc = cli.RunConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    for wiring in ({}, {"cta_in_mhsa": True}, {"strategy": "sta", "sta_variant": "both"}):
        cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                            gamma=2, layers=1, **{"strategy": "dne", **wiring})
        C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    assert [n for n in names if n not in ran] == []


_evaluate = C.evaluate         # unpatched, for tests that wrap ``C.evaluate``


@pytest.fixture
def logged_run(monkeypatch):
    """``run(strategy, capacity)`` runs ``run_stream`` on a 3-task micro
    stream and logs each forward: the phase it ran in, the model's expert
    count, whether it built a graph, the experts in its frozen prefix,
    whether it ran only token heads, the stream rows of its images and the
    bytes the run's store held before it; ``log["stream"]`` is the stream."""
    forward, evaluate, sgd = E.CilModel.forward, C.evaluate, C._sgd_epochs
    init = C.FrozenStore.__init__
    log = {}

    def logged_forward(self, image, **kw):
        frozen, store = kw.get("frozen"), log["store"]
        log["forwards"].append(dict(
            phase=log["phase"], experts=self.task_count, graph=T._grad_enabled(),
            n=0 if frozen is None else len(frozen.token_feats),
            head_only=frozen is not None and frozen.head_only,
            rows=[log["rows"].get(x.tobytes()) for x in image], held=store.nbytes))
        return forward(self, image, **kw)

    def logged_sgd(params, data, epochs, cfg, rng, loss_fn, where):
        log["phase"] = where.split(", ")[1]
        sgd(params, data, epochs, cfg, rng, loss_fn, where)
        log["phase"] = "herding" if log["phase"] == "phase 1" else "completion"

    def logged_evaluate(*args):
        log["phase"] = "evaluate"
        start = len(log["forwards"])
        result = evaluate(*args)
        log["evals"].append([f["n"] for f in log["forwards"][start:]])
        log["phase"] = "fill"
        return result

    def logged_init(self, *args):
        init(self, *args)
        log["store"] = self

    monkeypatch.setattr(E.CilModel, "forward", logged_forward)
    monkeypatch.setattr(C, "_sgd_epochs", logged_sgd)
    monkeypatch.setattr(C, "evaluate", logged_evaluate)
    monkeypatch.setattr(C.FrozenStore, "__init__", logged_init)

    def run(strategy, capacity):
        cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                            gamma=2, layers=2, strategy=strategy)
        tc = cli.RunConfig(epochs=2, tune_epochs=2, lr=0.05, batch_size=5,
                           h1=2, k=1).train_config()
        stream = _micro_stream(n_tasks=3)
        train = [s for task in stream.tasks for s in task.train]
        log.update(phase="fill", forwards=[], evals=[], store=None, stream=stream,
                   rows={s.image.tobytes(): i for i, s in enumerate(train)})
        model, rec = C.run_stream(cfg, stream, tc, seed=4, buffer_capacity=capacity)
        assert max(f["held"] for f in log["forwards"]) <= C.CACHE_BYTES
        return model, rec, log

    return run


@pytest.mark.parametrize("strategy", ["dne", "sta", "ia"])
def test_run_stream_cache_is_bit_exact_against_recomputing(strategy, logged_run,
                                                             monkeypatch):
    """The full budget, a budget that holds only part of the rows' arrays,
    and no budget give the same run, with a buffer that keeps every training
    sample and with one that keeps fewer.  At the full budget every
    evaluation of an old task runs from the prefix the previous step kept;
    with no budget no forward runs from a prefix.  The store never holds
    more than the budget (``logged_run`` checks it at every forward)."""
    full_budget = C.CACHE_BYTES
    for capacity in (36, 8):
        def run():
            model, rec, log = logged_run(strategy, capacity)
            served = {(f["n"] > 0) + f["head_only"] for f in log["forwards"]}
            return (E.checkpoint_bytes(model), rec.accuracies, log["evals"], served,
                    max(f["held"] for f in log["forwards"]))

        monkeypatch.setattr(C, "CACHE_BYTES", full_budget)
        ckpt, acc, evals, served, peak = run()
        assert served == {0, 1, 2} and evals == [[0], [1, 0], [2, 2, 0]]
        monkeypatch.setattr(C, "CACHE_BYTES", peak - 1)
        ckpt_part, acc_part, _, served_part, peak_part = run()
        assert 0 < peak_part < peak and 1 in served_part
        monkeypatch.setattr(C, "CACHE_BYTES", 0)
        ckpt0, acc0, evals0, served0, peak0 = run()
        assert peak0 == 0 and served0 == {0} and evals0 == [[0], [0, 0], [0, 0, 0]]
        assert ckpt == ckpt_part == ckpt0
        assert acc == acc_part == acc0


@pytest.mark.parametrize("capacity", [36, 8])
def test_store_runs_each_frozen_expert_once_per_training_sample(capacity, logged_run,
                                                               monkeypatch):
    """In phase 1 every SGD forward runs from the prefix at the newest
    expert, so only the graph-free fills before it run a frozen expert; over
    the run each training sample runs each expert's body at most once after
    that body stopped training.  Phase 2 tunes the token head after the
    rows are extended, so a stale token feature or logit would change the
    run: it equals one without a store."""
    model, rec, log = logged_run("dne", capacity)
    runs: dict[tuple[int, int], int] = {}
    for f in log["forwards"]:
        if f["phase"] == "phase 1":
            assert f["graph"] and f["n"] == f["experts"] - 1 and not f["head_only"]
        elif f["phase"] != "phase 2":
            assert not f["graph"]
        newest_fixed = f["phase"] in ("herding", "phase 2", "completion")
        if f["head_only"] or f["phase"] == "evaluate":
            continue
        for j in range(f["n"], f["experts"] - 1 + newest_fixed):
            for row in f["rows"]:
                runs[row, j] = runs.get((row, j), 0) + 1
    assert runs and max(runs.values()) == 1
    monkeypatch.setattr(C, "CACHE_BYTES", 0)
    model0, rec0, _ = logged_run("dne", capacity)
    assert E.checkpoint_bytes(model) == E.checkpoint_bytes(model0)
    assert rec.accuracies == rec0.accuracies


def test_last_task_eval_samples_have_no_row_and_no_row_reaches_the_last_expert(
        logged_run):
    """Nothing reads what the last step would keep: the last task's eval
    samples, scored only at that step, get no row and run without a
    prefix, and no row is extended by the last expert."""
    model, _, log = logged_run("dne", 36)
    store, tasks = log["store"], log["stream"].tasks
    assert not any(id(s) in store._rows for s in tasks[-1].eval)
    assert len(store.held) == (sum(len(task.train) for task in tasks)
                               + sum(len(task.eval) for task in tasks[:-1]))
    assert log["evals"][-1] == [2, 2, 0]
    assert store.held.max() == 2 * (model.task_count - 1)
    assert store._data.logits is None
    assert [f.shape[-1] for f in store._data.token_feats] == [
        model.cfg.head_dim * h for h in model.heads_per_task[:-1]]


@pytest.mark.parametrize("strategy", ["dne", "sta", "ia"])
def test_evaluation_through_the_store_equals_a_plain_evaluation_at_every_step(
        strategy, logged_run, monkeypatch):
    """At every step of a run ``evaluate`` through the run's store gives
    what it gives without one, and each old task's eval chunk runs from the
    prefix the previous step's evaluation kept in its rows."""
    logged, same = C.evaluate, []

    def checked(model, tasks, store):
        got = logged(model, tasks, store)
        same.append(got == _evaluate(model, tasks))
        return got

    monkeypatch.setattr(C, "evaluate", checked)
    _, _, log = logged_run(strategy, 36)
    assert same == [True] * 3
    assert log["evals"] == [[0], [1, 0], [2, 2, 0]]


def _freeze_body(model):
    """Freeze every parameter but the newest token block and classifier
    slice, as ``train_task`` does after phase 1."""
    t = model.task_count - 1
    tuned = model.parameters_with_prefix(f"task{t}.tok_blk", f"task{t}.head")
    model.freeze_all()
    for p in tuned:
        p.requires_grad = True


def test_frozen_cache_serves_each_batch_from_its_shallowest_row():
    """A batch runs from the stages all its rows hold; once the newest
    expert's body is frozen a forward keeps its entries and final features
    (stage 2t + 1), and ``complete`` of the frozen model turns those rows
    into the prefix at the whole model, which the next expert's forwards
    run from."""
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    model = E.CilModel(cfg, seed=5)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    stream = _micro_stream(n_tasks=3)
    samples = stream.tasks[1].train[:6]
    rows = np.arange(12, 18)
    store = C.FrozenStore(model, stream)
    with T.no_grad():
        want = model.forward(C.images(samples)).logits.data
        store.forward(samples[:3])
        assert list(store.held[rows]) == [2, 2, 2, 0, 0, 0]
        _freeze_body(model)
        got = store.forward([samples[4], samples[0]]).logits.data
        assert list(store.held[rows]) == [3, 2, 2, 0, 3, 0]
        np.testing.assert_array_equal(got, want[[4, 0]])
        store.prefetch(samples)
        assert list(store.held[rows]) == [3] * 6
        got = store.forward(samples[::-1]).logits.data
        np.testing.assert_array_equal(got, want[::-1])
        model.freeze_all()
        store.complete(samples[:4])
        assert list(store.held[rows]) == [4, 4, 4, 4, 2, 2] and not (store.held % 2).any()
        model.add_expert(1, 2)
        want = model.forward(C.images(samples)).logits.data
        got = store.forward(samples[:4]).logits.data
    np.testing.assert_array_equal(got, want[:4])


@pytest.mark.parametrize("strategy,experts", [("dne", 2), ("sta", 1)])
def test_store_never_keeps_a_stage_whose_parameters_still_train(strategy, experts,
                                                                monkeypatch):
    """With any one parameter still training, a forward keeps both stages of
    each older expert, and the newest body only if that parameter belongs to
    the newest token head (sta's first expert owns the shared projection);
    once nothing trains, a head-only forward completes the row."""
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy=strategy)
    model = E.CilModel(cfg, seed=5)
    for heads in (2, 1)[:experts]:
        model.add_expert(heads, 2)
    t = experts - 1
    stream = _micro_stream(n_tasks=3)
    sample = stream.tasks[t].train[0]
    head = (f"task{t}.token", f"task{t}.tok_blk", f"task{t}.head")
    training = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    assert any(n.startswith("shared.") for n, _ in training) == (strategy == "sta")
    with T.no_grad():
        want = model.forward(C.images([sample]))
        for name, p in training:
            model.freeze_all()
            p.requires_grad = True
            store = C.FrozenStore(model, stream)
            store.forward([sample])
            assert store.held[store._rows[id(sample)]] == 2 * t + name.startswith(head), name
        for _, p in training:
            p.requires_grad = True
        _freeze_body(model)
        store = C.FrozenStore(model, stream)
        store.forward([sample])
        row = store._rows[id(sample)]
        assert store.held[row] == 2 * t + 1
        model.freeze_all()
        forward, head_only = E.CilModel.forward, []

        def logged(self, image, **kw):
            head_only.append(kw["frozen"].head_only)
            return forward(self, image, **kw)

        monkeypatch.setattr(E.CilModel, "forward", logged)
        got = store.forward([sample])
    assert head_only == [True] and store.held[row] == 2 * t + 2
    np.testing.assert_array_equal(got.logits.data, want.logits.data)
    np.testing.assert_array_equal(store._data.token_feats[t].data[row],
                                  want.token_feats[t].data[0])


def test_phase_2_tunes_the_newest_token_block_and_classifier_slice_and_runs_end_frozen(
        monkeypatch):
    """Phase 2's SGD gets the newest token block and classifier slice in
    registration order, and they are all that trains from herding on; after
    ``run_stream`` no parameter requires a gradient."""
    train, sgd, features, log = C.train_task, C._sgd_epochs, C.token_features, []
    model = None

    def logged_train(m, *args, **kw):
        nonlocal model
        model = m
        return train(m, *args, **kw)

    def logged_sgd(params, data, epochs, cfg, rng, loss_fn, where):
        names = {id(p): n for n, p in model.named_parameters()}
        log.append((where, [names[id(p)] for p in params]))
        sgd(params, data, epochs, cfg, rng, loss_fn, where)

    def logged_features(samples, forward):
        log.append(("herding", [n for n, p in model.named_parameters() if p.requires_grad]))
        return features(samples, forward)

    monkeypatch.setattr(C, "train_task", logged_train)
    monkeypatch.setattr(C, "_sgd_epochs", logged_sgd)
    monkeypatch.setattr(C, "token_features", logged_features)
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = cli.RunConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       h1=2, k=1).train_config()
    model_out, _ = C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    names = [n for n, _ in model_out.named_parameters()]
    tuned = [[n for n in names if n.startswith((f"task{t}.tok_blk", f"task{t}.head"))]
             for t in range(2)]
    assert [where for where, _ in log] == ["task 0, phase 1", "herding", "task 0, phase 2",
                                           "task 1, phase 1", "herding", "task 1, phase 2"]
    assert [got for _, got in log[1:3] + log[4:]] == [tuned[0]] * 2 + [tuned[1]] * 2
    assert log[3][1] == [n for n in names if n.startswith(("task1.", "aux."))]
    assert model_out.trainable_parameters() == []


def test_store_rows_reach_expert_129():
    """The rows' stage counts hold twice the stream's task count: a frozen
    129-expert model keeps all its experts in the row of the 130th task's
    sample."""
    cfg = E.ModelConfig(image_size=4, patch_size=4, in_channels=3, head_dim=2,
                        gamma=2, layers=1, strategy="ia")
    stream = C.TaskStream([_task([c], n_train=1, n_eval=1, size=4) for c in range(130)])
    model = E.CilModel(cfg, seed=0)
    for _ in range(129):
        model.add_expert(1, 1)
    store = C.FrozenStore(model, stream)
    model.freeze_all()
    with T.no_grad():
        store.forward(stream.tasks[-1].train)
    assert store.held[store._rows[id(stream.tasks[-1].train[0])]] == 2 * 129


def test_prefix_holds_normalised_ta_inputs_at_the_raw_byte_count():
    """A frozen prefix keeps ``T.normalize`` of the frozen expert's raw
    post-MHSA features and intermediates, bit for bit, and the store holds
    as many bytes per row as it would for the raw activations."""
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=2, strategy="dne")
    model = E.CilModel(cfg, seed=7)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    stream = _micro_stream()
    samples = stream.tasks[0].train[:5]
    d, h0 = cfg.head_dim, model.experts[0].heads
    with T.no_grad():
        res = model.forward(C.images(samples))
        prefix = E.freeze_outputs(res, 1)
        post_mhsa = O.layer_activations(model, C.images(samples)).s
        raw_bytes = 0
        for l, blk in enumerate(model.experts[0].blocks):
            s_raw = post_mhsa[l][0]
            s_in = T.normalize(s_raw, d)
            st = blk.fc1
            o_raw = T.gelu(T.task_attention([s_in], h0, st.ln_gain, st.ln_bias, st.wq, st.wk,
                                            st.wv, st.lam)[0])          # (B, P, H_0, gamma*D)
            o_rows = T.reshape(o_raw, (*o_raw.shape[:-2], h0 * cfg.gamma * d))
            np.testing.assert_array_equal(prefix.reads[l]["s"][0].data, s_in.data)
            np.testing.assert_array_equal(prefix.reads[l]["o"][0].data,
                                          T.normalize(o_rows, cfg.gamma * d).data)
            raw_bytes += s_raw.data.nbytes + o_raw.data.nbytes
        store = C.FrozenStore(model, stream)
        _freeze_body(model)
        store.forward(samples)
    per_five = raw_bytes + res.token_feats[0].data.nbytes + res.features[1].data.nbytes
    count = len(store.held)         # 24 training and 6 eval rows, the held expert's 2 classes
    assert list(store.held[:5]) == [3] * 5
    assert store.nbytes == count * per_five // 5


def test_non_finite_task_attention_scores_raise_naming_task_and_phase():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    model = E.CilModel(cfg, seed=0).add_expert(2, 2)
    model.experts[0].blocks[0].fc1.wk.data[0, 0] = np.inf
    tc = cli.RunConfig(epochs=1, batch_size=4).train_config()
    loss = lambda batch: T.sum_all(model.forward(C.images(batch)).logits)
    with pytest.raises(T.NumericError) as err:
        C._sgd_epochs(model.trainable_parameters(), _micro_stream().tasks[0].train, 1, tc,
                      np.random.default_rng(0), loss, "task 0, phase 1")
    assert str(err.value) == "task 0, phase 1, epoch 0, batch 0: task_attention: non-finite input"
