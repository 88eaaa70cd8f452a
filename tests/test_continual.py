"""Continual-learning tests: labels, losses, herding, buffer, metrics."""

import numpy as np
import pytest

from densecil import continual as C
from densecil import expansion as E
from densecil import tensor as T
from densecil.config import TOL, ConfigError


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
    loss = C.total_loss(batch, model, C.LossWeights(), [0, 1], 0)
    assert np.isfinite(loss.item())


def test_total_loss_defaults_weigh_terms():
    w = C.LossWeights()
    assert (w.ce, w.aux) == (1.0, 0.1)
    with pytest.raises(ConfigError):
        C.LossWeights(ce=-1.0)


def test_total_loss_ce_only_equals_plain_cross_entropy():
    cfg, stream = _tiny_model_and_stream()
    model = E.CilModel(cfg, seed=0)
    model.add_expert(2, 2)
    reg = C.ClassIndex()
    reg.extend([0, 1])
    C.bind_class_index(model, reg)
    batch = stream.tasks[0].train[:3]
    got = C.total_loss(batch, model, C.LossWeights(1.0, 0.0), [0, 1], 0)
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
    loss = C.total_loss(stream.tasks[1].train[:2], model, C.LossWeights(),
                        [2, 3], 2)
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
        loss = C.total_loss(samples, model, C.LossWeights(), [2, 3], 2)
        T.backward(loss)
        return loss.item(), [p.grad.copy() for p in params]

    loss, batched = grads(batch)
    singles = [grads([s]) for s in batch]
    assert abs(loss - np.mean([l for l, _ in singles])) < TOL.loss
    for i, g in enumerate(batched):
        want = sum(gs[i] for _, gs in singles) / len(batch)
        assert np.abs(g - want).max() < TOL.block


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
    assert len(buf) == 10


def test_buffer_never_exceeds_capacity():
    buf = C.MemoryBuffer(5)
    for c in range(4):
        buf.add_class(c, [_sample(c, i) for i in range(5)])
        buf.rebalance()
        assert len(buf) <= 5


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


# ------------------------------------------------------------ end-to-end small run

def _micro_stream(seed=0, size=8):
    rng = np.random.default_rng(seed)

    def mk(label, n):
        out = []
        for i in range(n):
            img = np.zeros((3, size, size))
            img[label % 3, (label * 2) % size, :] = 1.0
            img += 0.05 * rng.random((3, size, size))
            out.append(C.Sample(np.clip(img, 0, 1), label))
        return out

    tasks = [C.Task((0, 1), mk(0, 6) + mk(1, 6), mk(0, 3) + mk(1, 3)),
             C.Task((2, 3), mk(2, 6) + mk(3, 6), mk(2, 3) + mk(3, 3))]
    return C.TaskStream(tasks)


def test_run_stream_produces_metrics_and_respects_buffer():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = C.TrainConfig(epochs=2, tune_epochs=1, lr=0.05, batch_size=6,
                       heads_first=2, heads_per_step=1)
    stream = _micro_stream()
    model, rec = C.run_stream(cfg, stream, tc, seed=3, buffer_capacity=6)
    assert len(rec.accuracies) == 2
    assert model.task_count == 2
    assert model.heads_per_task == (2, 1)


def test_run_stream_deterministic():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    tc = C.TrainConfig(epochs=1, tune_epochs=1, lr=0.05, batch_size=6,
                       heads_first=2, heads_per_step=1)
    _, rec1 = C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    _, rec2 = C.run_stream(cfg, _micro_stream(), tc, seed=9, buffer_capacity=6)
    assert rec1.accuracies == rec2.accuracies
    assert rec1.per_task_final == rec2.per_task_final


@pytest.mark.parametrize("strategy", ["dne", "sta", "ia"])
def test_run_stream_cache_is_bit_exact_against_recomputing(strategy, monkeypatch):
    """The full budget, a budget that holds the last task's frozen prefix
    but not its final features, and no budget give the same run."""
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=2, strategy=strategy)
    tc = C.TrainConfig(epochs=2, tune_epochs=2, lr=0.05, batch_size=5,
                       heads_first=2, heads_per_step=1)
    forward = E.CilModel.forward
    served = []         # level each forward was served from
    caches = []

    def counting_forward(self, image, **kw):
        frozen = kw.get("frozen")
        served.append(0 if frozen is None else 1 if frozen.features is None else 2)
        return forward(self, image, **kw)

    init = C.FrozenCache.__init__

    def recording_init(self, model, samples):
        init(self, model, samples)
        caches.append(self)

    monkeypatch.setattr(E.CilModel, "forward", counting_forward)
    monkeypatch.setattr(C.FrozenCache, "__init__", recording_init)

    def run():
        served.clear()
        caches.clear()
        model, rec = C.run_stream(cfg, _micro_stream(), tc, seed=4, buffer_capacity=8)
        return E.checkpoint_bytes(model), rec.accuracies, list(served), caches[-1]

    ckpt, acc, served_full, last = run()
    assert last.top == 2 and last.level.max() == 2 and 2 in served_full
    monkeypatch.setattr(C, "CACHE_BYTES", last.nbytes - 1)
    ckpt_part, acc_part, served_part, last_part = run()
    assert last_part.top == 1 and (last_part.level == 1).all()
    assert 0 < last_part.nbytes < last.nbytes and 1 in served_part
    monkeypatch.setattr(C, "CACHE_BYTES", 0)
    ckpt0, acc0, served0, last0 = run()
    assert last0.top == 0 and last0.nbytes == 0 and set(served0) == {0}
    assert ckpt == ckpt0 == ckpt_part
    assert acc == acc0 == acc_part


def test_frozen_cache_serves_each_batch_from_its_shallowest_row():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="dne")
    model = E.CilModel(cfg, seed=5)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    samples = _micro_stream().tasks[0].train[:6]
    cache = C.FrozenCache(model, samples)
    with T.no_grad():
        want = model.forward(C.images(samples)).logits.data
        cache.forward(samples[:3])
        assert list(cache.level) == [1, 1, 1, 0, 0, 0]
        cache.body_fixed = True
        got = cache.forward([samples[4], samples[0]]).logits.data
        assert list(cache.level) == [2, 1, 1, 0, 2, 0]
        np.testing.assert_array_equal(got, want[[4, 0]])
        cache.prefetch(samples)
        assert list(cache.level) == [2] * 6
        got = cache.forward(samples[::-1]).logits.data
    np.testing.assert_array_equal(got, want[::-1])
