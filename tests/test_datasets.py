"""Dataset tests: CIFAR binary format handling and the synthetic stream."""

import os
import tracemalloc

import numpy as np
import pytest

from densecil import cli
from densecil import continual as C
from densecil import datasets as D
from densecil.config import ConfigError


# ------------------------------------------------------------- cifar binary

def _write_records(path, labels, fill=128):
    recs = []
    for coarse, fine in labels:
        rec = bytes([coarse, fine]) + bytes([fill]) * 3072
        recs.append(rec)
    path.write_bytes(b"".join(recs))


def test_cifar_record_count(tmp_path):
    p = tmp_path / "ok.bin"
    _write_records(p, [(0, 1), (1, 2), (2, 99)])
    records = D.load_cifar100_binary(p)
    assert records.shape == (3, D.CIFAR_RECORD) and records.dtype == np.uint8
    samples = D.cifar_samples(records, np.arange(3))
    assert len(samples) == 3
    assert [s.label for s in samples] == [1, 2, 99]
    assert samples[0].image.shape == (3, 32, 32)
    assert samples[0].image.max() <= 1.0


def test_cifar_pixel_scaling(tmp_path):
    p = tmp_path / "px.bin"
    _write_records(p, [(0, 5)], fill=255)
    s = D.cifar_samples(D.load_cifar100_binary(p), np.arange(1))[0]
    np.testing.assert_array_equal(s.image, 1.0)


def test_cifar_truncated_file_names_offset(tmp_path):
    p = tmp_path / "trunc.bin"
    p.write_bytes(bytes(3073))
    with pytest.raises(D.FormatError) as exc:
        D.load_cifar100_binary(p)
    assert "offset" in str(exc.value)


def test_cifar_corrupt_label(tmp_path):
    p = tmp_path / "bad.bin"
    _write_records(p, [(0, 3), (0, 100)])
    with pytest.raises(D.FormatError) as exc:
        D.load_cifar100_binary(p)
    assert "100" in str(exc.value)


@pytest.mark.skipif(not os.environ.get("CIFAR100_TEST_BIN"),
                    reason="set CIFAR100_TEST_BIN to the official test.bin")
def test_cifar_official_test_split_counts():
    records = D.load_cifar100_binary(os.environ["CIFAR100_TEST_BIN"])
    assert len(records) == 10_000
    _, counts = np.unique(records[:, 1], return_counts=True)
    assert set(counts.tolist()) == {100}


def _whole_file_samples(path) -> list:
    """Every record of a CIFAR-100 binary as a sample, converted at once."""
    data = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(-1, D.CIFAR_RECORD)
    images = data[:, 2:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return [C.Sample(images[i], int(data[i, 1])) for i in range(len(data))]


def _whole_file_stream(cfg) -> C.TaskStream:
    """The CIFAR stream built from whole-file samples: the reference for
    ``cli.build_stream``'s record selection."""
    by_label_train: dict[int, list] = {}
    by_label_test: dict[int, list] = {}
    for s in _whole_file_samples(cfg.cifar_train):
        by_label_train.setdefault(s.label, []).append(s)
    for s in _whole_file_samples(cfg.cifar_test):
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


@pytest.mark.parametrize("kw", [
    pytest.param({}, id="default"),
    pytest.param(dict(classes=20, first_task=10, step_size=5, per_class=6,
                      eval_per_class=2, seed=3), id="subsampled"),
])
def test_cifar_stream_converts_only_kept_records(tmp_path, kw):
    rng = np.random.default_rng(5)
    for name, n in (("train.bin", 1500), ("test.bin", 300)):
        recs = rng.integers(0, 256, size=(n, D.CIFAR_RECORD), dtype=np.uint8)
        recs[:, 1] = np.arange(n) % D.CIFAR_CLASSES
        (tmp_path / name).write_bytes(recs.tobytes())
    cfg = cli.RunConfig(dataset="cifar100", cifar_train=tmp_path / "train.bin",
                        cifar_test=tmp_path / "test.bin", **kw)
    tracemalloc.start()
    try:
        stream = cli.build_stream(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = _whole_file_stream(cfg)
    assert [t.classes for t in stream.tasks] == [t.classes for t in want.tasks]
    for got_task, want_task in zip(stream.tasks, want.tasks):
        for got, ref in ((got_task.train, want_task.train), (got_task.eval, want_task.eval)):
            assert [s.label for s in got] == [s.label for s in ref]
            for a, b in zip(got, ref):
                assert a.image.dtype == b.image.dtype and a.image.tobytes() == b.image.tobytes()
    images = [s.image for t in stream.tasks for s in (*t.train, *t.eval)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(images) for b in images[i + 1:])
    kept = sum(img.nbytes for img in images)
    assert held <= kept + 2 ** 20, (held, kept)
    assert peak <= 2 * kept + 2 ** 20, (peak, kept)


def test_cifar_empty_file_has_no_records_and_an_empty_task(tmp_path):
    for name in ("train.bin", "test.bin"):
        (tmp_path / name).write_bytes(b"")
    records = D.load_cifar100_binary(tmp_path / "train.bin")
    assert records.shape == (0, D.CIFAR_RECORD) and records.dtype == np.uint8
    cfg = cli.RunConfig(dataset="cifar100", cifar_train=str(tmp_path / "train.bin"),
                        cifar_test=str(tmp_path / "test.bin"))
    with pytest.raises(C.StreamError, match="task 0 is empty"):
        cli.build_stream(cfg)


@pytest.mark.parametrize("split,name", [("training", "train.bin"), ("eval", "test.bin")])
def test_cifar_class_missing_from_a_split_fails_before_training(tmp_path, capsys, split, name):
    """A task whose class has no record in one file is a one-line error
    naming the task and the class, raised before anything trains."""
    labels = {"train.bin": [0, 1, 2, 3] * 3, "test.bin": [0, 1, 2, 3] * 2}
    labels[name] = [c for c in labels[name] if c != 3]
    for file, classes in labels.items():
        _write_records(tmp_path / file, [(0, c) for c in classes])
    rc = cli.main(["train", "--dataset", "cifar100", "--image-size", "32",
                   "--cifar-train", str(tmp_path / "train.bin"),
                   "--cifar-test", str(tmp_path / "test.bin"), "--classes", "4",
                   "--first-task", "2", "--step-size", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: task 1 has no {split} sample of class 3\n"
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------- synthetic

def test_synth_task_split():
    stream = D.synth_stream(8, 4, 16, seed=0, first_task=4, step_size=2,
                            eval_per_class=10, noise=0.08)
    assert len(stream) == 3
    assert stream.tasks[0].classes == (0, 1, 2, 3)
    assert stream.tasks[1].classes == (4, 5)
    assert stream.tasks[2].classes == (6, 7)


def test_synth_seed_reproducibility():
    a = D.synth_stream(4, 4, 16, seed=9, first_task=2, step_size=2,
                       eval_per_class=10, noise=0.08)
    b = D.synth_stream(4, 4, 16, seed=9, first_task=2, step_size=2,
                       eval_per_class=10, noise=0.08)
    for ta, tb in zip(a.tasks, b.tasks):
        for sa, sb in zip(ta.train, tb.train):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.label == sb.label


def class_mean_separation(samples: list) -> float:
    """Minimum pairwise L2 distance between per-class mean images."""
    by_class: dict[int, list[np.ndarray]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s.image.reshape(-1))
    means = {c: np.mean(v, axis=0) for c, v in by_class.items()}
    labels = sorted(means)
    best = np.inf
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            best = min(best, float(np.linalg.norm(means[a] - means[b])))
    return best


def test_synth_class_means_separated():
    stream = D.synth_stream(8, 20, 16, seed=3, first_task=4, step_size=2,
                            eval_per_class=10, noise=0.08)
    samples = [s for task in stream.tasks for s in task.train]
    # threshold frozen from measurement at this seed protocol; the squares
    # are far apart in color/position space so the margin is wide
    assert class_mean_separation(samples) > 1.0


def test_synth_rejects_tiny_per_class():
    with pytest.raises(ConfigError):
        D.synth_stream(4, 1, 16, seed=0, first_task=2, step_size=2,
                       eval_per_class=10, noise=0.08)


def test_synth_rejects_unsplittable():
    with pytest.raises(ConfigError):
        D.synth_stream(7, 4, 16, seed=0, first_task=4, step_size=2,
                       eval_per_class=10, noise=0.08)


@pytest.mark.parametrize("classes,first_task,step_size,twin", [
    pytest.param(96, 8, 8, (0, 88), id="8-colours"),
    pytest.param(24, 2, 2, (0, 22), id="2-colours"),
])
def test_synth_rejects_classes_that_share_colour_and_position(classes, first_task, step_size,
                                                               twin, monkeypatch):
    """At 16 px the square positions repeat every 11 slots, so class 88
    (8 colours) and class 22 (2 colours) would draw class 0 again; the
    stream names both before it draws anything.  One class fewer per
    colour still builds."""
    first, second = twin
    signature = D._class_signature(second, first_task, 16)
    assert second % first_task == first
    assert signature[2:] == D._class_signature(first, first_task, 16)[2:]
    assert len(D.synth_stream(second, 2, 16, seed=0, first_task=first_task, step_size=step_size,
                              eval_per_class=2, noise=0.08).class_order()) == second
    monkeypatch.setattr(D, "make_synthetic_samples", None)     # nothing is drawn
    with pytest.raises(ConfigError, match=f"^classes {first} and {second} share colour "
                                          "and position in 16 px images$"):
        D.synth_stream(classes, 2, 16, seed=0, first_task=first_task, step_size=step_size,
                       eval_per_class=2, noise=0.08)


def test_synth_values_in_unit_range():
    stream = D.synth_stream(4, 3, 16, seed=1, first_task=2, step_size=2,
                            eval_per_class=10, noise=0.08)
    for s in stream.tasks[0].train:
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def _make_synthetic_samples_oracle(classes, per_class, image_size, rng, *, n_colors,
                                   noise=0.08):
    """Per-channel draws into a fresh background: the reference for
    ``make_synthetic_samples``'s in-place drawing."""
    square = max(image_size // 3, 2)
    out = []
    for label in classes:
        color, side, row, col = D._class_signature(label, n_colors, image_size)
        assert side == square
        for _ in range(per_class):
            img = 0.25 + noise * rng.standard_normal((3, image_size, image_size))
            dr = int(rng.integers(-1, 2))
            dc = int(rng.integers(-1, 2))
            r0 = min(max(row + dr, 0), image_size - square)
            c0 = min(max(col + dc, 0), image_size - square)
            for ch in range(3):
                img[ch, r0:r0 + square, c0:c0 + square] = color[ch] \
                    + noise * rng.standard_normal((square, square))
            out.append(C.Sample(np.clip(img, 0.0, 1.0), int(label)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("classes,per_class,noise", [
    pytest.param(8, 8, 0.08, id="train-size"),
    pytest.param(14, 6, 0.08, id="infer-size"),
    pytest.param(8, 8, 0.0, id="noise0"),
])
def test_synth_stream_equals_the_per_channel_oracle(seed, classes, per_class, noise):
    split = D.split_classes(classes, 4, 2)
    n_colors = min(len(split[0]), len(D._PALETTE))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = []
    for ids in split:
        for count in (per_class, 10):
            got = D.make_synthetic_samples(ids, count, 16, rng_new, n_colors=n_colors,
                                           noise=noise)
            ref = _make_synthetic_samples_oracle(ids, count, 16, rng_ref, n_colors=n_colors,
                                                 noise=noise)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            for a, b in zip(got, ref, strict=True):
                assert a.label == b.label and a.image.tobytes() == b.image.tobytes()
            want.extend(ref)
    stream = D.synth_stream(classes, per_class, 16, seed, first_task=4, step_size=2,
                            eval_per_class=10, noise=noise)
    got = [s for t in stream.tasks for s in (*t.train, *t.eval)]
    assert [s.label for s in got] == [s.label for s in want]
    assert all(a.image.tobytes() == b.image.tobytes() for a, b in zip(got, want))
