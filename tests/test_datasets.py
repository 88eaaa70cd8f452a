"""Dataset tests: CIFAR binary format handling and the synthetic stream."""

import os

import numpy as np
import pytest

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
    samples = D.load_cifar100_binary(p)
    assert len(samples) == 3
    assert [s.label for s in samples] == [1, 2, 99]
    assert samples[0].image.shape == (3, 32, 32)
    assert samples[0].image.max() <= 1.0


def test_cifar_pixel_scaling(tmp_path):
    p = tmp_path / "px.bin"
    _write_records(p, [(0, 5)], fill=255)
    s = D.load_cifar100_binary(p)[0]
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
    samples = D.load_cifar100_binary(os.environ["CIFAR100_TEST_BIN"])
    assert len(samples) == 10_000
    counts = {}
    for s in samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert set(counts.values()) == {100}


# ------------------------------------------------------------- synthetic

def test_synth_task_split():
    stream = D.synth_stream(8, 4, 16, seed=0, first_task=4, step_size=2)
    assert len(stream) == 3
    assert stream.tasks[0].classes == (0, 1, 2, 3)
    assert stream.tasks[1].classes == (4, 5)
    assert stream.tasks[2].classes == (6, 7)


def test_synth_seed_reproducibility():
    a = D.synth_stream(4, 4, 16, seed=9, first_task=2, step_size=2)
    b = D.synth_stream(4, 4, 16, seed=9, first_task=2, step_size=2)
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
    stream = D.synth_stream(8, 20, 16, seed=3, first_task=4, step_size=2)
    samples = [s for task in stream.tasks for s in task.train]
    # threshold frozen from measurement at this seed protocol; the squares
    # are far apart in color/position space so the margin is wide
    assert class_mean_separation(samples) > 1.0


def test_synth_rejects_tiny_per_class():
    with pytest.raises(ConfigError):
        D.synth_stream(4, 1, 16, seed=0, first_task=2, step_size=2)


def test_synth_rejects_unsplittable():
    with pytest.raises(ConfigError):
        D.synth_stream(7, 4, 16, seed=0, first_task=4, step_size=2)


def test_synth_values_in_unit_range():
    stream = D.synth_stream(4, 3, 16, seed=1, first_task=2, step_size=2)
    for s in stream.tasks[0].train:
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
