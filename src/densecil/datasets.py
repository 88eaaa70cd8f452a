"""Dataset ingestion: a seeded synthetic generator and the CIFAR-100 binary.

The synthetic generator draws each class as a colored square at a
class-specific grid position over a noisy background.  Colors repeat
across tasks while positions advance, so later tasks can reuse the color
detectors earlier experts learned.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError
from .continual import Sample, Task, TaskStream

CIFAR_RECORD = 3074          # coarse byte + fine byte + 3 * 32 * 32 pixels
CIFAR_CLASSES = 100


class FormatError(ValueError):
    """Malformed dataset file; message carries the failing offset."""


def load_cifar100_binary(path) -> list[Sample]:
    """Parse a CIFAR-100 binary split into samples with fine labels.

    Records are 3074 bytes: coarse label, fine label, then 3072 pixel
    bytes in row-major R, G, B planes, scaled here to [0, 1].
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % CIFAR_RECORD != 0:
        offset = len(raw) - (len(raw) % CIFAR_RECORD)
        raise FormatError(
            f"file length {len(raw)} is not a multiple of {CIFAR_RECORD}; "
            f"trailing fragment starts at offset {offset}")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    fine = data[:, 1]
    bad = np.nonzero(fine >= CIFAR_CLASSES)[0]
    if bad.size:
        offset = int(bad[0]) * CIFAR_RECORD + 1
        raise FormatError(
            f"record {int(bad[0])} has fine label {int(fine[bad[0]])} >= "
            f"{CIFAR_CLASSES} (offset {offset})")
    images = data[:, 2:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return [Sample(images[i], int(fine[i])) for i in range(len(data))]


# ------------------------------------------------------------- synthetic

_PALETTE = np.array([
    [1.0, 0.15, 0.15],
    [0.15, 1.0, 0.15],
    [0.15, 0.35, 1.0],
    [1.0, 1.0, 0.2],
    [1.0, 0.3, 1.0],
    [0.2, 1.0, 1.0],
    [1.0, 0.6, 0.1],
    [0.7, 0.7, 0.7],
])


def _class_signature(label: int, n_colors: int, image_size: int, square: int):
    color = _PALETTE[label % n_colors]
    slot = label // n_colors
    span = max(image_size - square, 1)
    # positions walk a diagonal-ish grid so every slot is distinct
    row = (slot * 5) % span
    col = (slot * 3 + 2) % span
    return color, row, col


def make_synthetic_samples(classes, per_class: int, image_size: int,
                           rng: np.random.Generator, *, n_colors: int,
                           noise: float = 0.08, square: int | None = None,
                           ) -> list[Sample]:
    if per_class < 2:
        raise ConfigError(f"per_class must be >= 2, got {per_class}")
    square = square or max(image_size // 3, 2)
    out: list[Sample] = []
    for label in classes:
        color, row, col = _class_signature(label, n_colors, image_size, square)
        for _ in range(per_class):
            img = 0.25 + noise * rng.standard_normal((3, image_size, image_size))
            dr = int(rng.integers(-1, 2))
            dc = int(rng.integers(-1, 2))
            r0 = int(np.clip(row + dr, 0, image_size - square))
            c0 = int(np.clip(col + dc, 0, image_size - square))
            for ch in range(3):
                img[ch, r0:r0 + square, c0:c0 + square] = color[ch] \
                    + noise * rng.standard_normal((square, square))
            out.append(Sample(np.clip(img, 0.0, 1.0), int(label)))
    return out


def split_classes(classes: int, first_task: int | None = None,
                  step_size: int = 2) -> list[list[int]]:
    """Class ids 0..classes-1 split into tasks: the first takes ``first_task``
    classes (defaults to half) and each later task takes ``step_size``."""
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    first = first_task if first_task is not None else classes // 2
    if first < 1 or first > classes:
        raise ConfigError(f"first task size {first} out of range for {classes} classes")
    if step_size < 1 or (classes - first) % step_size != 0:
        raise ConfigError(
            f"remaining {classes - first} classes do not split into steps of {step_size}")
    return [list(range(first))] + [list(range(start, start + step_size))
                                   for start in range(first, classes, step_size)]


def synth_stream(classes: int, per_class: int, image_size: int, seed: int, *,
                 first_task: int | None = None, step_size: int = 2,
                 eval_per_class: int = 10, noise: float = 0.08) -> TaskStream:
    """Seeded class-conditional stream split into disjoint-class tasks by
    ``split_classes``; identical seeds produce byte-identical datasets."""
    split = split_classes(classes, first_task, step_size)
    rng = np.random.default_rng(seed)
    n_colors = min(len(split[0]), len(_PALETTE))
    tasks: list[Task] = []
    for ids in split:
        train = make_synthetic_samples(ids, per_class, image_size, rng,
                                       n_colors=n_colors, noise=noise)
        ev = make_synthetic_samples(ids, eval_per_class, image_size, rng,
                                    n_colors=n_colors, noise=noise)
        tasks.append(Task(tuple(ids), train, ev))
    return TaskStream(tasks)


def class_mean_separation(samples: list[Sample]) -> float:
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
