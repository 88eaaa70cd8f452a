"""Dataset ingestion: a seeded synthetic generator and the CIFAR-100 binary.

The synthetic generator draws each class as a colored square at a
class-specific grid position over a noisy background.  Colors repeat
across tasks while positions advance, so later tasks can reuse the color
detectors earlier experts learned.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ConfigError
from .continual import Sample, Task, TaskStream

CIFAR_RECORD = 3074          # coarse byte + fine byte + 3 * 32 * 32 pixels
CIFAR_CLASSES = 100


class FormatError(ValueError):
    """Malformed dataset file; message carries the failing offset."""


def load_cifar100_binary(path) -> np.ndarray:
    """Parse a CIFAR-100 binary split into validated (n, 3074) uint8 records.

    Records are 3074 bytes: coarse label, fine label, then 3072 pixel
    bytes in row-major R, G, B planes.  The records are a read-only memory
    map of the file, so only what a run reads is loaded; ``cifar_samples``
    converts the records it keeps.  An empty file has no records (numpy
    cannot map an empty file).
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size % CIFAR_RECORD != 0:
            offset = size - (size % CIFAR_RECORD)
            raise FormatError(
                f"file length {size} is not a multiple of {CIFAR_RECORD}; "
                f"trailing fragment starts at offset {offset}")
        if size == 0:
            return np.zeros((0, CIFAR_RECORD), dtype=np.uint8)
        data = np.memmap(f, dtype=np.uint8, mode="r", shape=(size // CIFAR_RECORD, CIFAR_RECORD))
    fine = data[:, 1]
    bad = np.nonzero(fine >= CIFAR_CLASSES)[0]
    if bad.size:
        offset = int(bad[0]) * CIFAR_RECORD + 1
        raise FormatError(
            f"record {int(bad[0])} has fine label {int(fine[bad[0]])} >= "
            f"{CIFAR_CLASSES} (offset {offset})")
    return data


def cifar_samples(records: np.ndarray, rows: np.ndarray) -> list[Sample]:
    """Samples of the given records, pixels scaled to [0, 1].  Only those rows
    are converted, so no image holds on to the whole file."""
    images = records[rows, 2:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return [Sample(img, int(label)) for img, label in zip(images, records[rows, 1])]


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


def _class_signature(label: int, n_colors: int, image_size: int):
    """The color, side and top-left corner of ``label``'s square."""
    color = _PALETTE[label % n_colors]
    square = max(image_size // 3, 2)
    slot = label // n_colors
    span = max(image_size - square, 1)
    # positions walk a diagonal-ish grid; slots s and s + span share one
    row = (slot * 5) % span
    col = (slot * 3 + 2) % span
    return color, square, row, col


def make_synthetic_samples(classes, per_class: int, image_size: int,
                           rng: np.random.Generator, *, n_colors: int,
                           noise: float) -> list[Sample]:
    out: list[Sample] = []
    for label in classes:
        color, square, row, col = _class_signature(label, n_colors, image_size)
        color = color[:, None, None]
        for _ in range(per_class):
            img = rng.standard_normal((3, image_size, image_size))
            img *= noise
            img += 0.25
            dr = int(rng.integers(-1, 2))
            dc = int(rng.integers(-1, 2))
            r0 = min(max(row + dr, 0), image_size - square)
            c0 = min(max(col + dc, 0), image_size - square)
            patch = rng.standard_normal((3, square, square))
            patch *= noise
            patch += color
            img[:, r0:r0 + square, c0:c0 + square] = patch
            out.append(Sample(img.clip(0.0, 1.0, out=img), int(label)))
    return out


def split_classes(classes: int, first_task: int, step_size: int) -> list[list[int]]:
    """Class ids 0..classes-1 split into tasks: the first takes ``first_task``
    classes and each later task takes ``step_size``."""
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if first_task < 1 or first_task > classes:
        raise ConfigError(f"first task size {first_task} out of range for {classes} classes")
    if step_size < 1 or (classes - first_task) % step_size != 0:
        raise ConfigError(
            f"remaining {classes - first_task} classes do not split into steps of {step_size}")
    return [list(range(first_task))] + [list(range(start, start + step_size))
                                        for start in range(first_task, classes, step_size)]


def synth_stream(classes: int, per_class: int, image_size: int, seed: int, *,
                 first_task: int, step_size: int, eval_per_class: int,
                 noise: float) -> TaskStream:
    """Seeded class-conditional stream split into disjoint-class tasks by
    ``split_classes``; identical seeds produce byte-identical datasets.  Two
    classes with the same colour and square position are a ``ConfigError``."""
    for name, count in (("per_class", per_class), ("eval_per_class", eval_per_class)):
        if count < 2:
            raise ConfigError(f"{name} must be >= 2, got {count}")
    split = split_classes(classes, first_task, step_size)
    n_colors = min(len(split[0]), len(_PALETTE))
    first: dict[tuple, int] = {}
    for label in range(classes):
        key = (label % n_colors, *_class_signature(label, n_colors, image_size)[2:])
        if (twin := first.setdefault(key, label)) != label:
            raise ConfigError(f"classes {twin} and {label} share colour and position in "
                              f"{image_size} px images")
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    for ids in split:
        train = make_synthetic_samples(ids, per_class, image_size, rng,
                                       n_colors=n_colors, noise=noise)
        ev = make_synthetic_samples(ids, eval_per_class, image_size, rng,
                                    n_colors=n_colors, noise=noise)
        tasks.append(Task(tuple(ids), train, ev))
    return TaskStream(tasks)


def cifar_stream(train_path, test_path, classes: int, per_class: int, seed: int, *,
                 first_task: int, step_size: int, eval_per_class: int) -> TaskStream:
    """Class-incremental stream over the CIFAR-100 binary pair, split by
    ``split_classes``.  Each class keeps ``per_class`` train records drawn
    without replacement (all of them if it has no more, in file order) and
    its first ``eval_per_class`` test records; only kept records are
    converted."""
    train = load_cifar100_binary(train_path)
    test = load_cifar100_binary(test_path)
    split = split_classes(classes, first_task, step_size)
    train_rows = [np.flatnonzero(train[:, 1] == c) for c in range(classes)]
    test_rows = [np.flatnonzero(test[:, 1] == c) for c in range(classes)]
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    for ids in split:
        tr, ev = [], []
        for c in ids:
            pool = train_rows[c]
            if len(pool) > per_class:
                pool = pool[np.sort(rng.choice(len(pool), size=per_class, replace=False))]
            tr.append(pool)
            ev.append(test_rows[c][:eval_per_class])
        tasks.append(Task(tuple(ids), cifar_samples(train, np.concatenate(tr)),
                          cifar_samples(test, np.concatenate(ev))))
    return TaskStream(tasks)
