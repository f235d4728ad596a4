"""Dataset generation and ingestion.

Generators are fully seeded and deterministic, with an 80/20 train/test
split. ``load_idx`` parses the big-endian IDX image/label format used by the
MNIST family of datasets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataConsistencyError, IdxFormatError, IdxReadError, InvalidArgumentError
from .models import TASK_CLASSIFICATION, TASK_NONE, TASK_REGRESSION

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix plus labels, split into train and test partitions."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    task: str
    num_classes: Optional[int] = None

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    def __post_init__(self):
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise DataConsistencyError("train feature/label row counts differ")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise DataConsistencyError("test feature/label row counts differ")
        if self.task == TASK_CLASSIFICATION:
            k = self.num_classes or 0
            for labels in (self.train_y, self.test_y):
                if labels.size and (labels.min() < 0 or labels.max() >= k):
                    raise DataConsistencyError("class index out of range")


def _split(x: np.ndarray, y: np.ndarray, task: str, num_classes=None, train_fraction=0.8) -> Dataset:
    n_train = int(round(train_fraction * x.shape[0]))
    return Dataset(
        train_x=x[:n_train],
        train_y=y[:n_train],
        test_x=x[n_train:],
        test_y=y[n_train:],
        task=task,
        num_classes=num_classes,
    )


def make_blobs(n: int = 1000, k: int = 2, sep: float = 5.0, dim: int = 2, seed: int = 0) -> Dataset:
    """k Gaussian clusters (unit variance) with pairwise center distance sep."""
    if n <= 0 or k < 2 or dim < 1:
        raise InvalidArgumentError("blobs require n > 0, k >= 2, dim >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    if k == 2:
        centers = np.zeros((2, dim))
        centers[0, 0] = -sep / 2.0
        centers[1, 0] = sep / 2.0
    else:
        radius = sep / (2.0 * np.sin(np.pi / k))
        angles = 2.0 * np.pi * np.arange(k) / k
        centers = np.zeros((k, dim))
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles) if dim > 1 else 0.0
    labels = rng.integers(0, k, size=n)
    x = centers[labels] + rng.normal(size=(n, dim))
    return _split(x, labels.astype(np.int64), TASK_CLASSIFICATION, num_classes=k)


def make_moons(n: int = 1000, noise: float = 0.15, seed: int = 0) -> Dataset:
    """Two interleaving half circles with Gaussian noise."""
    if n <= 0:
        raise InvalidArgumentError("n must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 102]))
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = rng.uniform(0.0, np.pi, size=n_outer)
    t_inner = rng.uniform(0.0, np.pi, size=n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    x = np.vstack([outer, inner]) + rng.normal(0.0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    perm = rng.permutation(n)
    return _split(x[perm], y[perm], TASK_CLASSIFICATION, num_classes=2)


def make_linear_regression(n: int = 1000, dim: int = 4, noise: float = 0.1, seed: int = 0) -> Dataset:
    """y = x @ w_true + b_true + noise, with x ~ N(0, I)."""
    if n <= 0 or dim < 1:
        raise InvalidArgumentError("regression requires n > 0 and dim >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 103]))
    w_true = rng.normal(size=dim)
    b_true = float(rng.normal())
    x = rng.normal(size=(n, dim))
    y = x @ w_true + b_true + noise * rng.normal(size=n)
    return _split(x, y, TASK_REGRESSION)


def make_bowl_dataset(n: int = 256) -> Dataset:
    """Placeholder rows for the data-free quadratic-bowl objective.

    The bowl's loss ignores the batch, so any superbatch evaluates to the
    same value; the rows only exist so the minibatch machinery has an epoch
    structure to work with.
    """
    if n <= 0:
        raise InvalidArgumentError("n must be positive")
    x = np.zeros((n, 1))
    y = np.zeros(n)
    return _split(x, y, TASK_NONE)


def spec_kwargs(spec: dict, **casts) -> dict:
    """Keyword arguments for the keys of ``spec`` named in ``casts``, coerced.

    Keys the spec leaves out are not passed, so the callee's own default
    applies. A cast given as ``(name, fn)`` passes the key as argument ``name``.
    """
    kwargs = {}
    for key, cast in casts.items():
        if key in spec:
            name, fn = cast if isinstance(cast, tuple) else (key, cast)
            kwargs[name] = fn(spec[key])
    return kwargs


DATASETS = {
    "blobs": lambda spec: make_blobs(**spec_kwargs(spec, n=int, k=int, sep=float, dim=int, seed=int)),
    "moons": lambda spec: make_moons(**spec_kwargs(spec, n=int, noise=float, seed=int)),
    "linreg": lambda spec: make_linear_regression(**spec_kwargs(spec, n=int, dim=int, noise=float, seed=int)),
    "bowl": lambda spec: make_bowl_dataset(**spec_kwargs(spec, n=int)),
    "idx": lambda spec: load_idx(spec["images"], spec["labels"]),
}


def make_dataset(spec: dict) -> Dataset:
    """Build a dataset from a config mapping with a 'kind' discriminator."""
    kind = spec.get("kind")
    if kind not in DATASETS:
        raise InvalidArgumentError(f"unknown dataset kind {kind!r}")
    return DATASETS[kind](spec)


def _read_exact(f, count: int, path: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxReadError(f"{path}: truncated file (wanted {count} bytes, got {len(data)})")
    return data


def _read_be32(f, path: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path))[0]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a classification dataset.

    Pixels are scaled to [0, 1] by 1/255. The resulting dataset places all
    examples in the train split; pair train and test files via two calls.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{images_path}: bad image magic 0x{magic:08x}")
        count = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        if count < 0 or rows <= 0 or cols <= 0:
            raise IdxFormatError(f"{images_path}: invalid dimensions")
        raw = _read_exact(f, count * rows * cols, images_path)
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    images /= 255.0

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
        label_count = _read_be32(f, labels_path)
        raw = _read_exact(f, label_count, labels_path)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise DataConsistencyError(
            f"image count {count} != label count {label_count}"
        )
    num_classes = int(labels.max()) + 1 if labels.size else 0
    empty_x = np.zeros((0, rows * cols))
    empty_y = np.zeros(0, dtype=np.int64)
    return Dataset(
        train_x=images,
        train_y=labels,
        test_x=empty_x,
        test_y=empty_y,
        task=TASK_CLASSIFICATION,
        num_classes=num_classes,
    )
