"""Dataset generation and ingestion, and the checker that reads config specs against key maps.

Generators are fully seeded and deterministic, with an 80/20 train/test
split. ``load_idx`` parses the big-endian IDX image/label format used by the
MNIST family of datasets.
"""

from __future__ import annotations

import functools
import inspect
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, QuadtuneError
from .models import TASK_CLASSIFICATION, TASK_NONE, TASK_REGRESSION

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Each draw of a run has its own stream, seeded by the entropy words [seed, number].
# A seed's words end where the purpose's begin, so no two (seed, purpose) pairs share a stream.
STREAM_PURPOSES = {"init": 1, "shuffle": 2, "superbatch": 3, "blobs": 101, "moons": 102, "linreg": 103}


def seeded_stream(seed: int, purpose: str) -> np.random.Generator:
    """The generator for one purpose of a seed; a seed is any non-negative integer."""
    if purpose not in STREAM_PURPOSES:
        raise InvalidArgumentError(f"unknown stream purpose {purpose!r}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, not {seed!r}")
    return np.random.default_rng([seed, STREAM_PURPOSES[purpose]])


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
            raise QuadtuneError("train feature/label row counts differ")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise QuadtuneError("test feature/label row counts differ")
        if self.task == TASK_CLASSIFICATION:
            k = self.num_classes or 0
            for labels in (self.train_y, self.test_y):
                if labels.size and (labels.min() < 0 or labels.max() >= k):
                    raise QuadtuneError("class index out of range")


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
    if k > 2 and dim < 2:
        raise InvalidArgumentError("blobs with k >= 3 place their centers on a circle and need dim >= 2")
    rng = seeded_stream(seed, "blobs")
    if k == 2:
        centers = np.zeros((2, dim))
        centers[0, 0] = -sep / 2.0
        centers[1, 0] = sep / 2.0
    else:
        radius = sep / (2.0 * np.sin(np.pi / k))
        angles = 2.0 * np.pi * np.arange(k) / k
        centers = np.zeros((k, dim))
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    labels = rng.integers(0, k, size=n)
    x = centers[labels] + rng.normal(size=(n, dim))
    return _split(x, labels.astype(np.int64), TASK_CLASSIFICATION, num_classes=k)


def make_moons(n: int = 1000, noise: float = 0.15, seed: int = 0) -> Dataset:
    """Two interleaving half circles with Gaussian noise."""
    if n <= 0 or noise < 0:
        raise InvalidArgumentError("moons require n > 0, noise >= 0")
    rng = seeded_stream(seed, "moons")
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
    if n <= 0 or dim < 1 or noise < 0:
        raise InvalidArgumentError("regression requires n > 0, dim >= 1, noise >= 0")
    rng = seeded_stream(seed, "linreg")
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


def _read_exact(f, count: int, path: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise QuadtuneError(f"{path}: truncated file (wanted {count} bytes, got {len(data)})")
    return data


def _read_be32(f, path: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path))[0]


def _read_idx_pair(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Images scaled to [0, 1] by 1/255, one row each, their labels, and the image size."""
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise QuadtuneError(f"{images_path}: bad image magic 0x{magic:08x}")
        count = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        if count < 0 or rows <= 0 or cols <= 0:
            raise QuadtuneError(f"{images_path}: invalid dimensions")
        raw = _read_exact(f, count * rows * cols, images_path)
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    images /= 255.0

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise QuadtuneError(f"{labels_path}: bad label magic 0x{magic:08x}")
        label_count = _read_be32(f, labels_path)
        raw = _read_exact(f, label_count, labels_path)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise QuadtuneError(f"image count {count} != label count {label_count}")
    return images, labels, (rows, cols)


def load_idx(images_path: str, labels_path: str, test_images_path: Optional[str] = None,
             test_labels_path: Optional[str] = None) -> Dataset:
    """A classification dataset from an IDX image/label file pair and an optional test pair
    (without one, the test split is empty); classes are counted over both label sets."""
    if (test_images_path is None) != (test_labels_path is None):
        raise InvalidArgumentError("idx dataset needs test_images and test_labels together")
    train_x, train_y, size = _read_idx_pair(images_path, labels_path)
    test_x, test_y = np.zeros((0, train_x.shape[1])), np.zeros(0, dtype=np.int64)
    if test_images_path is not None:
        test_x, test_y, test_size = _read_idx_pair(test_images_path, test_labels_path)
        if test_size != size:
            raise QuadtuneError(f"{test_images_path}: image size {test_size} != train image size {size}")
    num_classes = int(np.concatenate([train_y, test_y]).max(initial=-1)) + 1
    return Dataset(train_x, train_y, test_x, test_y, TASK_CLASSIFICATION, num_classes)


def _json_type(want) -> str:
    if type(want) is list:
        return f"a list of {_json_type(want[0])}"
    return "finite float" if want is float else want.__name__


def _typed(value, want):
    """value as JSON type want; a list type [t] gives a tuple. Raises TypeError on a
    mismatch, and on a float that is not finite (JSON as Python reads it has NaN and Infinity)."""
    if type(want) is list:
        if type(value) is list:
            return tuple([_typed(v, want[0]) for v in value])
    elif type(value) is want or (want is float and type(value) is int):
        value = want(value)
        if want is not float or math.isfinite(value):
            return value
    raise TypeError


@functools.cache
def _defaults(factory) -> tuple[set, set]:
    """Arguments of factory with no default, and those whose default is None."""
    params = inspect.signature(factory).parameters.values()
    return {p.name for p in params if p.default is p.empty}, {p.name for p in params if p.default is None}


def spec_args(where: str, spec, entry: tuple, **shared) -> dict:
    """Keyword arguments for an entry's factory from a config spec, checked against its key map.

    An entry is ``(factory, {key: type | (argument_name, type)})``; a type is int, float,
    bool, str, dict, or ``[type]`` for a JSON array (passed as a tuple). Nothing is
    coerced, except that a float takes a JSON integer, and a float must be finite. When
    two keys name one argument, the later one in the map wins. Arguments without a default
    are required, and null is taken only where the default is None. ``shared`` keys are
    checked, not passed.
    """
    if type(spec) is not dict:
        raise InvalidArgumentError(f"{where} must be a JSON object")
    factory, keys = entry
    required, nullable = _defaults(factory)
    args, found = {}, 0
    for key, want in (*keys.items(), *shared.items()):
        if key not in spec:
            continue
        found += 1
        arg, want = want if type(want) is tuple else (key, want)
        value = spec[key]
        if type(value) is not want or want in (dict, float):  # an exact int, bool or str passes as it is
            try:
                value = None if value is None and arg in nullable else _typed(value, want)
            except (TypeError, OverflowError):
                raise InvalidArgumentError(f"{where} key {key!r} must be {_json_type(want)}, not {value!r}") from None
        if key in keys:
            args[arg] = value
    if found < len(spec):
        raise InvalidArgumentError(f"unknown key {min(spec.keys() - keys.keys() - shared.keys())!r} in {where}")
    for arg in required - args.keys():
        given_by = [key for key, want in keys.items() if (want[0] if type(want) is tuple else key) == arg]
        if given_by:
            raise InvalidArgumentError(f"{where} requires {' or '.join(map(repr, given_by))}")
    return args


def kind_args(family: str, spec, table: dict, name_key: str = "kind", **shared) -> tuple:
    """The factory that spec[name_key] names in a kind table, and its arguments from spec_args."""
    name = spec.get(name_key) if type(spec) is dict else None
    if type(name) is not str or name not in table:
        raise InvalidArgumentError(f"unknown {family} {name_key} {name!r}")
    return table[name][0], spec_args(f"{name} {family}", spec, table[name], **{name_key: str}, **shared)


DATASETS = {
    "blobs": (make_blobs, {"n": int, "k": int, "sep": float, "dim": int, "seed": int}),
    "moons": (make_moons, {"n": int, "noise": float, "seed": int}),
    "linreg": (make_linear_regression, {"n": int, "dim": int, "noise": float, "seed": int}),
    "bowl": (make_bowl_dataset, {"n": int}),
    "idx": (load_idx, {"images": ("images_path", str), "labels": ("labels_path", str),
                       "test_images": ("test_images_path", str), "test_labels": ("test_labels_path", str)}),
}


def make_dataset(spec: dict) -> Dataset:
    """Build a dataset from a config mapping with a 'kind' discriminator."""
    factory, args = kind_args("dataset", spec, DATASETS)
    return factory(**args)
