"""Deterministic training substrate: minibatching, superbatch losses, probing.

The engine owns one model + dataset pair, partitions each epoch into
equal-size minibatches (the trailing partial batch is dropped, so the mean of
a superbatch's minibatch losses is the model's loss on all its rows, and that
is how a superbatch loss is measured), and provides the perturbed-loss
evaluation used for learning-rate probing. A superbatch gathers its rows
once, when it is drawn, and every later loss on it is measured on those rows,
whatever permutation the engine has moved to since. All randomness flows through
named, replayable RNG streams (`datasets.seeded_stream`) so runs and
rollbacks are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .datasets import Dataset, seeded_stream
from .errors import InvalidArgumentError
from .models import TASK_CLASSIFICATION, Model
from .optim import Optimizer, PendingStep


@dataclass(frozen=True, eq=False)
class Superbatch:
    """Distinct minibatch indices, in order, and the rows they named when drawn."""

    minibatch_indices: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray


class TrainingEngine:
    """Single-run training substrate with per-run cost counters."""

    def __init__(self, model: Model, dataset: Dataset, minibatch_size: int, seed: int):
        if minibatch_size < 1:
            raise InvalidArgumentError("minibatch_size must be >= 1")
        n_train = dataset.train_x.shape[0]
        if n_train < minibatch_size:
            raise InvalidArgumentError("dataset smaller than one minibatch")
        self.model = model
        self.dataset = dataset
        self.minibatch_size = int(minibatch_size)
        self.batches_per_epoch = n_train // self.minibatch_size
        self.shuffle_rng = seeded_stream(seed, "shuffle")
        self.superbatch_rng = seeded_stream(seed, "superbatch")
        self.forward_passes = 0
        self.backward_passes = 0
        self._saved_params = np.empty_like(model.params)  # perturbed_loss's restore point
        self._epoch = -1
        self._perm = np.arange(n_train)

    # -- minibatch plumbing --------------------------------------------------

    def _advance_to_epoch(self, epoch: int) -> None:
        while self._epoch < epoch:
            self._perm = self.shuffle_rng.permutation(self.dataset.train_x.shape[0])
            self._epoch += 1

    def batch_for_step(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Minibatch for a global step index; reshuffles at epoch boundaries."""
        epoch = step // self.batches_per_epoch
        self._advance_to_epoch(epoch)
        return self.minibatch(step % self.batches_per_epoch)

    def minibatch(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= index < self.batches_per_epoch:
            raise InvalidArgumentError("minibatch index out of range")
        rows = self._perm[index * self.minibatch_size : (index + 1) * self.minibatch_size]
        return self.dataset.train_x[rows], self.dataset.train_y[rows]

    # -- losses and gradients -------------------------------------------------

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        self.forward_passes += 1
        self.backward_passes += 1
        return self.model.loss_and_gradient(x, y)

    def superbatch_loss(self, sb: Superbatch) -> float:
        """The model's mean loss on the superbatch's rows, counted as one forward
        pass per minibatch."""
        self.forward_passes += len(sb.minibatch_indices)
        return self.model.loss(sb.x, sb.y)

    def perturbed_loss(self, direction: np.ndarray, step_size: float, sb: Superbatch) -> float:
        """Superbatch loss at params - step_size*direction; params restored bit-exactly.

        Returns NaN when the perturbed parameters are non-finite so the
        caller can discard the probe.
        """
        params = self.model.params
        saved = self._saved_params
        saved[:] = params
        try:
            # Divergent probes are expected to overflow, in the perturbation
            # or in the loss; the non-finite value itself is the discard marker.
            # The perturbation is written in place: a probe allocates no
            # parameter-sized temporary.
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(direction, step_size, out=params)
                np.subtract(saved, params, out=params)
                if not np.isfinite(params).all():
                    return math.nan
                return self.superbatch_loss(sb)
        finally:
            params[:] = saved

    def superbatch(self, minibatch_indices) -> Superbatch:
        """The superbatch of these distinct minibatch indices, its rows gathered once,
        under the current epoch permutation."""
        indices = tuple(sorted(map(int, minibatch_indices)))
        if len(indices) == 0:
            raise InvalidArgumentError("superbatch must contain at least one minibatch")
        if len(set(indices)) != len(indices):
            raise InvalidArgumentError("superbatch indices must be distinct")
        if indices[0] < 0 or indices[-1] >= self.batches_per_epoch:
            raise InvalidArgumentError("minibatch index out of range")
        size = self.minibatch_size
        rows = self._perm[: self.batches_per_epoch * size].reshape(-1, size)[list(indices)].reshape(-1)
        return Superbatch(indices, self.dataset.train_x[rows], self.dataset.train_y[rows])

    def draw_superbatch(self, size: int) -> Superbatch:
        """Sample `size` distinct minibatch indices from the superbatch stream."""
        if not 1 <= size <= self.batches_per_epoch:
            raise InvalidArgumentError(
                f"superbatch size {size} not in [1, {self.batches_per_epoch}] minibatches"
            )
        return self.superbatch(self.superbatch_rng.choice(self.batches_per_epoch, size=size, replace=False).tolist())

    # -- committed steps -------------------------------------------------------

    def commit(self, optimizer: Optimizer, pending: PendingStep, lr: float) -> None:
        optimizer.commit_step(self.model.params, lr, pending)

    # -- evaluation (not part of the training cost model) ----------------------

    def test_metrics(self) -> tuple[Optional[float], Optional[float]]:
        """(test loss, test accuracy); accuracy only for classification, neither without test rows."""
        ds = self.dataset
        if ds.test_x.shape[0] == 0:
            return None, None
        if ds.task == TASK_CLASSIFICATION:
            loss, predicted = self.model.loss_and_predict(ds.test_x, ds.test_y)
            return loss, float(np.mean(predicted == ds.test_y))
        return self.model.loss(ds.test_x, ds.test_y), None

    # -- determinism support ----------------------------------------------------

    def data_state(self) -> dict[str, Any]:
        """Opaque cursor over the shuffle/superbatch streams and the epoch permutation.

        It shares nothing with the engine: a bit generator's ``state`` is a fresh dict on read, copied on write.
        """
        return {
            "epoch": self._epoch,
            "perm": self._perm.copy(),
            "shuffle": self.shuffle_rng.bit_generator.state,
            "superbatch": self.superbatch_rng.bit_generator.state,
        }

    def restore_data_state(self, state: dict[str, Any]) -> None:
        self._epoch = state["epoch"]
        self._perm = state["perm"].copy()
        self.shuffle_rng.bit_generator.state = state["shuffle"]
        self.superbatch_rng.bit_generator.state = state["superbatch"]
