"""Deterministic training substrate: minibatching, superbatch losses, probing.

The engine owns one model + dataset pair, partitions each epoch into
equal-size minibatches (the trailing partial batch is dropped so superbatch
means equal example means), and provides the perturbed-loss evaluation used
for learning-rate probing. All randomness flows through named, replayable
RNG streams (`datasets.seeded_stream`) so runs and rollbacks are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .datasets import Dataset, seeded_stream
from .errors import InvalidArgumentError
from .models import TASK_CLASSIFICATION, TASK_NONE, Model
from .optim import Optimizer, PendingStep


@dataclass(frozen=True)
class Superbatch:
    """A fixed set of distinct minibatch indices evaluated as one mean loss."""

    minibatch_indices: tuple[int, ...]

    def __init__(self, minibatch_indices):
        indices = tuple(sorted(int(i) for i in minibatch_indices))
        if len(indices) == 0:
            raise InvalidArgumentError("superbatch must contain at least one minibatch")
        if len(set(indices)) != len(indices):
            raise InvalidArgumentError("superbatch indices must be distinct")
        object.__setattr__(self, "minibatch_indices", indices)

    @property
    def size_in_minibatches(self) -> int:
        return len(self.minibatch_indices)


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

    def forward_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        if x.shape[0] == 0:
            raise InvalidArgumentError("empty batch")
        self.forward_passes += 1
        return self.model.loss(x, y)

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        self.forward_passes += 1
        self.backward_passes += 1
        return self.model.loss_and_gradient(x, y)

    def superbatch_loss(self, sb: Superbatch) -> float:
        """Unweighted mean of minibatch losses over the superbatch.

        All its rows are gathered at once and the model evaluates them as
        stacked minibatches (`Model.minibatch_losses`). The losses are added
        in index order, as a loop of `forward_loss` over each `minibatch`
        would add them; it still counts one forward pass per minibatch.
        """
        indices = sb.minibatch_indices
        if indices[0] < 0 or indices[-1] >= self.batches_per_epoch:
            raise InvalidArgumentError("minibatch index out of range")
        size = self.minibatch_size
        rows = self._perm[: self.batches_per_epoch * size].reshape(-1, size)[list(indices)].reshape(-1)
        self.forward_passes += len(indices)
        total = 0.0
        for loss in self.model.minibatch_losses(self.dataset.train_x[rows], self.dataset.train_y[rows], size):
            total += float(loss)
        return total / len(indices)

    def perturbed_loss(self, direction: np.ndarray, step_size: float, sb: Superbatch) -> float:
        """Superbatch loss at params - step_size*direction; params restored bit-exactly.

        Returns NaN when the perturbed parameters are non-finite so the
        caller can discard the probe.
        """
        saved = self.model.params.copy()
        try:
            # Divergent probes are expected to overflow, in the perturbation
            # or in the loss; the non-finite value itself is the discard marker.
            with np.errstate(over="ignore", invalid="ignore"):
                perturbed = saved - step_size * direction
                if not np.isfinite(perturbed).all():
                    return math.nan
                self.model.params[:] = perturbed
                return self.superbatch_loss(sb)
        finally:
            self.model.params[:] = saved

    def draw_superbatch(self, size: int) -> Superbatch:
        """Sample `size` distinct minibatch indices from the superbatch stream."""
        if not 1 <= size <= self.batches_per_epoch:
            raise InvalidArgumentError(
                f"superbatch size {size} not in [1, {self.batches_per_epoch}] minibatches"
            )
        indices = self.superbatch_rng.choice(self.batches_per_epoch, size=size, replace=False)
        return Superbatch(indices)

    # -- committed steps -------------------------------------------------------

    def commit(self, optimizer: Optimizer, pending: PendingStep, lr: float) -> None:
        optimizer.commit_step(self.model.params, lr, pending)

    # -- evaluation (not part of the training cost model) ----------------------

    def test_metrics(self) -> tuple[Optional[float], Optional[float]]:
        """(test loss, test accuracy); accuracy only for classification."""
        ds = self.dataset
        if ds.test_x.shape[0] == 0:
            if ds.task == TASK_NONE:
                return self.model.loss(ds.train_x, ds.train_y), None
            return None, None
        loss = self.model.loss(ds.test_x, ds.test_y)
        if ds.task == TASK_CLASSIFICATION:
            acc = float(np.mean(self.model.predict(ds.test_x) == ds.test_y))
            return loss, acc
        return loss, None

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
