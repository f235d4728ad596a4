"""Models with flat parameter vectors and exact analytic gradients.

All models store their parameters in one flat float64 array (``params``) and
implement mean per-example loss plus its exact gradient: squared error / 2
for regression, softmax cross-entropy for classification. Means are written
as a sum over the rows divided by their count, which is what ``np.mean``
computes, without its Python wrapper; the losses call the ufunc reductions
themselves (`_row_mean`), skipping the array methods' wrappers too. The
quadratic bowl is a data-free objective on the parameters themselves, used
as an analytic oracle in tests.

Every `Mlp` evaluation (`loss`, `predict` and `loss_and_predict`) runs in
blocks of rows through `logits`. A blocked result equals one unblocked
forward, bit for bit, while the BLAS computes a row of a matrix product the
same way whatever the number of rows around it; block edges fall on whole
groups of 8 rows, because some kernels round a row by its place in a group.
A batch of two or more blocks is cut into equal blocks, as many as a multiple
of the CPUs this process may run on, and runs them as one contiguous share
per CPU, the calling thread running the first; each block is the same
computation on the same rows whichever thread runs it, so the result is the
same bits. Block edges therefore depend on the CPU count. Under the same
premise that changes nothing; where the BLAS rounds a row differently at
some row counts (a small-matrix kernel near its size threshold), a result
can differ in the last bit between hosts with different CPU counts, and each
host still replays exactly.
"""

from __future__ import annotations

import copy
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"
TASK_NONE = "none"

# Mlp.logits runs in blocks of rows holding at most this many elements of the
# widest layer (512 KiB of float64), so a block's activations stay in a 2 MB
# L2 cache. On a 2-vCPU host with one BLAS thread, a [2, 256, 256, 2]
# superbatch of 50x32 rows took 8.5 ms as 50 forwards, 6.4 ms in 256-row
# blocks on one thread and 8.2 ms as one 1600-row stack; an 800-row test set,
# 4.8 ms as one forward and 3.3 ms in blocks on one thread. A multi-block
# batch runs as one share of equal blocks per CPU, the calling thread running
# one: on that host (30 alternating rounds in one process) the superbatch's
# loss took 3.9 ms as 8 blocks of 200 rows, 4 of them on the calling thread,
# against 4.1 ms as 7 blocks of at most 256 rows on two workers while the
# calling thread waited; the test set, 2.1 ms as 4 blocks of 200 against 2.2 ms.
BLOCK_ELEMENTS = 2**16


def _block_pool() -> tuple[int, Optional[ThreadPoolExecutor]]:
    """The share count, one per CPU this process may run on, and a pool of a
    worker per share but the calling thread's (None with one CPU). The
    executor starts its threads at the first multi-block batch, not here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus, ThreadPoolExecutor(cpus - 1, thread_name_prefix="quadtune-block") if cpus > 1 else None


_SHARES, _POOL = _block_pool()
if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=lambda: globals().update(zip(("_SHARES", "_POOL"), _block_pool())))


@functools.lru_cache(maxsize=8)  # a run meets a few shapes: minibatch, stack, superbatch and test set
def _row_index(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only index arrays that, with one column per row, pick one entry from each
    row of an array of rows shaped `shape`: (arange(n),), or a seed axis and a row axis."""
    index = tuple(np.arange(k).reshape((k,) + (1,) * (len(shape) - 1 - i)) for i, k in enumerate(shape))
    for axis in index:
        axis.flags.writeable = False
    return index


def _row_mean(rows: np.ndarray):
    """The mean over the last axis: a float for one model's rows, an array of one per seed for a stack's."""
    mean = np.add.reduce(rows, -1) / rows.shape[-1]
    return float(mean) if mean.ndim == 0 else mean


class Model:
    """Base: flat parameter vector plus loss/gradient over a batch; every model stacks (see `stack`)."""

    task: str  # the dataset task it trains; `TrainingEngine` checks it against its dataset's

    def __init__(self, n_params: int):
        self.params = np.zeros(n_params, dtype=np.float64)

    def _bind(self, params: np.ndarray) -> None:
        """Make ``params`` this model's parameter array; a subclass rebuilds its views of it."""
        self.params = params

    @classmethod
    def stack(cls, models: list[Model]) -> Model:
        """One model whose params are the models' params as rows of one seeds x parameters array.

        Each model's ``params`` becomes its row, with its values, so a write
        to either reaches both. Every model's stacked `loss_and_gradient`
        takes a seeds x rows x features batch and returns a loss per seed and
        a gradient row per seed. It runs each seed's matrix products as their
        own BLAS calls with unchanged sizes, and every other operation per
        seed along the same axes, so each seed's loss and gradient have the
        bits of its own call.
        """
        stacked = copy.copy(models[0])
        stacked._bind(np.array([m.params for m in models]))
        for model, row in zip(models, stacked.params):
            model._bind(row)
        return stacked

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self.loss(x, y), self.gradient(x, y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearRegression(Model):
    """y_hat = x @ w + b with loss mean(0.5 * (y_hat - y)^2).

    Every method takes the leading seed axis of a stack (see `Model.stack`): a
    stacked `predict`, `loss` and `gradient` return a row, a loss and a
    gradient row per seed.
    """

    task = TASK_REGRESSION

    def __init__(self, n_features: int):
        super().__init__(n_features + 1)
        self.n_features = n_features

    def _unpack(self):
        return self.params[..., : self.n_features], self.params[..., self.n_features]

    def predict(self, x):
        w, b = self._unpack()
        return (x @ w[..., None])[..., 0] + b[..., None]

    def loss(self, x, y):
        r = self.predict(x) - y
        return _row_mean(0.5 * r * r)

    def gradient(self, x, y):
        n = x.shape[-2]
        r = self.predict(x) - y
        grad = np.empty_like(self.params)
        grad[..., : self.n_features] = (x.swapaxes(-1, -2) @ r[..., None])[..., 0] / n
        grad[..., self.n_features] = np.add.reduce(r, -1) / n
        return grad


class Mlp(Model):
    """Fully connected ReLU network via manual backpropagation.

    ``layer_sizes`` includes the input and output widths, e.g. [2, 64, 32, 2].
    Classification uses softmax cross-entropy on the final linear layer;
    regression uses mean 0.5*(pred - y)^2 with a single output unit.

    The per-layer weight/bias views into ``params`` are built once, so
    ``params`` must be written in place (``params[:] = v``), never rebound
    but by `Model.stack`; copies and unpickled models rebuild their views.

    ``params`` may be one row of a stack's (see `Model.stack`). Only
    `loss_and_gradient` takes a stack's seed axis; every other method runs
    in row blocks and takes the unstacked shapes.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        task: str = TASK_CLASSIFICATION,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise InvalidArgumentError(f"layer_sizes needs input and output widths, each at least 1, not {layer_sizes}")
        if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise InvalidArgumentError(f"unsupported task {task!r}")
        if task == TASK_REGRESSION and layer_sizes[-1] != 1:
            raise InvalidArgumentError(f"a regression Mlp has exactly one output, not {layer_sizes[-1]}")
        self.layer_sizes = list(layer_sizes)
        self.task = task
        n = sum(layer_sizes[i] * layer_sizes[i + 1] + layer_sizes[i + 1] for i in range(len(layer_sizes) - 1))
        super().__init__(n)
        self._shapes = [
            (layer_sizes[i], layer_sizes[i + 1]) for i in range(len(layer_sizes) - 1)
        ]
        self._layers = self._split(self.params)
        if rng is not None:
            for w, _ in self._layers:  # biases stay zero
                w[:] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_layers"]  # a copy of a view no longer shares the copied params
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind(self.params)

    def _bind(self, params: np.ndarray) -> None:
        super()._bind(params)
        self._layers = self._split(params)

    def _split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into a vector laid out like `params`, or
        into each row of a stack of them; a bias is a (..., 1, fan_out) view."""
        lead = flat.shape[:-1]
        out = []
        start = 0
        for fan_in, fan_out in self._shapes:
            stop = start + fan_in * fan_out
            weight = flat[..., start:stop].reshape(lead + (fan_in, fan_out))
            out.append((weight, flat[..., None, stop : stop + fan_out]))
            start = stop + fan_out
        return out

    def _forward(self, x, keep_inputs: bool = False):
        """Network output, plus the input of every layer when `keep_inputs`.

        Bias and ReLU are applied in place on each layer's fresh matmul result.
        """
        inputs = []
        a = x
        layers = self._layers
        for i, (w, b) in enumerate(layers):
            if keep_inputs:
                inputs.append(a)
            a = a @ w
            a += b
            if i < len(layers) - 1:
                np.maximum(a, 0.0, out=a)
        return a, inputs

    def _row_losses(self, out, y, with_delta: bool = False):
        """Per-row losses of the outputs and, with `with_delta`, the gradient
        of their mean over the rows with respect to the outputs (one shared `exp`)."""
        if self.task == TASK_CLASSIFICATION:
            shifted = out - np.maximum.reduce(out, -1, keepdims=True)
            exp = np.exp(shifted)
            z = np.add.reduce(exp, -1, keepdims=True)
            picked = _row_index(out.shape[:-1]) + (y,)
            rows = np.log(z[..., 0]) - shifted[picked]
            if not with_delta:
                return rows, None
            delta = np.divide(exp, z, out=exp)
            delta[picked] -= 1.0
        else:
            r = out[..., 0] - y
            rows = 0.5 * r * r
            if not with_delta:
                return rows, None
            delta = r[..., None]
        delta /= out.shape[-2]
        return rows, delta

    def logits(self, x):
        """Network output, one `_forward` per block of rows (see BLOCK_ELEMENTS).

        A multi-block batch is cut into equal blocks, their count rounded up
        to a multiple of `_SHARES` and their edges to whole groups of rows,
        and each share of contiguous blocks writes its rows of one output
        array. The calling thread runs the first share and `_POOL` the
        others, each under the caller's floating-point error state (a worker
        thread starts with numpy's default one); the caller waits for every
        worker share, even when its own share raised.
        """
        n = len(x)
        block = max(1, BLOCK_ELEMENTS // max(self.layer_sizes))
        if n <= block:
            return self._forward(x)[0]
        # Edges fall on multiples of `group` rows. The BLAS computes a product's
        # rows in groups, and a row's last bits can depend on its place in its
        # group (a [256, 2] layer's do at row counts that are not a multiple of
        # 4), so edges on group boundaries give each row the bits it has in one
        # unblocked forward, whatever the share count.
        group = 8 if block >= 8 else 1
        units = -(-n // group)
        shares = _SHARES
        blocks = -(-units // (block // group))
        blocks += -blocks % shares
        edges = [min(n, group * (i * units // blocks)) for i in range(blocks + 1)]
        cuts = list(zip(edges, edges[1:]))
        per_share = blocks // shares
        out = np.empty((n, self.layer_sizes[-1]), np.result_type(x, self.params))
        errors = np.geterr()

        def run(share):
            with np.errstate(**errors):
                for start, stop in cuts[share * per_share : (share + 1) * per_share]:
                    if start < stop:  # more shares than rows leave some blocks empty
                        out[start:stop] = self._forward(x[start:stop])[0]

        futures = [_POOL.submit(run, share) for share in range(1, shares)]
        try:
            run(0)
        finally:
            wait(futures)
        for future in futures:
            future.result()
        return out

    def _predictions(self, out):
        if self.task == TASK_CLASSIFICATION:
            return out.argmax(axis=1)
        return out[:, 0]

    def predict(self, x):
        return self._predictions(self.logits(x))

    def loss(self, x, y):
        return _row_mean(self._row_losses(self.logits(x), y)[0])

    def loss_and_predict(self, x, y):
        """Loss and predictions from one forward pass."""
        out = self.logits(x)
        return _row_mean(self._row_losses(out, y)[0]), self._predictions(out)

    def gradient(self, x, y):
        return self.loss_and_gradient(x, y)[1]

    def loss_and_gradient(self, x, y):
        """Loss and gradient from one forward pass; a stack's are a loss per seed and a gradient row per seed."""
        out, inputs = self._forward(x, keep_inputs=True)
        rows, delta = self._row_losses(out, y, with_delta=True)
        grad = np.empty_like(self.params)
        grads = self._split(grad)
        for i in range(len(grads) - 1, -1, -1):
            gw, gb = grads[i]
            np.matmul(inputs[i].swapaxes(-1, -2), delta, out=gw)
            np.add.reduce(delta, -2, out=gb, keepdims=True)
            if i > 0:
                delta = delta @ self._layers[i][0].swapaxes(-1, -2)
                delta *= inputs[i] > 0.0
        return _row_mean(rows), grad


class LogisticRegression(Mlp):
    """Multinomial logistic regression: a one-layer, zero-initialised softmax Mlp."""

    def __init__(self, n_features: int, n_classes: int):
        if (n_classes or 0) < 2:  # a dataset without classes has n_classes None
            raise InvalidArgumentError(f"logistic regression needs at least 2 classes, not {n_classes}")
        super().__init__([n_features, n_classes])


class QuadraticBowl(Model):
    """Deterministic objective 0.5 * theta^T A theta; ignores the batch. `loss` and `gradient`
    take a stack's seed axis; each seed runs the matrix-vector and dot calls of one bowl's."""

    task = TASK_NONE

    def __init__(self, matrix: np.ndarray, theta0: Optional[np.ndarray] = None):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim == 1:
            a = np.diag(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidArgumentError("matrix must be square (or a diagonal vector)")
        super().__init__(a.shape[0])
        self.matrix = a
        if theta0 is not None:
            theta0 = np.asarray(theta0, dtype=np.float64)
            if theta0.shape != self.params.shape:
                raise InvalidArgumentError("theta0 shape mismatch")
            self.params[:] = theta0
        else:
            self.params[:] = 1.0

    def loss(self, x=None, y=None):
        p = self.params[..., None, :]
        loss = (0.5 * p @ self.matrix @ p.swapaxes(-1, -2))[..., 0, 0]
        return float(loss) if loss.ndim == 0 else loss

    def gradient(self, x=None, y=None):
        return (self.matrix @ self.params[..., None])[..., 0]
