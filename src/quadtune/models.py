"""Models with flat parameter vectors and exact analytic gradients.

All models store their parameters in one flat float64 array (``params``) and
implement mean per-example loss plus its exact gradient: squared error / 2
for regression, softmax cross-entropy for classification. Means are written
``x.sum() / n``, which is what ``np.mean`` computes, without its Python
wrapper. The quadratic bowl is a data-free objective on the parameters
themselves, used as an analytic oracle in tests.

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


class Model:
    """Base: flat parameter vector plus loss/gradient over a batch."""

    def __init__(self, n_params: int):
        self.params = np.zeros(n_params, dtype=np.float64)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self.loss(x, y), self.gradient(x, y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearRegression(Model):
    """y_hat = x @ w + b with loss mean(0.5 * (y_hat - y)^2)."""

    def __init__(self, n_features: int):
        super().__init__(n_features + 1)
        self.n_features = n_features

    def _unpack(self):
        return self.params[: self.n_features], self.params[self.n_features]

    def predict(self, x):
        w, b = self._unpack()
        return x @ w + b

    def loss(self, x, y):
        r = self.predict(x) - y
        return float((0.5 * r * r).sum() / len(r))

    def gradient(self, x, y):
        n = x.shape[0]
        r = self.predict(x) - y
        grad = np.empty_like(self.params)
        grad[: self.n_features] = x.T @ r / n
        grad[self.n_features] = r.sum() / n
        return grad


class Mlp(Model):
    """Fully connected ReLU network via manual backpropagation.

    ``layer_sizes`` includes the input and output widths, e.g. [2, 64, 32, 2].
    Classification uses softmax cross-entropy on the final linear layer;
    regression uses mean 0.5*(pred - y)^2 with a single output unit.

    The per-layer weight/bias views into ``params`` are built once, so
    ``params`` must be written in place (``params[:] = v``), never rebound;
    copies and unpickled models rebuild their views.
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
        self._layers = self._split(self.params)

    def _split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into a flat vector laid out like `params`."""
        out = []
        offset = 0
        for fan_in, fan_out in self._shapes:
            w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            out.append((w, flat[offset : offset + fan_out]))
            offset += fan_out
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
        of their mean with respect to the outputs (one shared `exp`)."""
        n = out.shape[0]
        if self.task == TASK_CLASSIFICATION:
            shifted = out - out.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            z = exp.sum(axis=1, keepdims=True)
            picked = (np.arange(n), y)
            rows = np.log(z[:, 0]) - shifted[picked]
            if not with_delta:
                return rows, None
            delta = exp / z
            delta[picked] -= 1.0
        else:
            r = out[:, 0] - y
            rows = 0.5 * r * r
            if not with_delta:
                return rows, None
            delta = r.reshape(-1, 1)
        delta /= n
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
        return out[:, 0] if out.ndim == 2 and out.shape[1] == 1 else out

    def predict(self, x):
        return self._predictions(self.logits(x))

    def loss(self, x, y):
        rows, _ = self._row_losses(self.logits(x), y)
        return float(rows.sum() / len(rows))

    def loss_and_predict(self, x, y):
        """Loss and predictions from one forward pass."""
        out = self.logits(x)
        return float(self._row_losses(out, y)[0].sum() / len(out)), self._predictions(out)

    def gradient(self, x, y):
        return self.loss_and_gradient(x, y)[1]

    def loss_and_gradient(self, x, y):
        """Loss and gradient from one forward pass."""
        out, inputs = self._forward(x, keep_inputs=True)
        rows, delta = self._row_losses(out, y, with_delta=True)
        grad = np.empty_like(self.params)
        grads = self._split(grad)
        for i in range(len(grads) - 1, -1, -1):
            gw, gb = grads[i]
            np.matmul(inputs[i].T, delta, out=gw)
            delta.sum(axis=0, out=gb)
            if i > 0:
                delta = (delta @ self._layers[i][0].T) * (inputs[i] > 0.0)
        return float(rows.sum() / len(rows)), grad


class LogisticRegression(Mlp):
    """Multinomial logistic regression: a one-layer, zero-initialised softmax Mlp."""

    def __init__(self, n_features: int, n_classes: int):
        if n_classes < 2:
            raise InvalidArgumentError("need at least 2 classes")
        super().__init__([n_features, n_classes])


class QuadraticBowl(Model):
    """Deterministic objective 0.5 * theta^T A theta; ignores the batch."""

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
        return float(0.5 * self.params @ self.matrix @ self.params)

    def gradient(self, x=None, y=None):
        return self.matrix @ self.params
