"""Models with flat parameter vectors and exact analytic gradients.

All models store their parameters in one flat float64 array (``params``) and
implement mean per-example loss plus its exact gradient: squared error / 2
for regression, softmax cross-entropy for classification. The quadratic bowl
is a data-free objective on the parameters themselves, used as an analytic
oracle in tests.

Superbatch losses come from `minibatch_losses`, which evaluates many
equal-size minibatches from one stacked batch. Each group's value equals
`loss` on that group alone, bit for bit, as long as the BLAS computes a row
of a matrix product the same way whatever the number of rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InvalidArgumentError

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"
TASK_NONE = "none"

# An Mlp forward over stacked minibatches runs in blocks of whole minibatches
# holding at most this many elements of the widest layer (512 KiB of float64),
# so a block's activations stay in a 2 MB L2 cache. On a 2-vCPU host, a
# [2, 256, 256, 2] superbatch of 50x32 rows took 8.5 ms as 50 forwards,
# 6.4 ms in 256-row blocks and 8.2 ms as one 1600-row stack.
BLOCK_ELEMENTS = 2**16


class Model:
    """Base: flat parameter vector plus loss/gradient over a batch."""

    task: str = TASK_NONE

    def __init__(self, n_params: int):
        self.params = np.zeros(n_params, dtype=np.float64)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self.loss(x, y), self.gradient(x, y)

    def minibatch_losses(self, x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
        """Mean loss of each consecutive `size`-row group of the batch."""
        return np.array([self.loss(x[i : i + size], y[i : i + size]) for i in range(0, len(x), size)])

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearRegression(Model):
    """y_hat = x @ w + b with loss mean(0.5 * (y_hat - y)^2)."""

    task = TASK_REGRESSION

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
        return float(np.mean(0.5 * r * r))

    def gradient(self, x, y):
        n = x.shape[0]
        r = self.predict(x) - y
        grad = np.empty_like(self.params)
        grad[: self.n_features] = x.T @ r / n
        grad[self.n_features] = r.mean()
        return grad

    def minibatch_losses(self, x, y, size):
        r = self.predict(x) - y
        return (0.5 * r * r).reshape(-1, size).mean(axis=1)


class Mlp(Model):
    """Fully connected ReLU network via manual backpropagation.

    ``layer_sizes`` includes the input and output widths, e.g. [2, 64, 32, 2].
    Classification uses softmax cross-entropy on the final linear layer;
    regression uses mean 0.5*(pred - y)^2 with a single output unit.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        task: str = TASK_CLASSIFICATION,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2:
            raise InvalidArgumentError("layer_sizes needs input and output widths")
        if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise InvalidArgumentError(f"unsupported task {task!r}")
        self.layer_sizes = list(layer_sizes)
        self.task = task
        n = sum(layer_sizes[i] * layer_sizes[i + 1] + layer_sizes[i + 1] for i in range(len(layer_sizes) - 1))
        super().__init__(n)
        self._shapes = [
            (layer_sizes[i], layer_sizes[i + 1]) for i in range(len(layer_sizes) - 1)
        ]
        if rng is not None:
            self._he_init(rng)

    def _he_init(self, rng: np.random.Generator) -> None:
        offset = 0
        for fan_in, fan_out in self._shapes:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            self.params[offset : offset + fan_in * fan_out] = w.reshape(-1)
            offset += fan_in * fan_out + fan_out  # biases stay zero

    def _layers(self):
        """Weight/bias views into the flat parameter vector."""
        out = []
        offset = 0
        for fan_in, fan_out in self._shapes:
            w = self.params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            b = self.params[offset : offset + fan_out]
            offset += fan_out
            out.append((w, b))
        return out

    def _forward(self, x, keep_inputs: bool = False):
        """Network output, plus the input of every layer when `keep_inputs`.

        Bias and ReLU are applied in place on each layer's fresh matmul result.
        """
        inputs = []
        a = x
        layers = self._layers()
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
            rows = np.log(z[:, 0]) - shifted[np.arange(n), y]
            if not with_delta:
                return rows, None
            delta = exp / z
            delta[np.arange(n), y] -= 1.0
        else:
            r = out[:, 0] - y
            rows = 0.5 * r * r
            if not with_delta:
                return rows, None
            delta = r.reshape(-1, 1)
        delta /= n
        return rows, delta

    def logits(self, x):
        return self._forward(x)[0]

    def predict(self, x):
        out = self.logits(x)
        if self.task == TASK_CLASSIFICATION:
            return out.argmax(axis=1)
        return out[:, 0] if out.ndim == 2 and out.shape[1] == 1 else out

    def loss(self, x, y):
        rows, _ = self._row_losses(self.logits(x), y)
        return float(np.mean(rows))

    def minibatch_losses(self, x, y, size):
        """One forward per block of whole minibatches (see BLOCK_ELEMENTS)."""
        block = max(1, BLOCK_ELEMENTS // (max(self.layer_sizes) * size)) * size
        losses = []
        for start in range(0, len(x), block):
            rows, _ = self._row_losses(self.logits(x[start : start + block]), y[start : start + block])
            losses.append(rows.reshape(-1, size).mean(axis=1))
        return np.concatenate(losses)

    def gradient(self, x, y):
        return self.loss_and_gradient(x, y)[1]

    def loss_and_gradient(self, x, y):
        """Loss and gradient from one forward pass."""
        out, inputs = self._forward(x, keep_inputs=True)
        rows, delta = self._row_losses(out, y, with_delta=True)
        grad = np.zeros_like(self.params)
        layers = self._layers()
        offset = len(self.params)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            gw = inputs[i].T @ delta
            gb = delta.sum(axis=0)
            fan_in, fan_out = self._shapes[i]
            offset -= fan_out
            grad[offset : offset + fan_out] = gb
            offset -= fan_in * fan_out
            grad[offset : offset + fan_in * fan_out] = gw.reshape(-1)
            if i > 0:
                delta = (delta @ w.T) * (inputs[i] > 0.0)
        return float(np.mean(rows)), grad


class LogisticRegression(Mlp):
    """Multinomial logistic regression: a one-layer, zero-initialised softmax Mlp."""

    def __init__(self, n_features: int, n_classes: int):
        if n_classes < 2:
            raise InvalidArgumentError("need at least 2 classes")
        super().__init__([n_features, n_classes])


class QuadraticBowl(Model):
    """Deterministic objective 0.5 * theta^T A theta; ignores the batch."""

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
        return float(0.5 * self.params @ self.matrix @ self.params)

    def gradient(self, x=None, y=None):
        return self.matrix @ self.params

    def predict(self, x):
        return np.zeros(len(x))
