"""Models with flat parameter vectors and exact analytic gradients.

All models store their parameters in one flat float64 array (``params``) and
implement mean per-example loss plus its exact gradient: squared error / 2
for regression, softmax cross-entropy for classification. The quadratic bowl
is a data-free objective on the parameters themselves, used as an analytic
oracle in tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InvalidArgumentError

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"
TASK_NONE = "none"


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(log_z - picked))


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

    def _forward(self, x):
        activations = [x]
        pre = []
        a = x
        layers = self._layers()
        for i, (w, b) in enumerate(layers):
            z = a @ w + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
            activations.append(a)
        return activations, pre

    def logits(self, x):
        activations, _ = self._forward(x)
        return activations[-1]

    def predict(self, x):
        out = self.logits(x)
        if self.task == TASK_CLASSIFICATION:
            return out.argmax(axis=1)
        return out[:, 0] if out.ndim == 2 and out.shape[1] == 1 else out

    def loss(self, x, y):
        out = self.logits(x)
        if self.task == TASK_CLASSIFICATION:
            return _cross_entropy(out, y)
        pred = out[:, 0]
        r = pred - y
        return float(np.mean(0.5 * r * r))

    def gradient(self, x, y):
        n = x.shape[0]
        activations, pre = self._forward(x)
        out = activations[-1]
        if self.task == TASK_CLASSIFICATION:
            delta = _softmax(out)
            delta[np.arange(n), y] -= 1.0
            delta /= n
        else:
            delta = (out[:, 0] - y).reshape(-1, 1) / n
        grad = np.zeros_like(self.params)
        layers = self._layers()
        offset = len(self.params)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            a_prev = activations[i]
            gw = a_prev.T @ delta
            gb = delta.sum(axis=0)
            fan_in, fan_out = self._shapes[i]
            offset -= fan_out
            grad[offset : offset + fan_out] = gb
            offset -= fan_in * fan_out
            grad[offset : offset + fan_in * fan_out] = gw.reshape(-1)
            if i > 0:
                delta = (delta @ w.T) * (pre[i - 1] > 0.0)
        return grad


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
