"""Optimizers that expose their step direction before committing a step.

Every optimizer follows the same two-phase protocol: ``compute_direction``
returns the direction ``d`` (the canonical update is ``theta <- theta - lr*d``)
together with the post-update internal state, without mutating anything;
``commit_step`` applies it to the parameters in place. This lets callers probe
losses at perturbed step sizes along ``d`` and only then decide the learning
rate. ``d`` may share memory with the gradient or an optimizer buffer, so
nothing writes into it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import InvalidArgumentError, QuadtuneError


@dataclass
class PendingStep:
    """Direction plus the not-yet-committed optimizer internals for one step."""

    direction: np.ndarray
    token: int  # the optimizer's step_count when the direction was computed
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class Snapshot:
    """Full restore point: parameters, optimizer state, lr, step index, RNG position."""

    params: np.ndarray
    opt_state: dict[str, Any]
    lr: float
    step_index: int
    rng_cursor: Any = None


class Optimizer:
    """Base class implementing the compute/commit protocol and snapshots."""

    # Attributes saved in snapshots; a direction's payload holds the ones it updates.
    BUFFERS: tuple[str, ...] = ()
    decoupled_decay = False  # True: weight decay is applied at commit, not folded into the gradient

    def __init__(self, weight_decay: float = 0.0):
        if weight_decay < 0.0:
            raise InvalidArgumentError("weight_decay must be nonnegative")
        self.weight_decay = float(weight_decay)
        self.step_count = 0

    def compute_direction(self, params: np.ndarray, grads: np.ndarray) -> PendingStep:
        """Direction d for update theta <- theta - lr*d, plus pending internals.

        L2 weight decay is folded into the gradient here, unless it is decoupled.
        Pure with respect to committed state: calling twice with the same
        inputs returns identical results.
        """
        grads = np.asarray(grads, dtype=np.float64)
        params = np.asarray(params, dtype=np.float64)
        if grads.shape != params.shape:
            raise InvalidArgumentError("gradient shape does not match parameters")
        if not np.isfinite(grads).all():
            raise QuadtuneError("non-finite gradient")
        if self.weight_decay and not self.decoupled_decay:
            grads = grads + self.weight_decay * params
        direction, payload = self._direction(params, grads)
        return PendingStep(direction=direction, token=self.step_count, payload=payload)

    def commit_step(self, params: np.ndarray, lr: float, pending: PendingStep) -> None:
        """Apply the pending step at learning rate lr to params (a float64 array), in place."""
        if lr <= 0.0:
            raise InvalidArgumentError("lr must be positive")
        if pending.token != self.step_count:
            raise QuadtuneError("pending step does not match the optimizer's committed state")
        self._committed_update(params, lr, pending)
        self._apply(pending.payload)
        self.step_count += 1

    def _committed_update(self, params: np.ndarray, lr: float, pending: PendingStep) -> None:
        params -= lr * pending.direction

    def _direction(self, params: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, dict]:
        raise NotImplementedError

    def _apply(self, payload: dict) -> None:
        for name, value in payload.items():
            setattr(self, name, value)

    # -- snapshot support ---------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "kind": type(self).__name__,
            "step_count": self.step_count,
            "buffers": copy.deepcopy(self._buffers()),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        if state.get("kind") != type(self).__name__:
            raise QuadtuneError(
                f"snapshot for {state.get('kind')} cannot restore a {type(self).__name__}"
            )
        self._check_buffers(state["buffers"])
        self.step_count = int(state["step_count"])
        self._apply(copy.deepcopy(state["buffers"]))

    def _buffers(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.BUFFERS}

    def _check_buffers(self, buffers: dict[str, Any]) -> None:
        for key, value in buffers.items():
            current = self._buffers().get(key)
            if isinstance(value, np.ndarray) and isinstance(current, np.ndarray):
                if value.shape != current.shape:
                    raise QuadtuneError(f"buffer {key!r} shape mismatch")


class Sgd(Optimizer):
    """Plain gradient descent."""

    def _direction(self, params, grads):
        return grads, {}


class Momentum(Optimizer):
    """Polyak heavy-ball: v' = mu*v + g, step is -lr*v'."""

    BUFFERS = ("velocity", "mu")

    def __init__(self, mu: float = 0.9, weight_decay: float = 0.0):
        super().__init__(weight_decay)
        if not 0.0 <= mu < 1.0:
            raise InvalidArgumentError("momentum mu must be in [0, 1)")
        self.mu = float(mu)
        self.velocity: Optional[np.ndarray] = None

    def _direction(self, params, grads):
        v = self.velocity if self.velocity is not None else np.zeros_like(params)
        v_next = self.mu * v + grads
        return v_next, {"velocity": v_next}


class Adam(Optimizer):
    """Adam with bias correction."""

    BUFFERS = ("m", "v")

    def __init__(
        self,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps_stab: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(weight_decay)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise InvalidArgumentError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps_stab = float(eps_stab)
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    def _direction(self, params, grads):
        m = self.m if self.m is not None else np.zeros_like(params)
        v = self.v if self.v is not None else np.zeros_like(params)
        t = self.step_count + 1
        m_next = self.beta1 * m + (1.0 - self.beta1) * grads
        v_next = self.beta2 * v + (1.0 - self.beta2) * grads * grads
        m_hat = m_next / (1.0 - self.beta1**t)
        v_hat = v_next / (1.0 - self.beta2**t)
        d = m_hat / (np.sqrt(v_hat) + self.eps_stab)
        return d, {"m": m_next, "v": v_next}


class AdamW(Adam):
    """Adam with decoupled weight decay applied at commit time, not in d."""

    decoupled_decay = True

    def _committed_update(self, params, lr, pending):
        if not self.weight_decay:  # a zero decay would turn a -0.0 parameter into +0.0
            return super()._committed_update(params, lr, pending)
        decay = lr * self.weight_decay * params  # reads the pre-step params
        super()._committed_update(params, lr, pending)
        params -= decay


def take_snapshot(
    params: np.ndarray,
    optimizer: Optimizer,
    lr: float,
    step_index: int,
    rng_cursor: Any = None,
) -> Snapshot:
    """Restore point for rollback: params and optimizer state are copied, ``rng_cursor`` is kept as given."""
    return Snapshot(
        params=np.array(params, dtype=np.float64, copy=True),
        opt_state=optimizer.state_dict(),
        lr=float(lr),
        step_index=int(step_index),
        rng_cursor=rng_cursor,
    )


def restore_snapshot(snapshot: Snapshot, params: np.ndarray, optimizer: Optimizer) -> None:
    """Restore parameters (in place) and optimizer state from a snapshot."""
    if snapshot.params.shape != params.shape:
        raise QuadtuneError("snapshot parameter shape does not match the model")
    params[:] = snapshot.params
    optimizer.load_state_dict(snapshot.opt_state)
