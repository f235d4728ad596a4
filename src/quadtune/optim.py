"""Optimizers that expose their step direction before committing a step.

Every optimizer follows the same two-phase protocol: ``compute_direction``
returns the direction ``d`` (the canonical update is ``theta <- theta - lr*d``)
together with the post-update internal state, without mutating anything;
``commit_step`` applies it to the parameters in place. This lets callers probe
losses at perturbed step sizes along ``d`` and only then decide the learning
rate. ``d`` may share memory with the gradient or an optimizer buffer, so
nothing writes into it; for a stack of optimizers (`Optimizer.stack`) ``d``
holds one row per seed, and a seed probes along its row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, QuadtuneError


@dataclass
class PendingStep:
    """Direction plus the not-yet-committed optimizer internals for one step."""

    direction: np.ndarray
    token: list[int]  # each seed's step_count when the direction was computed
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class Snapshot:
    """Full restore point: parameters, optimizer state, lr, step index, RNG position."""

    params: np.ndarray
    opt_state: dict[str, Any]  # the optimizer's "kind", "step_count" and a copy of its "buffers"
    lr: float
    step_index: int
    rng_cursor: Any = None


class Optimizer:
    """Base class implementing the compute/commit protocol, for one optimizer or a stack (`stack`)."""

    # The optimizer's state, copied by snapshots; a direction's payload holds the ones it updates.
    BUFFERS: tuple[str, ...] = ()
    decoupled_decay = False  # True: weight decay is applied at commit, not folded into the gradient
    seeds: Optional[list[Optimizer]] = None  # a stack's optimizers, one per seed (`stack`)

    def __init__(self, weight_decay: float = 0.0):
        if weight_decay < 0.0:
            raise InvalidArgumentError("weight_decay must be nonnegative")
        self.weight_decay = float(weight_decay)
        self.step_count = 0

    @classmethod
    def stack(cls, optimizers: list[Optimizer]) -> Optimizer:
        """One optimizer over the seeds of a `Model.stack`: optimizers of one config that have all
        stepped, or none has.

        Its array buffers are the optimizers' buffers as rows of one seeds x
        parameters array, and each optimizer's buffer becomes its row, as
        `Model.stack` binds params. It reads each seed's step count and
        momentum from the seed's optimizer; its commit takes one lr per seed,
        binds the next buffers, each seed to its row of them, and counts a
        step for every seed. The update rules are elementwise, so each seed's
        row has the bits of its own calls.
        """
        stacked = copy.copy(optimizers[0])
        stacked.seeds = list(optimizers)
        for name in cls.BUFFERS:
            held = [getattr(optimizer, name) for optimizer in optimizers]
            if isinstance(held[0], np.ndarray):
                stacked._bind(name, np.array(held))
        return stacked

    def _bind(self, name: str, value: np.ndarray) -> None:
        """Make ``value`` the buffer ``name``; for a stack, each of its rows that buffer of its seed."""
        setattr(self, name, value)
        for seed, row in zip(self.seeds or (), value):
            setattr(seed, name, row)

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
        return PendingStep(direction=direction, token=self._step_counts(), payload=payload)

    def commit_step(self, params: np.ndarray, lr: float | list[float], pending: PendingStep) -> None:
        """Apply the pending step at learning rate lr, a list of one per seed for a stack, to
        params (a float64 array), in place, and take its buffers without a copy (`_bind`)."""
        if (min(lr) if isinstance(lr, list) else lr) <= 0.0:
            raise InvalidArgumentError("lr must be positive")
        if isinstance(lr, list):
            lr = _common_or_column(lr)
        if pending.token != self._step_counts():
            raise QuadtuneError("pending step does not match the optimizer's committed state")
        # Decoupled decay reads the pre-step params; a zero decay would turn a -0.0 parameter into +0.0.
        decay = lr * self.weight_decay * params if self.decoupled_decay and self.weight_decay else None
        params -= lr * pending.direction
        if decay is not None:
            params -= decay
        for name, value in pending.payload.items():
            self._bind(name, value)
        for seed in self.seeds or [self]:
            seed.step_count += 1

    def _step_counts(self) -> list[int]:
        return [seed.step_count for seed in self.seeds or [self]]

    def _per_seed(self, value: Callable[[Optimizer], float]):
        """The seeds' values (``value(self)`` alone) as `_common_or_column` gives them."""
        return _common_or_column([value(seed) for seed in self.seeds or [self]])

    def _direction(self, params: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, dict]:
        raise NotImplementedError


def _common_or_column(values: list[float]):
    """The seeds' common value, or a column of their values when they differ."""
    return values[0] if values.count(values[0]) == len(values) else np.array(values)[:, None]


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
        v_next = self._per_seed(lambda seed: seed.mu) * v + grads
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
        if eps_stab <= 0.0:  # 0 makes the direction of a zero gradient 0/0
            raise InvalidArgumentError("eps_stab must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps_stab = float(eps_stab)
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    def _direction(self, params, grads):
        m = self.m if self.m is not None else np.zeros_like(params)
        v = self.v if self.v is not None else np.zeros_like(params)
        m_next = self.beta1 * m + (1.0 - self.beta1) * grads
        v_next = self.beta2 * v + (1.0 - self.beta2) * grads * grads
        # Bias corrections as Python floats: numpy's power need not round as pow does.
        m_hat = m_next / self._per_seed(lambda seed: 1.0 - self.beta1 ** (seed.step_count + 1))
        v_hat = v_next / self._per_seed(lambda seed: 1.0 - self.beta2 ** (seed.step_count + 1))
        d = m_hat / (np.sqrt(v_hat) + self.eps_stab)
        return d, {"m": m_next, "v": v_next}


class AdamW(Adam):
    """Adam with decoupled weight decay applied at commit time, not in d."""

    decoupled_decay = True


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
        opt_state={
            "kind": type(optimizer).__name__,
            "step_count": optimizer.step_count,
            "buffers": copy.deepcopy({name: getattr(optimizer, name) for name in optimizer.BUFFERS}),
        },
        lr=float(lr),
        step_index=int(step_index),
        rng_cursor=rng_cursor,
    )


def restore_snapshot(snapshot: Snapshot, params: np.ndarray, optimizer: Optimizer) -> None:
    """Restore parameters and optimizer state from a snapshot of the same parameter shape
    and optimizer kind.

    The parameters and every array buffer (which has the parameters' shape)
    are written in place, so a seed's row of a stack stays bound to it; other
    state, such as `Momentum.mu` and the step count, is set.
    """
    state = snapshot.opt_state
    if snapshot.params.shape != params.shape:
        raise QuadtuneError("snapshot parameter shape does not match the model")
    if state["kind"] != type(optimizer).__name__:
        raise QuadtuneError(f"snapshot for {state['kind']} cannot restore a {type(optimizer).__name__}")
    params[:] = snapshot.params
    optimizer.step_count = state["step_count"]
    for name, value in state["buffers"].items():
        held = getattr(optimizer, name)
        if isinstance(held, np.ndarray) and isinstance(value, np.ndarray):
            held[...] = value
        else:
            setattr(optimizer, name, copy.copy(value))
