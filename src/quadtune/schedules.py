"""Closed-form baseline learning-rate schedules and the LR range test."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Union

from .engine import TrainingEngine
from .errors import InvalidArgumentError, QuadtuneError
from .optim import Optimizer

_FRACTION_TOL = 1e-9

# LR range test settings; see lr_range_test.
RANGE_TEST_SMOOTHING = 0.98
RANGE_TEST_EXPLOSION_FACTOR = 4.0
RANGE_TEST_SUGGESTION_DIV = 10.0


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise InvalidArgumentError(f"{name} must be positive")


def _check_fractions(kind: str, *fracs: float) -> None:
    if min(fracs) < 0.0 or abs(sum(fracs) - 1.0) > _FRACTION_TOL:
        raise InvalidArgumentError(f"{kind} fractions must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Constant:
    lr: float

    def __post_init__(self):
        _check_positive("lr", self.lr)


@dataclass(frozen=True)
class StepSchedule:
    """Piecewise-constant lrs; boundaries are the step indices where lr drops."""

    lrs: tuple[float, ...]
    boundaries: tuple[int, ...]

    def __post_init__(self):
        if len(self.boundaries) != len(self.lrs) - 1:
            raise InvalidArgumentError("need exactly len(lrs) - 1 boundaries")
        if not all(lr > 0.0 for lr in self.lrs):
            raise InvalidArgumentError("step lrs must be positive")
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise InvalidArgumentError("boundaries must be strictly increasing")


@dataclass(frozen=True)
class _Decay:
    """Linear warmup to seed_lr, then a decay to zero at the end of the run."""

    seed_lr: float
    warmup_steps: int = 0

    def __post_init__(self):
        _check_positive("seed_lr", self.seed_lr)
        if self.warmup_steps < 0:
            raise InvalidArgumentError("warmup_steps must be nonnegative")


class CosineDecay(_Decay):
    """Half a cosine from seed_lr down to zero."""


class LinearDecay(_Decay):
    """A straight line from seed_lr down to zero."""


@dataclass(frozen=True)
class InverseSqrt:
    peak_lr: float
    warmup_steps: int = 1
    floor_lr: float = 0.0

    def __post_init__(self):
        _check_positive("peak_lr", self.peak_lr)
        if self.warmup_steps < 1:
            raise InvalidArgumentError("inverse-sqrt decay requires warmup_steps >= 1")


@dataclass(frozen=True)
class OneCycle:
    """Linear ramp max/div -> max -> max/div, then a final linear drop by final_div."""

    max_lr: float
    div_factor: float = 10.0
    final_div: float = 10.0
    up_frac: float = 0.45
    down_frac: float = 0.45
    final_frac: float = 0.10
    momentum_range: Optional[tuple[float, float]] = None  # (max_momentum, min_momentum)

    def __post_init__(self):
        _check_positive("max_lr", self.max_lr)
        _check_fractions("one-cycle", self.up_frac, self.down_frac, self.final_frac)
        if not (self.div_factor > 0.0 and self.final_div > 0.0):
            raise InvalidArgumentError("one-cycle div_factor and final_div must be positive")
        mr = self.momentum_range
        if mr is not None and (len(mr) != 2 or not all(0.0 <= m < 1.0 for m in mr)):
            raise InvalidArgumentError("momentum_range must be (max_momentum, min_momentum), each in [0, 1)")


@dataclass(frozen=True)
class Trapezoid:
    """Linear warmup to max, long flat top, linear decay to zero."""

    max_lr: float
    warm_frac: float = 0.10
    flat_frac: float = 0.80
    decay_frac: float = 0.10

    def __post_init__(self):
        _check_positive("max_lr", self.max_lr)
        _check_fractions("trapezoid", self.warm_frac, self.flat_frac, self.decay_frac)


ScheduleSpec = Union[Constant, StepSchedule, CosineDecay, LinearDecay, InverseSqrt, OneCycle, Trapezoid]


def _warmup_lr(step: int, warmup_steps: int, peak: float) -> float:
    # First step gets peak/warmup_steps, reaching peak on the last warmup step.
    return peak * (step + 1) / warmup_steps


def _cycle(spec: OneCycle, p: float, start: float, peak: float, end: float) -> float:
    """One-cycle's linear segments at run fraction p: start -> peak, peak -> start, start -> end."""
    if p < spec.up_frac:
        return start + (peak - start) * (p / spec.up_frac)
    if p < spec.up_frac + spec.down_frac:
        return peak - (peak - start) * ((p - spec.up_frac) / spec.down_frac)
    return start - (start - end) * ((p - spec.up_frac - spec.down_frac) / spec.final_frac)


def lr_at(spec: ScheduleSpec, step: int, total_steps: int) -> float:
    """Closed-form learning rate at a step index in [0, total_steps)."""
    if not 0 <= step < total_steps:
        raise InvalidArgumentError("step out of range")

    if isinstance(spec, Constant):
        return spec.lr

    if isinstance(spec, StepSchedule):
        return spec.lrs[bisect.bisect_right(spec.boundaries, step)]

    if isinstance(spec, (CosineDecay, LinearDecay)):
        w = spec.warmup_steps
        if step < w:
            return _warmup_lr(step, w, spec.seed_lr)
        progress = (step - w) / (total_steps - w)
        if isinstance(spec, CosineDecay):
            return spec.seed_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
        return spec.seed_lr * (1.0 - progress)

    if isinstance(spec, InverseSqrt):
        if step < spec.warmup_steps:
            return _warmup_lr(step, spec.warmup_steps, spec.peak_lr)
        return max(spec.peak_lr * math.sqrt(spec.warmup_steps / step), spec.floor_lr)

    if isinstance(spec, OneCycle):
        start = spec.max_lr / spec.div_factor
        return _cycle(spec, step / total_steps, start, spec.max_lr, start / spec.final_div)

    if isinstance(spec, Trapezoid):
        warm_steps = max(1, round(spec.warm_frac * total_steps))
        decay_steps = max(1, round(spec.decay_frac * total_steps))
        if step < warm_steps:
            return _warmup_lr(step, warm_steps, spec.max_lr)
        if step < total_steps - decay_steps:
            return spec.max_lr
        return spec.max_lr * (total_steps - step) / decay_steps

    raise InvalidArgumentError(f"unknown schedule spec {type(spec).__name__}")


def momentum_at(spec: ScheduleSpec, step: int, total_steps: int) -> Optional[float]:
    """Cycled momentum for one-cycle runs: low when lr is high, and vice versa."""
    if not isinstance(spec, OneCycle) or spec.momentum_range is None:
        return None
    max_m, min_m = spec.momentum_range
    return _cycle(spec, step / total_steps, max_m, min_m, max_m)


@dataclass
class RangeTestResult:
    curve: list[tuple[float, float]]  # (lr, smoothed loss)
    suggested_max_lr: float
    exploded_at_lr: Optional[float]


def lr_range_test(
    engine: TrainingEngine,
    optimizer: Optimizer,
    lr_min: float,
    lr_max: float,
    steps: int,
) -> RangeTestResult:
    """Ramp lr exponentially from lr_min to lr_max, stopping once the loss explodes.

    The curve records exponentially smoothed loss per lr; training stops when
    the smoothed loss exceeds RANGE_TEST_EXPLOSION_FACTOR times the best
    smoothed loss seen so far. The suggested maximum lr is the lr at the
    smoothed-loss minimum divided by RANGE_TEST_SUGGESTION_DIV.
    """
    if not 0.0 < lr_min < lr_max < math.inf:
        raise InvalidArgumentError("need 0 < lr_min < lr_max < inf")
    if steps < 2:
        raise InvalidArgumentError("steps must be >= 2")

    ratio = lr_max / lr_min
    curve: list[tuple[float, float]] = []
    smoothed = None
    best = math.inf
    exploded_at = None

    for i in range(steps):
        lr = lr_min * ratio ** (i / (steps - 1))
        x, y = engine.batch_for_step(i)
        loss, grads = engine.loss_and_gradient(x, y)
        if math.isfinite(loss):
            smoothed = loss if smoothed is None else RANGE_TEST_SMOOTHING * smoothed + (1.0 - RANGE_TEST_SMOOTHING) * loss
            curve.append((lr, smoothed))
        if not math.isfinite(loss) or smoothed > RANGE_TEST_EXPLOSION_FACTOR * best:
            if i <= 1:
                raise QuadtuneError("loss diverged immediately; use a smaller lr_min")
            exploded_at = lr
            break
        best = min(best, smoothed)
        pending = optimizer.compute_direction(engine.model.params, grads)
        engine.commit(optimizer, pending, lr)

    best_lr = min(curve, key=lambda pair: pair[1])[0]
    return RangeTestResult(curve, suggested_max_lr=best_lr / RANGE_TEST_SUGGESTION_DIV, exploded_at_lr=exploded_at)
