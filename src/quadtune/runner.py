"""Run orchestration: wire config pieces together and drive the step loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from .datasets import Dataset, make_dataset, spec_kwargs
from .engine import RngStream, TrainingEngine
from .errors import ConfigError, InvalidArgumentError
from .models import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    LinearRegression,
    LogisticRegression,
    Mlp,
    Model,
    QuadraticBowl,
)
from .optim import Adam, AdamW, Momentum, Sgd
from .schedules import (
    Constant,
    CosineDecay,
    InverseSqrt,
    LinearDecay,
    OneCycle,
    ScheduleSpec,
    StepSchedule,
    Trapezoid,
    lr_at,
    momentum_at,
)
from .stats import summarize
from .tuner import LearningRateTuner, TunerConfig

if TYPE_CHECKING:
    from .config import RunConfig

@dataclass
class RunRecord:
    """One per-step log row of a training trace."""

    step: int
    epoch: int
    lr: float
    train_loss: float
    superbatch_loss: Optional[float]
    test_loss: Optional[float]
    test_acc: Optional[float]
    probe_fwd: int
    event: str  # ";"-joined tags, in the order they happened

    def to_csv_row(self) -> list[str]:
        return [_fmt(getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def _fmt(value) -> str:
    """CSV cell: blank for None, repr for floats so values round-trip exactly."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _build_logreg(spec: dict[str, Any], dataset: Dataset, rng: np.random.Generator) -> Model:
    if dataset.num_classes is None:
        raise ConfigError("logreg model requires a classification dataset")
    return LogisticRegression(dataset.n_features, dataset.num_classes)


def _build_mlp(spec: dict[str, Any], dataset: Dataset, rng: np.random.Generator) -> Model:
    hidden = [int(h) for h in spec.get("hidden", [32])]
    task = spec.get("task") or dataset.task
    if task == TASK_CLASSIFICATION:
        if dataset.num_classes is None:
            raise ConfigError("classification mlp requires a classification dataset")
        sizes = [dataset.n_features] + hidden + [dataset.num_classes]
    elif task == TASK_REGRESSION:
        sizes = [dataset.n_features] + hidden + [1]
    else:
        raise ConfigError(f"mlp cannot train on task {task!r}")
    return Mlp(sizes, task=task, rng=rng)


def _build_bowl(spec: dict[str, Any], dataset: Dataset, rng: np.random.Generator) -> Model:
    matrix = spec.get("matrix", spec.get("diag"))
    if matrix is None:
        raise ConfigError("bowl model requires 'matrix' or 'diag'")
    return QuadraticBowl(np.asarray(matrix, dtype=np.float64), theta0=spec.get("theta0"))


MODELS = {
    "linreg": lambda spec, dataset, rng: LinearRegression(dataset.n_features),
    "logreg": _build_logreg,
    "mlp": _build_mlp,
    "bowl": _build_bowl,
}


_ADAM_KEYS = dict(beta1=float, beta2=float, eps_stab=float, weight_decay=float)

OPTIMIZERS = {
    "sgd": lambda spec: Sgd(**spec_kwargs(spec, weight_decay=float)),
    "momentum": lambda spec: Momentum(**spec_kwargs(spec, momentum=("mu", float), weight_decay=float)),
    "adam": lambda spec: Adam(**spec_kwargs(spec, **_ADAM_KEYS)),
    "adamw": lambda spec: AdamW(**spec_kwargs(spec, **_ADAM_KEYS)),
}


def tuner_config_from_policy(policy: dict[str, Any], total_steps: int, batches_per_epoch: int) -> TunerConfig:
    """TunerConfig from an lr_policy; the explore budget is floored to whole steps.

    ``explore_steps`` wins over ``explore_epochs``, which wins over ``explore_fraction``.
    """
    explore = {}
    for key, unit in (("explore_steps", 1), ("explore_epochs", batches_per_epoch), ("explore_fraction", total_steps)):
        if key in policy:
            explore = {"explore_budget": math.floor(float(policy[key]) * unit)}
            break
    return TunerConfig(
        seed_lr=float(policy["seed_lr"]),
        total_steps=total_steps,
        **explore,
        **spec_kwargs(
            policy,
            recompute_window=int,
            superbatch_size=int,
            n_probes=int,
            epsilon_threshold=("epsilon_threshold_r", float),
            saturation_threshold=("saturation_threshold_rel", float),
            span_fraction=float,
            rollback=("rollback_enabled", bool),
            rollback_factor=float,
        ),
    )


def _warmup(policy: dict[str, Any], batches_per_epoch: int) -> dict[str, int]:
    if "warmup_epochs" in policy:
        return {"warmup_steps": int(round(float(policy["warmup_epochs"]) * batches_per_epoch))}
    return spec_kwargs(policy, warmup_steps=int)


def _step_schedule(policy: dict[str, Any], batches_per_epoch: int) -> StepSchedule:
    if "boundaries_epochs" in policy:
        boundaries = tuple(int(round(float(b) * batches_per_epoch)) for b in policy["boundaries_epochs"])
    else:
        boundaries = tuple(int(b) for b in policy["boundaries"])
    return StepSchedule(lrs=tuple(float(v) for v in policy["lrs"]), boundaries=boundaries)


def _inverse_sqrt(policy: dict[str, Any], batches_per_epoch: int) -> InverseSqrt:
    warmup = _warmup(policy, batches_per_epoch).get("warmup_steps", 1)
    return InverseSqrt(
        peak_lr=float(policy["peak_lr"]), warmup_steps=max(1, warmup), **spec_kwargs(policy, floor_lr=float)
    )


def _one_cycle(policy: dict[str, Any], batches_per_epoch: int) -> OneCycle:
    momentum_range = policy.get("momentum_range")
    return OneCycle(
        max_lr=float(policy["max_lr"]),
        momentum_range=tuple(momentum_range) if momentum_range else None,
        **spec_kwargs(policy, div_factor=float, final_div=float, up_frac=float, down_frac=float, final_frac=float),
    )


SCHEDULES = {
    "constant": lambda policy, bpe: Constant(lr=float(policy["lr"])),
    "step": _step_schedule,
    "cosine": lambda policy, bpe: CosineDecay(seed_lr=float(policy["seed_lr"]), **_warmup(policy, bpe)),
    "linear": lambda policy, bpe: LinearDecay(seed_lr=float(policy["seed_lr"]), **_warmup(policy, bpe)),
    "inverse_sqrt": _inverse_sqrt,
    "one_cycle": _one_cycle,
    "trapezoid": lambda policy, bpe: Trapezoid(
        max_lr=float(policy["max_lr"]), **spec_kwargs(policy, warm_frac=float, flat_frac=float, decay_frac=float)
    ),
}


def schedule_from_policy(policy: dict[str, Any], batches_per_epoch: int) -> ScheduleSpec:
    return SCHEDULES[policy["variant"]](policy, batches_per_epoch)


class TrainingRun:
    """One seeded training run: builds all components and steps to completion."""

    def __init__(self, cfg: RunConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        self.dataset = make_dataset(cfg.dataset)
        minibatch_size = int(cfg.optimizer.get("minibatch_size", 32))
        init_stream = RngStream(self.seed, "init")
        self.model = MODELS[cfg.model["kind"]](cfg.model, self.dataset, init_stream.generator)
        self.engine = TrainingEngine(self.model, self.dataset, minibatch_size, self.seed)
        self.optimizer = OPTIMIZERS[cfg.optimizer["kind"]](cfg.optimizer)
        self.total_steps = cfg.epochs * self.engine.batches_per_epoch
        if self.total_steps < 1:
            raise InvalidArgumentError("run has no steps; dataset smaller than one minibatch?")
        self.eval_every = cfg.eval_every or self.engine.batches_per_epoch

        policy = cfg.lr_policy
        self.tuner: Optional[LearningRateTuner] = None
        self.schedule: Optional[ScheduleSpec] = None
        if policy["kind"] == "tuner":
            tuner_cfg = tuner_config_from_policy(policy, self.total_steps, self.engine.batches_per_epoch)
            self.tuner = LearningRateTuner(tuner_cfg, self.engine, self.optimizer)
        else:
            self.schedule = schedule_from_policy(policy, self.engine.batches_per_epoch)

        self.records: list[RunRecord] = []
        self._step = 0

    def step_once(self) -> RunRecord:
        step = self._step
        x, y = self.engine.batch_for_step(step)
        if self.tuner is not None:
            outcome = self.tuner.run_step(step, x, y)
            lr = outcome.lr
            train_loss = outcome.train_loss
            sb_loss = outcome.superbatch_loss
            event = ";".join(outcome.events)
            probe_fwd = self.tuner.state.counters.probe_forward_passes
        else:
            lr = lr_at(self.schedule, step, self.total_steps)
            mom = momentum_at(self.schedule, step, self.total_steps)
            if mom is not None and isinstance(self.optimizer, Momentum):
                self.optimizer.mu = mom
            train_loss, grads = self.engine.loss_and_gradient(x, y)
            pending = self.optimizer.compute_direction(self.model.params, grads)
            self.engine.commit(self.optimizer, pending, lr)
            sb_loss, event, probe_fwd = None, "", 0

        test_loss = test_acc = None
        if (step + 1) % self.eval_every == 0 or step == self.total_steps - 1:
            test_loss, test_acc = self.engine.test_metrics()

        record = RunRecord(
            step=step,
            epoch=step // self.engine.batches_per_epoch,
            lr=lr,
            train_loss=train_loss,
            superbatch_loss=sb_loss,
            test_loss=test_loss,
            test_acc=test_acc,
            probe_fwd=probe_fwd,
            event=event,
        )
        self.records.append(record)
        self._step += 1
        return record

    def advance_to(self, step: int) -> None:
        while self._step < step:
            self.step_once()

    def run(self) -> list[RunRecord]:
        while self._step < self.total_steps:
            self.step_once()
        return self.records

    def summary(self) -> dict[str, Any]:
        """Final metrics for this seed; train loss is averaged over the last epoch."""
        last_epoch = self.records[-1].epoch
        last_epoch_losses = [r.train_loss for r in self.records if r.epoch == last_epoch]
        evals = [r for r in self.records if r.test_loss is not None]
        accs = [r.test_acc for r in evals if r.test_acc is not None]
        out: dict[str, Any] = {
            "seed": self.seed,
            "total_steps": self.total_steps,
            "final_lr": self.records[-1].lr,
            "final_train_loss": float(np.mean(last_epoch_losses)),
            "final_test_loss": evals[-1].test_loss if evals else None,
            "final_test_acc": evals[-1].test_acc if evals else None,
            "best_test_acc": max(accs) if accs else None,
            "engine_forward_passes": self.engine.forward_passes,
            "engine_backward_passes": self.engine.backward_passes,
        }
        if self.tuner is not None:
            out["tuner_counters"] = self.tuner.state.counters.to_dict()
        return out


_AGGREGATE_METRICS = ["final_train_loss", "final_test_loss", "final_test_acc", "best_test_acc", "final_lr"]


def aggregate_summaries(per_seed: list[dict[str, Any]]) -> dict[str, Any]:
    """Mean and population standard deviation of each metric across seeds."""
    aggregate: dict[str, Any] = {}
    for metric in _AGGREGATE_METRICS:
        values = [s[metric] for s in per_seed if s.get(metric) is not None]
        if not values:
            continue
        stats = summarize(values)
        aggregate[metric] = {"mean": stats.mean, "stddev": stats.stddev, "n": stats.n}
    return aggregate


def run_all_seeds(cfg: RunConfig) -> tuple[dict[int, list[RunRecord]], dict[str, Any]]:
    """Run every configured seed; returns traces plus the cross-seed summary."""
    traces: dict[int, list[RunRecord]] = {}
    per_seed: list[dict[str, Any]] = []
    for seed in cfg.seeds:
        run = TrainingRun(cfg, seed)
        traces[seed] = run.run()
        per_seed.append(run.summary())
    summary = {
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate_summaries(per_seed),
    }
    return traces, summary
