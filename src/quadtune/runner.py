"""Run orchestration: wire config pieces together and drive the step loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from .datasets import Dataset, kind_args, make_dataset, seeded_stream
from .engine import TrainingEngine
from .errors import InvalidArgumentError
from .models import (
    TASK_CLASSIFICATION,
    TASK_NONE,
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

@dataclass(slots=True)
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


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def _trained(dataset: Dataset, model: str, *tasks: str) -> Dataset:
    """The dataset, if its task is one that the model kind trains: the dataset decides a run's task."""
    if dataset.task not in tasks:
        raise InvalidArgumentError(f"{model} model needs a dataset of task {' or '.join(tasks)}, not {dataset.task}")
    return dataset


def _build_mlp(dataset: Dataset, rng: np.random.Generator, hidden=(32,)) -> Model:
    task = _trained(dataset, "mlp", TASK_CLASSIFICATION, TASK_REGRESSION).task
    n_out = dataset.num_classes if task == TASK_CLASSIFICATION else 1
    return Mlp([dataset.n_features, *hidden, n_out], task=task, rng=rng)


def _build_bowl(dataset: Dataset, rng: np.random.Generator, matrix, theta0=None) -> Model:
    _trained(dataset, "bowl", TASK_NONE)
    return QuadraticBowl(matrix, theta0)


# Model factories take the dataset and the init generator before the spec's arguments.
MODELS = {
    "linreg": (lambda dataset, rng: LinearRegression(_trained(dataset, "linreg", TASK_REGRESSION).n_features), {}),
    "logreg": (lambda dataset, rng: LogisticRegression(
        _trained(dataset, "logreg", TASK_CLASSIFICATION).n_features, dataset.num_classes), {}),
    "mlp": (_build_mlp, {"hidden": [int]}),
    "bowl": (_build_bowl, {"diag": ("matrix", [float]), "matrix": [[float]], "theta0": [float]}),
}

OPTIMIZERS = {
    "sgd": (Sgd, {"weight_decay": float}),
    "momentum": (Momentum, {"momentum": ("mu", float), "weight_decay": float}),
    "adam": (Adam, {"beta1": float, "beta2": float, "eps_stab": float, "weight_decay": float}),
}
OPTIMIZERS["adamw"] = (AdamW, OPTIMIZERS["adam"][1])


def optimizer_args(spec: dict[str, Any]) -> tuple:
    """Optimizer factory and arguments; ``minibatch_size`` is read by the engine."""
    return kind_args("optimizer", spec, OPTIMIZERS, minibatch_size=int)


# Keyed by "tuner" or the schedule variant. Epoch and fraction keys name the
# argument they are converted into; tuner_config_from_policy and
# schedule_from_policy convert them, and they win over the step keys.
LR_POLICIES = {
    "tuner": (TunerConfig, {
        "seed_lr": float, "explore_fraction": ("explore_budget", float),
        "explore_epochs": ("explore_budget", float), "explore_steps": ("explore_budget", int),
        "recompute_window": int, "superbatch_size": int, "n_probes": int,
        "epsilon_threshold": ("epsilon_threshold_r", float), "span_fraction": float,
        "saturation_threshold": ("saturation_threshold_rel", float),
        "rollback": ("rollback_enabled", bool), "rollback_factor": float,
    }),
    "constant": (Constant, {"lr": float}),
    "step": (StepSchedule, {"lrs": [float], "boundaries": [int], "boundaries_epochs": ("boundaries", [float])}),
    "cosine": (CosineDecay, {"seed_lr": float, "warmup_steps": int, "warmup_epochs": ("warmup_steps", float)}),
    "linear": (LinearDecay, {"seed_lr": float, "warmup_steps": int, "warmup_epochs": ("warmup_steps", float)}),
    "inverse_sqrt": (InverseSqrt, {"peak_lr": float, "warmup_steps": int, "warmup_epochs": ("warmup_steps", float),
                                   "floor_lr": float}),
    "one_cycle": (OneCycle, {"max_lr": float, "div_factor": float, "final_div": float, "up_frac": float,
                             "down_frac": float, "final_frac": float, "momentum_range": [float]}),
    "trapezoid": (Trapezoid, {"max_lr": float, "warm_frac": float, "flat_frac": float, "decay_frac": float}),
}


def policy_args(policy: dict[str, Any]) -> tuple:
    """Factory and arguments of an lr_policy: a tuner, or a schedule by its variant.

    A schedule also takes the tuner's probe settings, which quadcheck reads.
    """
    kind = policy.get("kind") if type(policy) is dict else None
    if kind == "tuner":
        return kind_args("lr_policy", policy, LR_POLICIES)
    if kind != "schedule" or policy.get("variant") == "tuner":
        raise InvalidArgumentError("lr_policy must have kind 'tuner', or kind 'schedule' and a schedule variant")
    tuner_keys = LR_POLICIES["tuner"][1]
    probe = {key: tuner_keys[key] for key in ("superbatch_size", "n_probes", "epsilon_threshold", "span_fraction")}
    return kind_args("lr_policy", policy, LR_POLICIES, "variant", kind=str, **probe)


def tuner_config_from_policy(policy: dict[str, Any], total_steps: int, batches_per_epoch: int) -> TunerConfig:
    """TunerConfig from an lr_policy; the explore budget is floored to whole steps.

    ``explore_steps`` wins over ``explore_epochs``, which wins over ``explore_fraction``.
    """
    _, args = policy_args(policy)
    for key, unit in (("explore_steps", 1), ("explore_epochs", batches_per_epoch), ("explore_fraction", total_steps)):
        if key in policy:
            args["explore_budget"] = math.floor(args["explore_budget"] * unit)
            break
    return TunerConfig(total_steps=total_steps, **args)


def schedule_from_policy(policy: dict[str, Any], batches_per_epoch: int) -> ScheduleSpec:
    """ScheduleSpec from a schedule lr_policy; epoch keys are rounded to whole steps."""
    factory, args = policy_args(policy)
    if "warmup_epochs" in policy:
        args["warmup_steps"] = round(args["warmup_steps"] * batches_per_epoch)
    if "boundaries_epochs" in policy:
        args["boundaries"] = tuple(round(b * batches_per_epoch) for b in args["boundaries"])
    return factory(**args)


class TrainingRun:
    """One seeded training run: builds all components and steps to completion.

    `dataset` is `make_dataset(cfg.dataset)`, built here when not given.
    """

    def __init__(self, cfg: RunConfig, seed: int, dataset: Optional[Dataset] = None):
        self.cfg = cfg
        self.seed = int(seed)
        self.dataset = make_dataset(cfg.dataset) if dataset is None else dataset
        factory, args = kind_args("model", cfg.model, MODELS)
        self.model = factory(self.dataset, seeded_stream(self.seed, "init"), **args)
        factory, args = optimizer_args(cfg.optimizer)
        self.optimizer = factory(**args)
        self.engine = TrainingEngine(self.model, self.dataset, cfg.optimizer.get("minibatch_size", 32), self.seed)
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
            probe_fwd = self.records[-1].probe_fwd if self.records else 0
            if outcome.probe is not None:
                probe_fwd += outcome.probe.forward_passes
        else:
            lr = lr_at(self.schedule, step, self.total_steps)
            mom = momentum_at(self.schedule, step, self.total_steps)
            if mom is not None:  # RunConfig accepts momentum_range only for the momentum optimizer
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
        """Train up to ``step``. A diverging step overflows; the non-finite gradient check
        ends the run, so numpy's warnings on the way there are not printed."""
        with np.errstate(over="ignore", invalid="ignore"):
            while self._step < step:
                self.step_once()

    def run(self) -> list[RunRecord]:
        self.advance_to(self.total_steps)
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


def run_all_seeds(
    cfg: RunConfig, on_trace: Optional[Callable[[int, list[RunRecord]], None]] = None
) -> tuple[dict[int, list[RunRecord]], dict[str, Any]]:
    """Run every configured seed on one dataset; returns traces plus the cross-seed summary.

    With `on_trace`, each seed's records go to `on_trace(seed, records)` when
    that seed ends and are not kept, so the returned traces are empty.
    """
    traces: dict[int, list[RunRecord]] = {}
    per_seed: list[dict[str, Any]] = []
    keep = on_trace or traces.__setitem__
    dataset = make_dataset(cfg.dataset)
    for seed in cfg.seeds:
        run = TrainingRun(cfg, seed, dataset)
        keep(seed, run.run())
        per_seed.append(run.summary())
    summary = {
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate_summaries(per_seed),
    }
    return traces, summary
