"""Run orchestration: wire config pieces together and drive the step loop."""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from .datasets import Dataset, kind_args, make_dataset, seeded_stream
from .engine import TrainingEngine
from .errors import InvalidArgumentError
from .models import (
    BLOCK_ELEMENTS,
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
from .tuner import LearningRateTuner, StepOutcome, TunerConfig

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


def _build_mlp(dataset: Dataset, rng: np.random.Generator, hidden=(32,)) -> Model:
    """An Mlp for the dataset's task: one output per class, or one for any other task,
    which it trains as regression; `TrainingEngine` rejects a task it cannot train."""
    if dataset.task == TASK_CLASSIFICATION:
        return Mlp([dataset.n_features, *hidden, dataset.num_classes], rng=rng)
    return Mlp([dataset.n_features, *hidden, 1], task=TASK_REGRESSION, rng=rng)


# Model factories take the dataset and the init generator before the spec's arguments.
MODELS = {
    "linreg": (lambda dataset, rng: LinearRegression(dataset.n_features), {}),
    "logreg": (lambda dataset, rng: LogisticRegression(dataset.n_features, dataset.num_classes), {}),
    "mlp": (_build_mlp, {"hidden": [int]}),
    "bowl": (lambda dataset, rng, matrix, theta0=None: QuadraticBowl(matrix, theta0),
             {"diag": ("matrix", [float]), "matrix": [[float]], "theta0": [float]}),
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
    """Factory and arguments of an lr_policy: a tuner, or a schedule by its variant."""
    kind = policy.get("kind") if type(policy) is dict else None
    if kind == "tuner":
        return kind_args("lr_policy", policy, LR_POLICIES)
    if kind != "schedule" or policy.get("variant") == "tuner":
        raise InvalidArgumentError("lr_policy must have kind 'tuner', or kind 'schedule' and a schedule variant")
    return kind_args("lr_policy", policy, LR_POLICIES, "variant", kind=str)


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


def schedule_from_policy(policy: dict[str, Any], total_steps: int, batches_per_epoch: int) -> ScheduleSpec:
    """ScheduleSpec from a schedule lr_policy; epoch keys are rounded to whole steps.

    Every step boundary must lie inside the run, after step 0 and before ``total_steps``,
    and a warmup must leave the run at least two steps: the first after it is at the peak lr.
    """
    factory, args = policy_args(policy)
    if "warmup_epochs" in policy:
        if args["warmup_steps"] < 0:  # a small negative count of epochs rounds to 0 steps
            raise InvalidArgumentError("warmup_epochs must be nonnegative")
        args["warmup_steps"] = round(args["warmup_steps"] * batches_per_epoch)
    if "boundaries_epochs" in policy:
        args["boundaries"] = tuple(round(b * batches_per_epoch) for b in args["boundaries"])
    if not all(0 < b < total_steps for b in args.get("boundaries", ())):
        raise InvalidArgumentError(f"step boundaries must lie inside the run: above 0 and below its {total_steps} steps")
    spec = factory(**args)
    if getattr(spec, "warmup_steps", 0) >= total_steps - 1:
        raise InvalidArgumentError(f"a warmup of {spec.warmup_steps} steps leaves fewer than 2 of the run's "
                                   f"{total_steps}, so its lr never decays")
    return spec


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
            self.schedule = schedule_from_policy(policy, self.total_steps, self.engine.batches_per_epoch)

        self.records: list[RunRecord] = []

    def step_once(self) -> RunRecord:
        """Take the next step alone; a cohort (`_train_cohort`) takes it with the same halves,
        `open_step` and `finish_step`, around its stacked gradient, direction and commit."""
        step = len(self.records)
        x, y = self.engine.batch_for_step(step)
        if self.tuner is not None:
            return self.record_step(self.tuner.run_step(step, x, y))
        outcome = self.open_step(step)
        train_loss, grads = self.engine.loss_and_gradient(x, y)
        pending = self.optimizer.compute_direction(self.model.params, grads)
        self.engine.commit(self.optimizer, pending, self.finish_step(outcome, train_loss, pending.direction).lr)
        return self.record_step(outcome)

    def open_step(self, step: int) -> StepOutcome:
        """A step's first half, before its gradient: the tuner's `close_window`; or the
        schedule's lr, with its momentum set on the optimizer."""
        if self.tuner is not None:
            return self.tuner.close_window(step)
        mom = momentum_at(self.schedule, step, self.total_steps)
        if mom is not None:  # RunConfig accepts momentum_range only for the momentum optimizer
            self.optimizer.mu = mom
        return StepOutcome(step, [], lr_at(self.schedule, step, self.total_steps))

    def finish_step(self, outcome: StepOutcome, train_loss: float, direction: np.ndarray) -> StepOutcome:
        """A step's second half, before its commit at ``outcome.lr``: the tuner's `finish_step`."""
        if self.tuner is not None:
            return self.tuner.finish_step(outcome, train_loss, direction)
        outcome.train_loss = train_loss
        return outcome

    def record_step(self, outcome: StepOutcome) -> RunRecord:
        """Evaluate when the step is due to, after its commit, and record it."""
        step = outcome.step
        test_loss = test_acc = None
        if (step + 1) % self.eval_every == 0 or step == self.total_steps - 1:
            test_loss, test_acc = self.engine.test_metrics()
        probe_fwd = self.records[-1].probe_fwd if self.records else 0
        if outcome.probe is not None:
            probe_fwd += outcome.probe.forward_passes
        record = RunRecord(
            step=step,
            epoch=step // self.engine.batches_per_epoch,
            lr=outcome.lr,
            train_loss=outcome.train_loss,
            superbatch_loss=outcome.superbatch_loss,
            test_loss=test_loss,
            test_acc=test_acc,
            probe_fwd=probe_fwd,
            event=";".join(outcome.events),
        )
        self.records.append(record)
        return record

    def advance_to(self, step: int) -> None:
        """Train up to ``step``. A diverging step overflows; the non-finite gradient check
        ends the run, so numpy's warnings on the way there are not printed."""
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self.records) < step:
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


class _Cohort:
    """Seeds that step in lockstep: their params are the rows of one stacked model
    (`Model.stack`), and their optimizer buffers the rows of one stacked optimizer
    (`Optimizer.stack`)."""

    def __init__(self, runs: list[TrainingRun]):
        self.runs = runs
        self.model = type(runs[0].model).stack([run.model for run in runs])
        self.optimizer = type(runs[0].optimizer).stack([run.optimizer for run in runs])

    def step(self, step: int, dataset: Dataset) -> None:
        """Every seed's step: each seed's `open_step`, one stacked gradient and direction at the
        params those leave, each seed's `finish_step` along its row, one commit of the stack at
        the seeds' lrs, and each seed's `record_step`, which evaluates its committed params."""
        rows = np.array([run.engine.rows_for_step(step) for run in self.runs])
        xs, ys = dataset.train_x[rows], dataset.train_y[rows]
        outcomes = [run.open_step(step) for run in self.runs]
        losses, grads = self.model.loss_and_gradient(xs, ys)
        pending = self.optimizer.compute_direction(self.model.params, grads)
        lrs = [_finish_step(*args) for args in zip(self.runs, outcomes, losses.tolist(), pending.direction)]
        self.optimizer.commit_step(self.model.params, lrs, pending)
        for run, outcome in zip(self.runs, outcomes):
            run.record_step(outcome)


def _finish_step(run: TrainingRun, outcome: StepOutcome, loss: float, direction: np.ndarray) -> float:
    """A cohort seed's `finish_step` with its share of the stacked result; returns its lr."""
    run.engine.count_training_pass()
    return run.finish_step(outcome, loss, direction).lr


def _train_cohort(
    cfg: RunConfig, seeds: list[int], dataset: Dataset
) -> tuple[list[TrainingRun], Optional[Exception]]:
    """Train the next cohort of `seeds`, taken off the front of the list, in lockstep.

    Its first seed is built and takes its first step; each later seed does the
    same while the cohort holds fewer than `BLOCK_ELEMENTS // parameters`
    seeds. A cohort of one trains with `TrainingRun.run`, unstacked: as a
    stack of one, `wide_probe` read a larger peak RSS, more page faults and
    a lower median step rate. A larger one takes every later step with
    `_Cohort.step`. If a step raises, the cohort is dropped and its seeds
    train again one after another with `TrainingRun.run` up to the first
    that raises, as if they had never stacked; if every seed finishes, the
    cohort's own error is raised. Returns the seeds that finished, in config
    order, and the earliest error.
    """
    first = TrainingRun(cfg, seeds.pop(0), dataset)
    first.advance_to(1)
    size = BLOCK_ELEMENTS // first.model.params.size
    runs, error = [first], None
    while seeds and len(runs) < size:
        try:
            run = TrainingRun(cfg, seeds.pop(0), dataset)
            run.advance_to(1)
        except Exception as exc:
            error = exc
            break
        runs.append(run)
    if len(runs) == 1:
        first.run()
        return runs, error
    cohort = _Cohort(runs)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as in advance_to
            for step in range(1, first.total_steps):
                cohort.step(step, dataset)
    except Exception as exc:
        # Train the seeds again in turn, holding no run of the cohort in a local or a traceback's frame.
        replay, runs = [run.seed for run in runs], []
        del first, run, cohort, error
        traceback.clear_frames(exc.__traceback__)
        for seed in replay:
            try:
                run = TrainingRun(cfg, seed, dataset)
                run.run()
            except Exception as error:
                return runs, error
            runs.append(run)
        raise  # every seed finished: a fault of the cohort alone
    return runs, error


def run_all_seeds(
    cfg: RunConfig, on_trace: Optional[Callable[[int, list[RunRecord]], None]] = None
) -> tuple[dict[int, list[RunRecord]], dict[str, Any]]:
    """Run every configured seed on one dataset; returns traces plus the cross-seed summary.

    The seeds train in cohorts (`_train_cohort`), in config order, each with
    the bits of its run alone. A 4-seed `[128, 128]` moons command (17154
    parameters a seed) trains a cohort of 3, then one of 1; `wide_probe`
    (67074, over `BLOCK_ELEMENTS`) and a single-seed command train cohorts of
    one. The first seed is built and takes its first step before any other
    seed is built.

    With `on_trace`, each seed's records go to `on_trace(seed, records)` when
    its cohort ends (in config order) and are not kept, so the returned
    traces are empty. A seed that raises ends the command as it would had the
    seeds run one after another: the seeds before it end and pass their
    records on, and its error is raised.
    """
    traces: dict[int, list[RunRecord]] = {}
    per_seed: list[dict[str, Any]] = []
    keep = on_trace or traces.__setitem__
    dataset = make_dataset(cfg.dataset)
    seeds = list(cfg.seeds)
    while seeds:
        runs, error = _train_cohort(cfg, seeds, dataset)
        for run in runs:
            keep(run.seed, run.records)
            per_seed.append(run.summary())
        if error is not None:
            raise error
        del runs, run  # so the next cohort trains without this one's models, buffers and records
    summary = {
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "aggregate": aggregate_summaries(per_seed),
    }
    return traces, summary
