"""Spans and work counters recorded from outside the program.

The benchmark never edits quadtune. It replaces public callables with
wrappers that record a span (name, start, end, parent) per call, keeps the
spans in memory, and puts the originals back when the traced command ends.
A callee is wrapped at the name its caller looks up: `tuner.py` imports
`take_snapshot` by name, so the wrapper must replace `quadtune.tuner.take_snapshot`;
replacing `quadtune.optim.take_snapshot` would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Model methods that each run one forward pass over their batch. Only the
# outermost of them counts: `LinearRegression.loss` calls `predict`, and
# counting both would report two forwards for one.
FORWARD_METHODS = ("loss", "gradient", "predict", "logits")


class SpanRecorder:
    """In-memory spans; index i is the i-th span opened."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{self.starts[i] - t0!r},{self.ends[i] - t0!r},{self.parents[i]}\n")


@dataclass
class SpanTotals:
    """Per-name call count, inclusive time and self time."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    durations: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return dict(out)


def span_totals(rec: SpanRecorder) -> SpanTotals:
    """Aggregate spans; a span's self time is its duration minus its children's."""
    n = len(rec.names)
    duration = [rec.ends[i] - rec.starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        parent = rec.parents[i]
        if parent >= 0:
            child_time[parent] += duration[i]
    totals = SpanTotals()
    for i, name in enumerate(rec.names):
        totals.calls[name] += 1
        totals.total_s[name] += duration[i]
        totals.self_s[name] += duration[i] - child_time[i]
        totals.durations[name].append(duration[i])
    return totals


def _matmul_flops_per_row(model) -> tuple[int, int]:
    """(forward, backward) multiply-add flops per batch row, from layer shapes.

    Backward computes the weight gradient of every layer and the input
    gradient of every layer but the first.
    """
    if hasattr(model, "layer_sizes"):
        shapes = list(zip(model.layer_sizes[:-1], model.layer_sizes[1:]))
    elif hasattr(model, "n_classes"):
        shapes = [(model.n_features, model.n_classes)]
    elif hasattr(model, "n_features"):
        shapes = [(model.n_features, 1)]
    else:
        return 0, 0
    forward = sum(2 * a * b for a, b in shapes)
    backward = forward + sum(2 * a * b for a, b in shapes[1:])
    return forward, backward


@dataclass
class ModelCounter:
    """Forward/backward work done by the model, counted at its outermost entry."""

    forward_calls: int = 0
    forward_rows: int = 0
    backward_rows: int = 0
    matmul_flops: int = 0
    _backward_calls: int = 0
    _depth: int = 0

    def _count(self, model, x, forward: bool, backward: bool) -> None:
        rows = 0 if x is None else len(x)
        forward_flops, backward_flops = _matmul_flops_per_row(model)
        if forward:
            self.forward_calls += 1
            self.forward_rows += rows
            self.matmul_flops += forward_flops * rows
        if backward:
            self._backward_calls += 1
            self.backward_rows += rows
            self.matmul_flops += backward_flops * rows

    def wrap_forward(self, rec: SpanRecorder, method: str, fn):
        backward = method == "gradient"

        @functools.wraps(fn)
        def counted(model, x=None, *args, **kwargs):
            if self._depth:
                return fn(model, x, *args, **kwargs)
            self._count(model, x, forward=True, backward=backward)
            self._depth += 1
            index = rec.open("models.forward")
            try:
                return fn(model, x, *args, **kwargs)
            finally:
                rec.close(index)
                self._depth -= 1

        return counted

    def wrap_loss_and_gradient(self, rec: SpanRecorder, fn):
        """`Model.loss_and_gradient` runs `loss` then `gradient`: two forwards,
        counted by those wrappers. An implementation that runs neither (a
        fused one) is counted here as one forward and one backward."""

        @functools.wraps(fn)
        def counted(model, x=None, *args, **kwargs):
            if self._depth:
                return fn(model, x, *args, **kwargs)
            forwards, backwards = self.forward_calls, self._backward_calls
            index = rec.open("models.loss_and_gradient")
            try:
                return fn(model, x, *args, **kwargs)
            finally:
                rec.close(index)
                self._count(
                    model,
                    x,
                    forward=self.forward_calls == forwards,
                    backward=self._backward_calls == backwards,
                )

        return counted


# Span name -> "module:attribute path" of the callee. Functions are replaced
# in the module that calls them, methods on the class that defines them.
SPANS = {
    "cli.write_trace": "quadtune.cli:write_trace",
    "cli.write_summary": "quadtune.cli:_write_json",
    "datasets.make_dataset": "quadtune.runner:make_dataset",
    "schedules.lr_at": "quadtune.runner:lr_at",
    "schedules.momentum_at": "quadtune.runner:momentum_at",
    "optim.take_snapshot": "quadtune.tuner:take_snapshot",
    "optim.restore_snapshot": "quadtune.tuner:restore_snapshot",
    "quadprobe.fit_quadratic": "quadtune.tuner:fit_quadratic",
    "quadprobe.probe_points": "quadtune.tuner:probe_points",
    "quadprobe.epsilon_bound": "quadtune.tuner:epsilon_bound",
    "quadprobe.propose_epsilon": "quadtune.tuner:propose_epsilon",
    "runner.init": "quadtune.runner:TrainingRun.__init__",
    "runner.step_once": "quadtune.runner:TrainingRun.step_once",
    "tuner.run_step": "quadtune.tuner:LearningRateTuner.run_step",
    "tuner.recompute": "quadtune.tuner:LearningRateTuner.recompute",
    "tuner.maybe_rollback": "quadtune.tuner:LearningRateTuner.maybe_rollback",
    "engine.batch_for_step": "quadtune.engine:TrainingEngine.batch_for_step",
    "engine.loss_and_gradient": "quadtune.engine:TrainingEngine.loss_and_gradient",
    "engine.superbatch_loss": "quadtune.engine:TrainingEngine.superbatch_loss",
    "engine.perturbed_loss": "quadtune.engine:TrainingEngine.perturbed_loss",
    "engine.draw_superbatch": "quadtune.engine:TrainingEngine.draw_superbatch",
    "engine.commit": "quadtune.engine:TrainingEngine.commit",
    "engine.test_metrics": "quadtune.engine:TrainingEngine.test_metrics",
    "engine.data_state": "quadtune.engine:TrainingEngine.data_state",
    "engine.restore_data_state": "quadtune.engine:TrainingEngine.restore_data_state",
}


def _classes_defining(module, base, method: str):
    for obj in vars(module).values():
        if isinstance(obj, type) and issubclass(obj, base) and method in vars(obj):
            yield obj


class Instrumentation:
    """Installs span and counter wrappers; `restore()` puts the originals back."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.models = ModelCounter()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._install()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _install(self) -> None:
        models = importlib.import_module("quadtune.models")
        for method in FORWARD_METHODS:
            for cls in _classes_defining(models, models.Model, method):
                self._replace(cls, method, self.models.wrap_forward(self.rec, method, vars(cls)[method]))
        for cls in _classes_defining(models, models.Model, "loss_and_gradient"):
            fn = vars(cls)["loss_and_gradient"]
            self._replace(cls, "loss_and_gradient", self.models.wrap_loss_and_gradient(self.rec, fn))
        for span, target in SPANS.items():
            module_name, _, path = target.partition(":")
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(module_name)
            for name in owner_path:
                owner = getattr(owner, name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(span)
                continue
            self._replace(owner, attr, self.rec.wrap(span, vars(owner)[attr]))
        optim = importlib.import_module("quadtune.optim")
        for method in ("compute_direction", "commit_step"):
            for cls in _classes_defining(optim, optim.Optimizer, method):
                self._replace(cls, method, self.rec.wrap(f"optim.{method}", vars(cls)[method]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
