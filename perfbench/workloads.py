"""Benchmark workloads: each one is a `quadtune train` config built from a seed.

The program only ever sees the generated config. The workload seed picks the
three run seeds, which drive weight init, epoch shuffles and superbatch draws,
so the same seed gives the same inputs, and `moons_tuner` and `moons_cosine`
on one seed start from the same weights.

The dataset seed is part of the workload, not drawn from the workload seed:
on 10 workload seeds the dataset draw alone moved the moons final test loss
by an interquartile range of 0.5-0.6 of its median, against 0.04 for the run
seeds, which would swamp any useful regression bound on the loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A named train config; BENCHMARK.json says why each workload exists."""

    name: str
    # Spans that must fire at least once, and spans that must never fire.
    must_fire: tuple[str, ...]
    must_not_fire: tuple[str, ...]
    base_config: dict

    def config(self, seed: int, out_dir: str) -> dict:
        rng = random.Random(seed)
        cfg = {key: dict(value) if isinstance(value, dict) else value for key, value in self.base_config.items()}
        cfg["seeds"] = rng.sample(range(1, 2**31), 3)
        cfg["out_dir"] = out_dir
        return cfg


_README_TUNER = {
    "kind": "tuner",
    "seed_lr": 0.1,
    "explore_fraction": 0.25,
    "recompute_window": 25,
    "superbatch_size": 10,
    "n_probes": 5,
    "epsilon_threshold": 1e-3,
    "saturation_threshold": 100.0,
    "rollback": True,
}
_MOONS = {"kind": "moons", "n": 2000, "noise": 0.15, "seed": 11}
_MOMENTUM = {"kind": "momentum", "momentum": 0.9, "weight_decay": 0.0, "minibatch_size": 32}

# Spans on every training step, whatever the learning-rate policy.
_STEP_SPANS = (
    "cli.main",
    "cli.write_trace",
    "cli.write_summary",
    "datasets.make_dataset",
    "runner.step_once",
    "engine.batch_for_step",
    "engine.loss_and_gradient",
    "engine.commit",
    "engine.test_metrics",
    "optim.compute_direction",
    "models.forward",
)
# Spans of the tuner's probe and window rounds.
_TUNER_SPANS = (
    "tuner.run_step",
    "tuner.recompute",
    "engine.superbatch_loss",
    "engine.perturbed_loss",
    "engine.draw_superbatch",
    "quadprobe.fit_quadratic",
    "optim.take_snapshot",
    "engine.data_state",
)
_ROLLBACK_SPANS = ("optim.restore_snapshot", "engine.restore_data_state")
_SCHEDULE_SPANS = ("schedules.lr_at",)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="moons_tuner",
            must_fire=_STEP_SPANS + _TUNER_SPANS,
            must_not_fire=_SCHEDULE_SPANS,
            base_config={
                "dataset": _MOONS,
                "model": {"kind": "mlp", "hidden": [64, 32]},
                "optimizer": _MOMENTUM,
                "lr_policy": _README_TUNER,
                "epochs": 30,
            },
        ),
        Workload(
            name="moons_cosine",
            must_fire=_STEP_SPANS + _SCHEDULE_SPANS,
            must_not_fire=_TUNER_SPANS + _ROLLBACK_SPANS,
            base_config={
                "dataset": _MOONS,
                "model": {"kind": "mlp", "hidden": [64, 32]},
                "optimizer": _MOMENTUM,
                "lr_policy": {"kind": "schedule", "variant": "cosine", "seed_lr": 0.1},
                "epochs": 30,
            },
        ),
        Workload(
            name="wide_probe",
            must_fire=_STEP_SPANS + _TUNER_SPANS,
            must_not_fire=_SCHEDULE_SPANS,
            base_config={
                "dataset": {"kind": "moons", "n": 4000, "noise": 0.3, "seed": 11},
                "model": {"kind": "mlp", "hidden": [256, 256]},
                "optimizer": _MOMENTUM,
                # Half the run explores, where every window probes: that keeps
                # over 90% of model forward rows in probe/window rounds at 2 epochs.
                "lr_policy": dict(
                    _README_TUNER, superbatch_size=50, n_probes=7, recompute_window=10, explore_fraction=0.5
                ),
                "epochs": 2,
            },
        ),
        Workload(
            name="linreg_tiny",
            must_fire=_STEP_SPANS + _TUNER_SPANS + _ROLLBACK_SPANS,
            must_not_fire=_SCHEDULE_SPANS,
            base_config={
                "dataset": {"kind": "linreg", "n": 4000, "dim": 4, "noise": 0.1, "seed": 11},
                "model": {"kind": "linreg"},
                "optimizer": {"kind": "adam", "minibatch_size": 16},
                "lr_policy": dict(_README_TUNER, seed_lr=0.01, superbatch_size=5, recompute_window=10),
                "epochs": 20,
            },
        ),
    ]
}
