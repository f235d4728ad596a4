"""Command-line experiment runner.

Subcommands: train, sweep, range-test, sb-scan, quadcheck. Every command
reads one JSON run config and writes CSV/JSON artifacts into the output
directory. Exit status: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import operator
import os
import sys
from typing import Iterable, Optional

from .config import RunConfig
from .errors import InvalidArgumentError, QuadtuneError
from .quadprobe import propose_epsilon
from .runner import CSV_COLUMNS, RunRecord, TrainingRun, run_all_seeds
from .schedules import lr_at, lr_range_test
from .stats import summarize
from .tuner import TunerConfig, probe_round


def _write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """csv.writer writes each cell: None blank, anything else as str(), so a float reads back exactly."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace(path: str, records: list[RunRecord]) -> None:
    _write_csv(path, CSV_COLUMNS, map(operator.attrgetter(*CSV_COLUMNS), records))


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _positive_list(text: str, kind: type, flag: str) -> list:
    """Comma-separated positive finite numbers of one kind; anything else is an InvalidArgumentError."""
    try:
        values = [kind(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values or not all(0 < v < math.inf for v in values):
        raise InvalidArgumentError(f"{flag} must be comma-separated positive numbers, not {text!r}")
    return values


def _check_out_dir(path: str) -> None:
    """Raise OSError unless ``path`` is a writable directory or can be made one; creates nothing."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, "output directory is at or below a file", existing)
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output directory cannot be written", existing)


def _load_config(args) -> RunConfig:
    """The --config file with --out and --seed in place of its keys, checked as one config,
    and its output directory checked before anything is built."""
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = [args.seed]
    cfg = RunConfig.from_json_file(args.config, **overrides)
    _check_out_dir(cfg.out_dir)
    return cfg


def _run_and_write(cfg: RunConfig) -> dict:
    """Run every seed, writing its trace when it ends, then summary.json; return the summary."""
    def write(seed: int, records: list[RunRecord]) -> None:
        write_trace(os.path.join(cfg.out_dir, f"trace_seed{seed}.csv"), records)

    _, summary = run_all_seeds(cfg, write)
    _write_json(os.path.join(cfg.out_dir, "summary.json"), summary)
    return summary


def cmd_train(args) -> int:
    cfg = _load_config(args)
    summary = _run_and_write(cfg)
    if not args.quiet:
        for metric, agg in summary["aggregate"].items():
            print(f"{metric}: mean={agg['mean']:.6g} stddev={agg['stddev']:.3g} (n={agg['n']})")
        print(f"wrote {os.path.join(cfg.out_dir, 'summary.json')}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.lr_policy.get("kind") != "tuner":
        raise InvalidArgumentError("seed_lr sweeps require a tuner lr policy")
    values = _positive_list(args.values, float, "--values")
    names = [f"seed_lr_{value:g}" for value in values]
    clash = next((name for name in names if names.count(name) > 1), None)
    if clash is not None:
        raise InvalidArgumentError(f"--values must differ in their first 6 significant digits; two of them write {clash}")
    for name in names:
        _check_out_dir(os.path.join(cfg.out_dir, name))

    rows = []
    for value, name in zip(values, names):
        policy, out_dir = dict(cfg.lr_policy, seed_lr=value), os.path.join(cfg.out_dir, name)
        sub_cfg = RunConfig.from_dict(dict(cfg.to_dict(), lr_policy=policy, out_dir=out_dir))
        aggregate = _run_and_write(sub_cfg)["aggregate"]
        stats = next(aggregate[m] for m in ("final_test_acc", "final_test_loss", "final_train_loss") if m in aggregate)
        rows.append((value, stats["mean"], stats["stddev"]))
        if not args.quiet:
            print(f"seed_lr={value:g}: mean={stats['mean']:.6g} stddev={stats['stddev']:.3g}")

    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ["value", "mean", "stddev"], rows)
    return 0


def cmd_range_test(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    run = TrainingRun(cfg, seed)
    result = lr_range_test(run.engine, run.optimizer, args.lr_min, args.lr_max, args.steps)
    _write_csv(os.path.join(cfg.out_dir, "range_test.csv"), ["lr", "smoothed_loss"], result.curve)
    print(f"suggested_max_lr: {result.suggested_max_lr!r}")
    if result.exploded_at_lr is not None and not args.quiet:
        print(f"loss exploded at lr {result.exploded_at_lr!r}")
    return 0


def cmd_sb_scan(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    sizes = _positive_list(args.sizes, int, "--sizes")
    if args.trials < 1:
        raise InvalidArgumentError(f"--trials must be a positive integer, not {args.trials}")
    run = TrainingRun(cfg, seed)
    engine = run.engine
    rows = []
    for size in sizes:
        losses = [engine.superbatch_loss(engine.draw_superbatch(size)) for _ in range(args.trials)]
        stddev = summarize(losses).stddev
        rows.append((size, stddev))
        if not args.quiet:
            print(f"size={size}: stddev={stddev!r}")
    _write_csv(os.path.join(cfg.out_dir, "sb_scan.csv"), ["size", "loss_stddev"], rows)
    return 0


def cmd_quadcheck(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    run = TrainingRun(cfg, seed)
    if not 0 <= args.at_step < run.total_steps:
        raise InvalidArgumentError("at_step must lie within the configured run")
    run.advance_to(args.at_step)

    engine = run.engine
    if run.tuner is not None:
        tc, eta = run.tuner.cfg, run.tuner.state.current_lr
    else:
        # Probe at the scheduled lr with TunerConfig's defaults; the superbatch is capped at one epoch below.
        eta = lr_at(run.schedule, args.at_step, run.total_steps)
        tc = TunerConfig(seed_lr=eta, total_steps=run.total_steps)

    x, y = engine.batch_for_step(args.at_step)
    _, grads = engine.loss_and_gradient(x, y)
    direction = run.optimizer.compute_direction(run.model.params, grads).direction
    sb = engine.draw_superbatch(min(tc.superbatch_size, engine.batches_per_epoch))
    probe = probe_round(engine, tc, args.at_step, direction, eta, sb)
    if probe.bound <= 0.0:
        raise QuadtuneError(f"loss at the current lr is {probe.loss_at_zero!r}; nothing to probe")
    if probe.fit is None:
        raise QuadtuneError("too few finite probes for a fit")
    fit = probe.fit

    half_width = max(abs(s.epsilon) for s in probe.samples)
    held_out = [-2.0 * half_width, -1.5 * half_width, 1.5 * half_width, 2.0 * half_width]
    rows = [(s.epsilon, s.loss, fit.predict(s.epsilon), 0) for s in probe.samples]
    for eps in held_out:
        measured = engine.perturbed_loss(direction, eta + eps, sb)
        rows.append((eps, measured, fit.predict(eps), 1))
    _write_csv(
        os.path.join(cfg.out_dir, "quadcheck.csv"),
        ["epsilon", "measured_loss", "fitted_loss", "held_out"],
        rows,
    )

    eps_min = propose_epsilon(fit, probe.bound).epsilon
    true_at_min = engine.perturbed_loss(direction, eta + eps_min, sb)
    print(f"quad_min: epsilon={eps_min!r} predicted={fit.predict(eps_min)!r} measured={true_at_min!r}")
    if not args.quiet:
        print(f"wrote {os.path.join(cfg.out_dir, 'quadcheck.csv')}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadtune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="single seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_train = sub.add_parser("train", help="run every configured seed and write traces + summary")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="sweep the tuner seed learning rate")
    add_common(p_sweep)
    p_sweep.add_argument("--values", required=True, help="comma-separated positive values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_range = sub.add_parser("range-test", help="exponential lr ramp to locate the explosion point")
    add_common(p_range)
    p_range.add_argument("--lr-min", type=float, required=True, dest="lr_min")
    p_range.add_argument("--lr-max", type=float, required=True, dest="lr_max")
    p_range.add_argument("--steps", type=int, default=100)
    p_range.set_defaults(func=cmd_range_test)

    p_scan = sub.add_parser("sb-scan", help="loss stddev as a function of superbatch size")
    add_common(p_scan)
    p_scan.add_argument("--sizes", required=True, help="comma-separated superbatch sizes")
    p_scan.add_argument("--trials", type=int, default=10, help="superbatches drawn per size, at least 1")
    p_scan.set_defaults(func=cmd_sb_scan)

    p_quad = sub.add_parser("quadcheck", help="emit fit vs held-out probe losses at a step")
    add_common(p_quad)
    p_quad.add_argument("--at-step", type=int, required=True, dest="at_step")
    p_quad.set_defaults(func=cmd_quadcheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QuadtuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
