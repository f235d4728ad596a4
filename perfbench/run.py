"""Training benchmark for quadtune.

Run from the repository root:

    python3 perfbench/run.py --workload moons_tuner --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

A workload is one `quadtune train` config (see `workloads.py`). It runs as a
closed loop in this one process: the train command goes through the public
entry point `quadtune.cli.main`, one repeat after the other, until the time
is up. Every repeat is checked: it must exit 0, write finite final losses and
replay the first repeat byte for byte. `--workload all` interleaves the
workloads round by round, so host speed drifts hit all of them alike.

With `--trace 0` nothing is wrapped and the end-to-end metrics are reported;
times are medians over repeats, scaled to a reference host speed measured
next to each repeat (see `hostspeed.py`). With `--trace 1` untraced and
traced repeats alternate; the traced ones wrap the program's public calls in
spans (see `tracing.py`), and the per-layer metrics and the tracing overhead
are reported. Metric names and units come from BENCHMARK.json. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads: a run keeps one core busy and
# starts no other threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
# Set-up measurements taken before each untraced repeat.
SETUP_PROBES = 5
# Host speed kernel passes timed before and after each repeat.
KERNEL_SAMPLES = 3

sys.path.insert(0, str(ROOT))
from perfbench.hostspeed import REFERENCE_S, kernel_seconds  # noqa: E402
from perfbench.outputs import TrainOutputs, output_problems, read_outputs  # noqa: E402
from perfbench.tracing import Instrumentation, SpanRecorder, SpanTotals, span_totals  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


def import_cli():
    """`quadtune.cli` from this checkout's `src/`, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quadtune.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import quadtune from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: quadtune was imported from {cli.__file__}, not from {src}")
    return cli


class _SetupDone(Exception):
    """Raised at the first training step to end a set-up measurement."""


def _stop_at_first_step(run):
    raise _SetupDone


class WorkloadBench:
    """Repeats one workload's train command and keeps what the report needs."""

    def __init__(self, cli, workload: Workload, seed: int, out_root: Path):
        self.cli = cli
        self.workload = workload
        self.dir = out_root / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out_dir = self.dir / "run"
        self.cfg = workload.config(seed, str(self.out_dir))
        config_path = self.dir / "config.json"
        config_path.write_text(json.dumps(self.cfg, indent=2) + "\n", encoding="utf-8")
        self.argv = ["train", "--config", str(config_path), "--quiet"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.span_problems: list[str] = []
        self.reference: TrainOutputs | None = None
        # Keyed by traced; raw as measured, and scaled to the reference host speed.
        self.steps_per_s: dict[bool, list[float]] = {False: [], True: []}
        self.scaled_steps_per_s: dict[bool, list[float]] = {False: [], True: []}
        self.setup_s: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.traced_wall_s: list[float] = []
        self.counts: dict[str, int] | None = None
        self.totals: SpanTotals | None = None

    def repeat(self, traced: bool) -> None:
        self.attempted += 1
        try:
            problems = self._repeat(traced)
        except Exception as exc:  # a failing command must not end the benchmark
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"{type(exc).__name__}: {exc} (at {frame.filename}:{frame.lineno})"]
        if problems:
            self.failed += 1
            self.problems.extend(f"repeat {self.attempted}: {p}" for p in problems)

    def _measure_setup(self) -> float:
        """Time from `cli.main` to the first training step: parse, dataset, model init."""
        run_cls = self.cli.TrainingRun
        original = vars(run_cls)["step_once"]
        run_cls.step_once = _stop_at_first_step
        start = time.perf_counter()
        try:
            self.cli.main(self.argv)
        except _SetupDone:
            return time.perf_counter() - start
        finally:
            run_cls.step_once = original
        raise RuntimeError("train command ended without taking a step")

    def _repeat(self, traced: bool) -> list[str]:
        kernel_s = [kernel_seconds() for _ in range(KERNEL_SAMPLES)]
        setup_s = [] if traced else [self._measure_setup() for _ in range(SETUP_PROBES)]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rec = inst = None
        if traced:
            rec = SpanRecorder()
            inst = Instrumentation(rec)
        start = time.perf_counter()
        try:
            code = rec.call("cli.main", self.cli.main, self.argv) if traced else self.cli.main(self.argv)
        finally:
            wall = time.perf_counter() - start
            if inst is not None:
                inst.restore()
        kernel_s += [kernel_seconds() for _ in range(KERNEL_SAMPLES)]
        scale = REFERENCE_S / statistics.fmean(kernel_s)
        if code != 0:
            return [f"train exited with code {code}"]
        outputs = read_outputs(str(self.out_dir), self.cfg["seeds"])
        problems = output_problems(outputs, self.reference)
        if problems:
            return problems
        if self.reference is None:
            self.reference = outputs
        self.steps_per_s[traced].append(outputs.steps / wall)
        self.scaled_steps_per_s[traced].append(outputs.steps / (wall * scale))
        self.setup_s.extend(t * scale for t in setup_s)
        if traced:
            totals = span_totals(rec)
            counts = {"models." + k: v for k, v in vars(inst.models).items() if not k.startswith("_")}
            counts.update({f"calls[{name}]": n for name, n in totals.calls.items()})
            if self.counts is None:
                self.counts = counts
                self.span_problems = span_check(self.workload, totals, inst.missing)
                rec.write_csv(str(self.dir / "spans.csv"))
            elif counts != self.counts:
                return ["work counters differ from the first traced repeat"]
            self.totals = totals
            self.traced_wall_s.append(wall * scale)
            self.layers.append(layer_metrics(totals, inst.models, outputs, self.cfg, scale))
        return []

    def end_to_end(self) -> dict[str, float]:
        return {
            "steps_per_s": statistics.median(self.scaled_steps_per_s[False]),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_train_loss": self.reference.mean("final_train_loss"),
            "final_test_loss": self.reference.mean("final_test_loss"),
        }

    def per_layer(self) -> dict[str, float]:
        out = {name: statistics.median(layer[name] for layer in self.layers) for name in self.layers[0]}
        out["bench.trace_overhead"] = 1.0 - self.trace_speed_ratio()
        return out

    def trace_speed_ratio(self) -> float:
        return statistics.median(self.scaled_steps_per_s[True]) / statistics.median(self.scaled_steps_per_s[False])


def span_check(workload: Workload, totals: SpanTotals, missing: list[str]) -> list[str]:
    """A span that never fires reads as free; one that must not fire shows a wrong path."""
    problems = [f"span {name} was not installed: its target is gone" for name in missing]
    problems += [f"span {name} never fired" for name in workload.must_fire if totals.calls.get(name, 0) == 0]
    problems += [f"span {name} fired but must not" for name in workload.must_not_fire if totals.calls.get(name, 0)]
    return problems


def worst_case_overhead(policy: dict) -> float:
    """Most probe+window minibatch forwards per training step the tuner can run.

    Each window costs one probe round (S minibatches per probe) plus closing
    and reopening the window measurement (S each).
    """
    if policy["kind"] != "tuner":
        return 0.0
    return policy["superbatch_size"] * (policy["n_probes"] + 2) / policy["recompute_window"]


def layer_metrics(totals: SpanTotals, models, outputs: TrainOutputs, cfg: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced train command.

    `<span>_s` metrics are inclusive time in that call, `<module>.self_s` the
    module's self time; all times are multiplied by `scale`.
    """
    calls = totals.calls
    total = {name: seconds * scale for name, seconds in totals.total_s.items()}
    total = defaultdict(float, total)
    own = {module: seconds * scale for module, seconds in totals.module_self_s().items()}
    probe = outputs.tuner_total("probe_forward_passes")
    window = outputs.tuner_total("window_forward_passes")
    recomputes = outputs.tuner_total("recomputes")
    accepts = outputs.tuner_total("accepts")
    step_us = [d * 1e6 * scale for d in totals.durations["runner.step_once"]]
    return {
        "models.forward_calls": models.forward_calls,
        "models.forward_rows": models.forward_rows,
        "models.backward_rows": models.backward_rows,
        "models.matmul_flops": models.matmul_flops,
        "models.self_s": own.get("models", 0.0),
        "engine.forward_passes": sum(s["engine_forward_passes"] for s in outputs.per_seed),
        "engine.loss_and_gradient_s": total["engine.loss_and_gradient"],
        "engine.superbatch_loss_calls": calls["engine.superbatch_loss"],
        "engine.superbatch_loss_s": total["engine.superbatch_loss"],
        "engine.perturbed_loss_calls": calls["engine.perturbed_loss"],
        "engine.perturbed_loss_s": total["engine.perturbed_loss"],
        "engine.test_metrics_s": total["engine.test_metrics"],
        "engine.batch_for_step_s": total["engine.batch_for_step"],
        "engine.commit_s": total["engine.commit"],
        "engine.data_state_s": total["engine.data_state"] + total["engine.restore_data_state"],
        "engine.self_s": own.get("engine", 0.0),
        "optim.compute_direction_s": total["optim.compute_direction"],
        "optim.snapshot_s": total["optim.take_snapshot"] + total["optim.restore_snapshot"],
        "optim.snapshots": calls["optim.take_snapshot"],
        "optim.self_s": own.get("optim", 0.0),
        "quadprobe.fit_calls": calls["quadprobe.fit_quadratic"],
        "quadprobe.fit_s": total["quadprobe.fit_quadratic"],
        "tuner.recomputes": recomputes,
        "tuner.accepts": accepts,
        "tuner.rollbacks": outputs.tuner_total("rollbacks"),
        "tuner.accept_ratio": accepts / recomputes if recomputes else 0.0,
        "tuner.probe_forward_passes": probe,
        "tuner.window_forward_passes": window,
        "tuner.probe_overhead": (probe + window) / outputs.steps,
        "tuner.probe_overhead_worst": worst_case_overhead(cfg["lr_policy"]),
        "tuner.probe_row_share": (probe + window) * cfg["optimizer"]["minibatch_size"] / models.forward_rows,
        "tuner.recompute_s": total["tuner.recompute"],
        "tuner.self_s": own.get("tuner", 0.0),
        "runner.step_us_p50": statistics.median(step_us),
        "runner.step_us_p99": statistics.quantiles(step_us, n=100)[98],
        "runner.self_s": own.get("runner", 0.0),
        "cli.write_s": total["cli.write_trace"] + total["cli.write_summary"],
        "cli.trace_bytes": outputs.trace_bytes,
        "datasets.make_s": total["datasets.make_dataset"],
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(bench: WorkloadBench, values: dict[str, float], specs: list[dict], trace: bool) -> None:
    name = bench.workload.name
    print(f"== {name}: {bench.attempted} repeats of `quadtune train` ({len(bench.cfg['seeds'])} seeds each)")
    sps = bench.steps_per_s
    samples = {
        "steps_per_s": f"median of n={len(sps[False])}, at reference host speed"
        f" (raw: median {_fmt(statistics.median(sps[False]))}, best {_fmt(max(sps[False]))})",
        "setup_s": f"median of n={len(bench.setup_s)}",
        "peak_rss_mb": "process high-water mark",
        "final_train_loss": f"mean over n={len(bench.cfg['seeds'])} seeds",
        "final_test_loss": f"mean over n={len(bench.cfg['seeds'])} seeds",
    }
    for spec in specs:
        note = samples.get(spec["name"], f"median of n={len(bench.layers)} traced" if trace else "")
        print(f"  {spec['name']:<30} {_fmt(values[spec['name']]):>14} {spec['unit']:<6} {note}")
    print(f"  {'failed_run_share':<30} {_fmt(bench.failed / bench.attempted):>14} share  {bench.failed}/{bench.attempted}")
    ref = bench.reference
    probe = ref.tuner_total("probe_forward_passes") + ref.tuner_total("window_forward_passes")
    if bench.cfg["lr_policy"]["kind"] == "tuner":
        worst = worst_case_overhead(bench.cfg["lr_policy"])
        print(
            f"  derived: probe+window minibatch forwards per training step = {probe}/{ref.steps}"
            f" = {probe / ref.steps:.3g}, worst case S*(n+2)/window = {worst:.3g}"
        )
    if trace:
        traced = statistics.median(bench.scaled_steps_per_s[True])
        untraced = statistics.median(bench.scaled_steps_per_s[False])
        print(
            f"  derived: tracing overhead = 1 - traced/untraced steps_per_s = 1 - {_fmt(traced)}/{_fmt(untraced)}"
            f" = {1 - bench.trace_speed_ratio():.3g} (medians of n={len(sps[True])}/{len(sps[False])})"
        )
        models_calls = bench.counts["models.forward_calls"]
        engine_calls = values["engine.forward_passes"]
        print(f"  derived: model forwards {models_calls} vs engine.forward_passes {engine_calls:.0f}")
        wall = statistics.median(bench.traced_wall_s)
        shares = sorted(bench.totals.module_self_s().items(), key=lambda kv: -kv[1])
        print(f"  derived: self-time share of one traced command (median {_fmt(wall)} s):")
        for module, seconds in shares:
            print(f"    {module:<10} {seconds / sum(s for _, s in shares):6.1%}")
    for problem in bench.problems + bench.span_problems:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli = import_cli()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [WorkloadBench(cli, WORKLOADS[name], args.seed, OUT_ROOT) for name in names]

    start = time.perf_counter()
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        for bench in benches:
            bench.repeat(traced)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    metrics: dict[str, dict] = {}
    by_workload: dict[str, dict[str, float]] = {}
    for bench in benches:
        if not bench.scaled_steps_per_s[False] or (args.trace and not bench.layers):
            print(f"== {bench.workload.name}: too few repeats succeeded to report", file=sys.stderr)
            for problem in bench.problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        values = bench.per_layer() if args.trace else bench.end_to_end()
        by_workload[bench.workload.name] = values
        print_report(bench, values, specs, bool(args.trace))
        prefix = "" if len(benches) == 1 else bench.workload.name + "/"
        for s in specs:
            metrics[prefix + s["name"]] = {"value": values[s["name"]], "unit": s["unit"]}
    if not args.trace and {"moons_tuner", "moons_cosine"} <= by_workload.keys():
        tuner_us = 1e6 / by_workload["moons_tuner"]["steps_per_s"]
        cosine_us = 1e6 / by_workload["moons_cosine"]["steps_per_s"]
        print(
            f"derived: tuner/schedule overhead ratio = per-step time moons_tuner / moons_cosine"
            f" = {_fmt(tuner_us)} us / {_fmt(cosine_us)} us = {tuner_us / cosine_us:.3g}"
        )
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    correct = failed == 0 and not any(b.span_problems for b in benches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
