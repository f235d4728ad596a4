"""Alternating parent/change pairs of perfbench runs, summarised into `BENCH_<label>.json`.

For each workload seed and each workload, in turn, this runs each tree's own

    python3 perfbench/run.py --workload <name> --seed <seed> --seconds <s> --trace 0

as a process of its own, the parent first on odd seeds and the change first
on even ones. The change is the checkout that holds this script; the parent
is REV, checked out into a temporary `git worktree`:

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 3001-3010 --seconds 25 --label pr30

Each run's end-to-end metrics come from the last line of its output. Next to
them go its wall time and user CPU time (`resource.getrusage(RUSAGE_CHILDREN)`
around the child, which reads only this process's children), and the user
CPU time per repeat of `quadtune train`. `BENCH_<label>.json` holds both
commit ids, the exact commands, every run, and per workload and metric the
two sides' medians and quartiles, the median change, the pairs the change
won, the parent's quartile spread and the same medians split by the side
that ran first (`by_first`), and each side's tuner/schedule µs-per-step
ratio (`tuner_schedule_ratio`, null unless both moons workloads ran).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace_digests import ROOT, WORKLOADS, checked_out, parse_seeds  # noqa: E402

SIDES = ("parent", "change")
# Measured around each run, next to BENCHMARK.json's end-to-end metrics.
RUN_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "user_cpu_s", "unit": "s", "better": "lower"},
    {"name": "user_cpu_s_per_repeat", "unit": "s", "better": "lower"},
]


def command(workload: str, seed: int | str, seconds: float) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its metric values, wall and user CPU time, and its check."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    start = time.perf_counter()
    done = subprocess.run(command(workload, seed, seconds), cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    user = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} exited {done.returncode}:\n{done.stderr}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    values.update(wall_s=wall, user_cpu_s=user, user_cpu_s_per_repeat=user / report["attempted"])
    return {"values": values, "correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"]}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(spec: dict, runs: list[dict]) -> dict:
    """One metric over the pairs: each side's median and quartiles, and how the change did."""
    name = spec["name"]
    sign = 1 if spec["better"] == "higher" else -1
    side = {s: [run[s][name] for run in runs] for s in SIDES}
    out = {"unit": spec["unit"], "better": spec["better"]}
    out.update({s: quartiles(side[s]) for s in SIDES})
    parent = out["parent"]
    out["median_change"] = out["change"]["median"] / parent["median"] - 1 if parent["median"] else 0.0
    out["parent_quartile_spread"] = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
    out["pairs_won_by_change"] = sum(sign * (run["change"][name] - run["parent"][name]) > 0 for run in runs)
    out["ties"] = sum(run["change"][name] == run["parent"][name] for run in runs)
    out["pairs"] = len(runs)
    out["by_first"] = {}
    for first in SIDES:
        subset = [run for run in runs if run["first"] == first]
        if subset:
            out["by_first"][f"{first}_first"] = {"pairs": len(subset), **{
                f"{s}_median": statistics.median(run[s][name] for run in subset) for s in SIDES}}
    return out


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """A workload's block of the report, from its pairs (each ``{"seed", "first", "parent",
    "change"}``, a side being the values, correctness and repeat counts of one run)."""
    pairs = [{"seed": run["seed"], "first": run["first"], **{s: run[s]["values"] for s in SIDES}} for run in runs]
    return {
        "metrics": {spec["name"]: compare(spec, pairs) for spec in specs},
        "runs": pairs,
        "correct": {s: all(run[s]["correct"] for run in runs) for s in SIDES},
        "failed": {s: f"{sum(run[s]['failed'] for run in runs)}/{sum(run[s]['attempted'] for run in runs)}"
                   for s in SIDES},
    }


def tuner_schedule_ratio(workloads: dict) -> dict[str, float] | None:
    """Each side's tuner/schedule µs-per-step ratio: `moons_tuner`'s median µs per step over
    `moons_cosine`'s, which train the same model and data. None without both workloads."""
    if not {"moons_tuner", "moons_cosine"} <= workloads.keys():
        return None
    steps = {name: workloads[name]["metrics"]["steps_per_s"] for name in ("moons_tuner", "moons_cosine")}
    return {s: steps["moons_cosine"][s]["median"] / steps["moons_tuner"][s]["median"] for s in SIDES}


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(cwd), *args], check=True, capture_output=True, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", metavar="REV", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--seeds", required=True, help="workload seeds, e.g. 3001-3010")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="seconds per perfbench run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--label", required=True, help="the report is written to BENCH_<label>.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least 2 seeds")
    specs = benchmark["end_to_end"] + RUN_METRICS

    change = git("rev-parse", "HEAD") + (" with uncommitted changes" if git("status", "--porcelain") else "")
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    with checked_out(args.parent) as parent_tree:
        parent = git("rev-parse", "HEAD", cwd=parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for name in WORKLOADS:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], name, seed, args.seconds)
                runs[name].append(pair)
                print(f"{name} seed {seed}: steps_per_s parent {pair['parent']['values']['steps_per_s']:.6g}"
                      f" change {pair['change']['values']['steps_per_s']:.6g}", flush=True)

    report = {
        "parent": parent,
        "change": change,
        "host": f"{platform.platform()}, Python {platform.python_version()}",
        "command": " ".join(command("<name>", "<seed>", args.seconds)),
        "trees": {"parent": f"a temporary git worktree of {args.parent}", "change": "this checkout"},
        "pair_rule": f"seeds {args.seeds}, each seed running {', '.join(WORKLOADS)} in turn; the parent runs first"
                     " on odd seeds, the change first on even seeds; each run is its own process",
        "workloads": {name: summarize(pairs, specs) for name, pairs in runs.items()},
    }
    report["tuner_schedule_ratio"] = tuner_schedule_ratio(report["workloads"])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
