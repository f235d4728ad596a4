"""Print a sha256 line for every trace and per-seed summary of the reference runs.

Runs `quadtune train` on perfbench's four workload configs at each given
workload seed, and on every committed `configs/*.json` (labelled with its file
stem, in name order), then prints one line per `trace_seed*.csv` and one per
`per_seed` block of each `summary.json`. A block's line ends with the run's
forward passes, and for a tuner run its accepts and rollbacks:

    python3 tools/trace_digests.py --seeds 11-13 > digests.txt

`--root` picks the checkout whose `src/` is trained (default: this one), so
one copy of this script can check two trees; the configs always come from the
checkout that holds this script, and equal output means equal bits:

    python3 tools/trace_digests.py --seeds 11-13 --root ../parent > parent.txt
    python3 tools/trace_digests.py --seeds 11-13 > change.txt
    diff parent.txt change.txt

`--parent REV` does both in one command: it checks REV out into a temporary
`git worktree`, trains the same runs from it and from `--root`, prints only
the lines that differ (`-` REV's, `+` the other's) and exits 1 on any
difference, 0 when every line is equal:

    python3 tools/trace_digests.py --seeds 11-13 --parent HEAD~1

Every training runs in a child process that inherits this one's environment,
so a variable set on the command line reaches both trees. That is how to
check a second BLAS kernel: numpy's OpenBLAS picks its kernel from
`OPENBLAS_CORETYPE`, and a trace's bytes depend on the kernel. Compare each
kernel's listing of a tree with the same kernel's listing of another, with
or without `--parent`:

    OPENBLAS_CORETYPE=Haswell python3 tools/trace_digests.py --seeds 11-13 --parent HEAD~1
    OPENBLAS_CORETYPE=Haswell python3 tools/trace_digests.py --seeds 11-13 > haswell.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """Workload seeds as a range `11-13`, a list `11,12` or both: `1-3,7`."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train(root: Path, config: dict, out_dir: Path) -> None:
    """`quadtune train` on ``config`` from ``root``'s `src/`, in a fresh process."""
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(dict(config, out_dir=str(out_dir))), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-m", "quadtune.cli", "train", "--config", str(config_path), "--quiet"],
                   env=env, check=True)


def work(block: dict) -> str:
    """A `per_seed` block's accepts and rollbacks (tuner runs only) and forward passes."""
    counters = block.get("tuner_counters")
    tuner = f"accepts={counters['accepts']} rollbacks={counters['rollbacks']} " if counters else ""
    return f"{tuner}engine_forward_passes={block['engine_forward_passes']}"


def digests(label: str, out_dir: Path) -> list[str]:
    """One line per trace file and per `per_seed` block; the config's `out_dir` is left out."""
    lines = [f"{sha256(path.read_bytes())}  {label}/{path.name}"
             for path in sorted(out_dir.glob("trace_seed*.csv"))]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    for block in summary["per_seed"]:
        text = json.dumps(block, sort_keys=True).encode()
        lines.append(f"{sha256(text)}  {label}/per_seed[{block['seed']}]  {work(block)}")
    return lines


def run_digests(root: Path, runs: list[tuple[str, dict]]) -> Iterator[str]:
    """Train each labelled config from ``root``'s `src/` and yield its digest lines."""
    with tempfile.TemporaryDirectory(prefix="trace_digests_") as tmp:
        for i, (label, config) in enumerate(runs):
            out_dir = Path(tmp) / str(i)
            train(root, config, out_dir)
            yield from digests(label, out_dir)


def differing(parent: list[str], change: list[str]) -> list[str]:
    """The lines at which two digest listings differ, in order: the parent's marked `-`, the change's `+`."""
    lines = []
    for old, new in itertools.zip_longest(parent, change):
        if old == new:
            continue
        if old is not None:
            lines.append(f"- {old}")
        if new is not None:
            lines.append(f"+ {new}")
    return lines


@contextlib.contextmanager
def checked_out(rev: str) -> Iterator[Path]:
    """A temporary `git worktree` of this checkout at ``rev``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="trace_digests_parent_") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="11-13", help="workload seeds, e.g. 11-13 or 11,12 (default 11-13)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is trained (default: this one)")
    parser.add_argument("--parent", metavar="REV", help="compare with this git revision; print only differing lines")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    runs = [(f"{name}/{seed}", workload.config(seed, "")) for seed in parse_seeds(args.seeds)
            for name, workload in WORKLOADS.items()]
    runs += [(path.stem, json.loads(path.read_text(encoding="utf-8")))
             for path in sorted((ROOT / "configs").glob("*.json"))]
    if args.parent is None:
        for line in run_digests(root, runs):
            print(line, flush=True)
        return 0
    with checked_out(args.parent) as parent_root:
        parent = list(run_digests(parent_root, runs))
    lines = differing(parent, list(run_digests(root, runs)))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
