"""Reading and checking what one `quadtune train` command wrote.

A repeat of the same config must replay exactly: byte-identical
`trace_seed<N>.csv` files, identical tuner counters and finite final losses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainOutputs:
    trace_digests: dict[int, str]
    trace_bytes: int
    tuner_counters: dict[int, dict]
    per_seed: list[dict]

    @property
    def steps(self) -> int:
        return sum(s["total_steps"] for s in self.per_seed)

    def mean(self, metric: str) -> float:
        return sum(s[metric] for s in self.per_seed) / len(self.per_seed)

    def tuner_total(self, counter: str) -> int:
        return sum(c.get(counter, 0) for c in self.tuner_counters.values())


def read_outputs(out_dir: str, seeds: list[int]) -> TrainOutputs:
    """Digest the trace files and load `summary.json`; raises OSError/KeyError/ValueError."""
    digests = {}
    trace_bytes = 0
    for seed in seeds:
        with open(os.path.join(out_dir, f"trace_seed{seed}.csv"), "rb") as f:
            data = f.read()
        digests[seed] = hashlib.sha256(data).hexdigest()
        trace_bytes += len(data)
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    per_seed = summary["per_seed"]
    if [s["seed"] for s in per_seed] != list(seeds):
        raise ValueError(f"summary.json lists seeds {[s['seed'] for s in per_seed]}, expected {list(seeds)}")
    counters = {s["seed"]: s.get("tuner_counters", {}) for s in per_seed}
    return TrainOutputs(digests, trace_bytes, counters, per_seed)


def output_problems(outputs: TrainOutputs, reference: TrainOutputs | None) -> list[str]:
    """Why this repeat failed the check; empty when it passed."""
    problems = []
    for s in outputs.per_seed:
        for metric in ("final_train_loss", "final_test_loss"):
            value = s.get(metric)
            if value is None or not math.isfinite(value):
                problems.append(f"seed {s['seed']}: {metric} is {value!r}")
    if reference is not None:
        for seed, digest in outputs.trace_digests.items():
            if digest != reference.trace_digests.get(seed):
                problems.append(f"seed {seed}: trace_seed{seed}.csv differs from the first repeat")
        if outputs.tuner_counters != reference.tuner_counters:
            problems.append("tuner counters differ from the first repeat")
    return problems
