"""Tests for the replay check that decides whether a repeat failed."""

import json
import math

import pytest

from perfbench.outputs import output_problems, read_outputs
from perfbench.run import WorkloadBench, import_cli
from perfbench.workloads import Workload


def _write_run(path, traces, losses=(0.5, 0.25), counters=None):
    path.mkdir(parents=True, exist_ok=True)
    per_seed = []
    for seed, text in traces.items():
        (path / f"trace_seed{seed}.csv").write_text(text, encoding="utf-8")
        per_seed.append(
            {
                "seed": seed,
                "total_steps": 10,
                "final_train_loss": losses[0],
                "final_test_loss": losses[1],
                "tuner_counters": counters or {"accepts": 1},
            }
        )
    (path / "summary.json").write_text(json.dumps({"per_seed": per_seed}), encoding="utf-8")
    return read_outputs(str(path), list(traces))


def test_identical_replay_passes(tmp_path):
    first = _write_run(tmp_path / "a", {1: "step,lr\n0,0.1\n", 2: "step,lr\n0,0.2\n"})
    again = _write_run(tmp_path / "b", {1: "step,lr\n0,0.1\n", 2: "step,lr\n0,0.2\n"})
    assert output_problems(first, None) == []
    assert output_problems(again, first) == []


def test_perturbed_trace_is_flagged(tmp_path):
    first = _write_run(tmp_path / "a", {1: "step,lr\n0,0.1\n", 2: "step,lr\n0,0.2\n"})
    perturbed = _write_run(tmp_path / "b", {1: "step,lr\n0,0.1\n", 2: "step,lr\n0,0.20000000000000004\n"})
    assert output_problems(perturbed, first) == ["seed 2: trace_seed2.csv differs from the first repeat"]


def test_changed_tuner_counters_and_nonfinite_loss_are_flagged(tmp_path):
    first = _write_run(tmp_path / "a", {1: "x\n"})
    other = _write_run(tmp_path / "b", {1: "x\n"}, losses=(math.nan, 0.1), counters={"accepts": 2})
    problems = output_problems(other, first)
    assert "tuner counters differ from the first repeat" in problems
    assert any("final_train_loss is nan" in p for p in problems)


_TINY = Workload(
    name="tiny",
    must_fire=(),
    must_not_fire=(),
    base_config={
        "dataset": {"kind": "linreg", "n": 200, "dim": 2, "seed": 3},
        "model": {"kind": "linreg"},
        "optimizer": {"kind": "adam", "minibatch_size": 16},
        "lr_policy": {
            "kind": "tuner",
            "seed_lr": 0.01,
            "superbatch_size": 3,
            "n_probes": 5,
            "recompute_window": 4,
        },
        "epochs": 2,
    },
)


def test_a_repeat_whose_trace_changes_counts_as_failed(tmp_path, monkeypatch):
    cli = import_cli()
    bench = WorkloadBench(cli, _TINY, seed=5, out_root=tmp_path)
    bench.repeat(traced=False)
    bench.repeat(traced=True)
    assert (bench.attempted, bench.failed) == (2, 0)

    original = cli.write_trace

    def perturbed_write_trace(path, records):
        records[-1].lr *= 1.0 + 1e-12
        original(path, records)

    monkeypatch.setattr(cli, "write_trace", perturbed_write_trace)
    bench.repeat(traced=False)
    assert (bench.attempted, bench.failed) == (3, 1)
    assert any("differs from the first repeat" in p for p in bench.problems)
    # The failed repeat contributes no throughput sample.
    assert len(bench.steps_per_s[False]) == 1


@pytest.mark.parametrize("traced", [False, True])
def test_a_raising_command_counts_as_failed(tmp_path, monkeypatch, traced):
    cli = import_cli()
    bench = WorkloadBench(cli, _TINY, seed=5, out_root=tmp_path)

    def broken(path, records):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli, "write_trace", broken)
    bench.repeat(traced=traced)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert len(bench.problems) == 1
    assert bench.problems[0].startswith("repeat 1: RuntimeError: disk full (at ")
