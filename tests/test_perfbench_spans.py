import json
import runpy
from pathlib import Path

import pytest

from quadtune import cli
from quadtune.runner import TrainingRun

ROOT = Path(__file__).resolve().parents[1]
# perfbench's runner, read as a script: its tracing wraps the quadtune this suite imports.
PERFBENCH = runpy.run_path(str(ROOT / "perfbench" / "run.py"))


@pytest.mark.parametrize("name", sorted(PERFBENCH["WORKLOADS"]))
def test_each_workload_fires_the_spans_perfbench_declares(tmp_path, name):
    # A span whose target stops being called reads as free in a traced benchmark run,
    # so a short train command of each workload must fire exactly the declared spans.
    # Two seeds, so that the moons workloads train as a stacked cohort.
    workload = PERFBENCH["WORKLOADS"][name]
    cfg = workload.config(11, str(tmp_path / "out"))
    cfg["seeds"] = cfg["seeds"][:2]
    cfg["epochs"] = 1 if name == "wide_probe" else 6
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rec = PERFBENCH["SpanRecorder"]()
    inst = PERFBENCH["Instrumentation"](rec)
    try:
        assert rec.call("cli.main", cli.main, ["train", "--config", str(path), "--quiet"]) == 0
    finally:
        inst.restore()
    assert PERFBENCH["span_check"](workload, PERFBENCH["span_totals"](rec), inst.missing) == []


@pytest.mark.parametrize("name", sorted(PERFBENCH["WORKLOADS"]))
def test_the_setup_probe_times_each_workload_up_to_its_first_step(tmp_path, monkeypatch, name):
    # perfbench's setup_s stops a train command at its first step: the first seed's, taken
    # before any other seed is built, so the time to the first step does not grow with the seeds.
    built = []
    init = TrainingRun.__init__
    monkeypatch.setattr(TrainingRun, "__init__", lambda run, *args: built.append(args) or init(run, *args))
    bench = PERFBENCH["WorkloadBench"](cli, PERFBENCH["WORKLOADS"][name], 11, tmp_path)
    assert bench._measure_setup() > 0.0
    assert len(built) == 1
