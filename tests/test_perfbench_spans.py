import json
import runpy
from pathlib import Path

import pytest

from quadtune import cli

ROOT = Path(__file__).resolve().parents[1]
# perfbench's runner, read as a script: its tracing wraps the quadtune this suite imports.
PERFBENCH = runpy.run_path(str(ROOT / "perfbench" / "run.py"))


@pytest.mark.parametrize("name", sorted(PERFBENCH["WORKLOADS"]))
def test_each_workload_fires_the_spans_perfbench_declares(tmp_path, name):
    # A span whose target stops being called reads as free in a traced benchmark run,
    # so a short train command of each workload must fire exactly the declared spans.
    workload = PERFBENCH["WORKLOADS"][name]
    cfg = workload.config(11, str(tmp_path / "out"))
    cfg["seeds"] = cfg["seeds"][:1]
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
