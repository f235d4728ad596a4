import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "steps_per_s", "unit": "1/s", "better": "higher"},
         {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def side(steps, rss, failed=0, correct=True):
    return {"values": {"steps_per_s": steps, "peak_rss_mb": rss}, "correct": correct, "attempted": 10,
            "failed": failed}


# Four pairs: the change is faster in three and ties one; its RSS is higher in two and equal in two.
RUNS = [
    {"seed": 1, "first": "parent", "parent": side(100.0, 40.0), "change": side(110.0, 41.0)},
    {"seed": 2, "first": "change", "parent": side(90.0, 40.0), "change": side(99.0, 40.0)},
    {"seed": 3, "first": "parent", "parent": side(120.0, 42.0), "change": side(120.0, 43.0)},
    {"seed": 4, "first": "change", "parent": side(80.0, 41.0), "change": side(96.0, 41.0, failed=1)},
]


def test_the_summary_of_canned_pairs():
    block = bench_pairs.summarize(RUNS, SPECS)
    steps = block["metrics"]["steps_per_s"]
    # Inclusive quartiles of 80, 90, 100, 120 and of 96, 99, 110, 120.
    assert steps["parent"] == {"median": 95.0, "q1": 87.5, "q3": 105.0}
    assert steps["change"] == {"median": 104.5, "q1": 98.25, "q3": 112.5}
    assert steps["median_change"] == pytest.approx(104.5 / 95.0 - 1)
    assert steps["parent_quartile_spread"] == pytest.approx(17.5 / 95.0)
    assert (steps["pairs_won_by_change"], steps["ties"], steps["pairs"]) == (3, 1, 4)
    assert steps["by_first"] == {
        "parent_first": {"pairs": 2, "parent_median": 110.0, "change_median": 115.0},
        "change_first": {"pairs": 2, "parent_median": 85.0, "change_median": 97.5},
    }
    rss = block["metrics"]["peak_rss_mb"]
    # Lower is better: a higher RSS is no win, and an equal one a tie.
    assert (rss["pairs_won_by_change"], rss["ties"]) == (0, 2)
    assert block["runs"][0] == {"seed": 1, "first": "parent", "parent": RUNS[0]["parent"]["values"],
                                "change": RUNS[0]["change"]["values"]}
    assert block["correct"] == {"parent": True, "change": True}
    assert block["failed"] == {"parent": "0/40", "change": "1/40"}


def test_the_tuner_schedule_ratio_of_canned_pairs():
    # Medians: moons_tuner 95.0 (parent) and 104.5 (change) steps/s; moons_cosine 120 and 114.
    cosine = [dict(run, parent=side(120.0, 40.0), change=side(114.0, 40.0)) for run in RUNS]
    workloads = {"moons_tuner": bench_pairs.summarize(RUNS, SPECS), "moons_cosine": bench_pairs.summarize(cosine, SPECS)}
    ratio = bench_pairs.tuner_schedule_ratio(workloads)
    assert ratio == {"parent": pytest.approx(120.0 / 95.0), "change": pytest.approx(114.0 / 104.5)}
    del workloads["moons_cosine"]
    assert bench_pairs.tuner_schedule_ratio(workloads) is None


def test_the_parent_runs_first_on_odd_seeds(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2, "end_to_end": SPECS}), encoding="utf-8")
    order = []

    def run_once(tree, workload, seed, seconds):
        order.append((seed, workload, "parent" if tree == tmp_path / "parent" else "change"))
        run = side(100.0 + seed, 40.0)
        run["values"].update(wall_s=2.5, user_cpu_s=2.0, user_cpu_s_per_repeat=0.2)
        return run

    @contextlib.contextmanager
    def checked_out(rev):
        assert rev == "HEAD~1"
        yield tmp_path / "parent"

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "checked_out", checked_out)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, cwd=None: "" if args[0] == "status" else f"id-{cwd}")
    monkeypatch.setattr(bench_pairs, "WORKLOADS", {"linreg_tiny": None, "moons_cosine": None})
    argv = ["--parent", "HEAD~1", "--seeds", "7-8", "--label", "t"]  # --seconds from run_seconds
    assert bench_pairs.main(argv) == 0
    assert order == [
        (7, "linreg_tiny", "parent"), (7, "linreg_tiny", "change"),
        (7, "moons_cosine", "parent"), (7, "moons_cosine", "change"),
        (8, "linreg_tiny", "change"), (8, "linreg_tiny", "parent"),
        (8, "moons_cosine", "change"), (8, "moons_cosine", "parent"),
    ]
    report = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert report["parent"] == f"id-{tmp_path / 'parent'}"
    assert report["command"].endswith("perfbench/run.py --workload <name> --seed <seed> --seconds 2 --trace 0")
    assert list(report["workloads"]) == ["linreg_tiny", "moons_cosine"]
    assert [run["first"] for run in report["workloads"]["linreg_tiny"]["runs"]] == ["parent", "change"]
    assert report["workloads"]["linreg_tiny"]["metrics"]["steps_per_s"]["parent"]["median"] == 107.5
    assert report["tuner_schedule_ratio"] is None  # no moons_tuner
