import csv
import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadtune.cli import main, write_trace
from quadtune.config import RunConfig
from quadtune.datasets import DATASETS
from quadtune.errors import InvalidArgumentError, QuadtuneError
from quadtune.models import Model
from quadtune.optim import Optimizer
from quadtune.quadprobe import epsilon_bound, probe_points
from quadtune.runner import CSV_COLUMNS, LR_POLICIES, MODELS, OPTIMIZERS, RunRecord, TrainingRun
from quadtune.schedules import lr_at
from quadtune.tuner import LearningRateTuner

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, raw, name="cfg.json"):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w") as f:
        json.dump(raw, f)
    return path


def schedule_raw(tmp_path, **overrides):
    raw = {
        "dataset": {"kind": "blobs", "n": 400, "k": 2, "sep": 5.0, "seed": 3},
        "model": {"kind": "logreg"},
        "optimizer": {"kind": "sgd", "minibatch_size": 32},
        "lr_policy": {"kind": "schedule", "variant": "cosine", "seed_lr": 0.5},
        "epochs": 2,
        "seeds": [1, 2],
        "out_dir": os.path.join(str(tmp_path), "out"),
    }
    raw.update(overrides)
    return raw


def tuner_raw(tmp_path, **overrides):
    raw = {
        "dataset": {"kind": "moons", "n": 600, "noise": 0.15, "seed": 4},
        "model": {"kind": "mlp", "hidden": [16]},
        "optimizer": {"kind": "momentum", "momentum": 0.9, "minibatch_size": 32},
        "lr_policy": {
            "kind": "tuner", "seed_lr": 0.1, "explore_fraction": 0.3,
            "recompute_window": 5, "superbatch_size": 4, "n_probes": 5,
        },
        "epochs": 4,
        "seeds": [1],
        "out_dir": os.path.join(str(tmp_path), "out"),
    }
    raw.update(overrides)
    return raw


LINREG_DATA = {"kind": "linreg", "n": 600, "dim": 4, "noise": 0.1, "seed": 4}
LINREG_COSINE = {"dataset": LINREG_DATA, "model": {"kind": "linreg"},
                 "lr_policy": {"kind": "schedule", "variant": "cosine", "seed_lr": 0.05}}
# The bowl ignores its rows and every seed starts at theta0, so its seeds train to the same bits.
BOWL = {"dataset": {"kind": "bowl", "n": 64}, "optimizer": {"kind": "adam", "minibatch_size": 8}, "epochs": 20,
        "model": {"kind": "bowl", "matrix": [[4.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]], "theta0": [1.0, -2.0, 0.5]}}
# 4 seeds of a [2, 128, 128, 2] Mlp (17154 parameters): a cohort of 3 fits BLOCK_ELEMENTS, then seed 4 alone.
TWO_COHORTS = {"model": {"kind": "mlp", "hidden": [128, 128]}, "seeds": [1, 2, 3, 4]}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestConfig:
    def test_round_trip_idempotent(self, tmp_path):
        raw = schedule_raw(tmp_path)
        path = write_config(tmp_path, raw)
        cfg = RunConfig.from_json_file(path)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_parse_error_reports_line(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as f:
            f.write('{\n  "dataset": {,}\n}\n')
        with pytest.raises(InvalidArgumentError, match="line 2"):
            RunConfig.from_json_file(path)

    def test_missing_keys_rejected(self):
        with pytest.raises(InvalidArgumentError, match="lr_policy"):
            RunConfig.from_dict({"dataset": {"kind": "moons"}, "model": {"kind": "mlp"},
                                 "optimizer": {"kind": "sgd"}, "epochs": 1, "seeds": [1]})

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(schedule_raw(tmp_path, seeds=[]))
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(schedule_raw(tmp_path, epochs=0))
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(schedule_raw(tmp_path, model={"kind": "cnn"}))
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(schedule_raw(tmp_path, lr_policy={"kind": "schedule", "variant": "nope"}))


    def test_shipped_configs_load(self):
        # The README's example, its cosine variant and every benchmark workload
        # go through the same key maps as any other config.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        cosine = json.loads(re.search(r'`(\{"kind": "schedule".*?\})`', readme).group(1))
        assert RunConfig.from_dict(example).lr_policy["kind"] == "tuner"
        assert RunConfig.from_dict(dict(example, lr_policy=cosine)).lr_policy["variant"] == "cosine"
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert set(workloads) == {w["name"] for w in benchmark["workloads"]}
        for workload in workloads.values():
            RunConfig.from_dict(workload.config(11, "out"))

    def test_committed_configs_load_and_are_quoted_in_the_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert paths
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert f"```json\n{text}```" in readme, f"{path.name} is not quoted in the README"
            RunConfig.from_json_file(str(path))

    def test_readme_lists_every_key_of_every_kind(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        tables = {"dataset": DATASETS, "model": MODELS, "optimizer": OPTIMIZERS, "lr_policy": LR_POLICIES}
        listed = {family: set() for family in tables}
        for family, kinds, keys in re.findall(r"^\| (\w+) \| (.*?) \| (.*?) \|", readme, re.M):
            if family not in tables:
                continue
            for kind in re.findall(r"`(\w+)`", kinds):
                assert set(re.findall(r"`(\w+)`", keys)) == set(tables[family][kind][1]), (family, kind)
                listed[family].add(kind)
        assert listed == {family: set(table) for family, table in tables.items()}


class TestTrainCommand:
    def test_writes_traces_and_summary(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path))
        assert main(["train", "--config", path, "--quiet"]) == 0
        out = os.path.join(str(tmp_path), "out")
        rows = read_csv(os.path.join(out, "trace_seed1.csv"))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 20  # 2 epochs x 10 batches
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert {s["seed"] for s in summary["per_seed"]} == {1, 2}
        assert "final_test_acc" in summary["aggregate"]

    def test_blank_optional_fields(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path))
        main(["train", "--config", path, "--quiet"])
        rows = read_csv(os.path.join(str(tmp_path), "out", "trace_seed1.csv"))
        header, first = rows[0], rows[1]
        record = dict(zip(header, first))
        assert record["superbatch_loss"] == ""
        assert record["test_loss"] == ""
        assert record["event"] == ""
        assert record["probe_fwd"] == "0"

    def test_cells_read_back_exactly(self, tmp_path):
        record = RunRecord(step=3, epoch=0, lr=np.float64(0.1), train_loss=np.float64(1 / 3),
                           superbatch_loss=-0.0, test_loss=float("nan"), test_acc=None, probe_fwd=7,
                           event="accept;window")
        path = os.path.join(str(tmp_path), "trace.csv")
        write_trace(path, [record])
        with open(path, "rb") as f:
            assert f.read().endswith(b"\r\n")
        header, row = read_csv(path)
        cells = dict(zip(header, row))
        assert cells["step"] == "3" and cells["probe_fwd"] == "7" and cells["event"] == "accept;window"
        assert cells["test_acc"] == ""
        for name in ("lr", "train_loss", "superbatch_loss", "test_loss"):
            written = np.float64(getattr(record, name))
            assert np.array_equal(np.float64(float(cells[name])).view(np.int64), written.view(np.int64)), name

    def test_tuner_trace_has_events_at_boundaries(self, tmp_path):
        path = write_config(tmp_path, tuner_raw(tmp_path))
        assert main(["train", "--config", path, "--quiet"]) == 0
        rows = read_csv(os.path.join(str(tmp_path), "out", "trace_seed1.csv"))
        header = rows[0]
        body = [dict(zip(header, r)) for r in rows[1:]]
        window = 5
        for row in body:
            step = int(row["step"])
            if step > 0 and step % window == 0:
                assert row["event"] != ""

    def test_replay_byte_identical(self, tmp_path):
        raw = tuner_raw(tmp_path)
        path = write_config(tmp_path, raw)
        out_a = os.path.join(str(tmp_path), "a")
        out_b = os.path.join(str(tmp_path), "b")
        assert main(["train", "--config", path, "--out", out_a, "--quiet"]) == 0
        assert main(["train", "--config", path, "--out", out_b, "--quiet"]) == 0
        bytes_a = open(os.path.join(out_a, "trace_seed1.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "trace_seed1.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_each_trace_is_written_when_its_seed_ends(self, tmp_path, monkeypatch, capsys):
        # A [2, 256, 256, 2] Mlp has 67074 parameters, over BLOCK_ELEMENTS, so its seeds train in
        # cohorts of one: each one trains to its end before the next.
        raw = schedule_raw(tmp_path, seeds=[1, 2, 3], dataset={"kind": "moons", "n": 200, "noise": 0.15, "seed": 4},
                           model={"kind": "mlp", "hidden": [256, 256]}, lr_policy=dict(COSINE, seed_lr=0.05))
        path = write_config(tmp_path, raw)
        assert main(["train", "--config", path, "--out", os.path.join(str(tmp_path), "full"), "--quiet"]) == 0
        out = Path(raw["out_dir"])
        run = TrainingRun.run
        written = []

        def run_or_fail(self):
            written.append(sorted(p.name for p in out.glob("*")) if out.exists() else [])
            if self.seed == 3:
                raise QuadtuneError("seed 3 fails")
            return run(self)

        monkeypatch.setattr(TrainingRun, "run", run_or_fail)
        assert main(["train", "--config", path, "--quiet"]) == 2
        assert capsys.readouterr().err == "error: seed 3 fails\n"
        assert written == [[], ["trace_seed1.csv"], ["trace_seed1.csv", "trace_seed2.csv"]]
        assert sorted(p.name for p in out.glob("*")) == ["trace_seed1.csv", "trace_seed2.csv"]  # no summary.json
        for name in ("trace_seed1.csv", "trace_seed2.csv"):
            assert (out / name).read_bytes() == Path(tmp_path, "full", name).read_bytes()

    @pytest.mark.parametrize("failures,error,stepped,kept,model", [
        ({(3, 40)}, "seed 3 fails", {1, 2, 3}, ["trace_seed1.csv", "trace_seed2.csv"], {}),
        ({(2, 40)}, "seed 2 fails", {1, 2, 3}, ["trace_seed1.csv"], {}),
        ({(3, 10), (2, 40)}, "seed 2 fails", {1, 2, 3}, ["trace_seed1.csv"], {}),
        ({(1, 40), (3, 10)}, "seed 1 fails", {1, 2, 3}, [], {}),
        ({(2, 0)}, "seed 2 fails", {1, 2}, ["trace_seed1.csv"], {}),
        ({(1, 0), (2, 0)}, "seed 1 fails", {1}, [], {}),
        ({(3, 40)}, "seed 3 fails", {1, 2, 3}, ["trace_seed1.csv", "trace_seed2.csv"], LINREG_COSINE),
        ({(3, 10), (2, 40)}, "seed 2 fails", {1, 2, 3}, ["trace_seed1.csv"], LINREG_COSINE),
        ({(1, 40), (3, 10)}, "seed 1 fails", {1, 2, 3}, [], LINREG_COSINE),
        ({(4, 0)}, "seed 4 fails", {1, 2, 3, 4}, ["trace_seed1.csv", "trace_seed2.csv", "trace_seed3.csv"],
         TWO_COHORTS),
        ({(2, 10)}, "seed 2 fails", {1, 2, 3}, ["trace_seed1.csv"], TWO_COHORTS),
        ({(4, 5), (3, 10)}, "seed 3 fails", {1, 2, 3}, ["trace_seed1.csv", "trace_seed2.csv"], TWO_COHORTS),
    ], ids=["seed-3-at-step-40", "seed-2-at-step-40", "seed-2-at-step-40-after-seed-3-at-10",
            "seed-1-at-step-40-after-seed-3-at-10", "seed-2-at-step-0", "seed-1-at-step-0",
            "linreg-seed-3-at-step-40", "linreg-seed-2-at-step-40-after-seed-3-at-10",
            "linreg-seed-1-at-step-40-after-seed-3-at-10", "two-cohorts-seed-4-at-step-0",
            "two-cohorts-seed-2-at-step-10", "two-cohorts-seed-3-at-step-10-after-seed-4-at-5"])
    def test_a_failing_seed_ends_a_cohort_as_if_the_seeds_ran_in_turn(
        self, tmp_path, monkeypatch, capsys, failures, error, stepped, kept, model
    ):
        # logreg (an Mlp) and linreg take a seed axis, so the 3 seeds stack and end together,
        # after 50 or more steps. The earliest seed that raises decides the error, the seeds before
        # it keep their traces, and a failure at the first seed's first step ends the command
        # before another seed is built. TWO_COHORTS trains seeds 1-3 as one cohort, then seed 4,
        # which is built only when the first cohort has ended.
        raw = schedule_raw(tmp_path, **dict({"seeds": [1, 2, 3], "epochs": 5}, **model))
        path = write_config(tmp_path, raw)
        assert main(["train", "--config", path, "--out", os.path.join(str(tmp_path), "full"), "--quiet"]) == 0
        out = Path(raw["out_dir"])
        record_step = TrainingRun.record_step
        seeds = set()

        def record_or_fail(self, outcome):
            seeds.add(self.seed)
            if (self.seed, len(self.records)) in failures:
                raise QuadtuneError(f"seed {self.seed} fails")
            return record_step(self, outcome)

        monkeypatch.setattr(TrainingRun, "record_step", record_or_fail)
        assert main(["train", "--config", path, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert seeds == stepped
        assert sorted(p.name for p in out.glob("*")) == kept  # no summary.json
        for name in kept:
            assert (out / name).read_bytes() == Path(tmp_path, "full", name).read_bytes()

    @pytest.mark.parametrize("stage,error", [
        ("close_window", "seed 2 fails"), ("finish_step", "seed 2 fails"), ("gradient", "non-finite gradient"),
    ])
    def test_a_seed_failing_inside_a_cohort_step_ends_the_command_as_if_the_seeds_ran_in_turn(
        self, tmp_path, monkeypatch, capsys, stage, error
    ):
        # Three linreg Adam tuner seeds stack. Seed 2 fails at step 30, a window close: in its
        # window close, in its probe round, or with a non-finite gradient, poisoned once per run,
        # whether it is seed 2's row of the stacked gradient or its own. The faults sit in code
        # a seed run alone runs too. Seed 1 ends with the trace of its run alone, and seed 3
        # leaves no trace.
        raw = tuner_raw(tmp_path, seeds=[1, 2, 3], dataset=LINREG_DATA, model={"kind": "linreg"},
                        optimizer={"kind": "adam", "minibatch_size": 16})
        path = write_config(tmp_path, raw)
        assert main(["train", "--config", path, "--out", os.path.join(str(tmp_path), "full"), "--quiet"]) == 0
        seed_of, at = {}, {}
        init, loss_and_gradient = TrainingRun.__init__, Model.loss_and_gradient
        close_window, finish_step = LearningRateTuner.close_window, LearningRateTuner.finish_step

        def tagged_init(self, *args):
            init(self, *args)
            seed_of[self.tuner] = self.seed

        def close_or_fail(self, step):
            if stage == "close_window" and (seed_of[self], step) == (2, 30):
                raise QuadtuneError("seed 2 fails")
            outcome = close_window(self, step)
            at[seed_of[self]] = step
            return outcome

        def finish_or_fail(self, outcome, *args):
            if stage == "finish_step" and (seed_of[self], outcome.step) == (2, 30):
                raise QuadtuneError("seed 2 fails")
            return finish_step(self, outcome, *args)

        def poisoned(self, x, y):
            losses, grads = loss_and_gradient(self, x, y)
            if stage == "gradient" and at.get(2) == 30:  # seed 2's call, or the stack's, after its close
                (grads[1] if x.ndim == 3 else grads)[0] = np.nan
                del at[2]
            return losses, grads

        monkeypatch.setattr(TrainingRun, "__init__", tagged_init)
        monkeypatch.setattr(LearningRateTuner, "close_window", close_or_fail)
        monkeypatch.setattr(LearningRateTuner, "finish_step", finish_or_fail)
        monkeypatch.setattr(Model, "loss_and_gradient", poisoned)
        assert main(["train", "--config", path, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        out = Path(raw["out_dir"])
        assert sorted(p.name for p in out.glob("*")) == ["trace_seed1.csv"]
        assert (out / "trace_seed1.csv").read_bytes() == Path(tmp_path, "full", "trace_seed1.csv").read_bytes()

    @pytest.mark.parametrize("model", [{}, TWO_COHORTS], ids=["one-cohort", "two-cohorts"])
    def test_a_fault_of_the_cohort_alone_ends_the_command_without_its_traces(
        self, tmp_path, monkeypatch, capsys, model
    ):
        # A stacked commit (one lr per seed) that raises fails no seed run alone: seeds 1-3 train
        # again one after another and all finish, and then the cohort's own error ends the
        # command. No trace is written, and seed 4 of TWO_COHORTS is never built.
        raw = schedule_raw(tmp_path, **dict({"seeds": [1, 2, 3]}, **model))
        path = write_config(tmp_path, raw)
        commit_step, run = Optimizer.commit_step, TrainingRun.run
        ran = []

        def lone_commit_only(self, params, lr, pending):
            if isinstance(lr, list):
                raise QuadtuneError("stacked commit fails")
            return commit_step(self, params, lr, pending)

        def counted_run(self):
            records = run(self)
            ran.append((self.seed, len(records)))
            return records

        monkeypatch.setattr(Optimizer, "commit_step", lone_commit_only)
        monkeypatch.setattr(TrainingRun, "run", counted_run)
        assert main(["train", "--config", path, "--quiet"]) == 2
        assert capsys.readouterr().err == "error: stacked commit fails\n"
        assert ran == [(1, 20), (2, 20), (3, 20)]  # each seed trains its 2 epochs of 10 minibatches
        assert not any(Path(raw["out_dir"]).glob("*"))  # no trace and no summary.json

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path))
        assert main(["train", "--config", path, "--seed", "7", "--quiet"]) == 0
        out = os.path.join(str(tmp_path), "out")
        assert os.path.exists(os.path.join(out, "trace_seed7.csv"))
        assert not os.path.exists(os.path.join(out, "trace_seed1.csv"))


class TestRunSeeds:
    # A run seed is any non-negative integer, and distinct seeds are distinct runs.
    @pytest.mark.parametrize("seeds,argv", [
        ([-1, 2**64 - 1], []),
        ([1], ["--seed", "-1"]),
    ], ids=["negative-in-config", "negative-override"])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys, seeds, argv):
        raw = schedule_raw(tmp_path, seeds=seeds)
        path = write_config(tmp_path, raw)
        assert main(["train", "--config", path, *argv, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error: seeds must be")
        assert not os.path.exists(raw["out_dir"])

    def test_seeds_equal_modulo_2_to_the_64_are_different_runs(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path, seeds=[0, 2**64]))
        assert main(["train", "--config", path, "--quiet"]) == 0
        traces = [Path(tmp_path, "out", f"trace_seed{seed}.csv").read_bytes() for seed in (0, 2**64)]
        assert len({hashlib.sha256(trace).hexdigest() for trace in traces}) == 2

    @pytest.mark.parametrize("seed", [2**800, 10**300], ids=["2**800", "10**300"])
    def test_seed_too_long_for_its_file_name_exits_1_before_training(self, tmp_path, capsys, seed):
        raw = schedule_raw(tmp_path, seeds=[1, seed])
        assert main(["train", "--config", write_config(tmp_path, raw), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: seeds must be below 2**800, so that trace_seed<N>.csv is a valid file name\n")
        assert not os.path.exists(raw["out_dir"])

    def test_longest_seed_names_its_trace(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path, seeds=[2**800 - 1], epochs=1))
        assert main(["train", "--config", path, "--quiet"]) == 0
        assert Path(tmp_path, "out", f"trace_seed{2**800 - 1}.csv").is_file()


class TestExitCodes:
    def test_malformed_config_is_1(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as f:
            f.write("{ not json")
        assert main(["train", "--config", path, "--quiet"]) == 1

    def test_integer_too_long_to_read_is_1(self, tmp_path, capsys):
        raw = schedule_raw(tmp_path, epochs=0)
        path = os.path.join(str(tmp_path), "cfg.json")
        Path(path).write_text(json.dumps(raw).replace('"epochs": 0', '"epochs": ' + "9" * 5000))
        assert main(["train", "--config", path, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: Exceeds the limit (4300 digits)")
        assert not os.path.exists(raw["out_dir"])

    def test_unknown_kind_is_1(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path, model={"kind": "resnet"}))
        assert main(["train", "--config", path, "--quiet"]) == 1

    def test_missing_dataset_file_is_2(self, tmp_path):
        raw = schedule_raw(tmp_path, dataset={"kind": "idx", "images": "/nonexistent/images",
                                              "labels": "/nonexistent/labels"})
        path = write_config(tmp_path, raw)
        assert main(["train", "--config", path, "--quiet"]) == 2

    def test_oversized_superbatch_scan_is_1(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path))
        assert main(["sb-scan", "--config", path, "--sizes", "1000", "--quiet"]) == 1

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_is_1(self, tmp_path, capsys, trials):
        raw = schedule_raw(tmp_path)
        path = write_config(tmp_path, raw)
        assert main(["sb-scan", "--config", path, "--sizes", "1", "--trials", trials, "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: --trials must be a positive integer, not {trials}\n"
        assert not os.path.exists(raw["out_dir"])

    def test_diverging_sweep_is_2_without_numpy_warnings(self, tmp_path, capsys):
        # The seed lr overflows the first step; only the run's own error reaches stderr.
        path = write_config(tmp_path, tuner_raw(tmp_path, epochs=1))
        assert main(["sweep", "--config", path, "--values", "1e308", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: non-finite gradient\n"


COSINE = {"kind": "schedule", "variant": "cosine", "seed_lr": 0.1}

ONE_CYCLE = {"kind": "schedule", "variant": "one_cycle", "max_lr": 0.1, "momentum_range": [0.95, 0.85]}

STEP = {"kind": "schedule", "variant": "step", "lrs": [0.1, 0.01]}

# (family updated, or None for the top level; the update). Each one used to
# train on defaults and exit 0, or to end in a KeyError, ValueError or
# ZeroDivisionError traceback, or in a runtime error.
MALFORMED = [
    pytest.param("lr_policy", {"rolback": False}, id="rolback"),
    pytest.param("lr_policy", {"epsilon_treshold": 1.0}, id="epsilon_treshold"),
    pytest.param("model", {"hiden": [4]}, id="hiden"),
    pytest.param("optimizer", {"momentun": 0.9}, id="momentun"),
    pytest.param("dataset", {"nn": 100}, id="nn"),
    pytest.param(None, {"bogus_top": 1}, id="bogus_top"),
    pytest.param("lr_policy", {"variant": "cosine"}, id="variant-in-tuner"),
    pytest.param(None, {"lr_policy": dict(COSINE, recompute_window=5)}, id="recompute_window-in-cosine"),
    pytest.param(None, {"lr_policy": {"kind": "tuner", "explore_fraction": 0.3}}, id="missing-seed_lr"),
    pytest.param(None, {"lr_policy": {"kind": "schedule", "variant": "constant"}}, id="missing-constant-lr"),
    pytest.param(None, {"dataset": {"kind": "idx", "labels": "labels.idx"}}, id="idx-without-images"),
    pytest.param(None, {"dataset": {"kind": "idx", "images": "images.idx", "labels": "labels.idx",
                                    "test_labels": "test_labels.idx"}}, id="idx-test_labels-alone"),
    pytest.param("dataset", {"n": "abc"}, id="n-string"),
    pytest.param("model", {"hidden": "16"}, id="hidden-string"),
    pytest.param("model", {"hidden": [1.5]}, id="hidden-float-element"),
    pytest.param("lr_policy", {"rollback": "false"}, id="rollback-string"),
    pytest.param("lr_policy", {"superbatch_size": 2.5}, id="superbatch_size-float"),
    pytest.param(None, {"epochs": True}, id="epochs-bool"),
    pytest.param(None, {"seeds": [True]}, id="seeds-bool"),
    pytest.param(None, {"seeds": [1, 1]}, id="seeds-duplicate"),
    pytest.param(None, {"eval_every": True}, id="eval_every-bool"),
    pytest.param(None, {"out_dir": None}, id="out_dir-null"),
    pytest.param("dataset", {"seed": -1}, id="dataset-seed-negative"),
    pytest.param("dataset", {"noise": -1.0}, id="moons-noise-negative"),
    pytest.param("model", {"hidden": [0]}, id="hidden-zero"),
    pytest.param("model", {"hidden": [-3]}, id="hidden-negative"),
    pytest.param("lr_policy", {"seed_lr": float("nan")}, id="seed_lr-nan"),
    pytest.param("lr_policy", {"epsilon_threshold": float("nan")}, id="epsilon_threshold-nan"),
    pytest.param("lr_policy", {"rollback_factor": float("inf")}, id="rollback_factor-infinity"),
    pytest.param(None, {"optimizer": {"kind": "sgd"}, "lr_policy": ONE_CYCLE}, id="momentum_range-on-sgd"),
    pytest.param(None, {"lr_policy": dict(ONE_CYCLE, div_factor=0.0)}, id="one_cycle-div_factor-zero"),
    pytest.param(None, {"lr_policy": dict(ONE_CYCLE, final_div=0.0)}, id="one_cycle-final_div-zero"),
    pytest.param(None, {"lr_policy": dict(COSINE, kind="cyclic")}, id="lr_policy-unknown-kind"),
    pytest.param(None, {"lr_policy": dict(COSINE, variant="tuner")}, id="schedule-variant-tuner"),
]


@pytest.mark.parametrize("family,update", MALFORMED)
def test_config_that_says_something_else_exits_1(tmp_path, capsys, family, update):
    raw = tuner_raw(tmp_path)
    (raw if family is None else raw[family]).update(update)
    path = write_config(tmp_path, raw)
    assert main(["train", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["train"],
    ["sweep", "--values", "0.1"],
    ["range-test", "--lr-min", "0.01", "--lr-max", "0.1"],
    ["sb-scan", "--sizes", "1"],
    ["quadcheck", "--at-step", "3"],
], ids=lambda command: command[0])
def test_every_command_rejects_an_unknown_key(tmp_path, capsys, command):
    raw = tuner_raw(tmp_path)
    raw["lr_policy"]["rolback"] = False
    path = write_config(tmp_path, raw)
    assert main([command[0], "--config", path, *command[1:], "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: unknown key 'rolback' in tuner lr_policy\n"
    assert not os.path.exists(raw["out_dir"])


@pytest.mark.parametrize("overrides,rolls_back,steps_diverge", [
    pytest.param({"lr_policy": COSINE}, False, False, id="moons-cosine-mlp"),
    pytest.param({}, True, True, id="moons-tuner-mlp"),
    pytest.param({"optimizer": {"kind": "adamw", "weight_decay": 0.01, "minibatch_size": 32}}, True, True,
                 id="moons-adamw-tuner"),
    pytest.param({"optimizer": {"kind": "sgd", "weight_decay": 0.01, "minibatch_size": 32}}, True, True,
                 id="moons-sgd-decay-tuner"),
    pytest.param({"optimizer": {"kind": "momentum", "momentum": 0.9, "weight_decay": 0.01, "minibatch_size": 32}},
                 True, True, id="moons-momentum-decay-tuner"),
    # The momentum is set at every step.
    pytest.param({"lr_policy": ONE_CYCLE}, False, False, id="moons-one-cycle-momentum-range"),
    pytest.param(LINREG_COSINE, False, False, id="linreg"),
    pytest.param({"dataset": LINREG_DATA, "model": {"kind": "linreg"},
                  "optimizer": {"kind": "adam", "minibatch_size": 16}}, True, True, id="linreg-adam-tuner"),
    pytest.param(dict(BOWL, lr_policy={"kind": "schedule", "variant": "cosine", "seed_lr": 0.05}), False, False,
                 id="bowl-cosine"),
    pytest.param(dict(BOWL, lr_policy={"kind": "tuner", "seed_lr": 0.05, "recompute_window": 5, "superbatch_size": 2}),
                 True, False, id="bowl-adam-tuner"),
    # 4 x 17154 parameters exceed BLOCK_ELEMENTS (65536): seeds 1-3 stack, and seed 4 trains alone.
    pytest.param(TWO_COHORTS, True, False, id="mlp-stack-over-the-block"),
])
def test_each_seed_of_a_command_equals_that_seed_run_alone(tmp_path, monkeypatch, overrides, rolls_back,
                                                            steps_diverge):
    # steps_diverge: seeds roll back at different steps, so at some stacked step their step counts
    # differ, and Adam's bias corrections take a column of them.
    raw = tuner_raw(tmp_path, **dict({"seeds": [1, 2, 3]}, **overrides))
    path = write_config(tmp_path, raw)
    stacked, step_counts = [], set()
    stack, commit_step = Model.stack.__func__, Optimizer.commit_step

    def counted_stack(cls, models):
        stacked.append(len(models))
        return stack(cls, models)

    def spied_commit(self, params, lr, pending):
        if self.seeds:
            step_counts.add(len({seed.step_count for seed in self.seeds}) > 1)
        return commit_step(self, params, lr, pending)

    monkeypatch.setattr(Model, "stack", classmethod(counted_stack))
    monkeypatch.setattr(Optimizer, "commit_step", spied_commit)
    assert main(["train", "--config", path, "--quiet"]) == 0
    assert stacked == [3]  # every case stacks one cohort of 3 seeds
    assert step_counts == ({False, True} if steps_diverge else {False})
    out = Path(raw["out_dir"])
    blocks = json.loads((out / "summary.json").read_text(encoding="utf-8"))["per_seed"]
    assert [block["seed"] for block in blocks] == raw["seeds"]
    if rolls_back:
        assert sum(block["tuner_counters"]["rollbacks"] for block in blocks) > 0
    for seed, block in zip(raw["seeds"], blocks):
        alone = tmp_path / f"alone{seed}"
        assert main(["train", "--config", path, "--seed", str(seed), "--out", str(alone), "--quiet"]) == 0
        assert (out / f"trace_seed{seed}.csv").read_bytes() == (alone / f"trace_seed{seed}.csv").read_bytes()
        [alone_block] = json.loads((alone / "summary.json").read_text(encoding="utf-8"))["per_seed"]
        assert json.dumps(block, sort_keys=True) == json.dumps(alone_block, sort_keys=True)


# Schedule settings out of range; each used to train, or to fail only at its first commit.
OUT_OF_RANGE = [
    pytest.param(dict(ONE_CYCLE, momentum_range=[1.5, 0.5]), id="one_cycle-momentum-1.5"),
    pytest.param(dict(ONE_CYCLE, up_frac=-0.1, down_frac=0.55, final_frac=0.55), id="one_cycle-up_frac-negative"),
    pytest.param(dict(ONE_CYCLE, max_lr=-1.0), id="one_cycle-max_lr-negative"),
    pytest.param(dict(COSINE, warmup_steps=-5), id="cosine-warmup_steps-negative"),
    pytest.param(dict(COSINE, warmup_epochs=-0.01), id="cosine-warmup_epochs-negative"),
    pytest.param(dict(COSINE, seed_lr=0.0), id="cosine-seed_lr-zero"),
    pytest.param(dict(COSINE, variant="linear", warmup_epochs=-1.0), id="linear-warmup_epochs-negative"),
    pytest.param({"kind": "schedule", "variant": "inverse_sqrt", "peak_lr": 0.0}, id="inverse_sqrt-peak_lr-zero"),
    pytest.param({"kind": "schedule", "variant": "trapezoid", "max_lr": 0.1, "warm_frac": -0.1, "flat_frac": 1.0},
                 id="trapezoid-warm_frac-negative"),
    pytest.param({"kind": "schedule", "variant": "trapezoid", "max_lr": 0.0}, id="trapezoid-max_lr-zero"),
    pytest.param({"kind": "schedule", "variant": "constant", "lr": -1.0}, id="constant-lr-negative"),
    # tuner_raw trains 480 moons rows in 15 minibatches per epoch for 4 epochs: 60 steps.
    pytest.param(dict(STEP, boundaries=[0]), id="step-boundary-0"),
    pytest.param(dict(STEP, boundaries=[-5]), id="step-boundary-negative"),
    pytest.param(dict(STEP, boundaries=[60]), id="step-boundary-total_steps"),
    pytest.param(dict(STEP, boundaries_epochs=[0.01]), id="step-boundaries_epochs-rounds-to-0"),
    pytest.param(dict(COSINE, warmup_steps=60), id="cosine-warmup_steps-total_steps"),
    pytest.param(dict(COSINE, warmup_steps=59), id="cosine-warmup_steps-total_steps-less-1"),
    pytest.param(dict(COSINE, variant="linear", warmup_steps=59), id="linear-warmup_steps-total_steps-less-1"),
    pytest.param({"kind": "schedule", "variant": "inverse_sqrt", "peak_lr": 0.1, "warmup_steps": 59},
                 id="inverse_sqrt-warmup_steps-total_steps-less-1"),
    pytest.param(dict(COSINE, variant="linear", warmup_epochs=4.0), id="linear-warmup_epochs-the-whole-run"),
    pytest.param({"kind": "schedule", "variant": "inverse_sqrt", "peak_lr": 0.1, "warmup_steps": 60},
                 id="inverse_sqrt-warmup_steps-total_steps"),
]

# The commands that build a run, each on the 60 steps of tuner_raw.
RUN_COMMANDS = [
    ["train"],
    ["range-test", "--lr-min", "0.01", "--lr-max", "0.1"],
    ["sb-scan", "--sizes", "1"],
    ["quadcheck", "--at-step", "3"],
]


# Optimizer, data, run and tuner settings out of range on tuner_raw, each with its config error.
SETTING_OUT_OF_RANGE = [
    pytest.param("optimizer", {"weight_decay": -1.0}, "weight_decay must be nonnegative", id="weight_decay-negative"),
    pytest.param("optimizer", {"momentum": 1.0}, "momentum mu must be in [0, 1)", id="momentum-1"),
    pytest.param(None, {"optimizer": {"kind": "adam", "beta1": 1.0}}, "betas must be in [0, 1)", id="adam-beta1-1"),
    pytest.param(None, {"optimizer": {"kind": "adam", "eps_stab": -1.0}}, "eps_stab must be positive",
                 id="adam-eps_stab-negative"),
    pytest.param(None, {"optimizer": {"kind": "adamw", "eps_stab": -1.0}}, "eps_stab must be positive",
                 id="adamw-eps_stab-negative"),
    # At eps_stab 0 a gradient entry of exactly 0 gets the direction 0/0.
    pytest.param(None, {"optimizer": {"kind": "adam", "eps_stab": 0.0}}, "eps_stab must be positive",
                 id="adam-eps_stab-0"),
    pytest.param(None, {"optimizer": {"kind": "adamw", "eps_stab": 0.0}}, "eps_stab must be positive",
                 id="adamw-eps_stab-0"),
    pytest.param("optimizer", {"minibatch_size": 0}, "minibatch_size must be >= 1", id="minibatch_size-0"),
    # 30 moons points leave 24 training rows, fewer than one minibatch of 32.
    pytest.param("dataset", {"n": 30}, "dataset smaller than one minibatch", id="moons-n-30"),
    pytest.param(None, {"eval_every": 0}, "eval_every must be a positive integer or null", id="eval_every-0"),
    pytest.param("lr_policy", {"recompute_window": 0}, "recompute_window must be >= 1", id="recompute_window-0"),
    pytest.param("lr_policy", {"superbatch_size": 0}, "superbatch_size must be >= 1", id="superbatch_size-0"),
    pytest.param("lr_policy", {"epsilon_threshold": 0.0}, "epsilon_threshold_r must be positive",
                 id="epsilon_threshold-0"),
    pytest.param("lr_policy", {"span_fraction": 0.0}, "span_fraction must be in (0, 1]", id="span_fraction-0"),
    pytest.param("lr_policy", {"explore_fraction": -0.1}, "explore_budget must be nonnegative",
                 id="explore_fraction-negative"),
]


def exits_1_before_the_first_step(monkeypatch, capsys, command, raw, path) -> str:
    """Run ``command`` on the config at ``path``; it must exit 1, take no step and make no
    ``out_dir``. Returns its stderr."""
    monkeypatch.setattr(TrainingRun, "step_once", lambda run: pytest.fail("a step was taken"))
    assert main([command[0], "--config", path, *command[1:], "--quiet"]) == 1
    assert not os.path.exists(raw["out_dir"])
    return capsys.readouterr().err


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("policy", OUT_OF_RANGE)
def test_a_schedule_out_of_range_exits_1_before_the_first_step(tmp_path, capsys, monkeypatch, command, policy):
    raw = tuner_raw(tmp_path, lr_policy=policy)
    err = exits_1_before_the_first_step(monkeypatch, capsys, command, raw, write_config(tmp_path, raw))
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("family,update,message", SETTING_OUT_OF_RANGE)
def test_a_setting_out_of_range_exits_1_before_the_first_step(tmp_path, capsys, monkeypatch, command, family, update,
                                                              message):
    raw = tuner_raw(tmp_path)
    (raw if family is None else raw[family]).update(update)
    err = exits_1_before_the_first_step(monkeypatch, capsys, command, raw, write_config(tmp_path, raw))
    assert err == f"config error: {message}\n"


def test_step_boundaries_inside_the_run_train(tmp_path):
    # A 60-step run takes boundaries from 1 to 59: each lr is used for at least one step.
    raw = tuner_raw(tmp_path, lr_policy=dict(STEP, boundaries=[1, 59], lrs=[0.1, 0.05, 0.01]))
    assert main(["train", "--config", write_config(tmp_path, raw), "--quiet"]) == 0
    with open(os.path.join(raw["out_dir"], "trace_seed1.csv")) as f:
        lrs = [float(row["lr"]) for row in csv.DictReader(f)]
    assert lrs == [0.1] + [0.05] * 58 + [0.01]


@pytest.mark.parametrize("policy,warmup,last_lr", [
    (dict(COSINE, warmup_steps=58), 58, 0.1 * 0.5 * (1.0 + math.cos(math.pi / 2))),  # progress 1/2 at the last step
    (dict(COSINE, variant="linear", warmup_epochs=3.0), 45, 0.1 * (1.0 - 14 / 15)),
], ids=["cosine-58-of-60", "linear-45-of-60"])
def test_a_warmup_that_ends_inside_the_run_trains(tmp_path, policy, warmup, last_lr):
    raw = tuner_raw(tmp_path, lr_policy=policy)
    assert main(["train", "--config", write_config(tmp_path, raw), "--quiet"]) == 0
    with open(os.path.join(raw["out_dir"], "trace_seed1.csv")) as f:
        lrs = [float(row["lr"]) for row in csv.DictReader(f)]
    assert lrs[:warmup] == [0.1 * (step + 1) / warmup for step in range(warmup)]
    assert lrs[-1] == last_lr


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("key,value", [("superbatch_size", 4), ("n_probes", 7), ("epsilon_threshold", 1e-3),
                                       ("span_fraction", 0.5)])
def test_a_schedule_policy_takes_no_probe_key(tmp_path, capsys, monkeypatch, command, key, value):
    # Probe settings belong to a tuner policy; a schedule run's quadcheck uses the tuner's defaults.
    raw = tuner_raw(tmp_path, lr_policy=dict(COSINE, **{key: value}))
    err = exits_1_before_the_first_step(monkeypatch, capsys, command, raw, write_config(tmp_path, raw))
    assert err == f"config error: unknown key '{key}' in cosine lr_policy\n"


@pytest.mark.parametrize("command,below", [
    (["train"], ""),
    (["sweep", "--values", "0.1,0.2"], ""),
    (["sweep", "--values", "0.1,0.2"], "seed_lr_0.2"),  # the second value's directory is a file
    (["range-test", "--lr-min", "0.01", "--lr-max", "0.1"], ""),
    (["sb-scan", "--sizes", "1"], ""),
    (["quadcheck", "--at-step", "3"], ""),
], ids=lambda value: value[0] if isinstance(value, list) else value)
def test_an_unwritable_out_dir_exits_2_before_anything_is_built(tmp_path, capsys, monkeypatch, command, below):
    monkeypatch.setattr(TrainingRun, "__init__", lambda *args: pytest.fail("a run was built"))
    blocker = tmp_path / "out" / below if below else tmp_path / "file"
    blocker.parent.mkdir(exist_ok=True)
    blocker.write_text("")
    out_dir = tmp_path / "out" if below else blocker / "out"
    path = write_config(tmp_path, tuner_raw(tmp_path, out_dir=str(out_dir)))
    assert main([command[0], "--config", path, *command[1:], "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: [Errno 20]") and str(blocker) in err
    assert sorted(os.listdir(tmp_path)) == (["cfg.json", "out"] if below else ["cfg.json", "file"])
    if below:
        assert os.listdir(tmp_path / "out") == [below]


def test_an_out_dir_without_write_permission_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(TrainingRun, "__init__", lambda *args: pytest.fail("a run was built"))
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))  # root may write anywhere
    raw = tuner_raw(tmp_path)
    assert main(["train", "--config", write_config(tmp_path, raw), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("io error: [Errno 13]")
    assert not os.path.exists(raw["out_dir"])


def _run_module(*args):
    """A fresh `python -m quadtune.cli` process on args, importing this tree's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "quadtune.cli", *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_the_module_entry_point_exits_with_each_outcome_code(tmp_path):
    raw = tuner_raw(tmp_path, epochs=1)
    done = _run_module("train", "--config", write_config(tmp_path, raw), "--quiet")
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(os.listdir(raw["out_dir"])) == ["summary.json", "trace_seed1.csv"]
    raw["lr_policy"]["rolback"] = False
    done = _run_module("train", "--config", write_config(tmp_path, raw), "--quiet")
    assert (done.returncode, done.stderr) == (1, "config error: unknown key 'rolback' in tuner lr_policy\n")
    done = _run_module("train", "--config", write_config(tmp_path, tuner_raw(tmp_path, epochs=1)), "--quiet",
                       "--out", os.path.join(raw["out_dir"], "summary.json"))
    assert done.returncode == 2 and done.stderr.startswith("io error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", [
    ["sb-scan", "--sizes", "abc"],
    ["sb-scan", "--sizes", "1,2.5"],
    ["sweep", "--values", "x"],
    ["sweep", "--values", "0.1,nan"],
], ids=lambda command: " ".join(command))
def test_bad_number_list_exits_1(tmp_path, capsys, command):
    path = write_config(tmp_path, tuner_raw(tmp_path))
    assert main([command[0], "--config", path, *command[1:], "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command[1]} must be") and "Traceback" not in err


class TestSweepCommand:
    def test_five_values_five_rows(self, tmp_path):
        path = write_config(tmp_path, tuner_raw(tmp_path, epochs=2))
        code = main(["sweep", "--config", path, "--values", "0.05,0.075,0.1,0.125,0.15", "--quiet"])
        assert code == 0
        rows = read_csv(os.path.join(str(tmp_path), "out", "sweep.csv"))
        assert rows[0] == ["value", "mean", "stddev"]
        assert len(rows) == 6

    def test_single_value_matches_train_summary(self, tmp_path):
        raw = tuner_raw(tmp_path, epochs=2)
        path = write_config(tmp_path, raw)
        assert main(["sweep", "--config", path, "--values", "0.1", "--quiet"]) == 0
        sweep_rows = read_csv(os.path.join(str(tmp_path), "out", "sweep.csv"))
        value_summary = json.load(open(os.path.join(str(tmp_path), "out", "seed_lr_0.1", "summary.json")))
        assert float(sweep_rows[1][1]) == pytest.approx(value_summary["aggregate"]["final_test_acc"]["mean"])

    @pytest.mark.parametrize("values", ["0.1,0.1000001", "0.1,0.1"])
    def test_values_sharing_a_directory_exit_1_and_write_nothing(self, tmp_path, capsys, values):
        raw = tuner_raw(tmp_path, epochs=1)
        assert main(["sweep", "--config", write_config(tmp_path, raw), "--values", values, "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: --values must differ in their first 6 significant digits; two of them write seed_lr_0.1\n")
        assert not os.path.exists(raw["out_dir"])

    def test_requires_tuner_policy(self, tmp_path):
        path = write_config(tmp_path, schedule_raw(tmp_path))
        assert main(["sweep", "--config", path, "--values", "0.1", "--quiet"]) == 1


class TestRangeTestCommand:
    def test_writes_curve_and_prints_suggestion(self, tmp_path, capsys):
        raw = {
            "dataset": {"kind": "bowl", "n": 64},
            "model": {"kind": "bowl", "diag": [1.0, 10.0], "theta0": [1.0, 1.0]},
            "optimizer": {"kind": "sgd", "minibatch_size": 8},
            "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.05},
            "epochs": 10,
            "seeds": [1],
            "out_dir": os.path.join(str(tmp_path), "out"),
        }
        path = write_config(tmp_path, raw)
        code = main(["range-test", "--config", path, "--lr-min", "0.01", "--lr-max", "0.15",
                     "--steps", "40", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested_max_lr" in out
        rows = read_csv(os.path.join(str(tmp_path), "out", "range_test.csv"))
        assert rows[0] == ["lr", "smoothed_loss"]
        assert len(rows) == 41

    def test_infinite_lr_max_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, tuner_raw(tmp_path))
        assert main(["range-test", "--config", path, "--lr-min", "0.01", "--lr-max", "inf", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: need 0 < lr_min < lr_max < inf\n"
        assert "exploded" not in captured.out


class TestSbScanCommand:
    def test_full_epoch_stddev_zero(self, tmp_path):
        raw = schedule_raw(tmp_path)
        path = write_config(tmp_path, raw)
        # 400 examples -> 320 train -> 10 minibatches of 32
        code = main(["sb-scan", "--config", path, "--sizes", "1,4,10", "--trials", "10", "--quiet"])
        assert code == 0
        rows = read_csv(os.path.join(str(tmp_path), "out", "sb_scan.csv"))
        assert rows[0] == ["size", "loss_stddev"]
        by_size = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert by_size[10] == 0.0  # only one possible full-epoch superbatch


class TestQuadcheckCommand:
    def test_structure_and_exact_fit_on_bowl(self, tmp_path, capsys):
        raw = {
            "dataset": {"kind": "bowl", "n": 64},
            "model": {"kind": "bowl", "diag": [1.0, 10.0], "theta0": [1.0, 1.0]},
            "optimizer": {"kind": "sgd", "minibatch_size": 8},
            "lr_policy": {"kind": "tuner", "seed_lr": 0.05, "explore_fraction": 0.5,
                          "recompute_window": 5, "superbatch_size": 2, "n_probes": 5},
            "epochs": 10,
            "seeds": [1],
            "out_dir": os.path.join(str(tmp_path), "out"),
        }
        path = write_config(tmp_path, raw)
        assert main(["quadcheck", "--config", path, "--at-step", "3", "--quiet"]) == 0
        rows = read_csv(os.path.join(str(tmp_path), "out", "quadcheck.csv"))
        assert rows[0] == ["epsilon", "measured_loss", "fitted_loss", "held_out"]
        body = rows[1:]
        assert len(body) == 5 + 4
        assert [r[3] for r in body] == ["0"] * 5 + ["1"] * 4
        for eps, measured, fitted, _ in body:
            assert abs(float(measured) - float(fitted)) <= 1e-9 * max(1.0, abs(float(measured)))
        out = capsys.readouterr().out
        assert "quad_min:" in out

    @pytest.mark.parametrize("at_step", [-1, 60])
    def test_a_step_outside_the_run_is_config_error(self, tmp_path, capsys, at_step):
        raw = tuner_raw(tmp_path)  # 15 minibatches per epoch, 4 epochs: steps 0 to 59
        path = write_config(tmp_path, raw)
        assert main(["quadcheck", "--config", path, "--at-step", str(at_step), "--quiet"]) == 1
        assert capsys.readouterr().err == "config error: at_step must lie within the configured run\n"
        assert not os.path.exists(raw["out_dir"])

    @pytest.mark.parametrize("seed_lr", [0.5, 0.05], ids=["bound-binds", "span-binds"])
    def test_a_schedule_run_probes_with_the_tuner_defaults(self, tmp_path, seed_lr):
        # At the scheduled lr: S = 100 minibatches capped at one epoch, n = 5, r = 1e-3, span 0.5.
        # The grid's half width is min(span·eta, bound): seed_lr 0.5 pins r, and 0.05 the span.
        raw = schedule_raw(tmp_path, lr_policy=dict(COSINE, seed_lr=seed_lr))
        path = write_config(tmp_path, raw)
        assert main(["quadcheck", "--config", path, "--at-step", "3", "--quiet"]) == 0
        body = read_csv(os.path.join(raw["out_dir"], "quadcheck.csv"))[1:]
        assert [r[3] for r in body] == ["0"] * 5 + ["1"] * 4

        run = TrainingRun(RunConfig.from_dict(raw), raw["seeds"][0])
        engine = run.engine
        assert engine.batches_per_epoch < 100
        run.advance_to(3)
        eta = lr_at(run.schedule, 3, run.total_steps)
        _, grads = engine.loss_and_gradient(*engine.batch_for_step(3))
        direction = run.optimizer.compute_direction(run.model.params, grads).direction
        loss_at_zero = engine.perturbed_loss(direction, eta, engine.draw_superbatch(engine.batches_per_epoch))
        assert float(body[2][1]) == loss_at_zero
        bound = epsilon_bound(1e-3, loss_at_zero)
        assert (bound < 0.5 * eta) == (seed_lr == 0.5)
        assert [float(r[0]) for r in body[:5]] == probe_points(eta, bound, 5, 0.5)
