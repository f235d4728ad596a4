import dataclasses
import json
import weakref

import numpy as np
import pytest

from quadtune import cli, runner
from quadtune.cli import write_trace
from quadtune.config import RunConfig
from quadtune.errors import InvalidArgumentError, QuadtuneError
from quadtune.models import Mlp
from quadtune.optim import Optimizer
from quadtune.runner import TrainingRun, aggregate_summaries, run_all_seeds, schedule_from_policy, tuner_config_from_policy
from quadtune.schedules import CosineDecay, StepSchedule, lr_at
from quadtune.tuner import EVENT_ROLLBACK


def schedule_cfg(**overrides):
    raw = {
        "dataset": {"kind": "blobs", "n": 400, "k": 2, "sep": 5.0, "seed": 3},
        "model": {"kind": "logreg"},
        "optimizer": {"kind": "sgd", "minibatch_size": 32},
        "lr_policy": {"kind": "schedule", "variant": "cosine", "seed_lr": 0.5},
        "epochs": 2,
        "seeds": [1],
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def tuner_cfg(**overrides):
    raw = {
        "dataset": {"kind": "moons", "n": 600, "noise": 0.15, "seed": 4},
        "model": {"kind": "mlp", "hidden": [16]},
        "optimizer": {"kind": "momentum", "momentum": 0.9, "minibatch_size": 32},
        "lr_policy": {
            "kind": "tuner", "seed_lr": 0.1, "explore_fraction": 0.3,
            "recompute_window": 5, "superbatch_size": 4, "n_probes": 5,
        },
        "epochs": 6,
        "seeds": [1, 2],
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def test_schedule_run_lr_matches_closed_form():
    cfg = schedule_cfg()
    run = TrainingRun(cfg, 1)
    records = run.run()
    spec = CosineDecay(0.5, warmup_steps=0)
    for r in records:
        assert abs(r.lr - lr_at(spec, r.step, run.total_steps)) <= 1e-12


def test_records_are_strictly_increasing_steps():
    run = TrainingRun(tuner_cfg(), 1)
    records = run.run()
    steps = [r.step for r in records]
    assert steps == sorted(set(steps))
    assert steps[0] == 0 and steps[-1] == run.total_steps - 1


def test_eval_cadence_default_once_per_epoch():
    cfg = schedule_cfg()
    run = TrainingRun(cfg, 1)
    records = run.run()
    eval_steps = [r.step for r in records if r.test_loss is not None]
    per_epoch = run.engine.batches_per_epoch
    assert eval_steps == [per_epoch - 1, 2 * per_epoch - 1]


def test_eval_cadence_override():
    cfg = schedule_cfg(eval_every=5)
    run = TrainingRun(cfg, 1)
    records = run.run()
    eval_steps = [r.step for r in records if r.test_loss is not None]
    assert all((s + 1) % 5 == 0 or s == run.total_steps - 1 for s in eval_steps)


def test_tuner_events_match_counters():
    cfg = tuner_cfg()
    run = TrainingRun(cfg, 1)
    records = run.run()
    counts = {}
    for r in records:
        for tag in filter(None, r.event.split(";")):
            counts[tag] = counts.get(tag, 0) + 1
    c = run.tuner.state.counters
    assert counts.get("phase_switch", 0) == 1
    assert counts.get("recompute_accept", 0) == c.accepts
    assert counts.get("recompute_reject_phase", 0) == c.rejects_phase
    assert counts.get("recompute_reject_saturation", 0) == c.rejects_saturation
    assert counts.get("recompute_reject_other", 0) == c.rejects_other
    assert counts.get("rollback", 0) == c.rollbacks


def test_coincident_events_share_one_cell():
    # 90 steps with explore fraction 0.3: the phase switch at step 27 falls on a
    # window boundary, where the exploit phase's saturation gate also rejects.
    policy = dict(tuner_cfg().lr_policy, recompute_window=9)
    records = TrainingRun(tuner_cfg(lr_policy=policy), 1).run()
    assert records[27].event == "phase_switch;recompute_reject_saturation"


def test_rollback_disabled_keeps_no_snapshot():
    policy = dict(tuner_cfg().lr_policy, rollback=False)
    run = TrainingRun(tuner_cfg(lr_policy=policy), 1)
    run.run()
    assert run.tuner.state.counters.accepts > 0
    assert run.tuner.state.last_change_snapshot is None


def test_tuner_probe_fwd_column_is_cumulative():
    run = TrainingRun(tuner_cfg(), 1)
    records = run.run()
    values = [r.probe_fwd for r in records]
    assert values == sorted(values)
    assert values[-1] == run.tuner.state.counters.probe_forward_passes


def test_summary_aggregation_over_seeds():
    cfg = tuner_cfg()
    traces, summary = run_all_seeds(cfg)
    assert set(traces) == {1, 2}
    assert len(summary["per_seed"]) == 2
    agg = summary["aggregate"]["final_test_acc"]
    values = [s["final_test_acc"] for s in summary["per_seed"]]
    assert agg["n"] == 2
    assert agg["mean"] == pytest.approx(np.mean(values))
    assert agg["stddev"] == pytest.approx(np.sqrt(np.mean((np.array(values) - np.mean(values)) ** 2)))


def test_on_trace_takes_each_seed_s_records_in_place_of_the_traces():
    cfg = tuner_cfg()
    kept, kept_summary = run_all_seeds(cfg)
    passed = []
    traces, summary = run_all_seeds(cfg, lambda seed, records: passed.append((seed, records)))
    assert traces == {} and passed == list(kept.items()) and summary == kept_summary


def test_all_seeds_share_one_dataset_and_train_as_runs_built_alone(monkeypatch):
    cfg = tuner_cfg()
    built = []
    make = runner.make_dataset
    monkeypatch.setattr(runner, "make_dataset", lambda spec: built.append(spec) or make(spec))
    traces, summary = run_all_seeds(cfg)
    assert built == [cfg.dataset]
    for seed, per_seed in zip(cfg.seeds, summary["per_seed"]):
        alone = TrainingRun(cfg, seed)
        assert traces[seed] == alone.run() and per_seed == alone.summary()


def test_a_cohort_is_freed_before_the_next_one_is_built(monkeypatch):
    # 4 seeds of a [2, 128, 128, 2] Mlp train a cohort of 3, then seed 4 alone. Seeds 1-3 must be
    # gone by then, or their models, optimizer buffers and records raise the command's peak memory.
    cfg = schedule_cfg(model={"kind": "mlp", "hidden": [128, 128]}, seeds=[1, 2, 3, 4])
    built, live = [], {}
    init, record_step = TrainingRun.__init__, TrainingRun.record_step

    def tracked_init(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    def counted_step(self, outcome):
        live.setdefault(self.seed, set()).add(sum(ref() is not None for ref in built))
        return record_step(self, outcome)

    monkeypatch.setattr(TrainingRun, "__init__", tracked_init)
    monkeypatch.setattr(TrainingRun, "record_step", counted_step)
    run_all_seeds(cfg, lambda seed, records: None)
    assert live == {1: {1, 3}, 2: {2, 3}, 3: {3}, 4: {1}}


def test_a_failed_cohort_is_freed_before_its_seeds_train_again(monkeypatch):
    # A stacked commit that raises drops the cohort of seeds 1-3, and they train again one after
    # another. No run of the cohort may be alive by then: not through a local, nor through a
    # frame of the cohort's error, or the replay holds the cohort's models and buffers too.
    cfg = schedule_cfg(seeds=[1, 2, 3])
    built, live = [], set()
    init, record_step, commit_step = TrainingRun.__init__, TrainingRun.record_step, Optimizer.commit_step

    def tracked_init(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    def counted_step(self, outcome):
        if len(built) > 3:  # a replayed seed
            live.add(sum(ref() is not None for ref in built[:3]))
        return record_step(self, outcome)

    def stacked_fails(self, params, lr, pending):
        if isinstance(lr, list):
            raise QuadtuneError("stacked commit fails")
        return commit_step(self, params, lr, pending)

    monkeypatch.setattr(TrainingRun, "__init__", tracked_init)
    monkeypatch.setattr(TrainingRun, "record_step", counted_step)
    monkeypatch.setattr(Optimizer, "commit_step", stacked_fails)
    with pytest.raises(QuadtuneError, match="stacked commit fails"):
        run_all_seeds(cfg, lambda seed, records: None)
    assert len(built) == 6
    assert live == {0}


def test_determinism_same_seed_same_records():
    cfg = tuner_cfg()
    a = TrainingRun(cfg, 1).run()
    b = TrainingRun(cfg, 1).run()
    assert a == b


def test_different_seeds_differ():
    cfg = tuner_cfg()
    a = TrainingRun(cfg, 1).run()
    b = TrainingRun(cfg, 2).run()
    assert a != b


def _wide_tuner_cfg():
    """A hidden layer of 1024 makes each 5-minibatch superbatch span 3 blocks."""
    policy = {
        "kind": "tuner", "seed_lr": 0.1, "explore_fraction": 0.3,
        "recompute_window": 5, "superbatch_size": 5, "n_probes": 5,
    }
    return tuner_cfg(model={"kind": "mlp", "hidden": [1024]}, lr_policy=policy, epochs=3)


def _reference_loss_and_gradient(self, x, y):
    """Classification `Mlp.loss_and_gradient` written plainly: views rebuilt
    from `params` on every call, `np.mean`, a zeroed gradient filled by copies."""
    layers, offset = [], 0
    for fan_in, fan_out in self._shapes:
        w = self.params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, self.params[offset : offset + fan_out]))
        offset += fan_out
    inputs, a = [], x
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    n = len(x)
    shifted = a - a.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), y]))
    delta = exp / z
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = np.zeros_like(self.params)
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        offset -= b.size
        grad[offset : offset + b.size] = delta.sum(axis=0)
        offset -= w.size
        grad[offset : offset + w.size] = (inputs[i].T @ delta).reshape(-1)
        if i > 0:
            delta = (delta @ w.T) * (inputs[i] > 0.0)
    return loss, grad


@pytest.mark.parametrize("policy", ["cosine", "tuner"])
def test_lean_step_replays_the_reference_step(monkeypatch, policy):
    overrides = {"model": {"kind": "mlp", "hidden": [16, 8]}}
    if policy == "cosine":
        overrides["lr_policy"] = {"kind": "schedule", "variant": "cosine", "seed_lr": 0.1}
    cfg = tuner_cfg(**overrides)
    lean = TrainingRun(cfg, 1)
    lean_records = lean.run()
    monkeypatch.setattr(Mlp, "loss_and_gradient", _reference_loss_and_gradient)
    reference = TrainingRun(cfg, 1)
    assert reference.run() == lean_records
    if policy == "tuner":
        assert reference.tuner.state.counters == lean.tuner.state.counters
        assert lean.tuner.state.counters.recomputes > 0


class RowCountingMlp(Mlp):
    """Mlp that counts the rows through its forward pass."""

    rows = 0

    def _forward(self, x, keep_inputs=False):
        self.rows += len(x)
        return super()._forward(x, keep_inputs)


def test_engine_forward_passes_count_the_rows_the_model_runs():
    run = TrainingRun(_wide_tuner_cfg(), 1)
    model = RowCountingMlp(run.model.layer_sizes)
    model.params[:] = run.model.params
    run.model = run.engine.model = model
    evaluate = run.engine.test_metrics

    def test_metrics_uncounted():
        rows = model.rows
        out = evaluate()
        model.rows = rows
        return out

    run.engine.test_metrics = test_metrics_uncounted
    run.run()
    counters = run.tuner.state.counters
    assert counters.probe_forward_passes > 0 and counters.window_forward_passes > 0
    assert model.rows == run.engine.forward_passes * run.engine.minibatch_size


def test_test_metrics_run_one_forward_with_the_results_of_loss_then_predict():
    run = TrainingRun(tuner_cfg(), 1)
    model = RowCountingMlp(run.model.layer_sizes)
    model.params[:] = run.model.params
    run.engine.model = model
    ds = run.dataset
    assert run.engine.test_metrics() == (model.loss(ds.test_x, ds.test_y), float(np.mean(model.predict(ds.test_x) == ds.test_y)))
    model.rows = 0
    run.engine.test_metrics()
    assert model.rows == len(ds.test_x)


WINDOW_POLICIES = [
    # Rolls back on both seeds; 15 minibatches per epoch, so the closes at 15 and 30 come
    # after an epoch's reshuffle.
    {"seed_lr": 0.1, "explore_fraction": 0.5, "recompute_window": 5, "superbatch_size": 4},
    # Windows of 7 steps cross epoch starts; S=8 of 15 minibatches.
    {"seed_lr": 0.3, "explore_fraction": 0.3, "recompute_window": 7, "superbatch_size": 8, "rollback": False},
]
WINDOW_POLICY_IDS = ["rollback", "wide_superbatch"]


def _window_cfg(policy):
    return tuner_cfg(lr_policy=dict(policy, kind="tuner", n_probes=5), epochs=3)


def _measure_reused_starts_again(run, measured):
    """Evaluate each window start that a boundary reused again before the rest of its step."""
    finish_step = run.tuner.finish_step

    def finish_after_measuring_again(outcome, *args):
        window = run.tuner._window  # None until step 0 opens the first window
        if window is not None and window.start_step == outcome.step:
            window.start_loss = run.engine.superbatch_loss(window.superbatch)
            measured.append(outcome.step)
        return finish_step(outcome, *args)

    run.tuner.finish_step = finish_after_measuring_again


@pytest.mark.parametrize("policy", WINDOW_POLICIES, ids=WINDOW_POLICY_IDS)
def test_reused_window_losses_write_the_traces_of_fresh_ones(tmp_path, policy):
    # A window opens on the end loss of the one before it, or on the start loss of a
    # rolled-back one. Measuring every such start again before the rest of its step must
    # change nothing but the forward count.
    cfg = _window_cfg(policy)
    size = cfg.lr_policy["superbatch_size"]
    rollbacks = []
    for seed in cfg.seeds:
        runs, traces, measured_again = [], [], []
        for again in (False, True):
            run = TrainingRun(cfg, seed)
            if again:
                _measure_reused_starts_again(run, measured_again)
            runs.append(run)
            path = tmp_path / f"{again}_{seed}.csv"
            write_trace(str(path), run.run())
            traces.append(path.read_bytes())
        reuse, fresh = runs
        assert traces[0] == traces[1]
        extra = size * len(measured_again)
        assert extra > 0
        assert fresh.engine.forward_passes == reuse.engine.forward_passes + extra
        assert fresh.tuner.state.counters.window_forward_passes == reuse.tuner.state.counters.window_forward_passes + extra
        rollbacks += [out for out in reuse.tuner.state.log if EVENT_ROLLBACK in out.events]
    assert bool(rollbacks) == cfg.lr_policy.get("rollback", True)


def test_each_close_measures_the_rows_its_window_opened_on():
    # Every window evaluation (a model call outside a probe) is recorded with its rows.
    # A close must evaluate the bytes its window opened on, across epoch starts and rollbacks.
    # The superbatch is a whole epoch, so any close after a reshuffle names other rows.
    run = TrainingRun(_window_cfg(dict(WINDOW_POLICIES[0], superbatch_size=15)), 1)
    engine, model = run.engine, run.model
    loss, perturbed_loss = model.loss, engine.perturbed_loss
    evaluated, probing = [], []

    def spy_loss(x, y):
        if not probing:
            evaluated.append((len(run.records), x.tobytes(), y.tobytes()))
        return loss(x, y)

    def spy_perturbed_loss(*args):
        probing.append(True)
        try:
            return perturbed_loss(*args)
        finally:
            probing.pop()

    model.loss, engine.perturbed_loss = spy_loss, spy_perturbed_loss
    run.run()
    per_epoch = engine.batches_per_epoch
    opened = start = None
    closes = crossed = 0
    for out in run.tuner.state.log:
        rows = [x_y for step, *x_y in evaluated if step == out.step]
        if out.rate is not None:
            same = rows[0] == opened
            assert same, f"the close at step {out.step} measured other rows"
            closes += 1
            crossed += start // per_epoch < out.step // per_epoch
        if out.superbatch_loss is not None:
            start = out.step
            if EVENT_ROLLBACK not in out.events:  # a rolled-back window's successor opens on its rows
                opened = rows[-1]
    assert closes > 0 and crossed > 0 and run.tuner.state.counters.rollbacks > 0


def _holds_array(value):
    if isinstance(value, np.ndarray):
        return True
    if dataclasses.is_dataclass(value):
        return any(_holds_array(getattr(value, f.name)) for f in dataclasses.fields(value))
    return isinstance(value, (list, tuple)) and any(map(_holds_array, value))


@pytest.mark.parametrize("policy", WINDOW_POLICIES, ids=WINDOW_POLICY_IDS)
def test_windows_cost_one_superbatch_per_fresh_open_and_close(policy):
    cfg = _window_cfg(policy)
    size = cfg.lr_policy["superbatch_size"]
    for seed in cfg.seeds:
        run = TrainingRun(cfg, seed)
        run.run()
        log, counters = run.tuner.state.log, run.tuner.state.counters
        closes = sum(out.rate is not None for out in log)
        fresh_opens = sum(out.superbatch_loss is not None and out.rate is None for out in log)
        assert fresh_opens == 1 and closes == (run.total_steps - 1) // run.tuner.cfg.recompute_window
        assert counters.window_forward_passes == size * (fresh_opens + closes)
        training = run.total_steps
        assert run.engine.forward_passes == training + counters.probe_forward_passes + counters.window_forward_passes
        rollbacks = [out for out in log if EVENT_ROLLBACK in out.events]
        assert bool(rollbacks) == cfg.lr_policy.get("rollback", True)
        assert all(out.window_forward_passes == size for out in rollbacks)  # the close alone
        assert not _holds_array(log)  # the log keeps indices, not a superbatch's rows


def test_explore_epochs_conversion():
    # (key, value, total_steps, batches_per_epoch, explore steps); 0.01 epochs of
    # 50 batches is half a step, which rounds down to none rather than reading as a fraction.
    for key, value, total, per_epoch, expected in [
        ("explore_epochs", 2, 100, 10, 20),
        ("explore_epochs", 0.01, 1500, 50, 0),
        ("explore_fraction", 0.25, 1500, 50, 375),
    ]:
        policy = {"kind": "tuner", "seed_lr": 0.1, key: value}
        tc = tuner_config_from_policy(policy, total_steps=total, batches_per_epoch=per_epoch)
        assert tc.explore_steps() == expected
    # A fraction of 1 would explore every step; it must not read as a 1-step budget.
    with pytest.raises(InvalidArgumentError):
        tuner_config_from_policy({"kind": "tuner", "seed_lr": 0.1, "explore_fraction": 1.0},
                                 total_steps=1500, batches_per_epoch=50)


def test_step_schedule_boundaries_epochs_conversion():
    policy = {"kind": "schedule", "variant": "step", "lrs": [0.1, 0.01, 0.001],
              "boundaries_epochs": [30, 60]}
    spec = schedule_from_policy(policy, total_steps=9000, batches_per_epoch=100)
    assert isinstance(spec, StepSchedule)
    assert spec.boundaries == (3000, 6000)


def test_epoch_keys_win_over_step_keys():
    explore = {"explore_fraction": 0.5, "explore_epochs": 2, "explore_steps": 7}
    tc = tuner_config_from_policy(dict(explore, kind="tuner", seed_lr=0.1), total_steps=100, batches_per_epoch=10)
    assert tc.explore_steps() == 7
    del explore["explore_steps"]
    tc = tuner_config_from_policy(dict(explore, kind="tuner", seed_lr=0.1), total_steps=100, batches_per_epoch=10)
    assert tc.explore_steps() == 20
    spec = schedule_from_policy({"kind": "schedule", "variant": "cosine", "seed_lr": 0.1,
                                 "warmup_epochs": 0.25, "warmup_steps": 3}, total_steps=100, batches_per_epoch=10)
    assert spec.warmup_steps == 2  # round(2.5) to even
    spec = schedule_from_policy({"kind": "schedule", "variant": "step", "lrs": [0.1, 0.01],
                                 "boundaries_epochs": [1.5], "boundaries": [4]}, total_steps=100, batches_per_epoch=10)
    assert spec.boundaries == (15,)


def test_inverse_sqrt_warmup_defaults_to_one_step_and_rejects_zero():
    policy = {"kind": "schedule", "variant": "inverse_sqrt", "peak_lr": 0.1}
    assert schedule_from_policy(policy, total_steps=100, batches_per_epoch=10).warmup_steps == 1
    for warmup in ({"warmup_steps": 0}, {"warmup_epochs": 0.01}):
        with pytest.raises(InvalidArgumentError):
            schedule_from_policy(dict(policy, **warmup), total_steps=100, batches_per_epoch=10)


def test_a_warmup_must_end_inside_the_run():
    # Checked on the built spec: after warmup_epochs rounding, and on inverse_sqrt's default of 1.
    # The first step after a warmup is at the peak lr, so the run needs one more to decay.
    for variant, key in (("cosine", "seed_lr"), ("linear", "seed_lr"), ("inverse_sqrt", "peak_lr")):
        policy = {"kind": "schedule", "variant": variant, key: 0.1}
        for warmup in ({"warmup_steps": 8}, {"warmup_epochs": 0.85}):  # round(8.5) is 8
            assert schedule_from_policy(dict(policy, **warmup), total_steps=10, batches_per_epoch=10).warmup_steps == 8
        for warmup in ({"warmup_steps": 9}, {"warmup_steps": 10}, {"warmup_steps": 11},
                       {"warmup_epochs": 0.9}, {"warmup_epochs": 0.95}):  # round(9.5) is 10
            with pytest.raises(InvalidArgumentError, match="leaves fewer than 2 of the run's 10, so its lr never"):
                schedule_from_policy(dict(policy, **warmup), total_steps=10, batches_per_epoch=10)
    inverse_sqrt = {"kind": "schedule", "variant": "inverse_sqrt", "peak_lr": 0.1}
    assert schedule_from_policy(inverse_sqrt, total_steps=3, batches_per_epoch=1).warmup_steps == 1
    for total_steps in (1, 2):
        with pytest.raises(InvalidArgumentError):
            schedule_from_policy(inverse_sqrt, total_steps=total_steps, batches_per_epoch=1)


def test_float_keys_take_json_integers_as_floats():
    # An integer lr must still be written to the trace as a float ("1.0").
    spec = schedule_from_policy({"kind": "schedule", "variant": "constant", "lr": 1},
                                total_steps=100, batches_per_epoch=10)
    assert spec.lr == 1.0 and type(spec.lr) is float
    tc = tuner_config_from_policy({"kind": "tuner", "seed_lr": 1}, total_steps=100, batches_per_epoch=10)
    assert type(tc.seed_lr) is float and type(tc.rollback_enabled) is bool


def test_null_is_taken_only_where_the_default_is_none():
    bowl = {"kind": "bowl", "diag": [1.0, 10.0], "theta0": None}
    run = TrainingRun(schedule_cfg(model=bowl, dataset={"kind": "bowl", "n": 64}), 1)
    assert run.model.params.tolist() == [1.0, 1.0]
    policy = {"kind": "schedule", "variant": "one_cycle", "max_lr": 0.5, "momentum_range": None}
    assert schedule_from_policy(policy, total_steps=100, batches_per_epoch=10).momentum_range is None
    with pytest.raises(InvalidArgumentError, match="hidden"):
        schedule_cfg(model={"kind": "mlp", "hidden": None})
    with pytest.raises(InvalidArgumentError, match="weight_decay"):
        schedule_cfg(optimizer={"kind": "sgd", "weight_decay": None})


def test_bowl_matrix_wins_over_diag():
    model = {"kind": "bowl", "diag": [1.0, 10.0], "matrix": [[2.0, 0.0], [0.0, 3.0]]}
    run = TrainingRun(schedule_cfg(model=model, dataset={"kind": "bowl", "n": 64}), 1)
    assert run.model.matrix.tolist() == [[2.0, 0.0], [0.0, 3.0]]


DATASET_SPECS = {"blobs": {"kind": "blobs", "n": 200, "k": 3}, "moons": {"kind": "moons", "n": 200},
                 "linreg": {"kind": "linreg", "n": 200}, "bowl": {"kind": "bowl", "n": 64}}
MODEL_SPECS = {"linreg": {"kind": "linreg"}, "logreg": {"kind": "logreg"}, "mlp": {"kind": "mlp", "hidden": [4]},
               "bowl": {"kind": "bowl", "diag": [1.0, 10.0]}, "mlp_task": {"kind": "mlp", "task": "regression"}}
TRAINS = {"linreg": {"linreg"}, "logreg": {"blobs", "moons"}, "mlp": {"blobs", "moons", "linreg"}, "bowl": {"bowl"},
          "mlp_task": set()}


@pytest.mark.parametrize("dataset", DATASET_SPECS)
@pytest.mark.parametrize("model", MODEL_SPECS)
def test_a_model_kind_trains_only_the_dataset_tasks_it_takes(model, dataset, tmp_path, capsys):
    raw = {
        "dataset": DATASET_SPECS[dataset], "model": MODEL_SPECS[model],
        "optimizer": {"kind": "sgd", "minibatch_size": 16},
        "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.1},
        "epochs": 1, "seeds": [1], "out_dir": str(tmp_path / "out"),
    }
    if dataset in TRAINS[model]:
        run = TrainingRun(RunConfig.from_dict(raw), 1)
        if model == "mlp":  # the dataset decides the task and the output width
            assert run.model.task == run.dataset.task
            assert run.model.layer_sizes[-1] == (run.dataset.num_classes or 1)
        return
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_a_bowl_without_test_rows_reports_no_test_metrics():
    cfg = schedule_cfg(dataset={"kind": "bowl", "n": 2}, model={"kind": "bowl", "diag": [1.0, 10.0]},
                       optimizer={"kind": "sgd", "minibatch_size": 1})
    run = TrainingRun(cfg, 1)
    assert run.dataset.test_x.shape[0] == 0
    records = run.run()
    assert all(r.test_loss is None and r.test_acc is None for r in records)
    assert run.summary()["final_test_loss"] is None


def test_unknown_model_kind_is_config_error():
    cfg = schedule_cfg()
    cfg.model = {"kind": "mlp", "task": "none"}
    with pytest.raises(InvalidArgumentError):
        TrainingRun(cfg, 1)


def test_aggregate_skips_missing_metrics():
    agg = aggregate_summaries([
        {"final_train_loss": 1.0, "final_test_acc": None},
        {"final_train_loss": 2.0, "final_test_acc": None},
    ])
    assert "final_test_acc" not in agg
    assert agg["final_train_loss"]["mean"] == pytest.approx(1.5)


def test_one_cycle_momentum_cycling_applied():
    cfg = schedule_cfg(
        optimizer={"kind": "momentum", "momentum": 0.9, "minibatch_size": 32},
        lr_policy={"kind": "schedule", "variant": "one_cycle", "max_lr": 0.5,
                   "momentum_range": [0.95, 0.85]},
        epochs=4,
    )
    run = TrainingRun(cfg, 1)
    total = run.total_steps
    observed = []
    for _ in range(total):
        run.step_once()
        observed.append(run.optimizer.mu)
    # momentum is low where lr peaks (45% mark) and high at the ends
    peak_index = int(0.45 * total)
    assert observed[peak_index] == pytest.approx(0.85, abs=0.01)
    assert observed[0] == pytest.approx(0.95, abs=0.01)
    assert observed[-1] == pytest.approx(0.95, abs=0.01)


def test_bowl_run_reports_objective_as_test_loss():
    cfg = RunConfig.from_dict({
        "dataset": {"kind": "bowl", "n": 64},
        "model": {"kind": "bowl", "diag": [1.0, 10.0], "theta0": [1.0, 1.0]},
        "optimizer": {"kind": "sgd", "minibatch_size": 8},
        "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.05},
        "epochs": 4,
        "seeds": [1],
    })
    run = TrainingRun(cfg, 1)
    records = run.run()
    finals = [r for r in records if r.test_loss is not None]
    assert finals
    assert finals[-1].test_loss < finals[0].test_loss
    assert all(r.test_acc is None for r in records)
