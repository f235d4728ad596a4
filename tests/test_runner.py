import numpy as np
import pytest

from quadtune.config import RunConfig
from quadtune.errors import ConfigError, InvalidArgumentError
from quadtune.models import Mlp, Model
from quadtune.runner import TrainingRun, aggregate_summaries, run_all_seeds, schedule_from_policy, tuner_config_from_policy
from quadtune.schedules import CosineDecay, StepSchedule, lr_at


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


def test_stacked_superbatch_losses_replay_the_minibatch_loop(monkeypatch):
    cfg = _wide_tuner_cfg()
    fast = TrainingRun(cfg, 1)
    fast_records = fast.run()
    monkeypatch.setattr(Mlp, "minibatch_losses", Model.minibatch_losses)
    loop = TrainingRun(cfg, 1)
    assert loop.run() == fast_records
    assert loop.tuner.state.counters == fast.tuner.state.counters
    assert fast.tuner.state.counters.recomputes > 0


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
    spec = schedule_from_policy(policy, batches_per_epoch=100)
    assert isinstance(spec, StepSchedule)
    assert spec.boundaries == (3000, 6000)


def test_unknown_model_kind_is_config_error():
    cfg = schedule_cfg()
    cfg.model = {"kind": "mlp", "task": "none"}
    with pytest.raises(ConfigError):
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
