"""Tests for span self time and outermost-only model work counting."""

import numpy as np
import pytest

from perfbench.tracing import Instrumentation, ModelCounter, SpanRecorder, span_totals
from quadtune.models import LinearRegression, Model


def _recorder(spans):
    """Recorder holding (name, start, end, parent) spans as given."""
    rec = SpanRecorder()
    for name, start, end, parent in spans:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = _recorder(
        [
            ("tuner.recompute", 0.0, 10.0, -1),
            ("engine.perturbed_loss", 1.0, 5.0, 0),
            ("engine.superbatch_loss", 2.0, 4.5, 1),
            ("models.forward", 3.0, 4.0, 2),
            ("quadprobe.fit_quadratic", 6.0, 7.0, 0),
        ]
    )
    totals = span_totals(rec)
    assert totals.self_s["tuner.recompute"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert totals.self_s["engine.perturbed_loss"] == pytest.approx(4.0 - 2.5)
    assert totals.self_s["engine.superbatch_loss"] == pytest.approx(2.5 - 1.0)
    assert totals.self_s["models.forward"] == pytest.approx(1.0)
    assert totals.total_s["engine.perturbed_loss"] == pytest.approx(4.0)
    assert totals.module_self_s() == pytest.approx(
        {"tuner": 5.0, "engine": 3.0, "models": 1.0, "quadprobe": 1.0}
    )
    # Self times partition the root span.
    assert sum(totals.module_self_s().values()) == pytest.approx(10.0)


def test_recorder_links_nested_calls_to_their_parent():
    rec = SpanRecorder()
    inner = rec.wrap("b", lambda: rec.call("c", lambda: None))
    rec.call("a", inner)
    assert rec.names == ["a", "b", "c"]
    assert rec.parents == [-1, 0, 1]
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))


@pytest.fixture
def instrumented():
    rec = SpanRecorder()
    inst = Instrumentation(rec)
    yield rec, inst
    inst.restore()


def test_linreg_loss_calling_predict_counts_one_forward(instrumented):
    rec, inst = instrumented
    model = LinearRegression(3)
    x, y = np.ones((8, 3)), np.zeros(8)
    model.loss(x, y)
    assert (inst.models.forward_calls, inst.models.forward_rows, inst.models.backward_rows) == (1, 8, 0)
    assert rec.names == ["models.forward"]
    model.predict(x[:5])
    assert (inst.models.forward_calls, inst.models.forward_rows) == (2, 13)


def test_unfused_loss_and_gradient_counts_two_forwards_one_backward(instrumented):
    _, inst = instrumented
    model = LinearRegression(3)
    model.loss_and_gradient(np.ones((8, 3)), np.zeros(8))
    assert (inst.models.forward_calls, inst.models.forward_rows, inst.models.backward_rows) == (2, 16, 8)
    # 2*3 flops per row forward; the backward pass adds the weight gradient.
    assert inst.models.matmul_flops == 2 * 8 * 6 + 8 * 6


def test_fused_loss_and_gradient_counts_one_forward_one_backward():
    class Fused(Model):
        def loss_and_gradient(self, x, y):
            return 0.0, np.zeros_like(self.params)

    counter = ModelCounter()
    fused = counter.wrap_loss_and_gradient(SpanRecorder(), Fused.loss_and_gradient)
    fused(Fused(2), np.ones((4, 2)), np.zeros(4))
    assert (counter.forward_calls, counter.forward_rows, counter.backward_rows) == (1, 4, 4)


def test_restore_puts_the_originals_back():
    import quadtune.tuner as tuner

    original_loss = LinearRegression.__dict__["loss"]
    original_snapshot = tuner.take_snapshot
    inst = Instrumentation(SpanRecorder())
    assert LinearRegression.__dict__["loss"] is not original_loss
    assert tuner.take_snapshot is not original_snapshot
    assert inst.missing == []
    inst.restore()
    assert LinearRegression.__dict__["loss"] is original_loss
    assert tuner.take_snapshot is original_snapshot


def test_span_check_flags_silent_zeros_and_wrong_paths():
    from perfbench.run import span_check
    from perfbench.workloads import WORKLOADS

    cosine = WORKLOADS["moons_cosine"]
    rec = _recorder([(name, 0.0, 1.0, -1) for name in cosine.must_fire if name != "schedules.lr_at"])
    rec.names.append("engine.perturbed_loss")
    rec.starts.append(0.0)
    rec.ends.append(1.0)
    rec.parents.append(-1)
    problems = span_check(cosine, span_totals(rec), missing=["optim.take_snapshot"])
    assert problems == [
        "span optim.take_snapshot was not installed: its target is gone",
        "span schedules.lr_at never fired",
        "span engine.perturbed_loss fired but must not",
    ]
