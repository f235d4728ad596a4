import numpy as np
import pytest

from quadtune.datasets import make_blobs, make_bowl_dataset, make_linear_regression
from quadtune.engine import RngStream, Superbatch, TrainingEngine
from quadtune.errors import InvalidArgumentError
from quadtune.models import LinearRegression, LogisticRegression, QuadraticBowl


def make_engine(seed=0, n=640, mb=32):
    ds = make_linear_regression(n=n, dim=2, noise=0.5, seed=3)
    model = LinearRegression(2)
    return TrainingEngine(model, ds, mb, seed)


def test_rng_streams_independent_and_replayable():
    a = RngStream(7, "shuffle")
    b = RngStream(7, "superbatch")
    assert not np.array_equal(a.generator.random(8), b.generator.random(8))
    c = RngStream(7, "shuffle")
    state = c.state
    first = c.generator.random(5)
    c.state = state
    assert np.array_equal(first, c.generator.random(5))
    for purpose in ("weights", "noise"):
        with pytest.raises(InvalidArgumentError):
            RngStream(7, purpose)


def test_superbatch_normalizes_and_validates():
    sb = Superbatch([3, 1, 2])
    assert sb.minibatch_indices == (1, 2, 3)
    assert sb.size_in_minibatches == 3
    with pytest.raises(InvalidArgumentError):
        Superbatch([])
    with pytest.raises(InvalidArgumentError):
        Superbatch([1, 1, 2])


def test_superbatch_of_one_equals_forward_loss():
    engine = make_engine()
    x, y = engine.minibatch(0)
    assert engine.superbatch_loss(Superbatch([0])) == engine.forward_loss(x, y)


def test_superbatch_is_mean_of_minibatch_losses():
    engine = make_engine()
    indices = [7, 0, 3, 15, 9, 1, 12, 4, 10, 6, 13, 2]
    total = 0.0
    for i in sorted(indices):
        total += engine.forward_loss(*engine.minibatch(i))
    assert engine.superbatch_loss(Superbatch(indices)) == total / len(indices)


def test_superbatch_index_out_of_range_is_rejected():
    engine = make_engine()  # 16 train batches
    engine.superbatch_loss(Superbatch([engine.batches_per_epoch - 1]))
    for indices in ([engine.batches_per_epoch], [999], [0, 999], [-1, 3]):
        with pytest.raises(InvalidArgumentError):
            engine.superbatch_loss(Superbatch(indices))


def test_superbatch_value_order_invariant():
    engine = make_engine()
    a = engine.superbatch_loss(Superbatch([0, 5, 9]))
    b = engine.superbatch_loss(Superbatch([9, 0, 5]))
    assert a == b  # indices are normalized, evaluation order is identical


def test_full_epoch_superbatch_equals_example_mean():
    engine = make_engine(n=320, mb=32)
    engine._advance_to_epoch(0)
    sb = Superbatch(range(engine.batches_per_epoch))
    full = engine.superbatch_loss(sb)
    rows = engine._perm[: engine.batches_per_epoch * engine.minibatch_size]
    x = engine.dataset.train_x[rows]
    y = engine.dataset.train_y[rows]
    assert full == pytest.approx(engine.model.loss(x, y), abs=1e-12)


def test_perturbed_loss_identity_at_zero():
    engine = make_engine()
    sb = engine.draw_superbatch(3)
    d = np.ones_like(engine.model.params)
    assert engine.perturbed_loss(d, 0.0, sb) == engine.superbatch_loss(sb)


def test_perturbed_loss_matches_bowl_closed_form():
    a = np.diag([1.0, 10.0])
    model = QuadraticBowl(a, theta0=[1.0, 1.0])
    engine = TrainingEngine(model, make_bowl_dataset(64), 8, seed=0)
    sb = engine.draw_superbatch(2)
    theta = model.params.copy()
    g = a @ theta
    for t in (0.0, 0.03, 0.1, -0.05):
        expected = 0.5 * (theta - t * g) @ a @ (theta - t * g)
        assert engine.perturbed_loss(g, t, sb) == pytest.approx(expected, rel=1e-12)


def test_perturbed_loss_restores_bit_exact():
    engine = make_engine()
    engine.model.params[:] = [0.37, -1.2, 0.011]
    before = engine.model.params.tobytes()
    sb = engine.draw_superbatch(4)
    engine.perturbed_loss(np.array([1.0, 2.0, 3.0]), 0.123, sb)
    assert engine.model.params.tobytes() == before


def test_perturbed_loss_nonfinite_marker():
    engine = make_engine()
    sb = engine.draw_superbatch(2)
    d = np.full_like(engine.model.params, np.inf)
    assert np.isnan(engine.perturbed_loss(d, 1.0, sb))
    assert np.all(np.isfinite(engine.model.params))


def test_cost_counters():
    engine = make_engine()
    assert engine.forward_passes == 0
    engine.superbatch_loss(engine.draw_superbatch(5))
    assert engine.forward_passes == 5
    engine.perturbed_loss(np.ones(3), 0.1, engine.draw_superbatch(7))
    assert engine.forward_passes == 12
    engine.loss_and_gradient(*engine.minibatch(0))
    assert engine.forward_passes == 13
    assert engine.backward_passes == 1


def test_draw_superbatch_bounds():
    engine = make_engine(n=320, mb=32)  # 8 train batches
    sb = engine.draw_superbatch(8)
    assert sb.size_in_minibatches == 8
    with pytest.raises(InvalidArgumentError):
        engine.draw_superbatch(9)
    with pytest.raises(InvalidArgumentError):
        engine.draw_superbatch(0)


def test_epoch_reshuffle_covers_all_rows():
    engine = make_engine(n=320, mb=32)
    seen = []
    for step in range(engine.batches_per_epoch):
        x, _ = engine.batch_for_step(step)
        seen.append(x)
    first_epoch = np.vstack(seen)
    assert first_epoch.shape[0] == 256
    # next epoch uses a different order
    x_next, _ = engine.batch_for_step(engine.batches_per_epoch)
    assert not np.array_equal(x_next, seen[0])
    # but the same multiset of rows per epoch
    sums = np.sort(first_epoch.sum(axis=1))
    again = np.vstack([engine.batch_for_step(engine.batches_per_epoch + i)[0] for i in range(engine.batches_per_epoch)])
    assert np.allclose(np.sort(again.sum(axis=1)), sums)


def test_determinism_same_seed():
    e1 = make_engine(seed=5)
    e2 = make_engine(seed=5)
    for step in (0, 3, 25):
        x1, y1 = e1.batch_for_step(step)
        x2, y2 = e2.batch_for_step(step)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
    assert e1.draw_superbatch(4) == e2.draw_superbatch(4)


def test_data_state_round_trip():
    engine = make_engine()
    engine.batch_for_step(0)
    state = engine.data_state()
    first = [engine.draw_superbatch(3) for _ in range(3)]
    x_before, _ = engine.batch_for_step(engine.batches_per_epoch * 2)
    engine.restore_data_state(state)
    replay = [engine.draw_superbatch(3) for _ in range(3)]
    x_after, _ = engine.batch_for_step(engine.batches_per_epoch * 2)
    assert first == replay
    assert np.array_equal(x_before, x_after)


def test_blobs_learnable_by_logreg():
    ds = make_blobs(n=100, k=2, sep=5.0, seed=1)
    model = LogisticRegression(2, 2)
    engine = TrainingEngine(model, ds, 16, seed=0)
    from quadtune.optim import Sgd

    opt = Sgd()
    for step in range(200):
        x, y = engine.batch_for_step(step)
        _, g = engine.loss_and_gradient(x, y)
        engine.commit(opt, opt.compute_direction(model.params, g), 0.5)
    acc = float(np.mean(model.predict(ds.test_x) == ds.test_y))
    assert acc >= 0.99
