import tracemalloc
import warnings

import numpy as np
import pytest

from quadtune.datasets import make_blobs, make_bowl_dataset, make_linear_regression, make_moons, seeded_stream
from quadtune.engine import TrainingEngine
from quadtune.errors import InvalidArgumentError
from quadtune.models import LinearRegression, LogisticRegression, Mlp, QuadraticBowl
from quadtune.optim import Momentum, Sgd, restore_snapshot, take_snapshot


def make_engine(seed=0, n=640, mb=32):
    ds = make_linear_regression(n=n, dim=2, noise=0.5, seed=3)
    model = LinearRegression(2)
    return TrainingEngine(model, ds, mb, seed)


def test_rng_streams_independent_and_replayable():
    a = seeded_stream(7, "shuffle")
    b = seeded_stream(7, "superbatch")
    assert not np.array_equal(a.random(8), b.random(8))
    c = seeded_stream(7, "shuffle")
    state = c.bit_generator.state
    first = c.random(5)
    c.bit_generator.state = state
    assert np.array_equal(first, c.random(5))
    for purpose in ("weights", "noise"):
        with pytest.raises(InvalidArgumentError):
            seeded_stream(7, purpose)


def test_superbatch_normalizes_and_validates():
    engine = make_engine()
    sb = engine.superbatch([3, 1, 2])
    assert sb.minibatch_indices == (1, 2, 3)
    x, y = (np.concatenate(part) for part in zip(*map(engine.minibatch, (1, 2, 3))))
    assert sb.x.tobytes() == x.tobytes() and sb.y.tobytes() == y.tobytes()
    with pytest.raises(InvalidArgumentError):
        engine.superbatch([])
    with pytest.raises(InvalidArgumentError):
        engine.superbatch([1, 1, 2])


def test_superbatch_of_one_equals_the_model_loss():
    engine = make_engine()
    x, y = engine.minibatch(0)
    assert engine.superbatch_loss(engine.superbatch([0])) == engine.model.loss(x, y)


def test_superbatch_is_mean_of_minibatch_losses():
    engine = make_engine()
    indices = [7, 0, 3, 15, 9, 1, 12, 4, 10, 6, 13, 2]
    total = 0.0
    for i in sorted(indices):
        total += engine.model.loss(*engine.minibatch(i))
    assert engine.superbatch_loss(engine.superbatch(indices)) == pytest.approx(total / len(indices), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "make_model, dataset",
    [
        (lambda: Mlp([2, 16, 8, 2], rng=np.random.default_rng(2)), make_moons(n=400, seed=2)),
        (lambda: LogisticRegression(2, 3), make_blobs(n=400, k=3, dim=2, seed=2)),
        (lambda: LinearRegression(2), make_linear_regression(n=400, dim=2, noise=0.5, seed=2)),
        (lambda: QuadraticBowl([1.0, 10.0], theta0=[0.5, -2.0]), make_bowl_dataset(400)),
    ],
    ids=["mlp", "logreg", "linreg", "bowl"],
)
def test_superbatch_loss_is_the_model_loss_on_its_rows(make_model, dataset):
    model = make_model()
    model.params[:] += np.random.default_rng(3).normal(scale=0.1, size=model.params.size)
    engine = TrainingEngine(model, dataset, 16, seed=4)
    sb = engine.draw_superbatch(5)
    loop = [model.loss(*engine.minibatch(i)) for i in sb.minibatch_indices]
    passes = engine.forward_passes
    loss = engine.superbatch_loss(sb)
    assert engine.forward_passes == passes + 5
    assert loss == model.loss(sb.x, sb.y)
    assert loss == pytest.approx(sum(loop) / len(loop), rel=1e-12, abs=0)


def test_superbatch_index_out_of_range_is_rejected():
    engine = make_engine()  # 16 train batches
    engine.superbatch_loss(engine.superbatch([engine.batches_per_epoch - 1]))
    for indices in ([engine.batches_per_epoch], [999], [0, 999], [-1, 3]):
        with pytest.raises(InvalidArgumentError):
            engine.superbatch(indices)


def test_superbatch_value_order_invariant():
    engine = make_engine()
    a = engine.superbatch_loss(engine.superbatch([0, 5, 9]))
    b = engine.superbatch_loss(engine.superbatch([9, 0, 5]))
    assert a == b  # indices are normalized, evaluation order is identical


def test_full_epoch_superbatch_equals_example_mean():
    engine = make_engine(n=320, mb=32)
    engine._advance_to_epoch(0)
    sb = engine.superbatch(range(engine.batches_per_epoch))
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


class RaisingLinearRegression(LinearRegression):
    def loss(self, x, y):
        raise RuntimeError("model failed")


def test_perturbed_loss_restores_bit_exact():
    # The probe writes its perturbation into params itself, so every way out must restore
    # them: a finite loss, an overflowing perturbation (the NaN marker) and a raising model.
    engine = make_engine()
    params = engine.model.params
    params[:] = [0.37, -1.2, 0.011]
    before = params.tobytes()
    sb = engine.draw_superbatch(4)
    assert np.isfinite(engine.perturbed_loss(np.array([1.0, 2.0, 3.0]), 0.123, sb))
    assert params.tobytes() == before
    assert np.isnan(engine.perturbed_loss(np.array([1e308, 2.0, 3.0]), 10.0, sb))
    assert params.tobytes() == before
    raising = TrainingEngine(RaisingLinearRegression(2), engine.dataset, engine.minibatch_size, seed=0)
    raising.model.params[:] = params
    with pytest.raises(RuntimeError, match="model failed"):
        raising.perturbed_loss(np.array([1.0, 2.0, 3.0]), 0.123, sb)
    assert raising.model.params.tobytes() == before


def test_perturbed_loss_nonfinite_marker():
    engine = make_engine()
    sb = engine.draw_superbatch(2)
    d = np.full_like(engine.model.params, np.inf)
    assert np.isnan(engine.perturbed_loss(d, 1.0, sb))
    assert np.all(np.isfinite(engine.model.params))


def test_a_probe_allocates_no_parameter_sized_temporary():
    model = Mlp([2, 320, 320, 2], rng=np.random.default_rng(6))  # 104322 params
    engine = TrainingEngine(model, make_moons(n=200, seed=6), 4, seed=6)
    sb = engine.draw_superbatch(1)
    direction = np.full_like(model.params, 0.01)
    engine.perturbed_loss(direction, 0.5, sb)  # warm-up
    tracemalloc.start()
    try:
        engine.perturbed_loss(direction, 0.5, sb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.params.nbytes / 4


def test_a_diverging_probe_on_a_multi_block_superbatch_warns_nothing():
    # 50 minibatches of 32 rows run as equal blocks of at most 256 rows, concurrently where
    # there are CPUs for it; the probe's overflow in a block's matmul must stay silent there too.
    model = Mlp([2, 256, 256, 2], rng=np.random.default_rng(5))
    engine = TrainingEngine(model, make_moons(n=2000, seed=5), 32, seed=5)
    sb = engine.draw_superbatch(50)
    before = model.params.tobytes()
    direction = np.full_like(model.params, -1.0)  # finite params of 1e200: the second layer overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(engine.perturbed_loss(direction, 1e200, sb))
    assert model.params.tobytes() == before


def test_superbatch_loss_never_serves_stale_rows():
    # Random interleavings of everything that moves the rows or the params: every
    # superbatch loss must equal the model's loss on the minibatches its indices named
    # when it was drawn, whatever permutation the engine holds since.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ops = st.sampled_from(["step", "draw", "loss", "again", "perturbed", "save", "restore", "commit"])

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32), program=st.lists(st.tuples(ops, st.integers(0, 2**16)), max_size=40))
    def check(seed, program):
        engine = make_engine(seed, n=96, mb=16)  # 6 minibatches per epoch
        params, opt = engine.model.params, Sgd()
        step = 0
        states = [engine.data_state()]

        def pinned(sb):
            """The superbatch and the minibatches its indices name now."""
            return sb, [engine.minibatch(i) for i in sb.minibatch_indices]

        def reference(drawn_rows):
            x, y = (np.concatenate(part) for part in zip(*drawn_rows))
            return engine.model.loss(x, y)

        drawn = [pinned(engine.draw_superbatch(2))]
        for op, k in program:
            sb, rows = drawn[k % len(drawn)]
            if op == "step":
                step += k % 9
                engine.batch_for_step(step)
            elif op == "draw":
                drawn.append(pinned(engine.draw_superbatch(1 + k % engine.batches_per_epoch)))
                assert engine.superbatch_loss(drawn[-1][0]) == reference(drawn[-1][1])
            elif op == "loss":
                assert engine.superbatch_loss(sb) == reference(rows)
            elif op == "again":
                # The same indices gathered now name the current permutation's rows.
                drawn.append(pinned(engine.superbatch(sb.minibatch_indices)))
                assert engine.superbatch_loss(drawn[-1][0]) == reference(drawn[-1][1])
            elif op == "perturbed":
                direction = np.array([1.0, -2.0, 0.5])
                loss = engine.perturbed_loss(direction, k / 2**16, sb)
                saved = params.copy()
                params[:] = saved - k / 2**16 * direction
                assert loss == reference(rows)
                params[:] = saved
            elif op == "save":
                states.append(engine.data_state())
            elif op == "restore":
                engine.restore_data_state(states[k % len(states)])
            else:
                _, grads = engine.loss_and_gradient(*engine.batch_for_step(step))
                engine.commit(opt, opt.compute_direction(params, grads), 0.05)

    check()


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
    assert len(sb.minibatch_indices) == 8
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
    assert e1.draw_superbatch(4).minibatch_indices == e2.draw_superbatch(4).minibatch_indices


def test_data_state_round_trip():
    engine = make_engine()
    engine.batch_for_step(0)
    state = engine.data_state()
    first = [engine.draw_superbatch(3).minibatch_indices for _ in range(3)]
    x_before, _ = engine.batch_for_step(engine.batches_per_epoch * 2)
    engine.restore_data_state(state)
    replay = [engine.draw_superbatch(3).minibatch_indices for _ in range(3)]
    x_after, _ = engine.batch_for_step(engine.batches_per_epoch * 2)
    assert first == replay
    assert np.array_equal(x_before, x_after)


def test_rollback_replays_across_epoch_boundaries():
    # The tuner's rollback: snapshot params, optimizer state and data cursor at one
    # step, train on up to 3 epochs, restore, and the same steps must replay bit for bit.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**70 - 1), mb=st.integers(1, 12), data=st.data())
    def check(seed, mb, data):
        engine = make_engine(seed, n=60, mb=mb)
        per_epoch = engine.batches_per_epoch
        snap_step = data.draw(st.integers(0, 2 * per_epoch), label="snap_step")
        restore_step = data.draw(st.integers(snap_step, snap_step + 3 * per_epoch), label="restore_step")
        sb_size = data.draw(st.integers(1, per_epoch), label="sb_size")
        params, opt = engine.model.params, Momentum(0.9)

        def train(steps):
            seen = []
            for step in steps:
                x, y = engine.batch_for_step(step)
                sb = engine.draw_superbatch(sb_size)
                _, grads = engine.loss_and_gradient(x, y)
                engine.commit(opt, opt.compute_direction(params, grads), 0.01)
                seen.append((x.tobytes(), y.tobytes(), sb.minibatch_indices, sb.x.tobytes()))
            return seen

        train(range(snap_step))
        snap = take_snapshot(params, opt, 0.01, snap_step, rng_cursor=engine.data_state())
        first = train(range(snap_step, restore_step))
        final = params.tobytes()
        restore_snapshot(snap, params, opt)
        engine.restore_data_state(snap.rng_cursor)
        assert train(range(snap_step, restore_step)) == first
        assert params.tobytes() == final

    check()


def test_blobs_learnable_by_logreg():
    ds = make_blobs(n=100, k=2, sep=5.0, seed=1)
    model = LogisticRegression(2, 2)
    engine = TrainingEngine(model, ds, 16, seed=0)
    opt = Sgd()
    for step in range(200):
        x, y = engine.batch_for_step(step)
        _, g = engine.loss_and_gradient(x, y)
        engine.commit(opt, opt.compute_direction(model.params, g), 0.5)
    acc = float(np.mean(model.predict(ds.test_x) == ds.test_y))
    assert acc >= 0.99
