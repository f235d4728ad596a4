import copy
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import quadtune
from quadtune.errors import InvalidArgumentError
from quadtune.models import LinearRegression, LogisticRegression, Mlp, QuadraticBowl
from quadtune.stats import fd_gradient


def test_linreg_zero_prediction_zero_target():
    m = LinearRegression(1)
    assert m.loss(np.array([[1.0]]), np.array([0.0])) == 0.0


def test_linreg_gradient_hand_value():
    m = LinearRegression(1)
    grad = m.gradient(np.array([[1.0]]), np.array([1.0]))
    assert grad[0] == pytest.approx(-1.0)  # dL/dw
    assert grad[1] == pytest.approx(-1.0)  # dL/db


def test_logreg_uniform_logits_entropy():
    m = LogisticRegression(3, 2)
    x = np.array([[0.5, -0.2, 0.1]])
    assert m.loss(x, np.array([0])) == pytest.approx(math.log(2.0), rel=1e-12)


def test_mlp_hand_set_forward():
    m = Mlp([2, 2, 2])
    m.params[:] = [1, 0, 0, 1, 0, 0, 1, -1, -1, 1, 0.5, -0.5]
    x = np.array([[1.0, 2.0]])
    # hidden relu((1,2)) = (1,2); logits = (-0.5, 0.5)
    expected = math.log(math.exp(-0.5) + math.exp(0.5)) + 0.5
    assert m.loss(x, np.array([0])) == pytest.approx(expected, rel=1e-12)


def test_zero_mlp_output_bias_gradient():
    m = Mlp([2, 3, 2])
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([0, 1])
    grad = m.gradient(x, y)
    # all-zero weights: softmax is uniform, output bias grad = mean(p - onehot)
    expected = np.mean(np.array([[0.5 - 1.0, 0.5], [0.5, 0.5 - 1.0]]), axis=0)
    assert np.allclose(grad[-2:], expected, atol=1e-12)


def test_bowl_closed_forms():
    bowl = QuadraticBowl([1.0, 10.0], theta0=[1.0, 1.0])
    assert bowl.loss() == pytest.approx(5.5)
    assert np.allclose(bowl.gradient(), [1.0, 10.0])
    bowl.params[:] = 0.0
    assert bowl.loss() == 0.0


def test_bowl_full_matrix():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    bowl = QuadraticBowl(a, theta0=[1.0, 2.0])
    theta = np.array([1.0, 2.0])
    assert bowl.loss() == pytest.approx(0.5 * theta @ a @ theta)


def _fd_check(model, x, y, tol=1e-4):
    analytic = model.gradient(x, y)
    saved = model.params.copy()

    def loss_at(theta):
        model.params[:] = theta
        value = model.loss(x, y)
        model.params[:] = saved
        return value

    numeric = fd_gradient(loss_at, saved)
    denom = max(1.0, float(np.max(np.abs(analytic))))
    assert float(np.max(np.abs(analytic - numeric))) / denom < tol


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)

    m = LinearRegression(3)
    m.params[:] = rng.normal(size=m.params.size)
    _fd_check(m, rng.normal(size=(8, 3)), rng.normal(size=8))

    m = LogisticRegression(4, 3)
    m.params[:] = rng.normal(size=m.params.size)
    _fd_check(m, rng.normal(size=(8, 4)), rng.integers(0, 3, size=8))

    m = Mlp([3, 8, 4, 2], rng=rng)
    _fd_check(m, rng.normal(size=(8, 3)), rng.integers(0, 2, size=8))

    m = Mlp([3, 6, 1], task="regression", rng=rng)
    _fd_check(m, rng.normal(size=(8, 3)), rng.normal(size=8))


def test_mlp_regression_loss_is_half_squared_error():
    m = Mlp([2, 1], task="regression")
    m.params[:] = [1.0, -1.0, 0.5]  # w = (1, -1), b = 0.5
    x = np.array([[2.0, 1.0]])
    # pred = 2 - 1 + 0.5 = 1.5; loss = 0.5 * (1.5 - 1.0)^2
    assert m.loss(x, np.array([1.0])) == pytest.approx(0.125)


@pytest.mark.parametrize("layer_sizes", [[2, 3], [2, 4, 2]])
def test_a_regression_mlp_has_exactly_one_output(layer_sizes):
    with pytest.raises(InvalidArgumentError, match="exactly one output, not"):
        Mlp(layer_sizes, task="regression")
    m = Mlp([2, 4, 1], task="regression", rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(5, 2))
    assert m.predict(x).shape == (5,)


def test_mlp_param_count():
    m = Mlp([2, 64, 32, 2])
    assert m.params.size == 2 * 64 + 64 + 64 * 32 + 32 + 32 * 2 + 2


def test_mlp_seeded_init_deterministic():
    a = Mlp([2, 8, 2], rng=np.random.default_rng(42))
    b = Mlp([2, 8, 2], rng=np.random.default_rng(42))
    assert np.array_equal(a.params, b.params)


def _spy_forward(model):
    """Record the rows, the first input value, the output and the thread of each `_forward` call of `model`."""
    calls = []
    forward = model._forward

    def spy(x, keep_inputs=False):
        out = forward(x, keep_inputs)
        calls.append((len(x), x[0, 0], out[0], threading.get_ident()))
        return out

    model._forward = spy
    return calls


@pytest.fixture
def set_shares(monkeypatch):
    """Sets the share count of `Mlp.logits` to k, with a pool of k - 1 workers."""
    pools = []

    def set_shares(k):
        pool = ThreadPoolExecutor(k - 1) if k > 1 else None
        pools.append(pool)
        monkeypatch.setattr(quadtune.models, "_SHARES", k)
        monkeypatch.setattr(quadtune.models, "_POOL", pool)

    yield set_shares
    for pool in pools:
        if pool is not None:
            pool.shutdown()


def test_every_evaluation_runs_in_blocks_of_rows(set_shares):
    model = Mlp([3, 1024, 2])  # 65536 // 1024 = 64 rows per block at most
    calls = _spy_forward(model)
    # ceil(n / 64) blocks, rounded up to a multiple of the share count, cut into
    # equal blocks on edges at multiples of 8 rows: 8 * (i * ceil(n / 8) // blocks)
    for shares, blocks in (
        (1, {7 * 32: [56] * 4, 3 * 96: [56, 56, 56, 56, 64], 200: [48, 48, 48, 56]}),
        (2, {7 * 32: [56] * 4, 3 * 96: [48] * 6, 200: [48, 48, 48, 56]}),
        (3, {7 * 32: [32, 40, 40] * 2, 3 * 96: [48] * 6, 200: [32] * 5 + [40]}),
    ):
        set_shares(shares)
        for n, sizes in blocks.items():
            x, y = np.zeros((n, 3)), np.zeros(n, dtype=int)
            x[:, 0] = np.arange(n)  # a block's first value is its start row
            starts = np.cumsum([0] + sizes[:-1]).tolist()
            for evaluate in (lambda: model.loss(x, y), lambda: model.predict(x), lambda: model.loss_and_predict(x, y)):
                calls.clear()
                evaluate()
                # Blocks may run concurrently, so they are compared by start row, not by call order.
                assert sorted((start, rows) for rows, start, _, _ in calls) == list(zip(starts, sizes)), shares


@pytest.mark.parametrize("shares", [2, 3])
def test_the_calling_thread_runs_the_first_share(set_shares, shares):
    set_shares(shares)
    model = Mlp([3, 1024, 2])
    calls = _spy_forward(model)
    x = np.zeros((6 * 64, 3))
    x[:, 0] = np.arange(len(x))
    model.logits(x)
    first_share = 6 * 64 // shares
    on_caller = sorted(start for _, start, _, thread in calls if thread == threading.get_ident())
    assert on_caller == list(range(0, first_share, 64))


def test_an_exception_in_the_callers_share_waits_for_the_worker_share(set_shares):
    set_shares(2)
    model = Mlp([3, 1024, 2])
    forward = model._forward
    caller = threading.get_ident()
    raised = threading.Event()
    finished = []

    def spy(x, keep_inputs=False):
        if threading.get_ident() == caller:
            raised.set()
            raise RuntimeError("the caller's block failed")
        raised.wait(10)
        time.sleep(0.05)  # the worker share is still running when the caller's raise arrives
        out = forward(x, keep_inputs)
        finished.append(len(x))
        return out

    model._forward = spy
    with pytest.raises(RuntimeError, match="the caller's block failed"):
        model.logits(np.zeros((4 * 64, 3)))
    assert finished == [64, 64]


@pytest.mark.parametrize("shares", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "sizes, n",
    [([2, 256, 256, 2], 50 * 32), ([2, 256, 256, 2], 800), ([2, 64, 32, 2], 10 * 32)],
    ids=["wide_probe_superbatch", "wide_probe_test_set", "moons_superbatch"],
)
def test_blocked_results_are_the_same_bits_for_any_share_count(set_shares, sizes, n, shares):
    set_shares(shares)
    rng = np.random.default_rng(n)
    model = Mlp(sizes, rng=rng)
    model.params[:] += rng.normal(scale=0.1, size=model.params.size)
    x, y = rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)
    out = model._forward(x)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # with 4 shares, more threads than a 2-CPU host has cores, switching often
    try:
        for _ in range(3):
            assert model.logits(x).tobytes() == out.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert model.loss(x, y) == float(model._row_losses(out, y)[0].sum() / n)


def test_a_batch_that_fits_one_block_is_one_forward_without_a_copy():
    model = Mlp([3, 1024, 2])
    calls = _spy_forward(model)
    out = model.logits(np.zeros((64, 3)))
    assert len(calls) == 1 and calls[0][2] is out
    wide = Mlp([2, 2**17, 2])  # wider than BLOCK_ELEMENTS: one row per block
    calls = _spy_forward(wide)
    wide.loss_and_predict(np.zeros((3, 2)), np.zeros(3, dtype=int))
    assert [rows for rows, _, _, _ in calls] == [1, 1, 1]


def test_a_batch_that_fits_one_block_runs_on_the_calling_thread():
    model = Mlp([3, 1024, 2])
    calls = _spy_forward(model)
    model.loss(np.zeros((64, 3)), np.zeros(64, dtype=int))
    assert [thread for _, _, _, thread in calls] == [threading.get_ident()]


@pytest.mark.skipif(quadtune.models._POOL is None, reason="one CPU: the blocks run in turn")
def test_a_multi_block_evaluation_runs_its_blocks_on_several_threads(monkeypatch):
    monkeypatch.setattr(quadtune.models, "_SHARES", 2)  # two shares of two blocks, whatever the CPU count
    model = Mlp([3, 1024, 2])
    forward = model._forward
    threads = []
    both = threading.Barrier(2, timeout=10)

    def spy(x, keep_inputs=False):
        threads.append(threading.get_ident())
        if len(threads) <= 2:
            both.wait()  # the first two blocks pass only together, so on two threads at once
        return forward(x, keep_inputs)

    model._forward = spy
    model.logits(np.zeros((4 * 64, 3)))
    assert len(threads) == 4 and len(set(threads)) >= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_evaluates_blocks_after_its_parent_did():
    model = Mlp([3, 1024, 2])
    x = np.zeros((4 * 64, 3))
    model.logits(x)  # the parent's pool has started its threads
    child = multiprocessing.get_context("fork").Process(target=model.logits, args=(x,))
    child.start()
    child.join(30)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code, **env):
    """Stdout of `code` run by a fresh interpreter that finds this quadtune."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | env
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quadtune.__file__))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_importing_quadtune_starts_no_thread():
    assert _python("import threading, quadtune.cli; print(threading.active_count())") == "1\n"


def test_importing_quadtune_first_gives_blas_one_thread_unless_the_user_set_one():
    code = f"import os, quadtune; print(*(os.environ[v] for v in {BLAS_THREAD_VARS}))"
    assert _python(code) == "1 1 1\n"
    assert _python(code, OMP_NUM_THREADS="2") == "1 2 1\n"


def test_blocked_test_set_evaluation_stays_within_a_few_blocks_of_memory():
    rng = np.random.default_rng(3)
    model = Mlp([4, 256, 256, 2], rng=rng)
    x, y = rng.normal(size=(8192, 4)), rng.integers(0, 2, size=8192)
    tracemalloc.start()
    try:
        model.loss_and_predict(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One unblocked forward holds 8192 x 256 float64 (16 MiB) per hidden layer.
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "sizes, n",
    [([2, 64, 32, 2], 400), ([2, 64, 32, 2], 10 * 32), ([2, 256, 256, 2], 800), ([2, 256, 256, 2], 50 * 32)],
    ids=["moons_test_set", "moons_superbatch", "wide_probe_test_set", "wide_probe_superbatch"],
)
def test_blocked_evaluation_equals_one_unblocked_forward(sizes, n):
    rng = np.random.default_rng(n)
    model = Mlp(sizes, rng=rng)
    model.params[:] += rng.normal(scale=0.1, size=model.params.size)
    x, y = rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)
    out = model._forward(x)[0]
    rows, _ = model._row_losses(out, y)
    loss, predicted = model.loss_and_predict(x, y)
    assert loss == model.loss(x, y) == float(rows.sum() / n)
    assert predicted.tobytes() == model._predictions(out).tobytes()


@pytest.mark.parametrize(
    "model",
    [Mlp([3, 8, 4, 3], rng=np.random.default_rng(1)), Mlp([3, 6, 1], task="regression", rng=np.random.default_rng(2)),
     LogisticRegression(3, 4)],
    ids=["mlp", "mlp_regression", "logreg"],
)
def test_loss_and_predict_equal_loss_then_predict(model):
    rng = np.random.default_rng(4)
    model.params[:] += rng.normal(scale=0.1, size=model.params.size)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40) if model.task == "classification" else rng.normal(size=40)
    loss, predicted = model.loss_and_predict(x, y)
    assert loss == model.loss(x, y)
    assert predicted.tobytes() == model.predict(x).tobytes()
    rows = []  # one forward for both
    forward = model._forward
    model._forward = lambda x, keep_inputs=False: rows.append(len(x)) or forward(x, keep_inputs)
    model.loss_and_predict(x, y)
    assert rows == [40]


def test_mlp_fused_loss_equals_lean_forward_loss():
    rng = np.random.default_rng(9)
    for model, y in (
        (Mlp([3, 8, 4, 3], rng=rng), rng.integers(0, 3, size=16)),
        (Mlp([3, 6, 1], task="regression", rng=rng), rng.normal(size=16)),
    ):
        x = rng.normal(size=(16, 3))
        assert model.loss_and_gradient(x, y)[0] == model.loss(x, y)


def test_forward_reads_the_params_after_assignment_deepcopy_and_pickle():
    rng = np.random.default_rng(4)
    model = Mlp([2, 8, 3], rng=rng)
    x, y = rng.normal(size=(5, 2)), rng.integers(0, 3, size=5)
    values = rng.normal(size=model.params.size)
    reference = Mlp([2, 8, 3])
    reference.params[:] = values
    model.params[:] = values
    assert model.logits(x).tolist() == reference.logits(x).tolist()
    zero = Mlp([2, 8, 3])
    for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        clone.params[:] = 0.0
        assert clone.logits(x).tolist() == [[0.0] * 3] * 5
        loss, grad = clone.loss_and_gradient(x, y)
        assert loss == zero.loss(x, y) and grad.tolist() == zero.gradient(x, y).tolist()
        assert model.logits(x).tolist() == reference.logits(x).tolist()


@pytest.mark.parametrize("n", [1, 7, 16, 33])
def test_means_equal_their_np_mean_forms(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3 * n, 4))
    linreg = LinearRegression(4)
    linreg.params[:] = rng.normal(size=5)
    y = rng.normal(size=3 * n)
    r = linreg.predict(x[:n]) - y[:n]
    assert linreg.loss(x[:n], y[:n]) == float(np.mean(0.5 * r * r))
    assert linreg.gradient(x[:n], y[:n]).tolist() == [*(x[:n].T @ r / n), r.mean()]
    mlp = Mlp([4, 16, 3], rng=rng)
    labels = rng.integers(0, 3, size=3 * n)
    rows, _ = mlp._row_losses(mlp.logits(x), labels)
    assert mlp.loss(x, labels) == float(np.mean(rows))
    assert mlp.loss_and_gradient(x, labels)[0] == float(np.mean(rows))


@pytest.mark.parametrize("sizes,task,rows,seeds", [
    ([2, 64, 32, 2], "classification", 32, 3),
    ([20, 64, 32, 10], "classification", 32, 10),
    ([3, 16, 1], "regression", 17, 4),
    ([5, 3], "classification", 200, 2),
    ([4, 7, 3], "classification", 1, 2),
])
def test_a_stacked_step_gives_each_seed_the_bits_of_its_own_call(sizes, task, rows, seeds):
    rng = np.random.default_rng(len(sizes) * rows + seeds)
    models = [Mlp(sizes, task=task, rng=rng) for _ in range(seeds)]
    for model in models:
        model.params += rng.normal(scale=0.1, size=model.params.shape)  # nonzero biases
    x = rng.normal(size=(seeds, rows, sizes[0]))
    y = rng.integers(0, sizes[-1], size=(seeds, rows)) if task == "classification" else rng.normal(size=(seeds, rows))
    alone = [model.loss_and_gradient(x[i], y[i]) for i, model in enumerate(models)]
    before = [model.params.copy() for model in models]
    stacked = Mlp.stack(models)
    for i, model in enumerate(models):
        # Each model's params are its row of the stack, with its values; a write to one reaches the other.
        assert model.params.base is stacked.params and model.params.tolist() == before[i].tolist()
        assert all(np.shares_memory(w, model.params) for w, _ in model._layers)
    losses, grads = stacked.loss_and_gradient(x, y)
    for i, model in enumerate(models):
        assert float(losses[i]) == alone[i][0] == model.loss_and_gradient(x[i], y[i])[0]
        assert grads[i].tobytes() == alone[i][1].tobytes()
    models[0].params[0] += 1.0
    assert stacked.params[0, 0] == models[0].params[0] and stacked._layers[0][0][0, 0, 0] == models[0].params[0]


@pytest.mark.parametrize("features,rows,seeds", [(1, 3, 2), (1, 33, 5), (4, 7, 3), (11, 199, 5), (3, 17, 1)])
def test_a_stacked_linreg_gives_each_seed_the_bits_of_its_own_call(features, rows, seeds):
    rng = np.random.default_rng(features * rows + seeds)
    models = [LinearRegression(features) for _ in range(seeds)]
    for model in models:
        model.params[:] = rng.normal(size=model.params.shape)
    x = rng.normal(size=(seeds, rows, features))
    y = rng.normal(size=(seeds, rows))
    alone = [(model.predict(x[i]), model.loss(x[i], y[i]), model.gradient(x[i], y[i]))
             for i, model in enumerate(models)]
    for i, model in enumerate(models):
        # One model's call has the bits of the matrix-vector form `x @ w + b`.
        w, b = model.params[:features], model.params[features]
        assert alone[i][0].tobytes() == (x[i] @ w + b).tobytes()
    before = [model.params.copy() for model in models]
    stacked = LinearRegression.stack(models)
    for i, model in enumerate(models):
        assert model.params.base is stacked.params and model.params.tolist() == before[i].tolist()
        assert np.shares_memory(model.params, stacked.params[i])
    predictions = stacked.predict(x)
    losses = stacked.loss(x, y)
    grads = stacked.gradient(x, y)
    pair_losses, pair_grads = stacked.loss_and_gradient(x, y)
    for i, model in enumerate(models):
        assert predictions[i].tobytes() == alone[i][0].tobytes()
        assert float(losses[i]) == float(pair_losses[i]) == alone[i][1] == model.loss(x[i], y[i])
        assert grads[i].tobytes() == pair_grads[i].tobytes() == alone[i][2].tobytes()
    models[-1].params[-1] += 1.0
    assert stacked.params[-1, -1] == models[-1].params[-1]


@pytest.mark.parametrize("dim,seeds", [(1, 3), (3, 4), (17, 2), (64, 5), (3, 1)])
def test_a_stacked_bowl_gives_each_seed_the_bits_of_its_own_call(dim, seeds):
    rng = np.random.default_rng(dim * 10 + seeds)
    a = rng.normal(size=(dim, dim))
    matrix = a @ a.T + np.eye(dim)
    models = [QuadraticBowl(matrix, rng.normal(size=dim)) for _ in range(seeds)]  # a theta0 per seed
    alone = [(model.loss(), model.gradient(), model.loss_and_gradient(None, None)) for model in models]
    for i, model in enumerate(models):
        # One model's call has the bits of `theta @ A @ theta` and `A @ theta`, and a float loss.
        theta = model.params
        assert type(alone[i][0]) is float and alone[i][0] == float(0.5 * theta @ matrix @ theta)
        assert alone[i][1].tobytes() == (matrix @ theta).tobytes()
    stacked = QuadraticBowl.stack(models)
    losses, grads = stacked.loss(), stacked.gradient()
    pair_losses, pair_grads = stacked.loss_and_gradient(None, None)
    assert losses.shape == (seeds,) and grads.shape == (seeds, dim)
    for i, (loss, grad, (pair_loss, pair_grad)) in enumerate(alone):
        assert float(losses[i]) == float(pair_losses[i]) == loss == pair_loss
        assert grads[i].tobytes() == pair_grads[i].tobytes() == grad.tobytes() == pair_grad.tobytes()
    models[-1].params[0] += 1.0
    assert np.shares_memory(models[-1].params, stacked.params) and stacked.params[-1, 0] == models[-1].params[0]
