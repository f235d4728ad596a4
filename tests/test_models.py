import copy
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import quadtune
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


def test_mlp_param_count():
    m = Mlp([2, 64, 32, 2])
    assert m.params.size == 2 * 64 + 64 + 64 * 32 + 32 + 32 * 2 + 2


def test_mlp_seeded_init_deterministic():
    a = Mlp([2, 8, 2], rng=np.random.default_rng(42))
    b = Mlp([2, 8, 2], rng=np.random.default_rng(42))
    assert np.array_equal(a.params, b.params)


def _groups_loop(model, x, y, size):
    return [model.loss(x[i : i + size], y[i : i + size]) for i in range(0, len(x), size)]


@pytest.mark.parametrize(
    "make, size, groups",
    [
        (lambda rng: Mlp([3, 16, 8, 3], rng=rng), 32, 10),
        (lambda rng: Mlp([3, 12, 1], task="regression", rng=rng), 16, 7),
        # 65536 // 1024 = 64 rows per block: 7 groups span 4 blocks.
        (lambda rng: Mlp([3, 1024, 2], rng=rng), 32, 7),
        # A 96-row minibatch is wider than a block, so groups straddle blocks.
        (lambda rng: Mlp([3, 1024, 3], rng=rng), 96, 3),
        (lambda rng: LogisticRegression(3, 4), 8, 5),
        (lambda rng: LinearRegression(3), 16, 9),
    ],
    ids=["mlp", "mlp_regression", "mlp_4_blocks", "mlp_block_per_minibatch", "logreg", "linreg"],
)
def test_minibatch_losses_equal_a_loop_of_loss(make, size, groups):
    rng = np.random.default_rng(5)
    model = make(rng)
    model.params[:] += rng.normal(scale=0.1, size=model.params.size)
    x = rng.normal(size=(size * groups, 3))
    if model.task == "classification":
        y = rng.integers(0, model.layer_sizes[-1], size=len(x))
    else:
        y = rng.normal(size=len(x))
    losses = model.minibatch_losses(x, y, size)
    assert losses.tolist() == _groups_loop(model, x, y, size)


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


def test_every_evaluation_runs_in_blocks_of_rows():
    model = Mlp([3, 1024, 2])  # 65536 // 1024 = 64 rows per block
    calls = _spy_forward(model)
    for n, blocks in ((7 * 32, [64, 64, 64, 32]), (3 * 96, [64, 64, 64, 64, 32]), (200, [64, 64, 64, 8])):
        x, y = np.zeros((n, 3)), np.zeros(n, dtype=int)
        x[:, 0] = np.arange(n)  # a block's first value is its start row
        evaluations = [lambda: model.loss(x, y), lambda: model.predict(x), lambda: model.loss_and_predict(x, y)]
        evaluations += [lambda size=size: model.minibatch_losses(x, y, size) for size in (32, 96) if n % size == 0]
        for evaluate in evaluations:
            calls.clear()
            evaluate()
            # Blocks may run concurrently, so they are compared by start row, not by call order.
            assert sorted((start, rows) for rows, start, _, _ in calls) == list(zip(range(0, n, 64), blocks))


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
def test_a_multi_block_evaluation_runs_its_blocks_on_several_threads():
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
    assert loss == float(rows.sum() / n)
    assert predicted.tobytes() == model._predictions(out).tobytes()
    if n % 32 == 0:
        assert model.minibatch_losses(x, y, 32).tobytes() == (rows.reshape(-1, 32).sum(axis=1) / 32).tobytes()


def test_bowl_minibatch_losses_equal_a_loop_of_loss():
    bowl = QuadraticBowl([1.0, 10.0], theta0=[0.5, -2.0])
    x, y = np.zeros((12, 1)), np.zeros(12)
    assert bowl.minibatch_losses(x, y, 4).tolist() == _groups_loop(bowl, x, y, 4) == [20.125] * 3


@pytest.mark.parametrize(
    "model",
    [Mlp([3, 8, 4, 3], rng=np.random.default_rng(1)), Mlp([3, 6, 1], task="regression", rng=np.random.default_rng(2)),
     LogisticRegression(3, 4), LinearRegression(3)],
    ids=["mlp", "mlp_regression", "logreg", "linreg"],
)
def test_loss_and_predict_equal_loss_then_predict(model):
    rng = np.random.default_rng(4)
    model.params[:] += rng.normal(scale=0.1, size=model.params.size)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40) if model.task == "classification" else rng.normal(size=40)
    loss, predicted = model.loss_and_predict(x, y)
    assert loss == model.loss(x, y)
    assert predicted.tobytes() == model.predict(x).tobytes()
    if isinstance(model, Mlp):  # one forward for both
        rows = []
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
    r = linreg.predict(x) - y
    assert linreg.minibatch_losses(x, y, n).tolist() == (0.5 * r * r).reshape(-1, n).mean(axis=1).tolist()
    mlp = Mlp([4, 16, 3], rng=rng)
    labels = rng.integers(0, 3, size=3 * n)
    rows, _ = mlp._row_losses(mlp.logits(x), labels)
    assert mlp.loss(x, labels) == float(np.mean(rows))
    assert mlp.loss_and_gradient(x, labels)[0] == float(np.mean(rows))
    assert mlp.minibatch_losses(x, labels, n).tolist() == rows.reshape(-1, n).mean(axis=1).tolist()
