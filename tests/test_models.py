import math

import numpy as np
import pytest

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
        # 65536 // (1024 * 32) = 2 minibatches per block: 7 groups span 4 blocks.
        (lambda rng: Mlp([3, 1024, 2], rng=rng), 32, 7),
        # One 96-row minibatch exceeds a block, so each block holds one.
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


def test_stacked_forward_runs_in_blocks_of_whole_minibatches():
    model = Mlp([3, 1024, 2])
    rows = []
    forward = model._forward
    model._forward = lambda x, keep_inputs=False: rows.append(len(x)) or forward(x, keep_inputs)
    model.minibatch_losses(np.zeros((7 * 32, 3)), np.zeros(7 * 32, dtype=int), 32)
    assert rows == [64, 64, 64, 32]  # 65536 // 1024 = 64 rows per block
    rows.clear()
    model.minibatch_losses(np.zeros((3 * 96, 3)), np.zeros(3 * 96, dtype=int), 96)
    assert rows == [96, 96, 96]  # a minibatch wider than a block is one block


def test_bowl_minibatch_losses_equal_a_loop_of_loss():
    bowl = QuadraticBowl([1.0, 10.0], theta0=[0.5, -2.0])
    x, y = np.zeros((12, 1)), np.zeros(12)
    assert bowl.minibatch_losses(x, y, 4).tolist() == _groups_loop(bowl, x, y, 4) == [20.125] * 3


def test_mlp_fused_loss_equals_lean_forward_loss():
    rng = np.random.default_rng(9)
    for model, y in (
        (Mlp([3, 8, 4, 3], rng=rng), rng.integers(0, 3, size=16)),
        (Mlp([3, 6, 1], task="regression", rng=rng), rng.normal(size=16)),
    ):
        x = rng.normal(size=(16, 3))
        assert model.loss_and_gradient(x, y)[0] == model.loss(x, y)
