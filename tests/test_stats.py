import warnings

import numpy as np
import pytest

from quadtune.errors import InvalidArgumentError, QuadtuneError
from quadtune.stats import fd_gradient, least_squares_quadratic, summarize


def test_summarize_constant():
    s = summarize([1.0, 1.0, 1.0])
    assert (s.mean, s.stddev, s.n) == (1.0, 0.0, 3)


def test_summarize_population_stddev():
    s = summarize([0.0, 2.0])
    assert s.mean == 1.0
    assert s.stddev == 1.0  # population (n divisor), not sample
    assert s.n == 2


def test_summarize_empty_rejected():
    with pytest.raises(InvalidArgumentError):
        summarize([])


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(0)
    values = rng.normal(size=17).tolist()
    base = summarize(values)
    for _ in range(5):
        rng.shuffle(values)
        s = summarize(values)
        assert s.mean == pytest.approx(base.mean, rel=1e-12)
        assert s.stddev == pytest.approx(base.stddev, rel=1e-12)


def test_quadratic_exact_interpolation():
    xs = [-0.1, 0.0, 0.1]
    ys = [2.0 - 3.0 * x + 4.0 * x * x for x in xs]
    k0, k1, k2 = least_squares_quadratic(xs, ys)
    assert k0 == pytest.approx(2.0, rel=1e-10)
    assert k1 == pytest.approx(-3.0, rel=1e-10)
    assert k2 == pytest.approx(4.0, rel=1e-10)


def test_quadratic_overdetermined_consistent():
    xs = np.linspace(-0.5, 0.5, 7)
    ys = 1.0 + 0.0 * xs + 1.0 * xs * xs
    k0, k1, k2 = least_squares_quadratic(xs, ys)
    assert k0 == pytest.approx(1.0, abs=1e-12)
    assert abs(k1) < 1e-12
    assert k2 == pytest.approx(1.0, rel=1e-10)


def test_quadratic_tiny_scale_abscissae():
    # Probe grids at NLP-scale learning rates must stay well conditioned.
    xs = np.linspace(-5e-6, 5e-6, 5)
    ys = 3.0 - 200.0 * xs + 4e7 * xs * xs
    k0, k1, k2 = least_squares_quadratic(xs, ys)
    assert k0 == pytest.approx(3.0, rel=1e-9)
    assert k1 == pytest.approx(-200.0, rel=1e-9)
    assert k2 == pytest.approx(4e7, rel=1e-6)


def test_quadratic_residual_orthogonality():
    rng = np.random.default_rng(3)
    xs = np.linspace(-1.0, 1.0, 9)
    ys = 0.5 + 2.0 * xs - 1.5 * xs * xs + rng.normal(0.0, 0.1, size=xs.size)
    k0, k1, k2 = least_squares_quadratic(xs, ys)
    residuals = ys - (k0 + k1 * xs + k2 * xs * xs)
    design = np.column_stack([np.ones_like(xs), xs, xs * xs])
    scale = max(1.0, float(np.max(np.abs(ys)))) * xs.size
    assert np.max(np.abs(design.T @ residuals)) < 1e-9 * scale


def test_quadratic_degenerate_design():
    with pytest.raises(QuadtuneError, match="need at least 3 distinct abscissae"):
        least_squares_quadratic([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(QuadtuneError, match="need at least 3 distinct abscissae"):
        least_squares_quadratic([0.1, 0.2, 0.1], [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0.0, 1.0, 2.0, float("nan")], [1.0] * 4),
        ([0.0, 1.0, float("inf")], [1.0] * 3),
        ([0.0, 1.0, 2.0], [1.0, float("nan"), 1.0]),
    ],
    ids=["nan_abscissa", "inf_abscissa", "nan_ordinate"],
)
def test_quadratic_rejects_nonfinite_input(xs, ys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadtuneError, match="non-finite abscissa or ordinate"):
            least_squares_quadratic(xs, ys)


def test_fd_gradient_quadratic():
    grad = fd_gradient(lambda t: 0.5 * float(t @ t), np.array([3.0]))
    assert grad[0] == pytest.approx(3.0, abs=1e-8)


def test_fd_gradient_quartic():
    grad = fd_gradient(lambda t: float(t[0] ** 4), np.array([1.0]))
    assert grad[0] == pytest.approx(4.0, abs=1e-6)
