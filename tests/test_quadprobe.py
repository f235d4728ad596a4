import math

import numpy as np
import pytest

from quadtune.errors import InvalidArgumentError, QuadtuneError
from quadtune.quadprobe import (
    EpsilonProposal,
    LossSample,
    ProposalKind,
    QuadFit,
    epsilon_bound,
    fit_quadratic,
    probe_points,
    propose_epsilon,
)


def quad_samples(k0, k1, k2, xs):
    return [LossSample(x, k0 + k1 * x + k2 * x * x) for x in xs]


class TestProbePoints:
    def test_span_dominates(self):
        assert probe_points(0.1, 0.1, 5, 0.5) == [-0.05, -0.025, 0.0, 0.025, 0.05]

    def test_bound_dominates(self):
        assert probe_points(0.1, 0.01, 3, 0.5) == [-0.01, 0.0, 0.01]

    def test_bound_below_half_eta(self):
        assert probe_points(1.0, 0.1, 5, 0.5) == [-0.1, -0.05, 0.0, 0.05, 0.1]

    def test_even_n_excludes_zero(self):
        pts = probe_points(1.0, 1.0, 4, 0.5)
        assert len(pts) == 4
        assert 0.0 not in pts
        assert pts == sorted(pts)

    def test_within_bound_and_distinct(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eta = float(rng.uniform(1e-5, 1.0))
            bound = float(rng.uniform(1e-6, 0.5))
            n = int(rng.choice([3, 5, 7, 9]))
            pts = probe_points(eta, bound, n, 0.5)
            assert len(set(pts)) == n
            assert all(abs(p) <= bound + 1e-15 for p in pts)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            probe_points(0.1, 0.1, 2, 0.5)
        with pytest.raises(InvalidArgumentError):
            probe_points(0.0, 0.1, 5, 0.5)
        with pytest.raises(InvalidArgumentError):
            probe_points(0.1, 0.0, 5, 0.5)
        with pytest.raises(InvalidArgumentError):
            probe_points(0.1, 0.1, 5, 1.5)


class TestFitQuadratic:
    def test_three_point_interpolation(self):
        fit = fit_quadratic(quad_samples(2.0, -3.0, 4.0, [-0.1, 0.0, 0.1]))
        assert fit.k0 == pytest.approx(2.0, rel=1e-10)
        assert fit.k1 == pytest.approx(-3.0, rel=1e-10)
        assert fit.k2 == pytest.approx(4.0, rel=1e-10)
        assert fit.residual_rms < 1e-10 * max(1.0, abs(fit.k0))

    def test_five_point_consistent(self):
        fit = fit_quadratic(quad_samples(1.0, 0.0, 1.0, probe_points(1.0, 1.0, 5, 0.5)))
        assert fit.k0 == pytest.approx(1.0, rel=1e-10)
        assert abs(fit.k1) < 1e-10
        assert fit.k2 == pytest.approx(1.0, rel=1e-10)
        assert fit.residual_rms < 1e-10

    def test_directional_derivatives_on_quadratic_form(self):
        # L(theta) = 0.5 theta^T A theta probed along d = grad L: the linear
        # coefficient is -d.g and the curvature 0.5 d^T A d, computed analytically.
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(3, 3))
            a = m @ m.T + 3.0 * np.eye(3)
            theta = rng.normal(size=3)
            g = a @ theta
            d = g.copy()
            xs = np.linspace(-0.05, 0.05, 5)
            samples = [
                LossSample(float(x), float(0.5 * (theta - x * d) @ a @ (theta - x * d)))
                for x in xs
            ]
            fit = fit_quadratic(samples)
            assert fit.k1 == pytest.approx(-float(d @ g), rel=1e-9)
            assert fit.k2 == pytest.approx(0.5 * float(d @ a @ d), rel=1e-9)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(-0.2, 0.2, 7)
        ys = 1.0 + 2.0 * xs - 0.7 * xs * xs + rng.normal(0.0, 0.01, size=xs.size)
        base = fit_quadratic([LossSample(float(x), float(y)) for x, y in zip(xs, ys)])
        shifted = fit_quadratic([LossSample(float(x), float(y + 5.0)) for x, y in zip(xs, ys)])
        scale = max(1.0, abs(base.k1), abs(base.k2))
        assert shifted.k0 == pytest.approx(base.k0 + 5.0, rel=1e-10)
        assert abs(shifted.k1 - base.k1) < 1e-10 * scale
        assert abs(shifted.k2 - base.k2) < 1e-10 * scale

    def test_rejects_degenerate_and_nonfinite(self):
        with pytest.raises(QuadtuneError, match="need at least 3 distinct abscissae"):
            fit_quadratic(quad_samples(1.0, 1.0, 1.0, [0.0, 0.1]))
        with pytest.raises(QuadtuneError, match="need at least 3 distinct abscissae"):
            fit_quadratic(quad_samples(1.0, 1.0, 1.0, [0.1, 0.1, 0.1, 0.2]))
        with pytest.raises(QuadtuneError, match="non-finite abscissa or ordinate"):
            fit_quadratic([LossSample(0.0, 1.0), LossSample(0.1, math.nan), LossSample(0.2, 1.0)])


def parent_fit(samples):
    """The fit as first written, with NumPy's wrappers; the fast path must match it bit for bit."""
    xs = np.array([s.epsilon for s in samples], dtype=np.float64)
    ys = np.array([s.loss for s in samples], dtype=np.float64)
    assert np.unique(xs).size >= 3
    m = float(np.mean(xs))
    xc = xs - m
    s = float(np.max(np.abs(xc)))
    u = xc / s
    design = np.column_stack([np.ones_like(u), u, u * u])
    a0, a1, a2 = np.linalg.solve(design.T @ design, design.T @ ys)
    b2 = a2 / (s * s)
    b1 = a1 / s
    k0, k1, k2 = float(a0 - b1 * m + b2 * m * m), float(b1 - 2.0 * b2 * m), float(b2)
    residuals = ys - (k0 + k1 * xs + k2 * xs * xs)
    return k0, k1, k2, float(np.sqrt(np.mean(residuals * residuals)))


def test_fit_is_bit_identical_to_the_wrapper_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        n=st.sampled_from([3, 5, 7, 9]),
        eta=st.floats(1e-6, 10.0),
        bound=st.floats(1e-9, 10.0),
        span=st.floats(0.01, 1.0),
        data=st.data(),
    )
    def check(n, eta, bound, span, data):
        grid = probe_points(eta, bound, n, span)
        kept = data.draw(st.lists(st.sampled_from(range(n)), min_size=3, max_size=n, unique=True), label="kept")
        losses = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(kept), max_size=len(kept)), label="losses")
        samples = [LossSample(grid[i], loss) for i, loss in zip(sorted(kept), losses)]
        hypothesis.assume(len({s.epsilon for s in samples}) >= 3)
        fit = fit_quadratic(samples)
        assert (fit.k0, fit.k1, fit.k2, fit.residual_rms) == parent_fit(samples)

    check()


class TestEpsilonBound:
    def test_exact_cube_roots(self):
        assert epsilon_bound(1e-3, 1.0) == 0.1
        assert epsilon_bound(1e-3, 8.0) == 0.2

    def test_small_threshold(self):
        assert epsilon_bound(1e-8, 1.0) == pytest.approx(2.1544346900318843e-3, rel=1e-12)

    def test_zero_loss(self):
        assert epsilon_bound(1e-3, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            epsilon_bound(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            epsilon_bound(1e-3, -1.0)


class TestProposeEpsilon:
    def test_interior_minimum(self):
        prop = propose_epsilon(QuadFit(1.0, 2.0, 1.0, 0.0), bound=10.0)
        assert prop.kind is ProposalKind.ACCEPT
        assert prop.epsilon == pytest.approx(-1.0)

    def test_clamped_positive(self):
        prop = propose_epsilon(QuadFit(1.0, -0.4, 1.0, 0.0), bound=0.1)
        assert prop.kind is ProposalKind.CLAMPED_TO_BOUND
        assert prop.epsilon == pytest.approx(0.1)

    def test_negative_curvature_lower_endpoint(self):
        # predicted loss: 0.895 at -0.1 vs 1.095 at +0.1
        prop = propose_epsilon(QuadFit(1.0, 1.0, -0.5, 0.0), bound=0.1)
        assert prop.kind is ProposalKind.CLAMPED_TO_BOUND
        assert prop.epsilon == pytest.approx(-0.1)

    def test_flat_fit_ties_toward_decrease(self):
        prop = propose_epsilon(QuadFit(1.0, 0.0, 0.0, 0.0), bound=0.2)
        assert prop.kind is ProposalKind.CLAMPED_TO_BOUND
        assert prop.epsilon == pytest.approx(-0.2)

    def test_curvature_floor_uses_endpoint_rule(self):
        prop = propose_epsilon(QuadFit(1.0, 1.0, 1e-18, 0.0), bound=0.5)
        assert prop.kind is ProposalKind.CLAMPED_TO_BOUND
        assert prop.epsilon == pytest.approx(-0.5)

    def test_k0_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k1 = float(rng.normal())
            k2 = float(rng.normal())
            bound = float(rng.uniform(0.01, 1.0))
            a = propose_epsilon(QuadFit(0.0, k1, k2, 0.0), bound)
            b = propose_epsilon(QuadFit(37.5, k1, k2, 0.0), bound)
            assert a == b

    def test_threshold_safety(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            fit = QuadFit(float(rng.normal()), float(rng.normal()), float(rng.normal()), 0.0)
            bound = float(rng.uniform(0.0, 1.0))
            prop = propose_epsilon(fit, bound)
            assert prop.is_applicable
            assert abs(prop.epsilon) <= bound + 1e-15


def test_proposal_kind_helpers():
    assert EpsilonProposal(ProposalKind.REJECT_PHASE_FILTER).is_applicable is False
    assert EpsilonProposal(ProposalKind.REJECT_NO_MINIMUM).is_applicable is False
    assert EpsilonProposal(ProposalKind.ACCEPT, 0.1).is_applicable is True
