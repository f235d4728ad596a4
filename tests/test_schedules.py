import numpy as np
import pytest

from quadtune.datasets import make_bowl_dataset, make_moons
from quadtune.engine import TrainingEngine
from quadtune.errors import InvalidArgumentError, QuadtuneError
from quadtune.models import Mlp, QuadraticBowl
from quadtune.optim import Sgd
from quadtune.schedules import (
    Constant,
    CosineDecay,
    InverseSqrt,
    LinearDecay,
    OneCycle,
    StepSchedule,
    Trapezoid,
    lr_at,
    lr_range_test,
    momentum_at,
)

ALL_SPECS = [
    Constant(0.1),
    StepSchedule((0.1, 0.01, 0.001), (30, 60)),
    CosineDecay(0.1, warmup_steps=0),
    CosineDecay(0.1, warmup_steps=10),
    LinearDecay(0.1, warmup_steps=0),
    InverseSqrt(5e-4, warmup_steps=8),
    OneCycle(1.0),
    Trapezoid(1.0),
]


def test_constant():
    assert lr_at(Constant(0.1), 17, 100) == 0.1


def test_step_schedule_staircase():
    # lr 0.1, 0.01, 0.001 held for 30 epochs each
    spec = StepSchedule((0.1, 0.01, 0.001), (30, 60))
    values = [lr_at(spec, e, 90) for e in range(90)]
    assert values[0] == 0.1 and values[29] == 0.1
    assert values[30] == 0.01 and values[45] == 0.01 and values[59] == 0.01
    assert values[60] == 0.001 and values[89] == 0.001


def test_step_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        StepSchedule((0.1, 0.01), (30, 60))
    with pytest.raises(InvalidArgumentError):
        StepSchedule((0.1, 0.01, 0.001), (60, 30))
    with pytest.raises(InvalidArgumentError):
        StepSchedule((0.1, 0.0), (5,))


def test_cosine_endpoints_and_midpoint():
    t = 1000
    spec = CosineDecay(0.1, warmup_steps=0)
    assert lr_at(spec, 0, t) == pytest.approx(0.1, abs=1e-15)
    assert lr_at(spec, t // 2, t) == pytest.approx(0.05, abs=1e-12)
    assert lr_at(spec, t - 1, t) == pytest.approx(0.0, abs=1e-6)


def test_cosine_with_warmup_reaches_seed_at_warmup_end():
    spec = CosineDecay(0.1, warmup_steps=10)
    assert lr_at(spec, 0, 100) == pytest.approx(0.01)
    assert lr_at(spec, 9, 100) == pytest.approx(0.1)
    assert lr_at(spec, 10, 100) == pytest.approx(0.1)


def test_linear_decay_values():
    spec = LinearDecay(0.1, warmup_steps=0)
    assert lr_at(spec, 0, 100) == pytest.approx(0.1)
    assert lr_at(spec, 50, 100) == pytest.approx(0.05)
    assert lr_at(spec, 99, 100) == pytest.approx(0.001)


def test_inverse_sqrt():
    spec = InverseSqrt(5e-4, warmup_steps=4000)
    assert lr_at(spec, 0, 20000) == pytest.approx(1.25e-7)        # peak/warmup on step 1
    assert lr_at(spec, 3999, 20000) == pytest.approx(5e-4)
    assert lr_at(spec, 4000, 20000) == 5e-4                        # exact at warmup
    assert lr_at(spec, 16000, 20000) == pytest.approx(2.5e-4, rel=1e-12)


def test_inverse_sqrt_floor():
    spec = InverseSqrt(1e-3, warmup_steps=10, floor_lr=5e-4)
    assert lr_at(spec, 10000, 20000) == 5e-4


def test_one_cycle_segments():
    t = 1000
    spec = OneCycle(1.0)  # div 10, final_div 10, 0.45/0.45/0.10
    assert lr_at(spec, 0, t) == pytest.approx(0.1)
    assert lr_at(spec, 225, t) == pytest.approx(0.55, abs=1e-12)
    assert lr_at(spec, 450, t) == pytest.approx(1.0, abs=1e-12)
    assert lr_at(spec, 675, t) == pytest.approx(0.55, abs=1e-12)
    assert lr_at(spec, 900, t) == pytest.approx(0.1, abs=1e-12)
    assert lr_at(spec, 950, t) == pytest.approx(0.055, abs=1e-12)
    # final value approaches max/(div*final_div)
    assert lr_at(spec, 999, t) == pytest.approx(0.1 - 0.09 * 0.99, abs=1e-12)


def test_one_cycle_fractions_must_sum_to_one():
    with pytest.raises(InvalidArgumentError):
        OneCycle(1.0, up_frac=0.5, down_frac=0.5, final_frac=0.2)


def test_trapezoid_segments():
    t = 1000
    spec = Trapezoid(1.0)  # 0.10 / 0.80 / 0.10
    assert lr_at(spec, 0, t) == pytest.approx(0.01)
    assert lr_at(spec, 49, t) == pytest.approx(0.5)
    assert lr_at(spec, 99, t) == pytest.approx(1.0)
    assert lr_at(spec, 500, t) == 1.0
    assert lr_at(spec, 899, t) == 1.0
    assert lr_at(spec, 950, t) == pytest.approx(0.5)
    assert lr_at(spec, 999, t) == pytest.approx(0.01)


def test_piecewise_joints_are_continuous():
    t = 1000
    for spec in (OneCycle(1.0), Trapezoid(1.0)):
        values = [lr_at(spec, s, t) for s in range(t)]
        deltas = np.abs(np.diff(values))
        # piecewise linear with bounded slope: no jump larger than a few
        # per-step slopes of the steepest segment
        steepest = (1.0 - 0.1) / (0.10 * t)
        assert deltas.max() <= 3 * steepest + 1e-12


def test_non_negative_everywhere():
    t = 200
    for spec in ALL_SPECS:
        for s in range(t):
            assert lr_at(spec, s, t) >= 0.0


def test_out_of_range_step_rejected():
    with pytest.raises(InvalidArgumentError):
        lr_at(Constant(0.1), 100, 100)
    with pytest.raises(InvalidArgumentError):
        lr_at(Constant(0.1), -1, 100)


def test_momentum_cycling():
    spec = OneCycle(1.0, momentum_range=(0.95, 0.85))
    t = 1000
    assert momentum_at(spec, 0, t) == pytest.approx(0.95)
    assert momentum_at(spec, 225, t) == pytest.approx(0.90, abs=1e-12)
    assert momentum_at(spec, 450, t) == pytest.approx(0.85, abs=1e-12)
    assert momentum_at(spec, 675, t) == pytest.approx(0.90, abs=1e-12)
    assert momentum_at(spec, 950, t) == pytest.approx(0.95)
    assert momentum_at(OneCycle(1.0), 10, t) is None
    assert momentum_at(Constant(0.1), 10, t) is None


def _one_cycle_lr_reference(spec, step, total_steps):
    # Each segment written out on its own, as lr_at computed it before they shared one helper.
    p = step / total_steps
    start = spec.max_lr / spec.div_factor
    if p < spec.up_frac:
        return start + (spec.max_lr - start) * (p / spec.up_frac)
    if p < spec.up_frac + spec.down_frac:
        t = (p - spec.up_frac) / spec.down_frac
        return spec.max_lr - (spec.max_lr - start) * t
    t = (p - spec.up_frac - spec.down_frac) / spec.final_frac
    end = start / spec.final_div
    return start - (start - end) * t


def _one_cycle_momentum_reference(spec, step, total_steps):
    # Momentum falls while lr rises, rises while it falls, and holds its maximum in the final segment.
    max_m, min_m = spec.momentum_range
    p = step / total_steps
    if p < spec.up_frac:
        return max_m - (max_m - min_m) * (p / spec.up_frac)
    if p < spec.up_frac + spec.down_frac:
        t = (p - spec.up_frac) / spec.down_frac
        return min_m + (max_m - min_m) * t
    return max_m


@pytest.mark.parametrize("spec", [
    OneCycle(1.0, momentum_range=(0.95, 0.85)),
    OneCycle(0.3, div_factor=25.0, final_div=1e4, up_frac=0.3, down_frac=0.6, final_frac=0.1,
             momentum_range=(0.9, 0.0)),
    OneCycle(0.07, up_frac=0.0, down_frac=0.8, final_frac=0.2, momentum_range=(0.85, 0.95)),
], ids=["default", "custom", "up_frac-0"])
def test_one_cycle_equals_its_segment_formulas_bit_for_bit(spec):
    for total in (1, 2, 3, 7, 10, 97, 1000, 1537):
        for step in range(total):
            assert lr_at(spec, step, total).hex() == _one_cycle_lr_reference(spec, step, total).hex()
            assert momentum_at(spec, step, total).hex() == _one_cycle_momentum_reference(spec, step, total).hex()


def bowl_engine(theta0=(1.0, 1.0)):
    model = QuadraticBowl(np.diag([1.0, 10.0]), theta0=list(theta0))
    return TrainingEngine(model, make_bowl_dataset(64), minibatch_size=8, seed=0)


class TestRangeTest:
    def test_curve_decreases_in_stable_region(self):
        engine = bowl_engine()
        result = lr_range_test(engine, Sgd(), 0.01, 0.15, 40)
        assert result.exploded_at_lr is None
        smoothed = [loss for _, loss in result.curve]
        assert smoothed[-1] < smoothed[0]
        assert all(b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:]))

    def test_suggestion_is_argmin_over_ten(self):
        engine = bowl_engine()
        result = lr_range_test(engine, Sgd(), 0.01, 0.15, 40)
        best_lr = min(result.curve, key=lambda p: p[1])[0]
        assert result.suggested_max_lr == pytest.approx(best_lr / 10.0)

    def test_explosion_near_stability_boundary(self):
        # 2/lambda_max = 0.2 on this bowl; detection within a factor of 2.
        engine = bowl_engine()
        result = lr_range_test(engine, Sgd(), 0.15, 0.5, 40)
        assert result.exploded_at_lr is not None
        assert 0.1 <= result.exploded_at_lr <= 0.4

    def test_immediate_divergence_raises(self):
        engine = bowl_engine()
        with pytest.raises(QuadtuneError, match="loss diverged immediately; use a smaller lr_min"):
            lr_range_test(engine, Sgd(), 1e18, 1e20, 10)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_loss_after_two_steps_ends_the_curve(self, bad):
        # A stable ramp whose fourth loss (step 3) is non-finite: the ramp stops there
        # without raising, and the curve holds only the three finite points before it.
        engine = bowl_engine()
        real, calls = engine.loss_and_gradient, []

        def loss_and_gradient(x, y):
            loss, grads = real(x, y)
            calls.append(loss)
            return (bad if len(calls) == 4 else loss), grads

        engine.loss_and_gradient = loss_and_gradient
        result = lr_range_test(engine, Sgd(), 0.01, 0.15, 40)
        assert result.exploded_at_lr == 0.01 * (0.15 / 0.01) ** (3 / 39)
        assert [lr for lr, _ in result.curve] == [0.01 * (0.15 / 0.01) ** (i / 39) for i in range(3)]
        assert all(np.isfinite(loss) for _, loss in result.curve)

    def test_validates_arguments(self):
        engine = bowl_engine()
        with pytest.raises(InvalidArgumentError):
            lr_range_test(engine, Sgd(), 0.1, 0.1, 10)
        with pytest.raises(InvalidArgumentError):
            lr_range_test(engine, Sgd(), 0.01, 0.1, 1)
        with pytest.raises(InvalidArgumentError):
            lr_range_test(engine, Sgd(), 0.01, float("inf"), 10)

    def test_on_stochastic_problem(self):
        ds = make_moons(n=600, noise=0.2, seed=8)
        model = Mlp([2, 16, 2], rng=np.random.default_rng(0))
        engine = TrainingEngine(model, ds, 32, seed=0)
        result = lr_range_test(engine, Sgd(), 1e-3, 50.0, 120)
        assert result.exploded_at_lr is not None or len(result.curve) == 120
        assert result.suggested_max_lr > 0
