import numpy as np
import pytest

from quadtune.errors import QuadtuneError
from quadtune.optim import Adam, AdamW, Momentum, Sgd, restore_snapshot, take_snapshot


def test_sgd_direction_is_gradient():
    opt = Sgd()
    pending = opt.compute_direction(np.zeros(2), np.array([1.0, -2.0]))
    assert np.array_equal(pending.direction, [1.0, -2.0])


def test_sgd_weight_decay_folded_into_gradient():
    opt = Sgd(weight_decay=0.1)
    pending = opt.compute_direction(np.array([2.0]), np.array([1.0]))
    assert pending.direction[0] == pytest.approx(1.2)


def test_momentum_velocity_unroll():
    opt = Momentum(mu=0.9)
    params = np.array([0.0, 0.0])
    pending = opt.compute_direction(params, np.array([1.0, 0.0]))
    assert np.allclose(pending.direction, [1.0, 0.0])
    opt.commit_step(params, 0.1, pending)
    pending = opt.compute_direction(params, np.array([1.0, 0.0]))
    assert np.allclose(pending.direction, [1.9, 0.0])


def test_momentum_two_step_trace():
    # f(theta) = 0.5 theta^2, theta0 = 1, lr = 0.1, mu = 0.9
    opt = Momentum(mu=0.9)
    theta = np.array([1.0])
    pending = opt.compute_direction(theta, theta.copy())
    opt.commit_step(theta, 0.1, pending)
    assert theta[0] == pytest.approx(0.9)
    pending = opt.compute_direction(theta, theta.copy())
    opt.commit_step(theta, 0.1, pending)
    assert theta[0] == pytest.approx(0.72)


def test_adam_first_step_direction():
    opt = Adam(beta1=0.9, beta2=0.999, eps_stab=1e-8)
    pending = opt.compute_direction(np.zeros(1), np.array([0.5]))
    # m_hat = 0.5, v_hat = 0.25 -> d = 0.5 / (0.5 + eps)
    assert pending.direction[0] == pytest.approx(0.5 / (0.5 + 1e-8), rel=1e-12)
    assert pending.direction[0] == pytest.approx(1.0, abs=1e-7)


def test_adam_direction_magnitude_bound():
    rng = np.random.default_rng(5)
    opt = Adam()
    params = np.zeros(4)
    for _ in range(20):
        g = rng.normal(size=4)
        pending = opt.compute_direction(params, g)
        t = opt.step_count + 1
        m_hat = pending.payload["m"] / (1 - opt.beta1**t)
        v_hat = pending.payload["v"] / (1 - opt.beta2**t)
        assert np.all(np.abs(pending.direction) <= np.abs(m_hat) / np.sqrt(v_hat) + 1e-12)
        opt.commit_step(params, 0.01, pending)


def test_adam_step1_direction_approaches_one_as_eps_vanishes():
    for eps in (1e-4, 1e-8, 1e-12):
        opt = Adam(eps_stab=eps)
        pending = opt.compute_direction(np.zeros(1), np.array([0.7]))
        assert abs(pending.direction[0] - 1.0) < eps * 3


def test_commit_examples():
    opt, theta = Sgd(), np.array([1.0])
    opt.commit_step(theta, 0.1, opt.compute_direction(theta, np.array([2.0])))
    assert theta[0] == pytest.approx(0.8)
    opt, theta = Sgd(), np.array([1.0])
    opt.commit_step(theta, 0.5, opt.compute_direction(theta, np.array([0.0])))
    assert theta[0] == 1.0


@pytest.mark.parametrize("opt", [Sgd(weight_decay=0.1), Momentum(mu=0.9), Adam(), AdamW(weight_decay=0.1)],
                         ids=lambda opt: type(opt).__name__)
def test_commit_writes_params_in_place(opt):
    # Two steps, so Momentum and Adam commit with non-empty buffers.
    rng = np.random.default_rng(3)
    params = rng.normal(size=5)
    for lr in (0.1, 0.05):
        pending = opt.compute_direction(params, rng.normal(size=5))
        before = params.copy()
        expected = before - lr * pending.direction
        if isinstance(opt, AdamW):
            expected = expected - lr * opt.weight_decay * before
        same = params
        assert opt.commit_step(params, lr, pending) is None
        assert params is same and params.tobytes() == expected.tobytes()


def test_adamw_decoupled_decay():
    opt = AdamW(weight_decay=0.1)
    params = np.array([2.0])
    pending = opt.compute_direction(params, np.array([0.5]))
    # decay does not enter the adaptive direction
    assert pending.direction[0] == pytest.approx(0.5 / (0.5 + 1e-8), rel=1e-12)
    lr, before = 0.1, params.copy()
    expected = (before - lr * pending.direction) - lr * opt.weight_decay * before
    opt.commit_step(params, lr, pending)
    assert params.tobytes() == expected.tobytes()


def test_adamw_without_decay_keeps_a_negative_zero_parameter():
    # A zero gradient gives a zero direction; subtracting a decay of 0 * -0.0 would give +0.0.
    opt = AdamW(weight_decay=0.0)
    params = np.array([-0.0, 1.0])
    opt.commit_step(params, 0.1, opt.compute_direction(params, np.zeros(2)))
    assert np.signbit(params[0]) and params[1] == 1.0


def test_compute_direction_is_pure():
    opt = Momentum(mu=0.9)
    params = np.array([1.0, 2.0])
    grads = np.array([0.3, -0.4])
    a = opt.compute_direction(params, grads)
    b = opt.compute_direction(params, grads)
    assert np.array_equal(a.direction, b.direction)
    assert opt.velocity is None  # nothing committed yet


def test_stale_pending_rejected():
    opt = Momentum(mu=0.9)
    params = np.array([1.0])
    first = opt.compute_direction(params, np.array([1.0]))
    second = opt.compute_direction(params, np.array([1.0]))
    opt.commit_step(params, 0.1, first)
    with pytest.raises(QuadtuneError, match="pending step does not match the optimizer's committed state"):
        opt.commit_step(params, 0.1, second)


def test_nonfinite_gradient_rejected():
    with pytest.raises(QuadtuneError, match="non-finite gradient"):
        Sgd().compute_direction(np.zeros(2), np.array([1.0, np.nan]))


def test_snapshot_round_trip_bit_exact():
    opt = Momentum(mu=0.9)
    params = np.array([1.0, -2.0, 3.0])
    opt.commit_step(params, 0.1, opt.compute_direction(params, params.copy()))
    snap = take_snapshot(params, opt, lr=0.1, step_index=opt.step_count)
    mutated = params * 17.0 + 1.0
    restore_snapshot(snap, mutated, opt)
    assert np.array_equal(mutated, snap.params)
    assert mutated.tobytes() == snap.params.tobytes()


def test_snapshot_replay_identical_losses():
    def run_five(opt, theta):
        trace = []
        for _ in range(5):
            opt.commit_step(theta, 0.1, opt.compute_direction(theta, theta.copy()))
            trace.append(0.5 * float(theta @ theta))
        return theta, trace

    opt = Momentum(mu=0.9)
    theta = np.array([1.0, 0.5])
    snap = take_snapshot(theta, opt, lr=0.1, step_index=0)
    theta1, trace1 = run_five(opt, theta)
    restored = np.empty_like(theta1)
    restore_snapshot(snap, restored, opt)
    theta2, trace2 = run_five(opt, restored)
    assert trace1 == trace2
    assert np.array_equal(theta1, theta2)


def test_adam_snapshot_resumes_bias_correction():
    opt = Adam()
    theta = np.array([1.0])
    for _ in range(7):
        opt.commit_step(theta, 0.05, opt.compute_direction(theta, theta.copy()))
    snap = take_snapshot(theta, opt, lr=0.05, step_index=opt.step_count)
    assert snap.step_index == 7

    def continue_three(opt, theta):
        out = []
        for _ in range(3):
            opt.commit_step(theta, 0.05, opt.compute_direction(theta, theta.copy()))
            out.append(theta[0])
        return out

    ahead = continue_three(opt, theta.copy())
    restored = np.empty_like(theta)
    restore_snapshot(snap, restored, opt)
    assert opt.step_count == 7
    replay = continue_three(opt, restored)
    assert ahead == replay


def test_snapshot_shape_mismatch():
    opt = Sgd()
    snap = take_snapshot(np.zeros(3), opt, lr=0.1, step_index=0)
    with pytest.raises(QuadtuneError, match="snapshot parameter shape does not match the model"):
        restore_snapshot(snap, np.zeros(4), opt)


def test_momentum_buffer_shape_mismatch():
    # A velocity has the parameters' shape, so the parameter-shape check rejects the restore
    # before anything is written.
    opt = Momentum(mu=0.9)
    theta = np.zeros(3)
    opt.commit_step(theta, 0.1, opt.compute_direction(theta, np.ones(3)))
    snap = take_snapshot(theta, opt, lr=0.1, step_index=1)
    other = Momentum(mu=0.9)
    wider = np.zeros(4)
    other.commit_step(wider, 0.1, other.compute_direction(wider, np.ones(4)))
    before = wider.tobytes(), other.velocity.tobytes()
    with pytest.raises(QuadtuneError, match="snapshot parameter shape does not match the model"):
        restore_snapshot(snap, wider, other)
    assert (wider.tobytes(), other.velocity.tobytes()) == before


def test_a_snapshot_restores_only_its_own_optimizer_kind():
    theta = np.zeros(3)
    snap = take_snapshot(theta, Adam(), lr=0.1, step_index=0)
    for other in (AdamW(), Momentum(), Sgd()):
        with pytest.raises(QuadtuneError, match=f"snapshot for Adam cannot restore a {type(other).__name__}"):
            restore_snapshot(snap, theta, other)


def test_sgd_monotone_on_bowl_below_stability():
    a = np.diag([1.0, 10.0])
    theta = np.array([1.0, 1.0])
    opt = Sgd()
    lr = 0.19  # < 2 / lambda_max
    prev = 0.5 * float(theta @ a @ theta)
    for _ in range(50):
        g = a @ theta
        opt.commit_step(theta, lr, opt.compute_direction(theta, g))
        loss = 0.5 * float(theta @ a @ theta)
        assert loss <= prev + 1e-15
        prev = loss


# A stack's seeds, made alike: (factory, momentum set per step or None).
STACKED = [
    pytest.param(lambda: Sgd(weight_decay=0.1), None, id="sgd-decay"),
    pytest.param(lambda: Momentum(mu=0.9, weight_decay=0.05), [0.9, 0.85, 0.95, 0.8], id="momentum-decay-mu-per-step"),
    pytest.param(Adam, None, id="adam"),
    pytest.param(lambda: AdamW(weight_decay=0.1), None, id="adamw"),
]


@pytest.mark.parametrize("lone_steps", [(0, 0, 0), (3, 1, 2)], ids=["fresh", "step-counts-differ"])
@pytest.mark.parametrize("make,mus", STACKED)
def test_a_stack_gives_each_seed_the_bits_of_its_own_calls(make, mus, lone_steps):
    # Seed i takes lone_steps[i] steps alone before it joins the stack, so Adam's bias
    # corrections see a column of step counts; each seed commits at its own lr.
    rng = np.random.default_rng(11)
    alone, seeds = [make() for _ in lone_steps], [make() for _ in lone_steps]
    params_alone = rng.normal(size=(3, 5))
    params = params_alone.copy()
    for i, steps in enumerate(lone_steps):
        for _ in range(steps):
            grads = rng.normal(size=5)
            for opt, theta in ((alone[i], params_alone[i]), (seeds[i], params[i])):
                opt.commit_step(theta, 0.1, opt.compute_direction(theta, grads))
    stack = type(seeds[0]).stack(seeds)
    for step in range(4):
        if mus:
            for opt in alone + seeds:
                opt.mu = mus[step]
        grads = rng.normal(size=(3, 5))
        lrs = [0.1, 0.05 * (step + 1), 0.2]
        pending = stack.compute_direction(params, grads)
        for i, opt in enumerate(alone):
            own = opt.compute_direction(params_alone[i], grads[i])
            assert pending.direction[i].tobytes() == own.direction.tobytes()
            opt.commit_step(params_alone[i], lrs[i], own)
        stack.commit_step(params, lrs, pending)
        assert params.tobytes() == params_alone.tobytes()
        for i, (opt, seed) in enumerate(zip(alone, seeds)):
            assert seed.step_count == opt.step_count == lone_steps[i] + step + 1
            for name in type(opt).BUFFERS:
                mine, own = getattr(seed, name), getattr(opt, name)
                if isinstance(own, np.ndarray):
                    assert mine.tobytes() == own.tobytes() and np.shares_memory(mine, getattr(stack, name)[i])
                else:
                    assert mine == own


def test_a_non_finite_row_raises_only_for_its_seed():
    # The stacked call refuses the stack; each seed's own call on its row raises only for the
    # seed whose row is not finite, and the seeds before it step on as a stack of their own.
    rng = np.random.default_rng(4)
    seeds = [Adam() for _ in range(3)]
    params, grads = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    grads[1, 2] = np.inf
    with pytest.raises(QuadtuneError, match="non-finite gradient"):
        Adam.stack(seeds).compute_direction(params, grads)
    failed = []
    for i, seed in enumerate(seeds):
        try:
            seed.compute_direction(params[i], grads[i])
        except QuadtuneError as exc:
            failed.append((i, str(exc)))
    assert failed == [(1, "non-finite gradient")]
    before = Adam.stack(seeds[:1])
    pending = before.compute_direction(params[:1], grads[:1])
    assert pending.direction[0].tobytes() == Adam().compute_direction(params[0], grads[0]).direction.tobytes()


@pytest.mark.parametrize("make", [Momentum, Adam])
def test_a_restored_buffer_stays_its_row_of_the_stack(make):
    # A rollback restores one seed of a stack: its buffers take the snapshot's values in place,
    # so the stack's next direction reads them, and its next commit gives the seed its new row.
    rng = np.random.default_rng(9)
    seeds = [make() for _ in range(2)]
    stack = make.stack(seeds)
    params = rng.normal(size=(2, 3))
    stack.commit_step(params, [0.1, 0.1], stack.compute_direction(params, rng.normal(size=(2, 3))))
    snap = take_snapshot(params[1], seeds[1], lr=0.1, step_index=1)
    stack.commit_step(params, [0.1, 0.1], stack.compute_direction(params, rng.normal(size=(2, 3))))
    restore_snapshot(snap, params[1], seeds[1])
    assert seeds[1].step_count == 1
    for name in make.BUFFERS:
        held = getattr(seeds[1], name)
        if isinstance(held, np.ndarray):
            assert np.shares_memory(held, getattr(stack, name)[1])
            assert held.tobytes() == snap.opt_state["buffers"][name].tobytes()
    stack.commit_step(params, [0.1, 0.1], stack.compute_direction(params, rng.normal(size=(2, 3))))
    for name in make.BUFFERS:
        held = getattr(seeds[1], name)
        if isinstance(held, np.ndarray):
            assert np.shares_memory(held, getattr(stack, name)[1])
            assert held.tobytes() == getattr(stack, name)[1].tobytes()


@pytest.mark.parametrize("make", [Momentum, Adam])
def test_a_commit_takes_the_new_buffers_without_a_copy(make):
    # One commit rule: a lone optimizer's buffers become the pending step's arrays, and each seed
    # of a stack takes its row of them. The second commit is the one that could copy instead.
    rng = np.random.default_rng(5)
    lone, seeds = make(), [make() for _ in range(2)]
    stack = make.stack(seeds)
    params = rng.normal(size=(2, 3))
    for _ in range(2):
        pending = lone.compute_direction(params[0], rng.normal(size=3))
        lone.commit_step(params[0], 0.1, pending)
        assert all(getattr(lone, name) is value for name, value in pending.payload.items())
        pending = stack.compute_direction(params, rng.normal(size=(2, 3)))
        stack.commit_step(params, [0.1, 0.1], pending)
        for name, value in pending.payload.items():
            assert getattr(stack, name) is value
            assert all(getattr(seed, name).base is value for seed in seeds)
