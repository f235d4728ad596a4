import logging
import math

import numpy as np
import pytest

from quadtune.datasets import make_bowl_dataset, make_moons
from quadtune.engine import TrainingEngine
from quadtune.errors import InvalidArgumentError
from quadtune.models import Mlp, QuadraticBowl
from quadtune.optim import Momentum, Sgd
from quadtune.quadprobe import EpsilonProposal, ProposalKind
from quadtune.tuner import (
    EVENT_ACCEPT,
    EVENT_PHASE_SWITCH,
    EVENT_REJECT_OTHER,
    EVENT_REJECT_PHASE,
    EVENT_REJECT_SATURATION,
    EVENT_ROLLBACK,
    LearningRateTuner,
    Phase,
    SaturationMode,
    SaturationState,
    TunerConfig,
    drop_rate,
    phase_at,
    phase_filter,
    saturation_check,
)


def bowl_tuner(theta0=(1.0, 1.0), seed_lr=0.01, window=5, sb=2, explore=0.5, total=100, diag=(1.0, 10.0), **kw):
    model = QuadraticBowl(np.diag(diag), theta0=list(theta0))
    engine = TrainingEngine(model, make_bowl_dataset(128), minibatch_size=8, seed=0)
    cfg = TunerConfig(
        seed_lr=seed_lr,
        total_steps=total,
        explore_budget=explore,
        recompute_window=window,
        superbatch_size=sb,
        n_probes=5,
        epsilon_threshold_r=kw.pop("r", 1e-3),
        **kw,
    )
    return LearningRateTuner(cfg, engine, Sgd()), engine, model


def drive(tuner, engine, steps):
    outcomes = []
    for step in range(steps):
        x, y = engine.batch_for_step(step)
        outcomes.append(tuner.run_step(step, x, y))
    return outcomes


class TestPhaseMachine:
    def test_phase_at_boundaries(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=200, explore_budget=100)
        assert phase_at(0, cfg) is Phase.EXPLORE
        assert phase_at(99, cfg) is Phase.EXPLORE
        assert phase_at(100, cfg) is Phase.EXPLOIT
        assert phase_at(199, cfg) is Phase.EXPLOIT

    def test_zero_explore_budget(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10, explore_budget=0.0)
        assert phase_at(0, cfg) is Phase.EXPLOIT

    def test_fractional_budget(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=200, explore_budget=0.25)
        assert cfg.explore_steps() == 50

    def test_filter_rules(self):
        dec = EpsilonProposal(ProposalKind.ACCEPT, -0.01)
        inc = EpsilonProposal(ProposalKind.CLAMPED_TO_BOUND, 0.05)
        zero = EpsilonProposal(ProposalKind.ACCEPT, 0.0)
        assert phase_filter(Phase.EXPLORE, dec).kind is ProposalKind.REJECT_PHASE_FILTER
        assert phase_filter(Phase.EXPLOIT, dec) == dec
        assert phase_filter(Phase.EXPLOIT, inc).kind is ProposalKind.REJECT_PHASE_FILTER
        assert phase_filter(Phase.EXPLORE, inc) == inc
        assert phase_filter(Phase.EXPLORE, zero) == zero
        assert phase_filter(Phase.EXPLOIT, zero) == zero
        rejected = EpsilonProposal(ProposalKind.REJECT_NO_MINIMUM)
        assert phase_filter(Phase.EXPLORE, rejected) == rejected

    def test_random_sequences_monotone_by_phase(self):
        # Property: under the filter + positivity guard, lr is non-decreasing
        # in explore, non-increasing in exploit, positive throughout, with
        # exactly one phase switch.
        rng = np.random.default_rng(31)
        for _ in range(20):
            total = 200
            cfg = TunerConfig(seed_lr=float(rng.uniform(0.01, 1.0)), total_steps=total,
                              explore_budget=float(rng.uniform(0.1, 0.9)))
            lr = cfg.seed_lr
            switches = 0
            prev_phase = phase_at(0, cfg)
            for step in range(total):
                phase = phase_at(step, cfg)
                if phase is not prev_phase:
                    switches += 1
                    prev_phase = phase
                kind = rng.choice([ProposalKind.ACCEPT, ProposalKind.CLAMPED_TO_BOUND])
                proposal = EpsilonProposal(kind, float(rng.normal(0.0, 0.05)))
                filtered = phase_filter(phase, proposal)
                if filtered.is_applicable and lr + filtered.epsilon > 0.0:
                    new_lr = lr + filtered.epsilon
                    if phase is Phase.EXPLORE:
                        assert new_lr >= lr
                    else:
                        assert new_lr <= lr
                    lr = new_lr
                assert lr > 0.0
            assert switches == 1


class TestDropRateAndSaturation:
    def test_drop_rate_values(self):
        assert drop_rate(2.0, 1.0, 10) == pytest.approx(0.1)
        assert drop_rate(1.0, 1.0, 5) == 0.0
        assert drop_rate(1.0, 1.2, 4) == pytest.approx(-0.05)
        with pytest.raises(InvalidArgumentError):
            drop_rate(1.0, 1.0, 0)

    def test_relative_crossing_switches_to_absolute(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10, saturation_threshold_rel=100.0)
        state = SaturationState(SaturationMode.RELATIVE, reference_rate=1.0)
        saturated, state = saturation_check(state, 0.005, cfg)
        assert saturated
        assert state.mode is SaturationMode.ABSOLUTE
        assert state.reference_rate == pytest.approx(0.005)

    def test_relative_not_crossed(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10, saturation_threshold_rel=100.0)
        state = SaturationState(SaturationMode.RELATIVE, reference_rate=1.0)
        saturated, after = saturation_check(state, 0.5, cfg)
        assert not saturated
        assert after == state

    def test_absolute_gating(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10)
        state = SaturationState(SaturationMode.ABSOLUTE, reference_rate=0.005)
        assert saturation_check(state, 0.004, cfg)[0]
        assert not saturation_check(state, 0.006, cfg)[0]

    def test_nonpositive_rate_saturates(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10)
        state = SaturationState(SaturationMode.RELATIVE, reference_rate=0.5)
        saturated, after = saturation_check(state, -0.1, cfg)
        assert saturated
        assert after.mode is SaturationMode.ABSOLUTE
        assert after.reference_rate > 0.0  # clamped at tiny

    def test_switches_at_most_once(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=10, saturation_threshold_rel=100.0)
        state = SaturationState(SaturationMode.RELATIVE, reference_rate=1.0)
        _, state = saturation_check(state, 0.001, cfg)
        frozen = state.reference_rate
        for rate in (0.0005, 0.1, -1.0, 0.0009):
            _, state = saturation_check(state, rate, cfg)
            assert state.mode is SaturationMode.ABSOLUTE
            assert state.reference_rate == frozen


class TestTunerConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TunerConfig(seed_lr=0.0, total_steps=10)
        with pytest.raises(InvalidArgumentError):
            TunerConfig(seed_lr=0.1, total_steps=10, n_probes=4)
        with pytest.raises(InvalidArgumentError):
            TunerConfig(seed_lr=0.1, total_steps=10, n_probes=2)
        with pytest.raises(InvalidArgumentError):
            TunerConfig(seed_lr=0.1, total_steps=10, explore_budget=10)
        with pytest.raises(InvalidArgumentError):
            TunerConfig(seed_lr=0.1, total_steps=10, saturation_threshold_rel=1.0)

    def test_absolute_budget(self):
        cfg = TunerConfig(seed_lr=0.1, total_steps=100, explore_budget=30)
        assert cfg.explore_steps() == 30


class TestRecompute:
    def test_bowl_explore_accepts_increase_toward_newton(self):
        # lr far below the 1-D optimum: the fitted minimum proposes an increase.
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5, explore=0.9, r=10.0)
        a = model.matrix
        outcomes = drive(tuner, engine, 6)
        accept_events = [o for o in outcomes if EVENT_ACCEPT in o.events]
        assert accept_events, "expected an accepted increase"
        assert tuner.state.current_lr > 0.01
        rec = next(out.probe for out in tuner.state.log if out.probe is not None)
        assert rec.applied_epsilon is not None and rec.applied_epsilon > 0.0

    def test_explore_rejects_decrease(self):
        # Isotropic bowl: the 1-D optimal step is exactly 1/lambda = 0.1 from
        # any point, so lr 0.15 always draws a decrease proposal, which the
        # explore phase must reject.
        tuner, engine, model = bowl_tuner(seed_lr=0.15, window=5, explore=0.9,
                                          r=10.0, diag=(10.0, 10.0))
        outcomes = drive(tuner, engine, 6)
        assert any(EVENT_REJECT_PHASE in o.events for o in outcomes)
        assert tuner.state.current_lr == 0.15
        assert tuner.state.counters.rejects_phase == 1

    def test_probe_cost_accounting(self, monkeypatch):
        tuner, engine, _ = bowl_tuner(window=5, sb=2, explore=0.9, rollback_enabled=False)
        drawn = []
        draw = engine.draw_superbatch
        monkeypatch.setattr(engine, "draw_superbatch", lambda size: drawn.append(draw(size)) or drawn[-1])
        drive(tuner, engine, 26)
        c = tuner.state.counters
        assert c.recomputes == 5
        assert c.probe_forward_passes == c.recomputes * 2 * 5
        # One window opens at step 0 on a drawn superbatch. The windows after it open on its
        # rows and end losses, so the closes at 5, ..., 25 are the only other evaluations.
        assert len(drawn) == 1 + c.recomputes
        assert c.window_forward_passes == 2 * (1 + 5)

    def test_same_superbatch_for_all_probes(self, monkeypatch):
        tuner, engine, _ = bowl_tuner(window=5, sb=3, explore=0.9)
        calls = []
        original = engine.perturbed_loss

        def spy(direction, step_size, sb):
            calls.append((step_size, sb.minibatch_indices))
            return original(direction, step_size, sb)

        monkeypatch.setattr(engine, "perturbed_loss", spy)
        drive(tuner, engine, 11)
        assert tuner.state.counters.recomputes == 2
        # group the probe calls by recompute (5 probes each)
        first, second = calls[:5], calls[5:10]
        assert len({sb for _, sb in first}) == 1
        assert len({sb for _, sb in second}) == 1
        assert first[0][1] != second[0][1]  # fresh superbatch per recompute

    def test_applied_epsilon_respects_threshold(self):
        ds = make_moons(n=800, noise=0.2, seed=3)
        model = Mlp([2, 16, 2], rng=np.random.default_rng(1))
        engine = TrainingEngine(model, ds, 32, seed=1)
        cfg = TunerConfig(seed_lr=0.1, total_steps=200, explore_budget=0.4,
                          recompute_window=10, superbatch_size=4, n_probes=5)
        tuner = LearningRateTuner(cfg, engine, Momentum(0.9))
        for step in range(200):
            x, y = engine.batch_for_step(step)
            tuner.run_step(step, x, y)
        probes = [out.probe for out in tuner.state.log if out.probe is not None]
        applied = [r for r in probes if r.applied_epsilon is not None]
        assert applied, "run should accept at least one change"
        for rec in applied:
            loss_at_zero = next(s.loss for s in rec.samples if s.epsilon == 0.0)
            assert abs(rec.applied_epsilon) ** 3 <= cfg.epsilon_threshold_r * loss_at_zero + 1e-12
        assert tuner.state.current_lr > 0.0

    def test_positivity_guard(self):
        # Ascent direction makes the fitted minimum sit below -eta; with
        # span_fraction=1 the clamp lands exactly at -eta and must be rejected.
        tuner, engine, model = bowl_tuner(seed_lr=0.05, window=5, explore=0.0,
                                          r=1e6, span_fraction=1.0)
        tuner.state.phase = Phase.EXPLOIT
        direction = -model.gradient()
        probe = tuner.recompute(0, direction, rate_before=1.0)
        assert probe.event == EVENT_REJECT_OTHER
        assert probe.filtered.is_applicable and probe.eta + probe.filtered.epsilon <= 0.0
        assert probe.applied_epsilon is None
        assert tuner.state.current_lr == 0.05

    def test_nonfinite_probes_rejected(self):
        tuner, engine, model = bowl_tuner(seed_lr=0.05, window=5)
        huge = np.full_like(model.params, 1e300)
        probe = tuner.recompute(0, huge, rate_before=1.0)
        assert probe.event == EVENT_REJECT_OTHER
        assert probe.applied_epsilon is None
        assert tuner.state.current_lr == 0.05

    def test_nonfinite_loss_at_current_lr_logs_nothing(self, caplog):
        tuner, engine, model = bowl_tuner(seed_lr=0.05, window=5)
        with caplog.at_level(logging.DEBUG):
            probe = tuner.recompute(0, np.full_like(model.params, np.inf), rate_before=1.0)
        assert caplog.records == []
        assert probe.event == EVENT_REJECT_OTHER
        assert not math.isfinite(probe.loss_at_zero)
        assert probe.samples == [] and probe.fit is None

    def test_fewer_than_three_finite_probes_propose_no_minimum(self, monkeypatch):
        # Only the loss at eta is finite: one sample remains, too few for a fit.
        tuner, engine, model = bowl_tuner(seed_lr=0.05, window=5)
        measure = engine.perturbed_loss
        monkeypatch.setattr(engine, "perturbed_loss",
                            lambda direction, step, sb: measure(direction, step, sb) if step == 0.05 else math.nan)
        probe = tuner.recompute(0, model.gradient(), rate_before=1.0)
        assert probe.bound > 0.0 and len(probe.samples) == 1 and probe.fit is None
        assert probe.proposal == probe.filtered == EpsilonProposal(ProposalKind.REJECT_NO_MINIMUM)
        assert probe.event == EVENT_REJECT_OTHER and probe.applied_epsilon is None
        assert tuner.state.current_lr == 0.05 and tuner.state.last_change_snapshot is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_probe_counts_no_forward_passes(self):
        # At eta 1.15 the perturbed bias stays finite, so the loss at eta is
        # measured; the largest probe, eta + 0.089, overflows and runs no forward.
        engine = TrainingEngine(Mlp([2, 8, 2], rng=np.random.default_rng(0)), make_moons(n=400, seed=1), 32, seed=0)
        cfg = TunerConfig(seed_lr=1.15, total_steps=100, superbatch_size=4, n_probes=5)
        tuner = LearningRateTuner(cfg, engine, Sgd())
        direction = engine.loss_and_gradient(*engine.batch_for_step(0))[1]
        direction[16] = 1.5e308
        passes = engine.forward_passes
        probe = tuner.recompute(0, direction, rate_before=None)
        assert len(probe.samples) == 4
        assert probe.forward_passes == engine.forward_passes - passes == 4 * 4


class TestRollback:
    def test_adversarial_change_rolls_back(self):
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5, explore=0.9,
                                          rollback_factor=0.5)
        drive(tuner, engine, 6)  # establishes a window and a measured rate
        # Inject a catastrophic change as if the tuner had accepted lr*100.
        from quadtune.optim import take_snapshot

        st = tuner.state
        lr_before = st.current_lr
        st.last_change_snapshot = take_snapshot(
            model.params, tuner.optimizer, lr=lr_before, step_index=6,
            rng_cursor=engine.data_state(),
        )
        st.drop_rate_before_change = tuner._last_rate
        st.current_lr = lr_before * 100.0
        tuner._window = None  # force a fresh window at the injected lr

        outcomes = []
        for step in range(6, 20):
            x, y = engine.batch_for_step(step)
            outcomes.append(tuner.run_step(step, x, y))
            if "rollback" in outcomes[-1].events:
                break
        assert "rollback" in outcomes[-1].events, "rollback should fire within one window"
        assert tuner.state.counters.rollbacks == 1
        assert outcomes[-1].lr == lr_before
        assert np.all(np.isfinite(model.params))

    def test_healthy_change_not_rolled_back(self):
        # First accepted increase toward the 1-D optimum speeds up the loss
        # drop; its review window must leave it in place.
        tuner, engine, _ = bowl_tuner(seed_lr=0.01, window=5, explore=0.9)
        outcomes = drive(tuner, engine, 11)
        assert any(EVENT_ACCEPT in o.events for o in outcomes)
        assert tuner.state.counters.accepts >= 1
        assert tuner.state.counters.rollbacks == 0

    def test_maybe_rollback_requires_degraded_rate(self):
        # A review ends at its first verdict, so each rate gets a fresh change to review.
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5)
        from quadtune.optim import take_snapshot

        st = tuner.state

        def review(rate_after):
            st.last_change_snapshot = take_snapshot(
                model.params, tuner.optimizer, lr=0.01, step_index=0,
                rng_cursor=engine.data_state(),
            )
            st.drop_rate_before_change = 0.2
            st.current_lr = 0.02  # the change under review
            rolled_back = tuner.maybe_rollback(rate_after)
            assert st.last_change_snapshot is None and st.drop_rate_before_change is None
            assert st.current_lr == (0.01 if rolled_back else 0.02)
            return rolled_back

        assert review(0.2) is False   # unchanged rate: healthy
        assert review(0.11) is False  # above 0.5x: healthy
        assert review(0.09) is True   # below 0.5x: reverted

    def test_rollback_disabled_never_triggers(self):
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5, explore=0.9,
                                          rollback_enabled=False)
        drive(tuner, engine, 6)
        st = tuner.state
        st.current_lr = 1.5  # catastrophically unstable on the bowl
        drive_range(tuner, engine, 6, 16)
        assert tuner.state.counters.rollbacks == 0

    def test_maybe_rollback_without_snapshot_is_noop(self):
        tuner, _, _ = bowl_tuner()
        assert tuner.maybe_rollback(-1.0) is False


class TestReviewAndReference:
    # Step 5 closes a window and accepts an increase; step 7 starts the exploit
    # phase, so the close at step 10 reviews that change, keeps it, and rejects
    # on saturation, since its rate is the new reference.
    def run_to_the_review(self):
        tuner, engine, _ = bowl_tuner(seed_lr=0.01, window=5, explore=7)
        outcomes = drive(tuner, engine, 10)
        assert EVENT_ACCEPT in outcomes[5].events and outcomes[5].rate is not None
        return tuner, outcomes[5], lambda: tuner.run_step(10, *engine.batch_for_step(10))

    def test_an_accept_unsets_the_relative_reference_until_the_next_kept_close(self):
        tuner, _, review = self.run_to_the_review()
        assert tuner.state.saturation == SaturationState(SaturationMode.RELATIVE, reference_rate=None)
        close = review()
        assert EVENT_ROLLBACK not in close.events and close.rate is not None
        assert tuner.state.saturation == SaturationState(SaturationMode.RELATIVE, reference_rate=close.rate)

    def test_a_kept_close_leaves_no_review_pending(self):
        tuner, accept, review = self.run_to_the_review()
        assert tuner.state.last_change_snapshot is not None
        assert tuner.state.drop_rate_before_change == accept.rate
        assert review().events == [EVENT_REJECT_SATURATION]
        assert tuner.state.last_change_snapshot is None and tuner.state.drop_rate_before_change is None


def drive_range(tuner, engine, start, stop):
    for step in range(start, stop):
        x, y = engine.batch_for_step(step)
        tuner.run_step(step, x, y)


class TestRollbackBitExact:
    def test_restore_bit_identical(self):
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5, explore=0.9)
        drive(tuner, engine, 6)
        from quadtune.optim import take_snapshot

        st = tuner.state
        snap = take_snapshot(model.params, tuner.optimizer, lr=st.current_lr,
                             step_index=6, rng_cursor=engine.data_state())
        st.last_change_snapshot = snap
        st.drop_rate_before_change = 10.0  # any healthy rate; the bad lr will miss it
        st.current_lr = 2.0
        tuner._window = None
        snapshot_bytes = snap.params.tobytes()
        for step in range(6, 12):
            x, y = engine.batch_for_step(step)
            out = tuner.run_step(step, x, y)
            if "rollback" in out.events:
                break
        assert tuner.state.counters.rollbacks == 1
        # run_step continues after restore: params at the rollback step equal the
        # snapshot immediately before the post-rollback commit, so re-deriving
        # that commit from the snapshot must land on the live params.
        expected = snap.params.copy()
        g = (np.diag([1.0, 10.0]) @ expected)
        expected = expected - tuner.state.current_lr * g
        assert model.params.tobytes() == expected.tobytes()
        assert tuner.state.current_lr == snap.lr

    def test_a_rollback_step_trains_on_the_restored_params(self):
        # A step's gradient is computed after its window close, so at a close that rolls
        # back the step trains on the restored params' own loss and gradient.
        tuner, engine, model = bowl_tuner(seed_lr=0.01, window=5, explore=0.9)
        drive(tuner, engine, 6)
        from quadtune.optim import take_snapshot

        st = tuner.state
        snap = take_snapshot(model.params, tuner.optimizer, lr=st.current_lr,
                             step_index=6, rng_cursor=engine.data_state())
        st.last_change_snapshot = snap
        st.drop_rate_before_change = 10.0
        st.current_lr = 2.0
        tuner._window = None
        drive_range(tuner, engine, 6, 10)
        x, y = engine.batch_for_step(10)
        out = tuner.run_step(10, x, y)
        assert out.events == [EVENT_ROLLBACK]
        restored = QuadraticBowl(np.diag([1.0, 10.0]), theta0=list(snap.params))
        loss, grad = restored.loss_and_gradient(x, y)
        assert out.train_loss == loss
        assert model.params.tobytes() == (snap.params - snap.lr * grad).tobytes()


class TestPhaseConsistencyEndToEnd:
    def test_lr_monotone_by_phase_on_moons(self):
        ds = make_moons(n=800, noise=0.2, seed=5)
        model = Mlp([2, 16, 2], rng=np.random.default_rng(2))
        engine = TrainingEngine(model, ds, 32, seed=2)
        cfg = TunerConfig(seed_lr=0.1, total_steps=300, explore_budget=0.3,
                          recompute_window=10, superbatch_size=5, n_probes=5,
                          rollback_enabled=False)
        tuner = LearningRateTuner(cfg, engine, Momentum(0.9))
        lrs = []
        phases = []
        for step in range(300):
            x, y = engine.batch_for_step(step)
            out = tuner.run_step(step, x, y)
            lrs.append(out.lr)
            phases.append(tuner.state.phase)
        explore_lrs = [lr for lr, p in zip(lrs, phases) if p is Phase.EXPLORE]
        exploit_lrs = [lr for lr, p in zip(lrs, phases) if p is Phase.EXPLOIT]
        assert all(b >= a for a, b in zip(explore_lrs, explore_lrs[1:]))
        assert all(b <= a for a, b in zip(exploit_lrs, exploit_lrs[1:]))
        assert all(lr > 0 for lr in lrs)
        # exactly one switch
        flips = sum(1 for a, b in zip(phases, phases[1:]) if a is not b)
        assert flips == 1


def test_diverging_run_driven_directly_warns_nothing():
    # seed_lr 0.8654 diverges on this bowl until a probe round's losses are huge but finite;
    # the fit's residuals then square past the float limit, which must not warn.
    drive(*bowl_tuner(seed_lr=0.8654, window=16, explore=113, total=143)[:2], 143)


def test_phase_and_saturation_machine_on_a_bowl():
    # Drives the whole step machine for arbitrary window, explore budget and run length.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seed_lr=st.floats(0.001, 1.0), window=st.integers(1, 20), total=st.integers(2, 150),
                      threshold=st.floats(1.5, 100.0), diag=st.sampled_from([(1.0, 10.0), (10.0, 10.0)]),
                      data=st.data())
    def check(seed_lr, window, total, threshold, diag, data):
        explore = data.draw(st.integers(0, total - 1), label="explore_steps")
        tuner, engine, _ = bowl_tuner(seed_lr=seed_lr, window=window, explore=explore, total=total, diag=diag,
                                      saturation_threshold_rel=threshold)
        explore_steps = tuner.cfg.explore_steps()
        assert explore_steps == explore
        lr, frozen, switches = seed_lr, None, []
        for step in range(total):
            out = tuner.run_step(step, *engine.batch_for_step(step))
            if EVENT_PHASE_SWITCH in out.events:
                switches.append(step)
            assert (out.rate is not None) == (step > 0 and step % window == 0)
            if step < explore_steps:
                assert out.saturated is None and EVENT_REJECT_SATURATION not in out.events
            assert (EVENT_REJECT_SATURATION in out.events) == (out.saturated is False)
            if EVENT_ROLLBACK not in out.events:
                assert out.lr >= lr if step < explore_steps else out.lr <= lr
            lr = out.lr
            saturation = tuner.state.saturation
            if frozen is not None:
                assert saturation == frozen
            elif saturation.mode is SaturationMode.ABSOLUTE:
                frozen = saturation
        assert switches == ([explore_steps] if explore_steps > 0 else [])
        # Only the steps that measured a window or switched phase are logged.
        assert [out.step for out in tuner.state.log] == sorted({*range(0, total, window), *switches})

    check()


def test_reused_window_losses_equal_fresh_ones():
    # A window opens on the rows and end loss of the window before it, or, after a
    # rollback, on the rolled-back window's start loss. Each start and end loss must
    # equal, bit for bit, a fresh evaluation of the rows drawn at step 0 at that moment's
    # params. 20 minibatches per epoch, so most windows cross an epoch start.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ds = make_moons(n=200, noise=0.2, seed=1)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32), seed_lr=st.floats(0.01, 1.0), window=st.integers(2, 7),
                      sb=st.integers(1, 6), total=st.integers(30, 90), r=st.sampled_from([1e-3, 0.1, 10.0]))
    def check(seed, seed_lr, window, sb, total, r):
        engine = TrainingEngine(Mlp([2, 8, 2], rng=np.random.default_rng(seed)), ds, 8, seed)
        cfg = TunerConfig(seed_lr=seed_lr, total_steps=total, explore_budget=0.5, recompute_window=window,
                          superbatch_size=sb, n_probes=3, epsilon_threshold_r=r)
        tuner = LearningRateTuner(cfg, engine, Momentum(0.9))
        superbatch_loss, commit = engine.superbatch_loss, engine.commit
        rows, drawn, measured = [], [], []

        def fresh():
            """The loss of the rows drawn at step 0, at the current params, counted nowhere."""
            x, y = (np.concatenate(part) for part in zip(*rows))
            return engine.model.loss(x, y)

        def spy_superbatch_loss(sb):
            # The first call opens the first window; a probe's calls measure other superbatches.
            if not drawn:
                drawn.append(sb)
                rows.extend(engine.minibatch(i) for i in sb.minibatch_indices)
            loss = superbatch_loss(sb)
            if sb is drawn[0]:
                assert loss == fresh()
                measured.append(loss)
            return loss

        def spy_commit(*args):
            window = tuner._window
            if window.start_step == step:  # the window opened at this step, at these params
                assert window.start_loss == fresh()
            commit(*args)

        engine.superbatch_loss, engine.commit = spy_superbatch_loss, spy_commit
        closes = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(total):
                closes += tuner.run_step(step, *engine.batch_for_step(step)).rate is not None
        assert len(measured) == 1 + closes
        assert tuner.state.counters.window_forward_passes == sb * (1 + closes)

    check()
