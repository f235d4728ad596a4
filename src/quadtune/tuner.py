"""Learning-rate controller: probing, phase filtering, saturation gating, rollback.

Every ``recompute_window`` steps the controller probes the loss at a few
perturbations of the current learning rate (same superbatch for every probe),
fits a quadratic, and applies the bounded minimizing perturbation if the
current phase admits it: the explore phase only accepts increases, the
exploit phase only decreases, and decreases are additionally gated on the
loss-drop rate having saturated. With rollback enabled, accepted changes are
snapshotted and rolled back if the drop rate degrades over the following window.
A window's drop rate compares losses on the rows of one superbatch, drawn at the
first step; each window opens on the rows and end loss of the one before it.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .engine import Superbatch, TrainingEngine
from .errors import InvalidArgumentError
from .optim import Optimizer, Snapshot, restore_snapshot, take_snapshot
from .quadprobe import (
    EpsilonProposal,
    LossSample,
    ProposalKind,
    QuadFit,
    epsilon_bound,
    fit_quadratic,
    probe_points,
    propose_epsilon,
)

# Floor for drop rates used as denominators / frozen absolute thresholds.
_TINY_RATE = 1e-12

EVENT_ACCEPT = "recompute_accept"
EVENT_REJECT_PHASE = "recompute_reject_phase"
EVENT_REJECT_SATURATION = "recompute_reject_saturation"
EVENT_REJECT_OTHER = "recompute_reject_other"
EVENT_ROLLBACK = "rollback"
EVENT_PHASE_SWITCH = "phase_switch"


class Phase(enum.Enum):
    EXPLORE = "explore"
    EXPLOIT = "exploit"


class SaturationMode(enum.Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class SaturationState:
    """Relative mode compares against the rate when the current lr began;
    absolute mode compares against a threshold frozen at the first crossing."""

    mode: SaturationMode = SaturationMode.RELATIVE
    reference_rate: Optional[float] = None


@dataclass
class TunerConfig:
    """All controller hyperparameters.

    ``explore_budget`` < 1 is a fraction of total steps; >= 1 is an absolute
    step count. ``n_probes`` must be odd so the zero-perturbation probe sits
    on the grid and one recompute costs exactly superbatch_size * n_probes
    forward passes.
    """

    seed_lr: float
    total_steps: int
    explore_budget: float = 0.25
    recompute_window: int = 50
    superbatch_size: int = 100
    n_probes: int = 5
    epsilon_threshold_r: float = 1e-3
    saturation_threshold_rel: float = 100.0
    span_fraction: float = 0.5
    rollback_enabled: bool = True
    rollback_factor: float = 0.5

    def __post_init__(self):
        if self.seed_lr <= 0.0:
            raise InvalidArgumentError("seed_lr must be positive")
        if self.total_steps < 1:
            raise InvalidArgumentError("total_steps must be >= 1")
        if self.explore_budget < 0.0:
            raise InvalidArgumentError("explore_budget must be nonnegative")
        if self.recompute_window < 1:
            raise InvalidArgumentError("recompute_window must be >= 1")
        if self.superbatch_size < 1:
            raise InvalidArgumentError("superbatch_size must be >= 1")
        if self.n_probes < 3:
            raise InvalidArgumentError("n_probes must be >= 3")
        if self.n_probes % 2 == 0:
            raise InvalidArgumentError("n_probes must be odd")
        if self.epsilon_threshold_r <= 0.0:
            raise InvalidArgumentError("epsilon_threshold_r must be positive")
        if self.saturation_threshold_rel <= 1.0:
            raise InvalidArgumentError("saturation_threshold_rel must exceed 1")
        if not 0.0 < self.span_fraction <= 1.0:
            raise InvalidArgumentError("span_fraction must be in (0, 1]")
        if self.explore_steps() >= self.total_steps:
            raise InvalidArgumentError("explore budget must leave room for the exploit phase")

    def explore_steps(self) -> int:
        if self.explore_budget < 1.0:
            return int(self.explore_budget * self.total_steps)
        return int(self.explore_budget)


@dataclass
class Counters:
    recomputes: int = 0
    accepts: int = 0
    rejects_phase: int = 0
    rejects_saturation: int = 0
    rejects_other: int = 0
    rollbacks: int = 0
    probe_forward_passes: int = 0
    window_forward_passes: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class StepOutcome:
    """What the tuner measured and decided at one step; a schedule run's holds its lr and train loss."""

    step: int
    events: list[str]
    lr: float
    train_loss: float = math.nan
    superbatch_loss: Optional[float] = None  # start loss of the window opened at this step
    rate: Optional[float] = None  # drop rate of the window closed at this step
    saturated: Optional[bool] = None  # the exploit phase's saturation verdict
    probe: Optional[ProbeRound] = None
    window_forward_passes: int = 0


@dataclass
class TunerState:
    phase: Phase
    current_lr: float
    saturation: SaturationState = field(default_factory=SaturationState)
    last_change_snapshot: Optional[Snapshot] = None
    drop_rate_before_change: Optional[float] = None
    log: list[StepOutcome] = field(default_factory=list)  # the steps that measured or decided something

    @property
    def counters(self) -> Counters:
        """Counts over the log; a round that got no bound from its loss at the current lr is not a recompute."""
        events = collections.Counter(event for out in self.log for event in out.events)
        probes = [out.probe for out in self.log if out.probe is not None]
        return Counters(
            recomputes=sum(p.bound > 0.0 for p in probes),
            accepts=events[EVENT_ACCEPT],
            rejects_phase=events[EVENT_REJECT_PHASE],
            rejects_saturation=events[EVENT_REJECT_SATURATION],
            rejects_other=events[EVENT_REJECT_OTHER],
            rollbacks=events[EVENT_ROLLBACK],
            probe_forward_passes=sum(p.forward_passes for p in probes),
            window_forward_passes=sum(out.window_forward_passes for out in self.log),
        )


def phase_at(step: int, cfg: TunerConfig) -> Phase:
    if not 0 <= step < cfg.total_steps:
        raise InvalidArgumentError("step out of range")
    return Phase.EXPLORE if step < cfg.explore_steps() else Phase.EXPLOIT


def phase_filter(phase: Phase, proposal: EpsilonProposal) -> EpsilonProposal:
    """Reject direction-inconsistent proposals; zero perturbations always pass."""
    if not proposal.is_applicable:
        return proposal
    eps = proposal.epsilon
    if phase is Phase.EXPLORE and eps < 0.0:
        return EpsilonProposal(ProposalKind.REJECT_PHASE_FILTER)
    if phase is Phase.EXPLOIT and eps > 0.0:
        return EpsilonProposal(ProposalKind.REJECT_PHASE_FILTER)
    return proposal


def drop_rate(loss_start: float, loss_end: float, steps: int) -> float:
    """Loss drop per step over a window; negative when the loss rose."""
    if steps < 1:
        raise InvalidArgumentError("steps must be >= 1")
    return (loss_start - loss_end) / steps


def saturation_check(
    state: SaturationState, current_rate: float, cfg: TunerConfig
) -> tuple[bool, SaturationState]:
    """Has the current lr stopped making progress?

    Relative mode: saturated when the rate has degraded by the configured
    factor since this lr began (or turned nonpositive); the first crossing
    freezes the current rate as an absolute threshold for the rest of the
    run. Absolute mode: saturated when at or below the frozen threshold.
    """
    if state.mode is SaturationMode.RELATIVE:
        if state.reference_rate is None:
            raise InvalidArgumentError("relative saturation state has no reference rate")
        degraded = state.reference_rate / max(current_rate, _TINY_RATE) >= cfg.saturation_threshold_rel
        saturated = degraded or current_rate <= 0.0
        if saturated:
            return True, SaturationState(SaturationMode.ABSOLUTE, max(current_rate, _TINY_RATE))
        return False, state
    return current_rate <= state.reference_rate, state


@dataclass
class ProbeRound:
    """Losses probed around lr eta at one step on one fixed superbatch, and their fit.

    The tuner fills in the verdict fields as far as the round got; ``event``
    stays a reject until the phase filter rejects the proposal or the tuner applies it.
    """

    step: int
    minibatch_indices: tuple[int, ...]  # the probed superbatch's; the log pins no rows
    eta: float
    loss_at_zero: float
    bound: float
    samples: list[LossSample] = field(default_factory=list)
    fit: Optional[QuadFit] = None
    proposal: Optional[EpsilonProposal] = None
    filtered: Optional[EpsilonProposal] = None
    applied_epsilon: Optional[float] = None
    event: str = EVENT_REJECT_OTHER
    forward_passes: int = 0


def probe_round(
    engine: TrainingEngine, cfg: TunerConfig, step: int, direction, eta: float, sb: Superbatch
) -> ProbeRound:
    """Superbatch losses at eta + eps along direction, and their quadratic fit.

    The loss at eta sets the trust-region bound on |eps|; a non-finite or
    zero loss there ends the round with no samples. Non-finite probes are
    dropped, and the fit is None when fewer than 3 distinct epsilons remain.
    A probe whose perturbed parameters overflow runs no forward, so
    ``forward_passes`` is taken from the engine's own count.
    """
    passes = engine.forward_passes
    loss_at_zero = engine.perturbed_loss(direction, eta, sb)
    bound = epsilon_bound(cfg.epsilon_threshold_r, max(loss_at_zero, 0.0)) if math.isfinite(loss_at_zero) else 0.0
    probe = ProbeRound(step, sb.minibatch_indices, eta, loss_at_zero, bound)
    if bound > 0.0:
        for eps in probe_points(eta, bound, cfg.n_probes, cfg.span_fraction):
            loss = loss_at_zero if eps == 0.0 else engine.perturbed_loss(direction, eta + eps, sb)
            if math.isfinite(loss):
                probe.samples.append(LossSample(epsilon=eps, loss=loss))
        if len({s.epsilon for s in probe.samples}) >= 3:
            probe.fit = fit_quadratic(probe.samples)
    probe.forward_passes = engine.forward_passes - passes
    return probe


@dataclass
class _Window:
    superbatch: Superbatch
    start_loss: float  # on the superbatch's rows, at the opening params
    start_step: int


class LearningRateTuner:
    """Drives training steps for one run, adjusting the learning rate in place."""

    def __init__(self, cfg: TunerConfig, engine: TrainingEngine, optimizer: Optimizer):
        if cfg.superbatch_size > engine.batches_per_epoch:
            raise InvalidArgumentError(
                "superbatch_size exceeds the number of minibatches per epoch"
            )
        self.cfg = cfg
        self.engine = engine
        self.optimizer = optimizer
        self.state = TunerState(phase=phase_at(0, cfg), current_lr=cfg.seed_lr)
        self._window: Optional[_Window] = None
        self._last_rate: Optional[float] = None
        self._step_passes = 0  # the engine's forward passes when the current step's window closed

    # -- rollback ----------------------------------------------------------------

    def maybe_rollback(self, rate_after: float) -> bool:
        """End the review of the last accepted lr change, reverting it if it degraded the drop rate."""
        st = self.state
        snap, rate_before = st.last_change_snapshot, st.drop_rate_before_change
        st.last_change_snapshot = st.drop_rate_before_change = None
        if snap is None or rate_before is None or rate_after >= self.cfg.rollback_factor * rate_before:
            return False
        restore_snapshot(snap, self.engine.model.params, self.optimizer)
        self.engine.restore_data_state(snap.rng_cursor)
        st.current_lr = snap.lr
        return True

    # -- the probe round -----------------------------------------------------------

    def recompute(self, step: int, direction, rate_before: Optional[float]) -> ProbeRound:
        """One probe round at the current lr; the round's ``event`` is its verdict."""
        cfg, st = self.cfg, self.state
        sb = self.engine.draw_superbatch(cfg.superbatch_size)
        eta = st.current_lr
        probe = probe_round(self.engine, cfg, step, direction, eta, sb)
        if probe.bound <= 0.0:
            return probe
        if probe.fit is None:
            probe.proposal = probe.filtered = EpsilonProposal(ProposalKind.REJECT_NO_MINIMUM)
            return probe

        probe.proposal = propose_epsilon(probe.fit, probe.bound)
        probe.filtered = filtered = phase_filter(st.phase, probe.proposal)
        if not filtered.is_applicable:
            probe.event = EVENT_REJECT_PHASE
            return probe
        eps = filtered.epsilon
        if eta + eps <= 0.0:
            return probe

        if cfg.rollback_enabled:
            st.last_change_snapshot = take_snapshot(
                self.engine.model.params,
                self.optimizer,
                lr=eta,
                step_index=step,
                rng_cursor=self.engine.data_state(),
            )
            st.drop_rate_before_change = rate_before
        st.current_lr = eta + eps
        if st.saturation.mode is SaturationMode.RELATIVE:
            st.saturation = replace(st.saturation, reference_rate=None)
        probe.applied_epsilon = eps
        probe.event = EVENT_ACCEPT
        return probe

    # -- one training step ------------------------------------------------------------

    def run_step(self, step: int, x, y) -> StepOutcome:
        """Advance training by one committed step on the batch, recomputing lr at window boundaries.

        It is `close_window`, the batch's gradient and direction at the params
        that close leaves, `finish_step` along that direction, and the commit.
        """
        outcome = self.close_window(step)
        train_loss, grads = self.engine.loss_and_gradient(x, y)
        pending = self.optimizer.compute_direction(self.engine.model.params, grads)
        self.finish_step(outcome, train_loss, pending.direction)
        self.engine.commit(self.optimizer, pending, outcome.lr)
        return outcome

    def close_window(self, step: int) -> StepOutcome:
        """A step's first half: close the window due at ``step``, whose review may roll back
        the last accepted lr change, and switch phase. Returns the outcome `finish_step` completes."""
        cfg, st = self.cfg, self.state
        outcome = StepOutcome(step, [], st.current_lr)
        self._step_passes = self.engine.forward_passes
        if step % cfg.recompute_window == 0 and self._window is not None:
            window = self._window
            window_loss = self.engine.superbatch_loss(window.superbatch)
            outcome.rate = rate = drop_rate(window.start_loss, window_loss, step - window.start_step)
            if self.maybe_rollback(rate):
                outcome.events.append(EVENT_ROLLBACK)
                # The restored params are this window's opening ones.
                window_loss = window.start_loss
            else:
                self._last_rate = rate
                if st.saturation.reference_rate is None:
                    st.saturation = replace(st.saturation, reference_rate=rate)
            # The next window opens on the same rows, on a loss measured at its params.
            self._window = _Window(window.superbatch, window_loss, step)
            outcome.superbatch_loss = window_loss

        phase = phase_at(step, cfg)
        if phase is not st.phase:
            st.phase = phase
            outcome.events.append(EVENT_PHASE_SWITCH)
        return outcome

    def finish_step(self, outcome: StepOutcome, train_loss: float, direction) -> StepOutcome:
        """A step's second half, before its commit: the probe round along ``direction`` that a
        closed window asks for, and the first window's opening. Sets the outcome's train loss
        and the lr to commit at, and appends it to ``state.log`` when the step measured a window
        or decided something."""
        cfg, st = self.cfg, self.state
        outcome.train_loss = train_loss
        if outcome.rate is not None and EVENT_ROLLBACK not in outcome.events:
            if st.phase is Phase.EXPLOIT:
                outcome.saturated, st.saturation = saturation_check(st.saturation, self._last_rate, cfg)
                if not outcome.saturated:
                    outcome.events.append(EVENT_REJECT_SATURATION)
            if outcome.saturated is not False:
                outcome.probe = self.recompute(outcome.step, direction, self._last_rate)
                outcome.events.append(outcome.probe.event)

        if self._window is None:
            sb = self.engine.draw_superbatch(cfg.superbatch_size)
            outcome.superbatch_loss = self.engine.superbatch_loss(sb)
            self._window = _Window(sb, outcome.superbatch_loss, outcome.step)

        # The step's forward passes since close_window, less its training forward and its probe round's.
        probe_passes = outcome.probe.forward_passes if outcome.probe else 0
        outcome.window_forward_passes = self.engine.forward_passes - self._step_passes - 1 - probe_passes
        outcome.lr = st.current_lr
        if outcome.events or outcome.superbatch_loss is not None:
            st.log.append(outcome)
        return outcome
