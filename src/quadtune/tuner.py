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
    """What the tuner measured and decided at one step."""

    step: int
    events: list[str]
    lr: float
    train_loss: float
    superbatch_loss: Optional[float]  # start loss of the window opened at this step
    rate: Optional[float]  # drop rate of the window closed at this step
    saturated: Optional[bool]  # the exploit phase's saturation verdict
    probe: Optional[ProbeRound]
    window_forward_passes: int


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

    # -- window bookkeeping ----------------------------------------------------

    def _open_window(self, step: int) -> float:
        """The start loss of a window on a freshly drawn superbatch."""
        sb = self.engine.draw_superbatch(self.cfg.superbatch_size)
        self._window = _Window(sb, self.engine.superbatch_loss(sb), step)
        return self._window.start_loss

    def _close_window(self, step: int) -> tuple[float, float]:
        """The window's drop rate, and its end loss, measured on the rows its start was."""
        window = self._window
        loss = self.engine.superbatch_loss(window.superbatch)
        return drop_rate(window.start_loss, loss, step - window.start_step), loss

    # -- rollback ----------------------------------------------------------------

    def maybe_rollback(self, rate_after: float) -> bool:
        """Revert the last accepted lr change if it degraded the drop rate."""
        st = self.state
        if st.last_change_snapshot is None or st.drop_rate_before_change is None:
            return False
        if rate_after >= self.cfg.rollback_factor * st.drop_rate_before_change:
            return False
        snap = st.last_change_snapshot
        restore_snapshot(snap, self.engine.model.params, self.optimizer)
        self.engine.restore_data_state(snap.rng_cursor)
        st.current_lr = snap.lr
        st.last_change_snapshot = None
        st.drop_rate_before_change = None
        # Remeasure the reference rate at the restored lr before gating again.
        if st.saturation.mode is SaturationMode.RELATIVE:
            st.saturation = replace(st.saturation, reference_rate=None)
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
        """Advance training by one committed step, recomputing lr at window boundaries.

        The outcome is appended to ``state.log`` when the step measured a window or decided something.
        """
        cfg, st = self.cfg, self.state
        events: list[str] = []
        closing = step % cfg.recompute_window == 0 and self._window is not None
        rate = saturated = probe = window_loss = None
        rolled_back = False

        passes = self.engine.forward_passes
        if closing:
            window = self._window
            rate, window_loss = self._close_window(step)
            if self.maybe_rollback(rate):
                events.append(EVENT_ROLLBACK)
                rolled_back = True
                # The restored params are this window's opening ones.
                window_loss = window.start_loss
            else:
                # A change under review survived its one-shot review.
                st.last_change_snapshot = None
                st.drop_rate_before_change = None
                self._last_rate = rate
                if st.saturation.reference_rate is None:
                    st.saturation = replace(st.saturation, reference_rate=rate)
            # The next window opens on the same rows, on a loss measured at its params.
            self._window = _Window(window.superbatch, window_loss, step)

        phase = phase_at(step, cfg)
        if phase is not st.phase:
            st.phase = phase
            events.append(EVENT_PHASE_SWITCH)

        train_loss, grads = self.engine.loss_and_gradient(x, y)
        pending = self.optimizer.compute_direction(self.engine.model.params, grads)

        if closing and not rolled_back:
            if st.phase is Phase.EXPLOIT:
                saturated, st.saturation = saturation_check(st.saturation, self._last_rate, cfg)
                if not saturated:
                    events.append(EVENT_REJECT_SATURATION)
            if saturated is not False:
                probe = self.recompute(step, pending.direction, self._last_rate)
                events.append(probe.event)

        if self._window is None:
            window_loss = self._open_window(step)

        self.engine.commit(self.optimizer, pending, st.current_lr)
        # The step's forward passes, less its training forward and its probe round's.
        window_passes = self.engine.forward_passes - passes - 1 - (probe.forward_passes if probe else 0)
        outcome = StepOutcome(step, events, st.current_lr, train_loss, window_loss, rate, saturated, probe, window_passes)
        if events or window_loss is not None:
            st.log.append(outcome)
        return outcome
