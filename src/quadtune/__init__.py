"""quadtune: learning-rate auto-tuning via local quadratic probes.

The tuner samples the training loss at small perturbations of the current
learning rate along the optimizer's step direction, fits a quadratic, and
applies the bounded minimizing perturbation, with explore/exploit phase
filtering, saturation-gated decreases, superbatch noise control, and
rollback of changes that hurt the loss-drop rate.
"""

import os

# `Mlp.logits` runs a multi-block batch as one share of row blocks per CPU, on
# the calling thread and a worker thread per other CPU; a BLAS that started
# threads of its own would compete with them for the same cores.
# Set before numpy loads, and only where the user has not set a value.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .config import RunConfig
from .datasets import Dataset, load_idx, make_blobs, make_bowl_dataset, make_dataset, make_linear_regression, make_moons
from .engine import Superbatch, TrainingEngine
from .models import LinearRegression, LogisticRegression, Mlp, Model, QuadraticBowl
from .optim import Adam, AdamW, Momentum, Optimizer, PendingStep, Sgd, Snapshot, restore_snapshot, take_snapshot
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
from .runner import RunRecord, TrainingRun, run_all_seeds
from .schedules import (
    Constant,
    CosineDecay,
    InverseSqrt,
    LinearDecay,
    OneCycle,
    RangeTestResult,
    StepSchedule,
    Trapezoid,
    lr_at,
    lr_range_test,
    momentum_at,
)
from .stats import SummaryStats, fd_gradient, least_squares_quadratic, summarize
from .tuner import (
    Counters,
    LearningRateTuner,
    Phase,
    SaturationMode,
    SaturationState,
    TunerConfig,
    TunerState,
    drop_rate,
    phase_at,
    phase_filter,
    saturation_check,
)

__version__ = "0.1.0"
