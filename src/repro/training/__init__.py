"""Training & evaluation protocol layer.

Wraps model fitting with the paper's evaluation protocol: NPMI computed on
the *test* set ("we evaluate the topic coherence on the unseen test data to
make fair comparisons"), coherence/diversity by topic percentage, KMeans
clustering of document-topic vectors, and the three-random-seed averaging
of §V.F.
"""

from repro.training.seed import (
    spawn_rng,
    spawn_task_rng,
    spawn_task_seed,
)
from repro.training.protocol import (
    EvaluationResult,
    evaluate_model,
    train_and_evaluate,
    multi_seed_evaluation,
    CLUSTER_COUNTS,
)
from repro.training.callbacks import (
    Callback,
    EarlyStopping,
    ValidationEvaluator,
)
from repro.training.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    interrupted_writes,
)
from repro.training.resilience import (
    CheckpointCallback,
    GuardPolicy,
    TrainingGuard,
    save_training_checkpoint,
)
from repro.training.trainer import (
    CheckpointSpec,
    RunSpec,
    Trainer,
    TrainState,
    capture_training_state,
    restore_training_state,
)


def __getattr__(name: str):
    # Lazy re-export: repro.telemetry.callback subclasses Callback from
    # this package, so a top-level import here would be circular.
    if name == "TelemetryCallback":
        from repro.telemetry.callback import TelemetryCallback

        return TelemetryCallback
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "spawn_rng",
    "spawn_task_rng",
    "spawn_task_seed",
    "EvaluationResult",
    "evaluate_model",
    "train_and_evaluate",
    "multi_seed_evaluation",
    "CLUSTER_COUNTS",
    "Callback",
    "CheckpointCallback",
    "CheckpointSpec",
    "EarlyStopping",
    "FaultInjector",
    "FaultPlan",
    "GuardPolicy",
    "InjectedFault",
    "RunSpec",
    "TelemetryCallback",
    "Trainer",
    "TrainingGuard",
    "TrainState",
    "ValidationEvaluator",
    "capture_training_state",
    "interrupted_writes",
    "restore_training_state",
    "save_training_checkpoint",
]
