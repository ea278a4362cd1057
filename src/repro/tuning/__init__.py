"""Autotuning: pruned spaces, hierarchical tuning, deep tuning, fission."""

from .deeptuning import (
    DeepTuningEntry,
    DeepTuningResult,
    FusionSchedule,
    MAX_FUSION_DEGREE,
    deep_tune,
    fusion_schedule,
    schedule_to_program_plan,
)
from .evaluator import (
    EvalStats,
    FailureRecord,
    PlanEvaluator,
    evaluation_caches_disabled,
    plan_fingerprint,
)
from .fission import (
    FissionCandidate,
    dedupe_candidates,
    export_dsl,
    generate_fission_candidates,
    recompute_fission,
    trivial_fission,
)
from .fusion import fuse_instances, maxfuse
from .hierarchical import (
    HierarchicalTuner,
    Measurement,
    TuningResult,
    tune_kernel,
)
from .space import (
    SearchSpace,
    exhaustive_space_size,
    seed_variants,
)
from .transfer import (
    TransferSeed,
    WarmStartTuner,
    journaled_winners,
    transfer_deep_tune,
    transfer_tune,
)

__all__ = [
    "DeepTuningEntry",
    "DeepTuningResult",
    "EvalStats",
    "FailureRecord",
    "FissionCandidate",
    "FusionSchedule",
    "HierarchicalTuner",
    "MAX_FUSION_DEGREE",
    "Measurement",
    "PlanEvaluator",
    "SearchSpace",
    "TransferSeed",
    "TuningResult",
    "WarmStartTuner",
    "dedupe_candidates",
    "deep_tune",
    "evaluation_caches_disabled",
    "plan_fingerprint",
    "exhaustive_space_size",
    "export_dsl",
    "fuse_instances",
    "fusion_schedule",
    "generate_fission_candidates",
    "journaled_winners",
    "maxfuse",
    "recompute_fission",
    "schedule_to_program_plan",
    "seed_variants",
    "transfer_deep_tune",
    "transfer_tune",
    "trivial_fission",
    "tune_kernel",
]
