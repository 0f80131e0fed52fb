"""Profiling layer: run graphs on sample data, produce per-platform costs."""

from .profiler import Measurement, Profiler
from .records import EdgeProfile, GraphProfile, OperatorProfile
from .splitting import (
    LoopRecord,
    SplitPlan,
    YieldPoint,
    loop_records_from_counts,
    plan_split,
    plan_splits_for_partition,
)

__all__ = [
    "EdgeProfile",
    "GraphProfile",
    "LoopRecord",
    "Measurement",
    "OperatorProfile",
    "Profiler",
    "SplitPlan",
    "YieldPoint",
    "loop_records_from_counts",
    "plan_split",
    "plan_splits_for_partition",
]
