"""Dataflow substrate: the WaveScript stand-in.

Applications build a :class:`StreamGraph` through a :class:`GraphBuilder`,
marking the logical embedded-node part with ``with builder.node():``.
The reference :class:`Executor` runs graphs in-process with depth-first
emit semantics and records the measurements the profiler consumes.
"""

from .builder import GraphBuilder, Stream
from .execute import (
    EdgeStats,
    ExecutionPlan,
    ExecutionPlanError,
    ExecutionStats,
    Executor,
    OperatorStats,
    ScheduleRun,
    merge_schedule,
    run_graph,
)
from .graph import (
    Edge,
    GraphError,
    Namespace,
    Operator,
    OperatorContext,
    Pinning,
    StreamGraph,
    WorkCounts,
)
from .sink import SinkBuffer
from .sizing import element_size
from .validate import crosses_network_once, validate_graph

__all__ = [
    "Edge",
    "EdgeStats",
    "ExecutionPlan",
    "ExecutionPlanError",
    "ExecutionStats",
    "Executor",
    "GraphBuilder",
    "GraphError",
    "Namespace",
    "Operator",
    "OperatorContext",
    "OperatorStats",
    "Pinning",
    "ScheduleRun",
    "SinkBuffer",
    "Stream",
    "StreamGraph",
    "WorkCounts",
    "crosses_network_once",
    "element_size",
    "merge_schedule",
    "run_graph",
    "validate_graph",
]
