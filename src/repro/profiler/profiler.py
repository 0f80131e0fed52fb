"""The profiler: execute a graph on sample data, produce platform profiles.

This reproduces the two-stage profiling of paper Section 3:

1. a *platform-independent* pass (the paper executes the graph inside the
   Scheme compiler) that measures element rates and serialized sizes on
   every edge — here, one run of the reference executor;
2. a *platform-specific* costing pass (the paper runs instrumented code on
   real hardware or MSPsim) — here, pricing the recorded primitive work
   with each platform's cycle-cost model.

One :class:`Measurement` can be turned into a :class:`GraphProfile` for any
number of platforms without re-executing the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..dataflow.execute import (
    ExecutionPlan,
    ExecutionPlanError,
    ExecutionStats,
    Executor,
)
from ..dataflow.graph import Edge, GraphError, StreamGraph
from ..platforms.base import Platform
from .records import EdgeProfile, GraphProfile, OperatorProfile


@dataclass
class Measurement:
    """Platform-independent measurements from one profiling run."""

    graph: StreamGraph
    stats: ExecutionStats
    duration: float  # virtual seconds covered by the sample traces

    def on(self, platform: Platform) -> GraphProfile:
        """Cost this measurement on ``platform``."""
        operators: dict[str, OperatorProfile] = {}
        for name, op_stats in self.stats.operators.items():
            seconds = platform.seconds_for(op_stats.counts)
            operators[name] = OperatorProfile(
                name=name,
                invocations=op_stats.invocations,
                inputs=op_stats.inputs,
                outputs=op_stats.outputs,
                counts=op_stats.counts,
                seconds=seconds,
                utilization=seconds / self.duration,
            )

        edges: dict[Edge, EdgeProfile] = {}
        for edge, traffic in self.stats.edge_traffic.items():
            elements_per_sec = traffic.elements / self.duration
            bytes_per_sec = traffic.bytes / self.duration
            mean_element_bytes = (
                traffic.bytes / traffic.elements if traffic.elements else 0.0
            )
            if platform.radio is not None:
                packets_per_element = platform.radio.packets_for(
                    int(round(mean_element_bytes))
                )
                packets_per_sec = elements_per_sec * packets_per_element
                on_air = platform.radio.on_air_bytes_per_sec(
                    elements_per_sec, int(round(mean_element_bytes))
                )
            else:
                packets_per_element = 1 if mean_element_bytes else 0
                packets_per_sec = elements_per_sec
                on_air = bytes_per_sec
            edges[edge] = EdgeProfile(
                edge=edge,
                elements=traffic.elements,
                bytes=traffic.bytes,
                elements_per_sec=elements_per_sec,
                bytes_per_sec=bytes_per_sec,
                mean_element_bytes=mean_element_bytes,
                packets_per_element=packets_per_element,
                packets_per_sec=packets_per_sec,
                on_air_bytes_per_sec=on_air,
            )
        return GraphProfile(
            graph=self.graph,
            platform=platform,
            duration=self.duration,
            operators=operators,
            edges=edges,
        )


class Profiler:
    """Runs a graph on programmer-supplied sample data (paper Section 3).

    The profiler records mean load only: per-operator work and per-edge
    traffic summed over the whole trace (the paper's predictable-rate
    case, Section 4.2.1).

    Args:
        batch: drive the graph in columnar chunks
            (:meth:`~repro.dataflow.execute.Executor.push_batch`) instead
            of element by element.  Each source's trace travels as one
            chunk, so aggregate statistics, profiles, and downstream
            partitions are identical to the scalar run; only the
            element-level interleaving of *different* sources coarsens.
            Off by default to keep the paper-faithful traversal order.
        batch_size: optional cap on elements per columnar chunk in
            batched mode (``None``: one chunk per source).  Chunking
            preserves per-source element order, so measurements are
            identical for every ``batch_size`` — it does not enter the
            profile content key.
    """

    def __init__(
        self,
        batch: bool = False,
        batch_size: int | None = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch = batch
        self.batch_size = batch_size

    def with_plan(self, plan: ExecutionPlan | None) -> "Profiler":
        """A profiler with this one's config overridden by ``plan``.

        Only the plan's explicitly-set execution-config fields override
        (``None`` fields inherit); per-call fields (``sources``,
        ``rates``) are consumed by :meth:`measure` itself.
        """
        if plan is None:
            return self
        return Profiler(
            batch=self.batch if plan.batch is None else plan.batch,
            batch_size=(
                self.batch_size
                if plan.batch_size is None
                else plan.batch_size
            ),
        )

    def measure(
        self,
        graph: StreamGraph,
        source_data: dict[str, list[Any]],
        source_rates: dict[str, float] | None = None,
        plan: ExecutionPlan | None = None,
    ) -> Measurement:
        """Execute ``graph`` on sample traces.

        Args:
            graph: the stream graph to profile.
            source_data: per-source sample input traces.
            source_rates: per-source element rates (elements/second) — the
                real-time rates the deployed sensors would produce.
            plan: optional :class:`~repro.dataflow.execute.ExecutionPlan`
                selecting sources (typed :class:`~repro.dataflow.execute.
                ExecutionPlanError` if it names one the graph or data
                lacks), overriding rates, and overriding this profiler's
                batch configuration per call.
        """
        if plan is not None:
            selected = plan.resolve_sources(source_data, graph)
            source_data = {name: source_data[name] for name in selected}
            if plan.rates is not None:
                source_rates = {name: plan.rates[name] for name in selected}
            elif source_rates is not None:
                missing = [n for n in selected if n not in source_rates]
                if missing:
                    raise ExecutionPlanError(
                        f"no rates for plan sources: {sorted(missing)}"
                    )
                source_rates = {
                    name: source_rates[name] for name in selected
                }
            else:
                raise ExecutionPlanError(
                    f"no rates for plan sources: {sorted(selected)}"
                )
        if source_rates is None:
            raise ValueError(
                "source_rates are required (directly or via plan.rates)"
            )
        missing = set(source_data) - set(graph.sources)
        if missing:
            raise GraphError(f"not source operators: {sorted(missing)}")
        if set(source_data) != set(source_rates):
            raise ValueError("source_data and source_rates keys must match")
        for name, rate in source_rates.items():
            if rate <= 0:
                raise ValueError(f"source {name!r} has non-positive rate")
        if not source_data or all(not v for v in source_data.values()):
            raise ValueError("sample traces are empty")

        effective = self.with_plan(plan)
        duration = max(
            len(items) / source_rates[name]
            for name, items in source_data.items()
        )
        # Merge by virtual time so simultaneous sensors interleave the way
        # they would in a deployment: scalar mode replays the exact
        # element-by-element heap order, batch mode sends each source's
        # trace as columnar chunks.
        executor = Executor(graph).run(
            source_data,
            ExecutionPlan(
                rates=source_rates,
                batch=effective.batch,
                batch_size=effective.batch_size,
            ),
        )
        return Measurement(
            graph=graph, stats=executor.stats, duration=duration
        )

    def profile(
        self,
        graph: StreamGraph,
        source_data: dict[str, list[Any]],
        source_rates: dict[str, float],
        platform: Platform,
        plan: ExecutionPlan | None = None,
    ) -> GraphProfile:
        """Measure and cost in one call (single-platform convenience)."""
        return self.measure(graph, source_data, source_rates, plan=plan).on(
            platform
        )
