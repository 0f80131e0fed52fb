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

from dataclasses import dataclass, field
from typing import Any

from ..dataflow.execute import (
    ExecutionPlan,
    ExecutionPlanError,
    ExecutionStats,
    Executor,
    chunk_spans,
    merge_schedule,
)
from ..dataflow.graph import Edge, GraphError, StreamGraph, WorkCounts
from ..platforms.base import Platform
from .records import EdgeProfile, GraphProfile, OperatorProfile


@dataclass
class Measurement:
    """Platform-independent measurements from one profiling run."""

    graph: StreamGraph
    stats: ExecutionStats
    duration: float  # virtual seconds covered by the sample traces
    #: per-edge peak payload bytes within any single bucket, divided by
    #: the bucket width (bytes/s); empty if peak tracking was disabled.
    edge_peak_bytes_per_sec: dict[Edge, float] = field(default_factory=dict)
    #: per-operator peak primitive work per bucket (WorkCounts); empty if
    #: peak tracking was disabled.
    operator_peak_counts: dict[str, WorkCounts] = field(default_factory=dict)

    def on(self, platform: Platform) -> GraphProfile:
        """Cost this measurement on ``platform``."""
        operators: dict[str, OperatorProfile] = {}
        for name, op_stats in self.stats.operators.items():
            seconds = platform.seconds_for(op_stats.counts)
            peak_counts = self.operator_peak_counts.get(name)
            if peak_counts is not None:
                peak_utilization = platform.seconds_for(peak_counts)
            else:
                peak_utilization = seconds / self.duration
            operators[name] = OperatorProfile(
                name=name,
                invocations=op_stats.invocations,
                inputs=op_stats.inputs,
                outputs=op_stats.outputs,
                counts=op_stats.counts,
                seconds=seconds,
                utilization=seconds / self.duration,
                peak_utilization=peak_utilization,
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
                peak_bytes_per_sec=self.edge_peak_bytes_per_sec.get(
                    edge, bytes_per_sec
                ),
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


class PeakTracker:
    """Event-driven per-bucket peak accumulator over one executor.

    The profiling loop flushes it at every virtual-time bucket boundary;
    each flush folds the deltas of the edges and operators touched since
    the previous boundary into the running per-bucket peaks.
    """

    def __init__(self, executor: Executor, bucket_seconds: float) -> None:
        self.executor = executor
        self.bucket_seconds = bucket_seconds
        #: per-edge peak bytes/sec over any single bucket
        self.edge_peaks: dict[Edge, float] = {}
        #: per-operator peak WorkCounts over any single bucket (raw
        #: deltas; scale by ``1/bucket_seconds`` for per-second rates)
        self.op_peaks: dict[str, WorkCounts] = {}
        self._prev_edge_bytes: dict[Edge, int] = {}
        self._prev_op_counts: dict[str, WorkCounts] = {}
        executor.start_touch_tracking()

    def flush(self) -> None:
        """Fold the since-last-boundary deltas into the running peaks."""
        touched_edges, touched_ops = self.executor.drain_touched()
        edge_traffic = self.executor.stats.edge_traffic
        op_stats = self.executor.stats.operators
        for edge in touched_edges:
            total = edge_traffic[edge].bytes
            delta = total - self._prev_edge_bytes.get(edge, 0)
            if delta:
                self._prev_edge_bytes[edge] = total
                rate = delta / self.bucket_seconds
                if rate > self.edge_peaks.get(edge, 0.0):
                    self.edge_peaks[edge] = rate
        for name in touched_ops:
            counts = op_stats[name].counts
            prev = self._prev_op_counts.get(name)
            delta_counts = (
                counts.minus(prev) if prev is not None else counts.copy()
            )
            if delta_counts.total:
                self._prev_op_counts[name] = counts.copy()
                best = self.op_peaks.get(name)
                if best is None or delta_counts.total > best.total:
                    self.op_peaks[name] = delta_counts

    def scaled_op_peaks(self) -> dict[str, WorkCounts]:
        """Peak counts per *second* (peak utilization needs the width)."""
        return {
            name: counts.scaled(1.0 / self.bucket_seconds)
            for name, counts in self.op_peaks.items()
        }


class Profiler:
    """Runs a graph on programmer-supplied sample data (paper Section 3).

    Args:
        bucket_seconds: width of the virtual-time buckets used for peak
            load tracking.
        track_peak: record per-bucket peaks (disable for very large
            graphs where only mean load matters).
        batch: drive the graph in columnar chunks
            (:meth:`~repro.dataflow.execute.Executor.push_batch`) instead
            of element by element.  Chunks never straddle a peak-tracking
            bucket boundary, so aggregate statistics, per-bucket peaks,
            profiles, and downstream partitions are identical to the
            scalar run; only the element-level interleaving of *different*
            sources inside one bucket coarsens.  Off by default to keep
            the paper-faithful traversal order.
        batch_size: optional cap on elements per columnar chunk in
            batched mode (``None``: bucket boundaries alone bound
            chunks).  Chunking preserves per-source element order, so
            measurements are identical for every ``batch_size`` — it
            does not enter the profile content key.

    Peak tracking is event-driven: the executor reports which edges and
    operators were touched since the last bucket boundary, and the
    profiler computes per-bucket deltas over those dirty sets only — the
    per-element full-graph rescan (O(elements x (E+V))) is gone.
    """

    def __init__(
        self,
        bucket_seconds: float = 1.0,
        track_peak: bool = True,
        batch: bool = False,
        batch_size: int | None = None,
    ):
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.bucket_seconds = bucket_seconds
        self.track_peak = track_peak
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
            bucket_seconds=(
                self.bucket_seconds
                if plan.bucket_seconds is None
                else plan.bucket_seconds
            ),
            track_peak=(
                self.track_peak
                if plan.track_peak is None
                else plan.track_peak
            ),
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
                batch/bucket/peak configuration per call.
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
        executor = Executor(graph)
        tracker = (
            PeakTracker(executor, effective.bucket_seconds)
            if effective.track_peak
            else None
        )

        # Merge-by-virtual-time so simultaneous sensors interleave the way
        # they would in a deployment.  Scalar mode replays the exact
        # element-by-element heap order; batch mode groups each bucket's
        # elements per source into one columnar chunk (bucket assignment
        # is computed vectorially inside merge_schedule).
        lengths = {name: len(items) for name, items in source_data.items()}
        schedule = merge_schedule(
            lengths,
            source_rates,
            bucket_seconds=(
                effective.bucket_seconds if effective.track_peak else None
            ),
            grouped=effective.batch,
        )

        current_bucket = 0
        for run in schedule:
            if tracker is not None and run.bucket != current_bucket:
                tracker.flush()
                current_bucket = run.bucket
            items = source_data[run.name]
            if effective.batch:
                for s, e in chunk_spans(
                    run.start, run.stop, effective.batch_size
                ):
                    executor.push_batch(run.name, items[s:e])
            else:
                for index in range(run.start, run.stop):
                    executor.push(run.name, items[index])

        if tracker is not None:
            tracker.flush()

        return Measurement(
            graph=graph,
            stats=executor.stats,
            duration=duration,
            edge_peak_bytes_per_sec=(
                tracker.edge_peaks if tracker is not None else {}
            ),
            operator_peak_counts=(
                tracker.scaled_op_peaks() if tracker is not None else {}
            ),
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
