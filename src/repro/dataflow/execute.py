"""Reference in-process executor.

Runs a whole stream graph in one process with depth-first ``emit``
semantics — the same traversal order the paper's C backend generates
("passing data via emit becomes a function call, and the system does a
depth-first traversal of the stream graph", Section 5.1).

The executor doubles as the measurement half of the profiler: it records,
per operator, invocation/input/output counts and primitive work, and per
edge, element counts and serialized bytes.  Platform cost models then turn
those counts into seconds (``repro.profiler``).

Two dispatch modes share one set of statistics:

* **scalar** (``push``) — one Python call per element per operator, the
  paper-faithful depth-first traversal;
* **batched** (``push_batch``) — whole chunks of elements travel each edge
  as columnar numpy batches; operators with a ``work_batch`` form process
  the chunk in one vectorized call, everything else transparently falls
  back to per-element dispatch *within* the chunk.

Batched execution preserves every per-stream element order (and therefore
all operator state evolution and aggregate statistics), but interleaves
*different* sources at chunk rather than element granularity.

An :class:`ExecutionPlan` names which sources run, at what virtual-time
rates, in which mode and with what chunking; :meth:`Executor.run`,
``run_graph``, the profiler, the deployment replay path and the CLI all
consume the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping

import numpy as np

from .graph import (
    Edge,
    GraphError,
    Operator,
    OperatorContext,
    StreamGraph,
    WorkCounts,
)
from .sink import SinkBuffer, rows_to_array
from .sizing import element_size


class ExecutionPlanError(GraphError):
    """Raised for invalid :class:`ExecutionPlan` configurations — e.g. a
    plan naming a source the graph (or the sample data) does not have."""


@dataclass(frozen=True)
class ExecutionPlan:
    """One typed description of how to drive a graph on source traces.

    Every field is optional; ``None`` (or the field default) means
    "inherit the consumer's default" — so a bare ``ExecutionPlan()``
    reproduces each entry point's historical behaviour, and a plan can
    be handed unchanged to :meth:`Executor.run`, :meth:`Profiler.measure
    <repro.profiler.profiler.Profiler.measure>`, :meth:`Session.profile
    <repro.workbench.session.Session.profile>`, the deployment replay
    path, and the CLI.

    Args:
        sources: the sources to drive, ``None`` meaning every source
            the sample data provides.  Naming a source the graph or the
            data lacks raises :class:`ExecutionPlanError` (not a bare
            ``KeyError``).
        rates: per-source element rates (elements/second) for the
            virtual-time merge; ``None`` ticks all sources in lockstep.
        interleave: merge sources by virtual time (the deployment-
            faithful order).  ``False`` drains each source's trace in
            full before the next — incompatible with ``rates``.
        batch: drive columnar chunks instead of single elements
            (``None``: consumer default — ``False`` for ``run_graph``,
            the profiler's configured mode for ``Profiler.measure``).
        batch_size: maximum elements per columnar chunk.  Chunk
            splitting preserves per-source element order, so aggregate
            statistics are unchanged; ``None`` sends each source's trace
            as one chunk.
    """

    sources: tuple[str, ...] | None = None
    rates: Mapping[str, float] | None = None
    interleave: bool = True
    batch: bool | None = None
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.sources is not None:
            object.__setattr__(self, "sources", tuple(self.sources))
        if self.rates is not None:
            rates = dict(self.rates)
            for name, rate in rates.items():
                if rate <= 0:
                    raise ExecutionPlanError(
                        f"source {name!r} has non-positive rate {rate!r}"
                    )
            if not self.interleave:
                raise ExecutionPlanError(
                    "rates imply a virtual-time merge; they cannot be "
                    "combined with interleave=False"
                )
            object.__setattr__(self, "rates", rates)
        if self.batch_size is not None and self.batch_size < 1:
            raise ExecutionPlanError("batch_size must be >= 1")

    def resolve_sources(
        self,
        source_data: Mapping[str, Any],
        graph: StreamGraph | None = None,
    ) -> list[str]:
        """The sources this plan drives, validated against data + graph.

        Defaults to every source in ``source_data`` (in data order —
        the virtual-time merge imposes its own deterministic order
        downstream).  A plan naming a source absent from the data or
        the graph raises :class:`ExecutionPlanError`.
        """
        if self.sources is None:
            names = list(source_data)
        else:
            names = list(self.sources)
            missing = [n for n in names if n not in source_data]
            if missing:
                raise ExecutionPlanError(
                    f"plan names sources absent from the sample data: "
                    f"{sorted(missing)}"
                )
        if graph is not None:
            graph_sources = set(graph.sources)
            unknown = [n for n in names if n not in graph_sources]
            if unknown:
                raise ExecutionPlanError(
                    f"plan names operators that are not sources of "
                    f"{graph.name!r}: {sorted(unknown)}"
                )
        if self.rates is not None:
            missing_rates = [n for n in names if n not in self.rates]
            if missing_rates:
                raise ExecutionPlanError(
                    f"plan rates missing sources: {sorted(missing_rates)}"
                )
        return names

    def with_overrides(self, **changes: Any) -> "ExecutionPlan":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class OperatorStats:
    """Measured behaviour of one operator during a run."""

    invocations: int = 0
    inputs: int = 0
    outputs: int = 0
    counts: WorkCounts = field(default_factory=WorkCounts)


@dataclass
class EdgeStats:
    """Measured traffic on one edge during a run."""

    elements: int = 0
    bytes: int = 0
    peak_element_bytes: int = 0


class ExecutionStats:
    """Aggregate measurements of a full run."""

    def __init__(self, graph: StreamGraph) -> None:
        self.graph = graph
        self.operators: dict[str, OperatorStats] = {
            name: OperatorStats() for name in graph.operators
        }
        self.edge_traffic: dict[Edge, EdgeStats] = {
            edge: EdgeStats() for edge in graph.edges
        }
        #: total elements pushed into each source
        self.source_inputs: dict[str, int] = {
            name: 0 for name in graph.sources
        }
        # Per-operator out-edge stats, resolved once: ``output_bytes`` is
        # called per operator per profile, and rebuilding the candidate
        # list by scanning every edge each call was quadratic in practice.
        self._out_stats_of: dict[str, list[EdgeStats]] = {
            name: [self.edge_traffic[edge] for edge in graph.out_edges(name)]
            for name in graph.operators
        }

    def output_bytes(self, name: str) -> int:
        """Total serialized bytes emitted by operator ``name``."""
        # All out-edges carry the same stream; report one copy.
        return max(
            (stats.bytes for stats in self._out_stats_of[name]), default=0
        )


def batch_length(values: Any) -> int:
    """Number of elements in a batch (first-axis length)."""
    return len(values)


def batch_items(values: Any) -> Iterator[Any]:
    """Iterate the elements of a batch (rows of a columnar chunk)."""
    return iter(values)


class Executor:
    """Depth-first reference executor for a :class:`StreamGraph`."""

    def __init__(self, graph: StreamGraph) -> None:
        self.graph = graph
        self.stats = ExecutionStats(graph)
        self._state: dict[str, Any] = {
            name: op.new_state() for name, op in graph.operators.items()
        }
        # Per-operator delivery caches: the declared output size and the
        # (edge-stats, destination, port) triples of every out-edge.
        # These are constants of the graph; resolving them per delivered
        # element used to be a measurable share of profiling-run time.
        self._declared_size: dict[str, int | None] = {
            name: op.output_size for name, op in graph.operators.items()
        }
        self._out_stats: dict[str, list[tuple[EdgeStats, str, int]]] = {
            name: [
                (self.stats.edge_traffic[edge], edge.dst, edge.dst_port)
                for edge in graph.out_edges(name)
            ]
            for name in graph.operators
        }

    def state_of(self, name: str) -> Any:
        """The private state object of operator ``name`` (tests/sinks)."""
        return self._state[name]

    def sink_values(self, name: str) -> list[Any]:
        """Convenience: collected elements of a sink operator."""
        op = self.graph.operators[name]
        if not op.is_sink:
            raise GraphError(f"{name!r} is not a sink")
        return list(self._state[name])

    def sink_array(self, name: str) -> np.ndarray:
        """Collected sink elements as one columnar array (rows on axis 0).

        Fixed-width results come straight out of the sink's packed
        :class:`~repro.dataflow.sink.SinkBuffer`; ragged payloads are
        converted on the way out.
        """
        op = self.graph.operators[name]
        if not op.is_sink:
            raise GraphError(f"{name!r} is not a sink")
        state = self._state[name]
        if isinstance(state, SinkBuffer):
            return state.to_array()
        return rows_to_array(list(state))

    # -- driving ----------------------------------------------------------

    def push(self, source: str, item: Any) -> None:
        """Inject one element into a source operator and run the traversal."""
        op = self.graph.operators[source]
        if not op.is_source:
            raise GraphError(f"{source!r} is not a source operator")
        self.stats.source_inputs[source] += 1
        source_stats = self.stats.operators[source]
        source_stats.invocations += 1
        source_stats.outputs += 1
        source_stats.counts.add(invocations=1.0)
        self._deliver(source, item)

    def push_many(self, source: str, items: list[Any]) -> None:
        for item in items:
            self.push(source, item)

    def push_batch(self, source: str, values: Any) -> None:
        """Inject a whole batch of elements into a source operator.

        ``values`` follows the batch convention of
        :data:`~repro.dataflow.graph.BatchWorkFunction`: a sequence of
        elements indexed on its first axis.  Statistics are identical to
        ``n`` scalar :meth:`push` calls; downstream operators with a
        ``work_batch`` form process the chunk vectorized.
        """
        n = batch_length(values)
        if n == 0:
            return
        op = self.graph.operators[source]
        if not op.is_source:
            raise GraphError(f"{source!r} is not a source operator")
        self.stats.source_inputs[source] += n
        source_stats = self.stats.operators[source]
        source_stats.invocations += n
        source_stats.outputs += n
        source_stats.counts.add(invocations=float(n))
        self._deliver_batch(source, values)

    def run(
        self,
        source_data: dict[str, Any],
        plan: ExecutionPlan | None = None,
    ) -> "Executor":
        """Drive the executor to completion as described by ``plan``.

        The one plan-shaped entry point shared with ``run_graph``, the
        profiler, and the deployment replay path.  A ``None``/default
        plan interleaves all sources element-by-element in scalar mode.
        Batched plans deliver each source's trace as columnar chunks of
        at most ``batch_size`` elements; ``interleave=False`` drains
        each source's trace in full before the next.
        """
        if plan is None:
            plan = ExecutionPlan()
        names = plan.resolve_sources(source_data, self.graph)
        batch = bool(plan.batch) if plan.batch is not None else False
        if not plan.interleave:
            for name in names:
                if batch:
                    self.push_batch(name, source_data[name])
                else:
                    self.push_many(name, source_data[name])
            return self
        lengths = {name: len(source_data[name]) for name in names}
        schedule = merge_schedule(lengths, plan.rates, grouped=batch)
        for sched_run in schedule:
            items = source_data[sched_run.name]
            if batch:
                for s, e in chunk_spans(
                    sched_run.start, sched_run.stop, plan.batch_size
                ):
                    self.push_batch(sched_run.name, items[s:e])
            else:
                for index in range(sched_run.start, sched_run.stop):
                    self.push(sched_run.name, items[index])
        return self

    # -- internals ----------------------------------------------------------

    def _deliver(self, src: str, value: Any) -> None:
        """Send ``value`` down every out-edge of ``src`` (depth-first)."""
        out = self._out_stats[src]
        if not out:
            return
        size = self._declared_size[src]
        if size is None:
            size = element_size(value)
        for stats, dst, dst_port in out:
            stats.elements += 1
            stats.bytes += size
            if size > stats.peak_element_bytes:
                stats.peak_element_bytes = size
            self._invoke(dst, dst_port, value)

    def _invoke(self, name: str, port: int, item: Any) -> None:
        op: Operator = self.graph.operators[name]
        stats = self.stats.operators[name]
        stats.invocations += 1
        stats.inputs += 1
        stats.counts.add(invocations=1.0)

        emitted: list[Any] = []
        ctx = OperatorContext(self._state[name], emitted.append, stats.counts)
        if op.work is not None:
            op.work(ctx, port, item)
        stats.outputs += len(emitted)
        for value in emitted:
            self._deliver(name, value)

    def _batch_sizes(self, values: Any) -> tuple[int, int]:
        """(total, peak) serialized bytes of a batch's elements."""
        if isinstance(values, np.ndarray) and values.dtype != object:
            n = len(values)
            if values.ndim == 1:
                each = element_size(values[0])
            else:
                # Rows of a columnar chunk are uniform-size elements.
                each = int(values[0].nbytes)
            return each * n, each
        total = 0
        peak = 0
        for value in batch_items(values):
            size = element_size(value)
            total += size
            if size > peak:
                peak = size
        return total, peak

    def _deliver_batch(self, src: str, values: Any) -> None:
        """Send a whole batch down every out-edge of ``src``."""
        out = self._out_stats[src]
        if not out:
            return
        n = batch_length(values)
        size = self._declared_size[src]
        if size is None:
            total, peak = self._batch_sizes(values)
        else:
            total, peak = size * n, size
        for stats, dst, dst_port in out:
            stats.elements += n
            stats.bytes += total
            if peak > stats.peak_element_bytes:
                stats.peak_element_bytes = peak
            self._invoke_batch(dst, dst_port, values)

    def _invoke_batch(self, name: str, port: int, values: Any) -> None:
        op: Operator = self.graph.operators[name]
        stats = self.stats.operators[name]
        n = batch_length(values)
        stats.invocations += n
        stats.inputs += n
        stats.counts.add(invocations=float(n))

        emitted: list[Any] = []
        ctx = OperatorContext(self._state[name], emitted.append, stats.counts)
        outputs: Any = None
        if op.work_batch is not None:
            outputs = op.work_batch(ctx, port, values)
        elif op.work is not None:
            # Per-element fallback: same state, same counts, outputs
            # regrouped into one chunk for the rest of the traversal.
            work = op.work
            for item in batch_items(values):
                work(ctx, port, item)
        if emitted and outputs is not None:
            outputs = list(emitted) + list(batch_items(outputs))
        elif outputs is None:
            outputs = emitted
        n_out = batch_length(outputs)
        if not n_out:
            return
        stats.outputs += n_out
        self._deliver_batch(name, outputs)


# ---------------------------------------------------------------------------
# Virtual-time source merging (shared by run_graph and the profiler)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleRun:
    """A maximal run of consecutive elements of one source."""

    name: str
    start: int
    stop: int


def merge_schedule(
    lengths: dict[str, int],
    rates: dict[str, float] | None = None,
    grouped: bool = False,
) -> list[ScheduleRun]:
    """Merge per-source traces by virtual time into ordered runs.

    Element ``i`` of source ``s`` carries timestamp ``i / rates[s]`` —
    the moment a deployment's sensor would produce it.  The merge is the
    vectorized equivalent of a ``(timestamp, source_name)`` heap: ties
    go to the lexicographically smallest source name, so the schedule is
    a pure function of ``(lengths, rates)`` — invariant under the
    insertion order of either mapping (property-tested in
    ``tests/dataflow/test_merge_schedule.py``).

    Args:
        lengths: map source name -> trace length.
        rates: per-source element rates; ``None`` means all sources tick
            in lockstep (rate 1.0), which reproduces the classic
            element-by-element round-robin interleave.
        grouped: relax cross-source ordering — emit one run per source
            (in source-name order) instead of strict time order,
            maximizing run length for batched execution.  Aggregate
            statistics are unaffected: per-source element order is
            preserved; only cross-source interleaving coarsens.
    """
    names = sorted(name for name, n in lengths.items() if n > 0)
    if not names:
        return []
    if rates is None:
        rates = {name: 1.0 for name in names}

    for name in names:
        rate = rates[name]
        if rate <= 0:
            raise GraphError(
                f"source {name!r} has non-positive rate {rate!r}"
            )
    if grouped:
        return [ScheduleRun(name, 0, lengths[name]) for name in names]

    # Strict merge: exact heap order, computed vectorially.
    times_per_source = [
        np.arange(lengths[name], dtype=float) / rates[name]
        for name in names
    ]
    src_ids = np.concatenate(
        [
            np.full(len(t), i, dtype=np.int64)
            for i, t in enumerate(times_per_source)
        ]
    )
    indices = np.concatenate(
        [np.arange(len(t), dtype=np.int64) for t in times_per_source]
    )
    times = np.concatenate(times_per_source)
    order = np.lexsort((src_ids, times))
    src_sorted = src_ids[order]
    idx_sorted = indices[order]
    change = np.flatnonzero(np.diff(src_sorted) != 0) + 1
    starts = np.concatenate(([0], change))
    stops = np.concatenate((change, [len(order)]))
    return [
        ScheduleRun(
            names[int(src_sorted[s])],
            int(idx_sorted[s]),
            int(idx_sorted[e - 1]) + 1,
        )
        for s, e in zip(starts, stops)
    ]


def chunk_spans(
    start: int, stop: int, batch_size: int | None = None
) -> Iterator[tuple[int, int]]:
    """Split ``[start, stop)`` into in-order spans of ≤ ``batch_size``.

    ``None`` yields the whole span.  Splitting preserves element order,
    so aggregate statistics are independent of the chunking.
    """
    if batch_size is None:
        if stop > start:
            yield start, stop
        return
    for s in range(start, stop, batch_size):
        yield s, min(s + batch_size, stop)


def run_graph(
    graph: StreamGraph,
    source_data: dict[str, list[Any]],
    plan: ExecutionPlan | None = None,
) -> Executor:
    """Run a graph to completion on per-source input traces.

    How the traces are driven is described by an :class:`ExecutionPlan`;
    the default plan interleaves all sources element-by-element
    (matching simultaneous sampling of multiple sensors).
    ``plan.rates`` interleaves by virtual time instead — the same merge
    the profiler uses — and ``plan.batch`` delivers columnar chunks via
    :meth:`Executor.push_batch`.
    """
    missing = set(source_data) - set(graph.sources)
    if missing:
        raise GraphError(f"not source operators: {sorted(missing)}")
    return Executor(graph).run(source_data, plan)
