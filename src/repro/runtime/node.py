"""Node-side runtime: execute the node partition, emit packets.

A :class:`BoundedExecutor` runs only the operators assigned to the node;
elements leaving the partition are captured, marshalled, and fragmented
into radio packets.  Input events arriving while the node is still busy
with a previous traversal are dropped (the "missing input events" of
paper §7.3.1), which is the CPU half of the goodput product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..dataflow.execute import (
    ExecutionPlan,
    batch_items,
    batch_length,
    chunk_spans,
    merge_schedule,
)
from ..dataflow.graph import Edge, OperatorContext, StreamGraph, WorkCounts
from ..platforms.base import Platform
from .marshal import Packet, fragment, pack


@dataclass
class NodeStats:
    """Counters for one node's run."""

    input_events: int = 0
    processed_events: int = 0
    dropped_events: int = 0
    elements_sent: int = 0
    packets_sent: int = 0
    busy_seconds: float = 0.0

    @property
    def input_fraction(self) -> float:
        if self.input_events == 0:
            return 1.0
        return self.processed_events / self.input_events


class BoundedExecutor:
    """Depth-first executor confined to the node partition.

    Emissions crossing the partition boundary are collected in
    ``outbox`` as (edge, value) pairs instead of being delivered.
    """

    def __init__(self, graph: StreamGraph, node_set: frozenset[str]) -> None:
        self.graph = graph
        self.node_set = node_set
        self._state: dict[str, Any] = {
            name: graph.operators[name].new_state()
            for name in node_set
        }
        self.outbox: list[tuple[Edge, Any]] = []
        #: per-operator primitive work, used for event cost accounting
        self.counts: dict[str, WorkCounts] = {
            name: WorkCounts() for name in node_set
        }

    def total_counts(self) -> WorkCounts:
        total = WorkCounts()
        for counts in self.counts.values():
            total.merge(counts)
        return total

    def push(self, source: str, item: Any) -> list[tuple[Edge, Any]]:
        """Run one traversal; returns boundary emissions for this event."""
        if source not in self.node_set:
            raise ValueError(f"source {source!r} not in the node partition")
        start = len(self.outbox)
        self.counts[source].add(invocations=1.0)
        self._deliver(source, item)
        return self.outbox[start:]

    def push_batch(self, source: str, values: Any) -> list[tuple[Edge, Any]]:
        """Run a whole columnar chunk through the partition.

        Work counts and per-stream element order are identical to ``n``
        scalar :meth:`push` calls — operators with a ``work_batch`` form
        process the chunk vectorized, everything else falls back to
        per-element dispatch within it.  Boundary crossings are
        flattened back to per-element ``(edge, value)`` pairs, so the
        outbox contract is unchanged.
        """
        if source not in self.node_set:
            raise ValueError(f"source {source!r} not in the node partition")
        start = len(self.outbox)
        n = batch_length(values)
        if n == 0:
            return []
        self.counts[source].add(invocations=float(n))
        self._deliver_batch(source, values)
        return self.outbox[start:]

    def run(
        self,
        source_data: dict[str, Any],
        plan: ExecutionPlan | None = None,
    ) -> list[tuple[Edge, Any]]:
        """Replay full traces under an
        :class:`~repro.dataflow.execute.ExecutionPlan` — the same entry
        point shape as :meth:`Executor.run
        <repro.dataflow.execute.Executor.run>`, so deploy ≡ profile in
        API terms.  Returns the boundary emissions of the whole replay.
        """
        if plan is None:
            plan = ExecutionPlan()
        names = plan.resolve_sources(source_data)
        start = len(self.outbox)
        batch = bool(plan.batch) if plan.batch is not None else False
        if not plan.interleave:
            for name in names:
                if batch:
                    self.push_batch(name, source_data[name])
                else:
                    for item in source_data[name]:
                        self.push(name, item)
            return self.outbox[start:]
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
        return self.outbox[start:]

    def _deliver(self, src: str, value: Any) -> None:
        for edge in self.graph.out_edges(src):
            if edge.dst in self.node_set:
                self._invoke(edge.dst, edge.dst_port, value)
            else:
                self.outbox.append((edge, value))

    def _invoke(self, name: str, port: int, item: Any) -> None:
        op = self.graph.operators[name]
        counts = self.counts[name]
        counts.add(invocations=1.0)
        emitted: list[Any] = []
        ctx = OperatorContext(self._state[name], emitted.append, counts)
        if op.work is not None:
            op.work(ctx, port, item)
        for value in emitted:
            self._deliver(name, value)

    def _deliver_batch(self, src: str, values: Any) -> None:
        for edge in self.graph.out_edges(src):
            if edge.dst in self.node_set:
                self._invoke_batch(edge.dst, edge.dst_port, values)
            else:
                for item in batch_items(values):
                    self.outbox.append((edge, item))

    def _invoke_batch(self, name: str, port: int, values: Any) -> None:
        op = self.graph.operators[name]
        counts = self.counts[name]
        n = batch_length(values)
        counts.add(invocations=float(n))
        emitted: list[Any] = []
        ctx = OperatorContext(self._state[name], emitted.append, counts)
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
        if batch_length(outputs):
            self._deliver_batch(name, outputs)


@dataclass
class NodeRuntime:
    """One deployed sensor node.

    Args:
        node_id: identifier within the testbed.
        graph: the full stream graph.
        node_set: operators placed on the node.
        platform: used to price each traversal (with OS overhead — this is
            the deployed system, not the profiler's prediction).
        input_rate: source events per second.
        buffer_depth: traversals that may be outstanding before input drops.
    """

    node_id: int
    graph: StreamGraph
    node_set: frozenset[str]
    platform: Platform
    input_rate: float
    buffer_depth: int = 1
    stats: NodeStats = field(default_factory=NodeStats)

    def __post_init__(self) -> None:
        self._executor = BoundedExecutor(self.graph, self.node_set)
        self._busy_until = 0.0
        self._seq: dict[str, int] = {}
        self._payload = (
            self.platform.radio.payload_bytes
            if self.platform.radio is not None
            else 64
        )

    def offer_event(self, source: str, item: Any) -> list[Packet]:
        """Present one sensor sample; returns packets if processed."""
        stats = self.stats
        arrival = stats.input_events / self.input_rate
        stats.input_events += 1

        work_per_event = (
            self.stats.busy_seconds / self.stats.processed_events
            if self.stats.processed_events
            else 0.0
        )
        backlog = max(0.0, self._busy_until - arrival)
        if (
            work_per_event > 0
            and backlog / work_per_event >= self.buffer_depth
        ):
            stats.dropped_events += 1
            return []

        before = self._executor.total_counts()
        boundary = self._executor.push(source, item)
        after = self._executor.total_counts()
        delta = WorkCounts(
            int_ops=after.int_ops - before.int_ops,
            float_ops=after.float_ops - before.float_ops,
            trans_ops=after.trans_ops - before.trans_ops,
            mem_ops=after.mem_ops - before.mem_ops,
            invocations=after.invocations - before.invocations,
            loop_iterations=after.loop_iterations - before.loop_iterations,
        )
        seconds = self.platform.deployed_seconds_for(delta)
        start = max(arrival, self._busy_until)
        self._busy_until = start + seconds
        stats.processed_events += 1
        stats.busy_seconds += seconds

        packets: list[Packet] = []
        for edge, value in boundary:
            key = f"{edge.src}->{edge.dst}:{edge.dst_port}"
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            fragments = fragment(
                node_id=self.node_id,
                edge_key=key,
                seq=seq,
                data=pack(value),
                payload_size=self._payload,
                timestamp=self._busy_until,
            )
            packets.extend(fragments)
            stats.elements_sent += 1
        stats.packets_sent += len(packets)
        return packets
