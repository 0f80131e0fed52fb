"""Deployment simulation: run a partitioned program over a testbed.

This is the reproduction of the paper's §7.3 validation runs.  Two
fidelity levels:

* :meth:`Deployment.analyze` — fast closed-form prediction of the three
  quantities Figure 9 plots: percent of input events processed (CPU side),
  percent of network messages received (channel side), and their product,
  the goodput;
* :meth:`Deployment.run` — full data-level simulation: every node executes
  its partition on real sample data, cut elements are marshalled into
  packets, the shared channel drops packets under congestion, and the
  server reassembles and finishes the computation (with per-node state
  tables).  Used to validate that the analytical model and the executed
  system agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..dataflow.execute import ExecutionPlan, merge_schedule
from ..dataflow.graph import StreamGraph
from ..network.testbed import Testbed
from ..profiler.records import GraphProfile
from .node import NodeRuntime, NodeStats
from .server import ServerRuntime


@dataclass
class DeploymentPrediction:
    """Closed-form deployment outcome (one row of Figure 9/10)."""

    n_nodes: int
    input_fraction: float        # share of input events processed (CPU)
    msg_reception: float         # per-packet delivery fraction (network)
    goodput: float               # product — the paper's headline metric
    element_goodput: float       # element-level (all fragments must arrive)
    offered_pps: float           # aggregate packets/s at the root link
    per_node_work_seconds: float  # deployed seconds per input event
    duty: float                  # work per event / event period
    predicted_cpu: float         # profiler's CPU prediction (no OS overhead)
    deployed_cpu: float          # with the OS overhead factor


@dataclass
class DeploymentRunStats:
    """Measured outcome of a full data-level simulation."""

    node_stats: dict[int, NodeStats]
    packets_sent: int
    packets_delivered: int
    elements_completed: int
    server_outputs: dict[str, list[Any]]
    input_fraction: float
    msg_reception: float
    goodput: float


class Deployment:
    """A partitioned program deployed on a simulated testbed.

    Args:
        profile: the (platform-specific) profile the partition was made
            from; provides per-event costs and cut traffic rates.
        node_set: operators assigned to the node partition.
        testbed: the network environment.
    """

    def __init__(
        self,
        profile: GraphProfile,
        node_set: frozenset[str] | set[str],
        testbed: Testbed,
    ) -> None:
        self.profile = profile
        self.graph: StreamGraph = profile.graph
        self.node_set = frozenset(node_set)
        self.server_set = frozenset(self.graph.operators) - self.node_set
        self.testbed = testbed
        missing_sources = [
            s for s in self.graph.sources if s not in self.node_set
        ]
        if missing_sources:
            raise ValueError(
                f"sources must be in the node partition: {missing_sources}"
            )

    # -- closed-form analysis ------------------------------------------------

    def _source_event_rate(self) -> float:
        """Input events per second per node (sum over sources)."""
        return sum(
            self.profile.operators[s].invocations / self.profile.duration
            for s in self.graph.sources
        )

    def _aggregated_sources(self) -> set[str]:
        """Node-side operators whose output is already tree-aggregated.

        An operator's stream is aggregated if the operator itself, or any
        of its ancestors inside the node partition, is a cross-node
        ``reduce`` (paper §9): past that point one combined stream flows
        up the aggregation tree instead of one stream per node.
        """
        aggregated: set[str] = set()
        for name in self.node_set:
            op = self.graph.operators[name]
            if op.aggregate:
                aggregated.add(name)
                aggregated.update(
                    d for d in self.graph.descendants(name)
                    if d in self.node_set
                )
        return aggregated

    def analyze(self) -> DeploymentPrediction:
        """Predict input loss, message loss, and goodput for this cut."""
        platform = self.profile.platform
        event_rate = self._source_event_rate()
        event_period = 1.0 / event_rate

        predicted_cpu = self.profile.node_cpu_utilization(set(self.node_set))
        deployed_cpu = predicted_cpu * platform.os_overhead_factor
        work_per_event = deployed_cpu * event_period
        duty = deployed_cpu  # fraction of real time the CPU needs

        # CPU side: non-reentrant traversal processes one event at a time;
        # in steady state one event completes every max(period, work).
        input_fraction = min(1.0, 1.0 / duty) if duty > 0 else 1.0

        # Network side: processed events produce cut traffic.  Streams
        # downstream of an in-network reduce cross the root link once;
        # everything else crosses once per node.
        aggregated = self._aggregated_sources()
        per_node_pps = 0.0
        shared_pps = 0.0
        for edge in self.graph.edges:
            if (edge.src in self.node_set) == (edge.dst in self.node_set):
                continue
            rate = self.profile.edges[edge].packets_per_sec
            if edge.src in aggregated:
                shared_pps += rate
            else:
                per_node_pps += rate
        offered_root = input_fraction * (
            per_node_pps * self.testbed.n_nodes + shared_pps
        )
        msg_reception = self.testbed.radio.delivery_fraction(offered_root)

        # Element-level goodput: an element survives only if all of its
        # fragments do.
        cut_edges = [
            e
            for e in self.graph.edges
            if (e.src in self.node_set) != (e.dst in self.node_set)
        ]
        element_rates = []
        for edge in cut_edges:
            ep = self.profile.edges[edge]
            if ep.elements_per_sec > 0:
                element_rates.append(
                    (ep.elements_per_sec, ep.packets_per_element)
                )
        if element_rates:
            total_rate = sum(rate for rate, _ in element_rates)
            element_delivery = sum(
                rate * msg_reception ** frags
                for rate, frags in element_rates
            ) / total_rate
        else:
            element_delivery = 1.0

        return DeploymentPrediction(
            n_nodes=self.testbed.n_nodes,
            input_fraction=input_fraction,
            msg_reception=msg_reception,
            goodput=input_fraction * msg_reception,
            element_goodput=input_fraction * element_delivery,
            offered_pps=offered_root,
            per_node_work_seconds=work_per_event,
            duty=duty,
            predicted_cpu=predicted_cpu,
            deployed_cpu=deployed_cpu,
        )

    # -- full simulation ------------------------------------------------------

    def _event_order(
        self,
        source_data: dict[str, list[Any]],
        plan: ExecutionPlan,
    ) -> list[tuple[str, Any]]:
        """Flatten the traces into the per-node event order ``plan`` asks
        for: insertion-order drain when ``interleave`` is off (the historic
        replay order), virtual-time merge otherwise.
        """
        names = plan.resolve_sources(source_data, self.graph)
        events: list[tuple[str, Any]] = []
        if not plan.interleave:
            for name in names:
                events.extend((name, item) for item in source_data[name])
            return events
        lengths = {name: len(source_data[name]) for name in names}
        schedule = merge_schedule(lengths, plan.rates)
        for sched_run in schedule:
            items = source_data[sched_run.name]
            events.extend(
                (sched_run.name, items[index])
                for index in range(sched_run.start, sched_run.stop)
            )
        return events

    def run(
        self,
        source_data: dict[str, list[Any]],
        source_rates: dict[str, float],
        seed: int = 0,
        buffer_depth: int = 1,
        plan: ExecutionPlan | None = None,
    ) -> DeploymentRunStats:
        """Execute the deployment on sample data, end to end.

        Every node receives the same input trace (the paper's nodes all
        sample comparable audio); per-node state stays distinct.  ``plan``
        controls the replay order the same way it does for the profiler's
        :meth:`Executor.run <repro.dataflow.execute.Executor.run>`; the
        default keeps the historic per-source insertion-order drain.
        """
        platform = self.profile.platform
        rng = np.random.default_rng(seed)
        total_rate = sum(source_rates.values())
        if plan is None:
            plan = ExecutionPlan(interleave=False)
        events = self._event_order(source_data, plan)

        nodes = [
            NodeRuntime(
                node_id=i,
                graph=self.graph,
                node_set=self.node_set,
                platform=platform,
                input_rate=total_rate,
                buffer_depth=buffer_depth,
            )
            for i in range(self.testbed.n_nodes)
        ]
        all_packets = []
        duration = max(
            len(items) / source_rates[name]
            for name, items in source_data.items()
        )
        for node in nodes:
            for source, item in events:
                all_packets.extend(node.offer_event(source, item))

        # Channel: aggregate offered rate decides the delivery fraction.
        offered_pps = len(all_packets) / duration
        delivery = self.testbed.radio.delivery_fraction(offered_pps)
        delivered_mask = rng.random(len(all_packets)) < delivery

        server = ServerRuntime(self.graph, self.server_set)
        delivered_count = 0
        for packet, ok in zip(all_packets, delivered_mask):
            if ok:
                delivered_count += 1
                server.receive_packet(packet)

        node_stats = {node.node_id: node.stats for node in nodes}
        total_inputs = sum(s.input_events for s in node_stats.values())
        total_processed = sum(s.processed_events for s in node_stats.values())
        input_fraction = (
            total_processed / total_inputs if total_inputs else 1.0
        )
        msg_reception = (
            delivered_count / len(all_packets) if all_packets else 1.0
        )
        outputs = {
            sink: server.sink_values(sink)
            for sink in self.graph.sinks
            if sink in self.server_set
        }
        return DeploymentRunStats(
            node_stats=node_stats,
            packets_sent=len(all_packets),
            packets_delivered=delivered_count,
            elements_completed=server.elements_received,
            server_outputs=outputs,
            input_fraction=input_fraction,
            msg_reception=msg_reception,
            goodput=input_fraction * msg_reception,
        )
