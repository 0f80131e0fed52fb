"""The abstract partitioning problem shared by every algorithm.

All partitioners (ILP formulations, brute force, heuristics, Lagrangian,
and the test oracles) consume a :class:`PartitionProblem`: a weighted DAG
with per-vertex CPU costs (on the node platform), per-edge channel costs,
pinning constraints, and resource budgets — exactly the inputs of paper
Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow.graph import Pinning, StreamGraph
from ..profiler.records import GraphProfile
from .cut import PartitionError

#: Finite stand-in for an unlimited channel budget: infinities would
#: poison the solvers' right-hand sides, so every path that resolves a
#: net budget clamps to this single cap.
NET_BUDGET_CAP = 1e15


@dataclass(frozen=True)
class WeightedEdge:
    """Aggregated directed edge with its channel cost (bytes/s)."""

    src: str
    dst: str
    bandwidth: float


@dataclass
class PartitionProblem:
    """A partitioning instance over (possibly clustered) vertices.

    Attributes:
        vertices: vertex names in a deterministic order.
        cpu: per-vertex node-side CPU cost (utilization fraction).
        edges: aggregated directed edges with bandwidth costs.
        pins: per-vertex placement constraint.
        cpu_budget: node CPU budget ``C`` (Eq. 2).
        net_budget: channel budget ``N`` (Eq. 4).
        alpha: CPU weight in the objective (Eq. 5).
        beta: network weight in the objective (Eq. 5).
    """

    vertices: list[str]
    cpu: dict[str, float]
    edges: list[WeightedEdge]
    pins: dict[str, Pinning]
    cpu_budget: float
    net_budget: float
    alpha: float = 0.0
    beta: float = 1.0

    _in_bw: dict[str, float] = field(default_factory=dict, repr=False)
    _out_bw: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        order = {name: i for i, name in enumerate(self.vertices)}
        for edge in self.edges:
            if edge.src not in order or edge.dst not in order:
                raise PartitionError(f"edge {edge} references unknown vertex")
            if edge.bandwidth < 0:
                raise PartitionError(f"edge {edge} has negative bandwidth")
        for name in self.vertices:
            if self.cpu.get(name, 0.0) < 0:
                raise PartitionError(f"vertex {name!r} has negative CPU cost")
            self.pins.setdefault(name, Pinning.MOVABLE)

    # -- structure ---------------------------------------------------------

    def in_bandwidth(self, name: str) -> float:
        if not self._in_bw:
            for v in self.vertices:
                self._in_bw[v] = 0.0
            for edge in self.edges:
                self._in_bw[edge.dst] += edge.bandwidth
        return self._in_bw[name]

    def out_bandwidth(self, name: str) -> float:
        if not self._out_bw:
            for v in self.vertices:
                self._out_bw[v] = 0.0
            for edge in self.edges:
                self._out_bw[edge.src] += edge.bandwidth
        return self._out_bw[name]

    def predecessors(self, name: str) -> list[str]:
        return [e.src for e in self.edges if e.dst == name]

    def successors(self, name: str) -> list[str]:
        return [e.dst for e in self.edges if e.src == name]

    # -- evaluation ---------------------------------------------------------

    def node_pinned(self) -> set[str]:
        return {v for v, p in self.pins.items() if p is Pinning.NODE}

    def server_pinned(self) -> set[str]:
        return {v for v, p in self.pins.items() if p is Pinning.SERVER}

    def movable(self) -> set[str]:
        return {v for v, p in self.pins.items() if p is Pinning.MOVABLE}

    def cpu_load(self, node_set: set[str]) -> float:
        # Sum in vertex-declaration order, not set-iteration order: float
        # addition is not associative and set order varies with the
        # process's string hash seed, which would make the reported load
        # differ in the last ulps between processes — breaking the
        # partition server's byte-identical-artifacts contract.
        members = node_set if isinstance(node_set, (set, frozenset)) else set(
            node_set
        )
        return sum(self.cpu.get(v, 0.0) for v in self.vertices if v in members)

    def net_load(self, node_set: set[str]) -> float:
        """Channel cost of all boundary crossings (either direction)."""
        return sum(
            e.bandwidth
            for e in self.edges
            if (e.src in node_set) != (e.dst in node_set)
        )

    def objective(self, node_set: set[str]) -> float:
        return self.alpha * self.cpu_load(
            node_set
        ) + self.beta * self.net_load(node_set)

    def respects_pins(self, node_set: set[str]) -> bool:
        for v, pin in self.pins.items():
            if pin is Pinning.NODE and v not in node_set:
                return False
            if pin is Pinning.SERVER and v in node_set:
                return False
        return True

    def respects_precedence(self, node_set: set[str]) -> bool:
        """Single-crossing check: no edge may flow server -> node."""
        return all(
            not (e.src not in node_set and e.dst in node_set)
            for e in self.edges
        )

    def is_feasible(self, node_set: set[str], tol: float = 1e-9) -> bool:
        return (
            self.respects_pins(node_set)
            and self.cpu_load(node_set) <= self.cpu_budget + tol
            and self.net_load(node_set) <= self.net_budget + tol
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionProblem(|V|={len(self.vertices)}, "
            f"|E|={len(self.edges)}, C={self.cpu_budget:g}, "
            f"N={self.net_budget:g})"
        )


def problem_from_profile(
    profile: GraphProfile,
    pins: dict[str, Pinning],
    cpu_budget: float,
    net_budget: float,
    alpha: float = 0.0,
    beta: float = 1.0,
    aggregate_fanin: float = 1.0,
) -> PartitionProblem:
    """Build the partitioning instance from a platform profile.

    Every operator of the graph appears as a vertex; parallel edges between
    the same operator pair (a stream consumed on several ports) are
    aggregated by summing bandwidth.

    ``aggregate_fanin`` models §9's in-network aggregation: edges emitted
    by a cross-node ``reduce`` operator (or any operator downstream of
    one) carry one *shared* stream up the aggregation tree instead of one
    stream per node, so their effective cost on the contended channel is
    divided by the expected fan-in (usually the network size).  The
    default of 1.0 is the paper's two-tier behaviour.
    """
    graph: StreamGraph = profile.graph
    vertices = graph.topological_order()
    cpu = {name: profile.cpu_cost(name) for name in vertices}

    shared_srcs: set[str] = set()
    if aggregate_fanin != 1.0:
        for name, op in graph.operators.items():
            if op.aggregate:
                shared_srcs.add(name)
                shared_srcs.update(graph.descendants(name))

    aggregated: dict[tuple[str, str], float] = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst)
        cost = profile.net_cost(edge)
        if edge.src in shared_srcs:
            cost /= aggregate_fanin
        aggregated[key] = aggregated.get(key, 0.0) + cost
    edges = [
        WeightedEdge(src, dst, bandwidth)
        for (src, dst), bandwidth in sorted(aggregated.items())
    ]
    return PartitionProblem(
        vertices=vertices,
        cpu=cpu,
        edges=edges,
        pins=dict(pins),
        cpu_budget=cpu_budget,
        net_budget=net_budget,
        alpha=alpha,
        beta=beta,
    )
