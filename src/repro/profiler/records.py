"""Profile records: what profiling produces, what partitioning consumes.

After profiling, "we are able to estimate the CPU and communication
requirements of every operator on every platform" (paper Section 1).
A :class:`GraphProfile` holds exactly that: per-operator CPU utilization
on one platform, and per-edge bandwidth.  Section 4.2.1 notes the
formulation can price operators and edges at mean or at peak load, and
that predictable-rate applications use the mean; this repository prices
every cost at mean load.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..dataflow.graph import Edge, StreamGraph, WorkCounts
from ..platforms.base import Platform


@dataclass(frozen=True)
class OperatorProfile:
    """CPU behaviour of one operator on one platform at the profiled rate."""

    name: str
    invocations: int
    inputs: int
    outputs: int
    counts: WorkCounts
    seconds: float          # total predicted execution time over the run
    utilization: float      # mean fraction of the platform CPU consumed

    @property
    def seconds_per_invocation(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.seconds / self.invocations

    def scaled(self, factor: float) -> "OperatorProfile":
        """This operator's profile with the input data rate scaled."""
        return replace(self, utilization=self.utilization * factor)


@dataclass(frozen=True)
class EdgeProfile:
    """Traffic on one stream edge at the profiled rate."""

    edge: Edge
    elements: int
    bytes: int
    elements_per_sec: float
    bytes_per_sec: float        # mean payload bandwidth
    mean_element_bytes: float
    packets_per_element: int    # under the platform's radio framing
    packets_per_sec: float
    on_air_bytes_per_sec: float  # packet count * full payload size

    def scaled(self, factor: float) -> "EdgeProfile":
        return replace(
            self,
            elements_per_sec=self.elements_per_sec * factor,
            bytes_per_sec=self.bytes_per_sec * factor,
            packets_per_sec=self.packets_per_sec * factor,
            on_air_bytes_per_sec=self.on_air_bytes_per_sec * factor,
        )


class GraphProfile:
    """Per-platform profile of a whole graph at a given input rate.

    ``rate_factor`` tracks scaling applied by :meth:`scaled` relative to the
    profiled input trace (Section 4.3 treats data rate as a free variable
    under the linear-scaling assumption).

    ``base`` is the unscaled profile a chain of :meth:`scaled` calls
    started from and ``base_factor`` the product of their factors, so a
    partitioner formulates the base once and probes it at that factor.
    The link lives in memory only: a profile built any other way
    (measured, restricted, decoded from a store) is its own base at
    factor 1.
    """

    def __init__(
        self,
        graph: StreamGraph,
        platform: Platform,
        duration: float,
        operators: dict[str, OperatorProfile],
        edges: dict[Edge, EdgeProfile],
        rate_factor: float = 1.0,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.duration = duration
        self.operators = operators
        self.edges = edges
        self.rate_factor = rate_factor
        self._base: GraphProfile | None = None
        self.base_factor = 1.0

    @property
    def base(self) -> "GraphProfile":
        """The unscaled profile this one is ``base_factor`` times."""
        return self._base if self._base is not None else self

    # -- cost accessors (the c_v and r_uv of Section 4.2.1) ---------------

    def cpu_cost(self, name: str) -> float:
        """c_v: CPU utilization of operator ``name`` on the node platform."""
        return self.operators[name].utilization

    def net_cost(self, edge: Edge) -> float:
        """r_uv: channel cost (bytes/s) of shipping ``edge`` over the radio."""
        profile = self.edges[edge]
        if self.platform.radio is not None:
            return profile.on_air_bytes_per_sec
        return profile.bytes_per_sec

    # -- aggregate evaluation -----------------------------------------------

    def node_cpu_utilization(self, node_set: set[str]) -> float:
        """Sum of node-side operator utilizations (additive-cost model).

        Summed in operator-declaration order: set iteration order varies
        with the process hash seed, and float addition is not
        associative, so summing the set directly would make the value
        process-dependent in the last ulps.
        """
        members = node_set if isinstance(node_set, (set, frozenset)) else set(
            node_set
        )
        return sum(
            profile.utilization
            for name, profile in self.operators.items()
            if name in members
        )

    def cut_bandwidth(self, node_set: set[str]) -> float:
        """Total channel cost of edges crossing the partition boundary.

        Both directions cost radio time; restricted-formulation solutions
        only ever cross node -> server.
        """
        return sum(
            self.net_cost(edge)
            for edge in self.graph.edges
            if (edge.src in node_set) != (edge.dst in node_set)
        )

    def cut_packets_per_sec(self, node_set: set[str]) -> float:
        """Packet rate of the cut (for the deployment simulator)."""
        return sum(
            self.edges[edge].packets_per_sec
            for edge in self.graph.edges
            if (edge.src in node_set) != (edge.dst in node_set)
        )

    # -- transforms --------------------------------------------------------

    def scaled(self, factor: float) -> "GraphProfile":
        """Profile at a different input rate (loads scale linearly)."""
        if factor < 0:
            raise ValueError("rate factor must be non-negative")
        scaled = GraphProfile(
            graph=self.graph,
            platform=self.platform,
            duration=self.duration,
            operators={
                name: op.scaled(factor) for name, op in self.operators.items()
            },
            edges={edge: ep.scaled(factor) for edge, ep in self.edges.items()},
            rate_factor=self.rate_factor * factor,
        )
        scaled._base = self.base
        scaled.base_factor = self.base_factor * factor
        return scaled

    def restricted_to(self, names: set[str]) -> "GraphProfile":
        """Profile view containing only ``names`` (movable-subgraph step)."""
        return GraphProfile(
            graph=self.graph,
            platform=self.platform,
            duration=self.duration,
            operators={n: p for n, p in self.operators.items() if n in names},
            edges=self.edges,
            rate_factor=self.rate_factor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphProfile({self.graph.name!r} on {self.platform.name}, "
            f"rate x{self.rate_factor:g}, {len(self.operators)} ops)"
        )
