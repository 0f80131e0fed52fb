"""Dataflow graph core: operators, edges, and the stream graph.

This is the data structure the whole system revolves around.  It is the
Python analogue of the operator graph the WaveScript front-end compiler
produces by partially evaluating a WaveScript program (paper Section 2):

* an :class:`Operator` owns a *work function* and optional *private state*;
* an :class:`Edge` is a stream connecting one operator's (single) output
  to an input *port* of a downstream operator;
* a :class:`StreamGraph` is the DAG of operators, annotated with the
  logical node/server namespace split of Section 2.1.

Work functions receive an :class:`OperatorContext` and must do three things
only: read ``ctx.state``, call ``ctx.emit(value)`` for each output element,
and report the primitive work they performed via ``ctx.count(...)`` so the
profiler can cost them on each platform.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any


class Namespace(enum.Enum):
    """Logical placement declared by the programmer (paper Fig. 2)."""

    NODE = "node"
    SERVER = "server"


class Pinning(enum.Enum):
    """Physical placement freedom of an operator (paper Section 2.1.1)."""

    MOVABLE = "movable"
    NODE = "node"
    SERVER = "server"


@dataclass
class WorkCounts:
    """Primitive work performed by one operator invocation (or many).

    The categories mirror what a cycle-accurate profile distinguishes on
    the paper's platforms: integer ALU ops, floating-point ops (expensive
    in software on the FPU-less MSP430), transcendental calls (``log``,
    ``cos``, ``sqrt`` — the dominant cost of the cepstral DCT on motes,
    paper Fig. 8), memory traffic, and invocation overhead (task post /
    function call).
    """

    int_ops: float = 0.0
    float_ops: float = 0.0
    trans_ops: float = 0.0
    mem_ops: float = 0.0
    invocations: float = 0.0
    loop_iterations: float = 0.0

    def add(
        self,
        int_ops: float = 0.0,
        float_ops: float = 0.0,
        trans_ops: float = 0.0,
        mem_ops: float = 0.0,
        invocations: float = 0.0,
        loop_iterations: float = 0.0,
    ) -> None:
        self.int_ops += int_ops
        self.float_ops += float_ops
        self.trans_ops += trans_ops
        self.mem_ops += mem_ops
        self.invocations += invocations
        self.loop_iterations += loop_iterations

    def merge(self, other: "WorkCounts") -> None:
        self.add(other.int_ops, other.float_ops, other.trans_ops,
                 other.mem_ops, other.invocations, other.loop_iterations)

    def copy(self) -> "WorkCounts":
        return WorkCounts(
            int_ops=self.int_ops,
            float_ops=self.float_ops,
            trans_ops=self.trans_ops,
            mem_ops=self.mem_ops,
            invocations=self.invocations,
            loop_iterations=self.loop_iterations,
        )

    def minus(self, other: "WorkCounts") -> "WorkCounts":
        """Component-wise difference (``self - other``)."""
        return WorkCounts(
            int_ops=self.int_ops - other.int_ops,
            float_ops=self.float_ops - other.float_ops,
            trans_ops=self.trans_ops - other.trans_ops,
            mem_ops=self.mem_ops - other.mem_ops,
            invocations=self.invocations - other.invocations,
            loop_iterations=self.loop_iterations - other.loop_iterations,
        )

    def scaled(self, factor: float) -> "WorkCounts":
        return WorkCounts(
            int_ops=self.int_ops * factor,
            float_ops=self.float_ops * factor,
            trans_ops=self.trans_ops * factor,
            mem_ops=self.mem_ops * factor,
            invocations=self.invocations * factor,
            loop_iterations=self.loop_iterations * factor,
        )

    @property
    def total(self) -> float:
        return (self.int_ops + self.float_ops + self.trans_ops
                + self.mem_ops + self.invocations + self.loop_iterations)


class OperatorContext:
    """Execution context handed to a work function.

    Attributes:
        state: the operator's private state object (``None`` if stateless).
        counts: accumulator for primitive-work reporting.
    """

    __slots__ = ("state", "counts", "_emit")

    def __init__(
        self,
        state: Any,
        emit: Callable[[Any], None],
        counts: WorkCounts,
    ) -> None:
        self.state = state
        self.counts = counts
        self._emit = emit

    def emit(self, value: Any) -> None:
        """Produce one element on the operator's output stream."""
        self._emit(value)

    def count(
        self,
        int_ops: float = 0.0,
        float_ops: float = 0.0,
        trans_ops: float = 0.0,
        mem_ops: float = 0.0,
        loop_iterations: float = 0.0,
    ) -> None:
        """Report primitive work performed while processing this element."""
        self.counts.add(int_ops=int_ops, float_ops=float_ops,
                        trans_ops=trans_ops, mem_ops=mem_ops,
                        loop_iterations=loop_iterations)


#: A work function: ``work(ctx, port, item)``.
WorkFunction = Callable[[OperatorContext, int, Any], None]

#: A batched work function: ``work_batch(ctx, port, values) -> outputs``.
#:
#: ``values`` is a *batch* — a sequence of stream elements indexed on its
#: first axis: a 1-D ndarray of n scalar elements, a 2-D ndarray of n
#: fixed-width block elements (columnar chunks), or a plain list.  The
#: function returns the output batch in the same convention (or ``None``
#: when nothing is emitted; ``ctx.emit`` may also be used and is merged
#: in front of the returned batch).  A batch implementation must report
#: *exactly* the same :class:`WorkCounts` as n scalar invocations and
#: leave the operator state as the same n scalar calls would — the
#: executor mixes scalar and batched dispatch freely over one state.
BatchWorkFunction = Callable[[OperatorContext, int, Any], Any]


@dataclass
class Operator:
    """One dataflow operator (a WaveScript ``iterate`` instance).

    Args:
        name: unique name within the graph.
        work: the work function, or ``None`` for pure sources.
        work_batch: optional vectorized form of ``work`` processing a whole
            batch of elements per call (see :data:`BatchWorkFunction`); the
            batched executor falls back to per-element ``work`` dispatch
            for operators without one.
        make_state: factory for private state; a non-``None`` factory marks
            the operator *stateful* (paper Section 2.1.1).
        namespace: logical Node{}/server placement.
        side_effects: ties the operator to hardware (sensors, LEDs, files);
            side-effecting operators are always pinned to their namespace.
        is_source: produces elements spontaneously (sampling hardware).
        is_sink: consumes the program's output on the server.
        output_size: fixed serialized size in bytes of each output element,
            or ``None`` to measure sizes from actual values during profiling.
        loss_tolerant: stateful operators explicitly engineered to tolerate
            missing input (paper Section 2.1.1 discussion).
        aggregate: a cross-node "reduce" operator (paper Section 9): when
            placed on the node it implicitly merges its stream with the
            same stream from child nodes in the aggregation tree, so the
            traffic it emits crosses the root link once instead of once
            per node.
    """

    name: str
    work: WorkFunction | None = None
    make_state: Callable[[], Any] | None = None
    namespace: Namespace = Namespace.SERVER
    side_effects: bool = False
    is_source: bool = False
    is_sink: bool = False
    output_size: int | None = None
    loss_tolerant: bool = False
    aggregate: bool = False
    work_batch: "BatchWorkFunction | None" = None

    @property
    def stateful(self) -> bool:
        return self.make_state is not None

    def new_state(self) -> Any:
        return self.make_state() if self.make_state is not None else None

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tags = [self.namespace.value]
        if self.stateful:
            tags.append("stateful")
        if self.side_effects:
            tags.append("effects")
        if self.is_source:
            tags.append("source")
        if self.is_sink:
            tags.append("sink")
        return f"Operator({self.name!r}, {'/'.join(tags)})"


@dataclass(frozen=True)
class Edge:
    """A stream from ``src``'s output to input port ``dst_port`` of ``dst``."""

    src: str
    dst: str
    dst_port: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Edge({self.src} -> {self.dst}:{self.dst_port})"


class GraphError(Exception):
    """Raised for structurally invalid stream graphs."""


class StreamGraph:
    """A DAG of stream operators with single-output, multi-input edges."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.operators: dict[str, Operator] = {}
        self.edges: list[Edge] = []
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        # Structural fingerprint, kept by
        # repro.workbench.artifacts.graph_fingerprint; every structural
        # change below clears it.
        self._fingerprint: str | None = None

    # -- construction -------------------------------------------------------

    def add_operator(self, op: Operator) -> Operator:
        if op.name in self.operators:
            raise GraphError(f"duplicate operator name: {op.name!r}")
        self.operators[op.name] = op
        self._out[op.name] = []
        self._in[op.name] = []
        self._fingerprint = None
        return op

    def add_edge(self, src: str, dst: str, dst_port: int = 0) -> Edge:
        if src not in self.operators:
            raise GraphError(f"unknown source operator: {src!r}")
        if dst not in self.operators:
            raise GraphError(f"unknown destination operator: {dst!r}")
        if self.operators[dst].is_source:
            raise GraphError(f"cannot feed a source operator: {dst!r}")
        edge = Edge(src=src, dst=dst, dst_port=dst_port)
        # A duplicate shares ``src``, so its out-list is the only place
        # it can be: O(out-degree) instead of a scan of every edge.
        if edge in self._out[src]:
            raise GraphError(f"duplicate edge: {edge!r}")
        self.edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._fingerprint = None
        return edge

    # -- topology -------------------------------------------------------------

    def out_edges(self, name: str) -> list[Edge]:
        return list(self._out[name])

    def in_edges(self, name: str) -> list[Edge]:
        return list(self._in[name])

    def successors(self, name: str) -> list[str]:
        return [e.dst for e in self._out[name]]

    def predecessors(self, name: str) -> list[str]:
        return [e.src for e in self._in[name]]

    @property
    def sources(self) -> list[str]:
        return [n for n, op in self.operators.items() if op.is_source]

    @property
    def sinks(self) -> list[str]:
        return [n for n, op in self.operators.items() if op.is_sink]

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles."""
        indegree = {name: len(self._in[name]) for name in self.operators}
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[str] = []
        # Pop lowest-name first for deterministic ordering.
        import heapq

        heapq.heapify(ready)
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for edge in self._out[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    heapq.heappush(ready, edge.dst)
        if len(order) != len(self.operators):
            raise GraphError("stream graph contains a cycle")
        return order

    def descendants(self, name: str) -> set[str]:
        """All operators reachable downstream of ``name`` (exclusive)."""
        seen: set[str] = set()
        stack = [e.dst for e in self._out[name]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(e.dst for e in self._out[cur])
        return seen

    def ancestors(self, name: str) -> set[str]:
        """All operators reachable upstream of ``name`` (exclusive)."""
        seen: set[str] = set()
        stack = [e.src for e in self._in[name]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(e.src for e in self._in[cur])
        return seen

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamGraph({self.name!r}, ops={len(self.operators)}, "
            f"edges={len(self.edges)})"
        )
