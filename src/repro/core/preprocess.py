"""Graph preprocessing: merge non-data-reducing operators (paper §4.1).

"Consider an operator u that feeds another operator v such that the
bandwidth from v is the same or higher than the bandwidth on the output
stream from u.  A partition with a cut-point on v's output stream can
always be improved by moving the cut-point to the stream u -> v [...]
Thus, any operator that is data-expanding or data-neutral may be merged
with its downstream operator(s), reducing the search space without
eliminating optimal solutions."

We contract a vertex ``v`` into its downstream neighbour when:

* ``v`` is not pinned to the node (moving the cut upstream of ``v``
  requires ``v`` to be able to live on the server), and not a source;
* ``v`` has exactly one outgoing (aggregated) edge;
* the bandwidth of that out-edge is >= the total bandwidth into ``v``.

The contraction is iterated to a fixed point.  The resulting clustered
problem is solved by the ILP and the solution expanded back to original
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataflow.graph import Pinning
from .cut import InfeasiblePartition
from .problem import PartitionProblem, WeightedEdge


@dataclass
class ReducedProblem:
    """A clustered problem plus the recipe to expand solutions."""

    problem: PartitionProblem
    #: cluster name -> original vertex names
    members: dict[str, tuple[str, ...]]
    #: original vertex name -> cluster name
    cluster_of: dict[str, str]

    def expand(self, cluster_node_set: set[str]) -> set[str]:
        """Map a cluster-level assignment back to original vertices."""
        node_set: set[str] = set()
        for cluster in cluster_node_set:
            node_set.update(self.members[cluster])
        return node_set


def _combine_pins(a: Pinning, b: Pinning) -> Pinning:
    if a is b:
        return a
    if a is Pinning.MOVABLE:
        return b
    if b is Pinning.MOVABLE:
        return a
    raise InfeasiblePartition(
        "preprocessing tried to merge a node-pinned operator with a "
        "server-pinned one; no single-crossing partition exists"
    )


def preprocess(problem: PartitionProblem) -> ReducedProblem:
    """Contract non-data-reducing vertices downstream, to a fixed point."""
    # Union-find over vertices; cluster representative carries the data.
    parent: dict[str, str] = {v: v for v in problem.vertices}

    def find(v: str) -> str:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    cpu = dict(problem.cpu)
    pins = dict(problem.pins)

    def cluster_edges() -> dict[tuple[str, str], float]:
        aggregated: dict[tuple[str, str], float] = {}
        for edge in problem.edges:
            a, b = find(edge.src), find(edge.dst)
            if a == b:
                continue
            aggregated[(a, b)] = aggregated.get((a, b), 0.0) + edge.bandwidth
        return aggregated

    changed = True
    while changed:
        changed = False
        edges = cluster_edges()
        out_edges: dict[str, list[tuple[str, float]]] = {}
        in_bw: dict[str, float] = {}
        for (a, b), bandwidth in edges.items():
            out_edges.setdefault(a, []).append((b, bandwidth))
            in_bw[b] = in_bw.get(b, 0.0) + bandwidth

        roots = {find(v) for v in problem.vertices}
        for v in sorted(roots):
            if pins[v] is Pinning.NODE:
                continue  # cannot move to the server; cut after v is real
            fan_out = out_edges.get(v, [])
            if len(fan_out) != 1:
                continue
            total_in = in_bw.get(v, 0.0)
            if total_in <= 0.0:
                continue  # sources / detached heads keep their own cut
            (w, out_bandwidth) = fan_out[0]
            if out_bandwidth < total_in:
                continue  # genuinely data-reducing: a viable cut-point
            try:
                merged_pin = _combine_pins(pins[v], pins[w])
            except InfeasiblePartition:
                continue  # a forced cut lives between v and w; keep both
            # Contract v into w.
            parent[v] = w
            cpu[w] = cpu.get(w, 0.0) + cpu.get(v, 0.0)
            pins[w] = merged_pin
            changed = True
            break  # edge aggregation is stale; recompute

    # Build the reduced problem.
    members: dict[str, list[str]] = {}
    for v in problem.vertices:
        members.setdefault(find(v), []).append(v)
    cluster_names = sorted(members)
    reduced_edges = [
        WeightedEdge(a, b, bandwidth)
        for (a, b), bandwidth in sorted(cluster_edges().items())
    ]
    reduced = PartitionProblem(
        vertices=cluster_names,
        cpu={c: cpu.get(c, 0.0) for c in cluster_names},
        edges=reduced_edges,
        pins={c: pins[c] for c in cluster_names},
        cpu_budget=problem.cpu_budget,
        net_budget=problem.net_budget,
        alpha=problem.alpha,
        beta=problem.beta,
    )
    return ReducedProblem(
        problem=reduced,
        members={c: tuple(ms) for c, ms in members.items()},
        cluster_of={v: find(v) for v in problem.vertices},
    )
