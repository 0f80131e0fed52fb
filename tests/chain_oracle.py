"""Optimal partitioning of linear pipelines in O(n), kept only as a
test oracle.

For a pure chain (like the speech detection pipeline, "a linear pipeline
of only a dozen operators", paper §7.2), every single-crossing partition
is a prefix cut; sweeping the cutpoints gives the optimum directly and
serves as an independent ground truth for the ILP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cut import PartitionError
from repro.core.problem import PartitionProblem
from repro.dataflow.graph import Pinning


@dataclass(frozen=True)
class CutpointEvaluation:
    """One prefix cut of a chain: operators [0..index] on the node."""

    index: int           # cut after chain[index]
    node_set: frozenset[str]
    cpu: float
    net: float
    objective: float
    feasible: bool


@dataclass
class ChainResult:
    chain: list[str]
    cutpoints: list[CutpointEvaluation]
    best: CutpointEvaluation | None


def chain_order(problem: PartitionProblem) -> list[str]:
    """The pipeline order of a chain-shaped problem; raises otherwise."""
    successors: dict[str, list[str]] = {v: [] for v in problem.vertices}
    indegree: dict[str, int] = {v: 0 for v in problem.vertices}
    for edge in problem.edges:
        successors[edge.src].append(edge.dst)
        indegree[edge.dst] += 1
    heads = [v for v in problem.vertices if indegree[v] == 0]
    if len(heads) != 1:
        raise PartitionError("not a chain: multiple heads")
    order = [heads[0]]
    while successors[order[-1]]:
        nexts = successors[order[-1]]
        if len(nexts) != 1 or indegree[nexts[0]] != 1:
            raise PartitionError("not a chain: branching detected")
        order.append(nexts[0])
    if len(order) != len(problem.vertices):
        raise PartitionError("not a chain: disconnected vertices")
    return order


def chain_partition(problem: PartitionProblem) -> ChainResult:
    """Evaluate every prefix cut of a chain and pick the feasible optimum."""
    order = chain_order(problem)
    bandwidth_after: dict[str, float] = {}
    for edge in problem.edges:
        bandwidth_after[edge.src] = edge.bandwidth

    # Pinning limits which prefixes are legal.
    min_cut_index = -1  # cut may not be before this index
    max_cut_index = len(order) - 1
    for i, name in enumerate(order):
        pin = problem.pins[name]
        if pin is Pinning.NODE:
            min_cut_index = max(min_cut_index, i)
        elif pin is Pinning.SERVER:
            max_cut_index = min(max_cut_index, i - 1)

    evaluations: list[CutpointEvaluation] = []
    best: CutpointEvaluation | None = None
    cpu = 0.0
    node_set: set[str] = set()
    for i, name in enumerate(order):
        if i > max_cut_index:
            break
        cpu += problem.cpu.get(name, 0.0)
        node_set.add(name)
        if i < min_cut_index:
            continue
        net = bandwidth_after.get(name, 0.0)
        objective = problem.alpha * cpu + problem.beta * net
        feasible = (
            cpu <= problem.cpu_budget + 1e-9
            and net <= problem.net_budget + 1e-9
        )
        evaluation = CutpointEvaluation(
            index=i,
            node_set=frozenset(node_set),
            cpu=cpu,
            net=net,
            objective=objective,
            feasible=feasible,
        )
        evaluations.append(evaluation)
        if feasible and (best is None or objective < best.objective - 1e-12):
            best = evaluation
    return ChainResult(chain=order, cutpoints=evaluations, best=best)
