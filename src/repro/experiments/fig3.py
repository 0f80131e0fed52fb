"""Figure 3: the motivating example.

"Vertices are labeled with CPU consumed, edges with bandwidth.  The
optimal mote partition is selected [...].  This partitioning can change
unpredictably, for example between a horizontal and vertical
partitioning, with only a small change in the CPU budget."

The figure's instance shows cut bandwidth 8 -> 6 -> 5 as the budget goes
2 -> 3 -> 4.  We reconstruct a two-branch DAG with that exact
progression: at budget 2 only one branch's first operator fits (a
"vertical" cut), at budget 3 both branches' heads fit (a "horizontal"
cut), at budget 4 one branch is taken two operators deep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataflow.graph import Pinning
from ..core.bruteforce import brute_force_partition
from ..core.ilp_restricted import build_restricted_ilp
from ..core.problem import PartitionProblem, WeightedEdge
from ..solver.branch_bound import BranchAndBound


def motivating_problem(cpu_budget: float) -> PartitionProblem:
    """The 6-operator instance (2 sources, 2 branches, 1 sink)."""
    return PartitionProblem(
        vertices=["s1", "s2", "a", "b", "c", "d", "t"],
        cpu={"s1": 0.0, "s2": 0.0, "a": 1.0, "b": 2.0, "c": 5.0, "d": 1.0,
             "t": 0.0},
        edges=[
            WeightedEdge("s1", "a", 6.0),
            WeightedEdge("a", "c", 4.0),
            WeightedEdge("c", "t", 2.0),
            WeightedEdge("s2", "b", 4.0),
            WeightedEdge("b", "d", 2.0),
            WeightedEdge("d", "t", 1.0),
        ],
        pins={
            "s1": Pinning.NODE,
            "s2": Pinning.NODE,
            "t": Pinning.SERVER,
        },
        cpu_budget=cpu_budget,
        net_budget=1e9,
        alpha=0.0,
        beta=1.0,
    )


@dataclass(frozen=True)
class Fig3Row:
    budget: float
    bandwidth: float
    node_operators: tuple[str, ...]
    matches_brute_force: bool


#: The paper's figure shows these cut bandwidths for budgets 2, 3, 4.
PAPER_BANDWIDTHS = {2.0: 8.0, 3.0: 6.0, 4.0: 5.0}


def run(budgets: tuple[float, ...] = (2.0, 3.0, 4.0)) -> list[Fig3Row]:
    """Solve the instance at each budget; cross-check with brute force."""
    rows: list[Fig3Row] = []
    for budget in budgets:
        problem = motivating_problem(budget)
        model = build_restricted_ilp(problem)
        solution = BranchAndBound().solve(model.program)
        node_set = model.node_set(solution.values)
        bandwidth = problem.net_load(node_set)
        brute = brute_force_partition(problem)
        rows.append(
            Fig3Row(
                budget=budget,
                bandwidth=bandwidth,
                node_operators=tuple(sorted(node_set - {"s1", "s2"})),
                matches_brute_force=abs(
                    brute.objective - solution.objective
                ) < 1e-9,
            )
        )
    return rows
