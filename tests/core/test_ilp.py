"""Both ILP formulations against brute force and each other."""

import numpy as np
import pytest

from repro.core import (
    PartitionProblem,
    WeightedEdge,
    brute_force_partition,
    build_general_ilp,
    build_restricted_ilp,
)
from repro.dataflow import Pinning
from repro.solver import BranchAndBound, SolveStatus


def random_problem(seed, n=9, cpu_budget_frac=0.5):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(max(0, i - 3), i))
        edges.append(
            WeightedEdge(names[parent], names[i], float(rng.uniform(1, 100)))
        )
        if rng.random() < 0.3 and i >= 2:
            other = int(rng.integers(0, i - 1))
            if other != parent:
                edges.append(
                    WeightedEdge(names[other], names[i],
                                 float(rng.uniform(1, 100)))
                )
    cpu = {name: float(rng.uniform(0.1, 1.0)) for name in names}
    return PartitionProblem(
        vertices=names,
        cpu=cpu,
        edges=edges,
        pins={names[0]: Pinning.NODE, names[-1]: Pinning.SERVER},
        cpu_budget=sum(cpu.values()) * cpu_budget_frac,
        net_budget=1e9,
        alpha=0.0,
        beta=1.0,
    )


@pytest.mark.parametrize("seed", range(12))
def test_restricted_ilp_matches_brute_force(seed):
    problem = random_problem(seed)
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    brute = brute_force_partition(problem, single_crossing=True)
    assert solution.status is SolveStatus.OPTIMAL
    assert brute.feasible
    assert solution.objective == pytest.approx(brute.objective, abs=1e-6)
    node_set = model.node_set(solution.values)
    assert problem.is_feasible(node_set)
    assert problem.respects_precedence(node_set)


@pytest.mark.parametrize("seed", range(8))
def test_general_ilp_matches_brute_force_without_crossing_limit(seed):
    problem = random_problem(seed, n=8)
    model = build_general_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    brute = brute_force_partition(problem, single_crossing=False)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(brute.objective, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_general_never_worse_than_restricted(seed):
    problem = random_problem(seed, n=8)
    restricted = BranchAndBound().solve(build_restricted_ilp(problem).program)
    general = BranchAndBound().solve(build_general_ilp(problem).program)
    assert general.objective <= restricted.objective + 1e-6


def test_general_beats_restricted_on_merge_case():
    """§4.2.1: a high-bandwidth stream merged with a heavily-processed
    one — the merge must stay on the node, but the expensive processing
    belongs on the server, which needs two crossings."""
    problem = PartitionProblem(
        vertices=["hi", "lo", "work", "merge", "t"],
        cpu={"hi": 0.0, "lo": 0.0, "work": 5.0, "merge": 0.1, "t": 0.0},
        edges=[
            WeightedEdge("hi", "merge", 1000.0),   # huge raw stream
            WeightedEdge("lo", "work", 1.0),       # tiny stream ...
            WeightedEdge("work", "merge", 1.0),    # ... heavy processing
            WeightedEdge("merge", "t", 5.0),
        ],
        pins={"hi": Pinning.NODE, "lo": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=1.0,  # "work" cannot run on the node
        net_budget=1e9,
        alpha=0.0,
        beta=1.0,
    )
    restricted = BranchAndBound().solve(build_restricted_ilp(problem).program)
    general_model = build_general_ilp(problem)
    general = BranchAndBound().solve(general_model.program)
    # Restricted must ship the huge stream (cut before merge);
    # general routes only the tiny stream back and forth.
    assert restricted.objective >= 1000.0
    assert general.objective < 100.0
    node_set = general_model.node_set(general.values)
    assert "merge" in node_set and "work" not in node_set


def test_pins_respected_in_both_formulations():
    problem = random_problem(3)
    for build in (build_restricted_ilp, build_general_ilp):
        model = build(problem)
        solution = BranchAndBound().solve(model.program)
        node_set = model.node_set(solution.values)
        assert "v0" in node_set
        assert f"v{len(problem.vertices) - 1}" not in node_set


def test_infeasible_when_budget_below_pinned_cost():
    problem = PartitionProblem(
        vertices=["s", "t"],
        cpu={"s": 2.0, "t": 0.0},
        edges=[WeightedEdge("s", "t", 10.0)],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=1.0,  # source alone exceeds the budget
        net_budget=1e9,
    )
    solution = BranchAndBound().solve(build_restricted_ilp(problem).program)
    assert solution.status is SolveStatus.INFEASIBLE


def test_net_budget_binds():
    problem = PartitionProblem(
        vertices=["s", "a", "t"],
        cpu={"s": 0.0, "a": 1.0, "t": 0.0},
        edges=[WeightedEdge("s", "a", 100.0), WeightedEdge("a", "t", 60.0)],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=10.0,
        net_budget=70.0,  # cutting at the source (100) is out of budget
        alpha=1.0,
        beta=0.0,  # objective prefers an empty node partition ...
    )
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    node_set = model.node_set(solution.values)
    # ... but the net budget forces "a" onto the node.
    assert "a" in node_set


def test_alpha_weights_cpu_in_objective():
    problem = PartitionProblem(
        vertices=["s", "a", "t"],
        cpu={"s": 0.0, "a": 1.0, "t": 0.0},
        edges=[WeightedEdge("s", "a", 10.0), WeightedEdge("a", "t", 9.0)],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=10.0,
        net_budget=1e9,
        alpha=5.0,  # CPU is expensive: not worth saving 1 B/s
        beta=1.0,
    )
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assert "a" not in model.node_set(solution.values)


def test_general_cut_bandwidth_decode():
    problem = random_problem(1, n=6)
    model = build_general_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    node_set = model.node_set(solution.values)
    assert model.cut_bandwidth(solution.values) == pytest.approx(
        problem.net_load(node_set), abs=1e-6
    )
