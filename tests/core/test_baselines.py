"""Chain DP, brute force guard rails, and the related-work baselines."""

import numpy as np
import pytest
from chain_oracle import chain_partition

from repro.core import (
    PartitionError,
    PartitionProblem,
    WeightedEdge,
    balanced_mincut_partition,
    brute_force_partition,
    build_restricted_ilp,
    greedy_prefix_partition,
    list_schedule_partition,
)
from repro.dataflow import Pinning
from repro.solver import BranchAndBound


def chain(n=6, seed=0, cpu_budget=None):
    rng = np.random.default_rng(seed)
    names = [f"op{i}" for i in range(n)]
    cpu = {name: float(rng.uniform(0.1, 1.0)) for name in names}
    cpu[names[0]] = 0.0
    bandwidths = sorted(
        (float(rng.uniform(1, 100)) for _ in range(n - 1)), reverse=True
    )
    edges = [
        WeightedEdge(names[i], names[i + 1], bandwidths[i])
        for i in range(n - 1)
    ]
    return PartitionProblem(
        vertices=names,
        cpu=cpu,
        edges=edges,
        pins={names[0]: Pinning.NODE, names[-1]: Pinning.SERVER},
        cpu_budget=cpu_budget
        if cpu_budget is not None
        else sum(cpu.values()) / 2,
        net_budget=1e9,
    )


@pytest.mark.parametrize("seed", range(6))
def test_chain_dp_matches_ilp(seed):
    problem = chain(seed=seed)
    result = chain_partition(problem)
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assert result.best is not None
    assert result.best.objective == pytest.approx(solution.objective, abs=1e-9)


def test_chain_dp_rejects_branching():
    problem = PartitionProblem(
        vertices=["s", "a", "b", "t"],
        cpu={"s": 0, "a": 1, "b": 1, "t": 0},
        edges=[
            WeightedEdge("s", "a", 10),
            WeightedEdge("s", "b", 10),
            WeightedEdge("a", "t", 1),
            WeightedEdge("b", "t", 1),
        ],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=1.0,
        net_budget=1e9,
    )
    with pytest.raises(PartitionError, match="chain"):
        chain_partition(problem)


def test_chain_dp_respects_pins():
    problem = chain(n=5, cpu_budget=100.0)
    problem.pins["op3"] = Pinning.SERVER
    result = chain_partition(problem)
    assert result.best is not None
    assert "op3" not in result.best.node_set
    assert "op4" not in result.best.node_set


def test_chain_evaluations_are_prefixes():
    problem = chain(n=5)
    result = chain_partition(problem)
    for evaluation in result.cutpoints:
        expected = set(result.chain[: evaluation.index + 1])
        assert set(evaluation.node_set) == expected


def test_brute_force_guard():
    names = [f"v{i}" for i in range(30)]
    problem = PartitionProblem(
        vertices=names,
        cpu={n: 0.1 for n in names},
        edges=[WeightedEdge(names[i], names[i + 1], 1.0) for i in range(29)],
        pins={},
        cpu_budget=100.0,
        net_budget=1e9,
    )
    with pytest.raises(PartitionError, match="brute force"):
        brute_force_partition(problem)


def test_greedy_prefix_never_beats_optimal():
    for seed in range(5):
        problem = chain(seed=seed)
        greedy = greedy_prefix_partition(problem)
        brute = brute_force_partition(problem)
        if greedy.feasible and brute.feasible:
            assert greedy.objective >= brute.objective - 1e-9


def test_greedy_prefix_exact_on_chains():
    problem = chain(seed=2)
    greedy = greedy_prefix_partition(problem)
    brute = brute_force_partition(problem)
    assert greedy.objective == pytest.approx(brute.objective)


def test_balanced_mincut_ignores_asymmetric_budget():
    """The §4 claim: balanced tools blow the embedded CPU budget."""
    # Heavy processing chain: a balanced split puts ~half the CPU on the
    # node, but the budget only allows the first (cheap) operator.
    names = ["s", "cheap", "heavy1", "heavy2", "heavy3", "t"]
    problem = PartitionProblem(
        vertices=names,
        cpu={"s": 0.0, "cheap": 0.1, "heavy1": 5.0, "heavy2": 5.0,
             "heavy3": 5.0, "t": 0.0},
        edges=[
            WeightedEdge("s", "cheap", 100.0),
            WeightedEdge("cheap", "heavy1", 10.0),
            WeightedEdge("heavy1", "heavy2", 8.0),
            WeightedEdge("heavy2", "heavy3", 6.0),
            WeightedEdge("heavy3", "t", 4.0),
        ],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=0.5,
        net_budget=1e9,
    )
    balanced = balanced_mincut_partition(problem)
    assert not balanced.feasible, "balanced bisection must bust the budget"
    optimal = brute_force_partition(problem)
    assert optimal.feasible


def test_list_schedule_produces_assignment():
    problem = chain(seed=4)
    result = list_schedule_partition(problem)
    assert result.node_set >= problem.node_pinned()
    assert not (result.node_set & problem.server_pinned())


def test_list_schedule_can_violate_single_crossing():
    """Schedule-length optimization doesn't respect streaming structure;
    we only require the evaluation to report it honestly."""
    problem = chain(seed=5)
    result = list_schedule_partition(problem)
    assert isinstance(result.single_crossing, bool)
