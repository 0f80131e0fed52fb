"""Three-tier partitioning (§9 extension) against brute force."""

import numpy as np
import pytest
from three_tier_oracle import brute_force_three_tier

from repro.core import WeightedEdge
from repro.core.three_tier import (
    Tier,
    ThreeTierProblem,
    build_three_tier_ilp,
)
from repro.solver import BranchAndBound, SolveStatus


def random_problem(seed, n=7):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    edges = []
    bandwidth = 200.0
    for i in range(1, n):
        parent = int(rng.integers(max(0, i - 2), i))
        bandwidth *= float(rng.uniform(0.5, 1.1))
        edges.append(WeightedEdge(names[parent], names[i], bandwidth))
    mote_cpu = {v: float(rng.uniform(0.05, 0.4)) for v in names}
    # The microserver is ~15x faster.
    micro_cpu = {v: c / 15.0 for v, c in mote_cpu.items()}
    return ThreeTierProblem(
        vertices=names,
        mote_cpu=mote_cpu,
        micro_cpu=micro_cpu,
        edges=edges,
        pins={names[0]: Tier.MOTE, names[-1]: Tier.SERVER},
        mote_cpu_budget=sum(mote_cpu.values()) * 0.4,
        micro_cpu_budget=sum(micro_cpu.values()) * 0.6,
        mote_net_budget=1e9,
        micro_net_budget=1e9,
        alphas=(0.0, 0.0),
        betas=(1.0, 0.2),
    )


@pytest.mark.parametrize("seed", range(8))
def test_ilp_matches_brute_force(seed):
    problem = random_problem(seed)
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    best, best_objective = brute_force_three_tier(problem)
    assert best is not None
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(best_objective, abs=1e-6)
    assignment = model.assignment(solution.values)
    assert problem.is_feasible(assignment)
    assert problem.objective(assignment) == pytest.approx(
        solution.objective, abs=1e-6
    )


def test_pins_respected():
    problem = random_problem(1)
    problem.pins["v3"] = Tier.MICRO
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assignment = model.assignment(solution.values)
    assert assignment["v0"] is Tier.MOTE
    assert assignment["v3"] is Tier.MICRO
    assert assignment["v6"] is Tier.SERVER


def test_downward_flow_enforced():
    problem = random_problem(2)
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assignment = model.assignment(solution.values)
    level = {Tier.MOTE: 2, Tier.MICRO: 1, Tier.SERVER: 0}
    for edge in problem.edges:
        assert level[assignment[edge.src]] >= level[assignment[edge.dst]]


def test_tight_mote_budget_pushes_work_down():
    problem = random_problem(3)
    problem.mote_cpu_budget = min(problem.mote_cpu.values()) * 1.01
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assignment = model.assignment(solution.values)
    motes = [v for v, t in assignment.items() if t is Tier.MOTE]
    assert len(motes) <= 2


def test_infeasible_when_pinned_mote_exceeds_budget():
    problem = random_problem(4)
    problem.mote_cpu_budget = problem.mote_cpu["v0"] / 2.0
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assert solution.status is SolveStatus.INFEASIBLE


def test_cheap_backhaul_prefers_micro_over_server_shipping():
    """With the backhaul nearly free and a strong microserver, the float
    heavy middle should land on the micro tier, not cross the mote radio."""
    problem = ThreeTierProblem(
        vertices=["src", "heavy", "sink"],
        mote_cpu={"src": 0.1, "heavy": 10.0, "sink": 0.0},
        micro_cpu={"src": 0.01, "heavy": 0.5, "sink": 0.0},
        edges=[
            WeightedEdge("src", "heavy", 100.0),
            WeightedEdge("heavy", "sink", 5.0),
        ],
        pins={"src": Tier.MOTE, "sink": Tier.SERVER},
        mote_cpu_budget=1.0,
        micro_cpu_budget=1.0,
        mote_net_budget=1e9,
        micro_net_budget=1e9,
        alphas=(0.0, 0.0),
        betas=(1.0, 0.01),
    )
    model = build_three_tier_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    assignment = model.assignment(solution.values)
    assert assignment["heavy"] is Tier.MICRO


def test_unknown_vertex_rejected():
    from repro.core import PartitionError

    with pytest.raises(PartitionError):
        ThreeTierProblem(
            vertices=["a"],
            mote_cpu={"a": 1.0},
            micro_cpu={"a": 0.1},
            edges=[WeightedEdge("a", "zzz", 1.0)],
        )


def test_brute_force_guard():
    from repro.core import PartitionError

    problem = random_problem(0, n=13)
    with pytest.raises(PartitionError, match="12"):
        brute_force_three_tier(problem)
