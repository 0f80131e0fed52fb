"""Branch and bound against known MILPs and scipy's HiGHS."""

import numpy as np
import pytest
from milp_oracle import proven

from repro.solver import BranchAndBound, LinearProgram, SolveStatus


def knapsack(values, weights, capacity):
    lp = LinearProgram()
    items = [
        lp.add_binary(f"x{i}", objective=-float(v))
        for i, v in enumerate(values)
    ]
    lp.add_constraint(
        {items[i]: float(w) for i, w in enumerate(weights)}, "<=", capacity
    )
    return lp


def test_small_knapsack():
    lp = knapsack([5, 4, 3], [2, 3, 1], 5)
    solution = BranchAndBound().solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-9.0)


def test_pure_lp_passthrough():
    lp = LinearProgram()
    x = lp.add_variable("x", ub=2.5, objective=-1.0)
    lp.add_constraint({x: 1.0}, "<=", 2.0)
    solution = BranchAndBound().solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-2.0)


def test_integer_rounding_not_enough():
    # LP optimum x = 1.5; integer optimum x = 1.
    lp = LinearProgram()
    x = lp.add_variable("x", ub=10.0, integer=True, objective=-1.0)
    lp.add_constraint({x: 2.0}, "<=", 3.0)
    solution = BranchAndBound().solve(lp)
    assert solution.objective == pytest.approx(-1.0)
    assert solution.values["x"] == pytest.approx(1.0)


def test_infeasible_milp():
    lp = LinearProgram()
    x = lp.add_binary("x", objective=1.0)
    lp.add_constraint({x: 1.0}, ">=", 2.0)
    assert BranchAndBound().solve(lp).status is SolveStatus.INFEASIBLE


def test_incumbent_history_monotone():
    rng = np.random.default_rng(5)
    lp = knapsack(
        rng.integers(1, 30, size=14).tolist(),
        rng.integers(1, 12, size=14).tolist(),
        30,
    )
    solution = BranchAndBound().solve(lp)
    objectives = [event.objective for event in solution.incumbents]
    assert objectives == sorted(objectives, reverse=True)
    assert solution.discover_elapsed <= solution.prove_elapsed + 1e-9


def test_node_limit_degrades_gracefully():
    rng = np.random.default_rng(11)
    lp = knapsack(
        rng.integers(1, 50, size=18).tolist(),
        rng.integers(1, 20, size=18).tolist(),
        60,
    )
    limited = BranchAndBound(node_limit=1).solve(lp)
    # With a single node we may only have the root heuristic; either a
    # feasible incumbent or a limit report is acceptable — never a crash.
    assert limited.status in (
        SolveStatus.OPTIMAL,
        SolveStatus.FEASIBLE,
        SolveStatus.LIMIT,
    )


@pytest.mark.parametrize("seed", range(6))
def test_random_knapsacks_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 12
    lp = knapsack(
        rng.integers(1, 40, size=n).tolist(),
        rng.integers(1, 15, size=n).tolist(),
        int(rng.integers(10, 50)),
    )
    ours = BranchAndBound().solve(lp)
    reference = proven(lp)
    assert reference.status is SolveStatus.OPTIMAL
    assert ours.status is SolveStatus.OPTIMAL
    assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_random_mixed_integer_match_scipy(seed):
    rng = np.random.default_rng(100 + seed)
    lp = LinearProgram()
    variables = []
    for i in range(8):
        variables.append(
            lp.add_variable(
                f"v{i}",
                ub=float(rng.uniform(1, 4)),
                integer=bool(i % 2),
                objective=float(rng.normal()),
            )
        )
    for _ in range(5):
        terms = {v: float(rng.uniform(-1, 2)) for v in variables}
        lp.add_constraint(terms, "<=", float(rng.uniform(2, 6)))
    ours = BranchAndBound().solve(lp)
    reference = proven(lp)
    assert ours.status == reference.status
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.objective, abs=1e-5)


def test_gap_property():
    lp = knapsack([5, 4, 3], [2, 3, 1], 5)
    solution = BranchAndBound().solve(lp)
    assert solution.gap == pytest.approx(0.0, abs=1e-6)
    assert bool(solution)


def test_fractionality_picks_most_fractional():
    """Regression for the dead-store bug in the pre-vectorized loop.

    The branching rule is "most fractional": the variable whose fractional
    part is closest to 0.5.  The original implementation computed one
    distance metric, immediately overwrote it with another, and left the
    ``frac > 0.5`` branch dead; this pins the intended behaviour.
    """
    x = np.array([1.0, 2.3, 0.5, 3.9, 0.0])
    int_indices = np.arange(5)
    idx, score = BranchAndBound._fractionality(x, int_indices)
    assert idx == 2  # 0.5 is exactly half-integral, the most fractional
    assert score == pytest.approx(0.5)

    # Fractions above one half must be ranked by distance to 0.5 as well:
    # 0.9 (distance 0.4) loses to 0.4 (distance 0.1).
    x = np.array([0.9, 1.4])
    idx, score = BranchAndBound._fractionality(x, np.arange(2))
    assert idx == 1
    assert score == pytest.approx(0.4)


def test_fractionality_skips_integral_points():
    x = np.array([1.0, 2.0, 3.0])
    idx, score = BranchAndBound._fractionality(x, np.arange(3))
    assert idx == -1
    assert score == 0.0
    idx, _ = BranchAndBound._fractionality(x, np.array([], dtype=int))
    assert idx == -1


def test_solution_carries_raw_vector():
    lp = knapsack([5, 4, 3], [2, 3, 1], 5)
    solution = BranchAndBound().solve(lp)
    assert solution.x is not None
    assert solution.names == ["x0", "x1", "x2"]
    # The lazy dict view agrees with the vector.
    assert solution.values == {
        name: pytest.approx(v)
        for name, v in zip(solution.names, solution.x)
    }


def test_engine_limit_subtree_not_claimed_optimal():
    """A relaxation hitting the LP engine's own limit is an *unresolved*
    subtree: the solve must not prune it and still report OPTIMAL."""
    lp = knapsack([5, 4, 3], [2, 3, 1], 5)

    class Limited(BranchAndBound):
        def _make_relaxation_solver(self, arrays, shared=None):
            inner = super()._make_relaxation_solver(arrays, shared)
            calls = {"n": 0}

            def solver(lb, ub):
                calls["n"] += 1
                if calls["n"] > 1:  # every non-root relaxation "times out"
                    from repro.solver.solution import Solution

                    return Solution(status=SolveStatus.LIMIT)
                return inner(lb, ub)

            return solver

    solution = Limited(reduced_cost_fixing=False).solve(lp)
    # The root rounding heuristic may find an incumbent, but with every
    # subtree unresolved the solver must not claim proven optimality.
    assert solution.status is not SolveStatus.OPTIMAL


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dive": False},
        {"reduced_cost_fixing": False},
        {"warm_start": False},
    ],
)
def test_knobs_preserve_optimum(kwargs):
    rng = np.random.default_rng(21)
    lp = knapsack(
        rng.integers(1, 30, size=12).tolist(),
        rng.integers(1, 12, size=12).tolist(),
        25,
    )
    reference = proven(lp)
    assert reference.status is SolveStatus.OPTIMAL
    solution = BranchAndBound(**kwargs).solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(reference.objective, abs=1e-6)
