"""LP relaxation semantics: HiGHS (simplex) solves against known LPs.

:func:`solve_lp_scipy` is branch and bound's cold per-node LP; the
persistent :class:`~repro.solver.scipy_backend.HighsRelaxation` is its
warm one, and the two must agree.
"""

import numpy as np
import pytest

from repro.solver import LinearProgram, SolveStatus, solve_lp_scipy
from repro.solver.scipy_backend import make_highs_relaxation


def test_simple_maximization():
    # max x + 2y st x+y<=4, x<=2, y<=3  (minimize the negation)
    lp = LinearProgram()
    x = lp.add_variable("x", ub=2.0, objective=-1.0)
    y = lp.add_variable("y", ub=3.0, objective=-2.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0)
    solution = solve_lp_scipy(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-7.0)
    assert solution.values["x"] == pytest.approx(1.0)
    assert solution.values["y"] == pytest.approx(3.0)


def test_equality_constraints():
    lp = LinearProgram()
    x = lp.add_variable("x", objective=1.0)
    y = lp.add_variable("y", objective=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 5.0)
    lp.add_constraint({x: 1.0, y: -1.0}, "=", 1.0)
    solution = solve_lp_scipy(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.values["x"] == pytest.approx(3.0)
    assert solution.values["y"] == pytest.approx(2.0)


def test_infeasible_detected():
    lp = LinearProgram()
    x = lp.add_variable("x", ub=1.0, objective=1.0)
    lp.add_constraint({x: 1.0}, ">=", 2.0)
    assert solve_lp_scipy(lp).status is SolveStatus.INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.add_variable("x", objective=-1.0)
    lp.add_constraint({x: 1.0}, ">=", 0.0)
    assert solve_lp_scipy(lp).status is SolveStatus.UNBOUNDED


def test_free_variable():
    lp = LinearProgram()
    x = lp.add_variable("x", lb=-float("inf"), objective=1.0)
    lp.add_constraint({x: 1.0}, ">=", -7.5)
    solution = solve_lp_scipy(lp)
    assert solution.objective == pytest.approx(-7.5)


def test_negative_lower_bound():
    lp = LinearProgram()
    x = lp.add_variable("x", lb=-3.0, ub=3.0, objective=1.0)
    solution = solve_lp_scipy(lp)
    assert solution.objective == pytest.approx(-3.0)


def test_shifted_bounds():
    # min x st x >= 2.5, x <= 10 with lb=2
    lp = LinearProgram()
    x = lp.add_variable("x", lb=2.0, ub=10.0, objective=1.0)
    lp.add_constraint({x: 1.0}, ">=", 2.5)
    assert solve_lp_scipy(lp).objective == pytest.approx(2.5)


def test_no_constraints_bounded_optimum():
    lp = LinearProgram()
    lp.add_variable("x", lb=1.0, ub=4.0, objective=1.0)
    # With no rows the standard form optimum leaves x at its lower bound.
    solution = solve_lp_scipy(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(1.0)


def test_degenerate_ties_terminate():
    # Multiple constraints intersecting at the optimum (degeneracy);
    # the solve must still terminate at the optimum.
    lp = LinearProgram()
    x = lp.add_variable("x", objective=-1.0)
    y = lp.add_variable("y", objective=-1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0)
    lp.add_constraint({x: 1.0}, "<=", 1.0)
    lp.add_constraint({y: 1.0}, "<=", 1.0)
    lp.add_constraint({x: 2.0, y: 2.0}, "<=", 4.0)
    solution = solve_lp_scipy(lp)
    assert solution.objective == pytest.approx(-2.0)


@pytest.mark.parametrize("seed", range(8))
def test_random_agreement_with_scipy(seed):
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    variables = [
        lp.add_variable(
            f"v{i}",
            lb=0.0,
            ub=float(rng.uniform(0.5, 4.0)),
            objective=float(rng.normal()),
        )
        for i in range(7)
    ]
    for _ in range(5):
        terms = {v: float(rng.normal()) for v in variables}
        lp.add_constraint(terms, "<=", float(rng.uniform(0.5, 4.0)))
    arrays = lp.to_arrays()
    engine = make_highs_relaxation(arrays)
    assert engine is not None, "scipy HiGHS bindings should be available"
    persistent = engine.solve()
    reference = solve_lp_scipy(lp)
    assert persistent.status == reference.status
    if persistent.status is SolveStatus.OPTIMAL:
        assert persistent.objective == pytest.approx(
            reference.objective, abs=1e-6
        )


def test_solution_is_feasible_vertex():
    lp = LinearProgram()
    x = lp.add_variable("x", ub=5.0, objective=-3.0)
    y = lp.add_variable("y", ub=5.0, objective=-2.0)
    lp.add_constraint({x: 2.0, y: 1.0}, "<=", 8.0)
    lp.add_constraint({x: 1.0, y: 3.0}, "<=", 9.0)
    solution = solve_lp_scipy(lp)
    assert lp.is_feasible(solution.values)

