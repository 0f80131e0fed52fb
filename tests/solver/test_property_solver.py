"""Property-based tests of the solver stack (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from milp_oracle import proven

from repro.solver import (
    BranchAndBound,
    LinearProgram,
    SolveStatus,
    solve_lp_scipy,
)


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    variables = [
        lp.add_variable(
            f"v{i}",
            lb=0.0,
            ub=float(rng.uniform(0.1, 5.0)),
            objective=float(rng.normal()),
        )
        for i in range(n)
    ]
    for _ in range(m):
        terms = {v: float(rng.normal()) for v in variables}
        lp.add_constraint(terms, "<=", float(rng.uniform(-1.0, 5.0)))
    return lp


@st.composite
def random_binary_program(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    variables = [
        lp.add_binary(f"b{i}", objective=float(rng.normal()))
        for i in range(n)
    ]
    for _ in range(m):
        terms = {v: float(rng.uniform(0.0, 3.0)) for v in variables}
        lp.add_constraint(terms, "<=", float(rng.uniform(0.5, 6.0)))
    return lp


@given(random_binary_program())
@settings(max_examples=25, deadline=None)
def test_branch_bound_agrees_with_highs(lp):
    ours = BranchAndBound().solve(lp)
    reference = proven(lp)
    # All-zero is always feasible for these instances.
    assert ours.status is SolveStatus.OPTIMAL
    assert reference.status is SolveStatus.OPTIMAL
    assert abs(ours.objective - reference.objective) <= 1e-6 * max(
        1.0, abs(reference.objective)
    )


@given(random_binary_program())
@settings(max_examples=25, deadline=None)
def test_branch_bound_solutions_are_integral_and_feasible(lp):
    solution = BranchAndBound().solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    for variable in lp.variables:
        value = solution.values[variable.name]
        if variable.integer:
            assert abs(value - round(value)) < 1e-6
    assert lp.is_feasible(solution.values, tol=1e-6)


@given(random_lp())
@settings(max_examples=30, deadline=None)
def test_lp_bound_no_worse_than_integer_optimum(lp):
    """The LP relaxation is a valid lower bound for any integerized copy."""
    relaxed = solve_lp_scipy(lp)
    if relaxed.status is not SolveStatus.OPTIMAL:
        return
    # Rebuild the same program with all variables integral.
    integral = LinearProgram()
    for variable in lp.variables:
        ub = min(variable.ub, 50.0)
        integral.add_variable(
            variable.name,
            lb=variable.lb,
            ub=ub,
            integer=True,
            objective=0.0,
        )
    for index, coefficient in lp._objective.items():
        integral.set_objective_coefficient(
            integral.variables[index], coefficient
        )
    for constraint in lp.constraints:
        integral.add_constraint(
            {
                integral.variables[idx]: coefficient
                for idx, coefficient in constraint.coeffs
            },
            constraint.sense,
            constraint.rhs,
        )
    solution = BranchAndBound().solve(integral)
    if solution.status is SolveStatus.OPTIMAL:
        assert relaxed.objective <= solution.objective + 1e-6
