"""Property-based tests of the partitioning core (hypothesis)."""

import numpy as np
from closure_oracle import closure_overflow
from hypothesis import given, settings, strategies as st
from rebuild_oracle import scaled_problem
from replicated_problems import probe_arrays

from repro.core import (
    PartitionProblem,
    WeightedEdge,
    brute_force_partition,
    build_restricted_ilp,
    preprocess,
)
from repro.dataflow import Pinning
from repro.solver import BranchAndBound, SolveStatus
from repro.solver.branch_bound import ProgramStructure


@st.composite
def partition_problems(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    budget_frac = draw(st.floats(min_value=0.1, max_value=1.0))
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(max(0, i - 3), i))
        edges.append(
            WeightedEdge(names[parent], names[i],
                         float(rng.uniform(0.5, 100.0)))
        )
        if rng.random() < 0.25 and i >= 2:
            other = int(rng.integers(0, i - 1))
            if other != parent:
                edges.append(
                    WeightedEdge(names[other], names[i],
                                 float(rng.uniform(0.5, 100.0)))
                )
    cpu = {name: float(rng.uniform(0.05, 1.0)) for name in names}
    cpu[names[0]] = 0.0
    return PartitionProblem(
        vertices=names,
        cpu=cpu,
        edges=edges,
        pins={names[0]: Pinning.NODE, names[-1]: Pinning.SERVER},
        cpu_budget=sum(cpu.values()) * budget_frac,
        net_budget=1e12,
        alpha=0.0,
        beta=1.0,
    )


@given(partition_problems())
@settings(max_examples=30, deadline=None)
def test_ilp_equals_brute_force(problem):
    """The ILP matches exact enumeration, up to solver feasibility tolerance.

    Brute force checks budgets exactly (tol 1e-9) while the LP engine works
    to ~1e-7, so a generated budget that lands *on* a subset-sum boundary
    can be feasible for one and not the other.  Away from the boundary the
    two must agree exactly; on it, the ILP may only differ via an
    assignment within the solver's feasibility tolerance of the budget.
    """
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    brute = brute_force_partition(problem, single_crossing=True)
    cpu_tol = 1e-6 * max(1.0, problem.cpu_budget)
    if brute.feasible:
        assert solution.status is SolveStatus.OPTIMAL
        node_set = model.node_set(solution.values)
        # The decoded assignment must be valid, allowing the solver's
        # feasibility tolerance on the budget rows.
        assert problem.respects_pins(node_set)
        assert problem.respects_precedence(node_set)
        load = problem.cpu_load(node_set)
        assert load <= problem.cpu_budget + cpu_tol
        # Brute force's optimum is ILP-feasible, so the ILP can never be
        # worse; it can only be *better* via a boundary assignment.
        obj_tol = 1e-6 * max(1.0, abs(brute.objective))
        assert solution.objective <= brute.objective + obj_tol
        if solution.objective < brute.objective - obj_tol:
            assert load > problem.cpu_budget - cpu_tol, (
                "ILP beat exact enumeration away from the budget boundary"
            )
    elif solution.status.has_solution:
        # Enumeration found nothing: the ILP may still return a
        # boundary assignment the exact check rejects.
        node_set = model.node_set(solution.values)
        load = problem.cpu_load(node_set)
        assert (
            problem.cpu_budget - 1e-9 <= load <= problem.cpu_budget + cpu_tol
        )
    else:
        assert solution.status is SolveStatus.INFEASIBLE


@given(partition_problems())
@settings(max_examples=30, deadline=None)
def test_preprocessing_preserves_optimum(problem):
    reduced = preprocess(problem)
    raw = BranchAndBound().solve(build_restricted_ilp(problem).program)
    clustered = BranchAndBound().solve(
        build_restricted_ilp(reduced.problem).program
    )
    assert raw.status == clustered.status
    if raw.status is SolveStatus.OPTIMAL:
        assert abs(raw.objective - clustered.objective) <= 1e-6 * max(
            1.0, abs(raw.objective)
        )


@given(partition_problems())
@settings(max_examples=30, deadline=None)
def test_expanded_solution_feasible_on_original(problem):
    reduced = preprocess(problem)
    model = build_restricted_ilp(reduced.problem)
    solution = BranchAndBound().solve(model.program)
    if solution.status is not SolveStatus.OPTIMAL:
        return
    node_set = reduced.expand(model.node_set(solution.values))
    assert problem.respects_pins(node_set)
    assert problem.respects_precedence(node_set)
    assert problem.is_feasible(node_set)
    assert abs(problem.objective(node_set) - solution.objective) <= (
        1e-6 * max(1.0, abs(solution.objective))
    )


@given(partition_problems())
@settings(max_examples=20, deadline=None)
def test_cut_identity_between_formulations(problem):
    """Sum (f_u - f_v) r == boundary bandwidth for precedence-respecting
    assignments (the Eq. 7 simplification)."""
    model = build_restricted_ilp(problem)
    solution = BranchAndBound().solve(model.program)
    if solution.status is not SolveStatus.OPTIMAL:
        return
    node_set = model.node_set(solution.values)
    directed = sum(
        e.bandwidth
        for e in problem.edges
        if e.src in node_set and e.dst not in node_set
    )
    assert abs(directed - problem.net_load(node_set)) <= 1e-9


@given(partition_problems(), st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_rate_scaling_monotone_feasibility(problem, factor):
    """If a scaled-up instance is feasible, the original is too (§4.3)."""
    bigger = scaled_problem(problem, factor)
    model_big = build_restricted_ilp(bigger)
    big = BranchAndBound().solve(model_big.program)
    if factor >= 1.0 and big.status is SolveStatus.OPTIMAL:
        small = BranchAndBound().solve(build_restricted_ilp(problem).program)
        assert small.status is SolveStatus.OPTIMAL


@given(
    partition_problems(),
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=10.0),
            st.one_of(st.none(), st.floats(min_value=0.05, max_value=5.0)),
            st.one_of(
                st.none(),
                st.floats(min_value=1.0, max_value=500.0),
                st.just(float("inf")),
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_probe_closure_fixing_matches_the_one_shot_oracle(problem, probes):
    """A formulation's closure loads, kept across a probe's factors and
    budget overrides, fix the set the one-shot oracle fixes from each
    solve's arrays alone."""
    arrays = build_restricted_ilp(problem).program.to_arrays()
    structure = ProgramStructure(arrays)
    for factor, cpu_budget, net_budget in probes:
        scaled = probe_arrays(arrays, factor, cpu_budget, net_budget)
        expected = closure_overflow(scaled, scaled.lb, scaled.ub)
        assert structure.closure_fixed(scaled).tolist() == expected.tolist()
