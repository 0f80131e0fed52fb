"""Solver equivalence: our branch and bound vs HiGHS on both formulations.

Randomized restricted- and general-formulation partitioning instances must
produce the same optimal objective from :class:`BranchAndBound` and the
HiGHS branch-and-cut oracle (``tests/milp_oracle.py``).  This is the
regression net for the warm-start / reduced-cost-fixing / diving
machinery: any unsound pruning shows up as an objective mismatch here.
"""

import numpy as np
import pytest
from milp_oracle import proven

from repro.core import (
    PartitionProblem,
    WeightedEdge,
    build_general_ilp,
    build_restricted_ilp,
)
from repro.dataflow.graph import Pinning
from repro.solver import BranchAndBound, SolveStatus
from repro.solver.scipy_backend import make_highs_relaxation, solve_lp_scipy


def random_problem(seed: int, n: int = 10) -> PartitionProblem:
    """A random layered DAG instance with pins and binding budgets."""
    rng = np.random.default_rng(seed)
    vertices = [f"v{i}" for i in range(n)]
    cpu = {v: float(rng.uniform(0.01, 0.3)) for v in vertices}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append(
                    WeightedEdge(
                        vertices[i], vertices[j], float(rng.uniform(1, 50))
                    )
                )
    pins = {vertices[0]: Pinning.NODE, vertices[-1]: Pinning.SERVER}
    return PartitionProblem(
        vertices=vertices,
        cpu=cpu,
        edges=edges,
        pins=pins,
        cpu_budget=float(rng.uniform(0.4, 1.0)),
        net_budget=float(rng.uniform(40, 200)),
        alpha=float(rng.uniform(0, 1)),
        beta=1.0,
    )


@pytest.mark.parametrize("seed", range(8))
def test_restricted_formulation_matches_scipy(seed):
    program = build_restricted_ilp(random_problem(seed)).program
    ours = BranchAndBound().solve(program)
    reference = proven(program)
    assert ours.status == reference.status
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_general_formulation_matches_scipy(seed):
    program = build_general_ilp(random_problem(100 + seed)).program
    ours = BranchAndBound().solve(program)
    reference = proven(program)
    assert ours.status == reference.status
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_tuning_knobs_do_not_change_objective(seed):
    """dive / reduced-cost fixing / warm start only change the search order."""
    program = build_restricted_ilp(random_problem(300 + seed)).program
    tuned = BranchAndBound().solve(program)
    plain = BranchAndBound(
        dive=False, reduced_cost_fixing=False, warm_start=False
    ).solve(program)
    assert tuned.status == plain.status
    if tuned.status is SolveStatus.OPTIMAL:
        assert tuned.objective == pytest.approx(plain.objective, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_persistent_highs_relaxation_matches_linprog(seed):
    """The warm-started HiGHS engine agrees with cold linprog solves."""
    arrays = build_restricted_ilp(
        random_problem(400 + seed)
    ).program.to_arrays()
    engine = make_highs_relaxation(arrays)
    assert engine is not None, "scipy HiGHS bindings should be available"
    rng = np.random.default_rng(seed)
    lb, ub = arrays.lb.copy(), arrays.ub.copy()
    for _ in range(5):
        # Random branch-like bound tightenings on binary variables.
        j = int(rng.integers(0, arrays.num_variables))
        if lb[j] == ub[j]:
            continue
        fixed = float(rng.integers(0, 2))
        lb[j] = ub[j] = fixed
        warm = engine.solve(lb, ub)
        cold = solve_lp_scipy(arrays.with_bounds(lb.copy(), ub.copy()))
        assert warm.status == cold.status
        if warm.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            assert warm.reduced_costs is not None
