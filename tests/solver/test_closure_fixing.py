"""Closure fixing: binaries whose ancestor closure overflows a budget row.

``ProgramStructure.closure_fixed`` reads precedence rows (``x_v <= x_u``)
and budget rows (nonnegative, at least three nonzeros) straight from the
arrays and names the lb-0 binaries that can never be 1.  Branch and bound
fixes them before its root relaxation.  The closure loads are computed
once per formulation and compared with each solve's budgets; every set
they fix must be the one the one-shot computation
(``tests/closure_oracle.py``) fixes on that solve's arrays alone.
"""

import numpy as np
import pytest
from closure_oracle import closure_overflow
from milp_oracle import proven
from replicated_problems import probe_arrays, replicated_branches

from repro.core import (
    PartitionObjective,
    RelocationMode,
    Wishbone,
    build_restricted_ilp,
)
from repro.experiments.common import profile_for
from repro.solver import BranchAndBound, LinearProgram, SolveStatus
from repro.solver.branch_bound import ProgramStructure


def dag_program(weights, edges, budget, lb=None, objective=None):
    """Binaries ``x0..``, rows ``x_child <= x_parent`` and one budget row.

    ``edges`` are ``(parent, child)`` pairs, written the way the
    restricted ILP writes Eq. 6 (``f_parent - f_child >= 0``).
    """
    lp = LinearProgram()
    lb = lb or {}
    objective = objective or [-1.0] * len(weights)
    xs = [
        lp.add_variable(
            f"x{i}",
            lb=lb.get(i, 0.0),
            ub=1.0,
            integer=True,
            objective=objective[i],
        )
        for i in range(len(weights))
    ]
    for parent, child in edges:
        lp.add_constraint({xs[parent]: 1.0, xs[child]: -1.0}, ">=", 0.0)
    lp.add_constraint(
        {x: float(w) for x, w in zip(xs, weights)}, "<=", budget
    )
    return lp


def oracle_fixed(arrays):
    lb = np.asarray(arrays.lb, dtype=float)
    ub = np.asarray(arrays.ub, dtype=float)
    return closure_overflow(arrays, lb, ub).tolist()


def fixed(lp):
    arrays = lp.to_arrays()
    found = ProgramStructure(arrays).closure_fixed(arrays).tolist()
    assert found == oracle_fixed(arrays)
    return sorted(found)


def test_chain_fixes_exactly_the_overflowing_tail():
    # Closures weigh 3, 6, 9, 12 against a budget of 7.
    lp = dag_program([3, 3, 3, 3], [(0, 1), (1, 2), (2, 3)], 7.0)
    assert fixed(lp) == [2, 3]


@pytest.mark.parametrize("budget, expected", [(8.5, [3]), (9.0, [])])
def test_diamond_counts_a_shared_ancestor_once(budget, expected):
    # top 0 -> {1, 2} -> 3, and a lone vertex 4.  Vertex 3's closure is
    # {0, 1, 2, 3}: weight 9, not 11 (which counting the top once per path
    # would give).
    lp = dag_program(
        [2, 3, 3, 1, 5], [(0, 1), (0, 2), (1, 3), (2, 3)], budget
    )
    assert fixed(lp) == expected


def test_ancestor_at_lb_one_counts_toward_the_weight():
    # x0 is pinned to 1 (weight 5): x1's closure weighs 8 > 7 only
    # because x0 counts.  x0 itself is never fixed.
    lp = dag_program([5, 3, 1], [(0, 1)], 7.0, lb={0: 1.0})
    assert fixed(lp) == [1]


def test_pinned_non_ancestor_counts_through_the_row_floor():
    # x2 is pinned to 1 and unrelated to the chain 0 -> 1; its weight is
    # spent whatever the chain does.
    lp = dag_program([2, 2, 4], [(0, 1)], 7.0, lb={2: 1.0})
    assert fixed(lp) == [1]


def test_overflow_within_feasibility_tolerance_is_not_fixed():
    # x1's closure weighs 7; the tolerance is 1e-7 * 7.
    lp = dag_program([3, 4, 1], [(0, 1)], 7.0 - 5e-7)
    assert fixed(lp) == []
    lp = dag_program([3, 4, 1], [(0, 1)], 7.0 - 1e-6)
    assert fixed(lp) == [1]


def test_mixed_sign_row_is_not_a_budget_row():
    lp = dag_program([3, 3, -3], [(0, 1), (1, 2)], 2.0)
    assert fixed(lp) == []


def test_non_binary_columns_are_left_alone():
    lp = LinearProgram()
    x0 = lp.add_binary("x0", objective=-1.0)
    x1 = lp.add_binary("x1", objective=-1.0)
    wide = lp.add_variable("wide", ub=3.0, integer=True, objective=-1.0)
    flow = lp.add_variable("flow", ub=1.0, objective=-1.0)
    # A "precedence" row on a general integer and one on a continuous
    # column: neither is a closure edge.
    lp.add_constraint({wide: 1.0, x0: -1.0}, ">=", 0.0)
    lp.add_constraint({flow: 1.0, x1: -1.0}, ">=", 0.0)
    # Both non-binary columns alone overflow the budget.
    lp.add_constraint({x0: 1.0, x1: 1.0, wide: 50.0, flow: 50.0}, "<=", 10.0)
    assert fixed(lp) == []


def test_cyclic_precedence_leaves_bounds_untouched():
    # 0 -> 1 -> 0 is a cycle; 2 hangs below it and would overflow.
    lp = dag_program([3, 3, 3], [(0, 1), (1, 0), (1, 2)], 7.0)
    assert fixed(lp) == []


def test_no_budget_row_means_nothing_to_fix():
    lp = LinearProgram()
    xs = [lp.add_binary(f"x{i}", objective=-1.0) for i in range(3)]
    lp.add_constraint({xs[0]: 1.0, xs[1]: -1.0}, ">=", 0.0)
    lp.add_constraint({xs[1]: 5.0, xs[2]: 5.0}, "<=", 1.0)  # two nonzeros
    assert fixed(lp) == []


def reference_fixed(weights, edges, budget, lb):
    """The fixed set by depth-first search from each vertex."""
    parents = {v: [p for p, c in edges if c == v] for v in range(len(weights))}
    floor = sum(w * lb.get(j, 0.0) for j, w in enumerate(weights))
    out = []
    for v in range(len(weights)):
        seen, stack = {v}, [v]
        while stack:
            for p in parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        weight = floor + sum(weights[j] for j in seen if not lb.get(j))
        if not lb.get(v) and weight > budget + 1e-7 * max(1.0, budget):
            out.append(v)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_fixing_keeps_the_optimum_on_random_dags(seed):
    rng = np.random.default_rng(seed)
    n = 12
    edges = [
        (int(p), c)
        for c in range(1, n)
        for p in rng.choice(c, size=min(c, 2), replace=False)
    ]
    weights = rng.integers(1, 10, size=n).tolist()
    objective = (-rng.integers(1, 20, size=n)).astype(float).tolist()
    lb = {0: 1.0}  # the one source, so pinning leaves the instance feasible
    lp = dag_program(weights, edges, 25.0, lb=lb, objective=objective)
    assert fixed(lp) == reference_fixed(weights, edges, 25.0, lb)
    assert fixed(lp)  # the instance exercises the fixing
    reference = proven(lp)
    assert reference.status is SolveStatus.OPTIMAL
    solution = BranchAndBound().solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(reference.objective, abs=1e-6)


def test_eeg6_closes_at_the_root():
    """EEG-6 at rate factor 30: the fixed closures close the root gap."""
    probe = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=1.0,
        net_budget=float("inf"),
        gap_tolerance=5e-3,
    ).prepare_probe(profile_for("eeg", "tmote", n_channels=6))
    result = probe.try_partition(30.0)
    assert result is not None
    assert result.solution.status is SolveStatus.OPTIMAL
    assert result.solution.nodes_explored == 1


def probe_grid(seed):
    """Rate factors and budget overrides in a seeded order, the way a
    probe meets them (``None`` keeps the formulation's budget)."""
    rng = np.random.default_rng(seed)
    grid = [
        (float(f), cpu, net)
        for f in rng.uniform(0.2, 5.0, size=4)
        for cpu in (None, float(rng.uniform(0.1, 3.0)))
        for net in (None, float(rng.uniform(50.0, 400.0)), float("inf"))
    ]
    return [grid[i] for i in rng.permutation(len(grid))]


@pytest.mark.parametrize("seed", range(40))
def test_probe_fixes_what_the_one_shot_oracle_fixes(seed):
    """One formulation's closure loads, compared with every factor and
    budget override of a probe, fix exactly the oracle's set (38 of
    the 40 seeds fix something)."""
    generated = replicated_branches(seed)
    arrays = build_restricted_ilp(generated.problem).program.to_arrays()
    structure = ProgramStructure(arrays)
    for factor, cpu, net in probe_grid(seed):
        scaled = probe_arrays(arrays, factor, cpu, net)
        assert structure.closure_fixed(scaled).tolist() == oracle_fixed(
            scaled
        )


def test_probe_fixes_what_the_oracle_fixes_on_eeg():
    probe = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=1.0,
        net_budget=float("inf"),
        gap_tolerance=5e-3,
    ).prepare_probe(profile_for("eeg", "tmote", n_channels=3))
    structure = probe._structure
    fixed_any = False
    for factor in (0.5, 8.0, 30.0, 12.0, 1.0):
        for cpu in (1.2, 0.8, None):
            arrays = probe._arrays_at(factor, cpu, float("inf"))
            found = structure.closure_fixed(arrays).tolist()
            assert found == oracle_fixed(arrays)
            fixed_any |= bool(found)
    assert fixed_any


def test_structure_rejects_arrays_of_another_formulation():
    lp = dag_program([3, 3, 3, 3], [(0, 1), (1, 2), (2, 3)], 7.0)
    structure = ProgramStructure(lp.to_arrays())
    with pytest.raises(ValueError):
        structure.closure_fixed(lp.to_arrays())
