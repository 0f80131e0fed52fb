"""Solver scaling and ablation studies.

Backs three claims/design choices from the paper:

* §4.2: "our pre-processing heuristic reduces the problem size enough to
  allow an ILP solver to solve it exactly within a few seconds" —
  ablation: solve time and problem size with vs. without preprocessing;
* §4.2.1: the restricted formulation has |V| variables vs. 2|E| + |V| for
  the general one — ablation: model sizes and solve times per formulation;
* §7.1: "we can use an approximate lower bound to establish a termination
  condition" — the Lagrangian/min-cut bound vs. the exact optimum.

Random instances are layered DAGs with a data-reducing bias, mimicking
real sensing pipelines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..dataflow.graph import Pinning
from ..core.ilp_general import build_general_ilp
from ..core.ilp_restricted import build_restricted_ilp
from ..core.lagrangian import lagrangian_partition
from ..core.preprocess import preprocess
from ..core.problem import PartitionProblem, WeightedEdge
from ..solver.branch_bound import BranchAndBound


def random_pipeline_dag(
    n_vertices: int,
    seed: int = 0,
    branching: float = 0.25,
    reduction: float = 0.75,
) -> PartitionProblem:
    """A random layered DAG shaped like a sensing application.

    Vertices form a rough pipeline with occasional branches; edge
    bandwidth tends to shrink with depth (each stage reduces data by
    ``reduction`` on average), CPU costs are positive, sources are pinned
    to the node and the single sink to the server.
    """
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n_vertices)]
    cpu = {name: float(rng.uniform(0.01, 0.1)) for name in names}
    edges: list[WeightedEdge] = []
    bandwidth = {names[0]: 1000.0}
    for i in range(1, n_vertices):
        # Connect to a recent predecessor (pipeline-ish locality).
        lo = max(0, i - 4)
        parent = int(rng.integers(lo, i))
        parent_bw = bandwidth[names[parent]]
        factor = float(rng.uniform(reduction * 0.6, 1.15))
        bw = max(1.0, parent_bw * factor)
        bandwidth[names[i]] = bw
        edges.append(WeightedEdge(names[parent], names[i], bw))
        if rng.random() < branching and i > 1:
            other = int(rng.integers(lo, i))
            if other != parent:
                edges.append(
                    WeightedEdge(
                        names[other], names[i],
                        max(1.0, bandwidth[names[other]] * factor),
                    )
                )
    pins = {names[0]: Pinning.NODE, names[-1]: Pinning.SERVER}
    total_cpu = sum(cpu.values())
    return PartitionProblem(
        vertices=names,
        cpu=cpu,
        edges=edges,
        pins=pins,
        cpu_budget=total_cpu * 0.4,
        net_budget=1e12,
        alpha=0.0,
        beta=1.0,
    )


@dataclass(frozen=True)
class PreprocessAblationRow:
    n_vertices: int
    reduced_vertices: int
    reduction_ratio: float
    time_with: float
    time_without: float
    objective_with: float
    objective_without: float
    optimum_preserved: bool


def preprocessing_ablation(
    sizes: tuple[int, ...] = (30, 60, 120),
    seed: int = 0,
) -> list[PreprocessAblationRow]:
    """Solve with and without §4.1 preprocessing; optimum must match."""
    rows: list[PreprocessAblationRow] = []
    solver = BranchAndBound()
    for size in sizes:
        problem = random_pipeline_dag(size, seed=seed)

        start = time.perf_counter()
        reduced = preprocess(problem)
        model = build_restricted_ilp(reduced.problem)
        with_solution = solver.solve(model.program)
        time_with = time.perf_counter() - start

        start = time.perf_counter()
        raw_model = build_restricted_ilp(problem)
        without_solution = solver.solve(raw_model.program)
        time_without = time.perf_counter() - start

        rows.append(
            PreprocessAblationRow(
                n_vertices=size,
                reduced_vertices=len(reduced.problem.vertices),
                reduction_ratio=1.0
                - len(reduced.problem.vertices) / size,
                time_with=time_with,
                time_without=time_without,
                objective_with=with_solution.objective or float("inf"),
                objective_without=without_solution.objective
                or float("inf"),
                optimum_preserved=(
                    with_solution.objective is not None
                    and without_solution.objective is not None
                    and abs(
                        with_solution.objective
                        - without_solution.objective
                    )
                    < 1e-6 * max(1.0, abs(without_solution.objective))
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class FormulationAblationRow:
    n_vertices: int
    restricted_vars: int
    restricted_constraints: int
    general_vars: int
    general_constraints: int
    restricted_time: float
    general_time: float
    objectives_match: bool


def formulation_ablation(
    sizes: tuple[int, ...] = (30, 60, 120),
    seed: int = 1,
) -> list[FormulationAblationRow]:
    """Restricted (Eq. 6/7) vs. general (Eq. 3/4) encodings."""
    rows: list[FormulationAblationRow] = []
    solver = BranchAndBound()
    for size in sizes:
        problem = random_pipeline_dag(size, seed=seed)

        restricted = build_restricted_ilp(problem)
        start = time.perf_counter()
        r_solution = solver.solve(restricted.program)
        r_time = time.perf_counter() - start

        general = build_general_ilp(problem)
        start = time.perf_counter()
        g_solution = solver.solve(general.program)
        g_time = time.perf_counter() - start

        # On unidirectional DAGs the general optimum can only be <= the
        # restricted one; they match when no back-and-forth cut helps.
        match = (
            r_solution.objective is not None
            and g_solution.objective is not None
            and g_solution.objective
            <= r_solution.objective + 1e-6 * max(1.0, r_solution.objective)
        )
        rows.append(
            FormulationAblationRow(
                n_vertices=size,
                restricted_vars=restricted.program.num_variables,
                restricted_constraints=restricted.program.num_constraints,
                general_vars=general.program.num_variables,
                general_constraints=general.program.num_constraints,
                restricted_time=r_time,
                general_time=g_time,
                objectives_match=match,
            )
        )
    return rows


@dataclass(frozen=True)
class BoundAblationRow:
    n_vertices: int
    exact_objective: float
    lagrangian_bound: float
    lagrangian_best: float
    bound_valid: bool
    bound_gap: float
    lagrangian_time: float
    exact_time: float


def bound_ablation(
    sizes: tuple[int, ...] = (30, 60, 120),
    seed: int = 2,
) -> list[BoundAblationRow]:
    """Lagrangian/min-cut lower bound vs. the exact ILP optimum (§7.1)."""
    rows: list[BoundAblationRow] = []
    solver = BranchAndBound()
    for size in sizes:
        problem = random_pipeline_dag(size, seed=seed)

        start = time.perf_counter()
        lag = lagrangian_partition(problem)
        lag_time = time.perf_counter() - start

        model = build_restricted_ilp(problem)
        start = time.perf_counter()
        exact = solver.solve(model.program)
        exact_time = time.perf_counter() - start
        exact_objective = exact.objective or float("inf")

        rows.append(
            BoundAblationRow(
                n_vertices=size,
                exact_objective=exact_objective,
                lagrangian_bound=lag.lower_bound,
                lagrangian_best=lag.best_objective,
                bound_valid=lag.lower_bound <= exact_objective + 1e-6,
                bound_gap=(
                    (exact_objective - lag.lower_bound)
                    / max(1.0, abs(exact_objective))
                ),
                lagrangian_time=lag_time,
                exact_time=exact_time,
            )
        )
    return rows


@dataclass(frozen=True)
class ScalingRow:
    n_vertices: int
    solve_seconds: float
    nodes_explored: int
    feasible: bool


def solver_scaling(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    seed: int = 3,
) -> list[ScalingRow]:
    """End-to-end solve time vs. instance size (preprocessing + B&B)."""
    rows: list[ScalingRow] = []
    solver = BranchAndBound()
    for size in sizes:
        problem = random_pipeline_dag(size, seed=seed)
        start = time.perf_counter()
        reduced = preprocess(problem)
        model = build_restricted_ilp(reduced.problem)
        solution = solver.solve(model.program)
        elapsed = time.perf_counter() - start
        rows.append(
            ScalingRow(
                n_vertices=size,
                solve_seconds=elapsed,
                nodes_explored=solution.nodes_explored,
                feasible=solution.status.has_solution,
            )
        )
    return rows
