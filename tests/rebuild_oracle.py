"""The full per-rate rebuild, kept only as a test oracle.

A partitioner formulates a profile once and probes it at every rate
(``repro.core.probe``).  This module does what the probe replaces: it
pins, reduces and formulates ``profile.scaled(factor)`` from scratch and
solves that instance with HiGHS branch and cut (``milp_oracle``), an
engine independent of branch and bound.  The two instances differ in
float rounding, so a tie may resolve to another node set; tests compare
objectives within the solve's gap.

:func:`scaled_problem` builds the abstract instance a probe answers at a
rate factor and budgets; evaluated on it, an answer's loads and
objective must be the ones the probe reported, bit for bit.
"""

from __future__ import annotations

from milp_oracle import proven

from repro.core import (
    PartitionProblem,
    WeightedEdge,
    Wishbone,
    preprocess,
)
from repro.core.cut import PartitionError
from repro.profiler import GraphProfile
from repro.solver import SolveStatus


def scaled_problem(
    problem: PartitionProblem,
    factor: float,
    cpu_budget: float | None = None,
    net_budget: float | None = None,
) -> PartitionProblem:
    """``problem`` with every load multiplied by ``factor`` (§4.3) and
    its budgets replaced (``None`` keeps one).

    Scaling is structure-preserving: pins and the edge set are untouched,
    and every bandwidth comparison (e.g. the §4.1 reduction's merge rule)
    gives the same answer at any positive factor.
    """
    if factor < 0:
        raise PartitionError("rate factor must be non-negative")
    return PartitionProblem(
        vertices=list(problem.vertices),
        cpu={v: c * factor for v, c in problem.cpu.items()},
        edges=[
            WeightedEdge(e.src, e.dst, e.bandwidth * factor)
            for e in problem.edges
        ],
        pins=dict(problem.pins),
        cpu_budget=problem.cpu_budget if cpu_budget is None else cpu_budget,
        net_budget=problem.net_budget if net_budget is None else net_budget,
        alpha=problem.alpha,
        beta=problem.beta,
    )


def rebuild_objective(
    partitioner: Wishbone, profile: GraphProfile, factor: float
) -> float | None:
    """The optimal objective of ``profile.scaled(factor)`` under
    ``partitioner``'s settings (``None`` when infeasible).

    Fails the calling test as unverified when the oracle proves neither.
    """
    problem = partitioner.build_problem(profile.scaled(factor))
    reduced = preprocess(problem) if partitioner.use_preprocess else None
    model = partitioner.formulate(
        reduced.problem if reduced is not None else problem
    )
    solution = proven(model.program, gap_tolerance=partitioner.gap_tolerance)
    if solution.status is SolveStatus.INFEASIBLE:
        return None
    node_set = model.node_set(solution.values)
    if reduced is not None:
        node_set = reduced.expand(node_set)
    assert problem.is_feasible(node_set)
    return problem.objective(node_set)


def within_gap(value: float, oracle: float, gap: float) -> bool:
    """Whether two objectives, each optimal within relative ``gap``,
    can both be optimal."""
    return abs(value - oracle) <= 2.0 * gap * max(1.0, abs(oracle)) + 1e-9
