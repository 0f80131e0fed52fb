"""HiGHS branch and cut, kept only as a test oracle.

Branch and bound is the only MILP solver the partitioner runs.  This
module solves the same arrays with :func:`scipy.optimize.milp`, an
engine that shares none of its search, so tests can check that both
reach one optimum.  The oracle vouches only for what it proves:
:func:`proven` fails the calling test as *unverified* when HiGHS stops
without a proof of optimality or infeasibility, so an instance the
oracle cannot settle never counts as a pass.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize, sparse

from repro.solver.model import LinearProgram, StandardArrays
from repro.solver.scipy_backend import _as_arrays
from repro.solver.solution import IncumbentEvent, Solution, SolveStatus

#: Seconds HiGHS gets to prove one instance in :func:`proven`.
TIME_LIMIT = 60.0


def solve_milp_scipy(
    program: LinearProgram | StandardArrays,
    time_limit: float | None = None,
    gap_tolerance: float | None = None,
) -> Solution:
    """Solve the MILP with HiGHS branch and cut.

    ``gap_tolerance`` is passed as HiGHS's ``mip_rel_gap`` (``None`` keeps
    HiGHS's default of 1e-4).
    """
    arrays = _as_arrays(program)
    start = time.perf_counter()

    constraints = []
    if arrays.a_ub.size:
        constraints.append(
            optimize.LinearConstraint(
                sparse.csr_matrix(arrays.a_ub),
                -np.inf * np.ones(len(arrays.b_ub)),
                arrays.b_ub,
            )
        )
    if arrays.a_eq.size:
        constraints.append(
            optimize.LinearConstraint(
                sparse.csr_matrix(arrays.a_eq), arrays.b_eq, arrays.b_eq
            )
        )
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if gap_tolerance is not None:
        options["mip_rel_gap"] = gap_tolerance
    result = optimize.milp(
        arrays.c,
        constraints=constraints,
        bounds=optimize.Bounds(arrays.lb, arrays.ub),
        integrality=arrays.integrality,
        options=options,
    )
    elapsed = time.perf_counter() - start
    if result.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE, prove_elapsed=elapsed)
    if result.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED, prove_elapsed=elapsed)
    if result.x is None:
        return Solution(status=SolveStatus.LIMIT, prove_elapsed=elapsed)
    objective = float(result.fun)
    status = (
        SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
    )
    return Solution(
        status=status,
        objective=objective,
        x=np.asarray(result.x, dtype=float),
        names=arrays.names,
        bound=float(result.mip_dual_bound)
        if result.mip_dual_bound is not None
        else objective,
        incumbents=[IncumbentEvent(elapsed, objective, 0)],
        discover_elapsed=elapsed,
        prove_elapsed=elapsed,
    )


def proven(
    program: LinearProgram | StandardArrays,
    gap_tolerance: float | None = None,
    time_limit: float | None = TIME_LIMIT,
) -> Solution:
    """The oracle's answer to ``program``, which must be a proof.

    Returns a solution whose status is OPTIMAL or INFEASIBLE.  Any other
    outcome (a time-limited incumbent, no incumbent at all) fails the
    calling test with an "unverified" message.
    """
    reference = solve_milp_scipy(
        program, time_limit=time_limit, gap_tolerance=gap_tolerance
    )
    assert reference.status in (
        SolveStatus.OPTIMAL,
        SolveStatus.INFEASIBLE,
    ), (
        f"unverified: HiGHS returned {reference.status.name} without a "
        f"proof (time limit {time_limit} s)"
    )
    return reference
