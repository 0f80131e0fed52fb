"""MILP solving substrate (lp_solve stand-in).

Public pieces:
  * :class:`LinearProgram` — declarative model (variables + constraints);
  * :class:`BranchAndBound` — the MILP solver, with incumbent-history
    tracking (find-vs-prove times, Figure 6);
  * :func:`solve_lp_scipy` — one cold HiGHS LP solve (branch and bound's
    relaxation when warm starts are off or scipy's private HiGHS bindings
    are missing).
"""

from .branch_bound import BranchAndBound
from .model import INF, Constraint, LinearProgram, StandardArrays, Variable
from .scipy_backend import solve_lp_scipy
from .solution import IncumbentEvent, Solution, SolveStatus

__all__ = [
    "INF",
    "BranchAndBound",
    "Constraint",
    "IncumbentEvent",
    "LinearProgram",
    "Solution",
    "SolveStatus",
    "StandardArrays",
    "Variable",
    "solve_lp_scipy",
]
