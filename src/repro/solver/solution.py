"""Solver result types shared by branch and bound and its LP engine.

The paper's Figure 6 distinguishes the time at which the branch-and-bound
solver *discovers* the optimal solution from the (much later) time at which
it *proves* optimality.  ``Solution`` therefore carries the full incumbent
history, not just the final point.

For throughput, backends report the solution point as a raw numpy vector
(``x``) plus the variable-name order (``names``); the ``values`` dict is
materialized lazily only when a caller actually asks for it.  Branch and
bound solves thousands of LP relaxations per MILP, and building (and then
immediately unpacking) a name->value dict per relaxation used to dominate
the per-node cost on large instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class SolveStatus(enum.Enum):
    """Terminal state of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven
    LIMIT = "limit"  # node/time limit hit with no incumbent

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass(frozen=True)
class IncumbentEvent:
    """A new best integer-feasible solution found during branch and bound."""

    elapsed: float  # seconds since solve start
    objective: float
    node_count: int


class Solution:
    """Outcome of solving a linear or mixed-integer program.

    Attributes:
        status: terminal solver state.
        objective: objective value of the best solution (``None`` if none).
        values: variable name -> value for the best solution (lazily built
            from ``x``/``names`` when not given explicitly).
        x: the raw solution vector in variable-index order (``None`` if no
            solution); the fast path for array-native callers.
        names: variable-name order matching ``x``.
        bound: best proven lower bound on the (minimization) objective.
        incumbents: history of improving solutions, in discovery order.
        discover_elapsed: seconds until the final incumbent was found.
        prove_elapsed: seconds until optimality was proven (or solve ended).
        nodes_explored: number of branch-and-bound nodes processed.
        iterations: simplex iterations (LP) or total across nodes (MILP).
        reduced_costs: per-variable reduced costs of an LP solve, when the
            backend exposes them (drives root reduced-cost fixing in branch
            and bound); ``None`` otherwise.
    """

    __slots__ = (
        "status", "objective", "_values", "x", "names", "bound",
        "incumbents", "discover_elapsed", "prove_elapsed",
        "nodes_explored", "iterations", "reduced_costs",
    )

    def __init__(
        self,
        status: SolveStatus,
        objective: float | None = None,
        values: dict[str, float] | None = None,
        bound: float | None = None,
        incumbents: list[IncumbentEvent] | None = None,
        discover_elapsed: float = 0.0,
        prove_elapsed: float = 0.0,
        nodes_explored: int = 0,
        iterations: int = 0,
        x: np.ndarray | None = None,
        names: list[str] | None = None,
        reduced_costs: np.ndarray | None = None,
    ) -> None:
        self.status = status
        self.objective = objective
        self._values = values
        self.x = x
        self.names = names
        self.bound = bound
        self.incumbents = incumbents if incumbents is not None else []
        self.discover_elapsed = discover_elapsed
        self.prove_elapsed = prove_elapsed
        self.nodes_explored = nodes_explored
        self.iterations = iterations
        self.reduced_costs = reduced_costs

    @property
    def values(self) -> dict[str, float]:
        """Name -> value dict of the best solution (built on first access)."""
        if self._values is None:
            if self.x is not None and self.names is not None:
                self._values = {
                    name: float(v) for name, v in zip(self.names, self.x)
                }
            else:
                self._values = {}
        return self._values

    @property
    def gap(self) -> float:
        """Relative optimality gap between incumbent and bound (0 = proven)."""
        if self.objective is None or self.bound is None:
            return float("inf")
        denom = max(1.0, abs(self.objective))
        return abs(self.objective - self.bound) / denom

    def value(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def __bool__(self) -> bool:
        return self.status.has_solution

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Solution({self.status.value}, objective={self.objective}, "
            f"nodes={self.nodes_explored}, iters={self.iterations})"
        )
