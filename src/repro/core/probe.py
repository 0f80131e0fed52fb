"""Rate probing: one formulation, many rates (paper §4.3).

Every partition is a probe.  A :class:`ScaledProbe` runs the pin ->
reduce -> formulate -> ``to_arrays`` pipeline once for a profile and
answers any rate factor from it, because none of that pipeline depends
on the rate:

* pins are a function of the graph alone;
* the §4.1 preprocessing merges on bandwidth *comparisons*
  (``out >= in``), which are invariant under the uniform scaling of §4.3;
* the ILP's sparsity structure (precedence rows, cut-linearisation rows)
  is purely structural.

Uniformly scaling all loads by a factor ``f`` multiplies the objective
vector and the two budget rows by ``f`` while every structural row keeps a
zero right-hand side.  Scaling a ``<=`` row by a positive factor is an
equivalence, so the instance at rate ``f`` is *exactly* the cached base
instance with the cost vector multiplied by ``f`` and the budget
right-hand sides divided by ``f`` — two O(n) vector operations per probe
instead of a full rebuild.

There is no other path: :meth:`Wishbone.partition
<repro.core.partitioner.Wishbone.partition>` partitions a scaled profile
by probing its unscaled base, and a formulation that is not
rate-separable in this sense (a structural row carries a nonzero
right-hand side) raises :class:`~repro.core.cut.PartitionError` when its
probe is built.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..profiler.records import GraphProfile
from ..solver.branch_bound import BranchAndBound, ProgramStructure
from ..solver.solution import Solution
from .cut import InfeasiblePartition, Partition, PartitionError
from .preprocess import preprocess
from .problem import NET_BUDGET_CAP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .partitioner import PartitionResult, Wishbone

#: Constraint names whose right-hand side scales with the rate factor.
BUDGET_ROW_NAMES = ("cpu_budget", "net_budget")


class ScaledProbe:
    """Rate-invariant cached formulation of one partitioning instance.

    Built once per (partitioner, profile) pair — at the top of a rate
    search or a sweep, once per probe group in a service, or per call in
    :meth:`Wishbone.partition` — and then probed at arbitrary rate
    factors.  Whatever no rate or budget changes is computed once per
    probe: the formulation, the HiGHS model, and the closure loads and
    block symmetry (:class:`~repro.solver.branch_bound.ProgramStructure`).
    A probe solve then costs:

    * the scaled cost vector and budget right-hand sides (two O(n)
      vector writes);
    * the model update (new costs, changed row bounds, cleared basis);
    * one comparison of the closure loads with the budgets and, when the
      solve branches, a check that the symmetry still holds for its
      costs and budgets;
    * the branch and bound itself;
    * decoding the node set and summing its loads at the rate factor.

    Attributes:
        problem: the base (factor 1.0) :class:`PartitionProblem`.
        reduced: the §4.1 reduction of the base problem (``None`` when the
            partitioner has preprocessing disabled).
        build_seconds: one-time cost of pin + reduce + formulate + export.

    Raises:
        PartitionError: the formulation is not rate-separable (a
            structural row has a nonzero right-hand side).
    """

    def __init__(self, partitioner: "Wishbone", profile: GraphProfile) -> None:
        self.partitioner = partitioner
        self.profile = profile

        build_start = time.perf_counter()
        self.problem = partitioner.build_problem(profile)
        self.reduced = (
            preprocess(self.problem) if partitioner.use_preprocess else None
        )
        target = (
            self.reduced.problem if self.reduced is not None else self.problem
        )
        self.model = partitioner.formulate(target)
        self._arrays = self.model.program.to_arrays()
        self.build_seconds = time.perf_counter() - build_start

        self._base_c = self._arrays.c.copy()
        self._base_b_ub = self._arrays.b_ub.copy()
        # name -> row index for per-probe budget overrides; the array view
        # of the same rows drives the per-factor rhs division.
        self._budget_row_index = {
            name: i
            for i, name in enumerate(self._arrays.ub_row_names)
            if name in BUDGET_ROW_NAMES
        }
        self._budget_rows = np.fromiter(
            self._budget_row_index.values(), dtype=int
        )
        structural = np.ones(len(self._base_b_ub), dtype=bool)
        structural[self._budget_rows] = False
        if np.any(self._base_b_ub[structural] != 0.0) or np.any(
            self._arrays.b_eq != 0.0
        ):
            raise PartitionError(
                "formulation is not rate-separable: a structural row has a "
                "nonzero right-hand side, so no rate can be probed by "
                "rescaling costs and budgets"
            )
        # HiGHS model shared across probes: like the formulation it is
        # rate-invariant, so each probe edits c and the budget rhs in place
        # and clears the basis (no answer depends on an earlier probe).
        # Built lazily on the first probe; ``False`` marks "unavailable,
        # stop trying".
        self._relaxation: object | None | bool = None
        # Closure loads and block symmetry, for every solve of this
        # formulation.
        self._structure = ProgramStructure(self._arrays)

    # -- probing -----------------------------------------------------------

    def _arrays_at(
        self,
        factor: float,
        cpu_budget: float | None = None,
        net_budget: float | None = None,
    ):
        """The cached instance rescaled to ``factor`` (two vector edits).

        ``cpu_budget``/``net_budget`` replace the corresponding budget-row
        right-hand sides outright (before the rate division); ``None``
        keeps the budgets the base formulation was built with.  Budgets
        are the *only* place the instance depends on them — pins, the
        §4.1 reduction, and every structural row are budget-invariant —
        so an override is exactly two more scalar writes.
        """
        b_ub = self._base_b_ub.copy()
        if cpu_budget is not None and "cpu_budget" in self._budget_row_index:
            b_ub[self._budget_row_index["cpu_budget"]] = cpu_budget
        if net_budget is not None and "net_budget" in self._budget_row_index:
            b_ub[self._budget_row_index["net_budget"]] = min(
                net_budget, NET_BUDGET_CAP
            )
        b_ub[self._budget_rows] = b_ub[self._budget_rows] / factor
        return self._arrays.with_objective(self._base_c * factor).with_b_ub(
            b_ub
        )

    def _shared_relaxation(self, arrays):
        """The cached HiGHS model, set to ``arrays`` with no solver state.

        Returns ``None`` when the private HiGHS bindings are unavailable —
        probes then solve exactly as before.
        """
        from ..solver.scipy_backend import make_highs_relaxation

        if self._relaxation is False:
            return None
        if self._relaxation is None:
            self._relaxation = make_highs_relaxation(arrays)
            if self._relaxation is None:
                self._relaxation = False
                return None
            return self._relaxation
        try:
            self._relaxation.update_problem(c=arrays.c, b_ub=arrays.b_ub)
        except Exception:
            self._relaxation = False
            return None
        return self._relaxation

    def partition(
        self,
        factor: float,
        cpu_budget: float | None = None,
        net_budget: float | None = None,
    ) -> "PartitionResult":
        """Partition at ``factor`` times the profiled rate.

        ``cpu_budget``/``net_budget`` override the budgets the base
        formulation was built with — the workbench's partition service
        uses this to serve every budget of a probe group from one cached
        formulation.  Each call solves from no state, so its answer is a
        function of its arguments alone.

        Raises :class:`InfeasiblePartition` when the solver found no
        solution, :class:`PartitionError` when the decoded assignment
        violates the budgets of the scaled instance (an encoding bug).
        """
        from .partitioner import PartitionResult

        if factor <= 0.0:
            raise ValueError("rate factor must be positive")
        prep_start = time.perf_counter()
        arrays = self._arrays_at(factor, cpu_budget, net_budget)
        relaxation = self._shared_relaxation(arrays)
        build_seconds = time.perf_counter() - prep_start

        solve_start = time.perf_counter()
        solution = BranchAndBound(
            time_limit=self.partitioner.time_limit,
            gap_tolerance=self.partitioner.gap_tolerance,
        ).solve(arrays, relaxation=relaxation, structure=self._structure)
        solve_seconds = time.perf_counter() - solve_start
        if not solution.status.has_solution:
            raise InfeasiblePartition(
                f"no feasible partition (solver status: {solution.status})"
            )

        cluster_set = self.model.node_set(solution.values)
        node_set = (
            self.reduced.expand(cluster_set)
            if self.reduced is not None
            else cluster_set
        )
        # Evaluate against the instance the solver saw (which may discount
        # aggregated edges); cross-check feasibility there.
        cpu, net = self._loads(node_set, factor)
        problem = self.problem
        if cpu_budget is None:
            cpu_budget = problem.cpu_budget
        net_budget = (
            problem.net_budget
            if net_budget is None
            else min(net_budget, NET_BUDGET_CAP)
        )
        if not (
            problem.respects_pins(node_set)
            and cpu <= cpu_budget + 1e-9
            and net <= net_budget + 1e-9
        ):
            raise PartitionError(
                "solver returned an assignment that violates the budgets; "
                "this indicates an encoding bug"
            )
        # The node set is what the variable vector decodes to: keep the
        # outcome without the vector (or the names and reduced costs
        # indexed like it), so this answer holds what a decoded one does.
        solution = Solution(
            status=solution.status,
            objective=solution.objective,
            bound=solution.bound,
            incumbents=solution.incumbents,
            discover_elapsed=solution.discover_elapsed,
            prove_elapsed=solution.prove_elapsed,
            nodes_explored=solution.nodes_explored,
            iterations=solution.iterations,
        )
        partition = Partition(
            graph=self.profile.graph,
            node_set=frozenset(node_set),
            cpu_utilization=cpu,
            network_bytes_per_sec=net,
            objective_value=problem.alpha * cpu + problem.beta * net,
            feasible=True,
            solver_solution=solution,
        )
        vertices = len(problem.vertices)
        return PartitionResult(
            partition=partition,
            solution=solution,
            vertices=vertices,
            reduced_vertices=(
                len(self.reduced.problem.vertices)
                if self.reduced is not None
                else vertices
            ),
            build_seconds=build_seconds,
            solve_seconds=solve_seconds,
        )

    def _loads(self, node_set: set[str], factor: float) -> tuple[float, float]:
        """CPU and network load of ``node_set`` at ``factor``.

        Each load is scaled term by term and summed in the base problem's
        order, the floats :meth:`PartitionProblem.cpu_load` and
        :meth:`~PartitionProblem.net_load` give on the instance with every
        load multiplied by ``factor``.
        """
        problem = self.problem
        cpu = sum(
            problem.cpu.get(v, 0.0) * factor
            for v in problem.vertices
            if v in node_set
        )
        net = sum(
            e.bandwidth * factor
            for e in problem.edges
            if (e.src in node_set) != (e.dst in node_set)
        )
        return cpu, net

    def try_partition(
        self,
        factor: float,
        cpu_budget: float | None = None,
        net_budget: float | None = None,
    ) -> "PartitionResult | None":
        """Like :meth:`partition` but returns ``None`` on infeasibility."""
        try:
            return self.partition(
                factor, cpu_budget=cpu_budget, net_budget=net_budget
            )
        except InfeasiblePartition:
            return None
