"""Incremental rate probing: one formulation, many rates (paper §4.3).

A :class:`~repro.core.rate_search.RateSearch` issues up to ``max_probes``
(default 60) partitioner invocations, and the seed implementation re-ran
the full pin -> reduce -> formulate -> ``to_arrays`` pipeline for every
probe even though *none of it depends on the rate*:

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

:class:`ScaledProbe` caches the base formulation once and serves probes at
any rate factor.  When a formulation is not rate-separable in this sense
(some structural row carries a nonzero rhs), the probe transparently falls
back to the full per-factor rebuild, so it is always safe to use.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..profiler.records import GraphProfile
from .cut import InfeasiblePartition
from .preprocess import preprocess
from .problem import NET_BUDGET_CAP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .partitioner import PartitionResult, Wishbone

#: Constraint names whose right-hand side scales with the rate factor.
BUDGET_ROW_NAMES = ("cpu_budget", "net_budget")


class ScaledProbe:
    """Rate-invariant cached formulation of one partitioning instance.

    Built once per (partitioner, profile) pair — typically at the top of a
    rate search — and then probed at arbitrary rate factors.  Each probe
    costs two vector copies plus the MILP solve itself.

    Attributes:
        problem: the base (factor 1.0) :class:`PartitionProblem`.
        pins: the computed pinnings (rate-invariant).
        reduced: the §4.1 reduction of the base problem (``None`` when the
            partitioner has preprocessing disabled).
        build_seconds: one-time cost of pin + reduce + formulate + export.
        incremental: False when the formulation was not rate-separable and
            probes fall back to full rebuilds.
    """

    def __init__(self, partitioner: "Wishbone", profile: GraphProfile) -> None:
        self.partitioner = partitioner
        self.profile = profile

        build_start = time.perf_counter()
        self.problem, self.pins = partitioner.build_problem(profile)
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
        self.incremental = bool(
            np.all(self._base_b_ub[structural] == 0.0)
            and (
                self._arrays.b_eq.size == 0
                or np.all(self._arrays.b_eq == 0.0)
            )
        )
        # Persistent HiGHS relaxation shared across probes: each probe only
        # rescales c and the budget rhs, so the model is edited in place
        # and the root LP basis carries over from probe to probe (the first
        # ROADMAP open solver item).  Built lazily on the first probe;
        # ``False`` marks "unavailable, stop trying".
        self._relaxation: object | None | bool = None
        # Effective (cpu, net) budgets the live relaxation last solved
        # under.  A basis from a *different* budget configuration must not
        # carry into this solve: it steers tie-breaking on symmetric
        # plateaus (and, under a positive gap tolerance, can change which
        # within-gap incumbent is returned), so a request that omits a
        # budget after a prior request overrode it would not get the same
        # answer as a fresh probe.  See :meth:`_sync_relaxation_budgets`.
        self._relaxation_budget_key: tuple | None = None

    # -- probing -----------------------------------------------------------

    def _effective_budget_key(
        self, cpu_budget: float | None, net_budget: float | None
    ) -> tuple:
        """The (cpu, net) right-hand sides this probe would solve under."""
        key = []
        for name, override in (
            ("cpu_budget", cpu_budget),
            ("net_budget", net_budget),
        ):
            row = self._budget_row_index.get(name)
            if override is None:
                key.append(
                    float(self._base_b_ub[row]) if row is not None else None
                )
            elif name == "net_budget":
                key.append(min(float(override), NET_BUDGET_CAP))
            else:
                key.append(float(override))
        return tuple(key)

    def reset_solver_state(self) -> None:
        """Forget warm-start state: the next solve behaves like a fresh
        probe's.  The batched partition service calls this when a cached
        probe enters a new batch, so batch results are a pure function
        of the batch content, whatever the probe served before (a server
        worker answers every run through its own cached probes)."""
        if self._relaxation is not False:
            self._relaxation = None
        self._relaxation_budget_key = None

    def _sync_relaxation_budgets(self, budget_key: tuple) -> None:
        """Discard the persistent relaxation when the budgets change.

        Warm starts are only carried between solves of the *same* budget
        configuration (rate factors may differ — that is the §4.3 sweep).
        Crossing a budget change with a live basis made the outcome of a
        default-budget ``partition()`` depend on which overridden requests
        ran before it; discarding the engine restores the fresh-probe
        answer for every call, which is also what lets the workbench
        server shard a request group at budget boundaries without
        changing any result.
        """
        if budget_key != self._relaxation_budget_key:
            if self._relaxation is not False:
                self._relaxation = None
            self._relaxation_budget_key = budget_key

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
        """The persistent cross-probe HiGHS engine, synced to ``arrays``.

        Returns ``None`` when the partitioner configuration cannot use it
        (non-B&B backend, tableau engine) or the private HiGHS bindings
        are unavailable — probes then solve exactly as before.
        """
        from ..solver.scipy_backend import make_highs_relaxation
        from .partitioner import SolverBackend

        partitioner = self.partitioner
        if (
            partitioner.solver is not SolverBackend.BRANCH_AND_BOUND
            or partitioner.lp_engine != "scipy"
        ):
            return None
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
        """Partition at ``factor`` times the profiled rate; raises on
        infeasibility (mirrors :meth:`Wishbone.partition`).

        ``cpu_budget``/``net_budget`` override the budgets the base
        formulation was built with — the workbench's batched partition
        service uses this to serve mixed-budget request batches from one
        cached formulation and one persistent warm-started relaxation.
        """
        if factor <= 0.0:
            raise ValueError("rate factor must be positive")
        override = cpu_budget is not None or net_budget is not None
        if not self.incremental:
            partitioner = self.partitioner
            if override:
                partitioner = partitioner.with_overrides(
                    cpu_budget=(
                        cpu_budget
                        if cpu_budget is not None
                        else partitioner.cpu_budget
                    ),
                    net_budget=(
                        net_budget
                        if net_budget is not None
                        else partitioner.net_budget
                    ),
                )
            return partitioner.partition(self.profile.scaled(factor))

        prep_start = time.perf_counter()
        self._sync_relaxation_budgets(
            self._effective_budget_key(cpu_budget, net_budget)
        )
        arrays = self._arrays_at(factor, cpu_budget, net_budget)
        relaxation = self._shared_relaxation(arrays)
        build_seconds = time.perf_counter() - prep_start

        solve_start = time.perf_counter()
        solution = self.partitioner.solve_arrays(arrays, relaxation=relaxation)
        solve_seconds = time.perf_counter() - solve_start
        problem, reduced = self.problem, self.reduced
        if override:
            effective_cpu = (
                cpu_budget if cpu_budget is not None else problem.cpu_budget
            )
            effective_net = (
                min(net_budget, NET_BUDGET_CAP)
                if net_budget is not None
                else problem.net_budget
            )
            problem = problem.with_budgets(effective_cpu, effective_net)
            if reduced is not None:
                reduced = reduced.with_budgets(effective_cpu, effective_net)
        return self.partitioner.package_result(
            self.profile.graph,
            problem.scaled(factor),
            self.model,
            solution,
            reduced.scaled(factor) if reduced is not None else None,
            self.pins,
            build_seconds,
            solve_seconds,
        )

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
