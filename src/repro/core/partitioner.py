"""The Wishbone partitioner facade (paper Sections 3-4).

Ties the pipeline together:  pin -> reduce (preprocess) -> formulate ->
solve -> expand -> evaluate.  The result is a :class:`Partition` over the
original graph along with solver telemetry (the find/prove timings Figure 6
plots).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..profiler.records import GraphProfile
from ..solver.solution import Solution
from .cut import InfeasiblePartition, Partition
from .ilp_general import build_general_ilp
from .ilp_restricted import build_restricted_ilp
from .pinning import RelocationMode, compute_pinnings
from .probe import ScaledProbe
from .problem import NET_BUDGET_CAP, PartitionProblem, problem_from_profile


class Formulation(enum.Enum):
    """Which ILP encoding to use (paper §4.2.1)."""

    RESTRICTED = "restricted"  # Eq. (1),(2),(6),(7) — single crossing
    GENERAL = "general"        # Eq. (1)-(5) — back-and-forth allowed


@dataclass(frozen=True)
class PartitionObjective:
    """min alpha*cpu + beta*net (Eq. 5); defaults to minimizing bandwidth
    subject to CPU feasibility — the configuration the paper evaluates
    (Section 7.1: "alpha = 0, beta = 1")."""

    alpha: float = 0.0
    beta: float = 1.0


@dataclass
class PartitionResult:
    """A partitioning run's answer: its decision, not its instance.

    ``partition`` is the decision (node set, CPU and network load,
    objective) and ``solution`` the solver outcome behind it (status,
    objective, bound, incumbent history, effort); ``partition``'s
    ``solver_solution`` is the same object.  The solution carries no
    variable vector: the node set is what the vector decoded to.
    ``vertices`` and ``reduced_vertices`` count the instance's vertices
    before and after §4.1 preprocessing (equal when it is off).

    ``request`` is optional serving-context metadata (the workbench's
    :class:`~repro.workbench.session.PartitionRequest`) attached by the
    batched partition service so downstream steps — most importantly
    ``Session.deploy`` — can recover the platform and rate factor the
    result was solved under.  It is not serialized.
    """

    partition: Partition
    solution: Solution
    vertices: int
    reduced_vertices: int
    build_seconds: float
    solve_seconds: float
    request: object | None = None

    @property
    def feasible(self) -> bool:
        return self.partition.feasible

    @property
    def reduction_ratio(self) -> float:
        """Vertices removed by preprocessing (0 = none, 1 = all)."""
        if not self.vertices:
            return 0.0
        return 1.0 - self.reduced_vertices / self.vertices


class Wishbone:
    """Profile-driven graph partitioner.

    Args:
        objective: the alpha/beta weights of Eq. 5 (defaults to the
            platform's own weights if ``None``).
        mode: conservative or permissive stateful-operator relocation.
        formulation: restricted (default, as in the paper's prototype) or
            general.
        use_preprocess: apply the Section 4.1 reduction.
        cpu_budget: node CPU budget as a utilization fraction; defaults to
            the platform's ``cpu_budget_fraction``.
        net_budget: channel budget in bytes/s; defaults to the platform
            radio's goodput capacity (or infinity without a radio).
        time_limit: wall-clock cap per solve, in seconds.
        gap_tolerance: relative optimality gap at which branch and bound
            declares a solution optimal.  Symmetric graphs (e.g. the 22
            identical EEG channels) create huge plateaus of equivalent
            solutions; a small positive gap prunes them without changing
            which partitions are found.
        aggregate_fanin: §9 in-network aggregation — the expected fan-in
            of the aggregation tree (typically the network size).  Edge
            costs downstream of a ``reduce`` operator are divided by it;
            1.0 reproduces the paper's two-tier behaviour.
    """

    def __init__(
        self,
        objective: PartitionObjective | None = None,
        mode: RelocationMode = RelocationMode.CONSERVATIVE,
        formulation: Formulation = Formulation.RESTRICTED,
        use_preprocess: bool = True,
        cpu_budget: float | None = None,
        net_budget: float | None = None,
        time_limit: float | None = None,
        gap_tolerance: float = 1e-6,
        aggregate_fanin: float = 1.0,
    ) -> None:
        self.objective = objective
        self.mode = mode
        self.formulation = formulation
        self.use_preprocess = use_preprocess
        self.cpu_budget = cpu_budget
        self.net_budget = net_budget
        self.time_limit = time_limit
        self.gap_tolerance = gap_tolerance
        self.aggregate_fanin = aggregate_fanin

    # -- configuration ------------------------------------------------------

    def with_overrides(self, **overrides) -> "Wishbone":
        """A copy of this partitioner with some settings replaced.

        Accepts the same keyword arguments as the constructor; unspecified
        settings are carried over.  The setting list is derived from the
        constructor signature (every parameter is stored under its own
        name), so new knobs are picked up automatically.  Used by the
        batched workbench service to derive per-request variants (e.g.
        budgets) of one base configuration.
        """
        import inspect

        settings = {
            name: getattr(self, name)
            for name in inspect.signature(Wishbone.__init__).parameters
            if name != "self"
        }
        unknown = set(overrides) - set(settings)
        if unknown:
            raise TypeError(f"unknown Wishbone settings: {sorted(unknown)}")
        settings.update(overrides)
        return Wishbone(**settings)

    def resolve_budgets(self, platform) -> tuple[float, float]:
        """The effective (cpu, net) budgets on ``platform``.

        ``None`` settings fall back to the platform's CPU budget fraction
        and its radio goodput capacity (infinite without a radio); the net
        budget is clamped to a large finite value for the solvers.
        """
        cpu_budget = (
            self.cpu_budget
            if self.cpu_budget is not None
            else platform.cpu_budget_fraction
        )
        if self.net_budget is not None:
            net_budget = self.net_budget
        elif platform.radio is not None:
            net_budget = platform.radio.goodput_capacity_bytes
        else:
            net_budget = float("inf")
        return cpu_budget, min(net_budget, NET_BUDGET_CAP)

    # -- problem construction -----------------------------------------------

    def build_problem(self, profile: GraphProfile) -> PartitionProblem:
        """Pin operators and assemble the weighted instance."""
        platform = profile.platform
        objective = self.objective or PartitionObjective(
            alpha=platform.alpha, beta=platform.beta
        )
        cpu_budget, net_budget = self.resolve_budgets(platform)
        single_crossing = self.formulation is Formulation.RESTRICTED
        pins = compute_pinnings(
            profile.graph, self.mode, single_crossing=single_crossing
        )
        return problem_from_profile(
            profile,
            pins,
            cpu_budget=cpu_budget,
            net_budget=net_budget,
            alpha=objective.alpha,
            beta=objective.beta,
            aggregate_fanin=self.aggregate_fanin,
        )

    # -- solving --------------------------------------------------------------

    def formulate(self, problem: PartitionProblem):
        """Encode a (possibly reduced) instance as the configured ILP."""
        if self.formulation is Formulation.RESTRICTED:
            return build_restricted_ilp(problem)
        return build_general_ilp(problem)

    def prepare_probe(self, profile: GraphProfile) -> ScaledProbe:
        """Cache the rate-invariant parts of this instance for §4.3 probing.

        The returned :class:`~repro.core.probe.ScaledProbe` answers
        ``partition(factor)`` for any rate factor while running the
        pin -> reduce -> formulate pipeline exactly once; see
        ``repro.core.probe`` for the equivalence argument.
        """
        return ScaledProbe(self, profile)

    def partition(self, profile: GraphProfile) -> PartitionResult:
        """Partition a profiled graph; raises on infeasibility.

        A scaled profile is partitioned as a probe of its base at its
        cumulative factor, so ``partition(profile.scaled(f))`` is the
        answer ``prepare_probe(profile).partition(f)`` gives.
        """
        return self.prepare_probe(profile.base).partition(profile.base_factor)

    def try_partition(self, profile: GraphProfile) -> PartitionResult | None:
        """Like :meth:`partition` but returns ``None`` on infeasibility."""
        try:
            return self.partition(profile)
        except InfeasiblePartition:
            return None
