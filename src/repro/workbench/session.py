"""Sessions and the batched partition service.

The :class:`Session` is the canonical way into the reproduction: bind a
registered scenario (and optionally a durable
:class:`~repro.workbench.store.ProfileStore`), then ask for profiles,
partitions, rate searches, and deployment predictions without wiring the
six underlying classes by hand::

    session = Session("eeg", store=ProfileStore("~/.repro-store"))
    profile = session.profile()                     # cached measurement
    result = session.partition(rate_factor=8.0)     # one request
    batch = session.partition_many(requests)        # many, amortized
    prediction = session.deploy(result, n_nodes=10)

Batching is where the serving-system shape pays off:
:meth:`Session.partition_many` groups compatible requests (same platform
/ objective / formulation — budgets and rates may differ) onto one
cached :class:`~repro.core.probe.ScaledProbe`, so the pin -> reduce ->
formulate pipeline runs once per group and one persistent warm-started
HiGHS relaxation carries its basis across the whole batch.  Requests
within a group are solved in sorted (budget, rate) order so consecutive
solves stay similar, and results return in request order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from ..core.cut import InfeasiblePartition, Partition
from ..core.partitioner import (
    Formulation,
    PartitionObjective,
    PartitionResult,
    SolverBackend,
    Wishbone,
)
from ..core.pinning import RelocationMode
from ..core.probe import ScaledProbe
from ..core.rate_search import RateSearch, RateSearchResult
from ..network.testbed import Testbed
from ..platforms import get_platform
from ..profiler.profiler import Measurement, Profiler
from ..profiler.records import GraphProfile
from ..runtime.deployment import Deployment, DeploymentPrediction
from ..dataflow.execute import ExecutionPlan
from ..dataflow.graph import StreamGraph
from .cache import ResultCache, result_key
from .scenarios import Scenario, WorkbenchError, get_scenario
from .store import DEFAULT_PROFILER_CONFIG, ProfileStore


@dataclass(frozen=True)
class PartitionRequest:
    """One partitioning request against a session's scenario.

    ``platform=None`` defers to the serving session/service's default
    platform.  Budget fields left ``None`` fall back to the platform's
    defaults (CPU budget fraction, radio goodput capacity).  The
    objective defaults to the paper's evaluation configuration (alpha=0,
    beta=1 — minimize bandwidth subject to CPU feasibility) with
    permissive stateful-operator relocation, matching the CLI and figure
    harnesses.
    """

    platform: str | None = None
    rate_factor: float = 1.0
    cpu_budget: float | None = None
    net_budget: float | None = None
    alpha: float = 0.0
    beta: float = 1.0
    mode: RelocationMode = RelocationMode.PERMISSIVE
    formulation: Formulation = Formulation.RESTRICTED
    solver: SolverBackend = SolverBackend.BRANCH_AND_BOUND
    use_preprocess: bool = True
    lp_engine: str = "scipy"
    gap_tolerance: float = 1e-6
    time_limit: float | None = None
    aggregate_fanin: float = 1.0

    def partitioner(self) -> Wishbone:
        """A fully-configured :class:`Wishbone` for this request."""
        return Wishbone(
            objective=PartitionObjective(alpha=self.alpha, beta=self.beta),
            mode=self.mode,
            formulation=self.formulation,
            solver=self.solver,
            use_preprocess=self.use_preprocess,
            cpu_budget=self.cpu_budget,
            net_budget=self.net_budget,
            lp_engine=self.lp_engine,
            gap_tolerance=self.gap_tolerance,
            time_limit=self.time_limit,
            aggregate_fanin=self.aggregate_fanin,
        )

    #: Request fields a shared :class:`~repro.core.probe.ScaledProbe` can
    #: retarget per probe; everything else keys the cached formulation.
    _PROBE_FREE_FIELDS = frozenset(
        {"platform", "rate_factor", "cpu_budget", "net_budget"}
    )

    def probe_group(self, platform: str | None = None) -> tuple:
        """Key of the cached formulation this request can share.

        Derived by exclusion from the dataclass fields — everything
        except the rate factor and the two budgets (right-hand-side
        edits on the shared probe) participates, so a newly added
        request knob automatically splits groups instead of silently
        colliding.  ``platform`` supplies the service default when the
        request itself names none.
        """
        return (self.platform or platform,) + tuple(
            getattr(self, name)
            for name in sorted(self.__dataclass_fields__)
            if name not in self._PROBE_FREE_FIELDS
        )

    def to_payload(self) -> dict[str, Any]:
        """A JSON-ready dict (enums by value); inverse of
        :meth:`from_payload`.  The partition server's wire format."""
        payload: dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PartitionRequest":
        """Rebuild a request from :meth:`to_payload` output."""
        fields = cls.__dataclass_fields__
        unknown = set(payload) - set(fields)
        if unknown:
            raise WorkbenchError(
                f"unknown partition-request fields: {sorted(unknown)}"
            )
        enum_types = {
            "mode": RelocationMode,
            "formulation": Formulation,
            "solver": SolverBackend,
        }
        kwargs: dict[str, Any] = {}
        for name, value in payload.items():
            enum_type = enum_types.get(name)
            if enum_type is not None and not isinstance(value, enum_type):
                try:
                    value = enum_type(value)
                except ValueError as exc:
                    raise WorkbenchError(f"bad request field {name!r}: {exc}")
            kwargs[name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class RateSearchRequest:
    """A §4.3 maximum-sustainable-rate search request."""

    partition: PartitionRequest = PartitionRequest()
    target_factor: float = 1.0
    tolerance: float = 0.01
    max_factor: float = 1024.0
    max_probes: int = 60
    incremental: bool = True


# ---------------------------------------------------------------------------
# Within-group solve order, shared by the in-process service and the
# partition server's sharding (repro.workbench.server): the server splits
# each group in this order into same-budget runs, and its workers answer
# every run with PartitionService.partition_many itself.
# ---------------------------------------------------------------------------


def group_order(
    indices: Sequence[int],
    requests: Sequence["PartitionRequest"],
    resolved: Mapping[int, tuple[float, float]],
) -> list[int]:
    """Solve order within one group: sorted (cpu, net, rate), stable.

    Consecutive solves differ by a handful of right-hand-side entries, so
    the persistent relaxation's basis stays hot; the stable tie-break on
    the original position keeps the order a pure function of the batch.
    """
    return sorted(
        indices, key=lambda i: (*resolved[i], requests[i].rate_factor)
    )


class PartitionService:
    """Answers partition requests against per-platform profiles, batching
    compatible requests onto shared cached formulations.

    The service is deliberately decoupled from sessions: anything that
    can supply a factor-1.0 :class:`GraphProfile` per platform name can
    run one (the CLI does, the benchmarks do).  Probes persist across
    calls, so a long-lived service keeps serving warm.
    """

    def __init__(
        self, profile_for_platform, default_platform: str = "tmote"
    ) -> None:
        self._profile_for_platform = profile_for_platform
        self.default_platform = default_platform
        self._profiles: dict[str, GraphProfile] = {}
        self._probes: dict[tuple, ScaledProbe] = {}

    def _platform_name(self, request: PartitionRequest) -> str:
        return request.platform or self.default_platform

    def _with_platform(self, request: PartitionRequest) -> PartitionRequest:
        """The request with its platform made explicit (result metadata)."""
        if request.platform is None:
            request = replace(request, platform=self.default_platform)
        return request

    def profile(self, platform: str | None = None) -> GraphProfile:
        """The cached factor-1.0 profile for a platform (service-internal
        instance — shared, do not mutate)."""
        platform = platform or self.default_platform
        if platform not in self._profiles:
            self._profiles[platform] = self._profile_for_platform(platform)
        return self._profiles[platform]

    def _probe(self, request: PartitionRequest) -> ScaledProbe:
        key = request.probe_group(self.default_platform)
        probe = self._probes.get(key)
        if probe is None:
            # The base formulation uses the platform-default budgets;
            # every solve overrides them explicitly, so the base values
            # never leak into results.
            probe = request.partitioner().with_overrides(
                cpu_budget=None, net_budget=None
            ).prepare_probe(self.profile(self._platform_name(request)))
            self._probes[key] = probe
        return probe

    def _resolved_budgets(
        self, request: PartitionRequest
    ) -> tuple[float, float]:
        platform = get_platform(self._platform_name(request))
        return request.partitioner().resolve_budgets(platform)

    def partition(self, request: PartitionRequest) -> PartitionResult:
        """Serve one request (raises :class:`InfeasiblePartition`)."""
        cpu_budget, net_budget = self._resolved_budgets(request)
        result = self._probe(request).partition(
            request.rate_factor,
            cpu_budget=cpu_budget,
            net_budget=net_budget,
        )
        result.request = self._with_platform(request)
        return result

    def try_partition(
        self, request: PartitionRequest
    ) -> PartitionResult | None:
        try:
            return self.partition(request)
        except InfeasiblePartition:
            return None

    def partition_many(
        self,
        requests: Sequence[PartitionRequest],
        skip_infeasible: bool = False,
    ) -> list[PartitionResult | None]:
        """Serve a batch of requests, amortizing formulation and warm starts.

        Requests are grouped by :meth:`PartitionRequest.probe_group` and
        each group is solved through one cached formulation in sorted
        (cpu_budget, net_budget, rate) order — consecutive solves differ
        by a handful of right-hand-side entries, so the persistent
        relaxation's basis stays hot.  Results come back in request
        order.  With ``skip_infeasible`` an infeasible request yields
        ``None`` instead of raising.
        """
        order: dict[tuple, list[int]] = {}
        for index, request in enumerate(requests):
            key = request.probe_group(self.default_platform)
            order.setdefault(key, []).append(index)

        results: list[PartitionResult | None] = [None] * len(requests)
        for group_indices in order.values():
            resolved = {
                i: self._resolved_budgets(requests[i]) for i in group_indices
            }
            ordered_indices = group_order(group_indices, requests, resolved)
            probe = self._probe(requests[ordered_indices[0]])
            # Batch answers are a pure function of the batch: a cached
            # probe must not carry the previous batch's (or a previous
            # single call's) warm-start state into this one, or repeated
            # identical batches could pick different within-gap/tie
            # solutions — and a server worker, which answers each run of
            # a batch through this method on probes it has reused across
            # earlier runs, would stop matching an in-process batch.
            probe.reset_solver_state()
            solve = probe.try_partition if skip_infeasible else probe.partition
            for i in ordered_indices:
                cpu_budget, net_budget = resolved[i]
                result = solve(
                    requests[i].rate_factor,
                    cpu_budget=cpu_budget,
                    net_budget=net_budget,
                )
                if result is not None:
                    result.request = self._with_platform(requests[i])
                results[i] = result
        return results


class Session:
    """A scenario bound to a profile store: the 5-line workflow object.

    Args:
        scenario: registered scenario name (or a :class:`Scenario`).
        store: durable :class:`ProfileStore`; ``None`` creates a private
            in-memory store (still defensive-copying).
        platform: default platform for requests that do not name one.
        profiler: profiler configuration for measurements (defaults to
            the harness configuration: batched, mean-load).
        result_cache: memoization of :meth:`partition_many` answers.
            ``None`` (default) shares the store's directory — durable
            when the store is, in-memory otherwise; pass a
            :class:`~repro.workbench.cache.ResultCache` to share one
            across sessions, or ``False`` to disable memoization.
        params: scenario parameter overrides (e.g. ``n_channels=4``),
            merged over the scenario's declared defaults.
    """

    def __init__(
        self,
        scenario: str | Scenario,
        store: ProfileStore | None = None,
        platform: str = "tmote",
        profiler: Profiler | None = None,
        result_cache: "ResultCache | bool | None" = None,
        params: Mapping[str, Any] | None = None,
        **param_overrides: Any,
    ) -> None:
        self.scenario = get_scenario(scenario)
        self.store = store if store is not None else ProfileStore()
        self.platform = platform
        self.profiler = profiler
        if result_cache is None or result_cache is True:
            self.result_cache: ResultCache | None = ResultCache(
                self.store.root
            )
        elif result_cache is False:
            self.result_cache = None
        else:
            self.result_cache = result_cache
        merged = dict(params or {})
        merged.update(param_overrides)
        self.params = self.scenario.resolve_params(merged)
        self.service = PartitionService(
            self._factor_one_profile, default_platform=platform
        )

    # -- profiling ----------------------------------------------------------

    def _profiler_for(self, plan: "ExecutionPlan | None") -> Profiler | None:
        """The session profiler with ``plan``'s config overrides applied.

        ``batch_size`` does not enter the profile content key (chunking
        preserves per-source element order, so measurements are
        byte-identical for every chunk size), so a plan that only sets
        it shares store entries with plain sessions.
        """
        if plan is None:
            return self.profiler
        base = (
            self.profiler
            if self.profiler is not None
            else Profiler(**DEFAULT_PROFILER_CONFIG)
        )
        return base.with_plan(plan)

    def measurement(
        self, plan: "ExecutionPlan | None" = None
    ) -> Measurement:
        """The scenario's (cached) platform-independent measurement.

        ``plan`` overrides the profiler's execution configuration for
        this lookup — e.g. ``ExecutionPlan(batch=False)`` profiles
        cache misses element by element.
        """
        _, measurement = self.store.measurement(
            self.scenario, self.params, self._profiler_for(plan)
        )
        return measurement

    def graph(self) -> StreamGraph:
        """A fresh instance of the scenario's graph."""
        return self.scenario.build(self.params)

    def _factor_one_profile(self, platform: str) -> GraphProfile:
        return self.measurement().on(get_platform(platform))

    def profile(
        self,
        platform: str | None = None,
        rate_factor: float = 1.0,
        plan: "ExecutionPlan | None" = None,
    ) -> GraphProfile:
        """The scenario costed on a platform (optionally rate-scaled).

        Returns a freshly materialized profile the caller owns outright;
        internal solving/deployment paths share the service's cached
        instance instead.  ``plan`` overrides profiler execution config
        (batching, chunk size) for this call.
        """
        if plan is None:
            profile = self._factor_one_profile(platform or self.platform)
        else:
            profile = self.measurement(plan).on(
                get_platform(platform or self.platform)
            )
        if rate_factor != 1.0:
            profile = profile.scaled(rate_factor)
        return profile

    # -- partitioning -------------------------------------------------------

    def _request(
        self, request: PartitionRequest | None, overrides: dict[str, Any]
    ) -> PartitionRequest:
        if request is None:
            request = PartitionRequest()
        if overrides:
            request = replace(request, **overrides)
        return request

    def partition(
        self, request: PartitionRequest | None = None, **overrides: Any
    ) -> PartitionResult:
        """Partition under one request (raises on infeasibility)."""
        return self.service.partition(self._request(request, overrides))

    def try_partition(
        self, request: PartitionRequest | None = None, **overrides: Any
    ) -> PartitionResult | None:
        """Like :meth:`partition`, ``None`` on infeasibility."""
        return self.service.try_partition(self._request(request, overrides))

    def partition_many(
        self,
        requests: Sequence[PartitionRequest],
        skip_infeasible: bool = False,
        server: Any = None,
    ) -> list[PartitionResult | None]:
        """Batched partitioning (see :meth:`PartitionService.partition_many`).

        With ``server`` set — one partition server's or gateway's
        address (``"host:port"`` or an ``(host, port)`` pair), or an
        open :class:`~repro.workbench.server.ServerClient` — the batch
        is served remotely instead of solved in process.  A spec naming
        several backends raises
        :class:`~repro.workbench.transport.ServerError`: route those
        through ``python -m repro gateway``.  Served results are
        reconstructed from their wire artifacts and are equivalent to
        the in-process answers (see ``tests/workbench/test_server.py``).
        """
        if server is not None:
            from .server import ServerClient

            if isinstance(server, ServerClient):
                return server.partition_many(
                    self.scenario.name,
                    requests,
                    params=self.params,
                    platform=self.platform,
                    profiler=self.profiler,
                    skip_infeasible=skip_infeasible,
                )
            with ServerClient(server) as client:
                return client.partition_many(
                    self.scenario.name,
                    requests,
                    params=self.params,
                    platform=self.platform,
                    profiler=self.profiler,
                    skip_infeasible=skip_infeasible,
                )
        cache = self.result_cache
        if cache is None:
            return self.service.partition_many(
                requests, skip_infeasible=skip_infeasible
            )

        # Memoized path: serve hits from the cache byte-identically (in
        # canonical form) and run only the misses through the service —
        # grouped/ordered by the same code as always, so an all-miss
        # batch behaves exactly like the uncached path.
        keys = [
            result_key(
                self.scenario, self.params, self.profiler, self.platform,
                request,
            )
            for request in requests
        ]
        results: list[PartitionResult | None] = [None] * len(requests)
        misses: list[int] = []
        graph: StreamGraph | None = None
        for index, key in enumerate(keys):
            entry = cache.lookup(key)
            if entry is None:
                misses.append(index)
                continue
            if cache.is_infeasible(entry[0]):
                if not skip_infeasible:
                    cache.raise_infeasible(key)
                results[index] = None
                continue
            if graph is None:
                graph = self.scenario.build(self.params)
            result = cache.materialize(entry, graph)
            result.request = self.service._with_platform(requests[index])
            results[index] = result
        if misses:
            solved = self.service.partition_many(
                [requests[i] for i in misses],
                skip_infeasible=skip_infeasible,
            )
            graph_ref = {
                "scenario": self.scenario.name,
                "params": dict(self.params),
            }
            for index, result in zip(misses, solved):
                # A None result only exists under skip_infeasible, and
                # proven infeasibility is itself a cacheable answer.
                cache.store(keys[index], result, graph_ref)
                results[index] = result
        return results

    def rate_search(
        self, request: RateSearchRequest | None = None, **overrides: Any
    ) -> RateSearchResult:
        """§4.3 search for the maximum sustainable rate.

        Keyword overrides apply to the nested :class:`PartitionRequest`
        when they name one of its fields, else to the search itself
        (e.g. ``tolerance=0.02``).
        """
        if request is None:
            request = RateSearchRequest()
        partition_fields = set(PartitionRequest.__dataclass_fields__)
        partition_overrides = {
            k: v for k, v in overrides.items() if k in partition_fields
        }
        search_overrides = {
            k: v for k, v in overrides.items() if k not in partition_fields
        }
        unknown = set(search_overrides) - set(
            RateSearchRequest.__dataclass_fields__
        )
        if unknown:
            raise WorkbenchError(
                f"unknown rate-search options: {sorted(unknown)}"
            )
        if partition_overrides:
            request = replace(
                request,
                partition=replace(request.partition, **partition_overrides),
            )
        if search_overrides:
            request = replace(request, **search_overrides)

        profile = self.service.profile(request.partition.platform)
        search = RateSearch(
            request.partition.partitioner(),
            tolerance=request.tolerance,
            max_factor=request.max_factor,
            max_probes=request.max_probes,
            incremental=request.incremental,
        )
        return search.search(profile, target_factor=request.target_factor)

    # -- deployment ---------------------------------------------------------

    def deploy(
        self,
        result: PartitionResult | Partition | frozenset | set,
        n_nodes: int = 1,
        platform: str | None = None,
        rate_factor: float | None = None,
    ) -> DeploymentPrediction:
        """Predict deployment behaviour of a partition on a mote testbed.

        When ``result`` is a :class:`PartitionResult` produced by this
        workbench, the platform and rate factor it was *solved under*
        are recovered from the result itself; explicit arguments
        override them.  Raw partitions/node sets default to the
        session's platform at the profiled rate.
        """
        request = getattr(result, "request", None)
        if isinstance(request, PartitionRequest):
            if platform is None:
                platform = request.platform
            if rate_factor is None:
                rate_factor = request.rate_factor
        if rate_factor is None:
            rate_factor = 1.0
        platform_obj = get_platform(platform or self.platform)
        if platform_obj.radio is None:
            raise WorkbenchError(
                f"platform {platform_obj.name!r} has no radio to deploy on"
            )
        if isinstance(result, PartitionResult):
            node_set = result.partition.node_set
        elif isinstance(result, Partition):
            node_set = result.node_set
        else:
            node_set = frozenset(result)
        profile = self.service.profile(platform_obj.name)
        if rate_factor != 1.0:
            profile = profile.scaled(rate_factor)
        testbed = Testbed(platform_obj, n_nodes=n_nodes)
        return Deployment(profile, node_set, testbed).analyze()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Session({self.scenario.name!r}, platform={self.platform!r}, "
            f"params={self.params})"
        )
