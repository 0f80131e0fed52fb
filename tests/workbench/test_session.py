"""Sessions, the scenario registry, and the batched partition service."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core import InfeasiblePartition, RateSearchResult
from repro.platforms import get_platform
from repro.workbench import (
    PartitionRequest,
    Scenario,
    Session,
    WorkbenchError,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from repro.workbench.artifacts import canonical_json


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_builtin_scenarios_registered():
    names = [s.name for s in list_scenarios()]
    assert {"eeg", "speech", "leak"} <= set(names)


def test_get_scenario_unknown_raises():
    with pytest.raises(WorkbenchError, match="unknown scenario"):
        get_scenario("nope")


def test_unknown_scenario_param_rejected():
    with pytest.raises(WorkbenchError, match="no parameters"):
        Session("eeg", bogus_param=1)


def test_register_custom_scenario_roundtrip():
    from repro.dataflow import GraphBuilder

    def build(width: int):
        builder = GraphBuilder("toy")
        with builder.node():
            src = builder.source("src", output_size=width)

            def work(ctx, port, item):
                ctx.count(float_ops=float(width))
                ctx.emit(item)

            out = builder.iterate("id", src, work)
        builder.sink("out", out)
        return builder.build()

    def inputs(width: int, n: int):
        data = [np.zeros(width, dtype=np.float32) for _ in range(n)]
        return {"src": data}, {"src": 10.0}

    scenario = Scenario(
        name="toy-test",
        description="unit-test scenario",
        build_graph=build,
        make_inputs=inputs,
        defaults={"width": 8, "n": 40},
    )
    try:
        register_scenario(scenario)
        with pytest.raises(WorkbenchError, match="already registered"):
            register_scenario(scenario)
        session = Session("toy-test", n=20)
        result = session.partition(gap_tolerance=5e-3)
        assert result.feasible
        # one registration call made the scenario a first-class citizen
        assert session.profile().platform.name == "tmote"
    finally:
        unregister_scenario("toy-test")


# ---------------------------------------------------------------------------
# Session basics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def session():
    return Session("eeg", n_channels=4)


def test_session_platform_default_applies_to_explicit_requests():
    """A request that names no platform must inherit the session's,
    even when constructed explicitly (e.g. inside partition_many)."""
    session = Session("speech", platform="server")
    request = PartitionRequest(rate_factor=1.0, gap_tolerance=5e-3)
    result = session.partition(request)
    assert result.request.platform == "server"
    explicit = session.partition(replace(request, platform="server"))
    assert canonical_json(result) == canonical_json(explicit)
    # no radio on the server: the budget the answer was solved under
    _, net_budget = request.partitioner().resolve_budgets(
        get_platform("server")
    )
    assert net_budget >= 1e15
    [batched] = session.partition_many(
        [PartitionRequest(rate_factor=1.0, gap_tolerance=5e-3)]
    )
    assert batched.partition.node_set == result.partition.node_set
    # an explicit platform on the request still wins
    tmote_request = PartitionRequest(
        platform="tmote", rate_factor=0.05, gap_tolerance=5e-3
    )
    tmote = session.try_partition(tmote_request)
    _, net_budget = tmote_request.partitioner().resolve_budgets(
        get_platform("tmote")
    )
    assert net_budget < 1e15
    assert tmote is None or (
        tmote.request.platform == "tmote"
        and tmote.partition.network_bytes_per_sec <= net_budget + 1e-9
    )


def test_profile_rate_scaling(session):
    base = session.profile()
    scaled = session.profile(rate_factor=2.0)
    assert scaled.rate_factor == pytest.approx(2.0 * base.rate_factor)


def test_partition_and_rate_search(session):
    result = session.partition(
        rate_factor=2.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    assert result.feasible
    outcome = session.rate_search(tolerance=0.05, gap_tolerance=5e-3)
    assert isinstance(outcome, RateSearchResult)
    assert outcome.rate_factor > 0


def test_rate_search_unknown_option_rejected(session):
    with pytest.raises(WorkbenchError, match="unknown rate-search"):
        session.rate_search(bogus=1)


def test_partition_infeasible_raises_and_try_returns_none(session):
    request = PartitionRequest(
        rate_factor=1.0,
        cpu_budget=1e-9,
        net_budget=1e-9,
        gap_tolerance=5e-3,
    )
    with pytest.raises(InfeasiblePartition):
        session.partition(request)
    assert session.try_partition(request) is None


def test_deploy_prediction(session):
    result = session.partition(
        rate_factor=1.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    prediction = session.deploy(result, n_nodes=4)
    assert 0.0 <= prediction.goodput <= 1.0
    # also accepts raw node sets
    same = session.deploy(result.partition.node_set, n_nodes=4)
    assert same.goodput == prediction.goodput


def test_deploy_recovers_solved_rate_and_platform(session):
    """deploy(result) must predict at the rate/platform the result was
    solved under, not silently at the profiled rate."""
    result = session.partition(
        rate_factor=16.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    assert result.request.rate_factor == 16.0
    assert result.request.platform == "tmote"
    implicit = session.deploy(result, n_nodes=2)
    explicit = session.deploy(
        result.partition.node_set, n_nodes=2, rate_factor=16.0
    )
    assert implicit == explicit
    at_profiled_rate = session.deploy(result.partition.node_set, n_nodes=2)
    assert implicit != at_profiled_rate


def test_deploy_requires_radio(session):
    result = session.partition(
        rate_factor=1.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    with pytest.raises(WorkbenchError, match="radio"):
        session.deploy(result, platform="server")


# ---------------------------------------------------------------------------
# Batched serving (the acceptance batch, scaled down for CI)
# ---------------------------------------------------------------------------


def _acceptance_requests() -> list[PartitionRequest]:
    rates = [8.0, 12.0, 20.0, 30.0, 40.0]
    budgets = [1.2, 1.0, 0.9, 0.8]
    return [
        PartitionRequest(
            platform="tmote",
            rate_factor=rate,
            cpu_budget=budget,
            net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for budget in budgets
        for rate in rates
    ]


def test_partition_many_matches_independent_calls():
    """A 20-request EEG batch (mixed budgets/rates, one platform) must
    reproduce 20 independent Wishbone.partition calls.

    The EEG channels are identical, so the optimum can be a plateau of
    channel-permutation-equivalent partitions; on a plateau the two
    paths may return different representatives of the *same* optimum
    (equal objective, CPU, and cut), which we count as a tie.  Anything
    else is a real mismatch and fails.
    """
    session = Session("eeg", n_channels=4)
    requests = _acceptance_requests()
    batch = session.partition_many(requests, skip_infeasible=True)
    assert len(batch) == 20

    profile = session.profile()
    identical = 0
    for request, got in zip(requests, batch):
        independent = request.partitioner().try_partition(
            profile.scaled(request.rate_factor)
        )
        assert (got is None) == (independent is None)
        if got is None:
            identical += 1
            continue
        if got.partition.node_set == independent.partition.node_set:
            identical += 1
        else:
            a, b = got.partition, independent.partition
            assert a.objective_value == pytest.approx(
                b.objective_value, rel=1e-6
            )
            assert a.cpu_utilization == pytest.approx(
                b.cpu_utilization, abs=1e-9
            )
            assert a.network_bytes_per_sec == pytest.approx(
                b.network_bytes_per_sec, rel=1e-6
            )
        # every batch answer must satisfy its own request's budgets
        assert got.request.cpu_budget == request.cpu_budget
        assert got.partition.cpu_utilization <= request.cpu_budget + 1e-6
    assert identical >= 10  # ties are the exception, not the rule


def test_partition_many_returns_in_request_order():
    session = Session("eeg", n_channels=2)
    requests = [
        PartitionRequest(
            rate_factor=rate, gap_tolerance=5e-3, net_budget=float("inf")
        )
        for rate in (16.0, 2.0, 8.0)
    ]
    results = session.partition_many(requests, skip_infeasible=True)
    # Each answer is its own request's, solved alone: results must come
    # back in request order, not solve order.
    for req, res in zip(requests, results):
        alone = Session("eeg", n_channels=2).partition(req)
        assert canonical_json(res) == canonical_json(alone)
    loads = [res.partition.cpu_utilization for res in results]
    assert len(set(loads)) == len(loads)


def test_partition_many_raises_without_skip():
    session = Session("eeg", n_channels=2)
    requests = [
        PartitionRequest(rate_factor=1.0, gap_tolerance=5e-3),
        PartitionRequest(
            rate_factor=1.0, cpu_budget=1e-9, net_budget=1e-9,
            gap_tolerance=5e-3,
        ),
    ]
    with pytest.raises(InfeasiblePartition):
        session.partition_many(requests)


def test_service_probe_reuse_across_calls():
    session = Session("eeg", n_channels=2)
    r1 = PartitionRequest(
        rate_factor=4.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    r2 = PartitionRequest(
        rate_factor=9.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    session.partition(r1)
    probes_after_first = dict(session.service._probes)
    session.partition(r2)
    # same compatibility group -> same cached formulation
    assert session.service._probes == probes_after_first
    assert len(probes_after_first) == 1
