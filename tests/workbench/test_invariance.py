"""A partition answer depends only on its request.

Every answer in the solver benchmark's EEG-6 batch must equal, as a
canonical artifact, the same request solved alone on a fresh
:class:`Session`: whether it is solved inside the batch, in the batch
reversed, next to a result cache that already holds half the batch, by
a two-worker partition server, or by the request's own partitioner on a
rate-scaled profile.  A §4.3 rate search's result must equal a direct
request at the rate the search found.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
from rebuild_oracle import scaled_problem

from repro.workbench import (
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    RateSearchRequest,
    ResultCache,
    ServerClient,
    Session,
)
from repro.workbench.artifacts import canonical_json

PARAMS = {"n_channels": 6}


def benchmark_batch() -> list[PartitionRequest]:
    """``bench_solver``'s 20-request batch: 4 CPU budgets x 5 rates."""
    path = Path(__file__).parents[2] / "benchmarks" / "bench_solver.py"
    spec = importlib.util.spec_from_file_location("bench_solver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._partition_many_requests(20)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("invariance-store"))


def fresh_session(store_dir: str, **kwargs) -> Session:
    kwargs.setdefault("result_cache", False)
    return Session("eeg", store=ProfileStore(store_dir), params=PARAMS,
                   **kwargs)


@pytest.fixture(scope="module")
def batch():
    return benchmark_batch()


@pytest.fixture(scope="module")
def alone(store_dir, batch):
    """Each request's canonical answer, solved alone on a fresh session
    (``None`` where it is infeasible)."""
    answers = []
    for request in batch:
        result = fresh_session(store_dir).try_partition(request)
        answers.append(None if result is None else canonical_json(result))
    return answers


def differing(alone, results) -> list[int]:
    """Indices whose answer differs from the request solved alone."""
    assert len(results) == len(alone)
    return [
        index
        for index, (expected, result) in enumerate(zip(alone, results))
        if expected != (None if result is None else canonical_json(result))
    ]


def test_batch_answers_equal_requests_solved_alone(store_dir, batch, alone):
    results = fresh_session(store_dir).partition_many(
        batch, skip_infeasible=True
    )
    assert differing(alone, results) == []


def test_reversed_batch_answers_equal_requests_solved_alone(
    store_dir, batch, alone
):
    results = fresh_session(store_dir).partition_many(
        batch[::-1], skip_infeasible=True
    )
    assert differing(alone, results[::-1]) == []


def test_half_cached_batch_answers_equal_requests_solved_alone(
    store_dir, batch, alone, tmp_path
):
    """Seed a result cache with every other request, then serve the
    whole batch through it: the hits and the solved misses both equal
    the requests solved alone."""
    cache = ResultCache(str(tmp_path / "results"))
    session = fresh_session(store_dir, result_cache=cache)
    session.partition_many(batch[::2], skip_infeasible=True)
    assert cache.stats.stores == len(batch[::2])
    results = fresh_session(store_dir, result_cache=cache).partition_many(
        batch, skip_infeasible=True
    )
    assert cache.stats.hits == len(batch[::2])
    assert differing(alone, results) == []


def test_served_answers_equal_requests_solved_alone(store_dir, batch, alone):
    with PartitionServer(
        workers=2, store=store_dir, result_cache=False
    ) as server:
        with ServerClient(server.address) as client:
            results = client.partition_many(
                "eeg", batch, params=PARAMS, skip_infeasible=True
            )
    assert differing(alone, results) == []


def test_partitioner_on_a_scaled_profile_answers_like_the_session(
    store_dir, batch, alone
):
    """``Wishbone.partition`` on ``profile.scaled(f)`` is the session's
    answer: a scaled profile is formulated as its base, never rebuilt at
    the rate."""
    profile = fresh_session(store_dir).profile()
    results = [
        request.partitioner().try_partition(
            profile.scaled(request.rate_factor)
        )
        for request in batch
    ]
    assert differing(alone, results) == []


def test_a_chain_of_scalings_partitions_like_their_product(store_dir, batch):
    profile = fresh_session(store_dir).profile()
    for request, (a, b) in zip(batch[::4], [(2.0, 4.0), (0.3, 40.0)] * 3):
        partitioner = replace(request, rate_factor=a * b).partitioner()
        chained = partitioner.try_partition(profile.scaled(a).scaled(b))
        direct = partitioner.try_partition(profile.scaled(a * b))
        assert (chained is None) == (direct is None)
        if direct is not None:
            assert canonical_json(chained) == canonical_json(direct)


@pytest.mark.parametrize("channels", [3, 4])
def test_rate_search_result_equals_a_direct_request(store_dir, channels):
    """The e2ebench EEG rate search: its result is the answer a direct
    request at the found rate gets."""
    request = PartitionRequest(platform="tmote", gap_tolerance=5e-3)
    store = ProfileStore(store_dir)
    params = {"n_channels": channels}
    found = Session(
        "eeg", store=store, params=params, result_cache=False
    ).rate_search(
        RateSearchRequest(partition=request, target_factor=1024.0)
    )
    assert found.result is not None
    direct = Session(
        "eeg", store=store, params=params, result_cache=False
    ).partition(replace(request, rate_factor=found.rate_factor))
    assert canonical_json(found.result) == canonical_json(direct)


def same_bits(a, b) -> bool:
    return (type(a), repr(a)) == (type(b), repr(b))


def assert_loads_match_the_scaled_instance(session, requests) -> int:
    """Each answer's CPU load, network load and objective are, bit for
    bit, its node set evaluated on the base problem scaled to the rate
    with the request's budgets (``tests/rebuild_oracle.py``); returns
    how many answers were feasible."""
    feasible = 0
    for request in requests:
        result = session.try_partition(request)
        if result is None:
            continue
        feasible += 1
        service = session.service
        cpu_budget, net_budget = service._resolved_budgets(request)
        problem = scaled_problem(
            service._probe(request).problem,
            request.rate_factor,
            cpu_budget,
            net_budget,
        )
        partition = result.partition
        node_set = set(partition.node_set)
        assert problem.is_feasible(node_set)
        assert same_bits(partition.cpu_utilization, problem.cpu_load(node_set))
        assert same_bits(
            partition.network_bytes_per_sec, problem.net_load(node_set)
        )
        assert same_bits(
            partition.objective_value, problem.objective(node_set)
        )
    return feasible


def test_answer_loads_are_the_scaled_instance_bits(store_dir, batch):
    assert assert_loads_match_the_scaled_instance(
        fresh_session(store_dir), batch
    )


@pytest.mark.parametrize("channels", [2, 3, 4])
def test_eeg_grid_loads_are_the_scaled_instance_bits(store_dir, channels):
    """The e2ebench EEG grid (5 rates x 4 budgets)."""
    requests = [
        PartitionRequest(
            platform="tmote",
            rate_factor=rate,
            cpu_budget=budget,
            net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for rate in (8.0, 12.0, 20.0, 30.0, 40.0)
        for budget in (1.2, 1.0, 0.9, 0.8)
    ]
    session = Session(
        "eeg",
        store=ProfileStore(store_dir),
        params={"n_channels": channels},
        result_cache=False,
    )
    assert assert_loads_match_the_scaled_instance(session, requests)
