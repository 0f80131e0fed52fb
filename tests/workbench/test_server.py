"""Cross-layer equivalence and fault tolerance of the partition server.

The server's contract: a served batch returns artifacts *byte-identical*
(canonical form — wall-clock telemetry zeroed) to the in-process
``Session.partition_many`` answers, regardless of worker count, request
order, concurrent clients, or a worker being SIGKILLed mid-batch.

The result cache is disabled on *both* sides throughout this file: the
sessions and servers here share one durable store, and a cache hit would
answer from disk instead of exercising the sharded solve path these
tests exist to pin.  The exceptions are the tests of where a fresh answer
is encoded and persisted, which give each server a fresh cache directory.
Cached-path equivalence (hits byte-identical to the solves that populated
them) is pinned by ``tests/workbench/test_result_cache.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InfeasiblePartition, Wishbone
from repro.workbench import (
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    ServerClient,
    ServerError,
    Session,
    WorkbenchError,
)
from repro.runtime import frames
from repro.workbench import artifacts, cache as cache_module
from repro.workbench import server as server_module
from repro.workbench.artifacts import canonical_document, canonical_json
from repro.runtime.frames import encode_message
from repro.workbench.cache import RESULT_PREFIX, CacheEntry, result_key
from repro.workbench.scenarios import Scenario
from repro.workbench.server import _result_frames, _session_for

#: Small scenario parameterizations so profiling (shared via a durable
#: store) and the per-request solves stay fast.
SCENARIO_PARAMS = {
    "eeg": {"n_channels": 3},
    "speech": {"duration_s": 1.0},
    "leak": {"duration_s": 5.0},
}


def batch_for(scenario: str) -> list[PartitionRequest]:
    """Mixed budgets and rates, including one hopeless request."""
    requests = [
        PartitionRequest(
            rate_factor=rate,
            cpu_budget=cpu,
            net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for cpu in (1.0, 0.9)
        for rate in (1.0, 2.0, 6.0)
    ]
    # A CPU budget no partition can satisfy: exercises the None path.
    requests.append(
        PartitionRequest(
            rate_factor=500000.0, cpu_budget=1e-9, gap_tolerance=5e-3
        )
    )
    return requests


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("server-store"))


@pytest.fixture(scope="module")
def server(store_dir):
    with PartitionServer(
        workers=2, store=store_dir, result_cache=False
    ) as srv:
        yield srv


def local_session(scenario: str, store_dir: str) -> Session:
    return Session(
        scenario, store=ProfileStore(store_dir),
        params=SCENARIO_PARAMS[scenario], result_cache=False,
    )


def assert_equivalent(local_results, served_results):
    assert len(local_results) == len(served_results)
    for index, (local, served) in enumerate(
        zip(local_results, served_results)
    ):
        assert (local is None) == (served is None), f"request {index}"
        if local is None:
            continue
        assert local.partition.node_set == served.partition.node_set, (
            f"request {index}: decisions differ"
        )
        assert canonical_json(local) == canonical_json(served), (
            f"request {index}: canonical artifacts differ"
        )


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIO_PARAMS))
def test_served_equals_inprocess(server, store_dir, scenario):
    requests = batch_for(scenario)
    local = local_session(scenario, store_dir).partition_many(
        requests, skip_infeasible=True
    )
    with ServerClient(server.address) as client:
        served = client.partition_many(
            scenario,
            requests,
            params=SCENARIO_PARAMS[scenario],
            skip_infeasible=True,
        )
    assert any(r is None for r in served)  # the hopeless request
    assert any(r is not None for r in served)
    assert_equivalent(local, served)


def test_answer_is_its_decision(server, store_dir, tmp_path):
    """An answer carries its decision and nothing else: an EEG-4
    answer's header is at most 4 KB with an empty body, it holds no
    instance or solution vector, storing it writes no npz sidecar, and
    its reduction ratio survives a served round trip."""
    params = {"n_channels": 4}
    request = PartitionRequest(
        rate_factor=8.0,
        cpu_budget=1.2,
        net_budget=float("inf"),
        gap_tolerance=5e-3,
    )
    session = Session(
        "eeg", store=ProfileStore(store_dir), params=params,
        result_cache=False,
    )
    local = session.partition(request)
    ref = {"scenario": "eeg", "params": dict(session.params)}
    document, arrays = artifacts.to_document(local, ref)
    header, body = encode_message(document, arrays)
    assert len(header) <= 4096
    assert body == b""
    payload = document["payload"]
    assert not {"problem", "reduced", "pins", "solution"} & set(payload)
    solution = payload["partition"]["solution"]
    assert not {"x", "names", "reduced_costs"} & set(solution)

    cache = cache_module.ResultCache(tmp_path)
    cache.store("answer", local, ref)
    assert [p.name for p in tmp_path.iterdir()] == ["result-answer.json"]

    with ServerClient(server.address) as client:
        (served,) = client.partition_many("eeg", [request], params=params)
    assert served.reduction_ratio == local.reduction_ratio > 0.0
    assert canonical_json(served) == canonical_json(local)


def test_served_results_carry_requests_for_deploy(server, store_dir):
    """Served results re-enter the workflow: deploy() recovers context."""
    session = local_session("eeg", store_dir)
    request = PartitionRequest(rate_factor=2.0, gap_tolerance=5e-3)
    with ServerClient(server.address) as client:
        (served,) = client.partition_many(
            "eeg", [request], params=SCENARIO_PARAMS["eeg"]
        )
    assert served.request.platform == "tmote"
    assert served.request.rate_factor == 2.0
    prediction = session.deploy(served, n_nodes=2)
    local = session.partition(request)
    expected = session.deploy(local, n_nodes=2)
    assert prediction.goodput == pytest.approx(expected.goodput)


def test_session_partition_many_server_kwarg(server, store_dir):
    """Session.partition_many(server=...) is the same as going direct."""
    requests = batch_for("eeg")[:4]
    session = local_session("eeg", store_dir)
    local = session.partition_many(requests, skip_infeasible=True)
    # A session with *no* local profile store: all solving is remote.
    remote_session = Session("eeg", params=SCENARIO_PARAMS["eeg"])
    host, port = server.address
    served = remote_session.partition_many(
        requests, skip_infeasible=True, server=f"{host}:{port}"
    )
    assert remote_session.store.stats.misses == 0  # nothing profiled here
    assert_equivalent(local, served)


def test_shuffled_request_order_is_normalized(server, store_dir):
    """The answers are a pure function of each request, not of batch
    order: serving a shuffled batch returns the same artifact per
    request."""
    requests = batch_for("eeg")
    order = list(range(len(requests)))
    rng = np.random.default_rng(7)
    rng.shuffle(order)
    shuffled = [requests[i] for i in order]
    with ServerClient(server.address) as client:
        plain = client.partition_many(
            "eeg", requests, params=SCENARIO_PARAMS["eeg"],
            skip_infeasible=True,
        )
        served = client.partition_many(
            "eeg", shuffled, params=SCENARIO_PARAMS["eeg"],
            skip_infeasible=True,
        )
    for position, original_index in enumerate(order):
        a, b = plain[original_index], served[position]
        assert (a is None) == (b is None)
        if a is not None:
            assert canonical_json(a) == canonical_json(b)


def test_repeated_batches_are_pure_functions_of_the_batch(server, store_dir):
    """Running one batch twice through one session returns identical
    canonical artifacts both times — a cached probe carries nothing
    across batch boundaries — and both match the served answers."""
    requests = [
        PartitionRequest(rate_factor=r, cpu_budget=0.9, gap_tolerance=5e-3)
        for r in (1.0, 2.0, 4.0, 6.0)
    ]
    session = local_session("eeg", store_dir)
    first = session.partition_many(requests, skip_infeasible=True)
    second = session.partition_many(requests, skip_infeasible=True)
    assert_equivalent(first, second)
    with ServerClient(server.address) as client:
        served = client.partition_many(
            "eeg", requests, params=SCENARIO_PARAMS["eeg"],
            skip_infeasible=True,
        )
    assert_equivalent(first, served)


def test_job_timeout_abandons_stuck_worker(store_dir, monkeypatch):
    """A wedged job errors out to the client instead of hanging, and
    the pool retires the stuck worker."""
    monkeypatch.setenv("REPRO_SERVER_TEST_DELAY", "30")
    with PartitionServer(
        workers=1, store=store_dir, job_timeout=1.0, result_cache=False
    ) as srv:
        with ServerClient(srv.address) as client:
            with pytest.raises(ServerError, match="abandoned"):
                client.partition_many(
                    "eeg",
                    [PartitionRequest(rate_factor=1.0, gap_tolerance=5e-3)],
                    params=SCENARIO_PARAMS["eeg"],
                    skip_infeasible=True,
                )
            # terminate -> sentinel -> respawn is asynchronous.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = client.ping()
                if stats["respawned"] >= 1:
                    break
                time.sleep(0.1)
            assert stats["respawned"] >= 1
            assert stats["requeued"] == 0  # abandoned, not retried


def test_bad_server_address_is_a_typed_error():
    with pytest.raises(ServerError, match="not host:port"):
        ServerClient("127.0.0.1:not-a-port")
    with pytest.raises(ServerError, match="not host:port"):
        ServerClient(12345)


def budget_batch(cpu: float) -> list[PartitionRequest]:
    """One probe group at one CPU budget, three rates."""
    return [
        PartitionRequest(rate_factor=rate, cpu_budget=cpu, gap_tolerance=5e-3)
        for rate in (1.0, 2.0, 6.0)
    ]


def test_probe_group_is_formulated_once_per_process(store_dir, monkeypatch):
    """A degraded server solves in this process: two batches of one
    probe group formulate it once, and every later job re-probes the
    cached formulation."""
    calls = []
    original = Wishbone.prepare_probe

    def counting_prepare(self, profile):
        calls.append(profile.graph.name)
        return original(self, profile)

    monkeypatch.setattr(Wishbone, "prepare_probe", counting_prepare)
    with pytest.warns(RuntimeWarning, match="no live workers"):
        with PartitionServer(
            workers=0, min_workers=0, store=store_dir, result_cache=False
        ) as srv:
            with ServerClient(srv.address) as client:
                for cpu in (1.0, 0.9):
                    client.partition_many(
                        "eeg", budget_batch(cpu),
                        params=SCENARIO_PARAMS["eeg"], skip_infeasible=True,
                    )
                # One inline job per request.
                assert client.stats()["degraded_runs"] == 6
    assert len(calls) == 1


def test_reused_worker_probe_answers_like_a_fresh_one(store_dir):
    """One worker answers A, B, then A again through the probe it built
    for A: each reply equals a fresh in-process batch, so a reused probe
    carries nothing from the requests it served before."""
    with PartitionServer(
        workers=1, store=store_dir, result_cache=False
    ) as srv:
        with ServerClient(srv.address) as client:
            for cpu in (1.0, 0.9, 1.0):
                requests = budget_batch(cpu)
                served = client.partition_many(
                    "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                    skip_infeasible=True,
                )
                local = local_session("eeg", store_dir).partition_many(
                    requests, skip_infeasible=True
                )
                assert_equivalent(local, served)


def test_worker_sessions_are_bounded(store_dir, monkeypatch):
    """Past the bound the least recently used session is dropped: with
    room for one, alternating two scenarios keeps one session, rebuilds
    the evicted one on return, and every answer equals a fresh
    session's."""
    monkeypatch.setattr(server_module, "_SESSIONS", 1)
    sessions: dict = {}
    store = ProfileStore(store_dir)
    built = []
    for scenario in ("eeg", "speech", "eeg"):
        session = _session_for(
            sessions, store, scenario, SCENARIO_PARAMS[scenario], "tmote",
            None,
        )
        assert list(sessions.values()) == [session]
        assert all(session is not earlier for earlier in built)
        built.append(session)
        requests = budget_batch(0.9)
        assert_equivalent(
            local_session(scenario, store_dir).partition_many(
                requests, skip_infeasible=True
            ),
            session.service.partition_many(requests, skip_infeasible=True),
        )


def warm_cache_dir(store_dir: str, tmp_path) -> str:
    """A fresh store holding the shared store's profiles (no results):
    profiling stays warm while every request must be solved."""
    root = tmp_path / "cache"
    root.mkdir()
    for name in os.listdir(store_dir):
        source = os.path.join(store_dir, name)
        if os.path.isfile(source) and not name.startswith(RESULT_PREFIX):
            shutil.copy(source, root / name)
    return str(root)


def test_parent_only_forwards_fresh_answers(
    store_dir, tmp_path, monkeypatch
):
    """Once the workers are forked, the parent needs none of the code
    that encodes, decodes or writes an answer: a cold batch with every
    such function refusing answers in the parent still comes back equal
    to the in-process one."""
    requests = batch_for("eeg")
    local = local_session("eeg", store_dir).partition_many(
        requests, skip_infeasible=True
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the server parent serialized an answer")

    def refuse_answers(original):
        def encode(document, arrays=None):
            if document.get("schema") == "repro.workbench":
                refuse()
            return original(document, arrays)

        return encode

    with PartitionServer(
        workers=2, store=warm_cache_dir(store_dir, tmp_path)
    ) as srv, monkeypatch.context() as patch:
        patch.setattr(artifacts, "to_document", refuse)
        patch.setattr(artifacts, "write_document", refuse)
        patch.setattr(cache_module, "decode_message", refuse)
        for module in (frames, cache_module, server_module):
            patch.setattr(
                module, "encode_message",
                refuse_answers(module.encode_message),
            )
        with ServerClient(srv.address) as client:
            served = client.partition_many(
                "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                skip_infeasible=True,
            )
        assert srv.result_cache.stats.stores == len(requests)
    assert_equivalent(local, served)


def test_answers_are_durable_when_the_reply_arrives(store_dir, tmp_path):
    """Workers write each answer's result entry before replying: when
    ``partition_many`` returns, every entry reads back from disk, and
    each solved one holds the answer the client got."""
    requests = batch_for("eeg")
    root = warm_cache_dir(store_dir, tmp_path)
    with PartitionServer(workers=2, store=root) as srv:
        with ServerClient(srv.address) as client:
            served = client.partition_many(
                "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                skip_infeasible=True,
            )
            kinds = []
            for request, result in zip(requests, served):
                key = result_key(
                    "eeg", SCENARIO_PARAMS["eeg"], None, "tmote", request
                )
                document, arrays = artifacts.read_document(
                    os.path.join(root, f"{RESULT_PREFIX}{key}.json")
                )
                kinds.append(document["kind"])
                if result is not None:
                    stored = artifacts.from_document(document, arrays)
                    assert canonical_json(stored) == canonical_json(result)
    assert kinds.count("infeasible_result") == 1
    assert kinds.count("partition_result") == len(requests) - 1


def test_degraded_runner_replies_like_a_worker(store_dir, tmp_path):
    """The in-process fallback runs the workers' own job code: for the
    same job its reply carries the same bytes, wall-clock fields
    aside."""

    def canonical(answer):
        header = answer.header
        return (
            None if header is None
            else canonical_document(json.loads(header)),
            answer.body,
            answer.store_errors,
        )

    requests = batch_for("eeg")
    with PartitionServer(
        workers=1, store=warm_cache_dir(store_dir, tmp_path)
    ) as srv:
        jobs = srv._submit_batch(
            {
                "scenario": "eeg",
                "params": SCENARIO_PARAMS["eeg"],
                "skip_infeasible": True,
                "requests": [r.to_payload() for r in requests],
            }
        )[0]
        assert len(jobs) > 1
        for job in jobs:
            assert job.event.wait(120.0) and job.error is None, job.error
            inline = srv._solve_inline(job.payload)
            assert canonical(inline) == canonical(job.result)
            assert inline.store_errors == 0


def test_degraded_batch_is_drained_by_one_runner_thread(
    store_dir, monkeypatch
):
    """With no workers, a batch of misses is answered in process by a
    single runner thread (not one thread per job), and the answers
    equal in-process ones."""
    earlier = set(threading.enumerate())
    alive = []
    original = PartitionServer._solve_inline

    def counting_solve(self, payload):
        alive.append(
            sum(
                t not in earlier and t.name.startswith("degraded-")
                for t in threading.enumerate()
            )
        )
        return original(self, payload)

    monkeypatch.setattr(PartitionServer, "_solve_inline", counting_solve)
    requests = budget_batch(1.0) + budget_batch(0.9)
    with pytest.warns(RuntimeWarning, match="no live workers"):
        with PartitionServer(
            workers=0, min_workers=0, store=store_dir, result_cache=False
        ) as srv:
            with ServerClient(srv.address) as client:
                served = client.partition_many(
                    "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                    skip_infeasible=True,
                )
                assert client.stats()["degraded_runs"] == len(requests)
    assert len(alive) == len(requests) >= 4
    assert max(alive) == 1
    local = local_session("eeg", store_dir).partition_many(
        requests, skip_infeasible=True
    )
    assert_equivalent(local, served)


def test_in_memory_store_server_equals_inprocess():
    """With no ``store`` each worker profiles into its own in-memory
    store; the answers still equal the in-process ones."""
    requests = budget_batch(1.0) + budget_batch(0.9)
    local = Session(
        "eeg", params=SCENARIO_PARAMS["eeg"], result_cache=False
    ).partition_many(requests, skip_infeasible=True)
    with PartitionServer(workers=2, result_cache=False) as srv:
        with ServerClient(srv.address) as client:
            served = client.partition_many(
                "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                skip_infeasible=True,
            )
    assert_equivalent(local, served)


def test_equivalence_across_distinct_hash_seeds(server, store_dir):
    """The byte-identity contract holds between *unrelated* processes.

    Every other test forks the comparator from this process, so both
    sides share one string-hash seed; a hash-order-dependent float
    summation (set iteration!) would slip through.  Here the in-process
    comparator runs in a subprocess with a different PYTHONHASHSEED and
    must still reproduce the served artifacts byte for byte.
    """
    import os as _os
    import subprocess
    import sys

    requests = batch_for("eeg")
    with ServerClient(server.address) as client:
        served = client.partition_many(
            "eeg", requests, params=SCENARIO_PARAMS["eeg"],
            skip_infeasible=True,
        )
    script = """
import sys
from repro.workbench import PartitionRequest, ProfileStore, Session
from repro.workbench.artifacts import canonical_json
import json
spec = json.loads(sys.stdin.read())
session = Session("eeg", store=ProfileStore(spec["store"]),
                  params=spec["params"], result_cache=False)
requests = [PartitionRequest.from_payload(p) for p in spec["requests"]]
for result in session.partition_many(requests, skip_infeasible=True):
    print(json.dumps(None) if result is None else canonical_json(result))
"""
    # Inherits PYTHONPATH (the tier-1 invocation sets it to src/) but
    # pins a hash seed that differs from this process's randomized one.
    env = {**_os.environ, "PYTHONHASHSEED": "4242"}
    import json as _json

    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=_json.dumps(
            {
                "store": store_dir,
                "params": SCENARIO_PARAMS["eeg"],
                "requests": [r.to_payload() for r in requests],
            }
        ),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == len(served)
    for line, result in zip(lines, served):
        if result is None:
            assert line == "null"
        else:
            assert line == canonical_json(result)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def test_concurrent_clients(server, store_dir):
    scenarios = ["eeg", "speech", "leak"]
    local = {
        name: local_session(name, store_dir).partition_many(
            batch_for(name), skip_infeasible=True
        )
        for name in scenarios
    }
    outcomes: dict[str, list] = {}
    errors: list[BaseException] = []

    def run(name: str) -> None:
        try:
            with ServerClient(server.address) as client:
                outcomes[name] = client.partition_many(
                    name,
                    batch_for(name),
                    params=SCENARIO_PARAMS[name],
                    skip_infeasible=True,
                )
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(name,)) for name in scenarios
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    for name in scenarios:
        assert_equivalent(local[name], outcomes[name])


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------


def test_worker_sigkill_mid_batch_loses_nothing(store_dir, monkeypatch):
    """SIGKILL one worker mid-batch: every request is answered exactly
    once, the answers match the in-process run, and a replacement worker
    joins the pool."""
    requests = [
        PartitionRequest(
            rate_factor=rate, cpu_budget=cpu, net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for cpu in (1.0, 0.95, 0.9, 0.85)
        for rate in (1.0, 2.0, 4.0)
    ]
    local = local_session("eeg", store_dir).partition_many(
        requests, skip_infeasible=True
    )
    # Slow each job down so the kill reliably lands mid-batch.  The env
    # var is read by the (forked) workers at job start.
    monkeypatch.setenv("REPRO_SERVER_TEST_DELAY", "0.25")
    with PartitionServer(
        workers=2, store=store_dir, result_cache=False
    ) as srv:
        pids = srv.worker_pids()
        assert len(pids) == 2
        with ServerClient(srv.address) as client:
            killer = threading.Timer(
                0.4, os.kill, args=(pids[0], signal.SIGKILL)
            )
            killer.start()
            try:
                served = client.partition_many(
                    "eeg", requests, params=SCENARIO_PARAMS["eeg"],
                    skip_infeasible=True,
                )
            finally:
                killer.cancel()
            stats = client.ping()
            assert stats["respawned"] >= 1
            assert stats["requeued"] >= 1
            assert stats["workers"] == 2  # replacement joined
            # The victim is really gone.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pids[0], 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            assert pids[0] not in srv.worker_pids()
            # The pool keeps serving after the failure.
            monkeypatch.setenv("REPRO_SERVER_TEST_DELAY", "0")
            followup = client.partition_many(
                "eeg", requests[:2], params=SCENARIO_PARAMS["eeg"],
                skip_infeasible=True,
            )
    assert_equivalent(local, served)
    assert_equivalent(local[:2], followup)


# ---------------------------------------------------------------------------
# Error paths and wire details
# ---------------------------------------------------------------------------


def test_unknown_scenario_is_a_typed_remote_error(server):
    with ServerClient(server.address) as client:
        with pytest.raises(ServerError, match="unknown scenario"):
            client.partition_many("no-such-scenario", batch_for("eeg")[:1])


def test_infeasible_without_skip_raises_like_inprocess(server, store_dir):
    hopeless = [
        PartitionRequest(rate_factor=500000.0, cpu_budget=1e-9,
                         gap_tolerance=5e-3)
    ]
    session = local_session("eeg", store_dir)
    with pytest.raises(InfeasiblePartition):
        session.partition_many(hopeless, skip_infeasible=False)
    with ServerClient(server.address) as client:
        with pytest.raises(InfeasiblePartition):
            client.partition_many(
                "eeg", hopeless, params=SCENARIO_PARAMS["eeg"],
                skip_infeasible=False,
            )


def test_unknown_op_is_reported(server):
    client = ServerClient(server.address)
    try:
        with pytest.raises(ServerError, match="unknown op"):
            client._call({"op": "frobnicate"})
    finally:
        client.close()


def test_malformed_profiler_config_is_a_typed_error(server):
    """A bad ``profiler`` field is answered with a typed error on a live
    connection; the same server then serves a valid batch."""
    requests = [
        PartitionRequest(
            rate_factor=1.0, cpu_budget=1.0, gap_tolerance=5e-3
        ).to_payload()
    ]
    with ServerClient(server.address, timeout=60.0, retries=0) as client:
        # An unknown key, a retired key next to a valid one, and a
        # non-bool ``batch``.
        for config in (
            {"foo": 1},
            {"track_peak": False, "batch": True},
            {"batch": "yes"},
        ):
            with pytest.raises(ServerError, match="profiler config"):
                client._call(
                    {
                        "op": "partition_many",
                        "scenario": "eeg",
                        "params": SCENARIO_PARAMS["eeg"],
                        "profiler": config,
                        "requests": requests,
                    }
                )
        results = client.partition_many(
            "eeg", requests, params=SCENARIO_PARAMS["eeg"]
        )
    assert len(results) == 1 and results[0] is not None


def test_request_payload_roundtrip():
    request = PartitionRequest(
        platform="imote2", rate_factor=3.5, cpu_budget=0.8,
        net_budget=float("inf"), gap_tolerance=1e-4,
    )
    payload = request.to_payload()
    assert payload["mode"] == "permissive"
    assert PartitionRequest.from_payload(payload) == request
    with pytest.raises(Exception, match="unknown partition-request"):
        PartitionRequest.from_payload({"bogus": 1})


@pytest.mark.parametrize(
    "field, value",
    [("lp_engine", "scipy"), ("solver", "scipy-milp")],
    ids=["lp_engine", "solver"],
)
def test_stale_request_field_is_a_typed_error(field, value):
    """A client that still sends a removed field (``lp_engine``,
    ``solver``) gets a typed unknown-field error, not a ``TypeError``."""
    payload = PartitionRequest().to_payload()
    payload[field] = value
    with pytest.raises(
        WorkbenchError, match="unknown partition-request fields"
    ):
        PartitionRequest.from_payload(payload)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
sidecars = st.dictionaries(
    st.from_regex(r"a[0-9]{1,2}", fullmatch=True),
    st.lists(st.floats(), max_size=6).map(np.array),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(0, 10**6),
    document=st.dictionaries(st.text(max_size=8), json_values, max_size=6),
    arrays=sidecars,
)
def test_stored_reply_bytes_equal_a_fresh_encoding(index, document, arrays):
    """A reply built around an entry's stored wire bytes is the message
    ``encode_message`` would produce, byte for byte — infeasible
    (``None``) slots included."""
    expected = encode_message({"index": index, "result": document}, arrays)
    assert _result_frames(index, CacheEntry(document, arrays)) == expected
    assert _result_frames(index, None) == encode_message(
        {"index": index, "result": None}
    )


def test_client_builds_each_graph_once(server, monkeypatch):
    """Repeated calls decode against one graph per (scenario, params):
    ``Scenario.build`` runs once for each pair in the client's thread
    (the in-process server's own builds happen on its threads)."""
    built = []
    original = Scenario.build
    client_thread = threading.get_ident()

    def counting_build(self, params):
        if threading.get_ident() == client_thread:
            built.append((self.name, dict(params)))
        return original(self, params)

    monkeypatch.setattr(Scenario, "build", counting_build)
    requests = batch_for("eeg")[:2]
    with ServerClient(server.address) as client:
        for params in ({"n_channels": 3}, {"n_channels": 3}, {"n_channels": 2},
                       {"n_channels": 3}, {"n_channels": 2}):
            client.partition_many(
                "eeg", requests, params=params, skip_infeasible=True
            )
    assert sorted(p["n_channels"] for _, p in built) == [2, 3]


# ---------------------------------------------------------------------------
# Client transport errors: typed, retried, never hung
# ---------------------------------------------------------------------------


def test_client_raises_typed_error_after_server_close(store_dir):
    """A dead server surfaces as ServerUnavailable (a ServerError) —
    never a raw ConnectionResetError/BrokenPipeError."""
    from repro.workbench import ServerUnavailable

    with PartitionServer(workers=1, store=store_dir) as srv:
        client = ServerClient(
            srv.address, retries=1, backoff=0.01, connect_timeout=0.3
        )
    # Server (and its listener) are gone now.
    try:
        with pytest.raises(ServerUnavailable):
            client.ping()
    finally:
        client.close()
    assert issubclass(ServerUnavailable, ServerError)


def test_started_server_closes_promptly(store_dir):
    """Stopping a server must wake its accept thread at once, not sit
    out the accept-thread join timeout."""
    srv = PartitionServer(workers=1, store=store_dir)
    srv.start()
    with ServerClient(srv.address) as client:
        assert client.ping()["ok"]
    started = time.monotonic()
    srv.close()
    assert time.monotonic() - started < 1.0


def test_client_retries_recover_from_torn_connection(server):
    """Tearing the client's socket under it is healed by reconnect +
    retry; the recovery is counted."""
    client = ServerClient(server.address, retries=2, backoff=0.01)
    try:
        assert client.ping()["ok"]
        # Kill the transport behind the client's back.
        client._sock.shutdown(1)  # SHUT_WR: server sees EOF, closes
        assert client.ping()["ok"]
        assert client.transport_retries >= 1
    finally:
        client.close()


def test_remote_application_errors_are_not_retried(server):
    client = ServerClient(server.address, retries=3, backoff=0.01)
    try:
        before = client.transport_retries
        with pytest.raises(ServerError, match="unknown op"):
            client._call({"op": "definitely-not-an-op"})
        assert client.transport_retries == before
    finally:
        client.close()


def test_stats_times_out_quickly_against_silent_server():
    """stats() uses its own short timeout: a listener that accepts but
    never replies yields a typed error fast, not a 300 s hang."""
    import socket as socket_mod

    from repro.workbench import ServerUnavailable

    listener = socket_mod.create_server(("127.0.0.1", 0), backlog=1)
    try:
        client = ServerClient(
            listener.getsockname(), timeout=300.0, retries=0
        )
        try:
            start = time.monotonic()
            with pytest.raises(ServerUnavailable, match="stats"):
                client.stats(timeout=0.5)
            assert time.monotonic() - start < 5.0
        finally:
            client.close()
    finally:
        listener.close()


def test_server_stats_op_reports_membership(server, store_dir):
    with ServerClient(server.address) as client:
        stats = client.stats()
    assert stats["ok"]
    assert stats["workers"] == 2
    assert stats["target"] == 2
    assert stats["membership"]["counters"]["joined"] >= 2
    assert len(stats["worker_info"]) == 2
    assert {row["state"] for row in stats["worker_info"]} == {"active"}
    assert "faults" in stats and stats["faults"]["rules"] == 0


def test_scale_op_resizes_pool(store_dir):
    with PartitionServer(
        workers=1, store=store_dir, max_workers=3
    ) as srv:
        with ServerClient(srv.address) as client:
            reply = client.scale(3)
            assert reply["target"] == 3
            deadline = time.monotonic() + 10.0
            while len(srv.worker_pids()) < 3:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert client.scale(1)["target"] == 1
