"""The multi-tenant gateway: the one router in front of a fleet.

The routing contract, end to end: a ``partition_many`` batch the
gateway splits across shard-owning backends reassembles
**byte-identical in canonical form** to the in-process answers, in
request order, with shuffled batches, with a backend killed out from
under the fleet, and under injected ``gateway.route`` faults.  Around
that sit the partition directory's rendezvous-hashing properties
(stable assignment, balanced shares, ~1/(N+1) movement), membership
events, and typed ``ServerBusy`` admission control.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workbench import (
    FaultPlan,
    FaultRule,
    Gateway,
    PartitionDirectory,
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    ServerBusy,
    ServerClient,
    ServerError,
    Session,
)
from repro.workbench import faults
from repro.workbench.artifacts import canonical_json
from repro.workbench.gateway import ROUTE_PLATFORM_DEFAULT, batch_keys
from repro.workbench.membership import MembershipLog

SCENARIO = "eeg"
PARAMS = {"n_channels": 3}


def routed_batch() -> list[PartitionRequest]:
    """Mixed budgets/rates in a *shuffled* order (routing must not
    depend on request order), plus one hopeless request."""
    requests = [
        PartitionRequest(
            rate_factor=rate, cpu_budget=cpu, net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for cpu in (1.0, 0.9)
        for rate in (1.0, 2.0, 4.0)
    ]
    requests.append(
        PartitionRequest(
            rate_factor=500000.0, cpu_budget=1e-9, gap_tolerance=5e-3
        )
    )
    random.Random(0xD1CE).shuffle(requests)
    return requests


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gateway-store"))


@pytest.fixture(scope="module")
def ground_truth(store_dir):
    """In-process answers over the shared profile store."""
    session = Session(
        SCENARIO, store=ProfileStore(store_dir), params=PARAMS,
        result_cache=False,
    )
    return session.partition_many(routed_batch(), skip_infeasible=True)


def start_splitting_backend(first, store_dir, attempts=40):
    """Start a second backend whose address genuinely *splits* the
    canonical batch.

    Placement is a pure function of the backend address strings, and
    the servers bind ephemeral ports — so a landing can put every
    request's key on a single backend, which would turn the fan-out and
    failover assertions below into coin flips.  Reject such a landing
    and restart on a fresh port (with one routing key per request that
    is rare, so the attempt bound never binds in practice).
    """
    keys = batch_keys(
        SCENARIO, PARAMS, None, ROUTE_PLATFORM_DEFAULT, routed_batch()
    )
    for _ in range(attempts):
        backend = PartitionServer(workers=1, store=store_dir)
        address = backend.start()
        directory = PartitionDirectory([first.address, address])
        if len(directory.split(keys)) == 2:
            return backend
        backend.close()
    raise AssertionError(
        "no ephemeral port produced a 2-way split in "
        f"{attempts} attempts"
    )


@pytest.fixture()
def backends(store_dir):
    """Two live partition servers sharing one profile store, with the
    canonical batch guaranteed to split across both."""
    with PartitionServer(workers=1, store=store_dir) as a:
        b = start_splitting_backend(a, store_dir)
        try:
            yield a, b
        finally:
            b.close()


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


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
# Partition directory: rendezvous-hashing properties
# ---------------------------------------------------------------------------

_keys = st.lists(
    st.text(alphabet="0123456789abcdef", min_size=8, max_size=32),
    min_size=50, max_size=200, unique=True,
)
_sizes = st.integers(min_value=2, max_value=6)


@given(n=_sizes, keys=_keys)
@settings(max_examples=30, deadline=None)
def test_directory_assignment_is_stable(n, keys):
    """Same membership → same owner for every key, independent of the
    order backends joined (concurrent routers must agree)."""
    members = [f"10.0.0.{i}:7453" for i in range(n)]
    forward = PartitionDirectory(members)
    shuffled = list(members)
    random.Random(n).shuffle(shuffled)
    backward = PartitionDirectory(shuffled)
    for key in keys:
        assert forward.route(key) == backward.route(key)


@given(n=_sizes, keys=_keys)
@settings(max_examples=30, deadline=None)
def test_directory_movement_is_bounded(n, keys):
    """Adding one backend re-homes about 1/(N+1) of the keys."""
    members = [f"10.0.0.{i}:7453" for i in range(n)]
    directory = PartitionDirectory(members)
    before = {key: directory.route(key) for key in keys}
    directory.add("10.0.1.99:7453")
    moved = sum(
        1 for key in keys if directory.route(key) != before[key]
    )
    expected = 1.0 / (n + 1)
    assert moved / len(keys) <= expected * 2.5 + 0.05
    # And the keys that moved all moved *to* the new member.
    for key in keys:
        owner = directory.route(key)
        if owner != before[key]:
            assert owner == "10.0.1.99:7453"


def test_directory_shares_are_balanced():
    """Per-backend key shares stay near 1/N."""
    backends = [f"10.0.0.{i}:7453" for i in range(4)]
    directory = PartitionDirectory(backends)
    counts = {b: 0 for b in backends}
    total = 4000
    for i in range(total):
        counts[directory.route(f"key-{i}")] += 1
    for backend, count in counts.items():
        share = count / total
        assert 0.15 <= share <= 0.35, (backend, share)


def test_directory_split_partitions_all_indices():
    directory = PartitionDirectory(["h1:1", "h2:2", "h3:3"])
    keys = [f"{i:08x}" for i in range(97)]
    shards = directory.split(keys)
    indices = sorted(i for chunk in shards.values() for i in chunk)
    assert indices == list(range(len(keys)))
    for backend, chunk in shards.items():
        assert backend in directory
        assert chunk == sorted(chunk)  # batch order within a shard
        assert all(directory.route(keys[i]) == backend for i in chunk)


def test_directory_chain_is_deterministic_failover_order():
    directory = PartitionDirectory(["h2:2", "h3:3", "h1:1"])
    chain = directory.chain("h2:2")
    assert chain == ["h2:2", "h1:1", "h3:3"]
    assert set(chain) == set(directory.backends)


def test_directory_membership_events():
    log = MembershipLog()
    directory = PartitionDirectory(["h1:1", "h2:2"], log=log)
    assert [e.detail for e in log.events("shard-joined")] == [
        "h1:1", "h2:2"
    ]
    assert directory.add("h2:2") is False  # already a member: no event
    assert directory.add("h3:3") is True
    assert directory.remove("h3:3") is True
    assert directory.remove("h3:3") is False
    assert [e.detail for e in log.events("shard-left")] == ["h3:3"]
    assert log.stats.shards_joined == 3
    assert log.stats.shards_left == 1


def test_directory_refuses_to_empty():
    directory = PartitionDirectory(["h1:1", "h2:2"])
    assert directory.remove("h1:1")
    with pytest.raises(ServerError, match="last directory backend"):
        directory.remove("h2:2")


def test_directory_health_transitions_emit_once():
    directory = PartitionDirectory(["h1:1", "h2:2"])
    directory.note_failure("h1:1", "refused")
    directory.note_failure("h1:1", "refused")  # same transition: once
    assert directory.failed == ["h1:1"]
    assert directory.log.stats.backends_failed == 1
    directory.note_ok("h1:1")
    directory.note_ok("h1:1")
    assert directory.failed == []
    assert directory.log.stats.backends_restored == 1


def test_directory_manifest_roundtrip(tmp_path):
    directory = PartitionDirectory(["h1:1", "h2:2"])
    path = tmp_path / "ring.json"
    directory.save(path)
    reloaded = PartitionDirectory(f"@{path}")
    assert reloaded.backends == directory.backends


def test_batch_keys_are_the_result_cache_keys():
    """Routing keys and cache keys agree by construction."""
    from repro.workbench.cache import result_key

    requests = routed_batch()[:3]
    keys = batch_keys(SCENARIO, PARAMS, None, ROUTE_PLATFORM_DEFAULT,
                      requests)
    assert keys == [
        result_key(SCENARIO, PARAMS, None, ROUTE_PLATFORM_DEFAULT, r)
        for r in requests
    ]
    assert len(set(keys)) == len(keys)
    # Deterministic across calls and param-dict insertion order.
    assert keys == batch_keys(
        SCENARIO, dict(reversed(list(PARAMS.items()))), None,
        ROUTE_PLATFORM_DEFAULT, requests,
    )


# ---------------------------------------------------------------------------
# End-to-end routing equivalence
# ---------------------------------------------------------------------------


def test_gateway_routes_byte_identical(backends, ground_truth):
    a, b = backends
    with Gateway([a.address, b.address]) as gw:
        with ServerClient(gw.address) as client:
            assert client.ping()["gateway"] is True
            served = client.partition_many(
                SCENARIO, routed_batch(), params=PARAMS,
                skip_infeasible=True,
            )
            batch = client.last_batch_stats
            stats = client.stats()
    assert_equivalent(ground_truth, served)
    requests = routed_batch()
    assert batch["cache_hits"] + batch["cache_misses"] == len(requests)
    assert stats["routed_batches"] == 1
    # Two live backends and a mixed batch: genuinely fanned out.
    assert stats["routed_shards"] == 2
    assert stats["admitted"] == 1
    assert stats["directory"]["backends"] == [
        f"{h}:{p}" for h, p in (a.address, b.address)
    ]


def test_gateway_survives_backend_kill(store_dir, ground_truth):
    """Kill one backend under a live gateway: every shard re-homes to
    the survivor, answers stay byte-identical, the failover is counted,
    and a replacement backend is noticed (backend-restored)."""
    with PartitionServer(workers=1, store=store_dir) as survivor:
        victim = start_splitting_backend(survivor, store_dir)
        victim_address = victim.address
        with Gateway([survivor.address, victim_address]) as gw:
            with ServerClient(gw.address) as client:
                first = client.partition_many(
                    SCENARIO, routed_batch(), params=PARAMS,
                    skip_infeasible=True,
                )
                assert_equivalent(ground_truth, first)
                victim.close()
                second = client.partition_many(
                    SCENARIO, routed_batch(), params=PARAMS,
                    skip_infeasible=True,
                )
                assert_equivalent(ground_truth, second)
                stats = client.stats()
                assert stats["failovers"] >= 1
                assert stats["backend_errors"] >= 1
                failed = stats["directory"]["failed"]
                assert f"{victim_address[0]}:{victim_address[1]}" in failed
                counters = stats["membership"]["counters"]
                assert counters["backends_failed"] >= 1
                # A replacement on the same address heals the shard.
                replacement = PartitionServer(
                    host=victim_address[0], port=victim_address[1],
                    workers=1, store=store_dir,
                )
                try:
                    replacement.start()
                    third = client.partition_many(
                        SCENARIO, routed_batch(), params=PARAMS,
                        skip_infeasible=True,
                    )
                    assert_equivalent(ground_truth, third)
                    stats = client.stats()
                    assert stats["directory"]["failed"] == []
                    counters = stats["membership"]["counters"]
                    assert counters["backends_restored"] >= 1
                finally:
                    replacement.close()


def test_gateway_fault_site_drives_failover(backends, ground_truth):
    """An injected ``gateway.route`` fault on the first forward attempt
    behaves exactly like an unreachable backend: the shard fails over
    and the batch still answers byte-identically."""
    a, b = backends
    plan = FaultPlan(
        [FaultRule(site="gateway.route", action="raise", count=1)]
    )
    with Gateway([a.address, b.address]) as gw:
        with faults.injected(plan):
            with ServerClient(gw.address) as client:
                served = client.partition_many(
                    SCENARIO, routed_batch(), params=PARAMS,
                    skip_infeasible=True,
                )
                stats = client.stats()
    assert_equivalent(ground_truth, served)
    assert stats["faults"]["fired"] >= 1
    assert stats["failovers"] >= 1


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_gateway_rejects_over_capacity(backends):
    a, b = backends
    with Gateway([a.address, b.address], max_inflight=0) as gw:
        with ServerClient(gw.address) as client:
            with pytest.raises(ServerBusy, match="at capacity"):
                client.partition_many(
                    SCENARIO, routed_batch()[:2], params=PARAMS
                )
            stats = client.stats()
    assert stats["rejected_busy"] == 1
    assert stats["admitted"] == 0


def test_gateway_enforces_tenant_quota(backends):
    a, b = backends
    with Gateway([a.address, b.address], tenant_quota=0) as gw:
        with ServerClient(gw.address, tenant="acme") as client:
            with pytest.raises(ServerBusy, match="acme"):
                client.partition_many(
                    SCENARIO, routed_batch()[:2], params=PARAMS
                )
            stats = client.stats()
    assert stats["rejected_quota"] == 1


def test_server_busy_is_not_retried(backends):
    """ServerBusy is an application answer, not a transport failure:
    the client must surface it immediately, without burning retries."""
    a, b = backends
    with Gateway([a.address, b.address], max_inflight=0) as gw:
        with ServerClient(gw.address, retries=3, backoff=0.01) as client:
            before = client.transport_retries
            with pytest.raises(ServerBusy):
                client.partition_many(
                    SCENARIO, routed_batch()[:1], params=PARAMS
                )
            assert client.transport_retries == before
            assert client.stats()["rejected_busy"] == 1


# ---------------------------------------------------------------------------
# Wire surface
# ---------------------------------------------------------------------------


def test_gateway_wire_ops(backends):
    a, b = backends
    with Gateway([a.address, b.address]) as gw:
        with ServerClient(gw.address) as client:
            ping = client.ping()
            assert ping["ok"] and ping["gateway"]
            assert ping["backends"] == 2
            assert SCENARIO in client.scenarios()
            reply = client._call({"op": "directory"})
            assert reply["backends"] == gw.directory.backends
            reply = client._call(
                {"op": "directory", "action": "add",
                 "backend": "127.0.0.1:65000"}
            )
            assert reply["changed"] is True
            assert "127.0.0.1:65000" in gw.directory
            reply = client._call(
                {"op": "directory", "action": "remove",
                 "backend": "127.0.0.1:65000"}
            )
            assert reply["changed"] is True
            with pytest.raises(ServerError, match="unknown gateway op"):
                client._call({"op": "definitely-not-an-op"})
            with pytest.raises(ServerError, match="unknown directory"):
                client._call({"op": "directory", "action": "explode"})


def test_gateway_answers_malformed_profiler_config_with_typed_error(
    backends,
):
    """The gateway rejects a bad ``profiler`` field before routing: a
    typed error, no backend marked down, and a valid batch still
    routes."""
    a, b = backends
    requests = [request.to_payload() for request in routed_batch()[:2]]
    with Gateway([a.address, b.address]) as gw:
        with ServerClient(gw.address, timeout=60.0, retries=0) as client:
            for config in (
                {"foo": 1},
                {"track_peak": False, "batch": True},
                {"batch": "yes"},
            ):
                with pytest.raises(ServerError, match="profiler config"):
                    client._call(
                        {
                            "op": "partition_many",
                            "scenario": SCENARIO,
                            "params": PARAMS,
                            "profiler": config,
                            "requests": requests,
                        }
                    )
            results = client.partition_many(
                SCENARIO, requests, params=PARAMS, skip_infeasible=True
            )
            stats = client.stats()
    assert len(results) == 2
    assert stats["failovers"] == 0
    assert stats["directory"]["failed"] == []


def test_concurrent_tenants_share_the_gateway(backends, ground_truth):
    """Two tenants routing concurrently both get byte-identical
    answers; the admission counters see both."""
    a, b = backends
    results: dict[str, list] = {}
    errors: list[Exception] = []

    def run(tenant: str) -> None:
        try:
            with ServerClient(gw.address, tenant=tenant) as client:
                results[tenant] = client.partition_many(
                    SCENARIO, routed_batch(), params=PARAMS,
                    skip_infeasible=True,
                )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with Gateway([a.address, b.address]) as gw:
        threads = [
            threading.Thread(target=run, args=(t,))
            for t in ("tenant-a", "tenant-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServerClient(gw.address) as client:
            stats = client.stats()
    assert not errors
    assert stats["admitted"] == 2
    for tenant in ("tenant-a", "tenant-b"):
        assert_equivalent(ground_truth, results[tenant])


def test_gateway_sockets_have_nodelay(store_dir, monkeypatch):
    """The gateway's asyncio streams rely on asyncio's default of
    ``TCP_NODELAY`` on TCP transports — pin it on both the client-facing
    and the backend-facing socket, so a served round trip through the
    gateway never waits on a delayed ACK."""
    from repro.workbench import gateway as gateway_mod

    seen: list[tuple[int, int, bool]] = []
    real_send = gateway_mod.async_send_message

    async def recording_send(writer, document, arrays=None):
        sock = writer.get_extra_info("socket")
        flag = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        seen.append((sock.getsockname()[1], sock.getpeername()[1], flag))
        await real_send(writer, document, arrays)

    monkeypatch.setattr(gateway_mod, "async_send_message", recording_send)
    request = PartitionRequest(
        rate_factor=1.0, cpu_budget=1.0, gap_tolerance=5e-3
    )
    with PartitionServer(workers=1, store=store_dir) as backend:
        with Gateway([backend.address]) as gw:
            with ServerClient(gw.address) as client:
                client.partition_many(SCENARIO, [request], params=PARAMS)
            gw_port, backend_port = gw.address[1], backend.address[1]
    front = [flag for local, _, flag in seen if local == gw_port]
    to_backend = [flag for _, peer, flag in seen if peer == backend_port]
    assert front and all(front)
    assert to_backend and all(to_backend)
