"""Seeded chaos schedules against the partition server.

The headline property this file pins (ISSUE 6 acceptance): under every
deterministic :class:`~repro.workbench.faults.FaultPlan` schedule —
worker kills, heartbeat stalls, dropped/corrupted wire frames, store
write errors — the served artifacts are *byte-identical in canonical
form* to the in-process answers, and no request is lost or duplicated
(the result cache's store counter proves each request was solved and
recorded exactly once, however many transport retries it took).

Ground truth is computed in process *before* any plan is installed, so
fault injection never touches the reference answers.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.workbench import (
    FaultPlan,
    FaultRule,
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    ServerClient,
    Session,
)
from repro.workbench import faults
from repro.workbench.artifacts import canonical_json

SCENARIO = "eeg"
PARAMS = {"n_channels": 3}


def chaos_batch() -> list[PartitionRequest]:
    """Mixed budgets/rates plus one hopeless request (the None path)."""
    requests = [
        PartitionRequest(
            rate_factor=rate, cpu_budget=cpu, net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for cpu in (1.0, 0.9)
        for rate in (1.0, 2.0)
    ]
    requests.append(
        PartitionRequest(
            rate_factor=500000.0, cpu_budget=1e-9, gap_tolerance=5e-3
        )
    )
    return requests


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("chaos-store"))


@pytest.fixture(scope="module")
def ground_truth(store_dir):
    """In-process answers, computed before any fault plan exists."""
    session = Session(
        SCENARIO, store=ProfileStore(store_dir), params=PARAMS,
        result_cache=False,
    )
    return session.partition_many(chaos_batch(), skip_infeasible=True)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no installed plan."""
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


def run_under_plan(
    plan: FaultPlan,
    store_dir: str,
    ground_truth,
    tmp_path,
    client_kwargs: dict | None = None,
    **server_kwargs,
):
    """One chaos run: serve the batch under ``plan``, assert the
    byte-identity + exactly-once invariants, return (server stats,
    client) observations gathered before shutdown."""
    requests = chaos_batch()
    # A fresh cache directory per run: profiling stays warm (shared
    # profile store) while every request must be *solved* under chaos,
    # then memoized exactly once.
    cache_dir = str(tmp_path / "cache")
    server_kwargs.setdefault("workers", 2)
    server_kwargs.setdefault("job_timeout", 120.0)
    # Warm the fresh store's profiles from the shared ground-truth
    # store so chaos runs stay fast and deterministic.
    os.makedirs(cache_dir, exist_ok=True)
    for name in os.listdir(store_dir):
        src = os.path.join(store_dir, name)
        dst = os.path.join(cache_dir, name)
        if os.path.isfile(src) and not os.path.exists(dst):
            with open(src, "rb") as fh_in, open(dst, "wb") as fh_out:
                fh_out.write(fh_in.read())
    with PartitionServer(
        store=cache_dir, fault_plan=plan, **server_kwargs
    ) as srv:
        # A seeded backoff keeps retry timing reproducible run to run,
        # like the fault schedules themselves.
        client_kwargs = dict(client_kwargs or {"retries": 3})
        client_kwargs.setdefault("backoff_seed", 0x5EED)
        with ServerClient(srv.address, **client_kwargs) as client:
            served = client.partition_many(
                SCENARIO, requests, params=PARAMS, skip_infeasible=True
            )
            assert_equivalent(ground_truth, served)
            # Exactly once: every request was answered, and the ack's
            # cache counters cover the full batch.
            batch = client.last_batch_stats
            assert (
                batch["cache_hits"] + batch["cache_misses"]
                == len(requests)
            )
            # Exactly once, server side: each request's key was stored
            # exactly one time, no matter how many transport retries
            # re-sent the batch (retries are answered from cache).
            assert srv.result_cache is not None
            assert srv.result_cache.stats.stores == len(requests)
            stats = client.stats()
            return stats, client.transport_retries


def job_delay(seconds: float) -> FaultRule:
    """Every worker sleeps ``seconds`` at each job start."""
    return FaultRule("worker.run", "delay", count=0, delay=seconds)


SCHEDULES = {
    # Whichever worker reaches a second job dies there: a batch of five
    # jobs (one per request) on two workers always gives some worker a
    # second job, so the kill does not depend on which worker finishes
    # first.
    "worker-kill": FaultPlan(
        [FaultRule(site="worker.run", action="kill", after=1)]
    ),
    "heartbeat-stall": FaultPlan(
        [
            FaultRule(
                site="worker.heartbeat", action="stall", worker=0,
                after=0, count=0,
            )
        ]
    ),
    "dropped-frame": FaultPlan(
        [FaultRule(site="frames.send", action="drop", after=1)]
    ),
    "corrupted-frame": FaultPlan(
        [FaultRule(site="frames.send", action="corrupt", after=1)]
    ),
    "truncated-frame": FaultPlan(
        [FaultRule(site="frames.send", action="truncate", after=2)]
    ),
    "store-write-error": FaultPlan(
        [FaultRule(site="store.write", action="raise", after=0, count=1)]
    ),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_chaos_schedule_preserves_artifacts(
    schedule, store_dir, ground_truth, tmp_path
):
    plan = SCHEDULES[schedule]
    kwargs = {}
    # Slow runs down so the kill lands mid-batch and the stall outlasts
    # the heartbeat budget.  The delay rule goes after the schedule's
    # own, so a hit matches the kill or stall rule first.
    if schedule == "worker-kill":
        plan = FaultPlan([*plan.rules, job_delay(0.1)])
    if schedule == "heartbeat-stall":
        plan = FaultPlan([*plan.rules, job_delay(0.3)])
        kwargs.update(heartbeat_interval=0.1, heartbeat_miss_limit=3)
    stats, retries = run_under_plan(
        plan, store_dir, ground_truth, tmp_path, **kwargs
    )
    assert stats["workers"] >= 1
    if schedule == "worker-kill":
        assert stats["membership"]["counters"]["died"] >= 1
        assert stats["respawned"] >= 1
        # The kill landed mid-batch: the victim's job was requeued.
        assert stats["requeued"] >= 1
    if schedule == "heartbeat-stall":
        assert stats["membership"]["counters"]["retired_heartbeat"] >= 1
    if schedule in ("dropped-frame", "corrupted-frame", "truncated-frame"):
        # The torn connection forced at least one reconnect+retry.
        assert retries >= 1
    if schedule == "store-write-error":
        assert (
            stats["cache"]["store_errors"] + stats["store"]["write_errors"]
            >= 1
        )
        assert stats["faults"]["fired"] >= 1


@pytest.mark.parametrize("action", ["corrupt", "truncate"])
def test_frame_faults_on_cache_hits_retry_to_identical_answers(
    action, store_dir, ground_truth, tmp_path
):
    """A batch answered entirely from the cache is sent from stored
    wire bytes; the frame fault hook still covers those sends.  A
    damaged result frame forces a retry, and the retried hits are
    canonical-identical to the in-process answers."""
    requests = chaos_batch()
    with PartitionServer(
        workers=2, store=str(tmp_path / "cache"), job_timeout=120.0
    ) as srv:
        with ServerClient(
            srv.address, retries=3, backoff_seed=0x5EED
        ) as client:
            client.partition_many(
                SCENARIO, requests, params=PARAMS, skip_infeasible=True
            )
            # Hits 0 and 1 are this process's request and the server's
            # ack; hit 2 is the first result frame.
            plan = faults.install(
                FaultPlan([FaultRule(site="frames.send", action=action,
                                     after=2)])
            )
            served = client.partition_many(
                SCENARIO, requests, params=PARAMS, skip_infeasible=True
            )
            assert plan.fired == [("frames.send", action, None, 2)]
            assert client.transport_retries >= 1
            assert client.last_batch_stats == {
                "cache_hits": len(requests), "cache_misses": 0,
            }
            assert srv.result_cache.stats.stores == len(requests)
    assert_equivalent(ground_truth, served)


def test_seeded_plans_roundtrip_and_replay():
    """Same seed, same schedule; spec/JSON round-trips exactly."""
    for seed in range(20):
        a = FaultPlan.seeded(seed)
        b = FaultPlan.seeded(seed)
        assert a.spec() == b.spec()
        assert FaultPlan.from_json(a.to_json()).spec() == a.spec()
    assert FaultPlan.seeded(1).spec() != FaultPlan.seeded(2).spec()


def test_seeded_chaos_sweep(store_dir, ground_truth, tmp_path):
    """A handful of seed-derived schedules all preserve the contract."""
    for seed in (3, 11):
        plan = FaultPlan.seeded(seed, workers=2, jobs=4)
        run_dir = tmp_path / f"seed-{seed}"
        run_dir.mkdir()
        run_under_plan(plan, store_dir, ground_truth, run_dir)


def test_scale_mid_batch_completes(store_dir, ground_truth, tmp_path):
    """1 -> 4 -> 1 workers mid-batch: the batch completes, the answers
    match, and stats() reports the membership changes."""
    requests = chaos_batch()
    with PartitionServer(
        workers=1, min_workers=1, max_workers=4,
        store=str(tmp_path / "cache"), job_timeout=120.0,
        fault_plan=FaultPlan([job_delay(0.15)]),
    ) as srv:
        with ServerClient(srv.address) as client:
            done = threading.Event()
            outcome: dict = {}

            def serve_batch():
                try:
                    outcome["served"] = client.partition_many(
                        SCENARIO, requests, params=PARAMS,
                        skip_infeasible=True,
                    )
                except Exception as exc:  # pragma: no cover - surfaced
                    outcome["error"] = exc
                finally:
                    done.set()

            thread = threading.Thread(target=serve_batch, daemon=True)
            thread.start()
            time.sleep(0.2)
            assert srv.scale_to(4) == 4
            time.sleep(0.4)
            assert srv.scale_to(1) == 1
            assert done.wait(timeout=240)
            thread.join(timeout=5)
        assert "error" not in outcome, outcome.get("error")
        assert_equivalent(ground_truth, outcome["served"])
        counters = srv.pool.membership.to_payload()["counters"]
        assert counters["joined"] >= 4  # 1 initial + 3 scale-up
        assert counters["left"] + counters["died"] >= 3  # scale-down
        assert srv.pool.target == 1


def test_degrades_to_inprocess_when_pool_empties(
    store_dir, ground_truth, tmp_path, monkeypatch
):
    """Every worker dies and no respawn succeeds: the server answers
    in process (warned, counted) rather than erroring."""
    plan = FaultPlan(
        [
            # Kill every worker on its first job...
            FaultRule(site="worker.run", action="kill", count=0),
            # ...and fail every respawn after the initial spawn.
            FaultRule(site="pool.spawn", action="raise", after=1, count=0),
        ]
    )
    requests = chaos_batch()
    with pytest.warns(RuntimeWarning, match="no live workers"):
        with PartitionServer(
            workers=1, min_workers=0, store=str(tmp_path / "cache"),
            fault_plan=plan, job_timeout=120.0,
        ) as srv:
            with ServerClient(
                srv.address, retries=3, backoff_seed=0x5EED
            ) as client:
                served = client.partition_many(
                    SCENARIO, requests, params=PARAMS, skip_infeasible=True
                )
                stats = client.stats()
    assert_equivalent(ground_truth, served)
    assert stats["degraded_runs"] >= 1
    assert stats["workers"] == 0
    assert stats["membership"]["counters"]["degraded_entries"] >= 1
    assert stats["membership"]["counters"]["spawn_failures"] >= 1
