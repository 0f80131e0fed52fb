"""Units for the elastic-membership primitives and the pool's use of
them (policy clamping, heartbeat clocks, the membership log, runtime
scale-up/down with a lightweight injected job runner)."""

from __future__ import annotations

import logging
import time

import pytest

from repro.workbench.membership import (
    ElasticPolicy,
    HeartbeatMonitor,
    MembershipLog,
)
from repro.workbench.server import ServerError, WorkerPool


def test_policy_clamps_targets():
    policy = ElasticPolicy(min_workers=1, max_workers=4)
    assert policy.clamp(0) == 1
    assert policy.clamp(3) == 3
    assert policy.clamp(99) == 4
    unbounded = ElasticPolicy(min_workers=0)
    assert unbounded.clamp(0) == 0
    assert unbounded.clamp(1000) == 1000


def test_policy_heartbeat_timeout():
    assert ElasticPolicy(
        heartbeat_interval=0.5, heartbeat_miss_limit=4
    ).heartbeat_timeout == pytest.approx(2.0)
    assert ElasticPolicy(heartbeat_interval=0).heartbeat_timeout is None
    assert ElasticPolicy(heartbeat_interval=None).heartbeat_timeout is None


def test_heartbeat_monitor_overdue_and_forget():
    monitor = HeartbeatMonitor(timeout=1.0)
    monitor.watch(0, now=100.0)
    monitor.watch(1, now=100.0)
    assert monitor.overdue(now=100.5) == []
    monitor.beat(1, now=101.0)
    assert monitor.overdue(now=101.5) == [0]
    assert monitor.overdue(now=102.5) == [0, 1]
    monitor.forget(0)
    assert monitor.overdue(now=102.5) == [1]
    # Beats for unknown workers are ignored, not resurrected.
    monitor.beat(7, now=102.0)
    assert monitor.overdue(now=200.0) == [1]


def test_heartbeat_monitor_disabled_never_overdue():
    monitor = HeartbeatMonitor(timeout=None)
    monitor.watch(0, now=0.0)
    assert monitor.overdue(now=1e9) == []


def test_membership_log_counters_and_order():
    log = MembershipLog()
    log.record("join", 0)
    log.record("join", 1)
    log.record("death", 0, "exit code -9")
    log.record("leave", 1, "scaled down")
    log.record("degraded", None, "no live workers")
    assert [e.seq for e in log.events()] == [0, 1, 2, 3, 4]
    assert [e.kind for e in log.events("join")] == ["join", "join"]
    payload = log.to_payload()
    assert payload["counters"]["joined"] == 2
    assert payload["counters"]["died"] == 1
    assert payload["counters"]["left"] == 1
    assert payload["counters"]["degraded_entries"] == 1
    assert payload["counters"]["events"] == 5
    assert payload["events"][0]["kind"] == "join"


def test_membership_log_bounds_history():
    log = MembershipLog(max_events=8)
    for i in range(20):
        log.record("join", i)
    assert len(log) == 8
    assert log.events()[0].seq == 12  # oldest retained
    assert log.stats.joined == 20  # counters never truncate


def test_membership_log_logs_every_event_past_its_bound(caplog):
    """The record keeps the last 1,024 events, but every event reaches
    the logger: a reader of the log never misses one."""
    log = MembershipLog()
    with caplog.at_level(logging.INFO, logger="repro.workbench.membership"):
        for i in range(1030):
            log.record("backend-failed", None, f"h:{i}")
    assert len(log) == 1024
    assert len(caplog.records) == 1030
    assert caplog.records[-1].getMessage() == "backend-failed: h:1029"


# ---------------------------------------------------------------------------
# Pool scaling with a trivial injected job runner (no solver work)
# ---------------------------------------------------------------------------


def echo_runner(payload, store, sessions):
    return {"echo": dict(payload)}


def make_pool(workers: int, **policy_kwargs) -> WorkerPool:
    policy_kwargs.setdefault("heartbeat_interval", 0.2)
    policy_kwargs.setdefault("heartbeat_miss_limit", 5)
    return WorkerPool(
        workers=workers,
        policy=ElasticPolicy(**policy_kwargs),
        job_runner=echo_runner,
    )


def drain(pool: WorkerPool, n: int = 4, timeout: float = 30.0):
    jobs = [pool.submit({"i": i}) for i in range(n)]
    for job in jobs:
        assert job.event.wait(timeout), "job did not complete"
        assert job.error is None, job.error
        assert job.result == {"echo": {"i": jobs.index(job)}}
    return jobs


def test_scale_up_and_down_rebalances():
    pool = make_pool(1, min_workers=1, max_workers=4)
    try:
        drain(pool, 2)
        assert pool.scale_to(4) == 4
        deadline = time.monotonic() + 10.0
        while len(pool.worker_pids()) < 4:
            assert time.monotonic() < deadline, "scale-up never completed"
            time.sleep(0.05)
        drain(pool, 6)
        assert pool.scale_to(1) == 1
        deadline = time.monotonic() + 10.0
        while len(pool.worker_pids()) > 1:
            assert time.monotonic() < deadline, "scale-down never drained"
            time.sleep(0.05)
        drain(pool, 2)
        counters = pool.membership.to_payload()["counters"]
        assert counters["joined"] >= 4
        assert counters["left"] >= 3
    finally:
        pool.close()


def test_scale_clamps_to_policy_bounds():
    pool = make_pool(2, min_workers=1, max_workers=3)
    try:
        assert pool.scale_to(0) == 1
        assert pool.scale_to(99) == 3
    finally:
        pool.close()


def test_scale_on_closed_pool_raises():
    pool = make_pool(1)
    pool.close()
    with pytest.raises(ServerError, match="closed"):
        pool.scale_to(2)


def test_worker_info_rows():
    pool = make_pool(2)
    try:
        drain(pool, 2)
        rows = pool.worker_info()
        assert len(rows) == 2
        assert {row.state for row in rows} == {"active"}
        assert sum(row.jobs_done for row in rows) == 2
        for row in rows:
            payload = row.to_payload()
            assert payload["wid"] == row.wid
    finally:
        pool.close()


def test_pool_with_no_workers_and_no_inline_runner_errors():
    pool = make_pool(1, min_workers=0)
    try:
        assert pool.scale_to(0) == 0
        deadline = time.monotonic() + 10.0
        while pool.worker_pids():
            assert time.monotonic() < deadline
            time.sleep(0.05)
        job = pool.submit({"i": 0})
        assert job.event.wait(10.0)
        assert job.error is not None
        assert "no live workers" in job.error[1]
    finally:
        pool.close()
