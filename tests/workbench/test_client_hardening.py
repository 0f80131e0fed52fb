"""The ISSUE 9 client-hardening sweep, pinned as regressions.

Three latent defects in the PR 4 client, each with the test that would
have caught it:

1. ``ServerClient`` passed the full *request* timeout (300 s default)
   to every ``socket.create_connection`` attempt, so ``connect_timeout``
   was never honored against a host that drops SYNs — a dead backend
   hung a routed batch for minutes.  Now each attempt is capped at the
   remaining connect budget.
2. Retry backoff jitter came from the module-level ``random`` — chaos
   schedules seeded everything *except* retry timing, and library
   retries perturbed the caller's global RNG stream.  Now each client
   owns a seeded :class:`~repro.workbench.transport.Backoff`.
3. Teardown/best-effort paths swallowed exceptions silently (bare
   ``except Exception: pass``).  Still deliberate — but now *counted*
   per site and shipped in the ``stats()`` payload as
   ``swallowed_errors``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.workbench import PartitionServer, ServerClient, ServerUnavailable


@pytest.fixture
def black_hole(monkeypatch):
    """A host that drops SYNs: every connect attempt blocks for its
    *whole* ``timeout`` then fails — the worst case for a client that
    passes the 300 s request timeout to the connect call.  (A real
    TEST-NET address can't be used: sandboxed CI networks often answer
    every SYN through a transparent proxy.)"""
    attempts: list[float] = []

    def syn_drop(addr, timeout=None):
        attempts.append(timeout)
        # Honor the caller's timeout like a real black-holed connect —
        # but refuse to simulate a multi-minute hang: a pre-fix client
        # asking for 300 s is the bug this fixture exists to expose.
        assert timeout is not None and timeout <= 5.0, (
            f"connect attempt used a {timeout}s timeout: the request "
            "timeout leaked into the connect phase"
        )
        time.sleep(timeout)
        raise TimeoutError("timed out")

    monkeypatch.setattr(
        "repro.workbench.transport.socket.create_connection", syn_drop
    )
    return attempts


def test_dead_backend_fails_in_connect_timeout_not_request_timeout(
    black_hole,
):
    """The regression: with the old code this took ``timeout`` (300 s);
    the fix bounds it by ``connect_timeout`` (~1 s here)."""
    start = time.monotonic()
    with pytest.raises(ServerUnavailable, match="cannot connect"):
        ServerClient(
            "192.0.2.1:9", timeout=300.0, connect_timeout=1.0, retries=0
        )
    elapsed = time.monotonic() - start
    assert black_hole, "no connect attempt recorded"
    assert all(t <= 1.0 for t in black_hole)
    # Seconds, not minutes: the full loop respects the connect budget.
    assert elapsed < 10.0, f"connect took {elapsed:.1f}s; deadline ignored"


def test_connect_timeout_honored_when_request_timeout_is_none(black_hole):
    """``timeout=None`` (block forever on replies) must still bound the
    *connect* phase."""
    start = time.monotonic()
    with pytest.raises(ServerUnavailable):
        ServerClient(
            "192.0.2.1:9", timeout=None, connect_timeout=1.0, retries=0
        )
    assert all(t is not None and t <= 1.0 for t in black_hole)
    assert time.monotonic() - start < 10.0


def test_client_backoff_is_seeded_and_private():
    """Same seed → same jitter sequence; and drawing it never advances
    the module-level ``random`` stream."""
    random.seed(99)
    expected_stream = [random.random() for _ in range(4)]

    def delays(seed):
        client = ServerClient.__new__(ServerClient)  # no connection
        from repro.workbench.transport import Backoff

        client._backoff = Backoff(base=0.1, seed=seed)
        return [client._backoff.delay(i) for i in range(5)]

    random.seed(99)
    a = delays(7)
    b = delays(7)
    assert a == b
    assert delays(8) != a
    # The global stream is exactly where it would have been untouched.
    assert [random.random() for _ in range(4)] == expected_stream


def test_server_client_accepts_backoff_seed(tmp_path):
    with PartitionServer(workers=1, store=str(tmp_path / "s")) as srv:
        with ServerClient(srv.address, backoff_seed=5) as client:
            assert client.ping()["ok"]
            with ServerClient(srv.address, backoff_seed=5) as twin:
                assert client._backoff.delay(0) == pytest.approx(
                    twin._backoff.delay(0)
                )


def test_swallowed_errors_ship_in_stats(tmp_path):
    """The stats payload carries per-site counters for deliberately
    swallowed exceptions — zero-valued sites simply absent."""
    with PartitionServer(workers=1, store=str(tmp_path / "s")) as srv:
        # Simulate teardown swallows in the pool.
        srv.pool._swallow("pool.drain_conn")
        srv.pool._swallow("pool.drain_conn")
        with ServerClient(srv.address) as client:
            stats = client.stats()
    swallowed = stats["swallowed_errors"]
    assert swallowed["pool.drain_conn"] == 2


def test_swallowed_errors_counted_on_real_drain_failure(tmp_path):
    """A worker connection that breaks during drain lands in the
    counter instead of vanishing."""

    class BrokenConn:
        def poll(self, _timeout=0):
            raise OSError("torn pipe")

    class BrokenHandle:
        conn = BrokenConn()

    with PartitionServer(workers=1, store=str(tmp_path / "s")) as srv:
        before = srv.pool.swallowed_errors.get("pool.drain_conn", 0)
        srv.pool._drain_conn_locked(BrokenHandle())
        assert (
            srv.pool.swallowed_errors["pool.drain_conn"] == before + 1
        )
        with ServerClient(srv.address) as client:
            stats = client.stats()
    assert stats["swallowed_errors"]["pool.drain_conn"] >= 1
