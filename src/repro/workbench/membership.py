"""Elastic worker membership: heartbeats, join/leave, degradation.

The PR 4 worker pool forked N workers at startup and only ever noticed
*death* (a process sentinel firing).  Real deployments need the other
half of membership (ROADMAP open item 2): workers that join and leave
at runtime, liveness judged by *heartbeats* — a wedged process whose
sentinel never fires must still be retired — and a defined behaviour
when the pool empties entirely.  This module holds the membership
primitives; :mod:`repro.workbench.server` wires them into the pool:

* :class:`ElasticPolicy` — the knobs: worker-count bounds for
  :meth:`WorkerPool.scale_to <repro.workbench.server.WorkerPool.scale_to>`
  (``repro serve --min-workers/--max-workers``), heartbeat cadence and
  miss budget, and whether dead workers are respawned.
* :class:`HeartbeatMonitor` — per-worker liveness clocks.  Any traffic
  from a worker (a beat *or* a job reply) counts as a beat; a worker
  silent for ``miss_limit`` intervals is overdue and gets retired by
  the pool supervisor, its in-flight run requeued to the survivors.
* :class:`MembershipLog` — an ordered, thread-safe record of every
  membership transition (join, leave, death, heartbeat retirement,
  degradation), surfaced through the server's ``stats()`` op so a
  client can watch the pool breathe, and logged event by event to this
  module's :mod:`logging` logger (``repro serve``/``repro gateway``
  print it on stdout).

Degradation is the last rung: when the pool has no live workers at all
(every respawn failed, or the pool was scaled to zero) the server falls
back to solving *in process* — slower, warned, and counted, but every
request is still answered, and the result cache keeps the retried work
idempotent.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Any

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ElasticPolicy:
    """Elasticity and liveness knobs for a worker pool.

    Args:
        min_workers: lower bound for :meth:`scale_to` targets and for
            respawn-on-death.  ``0`` permits a fully degraded
            (in-process) pool.
        max_workers: upper bound for :meth:`scale_to`; ``None`` leaves
            scaling unbounded.
        heartbeat_interval: seconds between worker heartbeats; ``0``
            (or ``None``) disables heartbeating entirely.
        heartbeat_miss_limit: consecutive silent intervals before a
            worker is declared wedged and retired.
        respawn: replace workers that die unexpectedly (the PR 4
            behaviour); disable to let the pool drain toward
            degradation instead.
    """

    min_workers: int = 1
    max_workers: int | None = None
    heartbeat_interval: float | None = 1.0
    heartbeat_miss_limit: int = 5
    respawn: bool = True

    def clamp(self, target: int) -> int:
        """A scale target folded into the policy's bounds."""
        target = max(target, self.min_workers)
        if self.max_workers is not None:
            target = min(target, self.max_workers)
        return target

    @property
    def heartbeat_timeout(self) -> float | None:
        """Silence longer than this marks a worker overdue."""
        if not self.heartbeat_interval or self.heartbeat_interval <= 0:
            return None
        return self.heartbeat_interval * max(self.heartbeat_miss_limit, 1)


class HeartbeatMonitor:
    """Liveness clocks for a set of workers.

    ``beat(wid)`` on any sign of life; :meth:`overdue` lists workers
    silent past the timeout.  With heartbeating disabled (timeout
    ``None``) nothing is ever overdue — the sentinel path still catches
    plain death.
    """

    def __init__(self, timeout: float | None) -> None:
        self.timeout = timeout
        self._last: dict[int, float] = {}
        self._lock = threading.Lock()

    def watch(self, wid: int, now: float | None = None) -> None:
        """Start a worker's clock (a join counts as its first beat)."""
        with self._lock:
            self._last[wid] = time.monotonic() if now is None else now

    def beat(self, wid: int, now: float | None = None) -> None:
        """Record a sign of life (heartbeat message or job reply)."""
        with self._lock:
            if wid in self._last:
                self._last[wid] = time.monotonic() if now is None else now

    def forget(self, wid: int) -> None:
        """Stop watching a worker (leave/death/retirement)."""
        with self._lock:
            self._last.pop(wid, None)

    def overdue(self, now: float | None = None) -> list[int]:
        """Workers silent for longer than the timeout (sorted)."""
        if self.timeout is None:
            return []
        now = time.monotonic() if now is None else now
        with self._lock:
            return sorted(
                wid for wid, last in self._last.items()
                if now - last > self.timeout
            )

    def last_beat(self, wid: int) -> float | None:
        with self._lock:
            return self._last.get(wid)


@dataclass(frozen=True)
class MembershipEvent:
    """One membership transition, ordered by ``seq``.

    ``kind`` is one of ``join``, ``leave``, ``drain``, ``death``,
    ``retire-heartbeat``, ``retire-stuck``, ``spawn-failed``,
    ``degraded``, ``restored``.  ``wid`` is the worker id (``None`` for
    pool-level events); ``detail`` is a short human-readable note.
    """

    seq: int
    kind: str
    wid: int | None = None
    detail: str = ""

    def to_payload(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "kind": self.kind,
            "wid": self.wid, "detail": self.detail,
        }


@dataclass
class MembershipStats:
    """Aggregated membership counters (the ``stats()`` wire shape)."""

    joined: int = 0
    left: int = 0
    died: int = 0
    retired_heartbeat: int = 0
    retired_stuck: int = 0
    spawn_failures: int = 0
    degraded_entries: int = 0
    shards_joined: int = 0
    shards_left: int = 0
    backends_failed: int = 0
    backends_restored: int = 0
    events: int = 0


class MembershipLog:
    """An append-only, thread-safe record of membership transitions.

    The sequence number — not wall-clock time — orders events, so logs
    from deterministic chaos schedules compare exactly.  The record
    keeps the last ``max_events``; every event is also logged at INFO
    as ``"<kind>: <detail>"``.
    """

    _COUNTER_FIELDS = {
        "join": "joined",
        "leave": "left",
        "death": "died",
        "retire-heartbeat": "retired_heartbeat",
        "retire-stuck": "retired_stuck",
        "spawn-failed": "spawn_failures",
        "degraded": "degraded_entries",
        # Partition-directory shard membership (workbench.gateway):
        # a serving backend enters/leaves the directory, or its
        # health transitions while routed traffic fails over.
        "shard-joined": "shards_joined",
        "shard-left": "shards_left",
        "backend-failed": "backends_failed",
        "backend-restored": "backends_restored",
    }

    def __init__(self, max_events: int = 1024) -> None:
        self.max_events = max_events
        self._events: list[MembershipEvent] = []
        self._seq = 0
        self._lock = threading.Lock()
        self.stats = MembershipStats()

    def record(
        self, kind: str, wid: int | None = None, detail: str = ""
    ) -> MembershipEvent:
        with self._lock:
            event = MembershipEvent(
                seq=self._seq, kind=kind, wid=wid, detail=detail
            )
            self._seq += 1
            self._events.append(event)
            if len(self._events) > self.max_events:
                del self._events[: -self.max_events]
            self.stats.events += 1
            counter = self._COUNTER_FIELDS.get(kind)
            if counter is not None:
                setattr(
                    self.stats, counter, getattr(self.stats, counter) + 1
                )
        _log.info("%s: %s", kind, detail)
        return event

    def events(self, kind: str | None = None) -> list[MembershipEvent]:
        """A snapshot of recorded events (optionally one kind)."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def to_payload(self) -> dict[str, Any]:
        """The JSON shape the server's ``stats()`` op ships."""
        from dataclasses import asdict

        with self._lock:
            return {
                "counters": asdict(self.stats),
                "events": [e.to_payload() for e in self._events[-64:]],
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


@dataclass
class WorkerInfo:
    """Static + live facts about one pool member (``stats()`` rows)."""

    wid: int
    pid: int | None
    state: str  # "active" | "draining"
    jobs_done: int = 0
    last_beat_age: float | None = None

    def to_payload(self) -> dict[str, Any]:
        from dataclasses import asdict

        return asdict(self)
