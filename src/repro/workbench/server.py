"""The partition server: ``partition_many`` over a socket, sharded
across a pool of worker processes.

The paper's deployment-scale workflow — profile once, re-partition for
every (platform, budget, rate) a fleet might need — is served here as a
long-lived network service.  The wire format reuses the two existing
serialization layers verbatim: requests and results travel as
:mod:`repro.workbench.artifacts` JSON documents, one per frame of the
runtime's length-prefixed :mod:`repro.runtime.frames` protocol over
TCP.

**Sharding.**  Each request the result cache misses is one job, and
any worker may take any job.  Every solve starts from no solver state
(see :meth:`~repro.core.probe.ScaledProbe.partition`), so an answer
depends only on its request: which worker ran it, and what that worker
solved before, change nothing.  Served answers therefore equal the
in-process ones *bit for bit* (``tests/workbench/test_server.py`` pins
this, wall-clock fields aside).

**Workers.**  Each worker process owns a
:class:`~repro.workbench.store.ProfileStore` view — durable when the
server has a store directory (all workers share it; the store's atomic
write-then-rename makes concurrent same-key writers safe), otherwise its
own in-memory store — and answers each job with its own session's
:class:`~repro.workbench.session.PartitionService`, the in-process code
path itself.  A worker therefore formulates each probe group once, keeps
the :class:`~repro.core.probe.ScaledProbe`, and re-probes it for every
later request of that group at any rate and budget.  The worker also
serializes what it solved: it encodes the answer once into the bytes of
its result message, writes the answer's result-cache entry from those
bytes (see :func:`~repro.workbench.artifacts.write_document`), and only
then replies with the bytes.  The parent submits the jobs, then stores
and forwards: it keeps each fresh answer's bytes in its memory cache and
sends them as they are, never encoding, decoding or writing an answer
itself.  A worker that dies mid-job (crash, OOM kill, SIGKILL) is
detected by its process sentinel, its unfinished job is requeued to the
survivors, and a replacement worker is spawned — no request is lost or
answered twice.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping, NamedTuple, Sequence

import multiprocessing
from multiprocessing import connection as mp_connection

from ..core.cut import InfeasiblePartition
from ..core.partitioner import PartitionResult
from ..profiler.profiler import Profiler
from ..dataflow.graph import StreamGraph
from ..runtime.frames import encode_message, send_frame, send_message
from . import artifacts, faults
from .cache import (
    RESULT_PREFIX,
    CacheEntry,
    ResultCache,
    infeasible_document,
    result_key,
)
from .membership import (
    ElasticPolicy,
    HeartbeatMonitor,
    MembershipLog,
    WorkerInfo,
)
from .scenarios import (
    Scenario,
    WorkbenchError,
    get_scenario,
    list_scenarios,
)
from .session import PartitionRequest, Session
from .store import DocumentStore, ProfileStore, profiler_config, store_dir
from .transport import (
    Backoff,
    ClientConnection,
    FrameListener,
    ServerBusy,
    ServerError,
    ServerUnavailable,
    parse_address,
    parse_targets,
)

__all__ = [
    "PartitionServer",
    "ServerBusy",
    "ServerClient",
    "ServerError",
    "ServerUnavailable",
    "WorkerPool",
]

#: Scenario graphs one client keeps for decoding answers; past this
#: many (scenario, params) pairs the least recently used is dropped.
_CLIENT_GRAPHS = 8

#: Sessions (each with its probe and profile caches) one worker, or the
#: degraded parent, keeps; past this many (scenario, params, platform,
#: profiler) keys the least recently used is dropped.  One e2ebench
#: catalog pass uses 19.
_SESSIONS = 32


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _session_key(
    scenario: str,
    params: Mapping[str, Any],
    platform: str,
    profiler_cfg: Mapping[str, Any] | None,
) -> str:
    return json.dumps(
        {
            "scenario": scenario,
            "params": dict(params),
            "platform": platform,
            "profiler": dict(profiler_cfg) if profiler_cfg else None,
        },
        sort_keys=True,
        default=str,
    )


def _session_for(
    sessions: dict[str, Session],
    store: ProfileStore,
    scenario: str,
    params: Mapping[str, Any],
    platform: str,
    profiler_cfg: Mapping[str, Any] | None,
) -> Session:
    key = _session_key(scenario, params, platform, profiler_cfg)
    session = sessions.pop(key, None)
    if session is None:
        profiler = Profiler(**profiler_cfg) if profiler_cfg else None
        session = Session(
            scenario,
            store=store,
            platform=platform,
            profiler=profiler,
            params=params,
        )
    sessions[key] = session
    while len(sessions) > _SESSIONS:
        sessions.pop(next(iter(sessions)))
    return session


class _JobAnswer(NamedTuple):
    """A job's reply: the answer's ``encode_message`` frame (``None``
    for an infeasible request under ``skip_infeasible``) and how many
    of its durable result writes failed."""

    frame: bytes | None
    store_errors: int


def _run_job(
    payload: Mapping[str, Any],
    store: ProfileStore,
    sessions: dict[str, Session],
) -> _JobAnswer:
    """Solve one request, then encode and persist its answer.

    The request goes through the worker session's own
    :class:`~repro.workbench.session.PartitionService`, which keeps one
    probe per probe group across jobs.  Every solve starts from no
    solver state, so the answer equals the in-process one whatever this
    worker solved before.

    The answer is encoded once.  When the payload carries the request's
    result key and the store is durable, its result-cache entry (an
    infeasible one included) is written from those bytes before this
    returns, so it is on disk before the reply leaves the server.  A
    failed write is counted in the reply, never raised.
    """
    scenario = payload["scenario"]
    params = payload["params"]
    request = PartitionRequest.from_payload(payload["request"])
    service = _session_for(
        sessions, store, scenario, params, payload["platform"],
        payload.get("profiler"),
    ).service
    if payload["skip_infeasible"]:
        result = service.try_partition(request)
    else:
        result = service.partition(request)
    document, frame = infeasible_document(), None
    if result is not None:
        document = artifacts.to_document(
            result, {"scenario": scenario, "params": dict(params)}
        )
        frame = encode_message(document)
    key = payload.get("key")
    if key is None or store.root is None:
        return _JobAnswer(frame, 0)
    # Written, not kept: the server parent keeps the entries it forwards.
    results = DocumentStore(store.root, RESULT_PREFIX)
    results.write(key, document, encoded=frame)
    return _JobAnswer(frame, results.stats.write_errors)


#: Signals a worker handles its own way (see :func:`_worker_main`).
_WORKER_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def _worker_main(
    conn,
    store_root: "Path | None",
    wid: int = 0,
    heartbeat_interval: float | None = 1.0,
    plan_spec: Mapping[str, Any] | None = None,
    job_runner=None,
    close_fds: Sequence[int] = (),
) -> None:
    """Worker process loop: recv job, solve, send result, repeat.

    A daemon thread heartbeats over the same pipe (``("hb", wid, seq)``
    tuples interleaved with job replies, serialized by a send lock), so
    the parent can tell a *wedged* worker — process alive, nothing
    moving — from a busy one.  ``plan_spec`` installs the parent's
    fault plan in this process (fresh occurrence counters); the
    ``worker.run`` site fires at each job start and the
    ``worker.heartbeat`` site before each beat.  Each reply carries the
    faults this process fired since its previous reply, which the
    parent adds to its own plan's count.

    A worker dies on SIGTERM and ignores SIGINT, whatever handlers it
    inherited: the pool stops its workers itself.  It is forked with
    both blocked, so one sent earlier waits for the reset.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    # A worker forked while the server holds client connections (any
    # respawn/scale-up after serving began) inherits those socket fds;
    # until they close here, a connection the parent tears down never
    # delivers EOF, and its client stalls out the full socket timeout
    # instead of reconnecting.
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    if plan_spec is not None:
        plan = faults.install(faults.FaultPlan.from_spec(plan_spec))
    else:
        # A fork-inherited plan would double-count against the parent's
        # schedule; workers only ever run explicitly shipped plans.
        plan = faults.install(None)
    reported = 0
    store = ProfileStore(store_root)
    sessions: dict[str, Session] = {}
    runner = job_runner if job_runner is not None else _run_job
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        seq = 0
        while not stop.wait(heartbeat_interval):
            rule = faults.hit("worker.heartbeat", worker=wid)
            if rule is not None and rule.action == "stall":
                if rule.delay > 0:
                    time.sleep(rule.delay)
                    continue
                return  # silent forever: the supervisor's retirement cue
            seq += 1
            try:
                with send_lock:
                    conn.send(("hb", wid, seq))
            except (BrokenPipeError, OSError, ValueError):
                return

    if heartbeat_interval and heartbeat_interval > 0:
        threading.Thread(
            target=_beat, name=f"worker-{wid}-hb", daemon=True
        ).start()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            stop.set()
            return
        if message is None:
            stop.set()
            return
        job_id, payload = message
        try:
            rule = faults.hit("worker.run", worker=wid)
            if rule is not None:
                if rule.action == "kill":
                    os._exit(17)
                elif rule.action == "delay":
                    time.sleep(rule.delay)
                elif rule.action == "raise":
                    raise rule.build_error()
            result = runner(payload, store, sessions)
            reply = (job_id, "ok", result)
        except Exception as exc:
            reply = (job_id, "error", (type(exc).__name__, str(exc)))
        fired = plan.fired[reported:] if plan is not None else []
        reported += len(fired)
        try:
            with send_lock:
                conn.send((*reply, fired))
        except (BrokenPipeError, OSError):
            stop.set()
            return


# ---------------------------------------------------------------------------
# Parent side: the worker pool
# ---------------------------------------------------------------------------


class _Job:
    """One submitted job: payload, completion event, outcome."""

    __slots__ = ("job_id", "payload", "event", "result", "error")

    def __init__(self, job_id: int, payload: Mapping[str, Any]) -> None:
        self.job_id = job_id
        self.payload = payload
        self.event = threading.Event()
        self.result: list | None = None
        self.error: tuple[str, str] | None = None


class _WorkerHandle:
    __slots__ = ("wid", "process", "conn", "current", "draining", "jobs_done")

    def __init__(self, wid: int, process, conn) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        self.current: _Job | None = None
        self.draining = False
        self.jobs_done = 0


class WorkerPool:
    """An *elastic* pool of solver processes with self-healing membership.

    Jobs are assigned over per-worker pipes (a killed worker can corrupt
    only its own channel, never a shared queue).  Three liveness layers
    keep the pool serving:

    * **Sentinel death** (the PR 4 path): a crashed/SIGKILLed worker is
      observed through its process sentinel, results it fully sent
      before dying are honored, its unfinished job requeues to the
      survivors, and — under the policy's ``respawn`` — a replacement
      spawns.
    * **Heartbeats**: workers beat over their pipes from a dedicated
      thread, so a *wedged* worker (process alive, GIL pinned, nothing
      moving) is detected by the dispatch-loop supervisor after
      ``heartbeat_miss_limit`` silent intervals, retired, and its job
      requeued — membership is judged by liveness, not just death.
    * **Degradation**: when no live worker remains (every respawn
      failed, or the pool was scaled to zero) pending jobs fall back to
      the ``inline_runner`` — in-process solving in the parent, one job
      after another on a single runner thread — warned once and counted
      in :attr:`degraded_runs`, so the service answers slowly instead of
      never.

    :meth:`scale_to` resizes membership at runtime within the policy's
    ``[min_workers, max_workers]`` bounds: growth spawns and immediately
    rebalances pending jobs onto the joiners; shrink retires idle
    workers outright and marks busy ones *draining* (they finish their
    current job, then leave).  Every transition lands in the
    :class:`~repro.workbench.membership.MembershipLog`.

    Replacement workers are forked from a parent that by then runs
    server threads — the same pattern ``multiprocessing.Pool`` uses when
    its handler thread respawns workers.  Should a replacement ever
    wedge on an inherited lock, the heartbeat supervisor (or the
    server's per-job timeout via :meth:`abandon`) retires it instead of
    hanging the client.
    """

    def __init__(
        self,
        workers: int = 2,
        store_root: "Path | None" = None,
        mp_context=None,
        policy: ElasticPolicy | None = None,
        inline_runner=None,
        job_runner=None,
        fork_fd_snapshot=None,
    ) -> None:
        self.policy = policy if policy is not None else ElasticPolicy()
        if workers < 1 and (
            self.policy.min_workers > 0 or inline_runner is None
        ):
            raise ValueError("worker pool needs at least one worker")
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            mp_context = multiprocessing.get_context(method)
        self._ctx = mp_context
        self._store_root = store_root
        self._inline_runner = inline_runner
        self._job_runner = job_runner
        # Owner-supplied callable returning fds (listener, client
        # connections) a freshly forked worker must close immediately.
        self._fork_fd_snapshot = fork_fd_snapshot
        self._lock = threading.RLock()
        self._pending: deque[_Job] = deque()
        self._jobs: dict[int, _Job] = {}
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._next_job_id = 0
        self._closed = False
        self._target = self.policy.clamp(workers)
        self.jobs_requeued = 0
        self.workers_respawned = 0
        self.degraded_runs = 0
        #: Exceptions deliberately swallowed on teardown/best-effort
        #: paths, counted by site label so a wedge diagnosis can see
        #: them in ``stats`` instead of being blind.
        self.swallowed_errors: dict[str, int] = {}
        self._degraded_active = False
        # The one thread draining ``_pending`` in process while the pool
        # has no workers; ``None`` when none runs.
        self._degraded_runner: threading.Thread | None = None
        self.membership = MembershipLog()
        self.heartbeats = HeartbeatMonitor(self.policy.heartbeat_timeout)
        with self._lock:
            for _ in range(self._target):
                self._spawn_locked()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="pool-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle ---------------------------------------------------------

    @property
    def target(self) -> int:
        """The desired live-worker count (set by :meth:`scale_to`)."""
        return self._target

    def _live_locked(self) -> list[_WorkerHandle]:
        return [h for h in self._handles.values() if not h.draining]

    def _swallow(self, site: str) -> None:
        """Count one deliberately swallowed exception at ``site``."""
        self.swallowed_errors[site] = self.swallowed_errors.get(site, 0) + 1

    def _spawn_locked(self) -> _WorkerHandle:
        rule = faults.hit("pool.spawn")
        if rule is not None and rule.action == "raise":
            raise rule.build_error()
        parent_conn, child_conn = self._ctx.Pipe()
        plan = faults.active_plan()
        close_fds: tuple[int, ...] = ()
        if self._fork_fd_snapshot is not None:
            try:
                close_fds = tuple(self._fork_fd_snapshot())
            except Exception:
                # Best-effort: a failed snapshot only costs the EOF
                # optimization, never the spawn — but count it.
                self._swallow("pool.fork_fd_snapshot")
                close_fds = ()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._store_root,
                self._next_wid,
                self.policy.heartbeat_interval,
                plan.spec() if plan is not None else None,
                self._job_runner,
                close_fds,
            ),
            daemon=True,
        )
        # Held until the worker has dropped the handlers it inherits.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        handle = _WorkerHandle(self._next_wid, process, parent_conn)
        self._next_wid += 1
        self._handles[handle.wid] = handle
        self.heartbeats.watch(handle.wid)
        self.membership.record("join", handle.wid, f"pid {process.pid}")
        return handle

    def _reap(self, handle: _WorkerHandle) -> None:
        """Join a departed worker's process off the dispatch thread."""
        threading.Thread(
            target=handle.process.join, args=(5.0,), daemon=True,
            name=f"reap-{handle.wid}",
        ).start()

    def _retire_locked(
        self, handle: _WorkerHandle, kind: str, detail: str = ""
    ) -> None:
        """Graceful leave of an *idle* worker: close its pipe, log it."""
        self._handles.pop(handle.wid, None)
        self.heartbeats.forget(handle.wid)
        self.membership.record(kind, handle.wid, detail)
        try:
            handle.conn.send(None)
        except (BrokenPipeError, OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        self._reap(handle)

    def _drain_conn_locked(self, handle: _WorkerHandle) -> None:
        """Honor results a departing worker fully sent before the end:
        this is what keeps "no request answered twice" true when a
        worker dies (or is retired) between send and exit."""
        while True:
            try:
                if not handle.conn.poll(0):
                    break
                message = handle.conn.recv()
            except Exception:
                # A dead worker's pipe can fail arbitrarily mid-drain;
                # the results already received still count.
                self._swallow("pool.drain_conn")
                break
            if (
                isinstance(message, tuple)
                and message
                and message[0] == "hb"
            ):
                continue
            self._complete_locked(handle, message)

    def _reconcile_locked(self) -> None:
        """Make membership match the target: spawn up, drain down,
        rebalance pending jobs, degrade if the pool is empty."""
        while len(self._live_locked()) < self._target and not self._closed:
            try:
                self._spawn_locked()
            except OSError as exc:
                self.membership.record("spawn-failed", None, str(exc))
                break
        excess = len(self._live_locked()) - self._target
        if excess > 0:
            # Newest joiners leave first: the longest-lived workers
            # carry the warmest session/probe caches.
            for handle in sorted(
                self._live_locked(), key=lambda h: -h.wid
            ):
                if excess <= 0:
                    break
                if handle.current is None:
                    self._retire_locked(handle, "leave", "scaled down")
                else:
                    handle.draining = True
                    self.membership.record(
                        "drain", handle.wid, "finishing current run"
                    )
                excess -= 1
        self._assign_locked()

    def scale_to(self, workers: int) -> int:
        """Resize the pool at runtime; returns the (clamped) target.

        Growth is immediate (joiners pick up pending jobs); shrink is
        graceful (busy workers drain).  The target is clamped into the
        policy's ``[min_workers, max_workers]``.
        """
        with self._lock:
            if self._closed:
                raise ServerError("worker pool is closed")
            self._target = self.policy.clamp(int(workers))
            self._reconcile_locked()
            return self._target

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [h.process.pid for h in self._handles.values()]

    def worker_info(self) -> list[WorkerInfo]:
        """A stats() row per live worker."""
        now = time.monotonic()
        with self._lock:
            rows = []
            for handle in self._handles.values():
                last = self.heartbeats.last_beat(handle.wid)
                rows.append(
                    WorkerInfo(
                        wid=handle.wid,
                        pid=handle.process.pid,
                        state="draining" if handle.draining else "active",
                        jobs_done=handle.jobs_done,
                        last_beat_age=(
                            None if last is None else round(now - last, 3)
                        ),
                    )
                )
            return rows

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            self._handles.clear()
            for job in self._jobs.values():
                if job.error is None and job.result is None:
                    job.error = ("ServerError", "worker pool closed")
                job.event.set()
            self._jobs.clear()
            self._pending.clear()
        for handle in handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError, ValueError):
                pass
        for handle in handles:
            handle.process.join(timeout=0.5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.conn.close()
        self._dispatcher.join(timeout=2.0)

    # -- submission --------------------------------------------------------

    def abandon(self, job: _Job) -> None:
        """Give up on a job: strike it from the books and retire the
        worker stuck on it (the sentinel path then spawns a
        replacement; the job is NOT retried — its waiter gets an
        error)."""
        stuck: _WorkerHandle | None = None
        with self._lock:
            self._jobs.pop(job.job_id, None)
            try:
                self._pending.remove(job)
            except ValueError:
                pass
            for handle in self._handles.values():
                if handle.current is job:
                    stuck = handle
                    break
            if stuck is not None:
                self.membership.record(
                    "retire-stuck", stuck.wid, "job timeout"
                )
        if stuck is not None:
            stuck.process.terminate()
        if job.error is None and job.result is None:
            job.error = ("ServerError", "job abandoned after timeout")
        job.event.set()

    def submit(self, payload: Mapping[str, Any]) -> _Job:
        with self._lock:
            if self._closed:
                raise ServerError("worker pool is closed")
            job = _Job(self._next_job_id, payload)
            self._next_job_id += 1
            self._jobs[job.job_id] = job
            self._pending.append(job)
            self._assign_locked()
        return job

    def _assign_locked(self) -> None:
        for handle in list(self._handles.values()):
            if not self._pending:
                break
            if handle.current is not None or handle.draining:
                continue
            job = self._pending.popleft()
            try:
                handle.conn.send((job.job_id, job.payload))
            except (BrokenPipeError, OSError, ValueError):
                # Dead or dying worker: give the job back and let the
                # sentinel path retire the worker.
                self._pending.appendleft(job)
                continue
            handle.current = job
        self._maybe_degrade_locked()

    # -- degraded (in-process) fallback ------------------------------------

    def _maybe_degrade_locked(self) -> None:
        """With zero live workers, answer pending jobs in process."""
        if self._handles:
            if self._degraded_active and self._live_locked():
                self._degraded_active = False
                self.membership.record(
                    "restored", None,
                    f"{len(self._live_locked())} worker(s) live",
                )
            return
        if self._closed or not self._pending:
            return
        if self._inline_runner is None:
            while self._pending:
                job = self._pending.popleft()
                self._jobs.pop(job.job_id, None)
                job.error = ("ServerError", "no live workers")
                job.event.set()
            return
        if not self._degraded_active:
            self._degraded_active = True
            self.membership.record(
                "degraded", None, "no live workers; solving in-process"
            )
            warnings.warn(
                "partition worker pool has no live workers; "
                "degrading to in-process solving",
                RuntimeWarning,
                stacklevel=2,
            )
        if self._degraded_runner is None:
            self._degraded_runner = threading.Thread(
                target=self._run_degraded, daemon=True, name="degraded-runner"
            )
            self._degraded_runner.start()

    def _run_degraded(self) -> None:
        """Answer pending jobs in process, one after another, until the
        queue is empty, a worker joins or the pool closes."""
        while True:
            with self._lock:
                if self._closed or self._handles or not self._pending:
                    self._degraded_runner = None
                    return
                job = self._pending.popleft()
            try:
                job.result = self._inline_runner(job.payload)
            except Exception as exc:
                job.error = (type(exc).__name__, str(exc))
            with self._lock:
                self._jobs.pop(job.job_id, None)
                self.degraded_runs += 1
            job.event.set()

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                conn_map = {h.conn: h for h in self._handles.values()}
                sentinel_map = {
                    h.process.sentinel: h for h in self._handles.values()
                }
            waitables = list(conn_map) + list(sentinel_map)
            if not waitables:
                # Degraded (empty) pool: nothing to watch; idle until a
                # scale_to() or respawn repopulates membership.
                time.sleep(0.05)
                self._supervise()
                continue
            try:
                ready = mp_connection.wait(waitables, timeout=0.1)
            except OSError:
                ready = []
            for item in ready:
                handle = conn_map.get(item) or sentinel_map.get(item)
                if handle is None:
                    continue
                if item is handle.conn:
                    self._on_readable(handle)
                else:
                    self._on_death(handle)
            self._supervise()

    def _supervise(self) -> None:
        """Retire workers whose heartbeats went silent (wedged, not
        dead: the sentinel never fires for these), requeue their jobs,
        and reconcile membership back to the target."""
        overdue = self.heartbeats.overdue()
        if not overdue:
            return
        with self._lock:
            if self._closed:
                return
            retired = False
            for wid in overdue:
                handle = self._handles.get(wid)
                if handle is None:
                    continue
                retired = True
                self._handles.pop(wid, None)
                self.heartbeats.forget(wid)
                self.membership.record(
                    "retire-heartbeat", wid,
                    f"silent past {self.policy.heartbeat_timeout:.1f}s",
                )
                self._drain_conn_locked(handle)
                handle.process.terminate()
                job = handle.current
                if job is not None and job.job_id in self._jobs:
                    self.jobs_requeued += 1
                    self._pending.appendleft(job)
                handle.current = None
                try:
                    handle.conn.close()
                except OSError:
                    pass
                self._reap(handle)
            if retired and not self._closed:
                before = len(self._handles)
                self._reconcile_locked()
                self.workers_respawned += max(
                    len(self._handles) - before, 0
                )

    def _complete_locked(self, handle: _WorkerHandle, message) -> None:
        job_id, status, data, fired = message
        if not isinstance(job_id, int):
            return
        faults.absorb(fired)
        job = self._jobs.pop(job_id, None)
        if handle.current is not None and handle.current.job_id == job_id:
            handle.current = None
            handle.jobs_done += 1
        if job is None:
            return
        if status == "ok":
            job.result = data
        else:
            job.error = tuple(data)
        job.event.set()

    def _on_readable(self, handle: _WorkerHandle) -> None:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            self._on_death(handle)
            return
        # Any traffic is a sign of life, heartbeat or reply alike.
        self.heartbeats.beat(handle.wid)
        if isinstance(message, tuple) and message and message[0] == "hb":
            return
        with self._lock:
            if handle.wid not in self._handles:
                return
            self._complete_locked(handle, message)
            if handle.draining and handle.current is None:
                self._retire_locked(handle, "leave", "drained")
            self._assign_locked()

    def _on_death(self, handle: _WorkerHandle) -> None:
        # Reaped first, so the death event can carry the exit code.
        handle.process.join(timeout=1.0)
        with self._lock:
            if handle.wid not in self._handles:
                return
            del self._handles[handle.wid]
            self.heartbeats.forget(handle.wid)
            self.membership.record(
                "death", handle.wid,
                f"exit code {handle.process.exitcode}",
            )
            # Results that were fully sent before the crash still count:
            # honoring them is what makes "no request answered twice"
            # hold when a worker dies between send and exit.
            self._drain_conn_locked(handle)
            handle.conn.close()
            job = handle.current
            if job is not None and job.job_id in self._jobs:
                self.jobs_requeued += 1
                self._pending.appendleft(job)
            if not self._closed:
                if not self.policy.respawn:
                    # Let the pool drain toward degradation instead of
                    # healing: the target follows the survivors down.
                    self._target = max(
                        len(self._live_locked()), self.policy.min_workers, 0
                    )
                before = len(self._handles)
                self._reconcile_locked()
                self.workers_respawned += max(
                    len(self._handles) - before, 0
                )


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


class PartitionServer:
    """Serves ``partition_many`` batches over TCP, sharded across workers.

    Args:
        host, port: bind address (``port=0`` picks an ephemeral port;
            read :attr:`address` after :meth:`start`).
        workers: worker process count.
        store: directory for the durable profile store every worker (and
            the parent) shares; ``None`` gives each worker its own
            in-memory store, which it profiles into on first use.
        default_platform: platform for requests that do not name one.
        job_timeout: seconds one job may take before it is
            abandoned (error to the client, stuck worker retired);
            ``None`` waits forever.
        min_workers, max_workers: elastic bounds for
            :meth:`scale_to` / the ``scale`` op; ``min_workers=0``
            permits a fully degraded (in-process) pool.  Defaults:
            ``min(1, workers)`` and unbounded.
        heartbeat_interval: seconds between worker heartbeats (``0``
            disables heartbeating; sentinel death detection remains).
        heartbeat_miss_limit: silent intervals before a wedged worker
            is retired and its job requeued.
        respawn: replace workers that die unexpectedly; with ``False``
            the pool drains toward in-process degradation instead.
        fault_plan: a :class:`~repro.workbench.faults.FaultPlan` (or
            spec) installed at :meth:`start` — chaos testing only.
        result_cache: memoize solved requests (default on).  The cache
            shares the durable store directory, so every worker — and
            every other server process on the same store — serves one
            shared cache; with an in-memory store the cache lives (and
            dies) with this server.  Hits are answered by the parent
            without touching the pool and are byte-identical in
            canonical form to the solve that populated them.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: "str | os.PathLike | None" = None,
        default_platform: str = "tmote",
        mp_context=None,
        job_timeout: float | None = 900.0,
        result_cache: bool = True,
        min_workers: int | None = None,
        max_workers: int | None = None,
        heartbeat_interval: float | None = 1.0,
        heartbeat_miss_limit: int = 5,
        respawn: bool = True,
        fault_plan: "faults.FaultPlan | Mapping[str, Any] | None" = None,
    ) -> None:
        self._host = host
        self._port = port
        self.workers = workers
        self.default_platform = default_platform
        # Workers get the directory path and open their own store on
        # it at spawn.
        self._store_root = store_dir(store)
        self._mp_context = mp_context
        self.job_timeout = job_timeout
        self.policy = ElasticPolicy(
            min_workers=(
                min(1, workers) if min_workers is None else min_workers
            ),
            max_workers=max_workers,
            heartbeat_interval=heartbeat_interval,
            heartbeat_miss_limit=heartbeat_miss_limit,
            respawn=respawn,
        )
        self.fault_plan = (
            faults.FaultPlan.from_spec(fault_plan)
            if fault_plan is not None
            and not isinstance(fault_plan, faults.FaultPlan)
            else fault_plan
        )
        self.result_cache: ResultCache | None = (
            ResultCache(self._store_root) if result_cache else None
        )
        self._store = ProfileStore(self._store_root)
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self.pool: WorkerPool | None = None
        self._frames: FrameListener | None = None
        self._closed = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._frames is None:
            raise ServerError("server is not started")
        return self._frames.address

    def worker_pids(self) -> list[int]:
        if self.pool is None:
            return []
        return self.pool.worker_pids()

    def scale_to(self, workers: int) -> int:
        """Resize the worker pool at runtime (see
        :meth:`WorkerPool.scale_to`); returns the clamped target."""
        if self.pool is None:
            raise ServerError("server is not started")
        return self.pool.scale_to(workers)

    def _solve_inline(self, payload: Mapping[str, Any]):
        """Degraded-mode runner: solve one job in process,
        against the parent's own store and session cache."""
        with self._sessions_lock:
            return _run_job(payload, self._store, self._sessions)

    def _fork_fds(self) -> list[int]:
        """The socket fds a freshly forked worker must close: the
        listener and every live client connection (inherited copies
        would keep torn-down connections from ever delivering EOF)."""
        if self._frames is None:
            return []
        return self._frames.fileno_snapshot()

    def start(self) -> tuple[str, int]:
        """Spawn the pool, bind, and begin accepting; returns the address."""
        if self._frames is not None:
            return self.address
        if self.fault_plan is not None:
            faults.install(self.fault_plan)
        # Workers fork before any server thread exists.
        self.pool = WorkerPool(
            self.workers,
            store_root=self._store_root,
            mp_context=self._mp_context,
            policy=self.policy,
            inline_runner=self._solve_inline,
            fork_fd_snapshot=self._fork_fds,
        )
        self._frames = FrameListener(self._host, self._port, self._serve_op)
        try:
            self._frames.start()
        except ServerError:
            # A port that cannot be bound must not leave the forked
            # workers behind.
            self.close()
            raise
        return self.address

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._frames is not None:
            self._frames.close()
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "PartitionServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Start and block until :meth:`close` (or KeyboardInterrupt)."""
        self.start()
        try:
            while not self._closed.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    # -- connection handling -----------------------------------------------
    # (accept/dispatch plumbing lives in transport.FrameListener)

    def _serve_op(self, stream: BinaryIO, document: Mapping[str, Any]):
        op = document.get("op")
        if op == "ping":
            cache = self.result_cache
            send_message(
                stream,
                {
                    "ok": True,
                    "workers": len(self.worker_pids()),
                    "requeued": self.pool.jobs_requeued if self.pool else 0,
                    "respawned": (
                        self.pool.workers_respawned if self.pool else 0
                    ),
                    "degraded_runs": (
                        self.pool.degraded_runs if self.pool else 0
                    ),
                    "cache_hits": cache.stats.hits if cache else 0,
                    "cache_misses": cache.stats.misses if cache else 0,
                    "cache_stores": cache.stats.stores if cache else 0,
                },
            )
        elif op == "stats":
            send_message(stream, self._stats_payload())
        elif op == "scale":
            try:
                target = self.scale_to(int(document.get("workers", 0)))
            except (ServerError, ValueError) as exc:
                send_message(
                    stream,
                    {
                        "ok": False,
                        "kind": type(exc).__name__,
                        "error": str(exc),
                    },
                )
            else:
                send_message(
                    stream,
                    {
                        "ok": True,
                        "target": target,
                        "workers": len(self.worker_pids()),
                    },
                )
        elif op == "scenarios":
            send_message(
                stream,
                {
                    "ok": True,
                    "scenarios": [s.name for s in list_scenarios()],
                },
            )
        elif op == "partition_many":
            self._op_partition_many(stream, document)
        else:
            send_message(
                stream,
                {
                    "ok": False,
                    "kind": "WorkbenchError",
                    "error": f"unknown op {op!r}",
                },
            )

    def _stats_payload(self) -> dict[str, Any]:
        """The ``stats`` op's reply: membership, cache, store, faults."""
        pool = self.pool
        cache = self.result_cache
        payload: dict[str, Any] = {
            "ok": True,
            "workers": len(self.worker_pids()),
            "target": pool.target if pool else 0,
            "requeued": pool.jobs_requeued if pool else 0,
            "respawned": pool.workers_respawned if pool else 0,
            "degraded_runs": pool.degraded_runs if pool else 0,
            "membership": (
                pool.membership.to_payload()
                if pool
                else {"counters": {}, "events": []}
            ),
            "worker_info": (
                [w.to_payload() for w in pool.worker_info()] if pool else []
            ),
            "cache": {
                "hits": cache.stats.hits if cache else 0,
                "misses": cache.stats.misses if cache else 0,
                "stores": cache.stats.stores if cache else 0,
                "store_errors": cache.stats.write_errors if cache else 0,
            },
            "store": {"write_errors": self._store.stats.write_errors},
            "swallowed_errors": dict(pool.swallowed_errors) if pool else {},
            "faults": asdict(faults.stats()),
        }
        return payload

    # -- partition_many ----------------------------------------------------

    def _op_partition_many(
        self, stream: BinaryIO, document: Mapping[str, Any]
    ) -> None:
        try:
            batch = self._submit_batch(document)
        except (WorkbenchError, InfeasiblePartition, ValueError) as exc:
            send_message(
                stream,
                {
                    "ok": False,
                    "kind": type(exc).__name__,
                    "error": str(exc),
                },
            )
            return
        jobs, n_requests, platform, prefilled, miss_keys = batch

        # One slot per request: its answer, or ``None`` (infeasible).
        slots: list[CacheEntry | None] = [None] * n_requests
        for index, slot in prefilled.items():
            slots[index] = slot
        failure: tuple[str, str] | None = None
        for job in jobs:
            if not job.event.wait(self.job_timeout):
                self.pool.abandon(job)
            if job.error is not None:
                failure = failure or job.error
                continue
            answer = job.result
            if self.result_cache is not None:
                self.result_cache.add_store_errors(answer.store_errors)
            if answer.frame is not None:
                slots[job.payload["index"]] = CacheEntry(wire=answer.frame)
        if failure is not None:
            send_message(
                stream,
                {"ok": False, "kind": failure[0], "error": failure[1]},
            )
            return
        if self.result_cache is not None:
            # The workers already wrote each fresh answer's durable
            # entry; the parent remembers the bytes it forwards, which
            # this reply and every later hit send as they are.
            for index, key in miss_keys.items():
                self.result_cache.remember(key, slots[index])
        send_message(
            stream,
            {
                "ok": True,
                "count": n_requests,
                "platform": platform,
                "cache_hits": len(prefilled),
                "cache_misses": n_requests - len(prefilled),
            },
        )
        for index, slot in enumerate(slots):
            send_frame(stream, _result_frame(index, slot))

    def _submit_batch(self, document: Mapping[str, Any]) -> tuple[
        list[_Job],
        int,
        str,
        dict[int, CacheEntry | None],
        dict[int, str],
    ]:
        if self.pool is None:
            raise ServerError("server is not started")
        scenario_name = document.get("scenario")
        if not scenario_name:
            raise WorkbenchError("partition_many needs a scenario name")
        scenario = get_scenario(scenario_name)
        params = scenario.resolve_params(document.get("params") or {})
        platform = document.get("platform") or self.default_platform
        profiler_cfg = document.get("profiler")
        if profiler_cfg is not None:
            # Validated here, at the door: workers and the parent's
            # sessions build a Profiler from this mapping as is.
            profiler_cfg = profiler_config(profiler_cfg)
        skip_infeasible = bool(document.get("skip_infeasible", False))
        payloads = list(document.get("requests") or [])
        requests = [PartitionRequest.from_payload(p) for p in payloads]

        # Result-cache pass: hits are answered by the parent; only the
        # misses reach the workers.
        prefilled: dict[int, CacheEntry | None] = {}
        miss_keys: dict[int, str] = {}
        miss_indices: list[int] = list(range(len(requests)))
        if self.result_cache is not None:
            miss_indices = []
            for index, request in enumerate(requests):
                key = result_key(
                    scenario, params, profiler_cfg, platform, request
                )
                entry = self.result_cache.lookup(key)
                if entry is None:
                    miss_keys[index] = key
                    miss_indices.append(index)
                elif entry.infeasible:
                    if not skip_infeasible:
                        self.result_cache.raise_infeasible(key)
                    prefilled[index] = None
                else:
                    prefilled[index] = entry

        # One job per miss: every answer depends only on its request, so
        # any worker may solve any of them.
        jobs = [
            self.pool.submit(
                {
                    "scenario": scenario.name,
                    "params": dict(params),
                    "platform": platform,
                    "profiler": profiler_cfg,
                    "skip_infeasible": skip_infeasible,
                    "index": index,
                    "request": payloads[index],
                    # The worker persists the answer under its key.
                    "key": miss_keys.get(index),
                }
            )
            for index in miss_indices
        ]
        return jobs, len(requests), platform, prefilled, miss_keys


def _result_frame(index: int, answer: CacheEntry | None) -> bytes:
    """One result message's frame, built around the answer's stored
    wire bytes: exactly ``encode_message({"index": index, "result":
    document})``, with ``None`` standing for an infeasible answer."""
    result = answer.wire() if answer is not None else b"null"
    return b'{"index": %d, "result": ' % index + result + b"}"


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class ServerClient:
    """A connection to a :class:`PartitionServer` or a
    :class:`~repro.workbench.gateway.Gateway`.

    Thread-safe (one in-flight call at a time per client).  ``address``
    is ``"host:port"``, an ``(host, port)`` pair, a server's
    :attr:`~PartitionServer.address`, or a one-entry list or
    ``@manifest.json``.  A spec naming more than one backend raises
    :class:`ServerError` before any socket opens: a fleet is routed by
    ``python -m repro gateway``, and the client talks to that one
    address.  ``connect_timeout`` retries the initial connection, so a
    client can be started alongside a server that is still binding;
    each connect *attempt* is capped at the remaining connect budget,
    so a dead backend fails in ``connect_timeout``, never the full
    request ``timeout``.

    Transport failures (a reset connection, a dead server, a torn
    frame) surface as :class:`ServerUnavailable` — never a raw
    ``ConnectionResetError``/``BrokenPipeError`` — and are retried up
    to ``retries`` times with exponential backoff plus jitter, over a
    fresh connection each time.  Retrying a ``partition_many`` is safe
    because the server's result cache makes re-sent requests
    idempotent: a batch that solved before the failure is answered
    from cache, not solved twice.  *Application* errors reported by
    the server (infeasible request, unknown scenario, a gateway's
    :class:`ServerBusy` backpressure) are never retried.

    ``backoff_seed`` makes the retry jitter deterministic (chaos
    replay); ``tenant`` stamps every batch with a client identity the
    gateway's per-tenant admission quotas act on.
    """

    def __init__(
        self,
        address: Any,
        timeout: float | None = 300.0,
        connect_timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.1,
        stats_timeout: float = 5.0,
        backoff_seed: int | None = None,
        tenant: str | None = None,
    ) -> None:
        targets = parse_targets(address)
        if len(targets) > 1:
            spec = ",".join(targets)
            raise ServerError(
                f"{spec} names {len(targets)} backends, but a client "
                f"talks to one address: run `python -m repro gateway "
                f"--backends {spec}` and point the client at the gateway"
            )
        host, port = parse_address(targets[0])
        self.retries = max(int(retries), 0)
        self.stats_timeout = stats_timeout
        self.tenant = tenant
        self._backoff = Backoff(base=backoff, seed=backoff_seed)
        self._conn = ClientConnection(
            host, port, timeout=timeout, connect_timeout=connect_timeout
        )
        self._lock = threading.Lock()
        #: Transport failures that were recovered by reconnect+retry.
        self.transport_retries = 0
        #: Result-cache counters from the most recent
        #: :meth:`partition_many` acknowledgement (the CLI's
        #: ``--stats`` source).
        self.last_batch_stats: dict[str, int] = {}
        self._graphs = _GraphCache()
        self._conn.connect()

    # -- connection management ---------------------------------------------

    @property
    def _sock(self) -> Any:
        """The live socket (tests tear it to exercise retries)."""
        return self._conn.sock

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _call(self, document: Mapping[str, Any]) -> dict[str, Any]:
        reply, _ = self._exchange(document)
        return reply

    def _exchange(
        self,
        document: Mapping[str, Any],
        read_results: Callable[[dict[str, Any]], Any] | None = None,
    ) -> tuple[dict[str, Any], Any]:
        """One request and its whole reply, retried as a unit.

        The reply opens with an ack, from which a remote error is
        raised; ``read_results(ack)`` then reads the rest (a
        ``partition_many`` result stream).  A transport failure anywhere
        in the exchange — or a gateway acking ``ServerUnavailable`` —
        re-sends the request on a fresh connection after a backoff, and
        the last failure propagates as :class:`ServerUnavailable`.  A
        batch cut off mid-stream is answered from the server's result
        cache the second time, not solved again.  Other remote errors
        are answers and are never retried.
        """
        with self._lock:
            last: ServerUnavailable | None = None
            for attempt in range(self.retries + 1):
                if attempt:
                    self.transport_retries += 1
                    self._backoff.sleep(attempt - 1)
                try:
                    if not self._conn.connected:
                        self._conn.connect()
                    self._conn.send(document)
                    ack = self._conn.recv()
                    if not ack.get("ok"):
                        _raise_remote(ack)
                    return ack, read_results(ack) if read_results else None
                except ServerUnavailable as exc:
                    last = exc
                    self._conn.close()
            assert last is not None
            raise last

    # -- operations --------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness + pool stats (worker count, requeues, respawns)."""
        return self._call({"op": "ping"})

    def stats(self, timeout: float | None = None) -> dict[str, Any]:
        """Membership, cache, store, and fault counters.

        Uses a short dedicated socket timeout (``stats_timeout`` or the
        ``timeout`` argument) so a closing or wedged server yields a
        typed :class:`ServerUnavailable` quickly instead of hanging for
        the client's full request timeout.  Never retried: stats are a
        point-in-time observation.
        """
        budget = self.stats_timeout if timeout is None else timeout
        with self._lock:
            if not self._conn.connected:
                self._conn.connect()
            previous = self._conn.settimeout(budget)
            try:
                self._conn.send({"op": "stats"})
                reply = self._conn.recv()
            except (ServerUnavailable, OSError) as exc:
                self._conn.close()
                raise ServerUnavailable(
                    f"stats request failed within {budget}s: {exc}"
                ) from exc
            else:
                self._conn.settimeout(previous)
        if not reply.get("ok"):
            _raise_remote(reply)
        return reply

    def scale(self, workers: int) -> dict[str, Any]:
        """Ask the server to resize its pool; returns target + live."""
        return self._call({"op": "scale", "workers": int(workers)})

    def scenarios(self) -> list[str]:
        return list(self._call({"op": "scenarios"})["scenarios"])

    def partition_many(
        self,
        scenario: str,
        requests: Sequence[PartitionRequest | Mapping[str, Any]],
        params: Mapping[str, Any] | None = None,
        platform: str | None = None,
        profiler: Profiler | None = None,
        skip_infeasible: bool = False,
    ) -> list[PartitionResult | None]:
        """Serve a batch remotely; mirrors
        :meth:`Session.partition_many` (results in request order,
        ``None`` for infeasible requests under ``skip_infeasible``)."""
        request_objs = [
            r if isinstance(r, PartitionRequest)
            else PartitionRequest.from_payload(r)
            for r in requests
        ]
        document = {
            "op": "partition_many",
            "scenario": scenario,
            "params": dict(params or {}),
            "platform": platform,
            "profiler": (
                profiler_config(profiler) if profiler is not None else None
            ),
            "skip_infeasible": skip_infeasible,
            "requests": [r.to_payload() for r in request_objs],
        }
        if self.tenant is not None:
            document["tenant"] = self.tenant

        def read_results(ack: dict[str, Any]) -> list[PartitionResult | None]:
            self.last_batch_stats = {
                "cache_hits": int(ack.get("cache_hits", 0)),
                "cache_misses": int(ack.get("cache_misses", 0)),
            }
            graph = self._graphs.get(scenario, params or {})
            results: list[PartitionResult | None] = [None] * int(ack["count"])
            for _ in range(len(results)):
                message = self._conn.recv()
                payload = message.get("result")
                if payload is not None:
                    results[int(message["index"])] = artifacts.from_document(
                        payload, graph=graph
                    )
            return results

        ack, results = self._exchange(document, read_results)
        served_platform = ack.get("platform")
        for request, result in zip(request_objs, results):
            if result is not None:
                # Reattach serving context (the artifact does not carry
                # it), mirroring PartitionService._with_platform.
                result.request = (
                    request
                    if request.platform is not None
                    else replace(request, platform=served_platform)
                )
        return results


class _GraphCache:
    """The scenario graphs a client decodes answers against.

    Each (scenario, resolved params) pair is built once and kept, up to
    :data:`_CLIENT_GRAPHS` pairs; a scenario re-registered under the
    same name is built afresh.  Thread-safe.
    """

    def __init__(self) -> None:
        self._graphs: dict[str, tuple[Scenario, StreamGraph]] = {}
        self._lock = threading.Lock()

    def get(self, scenario: str, params: Mapping[str, Any]) -> StreamGraph:
        scenario_obj = get_scenario(scenario)
        resolved = scenario_obj.resolve_params(params)
        key = json.dumps(
            [scenario_obj.name, resolved], sort_keys=True, default=str
        )
        with self._lock:
            kept = self._graphs.pop(key, None)
            if kept is None or kept[0] is not scenario_obj:
                kept = (scenario_obj, scenario_obj.build(resolved))
            self._graphs[key] = kept
            while len(self._graphs) > _CLIENT_GRAPHS:
                self._graphs.pop(next(iter(self._graphs)))
        return kept[1]


def _raise_remote(reply: Mapping[str, Any]) -> None:
    kind = reply.get("kind", "ServerError")
    error = reply.get("error", "unknown server error")
    if kind == "InfeasiblePartition":
        raise InfeasiblePartition(error)
    if kind == "ServerBusy":
        raise ServerBusy(error)
    if kind == "ServerUnavailable":
        # A gateway reporting that a shard's backends are all gone:
        # retryable, exactly like a direct transport failure.
        raise ServerUnavailable(error)
    raise ServerError(f"{kind}: {error}")
