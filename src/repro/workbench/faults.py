"""Deterministic fault injection: seeded chaos for the serving stack.

A partitioning system only earns its fault-tolerance claims if failures
can be *scheduled*: "worker 0 dies at its second job, the fourth wire
frame is corrupted, the next store write raises" — and the served
artifacts still come back byte-identical to the in-process answers.
This module is that scheduler.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each
naming an instrumented *site* in the serving stack, an *action*, and a
deterministic occurrence window (fire on the ``after``-th hit at that
site, ``count`` times).  The instrumented sites:

========================  =====================================  ==========================
site                      where                                  actions
========================  =====================================  ==========================
``worker.run``            worker process, at each job start      ``kill``, ``delay``, ``raise``
``worker.heartbeat``      worker heartbeat thread, per beat      ``stall``
``frames.send``           every :func:`~repro.runtime.frames.send_frames`  ``drop``, ``truncate``, ``corrupt``, ``delay``
``store.write``           :func:`~repro.workbench.artifacts.write_document`  ``raise``, ``delay``
``pool.spawn``            :meth:`WorkerPool <repro.workbench.server.WorkerPool>` worker spawn  ``raise``
``gateway.route``         :class:`Gateway <repro.workbench.gateway.Gateway>` shard dispatch  ``raise``, ``delay``
========================  =====================================  ==========================

Every site check is a no-op (one global read) when no plan is
installed, so production serving pays nothing.  Occurrence counters are
kept per ``(site, worker)`` in each process, which makes a schedule
deterministic wherever the hit sequence itself is (a worker counts its
own jobs; a single-client connection counts its frames in lockstep
with the server's replies).

Plans cross process boundaries two ways: worker processes receive the
parent's active plan spec at spawn time, and ``REPRO_FAULT_PLAN`` (JSON
text, or ``@/path/to/plan.json``) lets the CLI inject faults into
``python -m repro serve`` — the CI ``chaos-smoke`` job drives a live
server that way.  ``tests/workbench/test_chaos.py`` pins the headline
property: under every seeded schedule the served artifacts are
byte-identical in canonical form and no request is lost or duplicated.
"""

from __future__ import annotations

import json
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..runtime import frames

#: Environment variable holding a JSON plan spec (or ``@path`` to one).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The instrumented sites and the actions each supports.
SITES: dict[str, tuple[str, ...]] = {
    "worker.run": ("kill", "delay", "raise"),
    "worker.heartbeat": ("stall",),
    "frames.send": ("drop", "truncate", "corrupt", "delay"),
    "store.write": ("raise", "delay"),
    "pool.spawn": ("raise",),
    # Gateway shard dispatch: fired once per (shard, attempt)
    # before the sub-batch is forwarded to a backend.  ``raise``
    # behaves exactly like an unreachable backend, driving the
    # failover path; ``delay`` stalls the dispatch.
    "gateway.route": ("raise", "delay"),
}


class FaultPlanError(ValueError):
    """Raised for malformed fault-plan specs."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault.

    Args:
        site: instrumented site name (see :data:`SITES`).
        action: what to do when the rule fires.
        after: fire once the matching site has been hit this many times
            (0 = the very first hit), counted per ``(site, worker)`` in
            each process.
        count: how many consecutive hits fire (default 1); ``0`` means
            every hit from ``after`` on.
        worker: only hits reporting this worker id match (``None``
            matches any worker, including none).
        delay: seconds, for ``delay`` and bounded ``stall`` actions.
        error: exception class name for ``raise`` actions (``OSError``
            by default; any builtin exception name works).
        message: message attached to injected exceptions.
    """

    site: str
    action: str
    after: int = 0
    count: int = 1
    worker: int | None = None
    delay: float = 0.0
    error: str = "OSError"
    message: str = "injected fault"

    def __post_init__(self) -> None:
        actions = SITES.get(self.site)
        if actions is None:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} "
                f"(known: {sorted(SITES)})"
            )
        if self.action not in actions:
            raise FaultPlanError(
                f"site {self.site!r} does not support action "
                f"{self.action!r} (supported: {actions})"
            )
        if self.after < 0 or self.count < 0:
            raise FaultPlanError("after/count must be non-negative")

    def covers(self, occurrence: int) -> bool:
        """Whether this rule fires on the given 0-based occurrence."""
        if occurrence < self.after:
            return False
        return self.count == 0 or occurrence < self.after + self.count

    def build_error(self) -> BaseException:
        """The exception a ``raise`` action injects."""
        import builtins

        exc_type = getattr(builtins, self.error, OSError)
        if not (isinstance(exc_type, type)
                and issubclass(exc_type, BaseException)):
            exc_type = OSError
        return exc_type(f"{self.message} [{self.site}]")


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Construct from explicit rules, a serialized spec
    (:meth:`from_spec`), or a seed (:meth:`seeded` — a reproducible
    random schedule over the full fault menu).  Install with
    :func:`install` (or the :func:`injected` context manager) to arm
    the hooks; occurrence counters live on the plan instance and are
    process-local.
    """

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in rules
        ]
        self._lock = threading.Lock()
        self._hits: dict[tuple[str, int | None], int] = {}
        #: Fired (site, action, worker, occurrence) tuples, for tests
        #: and the server's chaos observability.
        self.fired: list[tuple[str, str, int | None, int]] = []

    # -- matching -----------------------------------------------------------

    def hit(self, site: str, worker: int | None = None) -> FaultRule | None:
        """Record one hit at a site; the rule to apply, or ``None``.

        Counters are per ``(site, worker)``: a rule pinned to worker 2
        fires on worker 2's own ``after``-th hit no matter how busy its
        siblings are.
        """
        with self._lock:
            key = (site, worker)
            occurrence = self._hits.get(key, 0)
            self._hits[key] = occurrence + 1
            for rule in self.rules:
                if rule.site != site:
                    continue
                if rule.worker is not None and rule.worker != worker:
                    continue
                if rule.covers(occurrence):
                    self.fired.append(
                        (site, rule.action, worker, occurrence)
                    )
                    return rule
        return None

    def reset(self) -> None:
        """Zero every occurrence counter (fresh schedule, same rules)."""
        with self._lock:
            self._hits.clear()
            self.fired.clear()

    # -- serialization ------------------------------------------------------

    def spec(self) -> dict[str, Any]:
        """A JSON-ready spec; inverse of :meth:`from_spec`."""
        return {"rules": [asdict(rule) for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.spec(), sort_keys=True)

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(spec, Mapping) or "rules" not in spec:
            raise FaultPlanError(
                "fault-plan spec must be an object with a 'rules' list"
            )
        rules = []
        for raw in spec["rules"]:
            if not isinstance(raw, Mapping):
                raise FaultPlanError(f"bad fault rule: {raw!r}")
            unknown = set(raw) - set(FaultRule.__dataclass_fields__)
            if unknown:
                raise FaultPlanError(
                    f"unknown fault-rule fields: {sorted(unknown)}"
                )
            rules.append(FaultRule(**raw))
        return cls(rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not JSON: {exc}") from exc
        return cls.from_spec(spec)

    @classmethod
    def from_text(cls, text: str) -> "FaultPlan":
        """A plan from inline JSON or an ``@/path/to/plan.json`` ref.

        The one spelling shared by the CLI (``repro serve
        --fault-plan``) and :meth:`from_env`.
        """
        text = text.strip()
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        return cls.from_json(text)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan named by :data:`PLAN_ENV`, or ``None``."""
        raw = os.environ.get(PLAN_ENV, "").strip()
        if not raw:
            return None
        return cls.from_text(raw)

    # -- seeded schedules ---------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int = 2,
        jobs: int = 6,
        n_faults: int | None = None,
    ) -> "FaultPlan":
        """A reproducible random schedule over the full fault menu.

        The same seed always yields the same rules; distinct seeds
        spread kills, heartbeat stalls, frame drops/corruptions, and
        store write errors across the first ``jobs`` worker jobs and
        the early wire frames.  ``n_faults`` bounds the schedule size
        (default: seed-derived, 1–3).
        """
        rng = random.Random(seed)

        def menu() -> FaultRule:
            kind = rng.randrange(5)
            if kind == 0:
                return FaultRule(
                    site="worker.run", action="kill",
                    worker=rng.randrange(workers),
                    after=rng.randrange(max(jobs // 2, 1)),
                )
            if kind == 1:
                return FaultRule(
                    site="worker.heartbeat", action="stall",
                    worker=rng.randrange(workers),
                    after=rng.randrange(3), count=0,
                )
            if kind == 2:
                return FaultRule(
                    site="frames.send",
                    action=rng.choice(["drop", "corrupt", "truncate"]),
                    after=rng.randrange(4),
                )
            if kind == 3:
                return FaultRule(
                    site="store.write", action="raise",
                    after=rng.randrange(max(jobs, 1)), count=1,
                )
            return FaultRule(
                site="worker.run", action="delay",
                worker=rng.randrange(workers),
                after=0, count=0, delay=0.01 + rng.random() * 0.05,
            )

        size = n_faults if n_faults is not None else rng.randint(1, 3)
        return cls([menu() for _ in range(size)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({len(self.rules)} rules, fired={len(self.fired)})"


# ---------------------------------------------------------------------------
# Installation: one active plan per process, armed into the frame layer
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The process's installed plan, if any."""
    return _ACTIVE


def install(plan: FaultPlan | Mapping[str, Any] | None) -> FaultPlan | None:
    """Install (or, with ``None``, clear) the process-wide plan.

    Arms the :mod:`repro.runtime.frames` send hook; every other site
    consults :func:`hit` directly.  Returns the installed plan.
    """
    global _ACTIVE
    if plan is not None and not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_spec(plan)
    _ACTIVE = plan
    frames.set_fault_hook(None if plan is None else _frame_hook)
    return plan


def clear() -> None:
    """Remove the installed plan and disarm the frame hook."""
    install(None)


@contextmanager
def injected(plan: FaultPlan | Mapping[str, Any]) -> Iterator[FaultPlan]:
    """Scoped installation: arm a plan, restore the previous one after."""
    previous = _ACTIVE
    installed = install(plan)
    try:
        yield installed
    finally:
        install(previous)


def hit(site: str, worker: int | None = None) -> FaultRule | None:
    """Record a hit at a site against the active plan (fast no-op
    without one)."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.hit(site, worker=worker)


def maybe_raise(site: str, worker: int | None = None) -> None:
    """Convenience for pure ``raise``/``delay`` sites (store writes)."""
    rule = hit(site, worker=worker)
    if rule is None:
        return
    if rule.action == "delay":
        import time

        time.sleep(rule.delay)
    elif rule.action == "raise":
        raise rule.build_error()


def absorb(fired: Sequence[tuple[str, str, int | None, int]]) -> None:
    """Add faults another process fired to the active plan's record.

    A server worker runs its own copy of the plan and reports what it
    fired with each reply; absorbing those events makes :func:`stats`
    count them.  A no-op without an installed plan.
    """
    plan = _ACTIVE
    if plan is None or not fired:
        return
    with plan._lock:
        plan.fired.extend(tuple(event) for event in fired)


def _frame_hook(site: str) -> FaultRule | None:
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.hit(site)


# ---------------------------------------------------------------------------
# Chaos observability
# ---------------------------------------------------------------------------


@dataclass
class FaultStats:
    """What the active plan has done so far (server ``stats()``)."""

    rules: int = 0
    fired: int = 0
    by_action: dict[str, int] = field(default_factory=dict)


def stats() -> FaultStats:
    """Counters for the active plan (all-zero without one)."""
    plan = _ACTIVE
    if plan is None:
        return FaultStats()
    by_action: dict[str, int] = {}
    for _, action, _, _ in plan.fired:
        by_action[action] = by_action.get(action, 0) + 1
    return FaultStats(
        rules=len(plan.rules), fired=len(plan.fired), by_action=by_action
    )
