"""Per-layer timing from outside the program.

The benchmark wraps the public functions at each layer boundary of
``repro`` (nothing in ``src/`` changes).  Each wrapped call is a span;
a layer's *self time* is its spans' duration minus the part covered by
nested spans, so self times of all layers plus the unattributed rest add
up to the wall time.  Spans nest per thread.  Nothing is installed
unless a run asks for tracing, so untraced runs pay nothing.

:func:`install` patches the functions in place, including every module
that imported one by name.  Installed before the server process forks,
the wrappers time the server parent and its workers too; workers write
their cumulative totals to a file after every job.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    """Process-local span totals: self time, inclusive time, calls, and
    named counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Where forked workers dump totals (set by the served workloads).
        self.dump_dir: str | None = None
        #: Frame bytes are counted in this process only: the client's
        #: view of the wire.
        self.client_pid = os.getpid()
        self.reset()

    def after_fork(self) -> None:
        """Fresh lock and span stacks in a forked child: another thread
        of the parent may have held the lock at the fork."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_ns: dict[str, int] = defaultdict(int)
            self.total_ns: dict[str, int] = defaultdict(int)
            self.calls: dict[str, int] = defaultdict(int)
            self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, self_ns: int, total_ns: int) -> None:
        with self._lock:
            self.self_ns[name] += self_ns
            self.total_ns[name] += total_ns
            self.calls[name] += 1

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_ns": dict(self.self_ns),
                "total_ns": dict(self.total_ns),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
            }

    def dump(self, path: str) -> None:
        """Atomically write :meth:`snapshot` as JSON."""
        tmp = f"{path}.tmp"
        Path(tmp).write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def empty_snapshot() -> dict:
    return {"self_ns": {}, "total_ns": {}, "calls": {}, "counters": {}}


def combine(a: dict, b: dict, sign: int = 1) -> dict:
    """``a + sign * b`` field by field."""
    out = {}
    for field in ("self_ns", "total_ns", "calls", "counters"):
        merged = dict(a.get(field, {}))
        for key, value in b.get(field, {}).items():
            merged[key] = merged.get(key, 0) + sign * value
        out[field] = merged
    return out


def _span(tracer: Tracer, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)``
    runs on success to update counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer._stack()
        child = [0]
        stack.append(child)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            tracer.record(name, elapsed - child[0], elapsed)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


# -- counter hooks ------------------------------------------------------------


def _after_solve(tracer, args, kwargs, solution) -> None:
    tracer.count("solver.nodes", solution.nodes_explored)
    tracer.count("solver.simplex_iters", solution.iterations)
    tracer.count("solver.prove_s", solution.prove_elapsed)
    tracer.count(
        "solver.after_discover_s",
        max(solution.prove_elapsed - solution.discover_elapsed, 0.0),
    )


def _after_search(tracer, args, kwargs, result) -> None:
    tracer.count("rate_search.probes", result.probes)


def _after_measure(tracer, args, kwargs, result) -> None:
    source_data = args[2] if len(args) > 2 else kwargs["source_data"]
    tracer.count(
        "profiler.elements", sum(len(v) for v in source_data.values())
    )


def _after_lookup(tracer, args, kwargs, entry) -> None:
    tracer.count("cache.hits" if entry is not None else "cache.misses")


def _file_bytes(path: Path, document: dict) -> int:
    size = path.stat().st_size
    npz = document.get("npz")
    if npz:
        size += path.with_name(npz).stat().st_size
    return size


def _after_write(tracer, args, kwargs, result) -> None:
    tracer.count("artifacts.bytes", _file_bytes(Path(args[0]), args[1]))


def _after_read(tracer, args, kwargs, result) -> None:
    tracer.count("artifacts.bytes", _file_bytes(Path(args[0]), result[0]))


def _frame_counter(tracer: Tracer, name: str, fn, reading: bool):
    """Count frame bytes on the client side (no span: frames nest in
    ``send_message``/``recv_message``)."""

    @functools.wraps(fn)
    def wrapper(*args):
        result = fn(*args)
        if os.getpid() == tracer.client_pid:
            payload = result if reading else args[1]
            if payload is not None:
                tracer.count(name, len(payload) + 4)
        return result

    return wrapper


# -- installation -------------------------------------------------------------


def _replace_function(module, name: str, wrapper) -> list:
    """Point ``module.name`` and every ``repro`` module that imported the
    same object by name at ``wrapper``; returns undo records."""
    original = getattr(module, name)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo


def _replace_method(cls, name: str, wrapper) -> list:
    original = cls.__dict__[name]
    setattr(cls, name, wrapper)
    return [(cls, name, original)]


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that undoes it."""
    from repro.core.partitioner import Wishbone
    from repro.core.probe import ScaledProbe
    from repro.core.rate_search import RateSearch
    from repro.dataflow.execute import Executor
    from repro.profiler.profiler import Profiler
    from repro.runtime import frames
    from repro.solver.branch_bound import BranchAndBound
    from repro.workbench import artifacts, cache, scenarios, store

    undo: list = []

    def method(cls, name, span, after=None):
        fn = cls.__dict__[name]
        undo.extend(_replace_method(cls, name, _span(tracer, span, fn, after)))

    def function(module, name, span, after=None):
        fn = getattr(module, name)
        undo.extend(
            _replace_function(module, name, _span(tracer, span, fn, after))
        )

    method(scenarios.Scenario, "build", "scenarios.build")
    method(scenarios.Scenario, "inputs", "scenarios.inputs")
    method(Profiler, "measure", "profiler.measure", _after_measure)
    for name in ("run", "push", "push_batch"):
        method(Executor, name, "dataflow.run")
    method(store.ProfileStore, "measurement", "store.measurement")
    method(Wishbone, "prepare_probe", "probe.formulate")
    method(ScaledProbe, "partition", "probe.partition")
    method(BranchAndBound, "solve", "solver.solve", _after_solve)
    method(RateSearch, "search", "rate_search.search", _after_search)
    function(artifacts, "to_document", "artifacts.encode")
    function(artifacts, "write_document", "artifacts.encode", _after_write)
    function(artifacts, "from_document", "artifacts.decode")
    function(artifacts, "read_document", "artifacts.decode", _after_read)
    function(cache, "result_key", "cache.key")
    method(cache.ResultCache, "lookup", "cache.lookup", _after_lookup)
    method(cache.ResultCache, "store", "cache.store")
    method(cache.ResultCache, "store_document", "cache.store")
    function(frames, "send_message", "frames.send")
    function(frames, "recv_message", "frames.recv")
    for name, counter, reading in (
        ("write_frame", "frames.bytes_sent", False),
        ("read_frame", "frames.bytes_recv", True),
    ):
        wrapper = _frame_counter(
            tracer, counter, getattr(frames, name), reading
        )
        undo.extend(_replace_function(frames, name, wrapper))

    undo.extend(_install_worker_hooks(tracer))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def _install_worker_hooks(tracer: Tracer) -> list:
    """Time worker jobs and make forked workers dump their totals.

    ``server._worker_main`` and ``server._run_job`` are looked up at
    call time, so replacing the module globals before the server forks
    its workers is enough.  Each worker starts from zero (the fork
    copied the parent's totals) and rewrites its dump after every job.
    """
    from repro.workbench import server

    worker_main = server._worker_main
    run_job = _span(tracer, "server.job", server._run_job)

    def dump() -> None:
        if tracer.dump_dir is not None:
            tracer.dump(
                os.path.join(tracer.dump_dir, f"worker-{os.getpid()}.json")
            )

    def traced_run_job(*args, **kwargs):
        result = run_job(*args, **kwargs)
        dump()
        return result

    def traced_worker_main(*args, **kwargs):
        tracer.after_fork()
        dump()
        try:
            worker_main(*args, **kwargs)
        finally:
            dump()

    undo = [
        (server, "_worker_main", worker_main),
        (server, "_run_job", server._run_job),
    ]
    server._worker_main = traced_worker_main
    server._run_job = traced_run_job
    return undo
