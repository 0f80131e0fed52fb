"""End-to-end benchmark of the profile-once / re-partition-many workflow.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload served-cold --seed 1 --seconds 15 --trace 0

Workloads (why each exists is recorded in ``e2ebench/manifest.json``):

* ``served-cold``: the catalog through a 2-worker partition server in
  its own process, from an empty result cache (rate searches, which the
  server does not offer, run in the client);
* ``served-warm``: a seeded Zipf stream of cache hits from that server.

A run repeats *segments*: set-up (timed as ``setup_s``), then whole
catalog cycles (``served-cold``: exactly one, since a second would be
warm), then teardown.  Each cycle is timed on its own, and its outputs
are checked and dropped before the next cycle starts.  A run stops once
the timed cycles add up to ``--seconds``, at least five set-ups were
measured, and every latency percentile has ten samples beyond it.

The last line of standard output is the result object; the line before
it is a report (work digest, sample counts, process starts, clock tick,
and with ``--trace 1`` the per-layer breakdown) read by
``e2ebench/steady.py``.  With ``--trace 1`` the run measures an
untraced pass first and a traced pass second; per-layer metrics come
from the traced pass and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform as _platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SETUPS = 5
#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10
SERVER_WORKERS = 2


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"e2ebench: cannot import the program from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"e2ebench: repro imported from {origin}, not {SRC}")


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------

CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str) -> float:
    """User + system CPU of one process (all threads), from /proc."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Outcome:
    """One timed client call, checked after its cycle's timing ends."""

    __slots__ = ("call", "result", "error", "latency_s", "answers")

    def __init__(self, call, result, error, latency_s, answers):
        self.call = call
        self.result = result
        self.error = error
        self.latency_s = latency_s
        self.answers = answers


def _timed_call(call, fn, answers: int) -> Outcome:
    start = time.perf_counter()
    try:
        result = fn()
        error = None
    except Exception as exc:  # a typed error is a failed call
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(call, result, error, time.perf_counter() - start, answers)


def _within_gap(value: float, expected: float, gap: float) -> bool:
    """Whether two answers of one request can both be within its gap."""
    return abs(value - expected) <= gap * max(1.0, abs(expected)) * (
        1 + 1e-6
    ) + 1e-9


class Checker:
    """Output checks against ``reference.json``."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def partition(self, label: str, request: dict, result) -> str | None:
        from repro.platforms import get_platform
        from repro.workbench import PartitionRequest

        key = catalog.request_key(label, request)
        if key not in self.reference["objectives"]:
            return f"no reference for {key}"
        expected = self.reference["objectives"][key]
        if expected is None:
            return None if result is None else "feasible, reference is not"
        if result is None:
            return "infeasible, reference is feasible"
        part = result.partition
        gap = request.get("gap_tolerance", 1e-6)
        if not _within_gap(part.objective_value, expected, gap):
            return f"objective {part.objective_value} vs {expected}"
        req = PartitionRequest(**request)
        cpu, net = req.partitioner().resolve_budgets(
            get_platform(req.platform)
        )
        if not (
            part.feasible
            and part.cpu_utilization <= cpu * (1 + 1e-9) + 1e-9
            and part.network_bytes_per_sec <= net * (1 + 1e-9) + 1e-9
        ):
            return "answer violates its resolved budgets"
        return None

    def batch(self, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return outcome.error
        call = outcome.call
        if len(outcome.result) != len(call.requests):
            return "wrong answer count"
        for request, result in zip(call.requests, outcome.result):
            problem = self.partition(call.instance, request, result)
            if problem is not None:
                return problem
        return None

    def check(self, outcome: Outcome) -> str | None:
        if outcome.call.kind == "search":
            return self.search(outcome)
        return self.batch(outcome)

    def search(self, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return outcome.error
        call = outcome.call
        ref = self.reference["searches"].get(
            catalog.search_key(call.instance, call.requests[0])
        )
        if ref is None:
            return "no reference for search"
        got = outcome.result
        if got.rate_factor != ref["rate_factor"]:
            return f"rate {got.rate_factor} vs {ref['rate_factor']}"
        if (got.result is None) != (ref["objective"] is None):
            return "search feasibility differs from reference"
        if got.result is not None:
            gap = call.requests[0].get("gap_tolerance", 1e-6)
            objective = got.result.partition.objective_value
            if not _within_gap(objective, ref["objective"], gap):
                return f"search objective {objective} vs {ref['objective']}"
        return None


def _graph_ref(scenario: str, params: dict) -> dict:
    """The scenario reference artifacts are encoded against."""
    from repro.workbench.scenarios import get_scenario

    return {
        "scenario": scenario,
        "params": get_scenario(scenario).resolve_params(params),
    }


def _requests(call):
    from repro.workbench import PartitionRequest

    return [PartitionRequest(**r) for r in call.requests]


def _profile_instances(store) -> dict:
    """Profile every catalog instance into ``store`` (set-up work)."""
    from repro.workbench import Session

    sessions = {}
    for label, scenario, params in catalog.INSTANCES:
        session = Session(scenario, store=store, params=params)
        session.measurement()
        sessions[label] = session
    return sessions


def _search(session, call):
    """A §4.3 rate search, in process (the server has no such op)."""
    from repro.workbench import PartitionRequest, RateSearchRequest

    return session.rate_search(
        RateSearchRequest(
            partition=PartitionRequest(**call.requests[0]),
            target_factor=catalog.SEARCH_TARGET,
        )
    )


class ServedColdWorkload:
    """The catalog through a 2-worker server, cache empty.

    Partition batches go to the server; rate searches, which the server
    does not offer, run in the client process.
    """

    name = "served-cold"
    cold = True

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.calls = catalog.partition_calls() + catalog.search_calls()

    def setup(self):
        from repro.workbench import ProfileStore

        from served import ServedSystem

        tmp = tempfile.TemporaryDirectory(dir=self.ctx.workdir)
        try:
            sessions = _profile_instances(ProfileStore(tmp.name))
            for call in catalog.search_calls():
                # The per-platform profile a search starts from.
                sessions[call.instance].service.profile(
                    call.requests[0]["platform"]
                )
            system = ServedSystem(
                tmp.name, SERVER_WORKERS, tracer=self.ctx.tracer
            )
        except BaseException:
            tmp.cleanup()
            raise
        self.ctx.starts.extend(system.starts)
        state = {
            "tmp": tmp, "system": system, "pids": system.pids,
            "sessions": sessions,
        }
        try:
            for call in catalog.warmup_calls():
                self._send(state, call)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _send(self, state, call):
        scenario, params = catalog.instance(call.instance)
        return state["system"].client.partition_many(
            scenario, _requests(call), params=params, skip_infeasible=True
        )

    def cycle(self, state, index: int) -> list[Outcome]:
        out = []
        for call in catalog.seeded_order(self.calls, self.ctx.seed, index):
            if call.kind == "batch":
                out.append(
                    _timed_call(
                        call,
                        lambda: self._send(state, call),
                        len(call.requests),
                    )
                )
            else:
                session = state["sessions"][call.instance]
                out.append(
                    _timed_call(call, lambda: _search(session, call), 1)
                )
        return out

    def check(self, state, outcome: Outcome) -> str | None:
        return self.ctx.checker.check(outcome)

    def teardown(self, state) -> None:
        try:
            state["system"].stop()
        finally:
            state["tmp"].cleanup()


class ServedWarmWorkload(ServedColdWorkload):
    """A seeded Zipf stream of cache hits from the same server."""

    name = "served-warm"
    cold = False

    def setup(self):
        from repro.workbench import artifacts
        from repro.workbench.cache import RESULT_PREFIX, result_key
        from repro.workbench.scenarios import get_scenario

        state = super().setup()
        try:
            # One fill batch per instance: the server spreads its runs
            # over both workers, and the fill writes every answer the
            # catalog can ask for.
            fill: dict[str, list] = {}
            for call in catalog.partition_calls():
                fill.setdefault(call.instance, []).extend(call.requests)
            for label, requests in fill.items():
                fill_call = catalog.Call("batch", label, tuple(requests))
                self._send(state, fill_call)
            # The canonical form of every answer the fill wrote to disk.
            written = {}
            pools: dict[str, list] = {}
            for call in catalog.partition_calls():
                scenario, params = catalog.instance(call.instance)
                graph_ref = _graph_ref(scenario, params)
                graph = get_scenario(scenario).build(graph_ref["params"])
                for request, req in zip(call.requests, _requests(call)):
                    key = result_key(scenario, params, None, "tmote", req)
                    path = Path(state["tmp"].name) / (
                        f"{RESULT_PREFIX}{key}.json"
                    )
                    document, arrays = artifacts.read_document(path)
                    if document.get("kind") != "partition_result":
                        continue
                    document.pop("npz", None)
                    stored = artifacts.from_document(document, arrays, graph)
                    written[catalog.request_key(call.instance, request)] = (
                        artifacts.canonical_json(stored, graph_ref)
                    )
                    pools.setdefault(call.instance, []).append(request)
        except BaseException:
            self.teardown(state)
            raise
        state["written"] = written
        state["batches"] = catalog.warm_batches(pools)
        return state

    def cycle(self, state, index: int) -> list[Outcome]:
        calls = catalog.seeded_order(state["batches"], self.ctx.seed, index)
        return [
            _timed_call(
                call, lambda: self._send(state, call), len(call.requests)
            )
            for call in calls
        ]

    def check(self, state, outcome: Outcome) -> str | None:
        from repro.workbench import artifacts

        problem = self.ctx.checker.batch(outcome)
        if problem is not None:
            return problem
        call = outcome.call
        graph_ref = _graph_ref(*catalog.instance(call.instance))
        for request, result in zip(call.requests, outcome.result):
            expected = state["written"][
                catalog.request_key(call.instance, request)
            ]
            if artifacts.canonical_json(result, graph_ref) != expected:
                return "cache hit differs from the answer written in set-up"
        return None


WORKLOADS = {w.name: w for w in (ServedColdWorkload, ServedWarmWorkload)}


# ---------------------------------------------------------------------------
# The measuring loop
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, args, reference, workdir, tracer) -> None:
        self.seed = args.seed
        self.checker = Checker(reference)
        self.workdir = workdir
        self.tracer = tracer
        self.starts: list[tuple[str, float, float]] = []


def _worker_dumps(dump_dir: str | None) -> dict:
    from spans import combine, empty_snapshot

    total = empty_snapshot()
    if dump_dir is None:
        return total
    for path in sorted(Path(dump_dir).glob("worker-*.json")):
        total = combine(total, json.loads(path.read_text()))
    return total


def measure(
    args, reference, workdir: str, tracer=None, min_setups: int = MIN_SETUPS,
    percentiles: bool = True,
) -> dict:
    """Run segments until the run is long enough; return raw totals.

    ``percentiles`` also requires enough latency samples for p90.
    """
    from spans import combine, empty_snapshot

    ctx = Context(args, reference, workdir, tracer)
    workload = WORKLOADS[args.workload](ctx)
    segment_s = args.seconds / min_setups
    setups: list[float] = []
    latencies: list[float] = []
    timed_s = answers = attempted = failed = cycles = 0
    cpu_s = 0.0
    rss = 0.0
    failures: list[str] = []
    work: dict[str, int] = {}
    client_trace = empty_snapshot()
    server_trace = empty_snapshot()
    setup_trace = empty_snapshot()
    server_cpu = worker_cpu = 0.0
    stats_delta = {"jobs": 0, "requeued": 0, "degraded_runs": 0}
    n_workers = 0

    def enough() -> bool:
        return (
            len(setups) >= min_setups
            and timed_s >= args.seconds
            and (not percentiles or len(latencies) * 0.1 >= TAIL_SAMPLES)
        )

    while not enough():
        dump_dir = None
        if tracer is not None:
            dump_dir = tempfile.mkdtemp(dir=workdir)
            tracer.dump_dir = dump_dir
            before_setup = tracer.snapshot()
        begin = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - begin)
        if tracer is not None:
            setup_trace = combine(
                setup_trace, combine(tracer.snapshot(), before_setup, -1)
            )
        try:
            pids = ["self", *state["pids"]]
            system = state.get("system")
            if system is not None:
                before_stats = system.client.stats()
            if tracer is not None:
                s0 = system.snapshot() if system is not None else None
                w0 = _worker_dumps(dump_dir)
            segment_timed = 0.0
            while True:
                # One cycle is timed; its outputs are checked and dropped
                # before the next, outside the timed window, so neither
                # the checks nor a growing pile of results are measured.
                if tracer is not None:
                    c0 = tracer.snapshot()
                cpu0 = [cpu_seconds(pid) for pid in pids]
                begin = time.perf_counter()
                done = workload.cycle(state, cycles)
                elapsed = time.perf_counter() - begin
                cpu = [b - a for a, b in zip(cpu0, map(cpu_seconds, pids))]
                if tracer is not None:
                    client_trace = combine(
                        client_trace, combine(tracer.snapshot(), c0, -1)
                    )
                cycles += 1
                segment_timed += elapsed
                cpu_s += sum(cpu)
                if system is not None:
                    server_cpu += cpu[1]
                    worker_cpu += sum(cpu[2:])
                answers += sum(o.answers for o in done)
                for outcome in done:
                    attempted += 1
                    latencies.append(outcome.latency_s)
                    key = json.dumps(outcome.call.to_json(), sort_keys=True)
                    work[key] = work.get(key, 0) + 1
                    problem = workload.check(state, outcome)
                    if problem is not None:
                        failed += 1
                        failures.append(f"{outcome.call.instance}: {problem}")
                del done
                if workload.cold or segment_timed >= segment_s:
                    break
            timed_s += segment_timed
            rss = max(rss, *(peak_rss_mb(pid) for pid in pids))
            if tracer is not None:
                w1 = _worker_dumps(dump_dir)
                server_trace = combine(server_trace, combine(w1, w0, -1))
                if system is not None:
                    server_trace = combine(
                        server_trace, combine(system.snapshot(), s0, -1)
                    )
            if system is not None:
                after_stats = system.client.stats()
                for key in ("requeued", "degraded_runs"):
                    stats_delta[key] += after_stats[key] - before_stats[key]
                stats_delta["jobs"] += sum(
                    w["jobs_done"] for w in after_stats["worker_info"]
                ) - sum(w["jobs_done"] for w in before_stats["worker_info"])
                n_workers = len(after_stats["worker_info"])
        finally:
            workload.teardown(state)
    return {
        "setups": setups,
        "latencies": latencies,
        "timed_s": timed_s,
        "answers": answers,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cycles": cycles,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss,
        "work_digest": _work_digest(work, cycles),
        "starts": ctx.starts,
        "client_trace": client_trace,
        "server_trace": server_trace,
        "setup_trace": setup_trace,
        "server_cpu_s": server_cpu,
        "worker_cpu_s": worker_cpu,
        "server_stats": stats_delta,
        "n_workers": n_workers,
    }


def _work_digest(work: dict[str, int], cycles: int) -> str:
    """Digest of the multiset of work per cycle; it must not depend on
    the seed."""
    normalized = {k: v / cycles for k, v in sorted(work.items())}
    blob = json.dumps(normalized, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1), refusing thin tails."""
    if len(values) * (1 - q) < TAIL_SAMPLES:
        raise RuntimeError(
            f"p{q * 100:g} needs {TAIL_SAMPLES} samples beyond it; "
            f"have {len(values)} samples"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


def end_to_end(raw: dict) -> dict:
    lat_ms = [x * 1000.0 for x in raw["latencies"]]
    return {
        "setup_s": (statistics.median(raw["setups"]), "s"),
        # Answers over the whole timed phase.  ``served-cold`` cycle
        # rates spread ~10 % even at one seed, and with five cycles a
        # run's mean is steadier than their median.
        "throughput_rps": (raw["answers"] / raw["timed_s"], "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "cpu_ms_per_req": (1000.0 * raw["cpu_s"] / raw["answers"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw: dict, untraced: dict) -> dict:
    """Per-layer metrics of a traced pass (all processes summed).

    They cover the timed cycles, except the ``setup.*`` metrics, which
    cover the client's set-ups: the profiling layers (scenario inputs,
    profiler, dataflow, profile store) run only there.
    """
    from spans import combine

    client = raw["client_trace"]
    setup = raw["setup_trace"]
    system = combine(client, raw["server_trace"])
    self_s = {k: v / 1e9 for k, v in system["self_ns"].items()}
    total_s = {k: v / 1e9 for k, v in system["total_ns"].items()}
    calls = system["calls"]
    counters = system["counters"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> float:
        return calls.get(name, 0)

    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits, misses = c("cache.hits"), c("cache.misses")
    wall = raw["timed_s"]
    client_self = sum(client["self_ns"].values()) / 1e9
    per_cycle = raw["timed_s"] / raw["cycles"]
    untraced_per_cycle = untraced["timed_s"] / untraced["cycles"]
    workers = raw["n_workers"]

    def setup_s(name: str) -> float:
        return setup["self_ns"].get(name, 0) / 1e9

    return {
        "scenarios.build_s": (s("scenarios.build"), "s"),
        "probe.formulations": (n("probe.formulate"), "count"),
        "probe.formulate_s": (s("probe.formulate"), "s"),
        "probe.partition_s": (s("probe.partition"), "s"),
        "solver.solves": (n("solver.solve"), "count"),
        "solver.solve_s": (s("solver.solve"), "s"),
        "solver.nodes": (c("solver.nodes"), "count"),
        "solver.simplex_iters": (c("solver.simplex_iters"), "count"),
        "solver.prove_frac": (
            ratio(c("solver.after_discover_s"), c("solver.prove_s")),
            "fraction",
        ),
        "rate_search.searches": (n("rate_search.search"), "count"),
        "rate_search.probes": (c("rate_search.probes"), "count"),
        "rate_search.search_s": (s("rate_search.search"), "s"),
        "artifacts.encode_s": (s("artifacts.encode"), "s"),
        "artifacts.decode_s": (s("artifacts.decode"), "s"),
        "artifacts.bytes": (c("artifacts.bytes"), "bytes"),
        "cache.key_s": (s("cache.key"), "s"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_frac": (ratio(hits, hits + misses), "fraction"),
        "cache.lookup_s": (s("cache.lookup"), "s"),
        "cache.store_s": (s("cache.store"), "s"),
        "frames.send_s": (s("frames.send"), "s"),
        # The client's wait: in the server, recv time is idle time.
        "frames.recv_wait_s": (
            client["self_ns"].get("frames.recv", 0) / 1e9, "s",
        ),
        "frames.bytes_sent": (c("frames.bytes_sent"), "bytes"),
        "frames.bytes_recv": (c("frames.bytes_recv"), "bytes"),
        "server.job_s": (s("server.job"), "s"),
        "server.parent_cpu_s": (raw["server_cpu_s"], "s"),
        "server.worker_cpu_s": (raw["worker_cpu_s"], "s"),
        "server.worker_busy_frac": (
            ratio(total_s.get("server.job", 0.0), workers * wall),
            "fraction",
        ),
        "server.jobs": (raw["server_stats"]["jobs"], "count"),
        "server.requeued": (raw["server_stats"]["requeued"], "count"),
        "server.degraded_runs": (
            raw["server_stats"]["degraded_runs"], "count",
        ),
        # Profiling is set-up work in both workloads (it moves setup_s
        # and never runs in a timed cycle), so its layers are reported
        # over the set-ups only.
        "setup.scenarios.inputs_s": (setup_s("scenarios.inputs"), "s"),
        "setup.profiler.measure_s": (setup_s("profiler.measure"), "s"),
        "setup.profiler.elements_per_s": (
            ratio(
                setup["counters"].get("profiler.elements", 0.0),
                setup["total_ns"].get("profiler.measure", 0) / 1e9,
            ),
            "1/s",
        ),
        "setup.dataflow.run_s": (setup_s("dataflow.run"), "s"),
        "setup.store.measurement_s": (setup_s("store.measurement"), "s"),
        "trace.unattributed_frac": (1.0 - client_self / wall, "fraction"),
        "trace.overhead_frac": (
            per_cycle / untraced_per_cycle - 1.0, "fraction",
        ),
    }


def invariants(workload: str, layers: dict) -> list[str]:
    """Traced-run invariants; each broken one is reported."""
    broken = []
    if workload == "served-warm":
        if layers["solver.solves"][0] != 0:
            broken.append("served-warm ran the solver")
        if layers["cache.hit_frac"][0] != 1.0:
            broken.append("served-warm missed the cache")
    if workload == "served-cold" and layers["cache.hits"][0] != 0:
        broken.append("served-cold hit the cache")
    return broken


def layer_table(raw: dict) -> list[dict]:
    """Per-layer self time and call counts of the traced pass."""
    from spans import combine

    system = combine(raw["client_trace"], raw["server_trace"])
    rows = []
    for name in sorted(system["self_ns"]):
        rows.append(
            {
                "span": name,
                "self_s": system["self_ns"][name] / 1e9,
                "client_self_s": raw["client_trace"]["self_ns"].get(name, 0)
                / 1e9,
                "calls": system["calls"].get(name, 0),
            }
        )
    return rows


def print_layers(rows: list[dict], metrics: dict, out) -> None:
    """The traced-run report as a table."""
    header = f"{'span':22} {'self_s':>10} {'client_s':>10} {'calls':>8}"
    print(header, file=out)
    for row in rows:
        print(
            f"{row['span']:22} {row['self_s']:10.4f} "
            f"{row['client_self_s']:10.4f} {row['calls']:8d}",
            file=out,
        )
    for name in ("trace.unattributed_frac", "trace.overhead_frac"):
        print(f"{name} = {metrics[name][0]:.4f}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    if reference["catalog_digest"] != catalog.catalog_digest():
        sys.exit(
            "e2ebench: the catalog changed since reference.json was "
            "recorded; run e2ebench/record_reference.py"
        )

    workdir = tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT)
    try:
        if args.trace:
            from spans import Tracer, install

            half = argparse.Namespace(**vars(args))
            half.seconds = args.seconds / 2
            # Set-up time is not reported here, so one set-up per pass.
            untraced = measure(
                half, reference, workdir, min_setups=1, percentiles=False
            )
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                raw = measure(
                    half, reference, workdir, tracer, min_setups=1,
                    percentiles=False,
                )
            finally:
                uninstall()
            metrics = per_layer(raw, untraced)
            broken = invariants(args.workload, metrics)
            extra = {
                "layers": layer_table(raw),
                "invariants_broken": broken,
            }
            attempted = untraced["attempted"] + raw["attempted"]
            failed = untraced["failed"] + raw["failed"]
            failures = untraced["failures"] + raw["failures"]
        else:
            raw = measure(args, reference, workdir)
            metrics = end_to_end(raw)
            broken = []
            extra = {}
            attempted, failed = raw["attempted"], raw["failed"]
            failures = raw["failures"]
    finally:
        # A run that failed part-way must not leave a server behind.
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "catalog_digest": catalog.catalog_digest(),
        "work_digest": raw["work_digest"],
        "cycles": raw["cycles"],
        "setups": raw["setups"],
        "latency_samples": len(raw["latencies"]),
        "timed_s": raw["timed_s"],
        "answers": raw["answers"],
        "process_starts": [
            {"process": name, "start": a, "ready": b}
            for name, a, b in raw["starts"]
        ],
        "clk_tck_hz": CLK_TCK,
        "cpu_count": os.cpu_count(),
        "python": _platform.python_version(),
        "failures": failures[:20],
        **extra,
    }
    if args.trace:
        print_layers(extra["layers"], metrics, sys.stderr)
    for failure in failures[:20]:
        print(f"e2ebench: failed call: {failure}", file=sys.stderr)
    for problem in broken:
        print(f"e2ebench: invariant broken: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
