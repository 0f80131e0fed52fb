"""Solver hot-path benchmark: node throughput and rate-sweep wall-clock.

Measures the two paths this repo's headline figures depend on:

1. ``branch_bound`` — our :class:`BranchAndBound` on an EEG (Figure 6)
   instance whose search tree survives the root and orbital branching,
   in two configurations: ``tuned`` (one HiGHS model warm-started
   from node to node, diving, reduced-cost fixing) and ``plain`` (all
   three knobs off: best-first search with one cold ``linprog`` HiGHS
   solve per node).  Reports nodes/sec,
   relaxations/sec, and simplex iterations/sec, plus the node count of
   a rate factor that closure fixing closes at the root
   (``root_closing``).

2. ``rate_search`` — a full §4.3 :class:`RateSearch` sweep (one
   :class:`ScaledProbe`: formulate once, rescale per probe) on the
   speech and EEG applications.

3. ``end_to_end`` — wall-clock of the Figure 6 sweep (beside the summed
   prove seconds of its solves, which tells solving apart from profiling
   and formulation, and the count of its runs stopped by the time limit,
   gated at 0 in CI) and the Figure 7 profiling run.

4. ``partition_many_served`` — copies of the EEG batch through the
   socket partition server: served vs in-process, and 1 vs 2 worker
   processes (the sharding payoff; results must stay canonically
   byte-identical).  Each side is the minimum of 3 passes.

5. ``result_cache`` — the repeated-batch hit path (in-memory, disk, and
   served through the server's shared cache) against the solve path
   that populated it; hits must be canonically byte-identical and the
   hardware-independent hit-vs-solve ratio is gated in CI (≥10x
   target).  Each solve time is the minimum of 3 passes, each hit time
   the minimum of 10 (a memory or served hit pass times 10 batches).

6. ``probe_solve`` — per-solve milliseconds of probe solves over the
   e2ebench catalog's grid shape, one probe per (scenario, platform)
   group: what a served-cold answer costs beyond its formulation.  Not
   gated.

Results are written as machine-readable JSON (default:
``BENCH_solver.json`` in the current directory) so the perf trajectory is
tracked PR over PR; CI runs ``--smoke`` and uploads the file as an
artifact.

Run:  PYTHONPATH=src python benchmarks/bench_solver.py [--smoke] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from repro.core import (
    PartitionObjective,
    RateSearch,
    RelocationMode,
    Wishbone,
)
from repro.experiments import fig6, fig7
from repro.experiments.common import profile_for
from repro.solver import BranchAndBound
from repro.workbench import PartitionRequest, Session


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


#: Passes behind each timing of work that repeats unchanged from pass
#: to pass (solves, served batches, the degraded fallback; the minimum
#: is reported).
_PASSES = 3
#: Passes behind each result-cache hit timing: a hit pass takes a few
#: milliseconds, so more of them cost nothing and steady the minimum.
_HIT_PASSES = 10
#: Hit batches timed together in one hit pass.  One batch of 20 memory
#: hits takes about a millisecond, and on a 2-vCPU VM the fastest single
#: batch read either ~1.0 or ~1.9 ms from one process to the next (so
#: the smoke ``hit_vs_solve_speedup`` read 112 or 193); the mean over ten
#: batches read 1.0-1.3 ms in every process.
_HITS_PER_PASS = 10


def _min_timed(fn, passes: int = _PASSES, repeats: int = 1):
    """``fn``'s first value and its fastest of ``passes`` runs.

    With ``repeats``, each pass calls ``fn`` that many times in a row and
    counts the mean of those calls.
    """

    def run():
        start = time.perf_counter()
        values = [fn() for _ in range(repeats)]
        return values[0], (time.perf_counter() - start) / repeats

    runs = [run() for _ in range(passes)]
    return runs[0][0], min(seconds for _, seconds in runs)


def _eeg_partitioner(gap: float = 5e-3) -> Wishbone:
    return Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=1.0,
        net_budget=float("inf"),
        gap_tolerance=gap,
    )


def bench_branch_bound(smoke: bool) -> dict:
    """Node/relaxation throughput on an EEG instance, tuned vs plain.

    Throughput needs a tree.  Orbital branching closes the rate-8
    instances in a few dozen nodes (EEG-6: 19), so the tuned/plain
    comparison runs at a low rate, where one survives: rate factor 1.0
    on EEG-12 (smoke), 0.5 on EEG-22 (full size).  At rate factor 30
    closure fixing proves the optimum at the root (one node); that count
    is reported on its own.  Both counts are deterministic and gated in
    CI.  Each configuration's time is the fastest of :data:`_PASSES`
    identical solves, and the two configurations take turns, so a
    slowdown of the machine that outlasts one solve meets both of them
    (timed one configuration after the other, the smoke ratio ranged
    4.8-8.6 over twelve runs on a 2-vCPU VM).
    """
    n_channels, rate_factor = (12, 1.0) if smoke else (22, 0.5)
    root_rate_factor = 30.0
    profile = profile_for("eeg", "tmote", n_channels=n_channels)
    probe = _eeg_partitioner().prepare_probe(profile)
    arrays = probe._arrays_at(rate_factor)

    configs = {
        "tuned": {},
        "plain": {"dive": False, "reduced_cost_fixing": False,
                  "warm_start": False},
    }
    out: dict = {
        "instance": {
            "application": "eeg",
            "channels": n_channels,
            "rate_factor": rate_factor,
            "variables": arrays.num_variables,
            "ub_rows": int(arrays.a_ub.shape[0]),
        }
    }
    solvers = {
        name: BranchAndBound(gap_tolerance=5e-3, **kwargs)
        for name, kwargs in configs.items()
    }
    runs: dict[str, list] = {name: [] for name in configs}
    for _ in range(_PASSES):
        for name, solver in solvers.items():
            runs[name].append(_timed(lambda: solver.solve(arrays)))
    for name in configs:
        solution = runs[name][0][0]
        seconds = min(seconds for _, seconds in runs[name])
        nodes = max(solution.nodes_explored, 1)
        out[name] = {
            "status": solution.status.value,
            "objective": solution.objective,
            "nodes": solution.nodes_explored,
            "simplex_iterations": solution.iterations,
            "seconds": seconds,
            "nodes_per_sec": nodes / seconds,
            # one LP relaxation is solved per node (the root included)
            "relaxations_per_sec": nodes / seconds,
            "iterations_per_sec": solution.iterations / seconds,
            "discover_seconds": solution.discover_elapsed,
            "prove_seconds": solution.prove_elapsed,
        }
    out["node_throughput_speedup"] = (
        out["tuned"]["nodes_per_sec"] / out["plain"]["nodes_per_sec"]
    )
    root, root_s = _timed(
        lambda: BranchAndBound(gap_tolerance=5e-3).solve(
            probe._arrays_at(root_rate_factor)
        )
    )
    out["root_closing"] = {
        "rate_factor": root_rate_factor,
        "status": root.status.value,
        "objective": root.objective,
        "nodes": root.nodes_explored,
        "seconds": root_s,
    }
    return out


def bench_rate_search(smoke: bool) -> dict:
    """Full §4.3 sweep: one formulation, rescaled per probe."""
    scenarios = [
        ("speech", profile_for("speech", "tmote"), _speech_partitioner(), 1.0),
        (
            "eeg",
            profile_for("eeg", "tmote", n_channels=6 if smoke else 22),
            _eeg_partitioner(),
            500.0,
        ),
    ]
    out: dict = {}
    for name, profile, partitioner, target in scenarios:
        found, seconds = _timed(
            lambda: RateSearch(partitioner).search(
                profile, target_factor=target
            )
        )
        out[name] = {
            "rate_factor": found.rate_factor,
            "probes": found.probes,
            "seconds": seconds,
        }
    return out


#: The e2ebench catalog's grid shape: speech and leak on every platform
#: at three rates and two budgets (``None`` keeps the platform's own),
#: and an EEG instance at the Figure 6 rates and budgets.
_PROBE_PLATFORMS = (
    "tmote", "n80", "iphone", "gumstix", "voxnet", "meraki", "scheme",
    "server",
)
_PROBE_SMALL_RATES = (0.25, 1.0, 4.0)
_PROBE_SMALL_BUDGETS = (None, 0.5)
_PROBE_EEG_RATES = (8.0, 12.0, 20.0, 30.0, 40.0)
_PROBE_EEG_BUDGETS = (1.2, 1.0, 0.9, 0.8)


def bench_probe_solve(smoke: bool) -> dict:
    """Per-solve cost of probing one formulation at many rates and budgets.

    Every partition is a probe solve, and a served worker answers a
    probe group's requests from one cached formulation, so what a solve
    pays beyond the formulation is what a served-cold answer costs.
    One :class:`Session` per scenario keeps one probe per (scenario,
    platform) group and no result cache; a first pass over the grid
    builds the probes (and is not timed), then each group's time is the
    minimum of :data:`_PASSES` passes over its requests.  The grid is
    the same at both sizes: the speech and leak applications on 8
    platforms x 3 rates x 2 budgets, and EEG-4 x 5 rates x 4 budgets.
    Not gated: it moves with the machine's speed.
    """
    from repro.workbench import ProfileStore

    store = ProfileStore()
    small = []
    for scenario in ("speech", "leak"):
        session = Session(scenario, store=store, result_cache=False)
        for platform_name in _PROBE_PLATFORMS:
            small.append(
                (
                    session,
                    [
                        PartitionRequest(
                            platform=platform_name,
                            rate_factor=rate,
                            cpu_budget=budget,
                        )
                        for rate in _PROBE_SMALL_RATES
                        for budget in _PROBE_SMALL_BUDGETS
                    ],
                )
            )
    eeg4 = [
        (
            Session("eeg", store=store, result_cache=False, n_channels=4),
            [
                PartitionRequest(
                    platform="tmote",
                    rate_factor=rate,
                    cpu_budget=budget,
                    net_budget=float("inf"),
                    gap_tolerance=5e-3,
                )
                for rate in _PROBE_EEG_RATES
                for budget in _PROBE_EEG_BUDGETS
            ],
        )
    ]
    out: dict = {}
    for name, groups in (("small", small), ("eeg4", eeg4)):
        solves = nodes = 0
        seconds = 0.0
        for session, requests in groups:
            session.partition_many(requests, skip_infeasible=True)
            results, group_s = _min_timed(
                lambda: session.partition_many(
                    requests, skip_infeasible=True
                )
            )
            solves += len(requests)
            nodes += sum(
                r.solution.nodes_explored for r in results if r is not None
            )
            seconds += group_s
        out[name] = {
            "probes": len(groups),
            "solves": solves,
            "nodes": nodes,
            "seconds": seconds,
            "per_solve_ms": 1000.0 * seconds / solves,
        }
    return out


def _speech_partitioner() -> Wishbone:
    return Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
    )


def _partition_many_requests(n_requests: int) -> list[PartitionRequest]:
    """Mixed budgets/rates on one platform (the acceptance batch shape)."""
    rates = [8.0, 12.0, 20.0, 30.0, 40.0]
    budgets = [1.2, 1.0, 0.9, 0.8]
    requests = []
    for budget in budgets:
        for rate in rates:
            requests.append(
                PartitionRequest(
                    platform="tmote",
                    rate_factor=rate,
                    cpu_budget=budget,
                    net_budget=float("inf"),
                    gap_tolerance=5e-3,
                )
            )
    return requests[:n_requests]


def bench_partition_many(smoke: bool) -> dict:
    """Workbench batched serving vs. a loop of independent partitions.

    The batch path shares one cached formulation (and its HiGHS model)
    across all compatible requests, each solved from no solver state;
    the loop gives every request its own partitioner on the rate-scaled
    profile, which formulates the base profile again per request.  Both
    sides probe the same base formulation, so every answer must be
    identical: ``mismatches`` must read 0, and ``equivalent_ties`` (the
    same optimum at a different vertex) is gated at 0 in CI.  Each
    side's time is the minimum of :data:`_PASSES` passes; every batch
    pass runs on a fresh :class:`Session`, so none reuses a formulation
    or a cached answer.
    """
    from repro.workbench import ProfileStore

    n_channels = 6 if smoke else 22
    store = ProfileStore()
    requests = _partition_many_requests(20)
    # Profiling is shared through the store and happens outside the
    # timings, as does building the sessions.
    profile = Session("eeg", store=store, n_channels=n_channels).profile()
    sessions = iter(
        [
            Session("eeg", store=store, n_channels=n_channels)
            for _ in range(_PASSES)
        ]
    )
    batch, batch_s = _min_timed(
        lambda: next(sessions).partition_many(
            requests, skip_infeasible=True
        )
    )

    def loop() -> list:
        return [
            request.partitioner().try_partition(
                profile.scaled(request.rate_factor)
            )
            for request in requests
        ]

    independent, loop_s = _min_timed(loop)

    identical = 0
    equivalent_ties = 0
    mismatches = 0
    for a, b in zip(batch, independent):
        if (a is None) != (b is None):
            mismatches += 1
        elif a is None:
            identical += 1
        elif a.partition.node_set == b.partition.node_set:
            identical += 1
        elif (
            abs(a.partition.objective_value - b.partition.objective_value)
            <= 1e-6 * max(1.0, abs(b.partition.objective_value))
            and abs(a.partition.cpu_utilization - b.partition.cpu_utilization)
            <= 1e-9
        ):
            # Same optimum, different representative of a symmetric
            # plateau (the EEG channels are identical): the two sides
            # solved differently rounded instances.
            equivalent_ties += 1
        else:
            mismatches += 1
    return {
        "requests": len(requests),
        "channels": n_channels,
        "batch_seconds": batch_s,
        "loop_seconds": loop_s,
        "batch_vs_loop_speedup": loop_s / batch_s,
        "identical": identical,
        "equivalent_ties": equivalent_ties,
        "mismatches": mismatches,
    }


#: Copies of the 20-request acceptance grid in the served batch.  With
#: orbital branching one grid solves in ~0.2 s (EEG-6) to ~0.5 s
#: (EEG-22) in process, too short for a worker pool to amortize its
#: per-batch costs; fifteen copies keep every side of the comparison,
#: two workers included, above one second.
_SERVED_COPIES = 15


def bench_partition_many_served(smoke: bool) -> dict:
    """The acceptance batch through the partition server.

    Times an EEG batch (:data:`_SERVED_COPIES` copies of the 4 budget x
    5 rate grid, one job per request) served over the socket by 1-worker
    and 2-worker pools against the in-process ``Session.partition_many``,
    and counts canonical-artifact mismatches (must be 0: the server's
    contract is byte-identical answers).  Result caching is off, so
    every copy is solved again.  Each side's time is the minimum of
    :data:`_PASSES` passes.  The single grid's 2-worker speedup is
    reported too (``small_batch_two_worker_speedup``), to show what the
    pool's fixed costs take from a short batch.  Profiling is shared
    through one durable store and warmed before any timer starts.
    """
    import tempfile

    from repro.workbench import PartitionServer, ServerClient
    from repro.workbench.artifacts import canonical_json

    n_channels = 6 if smoke else 22
    grid = _partition_many_requests(20)
    requests = grid * _SERVED_COPIES
    params = {"n_channels": n_channels}

    with tempfile.TemporaryDirectory() as store_dir:
        from repro.workbench import ProfileStore

        # Result caching is off on both sides here: this section times
        # the sharded *solve* path (bench_result_cache times the hits).
        session = Session(
            "eeg", store=ProfileStore(store_dir), result_cache=False,
            **params,
        )
        session.profile()  # profile once, durably, outside all timings
        inproc, inproc_s = _min_timed(
            lambda: session.partition_many(requests, skip_infeasible=True)
        )

        def served(workers: int, batch: list) -> tuple[list, float]:
            with PartitionServer(
                workers=workers, store=store_dir, result_cache=False
            ) as srv:
                with ServerClient(srv.address) as client:
                    # Warm the parent's session/profile caches so the
                    # timing measures serving, not first-touch setup.
                    client.partition_many(
                        "eeg", batch[:1], params=params,
                        skip_infeasible=True,
                    )
                    return _min_timed(
                        lambda: client.partition_many(
                            "eeg", batch, params=params,
                            skip_infeasible=True,
                        )
                    )

        served_one, one_s = served(1, requests)
        served_two, two_s = served(2, requests)
        _, small_one_s = served(1, grid)
        _, small_two_s = served(2, grid)

    def mismatches(results: list) -> int:
        count = 0
        for a, b in zip(inproc, results):
            if (a is None) != (b is None):
                count += 1
            elif a is not None and canonical_json(a) != canonical_json(b):
                count += 1
        return count

    return {
        "requests": len(requests),
        "channels": n_channels,
        "inproc_seconds": inproc_s,
        "served_one_worker_seconds": one_s,
        "served_two_worker_seconds": two_s,
        "two_worker_speedup": one_s / two_s,
        "served_two_vs_inproc_speedup": inproc_s / two_s,
        "small_batch_requests": len(grid),
        "small_batch_one_worker_seconds": small_one_s,
        "small_batch_two_worker_seconds": small_two_s,
        "small_batch_two_worker_speedup": small_one_s / small_two_s,
        "mismatches_one_worker": mismatches(served_one),
        "mismatches_two_workers": mismatches(served_two),
    }


def bench_degraded_fallback(smoke: bool) -> dict:
    """Graceful degradation: the served batch with *zero* live workers.

    Scales a 1-worker server down to an empty pool (``min_workers=0``),
    so every request is answered by the parent's in-process fallback,
    and times that degraded batch against plain in-process
    ``Session.partition_many``.  Degraded serving pays socket framing
    plus a hand-off to the pool's one runner thread, so the ratio sits
    near (a little under) 1.0;
    gating it keeps the fallback path measured, not merely believed.
    Artifacts must stay byte-identical — degradation changes where a
    run solves, never its answer.

    Both sides run without a result cache, so every pass repeats the
    same solves; each side's time is the minimum of :data:`_PASSES`
    passes, which keeps one slow pass from moving the gated ratio.
    ``degraded_runs`` counts the inline runs of all degraded passes.
    """
    import tempfile
    import time as time_mod
    import warnings

    from repro.workbench import PartitionServer, ServerClient
    from repro.workbench.artifacts import canonical_json

    n_channels = 6 if smoke else 22
    # Low rates, where search trees survive orbital branching: each
    # solve takes tens of milliseconds to a second, so the fallback's
    # per-request framing stays small beside it.  (The acceptance
    # grid's requests now solve in ~10 ms each, and there that framing
    # alone moves the ratio by a third.)
    requests = [
        PartitionRequest(
            platform="tmote",
            rate_factor=rate,
            cpu_budget=budget,
            net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for rate in (2.0, 3.0)
        for budget in (1.2, 1.0, 0.9, 0.8)
    ]
    params = {"n_channels": n_channels}

    with tempfile.TemporaryDirectory() as store_dir:
        from repro.workbench import ProfileStore

        session = Session(
            "eeg", store=ProfileStore(store_dir), result_cache=False,
            **params,
        )
        session.profile()  # profile once, durably, outside all timings
        inproc, inproc_s = _min_timed(
            lambda: session.partition_many(requests, skip_infeasible=True)
        )

        with PartitionServer(
            workers=1, min_workers=0, store=store_dir, result_cache=False
        ) as srv:
            with ServerClient(srv.address) as client:
                # Warm the parent's caches, then empty the pool: every
                # subsequent run lands on the degraded inline path.
                client.partition_many(
                    "eeg", requests[:1], params=params,
                    skip_infeasible=True,
                )
                srv.scale_to(0)
                deadline = time_mod.monotonic() + 10.0
                while srv.worker_pids():
                    if time_mod.monotonic() > deadline:
                        raise RuntimeError("pool never drained to zero")
                    time_mod.sleep(0.05)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    degraded, degraded_s = _min_timed(
                        lambda: client.partition_many(
                            "eeg", requests, params=params,
                            skip_infeasible=True,
                        )
                    )
                degraded_runs = srv.pool.degraded_runs

    mismatches = 0
    for a, b in zip(inproc, degraded):
        if (a is None) != (b is None):
            mismatches += 1
        elif a is not None and canonical_json(a) != canonical_json(b):
            mismatches += 1

    return {
        "requests": len(requests),
        "channels": n_channels,
        "inproc_seconds": inproc_s,
        "degraded_seconds": degraded_s,
        "degraded_vs_inproc_speedup": inproc_s / degraded_s,
        "degraded_runs": degraded_runs,
        "mismatches": mismatches,
    }


def bench_result_cache(smoke: bool) -> dict:
    """Hit path vs solve path for repeated identical EEG batches.

    The solve pass populates a durable result cache; the warm pass
    (same session, memory hits) and a fresh session (disk hits — a new
    process's view of the shared store) must answer the identical batch
    canonically byte-identically, ≥10x faster than solving.  Served
    hits ride the same store through the partition server's parent-side
    cache, so one figure covers both layers.

    A hit pass takes milliseconds and, with orbital branching, the
    solve pass only a few hundred, so one pass swings with whatever else
    the box is doing: the solve time is the minimum of :data:`_PASSES`
    passes and each hit time the minimum of :data:`_HIT_PASSES` (memory
    hits: after each solve pass); a memory or served hit pass times
    :data:`_HITS_PER_PASS` batches and counts their mean, the time of one
    batch.  Every
    solve pass fills an empty result cache through a fresh
    :class:`Session`, and every disk pass opens a fresh
    :class:`Session`, so each of them reads the store from disk.
    """
    import tempfile

    from repro.workbench import (
        PartitionServer,
        ProfileStore,
        ResultCache,
        ServerClient,
    )
    from repro.workbench.artifacts import canonical_json

    n_channels = 6 if smoke else 22
    requests = _partition_many_requests(20)
    with tempfile.TemporaryDirectory() as store_dir:

        def solve_pass(cache_dir: str) -> tuple[Session, list, float]:
            session = Session(
                "eeg",
                store=ProfileStore(store_dir),
                result_cache=ResultCache(cache_dir),
                n_channels=n_channels,
            )
            session.profile()  # shared, and outside all timings
            solved, seconds = _timed(
                lambda: session.partition_many(
                    requests, skip_infeasible=True
                )
            )
            return session, solved, seconds

        # Each solve pass fills an empty result cache, and its memory
        # hit passes follow it, so solves and hits take turns through
        # any slow spell of the machine.  The last solve pass fills the
        # store's own cache, which the disk and served hits read.
        cache_dirs = [
            os.path.join(store_dir, f"solve-pass-{i}")
            for i in range(_PASSES - 1)
        ]
        solve_times, warm_times = [], []
        for cache_dir in cache_dirs + [store_dir]:
            session, solved, seconds = solve_pass(cache_dir)
            solve_times.append(seconds)
            warm, seconds = _min_timed(
                lambda: session.partition_many(
                    requests, skip_infeasible=True
                ),
                _HIT_PASSES,
                _HITS_PER_PASS,
            )
            warm_times.append(seconds)
        solve_s, warm_s = min(solve_times), min(warm_times)

        def disk_pass():
            fresh = Session(
                "eeg", store=ProfileStore(store_dir), n_channels=n_channels
            )
            fresh.profile()  # a profile-store disk hit, outside the timing
            return _timed(
                lambda: fresh.partition_many(requests, skip_infeasible=True)
            )

        disk_passes = [disk_pass() for _ in range(_HIT_PASSES)]
        disk = disk_passes[0][0]
        disk_s = min(seconds for _, seconds in disk_passes)
        with PartitionServer(workers=1, store=store_dir) as srv:
            with ServerClient(srv.address) as client:
                params = {"n_channels": n_channels}
                client.partition_many(  # warm the parent session cache
                    "eeg", requests[:1], params=params, skip_infeasible=True
                )
                served, served_s = _min_timed(
                    lambda: client.partition_many(
                        "eeg", requests, params=params, skip_infeasible=True
                    ),
                    _HIT_PASSES,
                    _HITS_PER_PASS,
                )
                served_stats = dict(client.last_batch_stats)

    def mismatches(results: list) -> int:
        count = 0
        for a, b in zip(solved, results):
            if (a is None) != (b is None):
                count += 1
            elif a is not None and canonical_json(a) != canonical_json(b):
                count += 1
        return count

    return {
        "requests": len(requests),
        "channels": n_channels,
        "solve_seconds": solve_s,
        "hit_seconds": warm_s,
        "disk_hit_seconds": disk_s,
        "served_hit_seconds": served_s,
        "hit_vs_solve_speedup": solve_s / warm_s,
        "disk_hit_vs_solve_speedup": solve_s / disk_s,
        "served_hit_vs_solve_speedup": solve_s / served_s,
        "served_cache_hits": served_stats.get("cache_hits", 0),
        "mismatches_hit": mismatches(warm),
        "mismatches_disk_hit": mismatches(disk),
        "mismatches_served_hit": mismatches(served),
    }


def bench_end_to_end(smoke: bool) -> dict:
    """Wall-clock of the figure harnesses that hammer the solver."""
    fig6_runs = 5 if smoke else 21
    fig6_channels = 6 if smoke else 22
    result6, fig6_s = _timed(
        lambda: fig6.run(n_runs=fig6_runs, n_channels=fig6_channels)
    )
    _, fig7_s = _timed(fig7.run)
    feasible = [s for s in result6.samples if s.feasible]
    return {
        "fig6": {
            "runs": fig6_runs,
            "channels": fig6_channels,
            "seconds": fig6_s,
            "prove_seconds_total": sum(
                sample.prove_seconds for sample in result6.samples
            ),
            "feasible_runs": len(feasible),
            "limit_hits": result6.limit_hits,
            "median_prove_seconds": result6.percentile("prove", 50.0)
            if feasible
            else None,
        },
        "fig7": {"seconds": fig7_s},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI (6 EEG channels, short fig6 sweep)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_solver.json",
        help="path of the JSON report (default: ./BENCH_solver.json)",
    )
    args = parser.parse_args()

    report = {
        "benchmark": "solver",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Worker-pool ratios are bounded by available cores: on a
        # single-core container two workers can only time-slice, so
        # two_worker_speedup ~1.0 there and >=1.5x on multi-core hosts.
        "cpu_count": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    total_start = time.perf_counter()
    report["branch_bound"] = bench_branch_bound(args.smoke)
    report["rate_search"] = bench_rate_search(args.smoke)
    report["probe_solve"] = bench_probe_solve(args.smoke)
    report["partition_many"] = bench_partition_many(args.smoke)
    report["partition_many_served"] = bench_partition_many_served(args.smoke)
    report["degraded_fallback"] = bench_degraded_fallback(args.smoke)
    report["result_cache"] = bench_result_cache(args.smoke)
    report["end_to_end"] = bench_end_to_end(args.smoke)
    report["total_seconds"] = time.perf_counter() - total_start

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)

    bb = report["branch_bound"]
    rs = report["rate_search"]
    print(f"wrote {args.output}")
    print(
        f"branch&bound: {bb['tuned']['nodes_per_sec']:.0f} nodes/s tuned vs "
        f"{bb['plain']['nodes_per_sec']:.0f} plain "
        f"({bb['node_throughput_speedup']:.1f}x); rate "
        f"{bb['root_closing']['rate_factor']:g} closes in "
        f"{bb['root_closing']['nodes']} node(s)"
    )
    for name, row in rs.items():
        print(
            f"rate search [{name}]: {row['seconds']:.2f}s, "
            f"{row['probes']} probes, rate x{row['rate_factor']:g}"
        )
    for name, row in report["probe_solve"].items():
        print(
            f"probe solve [{name}]: {row['per_solve_ms']:.2f} ms per solve "
            f"({row['solves']} solves, {row['probes']} probes)"
        )
    pm = report["partition_many"]
    print(
        f"partition_many: {pm['requests']} requests in "
        f"{pm['batch_seconds']:.2f}s batched vs {pm['loop_seconds']:.2f}s "
        f"looped ({pm['batch_vs_loop_speedup']:.1f}x, "
        f"{pm['identical']} identical, {pm['equivalent_ties']} "
        f"equivalent ties, "
        f"{pm['mismatches']} mismatches)"
    )
    pms = report["partition_many_served"]
    print(
        f"partition_many_served: {pms['inproc_seconds']:.2f}s in-process vs "
        f"{pms['served_one_worker_seconds']:.2f}s served/1w vs "
        f"{pms['served_two_worker_seconds']:.2f}s served/2w "
        f"({pms['two_worker_speedup']:.2f}x for 2 workers, "
        f"{pms['small_batch_two_worker_speedup']:.2f}x on one "
        f"{pms['small_batch_requests']}-request grid, "
        f"{pms['mismatches_two_workers']} mismatches)"
    )
    dg = report["degraded_fallback"]
    print(
        f"degraded_fallback: {dg['inproc_seconds']:.2f}s in-process vs "
        f"{dg['degraded_seconds']:.2f}s degraded (no workers) "
        f"({dg['degraded_vs_inproc_speedup']:.2f}x, "
        f"{dg['degraded_runs']} inline runs, {dg['mismatches']} mismatches)"
    )
    rc = report["result_cache"]
    rc_mismatches = (
        rc["mismatches_hit"]
        + rc["mismatches_disk_hit"]
        + rc["mismatches_served_hit"]
    )
    print(
        f"result_cache: {rc['solve_seconds']:.2f}s solve vs "
        f"{rc['hit_seconds'] * 1000:.0f}ms warm / "
        f"{rc['disk_hit_seconds'] * 1000:.0f}ms disk / "
        f"{rc['served_hit_seconds'] * 1000:.0f}ms served "
        f"({rc['hit_vs_solve_speedup']:.0f}x warm, "
        f"{rc['disk_hit_vs_solve_speedup']:.0f}x disk, "
        f"{rc_mismatches} mismatches)"
    )
    print(
        f"fig6: {report['end_to_end']['fig6']['seconds']:.2f}s "
        f"({report['end_to_end']['fig6']['limit_hits']} limit hits)  "
        f"fig7: {report['end_to_end']['fig7']['seconds']:.2f}s"
    )


if __name__ == "__main__":
    main()
