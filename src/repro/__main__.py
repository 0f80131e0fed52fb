"""Command-line interface:  python -m repro <command> [options].

Commands:
  platforms                     list the modeled platforms
  scenarios                     list the registered workload scenarios
  speech   [--platform P] [--rate R|auto] [--nodes N] [--dot FILE]
  eeg      [--platform P] [--channels C] [--rate R|auto] [--dot FILE]
  leak     [--platform P] [--nodes N] [--fanin F] [--dot FILE]
  serve    [--host H] [--port P] [--workers N] [--store DIR|D1,D2,..|@RING]
           [--replicas R] [--write-quorum Q]
           [--min-workers N] [--max-workers N] [--heartbeat S]
           [--fault-plan JSON|@FILE]
  gateway  --backends H1:P1,H2:P2|@MANIFEST [--host H] [--port P]
           [--max-inflight N] [--tenant-quota N] [--platform P]
  profile  SCENARIO [--param k=v ...] [--scalar] [--batch-size N]
           [--store SPEC] [--out FILE] [--canonical]
  partition SCENARIO [--rates CSV] [--cpu-budgets CSV] [--net-budgets CSV]
           [--param k=v ...] [--server HOST:PORT[,HOST:PORT..]|@MANIFEST]
           [--tenant ID] [--out DIR] [--canonical] [--stats]
  store    stats|gc --store DIR|D1,D2,..|@RING [--server HOST:PORT]
           [--ttl S] [--max-bytes N] [--max-entries N] [--grace S]
           [--dry-run]
  store    ring status|add|remove --store D1,D2,..|@RING [DIR] [--no-sync]

Each application command opens a workbench :class:`~repro.workbench.Session`
on the named scenario, profiles it (through the session's profile store —
pass ``--store DIR`` to make profiling cache durable across invocations),
partitions it for the chosen platform (optionally searching the maximum
sustainable rate), prints the partition and predicted deployment
behaviour, and can emit a colorized GraphViz file.

``serve`` runs the partition server (socket-served ``partition_many``
sharded over worker processes); ``gateway`` runs the asyncio front door
that routes batches across several such servers by result-cache key
(shards own their cache slices; failed backends fail over; admission
control answers overload with typed ``ServerBusy``); ``partition``
builds a budget x rate request grid and solves it in process or — with
``--server`` — against a running server, a gateway, or a multi-backend
spec routed client-side, optionally writing one artifact per request
(``--stats`` reports how much of the batch the result cache answered).
``profile`` runs the profiler alone and writes the measurement artifact
(``--scalar`` and ``--batch-size N`` change how the graph is driven, not
the artifact: every mode is byte-identical in canonical form, which the
CI smoke step diffs).
``store`` is the lifecycle side: ``stats`` summarizes a durable store
(``--server`` additionally reports a live server's fault counters —
``store_errors``/``write_errors`` — and per-backend replica health),
``gc`` applies TTL/LRU/size eviction policies and sweeps orphaned
sidecars and temp files (over a replicated ring it runs anti-entropy
first), and ``ring`` manages consistent-hash ring membership: every
``--store`` flag also accepts ``dir1,dir2,...`` (a 2-replica ring) or
``@manifest.json`` (a persisted ring spec).
"""

from __future__ import annotations

import argparse
import sys

from .platforms import PLATFORMS
from .viz import series_table, write_dot
from .workbench import (
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    Session,
    list_scenarios,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", default="tmote",
                        choices=sorted(PLATFORMS))
    parser.add_argument("--rate", default="auto",
                        help="rate factor (float) or 'auto' to search")
    parser.add_argument("--nodes", type=int, default=1,
                        help="testbed size for deployment prediction")
    parser.add_argument("--dot", default=None,
                        help="write a GraphViz file of the partition")
    parser.add_argument("--store", default=None,
                        help="durable profile store: directory, "
                        "'dir1,dir2,...' (a replicated ring), or "
                        "'@manifest.json' (default: in-memory)")


def _session(args, scenario: str, **params) -> Session:
    store = ProfileStore(args.store) if args.store else None
    return Session(
        scenario, store=store, platform=args.platform, params=params
    )


def _partition_and_report(args, scenario: str, fanin: float = 1.0,
                          **scenario_params) -> int:
    session = _session(args, scenario, **scenario_params)
    profile = session.profile()
    platform = profile.platform
    request = PartitionRequest(platform=args.platform, aggregate_fanin=fanin)
    if args.rate == "auto":
        outcome = session.rate_search(tolerance=0.02, aggregate_fanin=fanin)
        if outcome.result is None:
            print("no feasible partition at any rate", file=sys.stderr)
            return 1
        rate = outcome.rate_factor
        result = outcome.result
    else:
        rate = float(args.rate)
        result = session.try_partition(request, rate_factor=rate)
        if result is None:
            print(f"infeasible at rate x{rate}; try --rate auto",
                  file=sys.stderr)
            return 1
    partition = result.partition

    print(f"platform: {platform.description}")
    print(f"rate factor: x{rate:.3f}")
    print(f"node partition ({len(partition.node_set)} ops): "
          f"{', '.join(sorted(partition.node_set))}")
    print(f"server partition ({len(partition.server_set)} ops): "
          f"{', '.join(sorted(partition.server_set))}")
    print(f"node CPU {partition.cpu_utilization:.1%} | cut "
          f"{partition.network_bytes_per_sec:.0f} B/s | solver "
          f"{result.solution.status.value} in "
          f"{result.solve_seconds * 1000:.0f} ms")

    if platform.radio is not None:
        prediction = session.deploy(
            result, n_nodes=args.nodes, rate_factor=rate
        )
        print(f"deployment ({args.nodes} node(s)): input processed "
              f"{prediction.input_fraction:.1%}, msgs received "
              f"{prediction.msg_reception:.1%}, goodput "
              f"{prediction.goodput:.1%}")
    if args.dot:
        path = write_dot(session.graph(), args.dot, profile=profile,
                         node_set=partition.node_set,
                         title=f"{profile.graph.name} on {platform.name}")
        print(f"wrote {path}")
    return 0


def cmd_platforms(_args) -> int:
    rows = [
        [
            p.name,
            f"{p.clock_hz / 1e6:.0f} MHz",
            f"{p.cycle_costs.float_op:g}",
            f"{p.cycle_costs.trans_op:g}",
            "yes" if p.radio else "-",
            p.description.split(":")[0],
        ]
        for p in PLATFORMS.values()
    ]
    print(series_table(
        ["name", "clock", "cyc/float", "cyc/libm", "radio", "hardware"],
        rows,
    ))
    return 0


def cmd_scenarios(_args) -> int:
    rows = [
        [
            s.name,
            ", ".join(f"{k}={v!r}" for k, v in sorted(s.defaults.items())),
            s.description,
        ]
        for s in list_scenarios()
    ]
    print(series_table(["name", "parameters", "description"], rows))
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.workbench.faults import FaultPlan

    # Chaos testing only: a fault plan from --fault-plan (inline JSON or
    # @file) or, failing that, the REPRO_FAULT_PLAN environment variable.
    if getattr(args, "fault_plan", None):
        fault_plan = FaultPlan.from_text(args.fault_plan)
    else:
        fault_plan = FaultPlan.from_env()

    from .workbench.replication import parse_store_arg

    server = PartitionServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store=parse_store_arg(
            args.store,
            replicas=args.replicas,
            write_quorum=args.write_quorum,
        ),
        ship_probes=not args.worker_probes,
        default_platform=args.platform,
        result_cache=not args.no_result_cache,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        heartbeat_interval=args.heartbeat,
        fault_plan=fault_plan,
    )

    # SIGTERM (what `kill` and CI cleanup send) must shut down like
    # Ctrl-C: through serve_forever's close(), which stops the worker
    # pool.  The default handler kills only this process and leaks the
    # forked workers.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    host, port = server.start()
    print(
        f"serving partition requests on {host}:{port} "
        f"({args.workers} worker(s), "
        f"store={'durable:' + args.store if args.store else 'memory'})",
        flush=True,
    )
    server.serve_forever()
    return 0


def cmd_gateway(args) -> int:
    import signal

    from .workbench.gateway import Gateway

    gateway = Gateway(
        args.backends,
        host=args.host,
        port=args.port,
        default_platform=args.platform,
        max_inflight=args.max_inflight,
        tenant_quota=args.tenant_quota,
    )

    # Same SIGTERM story as cmd_serve: CI cleanup `kill`s the gateway
    # and expects a clean event-loop shutdown, not a leaked thread.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    host, port = gateway.start()
    print(
        f"gateway routing partition requests on {host}:{port} "
        f"across {len(gateway.directory)} backend(s): "
        f"{','.join(gateway.directory.backends)}",
        flush=True,
    )

    # Surface membership transitions (shard joins/leaves, backend
    # failure/recovery) on stdout so operators — and the CI smoke job —
    # can watch routed traffic degrade and heal.
    import threading
    import time as _time

    def _print_events() -> None:
        seen = 0
        while not gateway.closed:
            events = gateway.directory.log.events()
            for event in events[seen:]:
                print(f"[gateway] {event.kind}: {event.detail}", flush=True)
            seen = len(events)
            _time.sleep(0.2)

    threading.Thread(
        target=_print_events, name="gateway-events", daemon=True
    ).start()
    gateway.serve_forever()
    return 0


def _parse_param(text: str):
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"--param {text!r} is not k=v")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    if raw.lower() in ("none", "null"):
        return key, None
    return key, raw


def _parse_floats(text: str | None) -> list[float | None]:
    if text is None:
        return [None]
    return [float(value) for value in text.split(",") if value]


def cmd_partition(args) -> int:
    from .workbench.artifacts import canonical_json, save_artifact

    params = dict(args.param or [])
    requests = [
        PartitionRequest(
            platform=args.platform,
            rate_factor=rate,
            cpu_budget=cpu,
            net_budget=net,
            gap_tolerance=args.gap,
        )
        for cpu in _parse_floats(args.cpu_budgets)
        for net in _parse_floats(args.net_budgets)
        for rate in [float(r) for r in args.rates.split(",") if r]
    ]
    store = ProfileStore(args.store) if args.store else None
    session = Session(
        args.scenario, store=store, platform=args.platform, params=params
    )
    cache_line = None
    if args.server:
        from .workbench.server import ServerClient

        # An explicit client (rather than a bare address) so the
        # server's result-cache counters can be read off the ack.
        with ServerClient(args.server, tenant=args.tenant) as client:
            results = session.partition_many(
                requests, skip_infeasible=True, server=client
            )
            stats = client.last_batch_stats
            cache_line = (
                f"result cache: {stats.get('cache_hits', 0)} hits, "
                f"{stats.get('cache_misses', 0)} misses (server-side)"
            )
    else:
        results = session.partition_many(requests, skip_infeasible=True)
        if session.result_cache is not None:
            stats = session.result_cache.stats
            cache_line = (
                f"result cache: {stats.hits} hits, {stats.misses} misses"
            )

    graph_ref = {"scenario": session.scenario.name, "params": session.params}
    if args.out:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    def _budget_label(value) -> str:
        return "default" if value is None else f"{value}"

    for index, (request, result) in enumerate(zip(requests, results)):
        label = (
            f"rate x{request.rate_factor:g}"
            f" cpu={_budget_label(request.cpu_budget)}"
            f" net={_budget_label(request.net_budget)}"
        )
        if result is None:
            print(f"[{index:03d}] {label}: infeasible")
        else:
            partition = result.partition
            print(
                f"[{index:03d}] {label}: {len(partition.node_set)} node ops, "
                f"cut {partition.network_bytes_per_sec:.0f} B/s"
            )
        if args.out:
            path = out_dir / f"partition-{index:03d}.json"
            if result is None:
                path.write_text('{"result": null}\n')
            elif args.canonical:
                path.write_text(canonical_json(result, graph_ref) + "\n")
            else:
                save_artifact(result, path, graph_ref)
    feasible = sum(1 for r in results if r is not None)
    print(f"{feasible}/{len(results)} feasible"
          + (f"; artifacts in {args.out}" if args.out else ""))
    if args.stats and cache_line is not None:
        print(cache_line)
    return 0


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024.0 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{count:.0f} B"
        count /= 1024.0
    return f"{count:.1f} GiB"  # pragma: no cover - unreachable


def _print_replica_health(replication) -> None:
    """Per-backend replica-health rows shared by stats and ring status."""
    for row in replication.get("backends", []):
        state = "FAILING" if row.get("failing") else (
            "ok" if row.get("healthy", True) else "MISSING"
        )
        detail = ""
        if "entries" in row:
            detail = (
                f", {row['entries']} entries "
                f"({_format_bytes(row.get('bytes', 0))})"
            )
        if "writes" in row:
            detail += (
                f", {row['writes']} writes "
                f"({row['write_errors']} failed), "
                f"{row['reads']} reads ({row['read_failures']} failed), "
                f"{row['repairs']} repairs"
            )
        print(f"  backend {row['dir']}: {state}{detail}")


def cmd_store_stats(args) -> int:
    from .workbench import StoreJanitor
    from .workbench.replication import parse_store_arg

    if not args.store and not args.server:
        print("error: store stats needs --store and/or --server",
              file=sys.stderr)
        return 2
    if args.store:
        stats = StoreJanitor(parse_store_arg(args.store)).stats()
        by_kind = ", ".join(
            f"{count} {kind}"
            for kind, count in stats["entries_by_kind"].items()
        ) or "empty"
        print(f"store {stats['root']}")
        print(
            f"entries: {stats['entries']} ({by_kind}), "
            f"{_format_bytes(stats['entry_bytes'])}"
        )
        print(
            f"garbage: {stats['orphan_sidecars']} orphan sidecar(s) "
            f"({_format_bytes(stats['orphan_bytes'])}), "
            f"{stats['temp_files']} temp file(s), "
            f"{stats['corrupt_entries']} corrupt entries"
        )
        replication = stats.get("replication")
        if replication:
            print(
                f"ring: {len(replication['backends'])} backends, "
                f"{replication['effective_replicas']} replicas, "
                f"write quorum {replication['write_quorum']}; "
                f"under-replicated: {replication['under_replicated']}, "
                f"stray replicas: {replication['stray_replicas']}"
            )
            _print_replica_health(replication)
    if args.server:
        # The fault counters live in server processes, not on disk;
        # the stats wire op is the only place to read them.
        from .workbench.server import ServerClient

        with ServerClient(args.server) as client:
            payload = client.stats()
        cache = payload.get("cache", {})
        store = payload.get("store", {})
        print(f"server {args.server}")
        print(
            f"result cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('stores', 0)} stores, "
            f"{cache.get('store_errors', 0)} store errors"
        )
        print(f"store write errors: {store.get('write_errors', 0)}")
        faults = payload.get("faults", {})
        print(
            f"faults: {faults.get('rules', 0)} rule(s), "
            f"{faults.get('fired', 0)} fired {faults.get('by_action', {})}"
        )
        replication = store.get("replication")
        if replication:
            print(
                f"ring: {len(replication['backends'])} backends, "
                f"{replication['effective_replicas']} replicas, "
                f"write quorum {replication['write_quorum']}; "
                f"{replication['writes']} writes "
                f"({replication['quorum_failures']} quorum failures), "
                f"{replication['read_repairs']} read-repairs, "
                f"{replication['recovered_reads']} recovered reads"
            )
            _print_replica_health(replication)
    return 0


def cmd_store_ring(args) -> int:
    from .workbench.replication import (
        ReplicatedStore,
        as_layout,
        parse_store_arg,
        save_manifest,
    )

    layout = as_layout(
        parse_store_arg(
            args.store,
            replicas=getattr(args, "replicas", None),
            write_quorum=getattr(args, "write_quorum", None),
        )
    )
    if not isinstance(layout, ReplicatedStore):
        print(
            "error: not a ring spec — use --store dir1,dir2,... or "
            "--store @manifest.json",
            file=sys.stderr,
        )
        return 2

    if args.ring_command == "add":
        layout.add_backend(args.backend)
    elif args.ring_command == "remove":
        layout.remove_backend(args.backend)
    if args.ring_command in ("add", "remove"):
        if args.store.startswith("@"):
            save_manifest(args.store[1:], layout)
            print(f"updated manifest {args.store[1:]}")
        if not args.no_sync:
            ae = layout.anti_entropy(grace_seconds=args.grace)
            print(
                f"anti-entropy: scanned {ae.scanned_keys} keys, "
                f"re-replicated {ae.re_replicated}, pruned {ae.pruned} "
                f"stray replica(s), {ae.repair_errors} repair error(s)"
            )

    info = layout.describe()
    print(
        f"ring: {len(info['backends'])} backends, "
        f"{info['effective_replicas']} replicas, "
        f"write quorum {info['write_quorum']}, {info['keys']} keys"
    )
    print(
        f"under-replicated: {info['under_replicated']}, "
        f"stray replicas: {info['stray_replicas']}"
    )
    _print_replica_health(info)
    return 0


def cmd_store_gc(args) -> int:
    from .workbench import StoreJanitor
    from .workbench.replication import parse_store_arg

    janitor = StoreJanitor(
        parse_store_arg(args.store),
        ttl=args.ttl,
        max_bytes=args.max_bytes,
        max_entries=args.max_entries,
        grace_seconds=args.grace,
    )
    gc = janitor.sweep(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"scanned {gc.scanned_entries} entries; {verb} "
        f"{gc.removed_expired} expired, {gc.removed_lru} over-budget, "
        f"{gc.removed_corrupt} corrupt, "
        f"{gc.removed_orphan_sidecars} orphan sidecar(s), "
        f"{gc.removed_temp_files} temp file(s)"
    )
    if janitor.layout is not None:
        verb = "would re-replicate" if args.dry_run else "re-replicated"
        print(
            f"anti-entropy: {verb} {gc.re_replicated} under-replicated "
            f"entr{'y' if gc.re_replicated == 1 else 'ies'}, pruned "
            f"{gc.pruned_replicas} stray replica(s)"
        )
    print(
        f"{'reclaimable' if args.dry_run else 'reclaimed'} "
        f"{_format_bytes(gc.reclaimed_bytes)}; "
        f"{gc.live_entries} live entries remain "
        f"({_format_bytes(gc.live_bytes)})"
    )
    return 0


def cmd_profile(args) -> int:
    import time

    from .dataflow.execute import ExecutionPlan
    from .workbench.artifacts import canonical_json, save_artifact

    params = dict(args.param or [])
    plan = ExecutionPlan(batch=not args.scalar, batch_size=args.batch_size)
    store = ProfileStore(args.store) if args.store else None
    session = Session(
        args.scenario, store=store, platform=args.platform, params=params
    )
    start = time.perf_counter()
    measurement = session.measurement(plan=plan)
    wall = time.perf_counter() - start

    total = sum(
        op.invocations for op in measurement.stats.operators.values()
    )
    print(f"scenario: {session.scenario.name} "
          + " ".join(f"{k}={v!r}" for k, v in sorted(session.params.items())))
    print(f"plan: {'batched' if plan.batch else 'scalar'} execution")
    print(f"measured {len(measurement.stats.operators)} operators, "
          f"{total} invocations over {measurement.duration:g} virtual s")
    # Wall-clock stays on stdout only — artifacts must be byte-comparable
    # across runs and execution modes.
    print(f"profiled in {wall:.3f} s wall")
    if args.out:
        from pathlib import Path

        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        graph_ref = {
            "scenario": session.scenario.name,
            "params": session.params,
        }
        if args.canonical:
            out_path.write_text(canonical_json(measurement, graph_ref) + "\n")
        else:
            save_artifact(measurement, out_path, graph_ref)
        print(f"wrote {out_path}")
    return 0


def cmd_speech(args) -> int:
    return _partition_and_report(args, "speech")


def cmd_eeg(args) -> int:
    return _partition_and_report(args, "eeg", n_channels=args.channels)


def cmd_leak(args) -> int:
    return _partition_and_report(args, "leak", fanin=float(args.fanin))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wishbone: profile-based partitioning (NSDI 2009 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list modeled platforms").set_defaults(
        func=cmd_platforms
    )
    sub.add_parser(
        "scenarios", help="list registered workload scenarios"
    ).set_defaults(func=cmd_scenarios)

    speech = sub.add_parser("speech", help="partition the MFCC pipeline")
    _add_common(speech)
    speech.set_defaults(func=cmd_speech)

    eeg = sub.add_parser("eeg", help="partition the EEG detector")
    _add_common(eeg)
    eeg.add_argument("--channels", type=int, default=4)
    eeg.set_defaults(func=cmd_eeg)

    leak = sub.add_parser("leak", help="partition the leak detector")
    _add_common(leak)
    leak.add_argument("--fanin", default=1.0,
                      help="aggregation-tree fan-in (§9)")
    leak.set_defaults(func=cmd_leak)

    serve = sub.add_parser("serve", help="run the socket partition server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7453)
    serve.add_argument("--workers", type=int, default=2,
                       help="worker process count")
    serve.add_argument("--store", default=None,
                       help="durable profile store shared by all workers: "
                       "a directory, 'dir1,dir2,...' (a replicated ring), "
                       "or '@manifest.json' (default: in-memory)")
    serve.add_argument("--replicas", type=int, default=None,
                       help="copies per entry on a replicated ring "
                       "(default 2)")
    serve.add_argument("--write-quorum", type=int, default=None,
                       help="replica writes that must land for a durable "
                       "write to count (default: majority)")
    serve.add_argument("--platform", default="tmote",
                       choices=sorted(PLATFORMS),
                       help="default platform for requests naming none")
    serve.add_argument("--worker-probes", action="store_true",
                       help="let workers build their own formulations "
                       "instead of shipping prepared probes")
    serve.add_argument("--min-workers", type=int, default=None,
                       help="lower bound for runtime scaling (0 allows "
                       "a fully degraded in-process pool; default: "
                       "min(1, --workers))")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="upper bound for runtime scaling "
                       "(default: unbounded)")
    serve.add_argument("--heartbeat", type=float, default=1.0,
                       help="worker heartbeat interval in seconds "
                       "(0 disables; default 1.0)")
    serve.add_argument("--fault-plan", default=None,
                       help="chaos testing: a FaultPlan as inline JSON "
                       "or @file (also honors REPRO_FAULT_PLAN)")
    serve.add_argument("--no-result-cache", action="store_true",
                       help="disable server-side result memoization")
    serve.set_defaults(func=cmd_serve)

    gateway = sub.add_parser(
        "gateway",
        help="route partition batches across several partition servers",
    )
    gateway.add_argument("--backends", required=True,
                         help="backend partition servers: 'h1:p1,h2:p2,...' "
                         "or '@manifest.json'")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=7460)
    gateway.add_argument("--platform", default="tmote",
                         choices=sorted(PLATFORMS),
                         help="platform assumed when routing requests that "
                         "name none (match the backends' --platform for "
                         "exact cache-slice ownership)")
    gateway.add_argument("--max-inflight", type=int, default=64,
                         help="batches admitted concurrently before "
                         "ServerBusy (default 64)")
    gateway.add_argument("--tenant-quota", type=int, default=16,
                         help="concurrent batches per tenant before "
                         "ServerBusy (default 16)")
    gateway.set_defaults(func=cmd_gateway)

    profile = sub.add_parser(
        "profile",
        help="profile a scenario and write the measurement artifact",
    )
    profile.add_argument("scenario", help="registered scenario name")
    profile.add_argument("--platform", default="tmote",
                         choices=sorted(PLATFORMS))
    profile.add_argument("--param", action="append", type=_parse_param,
                         metavar="K=V", help="scenario parameter override")
    profile.add_argument("--scalar", action="store_true",
                         help="element-at-a-time execution instead of "
                         "columnar batches")
    profile.add_argument("--batch-size", type=int, default=None,
                         help="cap batched chunks at this many elements")
    profile.add_argument("--store", default=None,
                         help="durable profile store: directory, "
                         "'dir1,dir2,...' (ring), or '@manifest.json'")
    profile.add_argument("--out", default=None,
                         help="write the measurement artifact to this file")
    profile.add_argument("--canonical", action="store_true",
                         help="write a canonical (wall-clock-free) artifact "
                         "for byte comparison")
    profile.set_defaults(func=cmd_profile)

    part = sub.add_parser(
        "partition",
        help="solve a budget x rate request grid (in-process or --server)",
    )
    part.add_argument("scenario", help="registered scenario name")
    part.add_argument("--platform", default="tmote", choices=sorted(PLATFORMS))
    part.add_argument("--rates", default="1.0",
                      help="comma-separated rate factors")
    part.add_argument("--cpu-budgets", default=None,
                      help="comma-separated CPU budgets "
                      "(default: platform default)")
    part.add_argument("--net-budgets", default=None,
                      help="comma-separated net budgets in B/s "
                      "(default: platform default)")
    part.add_argument("--gap", type=float, default=1e-6,
                      help="solver gap tolerance")
    part.add_argument("--param", action="append", type=_parse_param,
                      metavar="K=V", help="scenario parameter override")
    part.add_argument("--server", default=None,
                      help="a running partition server or gateway "
                      "(host:port), a comma list of servers routed "
                      "client-side, or '@manifest.json' "
                      "(default: solve in process)")
    part.add_argument("--tenant", default=None,
                      help="tenant id stamped on server requests "
                      "(gateway admission control)")
    part.add_argument("--store", default=None,
                      help="durable profile store for in-process solving")
    part.add_argument("--out", default=None,
                      help="directory for one artifact per request")
    part.add_argument("--canonical", action="store_true",
                      help="write canonical (wall-clock-free) artifacts "
                      "for byte comparison")
    part.add_argument("--stats", action="store_true",
                      help="report result-cache hits/misses for the batch")
    part.set_defaults(func=cmd_partition)

    store = sub.add_parser(
        "store", help="durable-store lifecycle (stats, gc, ring)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser(
        "stats",
        help="summarize a store (directory, ring, or live server)",
    )
    stats.add_argument("--store", default=None,
                       help="durable store: directory, 'dir1,dir2,...', "
                       "or '@manifest.json'")
    stats.add_argument("--server", default=None,
                       help="host:port of a running partition server — "
                       "reports its live fault counters "
                       "(store_errors/write_errors) and per-backend "
                       "replica health")
    stats.set_defaults(func=cmd_store_stats)
    gc = store_sub.add_parser(
        "gc", help="evict by TTL/LRU/size and sweep orphaned sidecars "
        "(a ring additionally runs anti-entropy first)"
    )
    gc.add_argument("--store", required=True,
                    help="durable store: directory, 'dir1,dir2,...', or "
                    "'@manifest.json'")
    gc.add_argument("--ttl", type=float, default=None,
                    help="evict entries unused for more than TTL seconds")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="evict least-recently-used entries over this "
                    "total size")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="evict least-recently-used entries over this "
                    "count")
    gc.add_argument("--grace", type=float, default=60.0,
                    help="never touch files younger than this many "
                    "seconds (protects in-flight writes; default 60)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing")
    gc.set_defaults(func=cmd_store_gc)

    ring = store_sub.add_parser(
        "ring",
        help="consistent-hash ring membership (status, add, remove)",
    )
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)

    def _ring_common(sub_parser, with_backend: bool) -> None:
        sub_parser.add_argument(
            "--store", required=True,
            help="ring spec: 'dir1,dir2,...' or '@manifest.json'")
        sub_parser.add_argument(
            "--replicas", type=int, default=None,
            help="copies per entry (default 2, or the manifest's)")
        sub_parser.add_argument(
            "--write-quorum", type=int, default=None,
            help="override the write quorum (default: majority)")
        if with_backend:
            sub_parser.add_argument(
                "backend", help="backend directory to add/remove")
            sub_parser.add_argument(
                "--no-sync", action="store_true",
                help="skip the anti-entropy pass after the change")
            sub_parser.add_argument(
                "--grace", type=float, default=60.0,
                help="anti-entropy grace window in seconds (stray "
                "replicas younger than this are kept; default 60)")
        sub_parser.set_defaults(func=cmd_store_ring)

    _ring_common(
        ring_sub.add_parser(
            "status",
            help="replica placement health: per-backend entries, "
            "under-replication, strays",
        ),
        with_backend=False,
    )
    _ring_common(
        ring_sub.add_parser(
            "add", help="grow the ring, then re-replicate onto the "
            "new backend"
        ),
        with_backend=True,
    )
    _ring_common(
        ring_sub.add_parser(
            "remove", help="shrink the ring, then re-home the removed "
            "backend's entries"
        ),
        with_backend=True,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .workbench import WorkbenchError

    try:
        return args.func(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
