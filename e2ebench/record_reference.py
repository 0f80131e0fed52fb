"""Record ``reference.json`` and ``manifest.json`` for the benchmark.

The manifest records why each workload exists (from ``BENCHMARK.json``),
which end-to-end metrics each layer's metrics should move, the catalog
digest, and the machine the reference was recorded on.

Run from the repository root after changing the catalog::

    python3 e2ebench/record_reference.py

The reference holds, for every catalog request, the objective the
solver reaches (``None`` where the request is proven infeasible) and
every rate search's rate and objective.  Runs compare their answers
with it: objectives within each request's gap, rates exactly.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layer -> (per-layer metrics, the end-to-end metrics they should move).
#: Every served call stalls ~40 ms on delayed ACKs (the transport leaves
#: Nagle's algorithm on), which is most of ``served-warm`` latency; the
#: layers doing that workload's work move its ``cpu_ms_per_req`` and
#: ``throughput_rps``, and its latency only a little.
LAYER_MAP = {
    "scenarios": {
        "metrics": ["scenarios.build_s", "setup.scenarios.inputs_s"],
        "moves": [
            "served-warm/cpu_ms_per_req (client rebuilds the graph per call)",
            "*/setup_s (inputs)",
        ],
    },
    "profiler+dataflow+store": {
        "metrics": [
            "setup.profiler.measure_s", "setup.profiler.elements_per_s",
            "setup.dataflow.run_s", "setup.store.measurement_s",
        ],
        "moves": ["*/setup_s"],
        "flat": [
            "timed phase of both workloads (profiling runs only in set-up)",
        ],
        "unmeasured": [
            "PeakTracker.flush: the workbench profiler runs with peak "
            "tracking off, so no workload flushes peaks",
        ],
    },
    "probe": {
        "metrics": [
            "probe.formulations", "probe.formulate_s", "probe.partition_s",
        ],
        "moves": [
            "served-cold/throughput_rps (formulation repeats per batch)",
            "served-cold/cpu_ms_per_req",
        ],
    },
    "solver": {
        "metrics": [
            "solver.solves", "solver.solve_s", "solver.nodes",
            "solver.simplex_iters", "solver.prove_frac",
        ],
        "moves": [
            "served-cold/throughput_rps", "served-cold/latency_p90_ms",
            "served-warm/setup_s (the cache fill solves the catalog)",
        ],
        "flat": ["served-warm timed phase"],
    },
    "rate_search": {
        "metrics": [
            "rate_search.searches", "rate_search.probes",
            "rate_search.search_s",
        ],
        "moves": [
            "served-cold/throughput_rps (searches run in the client)",
        ],
    },
    "artifacts": {
        "metrics": [
            "artifacts.encode_s", "artifacts.decode_s", "artifacts.bytes",
        ],
        "moves": [
            "served-cold/cpu_ms_per_req (encode)",
            "served-warm/cpu_ms_per_req (decode)",
        ],
    },
    "cache": {
        "metrics": [
            "cache.key_s", "cache.hits", "cache.misses", "cache.hit_frac",
            "cache.lookup_s", "cache.store_s",
        ],
        "moves": [
            "served-warm/cpu_ms_per_req", "served-warm/throughput_rps",
        ],
    },
    "frames": {
        "metrics": [
            "frames.send_s", "frames.recv_wait_s", "frames.bytes_sent",
            "frames.bytes_recv",
        ],
        "moves": [
            "served-warm/cpu_ms_per_req",
            "served-warm/latency_p50_ms (only through the delayed-ACK "
            "stall, which no layer metric covers)",
        ],
    },
    "server": {
        "metrics": [
            "server.job_s", "server.parent_cpu_s", "server.worker_cpu_s",
            "server.worker_busy_frac", "server.jobs", "server.requeued",
            "server.degraded_runs",
        ],
        "moves": [
            "served-cold/throughput_rps", "served-cold/cpu_ms_per_req",
        ],
    },
    "trace": {
        "metrics": ["trace.unattributed_frac", "trace.overhead_frac"],
        "moves": [],
    },
}


def record_reference() -> dict:
    from repro.workbench import PartitionRequest, ProfileStore, Session

    import run

    sessions = {
        label: Session(
            scenario, store=ProfileStore(), result_cache=False,
            params=params,
        )
        for label, scenario, params in catalog.INSTANCES
    }
    objectives = {}
    for call in catalog.partition_calls():
        results = sessions[call.instance].partition_many(
            [PartitionRequest(**r) for r in call.requests],
            skip_infeasible=True,
        )
        for request, result in zip(call.requests, results):
            objectives[catalog.request_key(call.instance, request)] = (
                None if result is None else result.partition.objective_value
            )
    searches = {}
    for call in catalog.search_calls():
        found = run._search(sessions[call.instance], call)
        searches[catalog.search_key(call.instance, call.requests[0])] = {
            "rate_factor": found.rate_factor,
            "objective": (
                None
                if found.result is None
                else found.result.partition.objective_value
            ),
        }
    return {
        "catalog_digest": catalog.catalog_digest(),
        "objectives": objectives,
        "searches": searches,
    }


def main() -> int:
    import run

    run._import_program()
    reference = record_reference()
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = {
        "catalog_digest": reference["catalog_digest"],
        "recorded_on": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "clk_tck_hz": os.sysconf("SC_CLK_TCK"),
        },
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "layers": LAYER_MAP,
    }
    (HERE / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n"
    )
    feasible = sum(v is not None for v in reference["objectives"].values())
    print(
        f"recorded {len(reference['objectives'])} requests "
        f"({feasible} feasible), {len(reference['searches'])} searches; "
        f"catalog "
        f"{reference['catalog_digest']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
