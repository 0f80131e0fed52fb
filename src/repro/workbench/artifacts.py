"""Serializable artifacts: versioned JSON round-trips.

Everything the profile-once / re-partition-many workflow produces can be
written to disk and reconstructed exactly:

* :class:`~repro.profiler.profiler.Measurement` — the platform-independent
  profiling record (the expensive thing to recompute);
* :class:`~repro.profiler.records.GraphProfile` — a platform costing;
* :class:`~repro.core.cut.Partition` and
  :class:`~repro.core.partitioner.PartitionResult` — solver outcomes;
* :class:`~repro.core.rate_search.RateSearchResult` — §4.3 searches.

A partition answer is its decision: the node set with its loads and
objective, the solver's status, bound, incumbent history and effort, and
the instance's vertex counts before and after §4.1 preprocessing.  It
carries neither the instance it was solved on nor the solver's variable
vector, so it is a small JSON document and nothing else.

Numbers round-trip bit-exactly: scalars ride through JSON via Python's
shortest-repr floats.  An artifact is one JSON document: on disk one
file (:func:`write_document`), on the wire one frame
(``encode_message``).

Work functions are code, not data — graphs are therefore stored *by
reference*: a structural fingerprint plus, when known, the
``(scenario, params)`` pair that rebuilds the graph through the
registry.  Loading verifies the fingerprint, so a stale scenario or
mismatched graph fails loudly instead of silently decoding against the
wrong topology.

The wire format is versioned (:data:`SCHEMA_VERSION`); a document with a
different version raises :class:`ArtifactError` rather than guessing, and
the durable stores read one as a miss (:func:`is_current`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from ..core.cut import Partition
from ..core.partitioner import PartitionResult
from ..core.rate_search import RateSearchResult
from ..dataflow.execute import ExecutionStats
from ..dataflow.graph import Edge, StreamGraph, WorkCounts
from ..platforms import get_platform
from ..profiler.profiler import Measurement
from ..profiler.records import EdgeProfile, GraphProfile, OperatorProfile
from ..solver.solution import IncumbentEvent, Solution, SolveStatus
from .scenarios import get_scenario

#: Version of the artifact wire format.  Bump on breaking changes.
#: Version 2 dropped the per-bucket peak fields of measurements and
#: graph profiles; 3 drops the instance and solution vectors from
#: answers.
SCHEMA_VERSION = 3

#: Monotonic discriminator for temp-file names (see write_document).
_WRITE_COUNTER = itertools.count()

_SCHEMA_NAME = "repro.workbench"


class ArtifactError(Exception):
    """Raised for malformed, mismatched, or unsupported artifacts."""


# ---------------------------------------------------------------------------
# Graph references
# ---------------------------------------------------------------------------


def graph_fingerprint(graph: StreamGraph) -> str:
    """Structural content hash of a graph (operators + edges + flags).

    Computed once per graph and kept on it: the graph clears the stored
    value whenever :meth:`~StreamGraph.add_operator` or
    :meth:`~StreamGraph.add_edge` changes its structure.
    """
    if graph._fingerprint is not None:
        return graph._fingerprint
    ops = [
        [
            op.name,
            op.namespace.value,
            bool(op.stateful),
            bool(op.side_effects),
            bool(op.is_source),
            bool(op.is_sink),
            op.output_size,
            bool(op.loss_tolerant),
            bool(op.aggregate),
        ]
        for op in sorted(graph.operators.values(), key=lambda o: o.name)
    ]
    edges = sorted([e.src, e.dst, e.dst_port] for e in graph.edges)
    blob = json.dumps(
        {"name": graph.name, "operators": ops, "edges": edges},
        sort_keys=True,
        separators=(",", ":"),
    )
    graph._fingerprint = hashlib.sha256(blob.encode()).hexdigest()
    return graph._fingerprint


def _graph_ref_payload(
    graph: StreamGraph, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    ref: dict[str, Any] = {
        "name": graph.name,
        "fingerprint": graph_fingerprint(graph),
    }
    if graph_ref:
        ref.update(dict(graph_ref))
    return ref


def resolve_graph(
    ref: Mapping[str, Any], graph: StreamGraph | None = None
) -> StreamGraph:
    """Materialize the graph an artifact was recorded against.

    An explicitly supplied ``graph`` wins; otherwise the artifact's
    ``(scenario, params)`` reference rebuilds one through the registry.
    Either way the structural fingerprint must match.
    """
    if graph is None:
        scenario_name = ref.get("scenario")
        if scenario_name is None:
            raise ArtifactError(
                "artifact carries no scenario reference; pass the graph it "
                "was recorded against explicitly"
            )
        scenario = get_scenario(scenario_name)
        params = scenario.resolve_params(ref.get("params", {}))
        graph = scenario.build(params)
    expected = ref.get("fingerprint")
    if expected is not None and graph_fingerprint(graph) != expected:
        raise ArtifactError(
            f"graph fingerprint mismatch for {ref.get('name', '?')!r}: the "
            "supplied/rebuilt graph differs structurally from the one the "
            "artifact was recorded against"
        )
    return graph


# ---------------------------------------------------------------------------
# Leaf payloads
# ---------------------------------------------------------------------------


_COUNT_FIELDS = (
    "int_ops", "float_ops", "trans_ops", "mem_ops",
    "invocations", "loop_iterations",
)


def _counts_payload(counts: WorkCounts) -> list[float]:
    return [getattr(counts, f) for f in _COUNT_FIELDS]


def _counts_from(values: list[float]) -> WorkCounts:
    return WorkCounts(**dict(zip(_COUNT_FIELDS, values)))


def _edge_key(edge: Edge) -> list:
    return [edge.src, edge.dst, edge.dst_port]


def _edge_from_key(key: list) -> Edge:
    return Edge(src=key[0], dst=key[1], dst_port=int(key[2]))


def _solution_payload(solution: Solution) -> dict[str, Any]:
    """The solver outcome without its variable vector (the decision
    records what the vector decoded to)."""
    return {
        "status": solution.status.value,
        "objective": solution.objective,
        "bound": solution.bound,
        "incumbents": [
            [e.elapsed, e.objective, e.node_count]
            for e in solution.incumbents
        ],
        "discover_elapsed": solution.discover_elapsed,
        "prove_elapsed": solution.prove_elapsed,
        "nodes_explored": solution.nodes_explored,
        "iterations": solution.iterations,
    }


def _solution_from(payload: Mapping[str, Any]) -> Solution:
    return Solution(
        status=SolveStatus(payload["status"]),
        objective=payload["objective"],
        bound=payload["bound"],
        incumbents=[
            IncumbentEvent(elapsed=e, objective=o, node_count=n)
            for e, o, n in payload["incumbents"]
        ],
        discover_elapsed=payload["discover_elapsed"],
        prove_elapsed=payload["prove_elapsed"],
        nodes_explored=payload["nodes_explored"],
        iterations=payload["iterations"],
    )


# ---------------------------------------------------------------------------
# Top-level artifact payloads
# ---------------------------------------------------------------------------


def _measurement_payload(
    m: Measurement, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    stats = m.stats
    return {
        "graph": _graph_ref_payload(m.graph, graph_ref),
        "duration": m.duration,
        "operators": [
            {
                "name": name,
                "invocations": op.invocations,
                "inputs": op.inputs,
                "outputs": op.outputs,
                "counts": _counts_payload(op.counts),
            }
            for name, op in sorted(stats.operators.items())
        ],
        "edges": [
            {
                "edge": _edge_key(edge),
                "elements": traffic.elements,
                "bytes": traffic.bytes,
                "peak_element_bytes": traffic.peak_element_bytes,
            }
            for edge, traffic in sorted(
                stats.edge_traffic.items(), key=lambda kv: _edge_key(kv[0])
            )
        ],
        "source_inputs": {
            name: stats.source_inputs[name]
            for name in sorted(stats.source_inputs)
        },
    }


def _measurement_from(
    payload: Mapping[str, Any], graph: StreamGraph | None
) -> Measurement:
    graph = resolve_graph(payload["graph"], graph)
    stats = ExecutionStats(graph)
    for row in payload["operators"]:
        name = row["name"]
        if name not in stats.operators:
            raise ArtifactError(f"unknown operator {name!r} in measurement")
        # Mutate in place: ExecutionStats pre-wires per-operator views of
        # these objects, so replacing them would orphan the caches.
        op = stats.operators[name]
        op.invocations = row["invocations"]
        op.inputs = row["inputs"]
        op.outputs = row["outputs"]
        op.counts = _counts_from(row["counts"])
    for row in payload["edges"]:
        edge = _edge_from_key(row["edge"])
        if edge not in stats.edge_traffic:
            raise ArtifactError(f"unknown edge {edge!r} in measurement")
        traffic = stats.edge_traffic[edge]
        traffic.elements = row["elements"]
        traffic.bytes = row["bytes"]
        traffic.peak_element_bytes = row["peak_element_bytes"]
    stats.source_inputs = dict(payload["source_inputs"])
    return Measurement(graph=graph, stats=stats, duration=payload["duration"])


def _graph_profile_payload(
    p: GraphProfile, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    return {
        "graph": _graph_ref_payload(p.graph, graph_ref),
        "platform": p.platform.name,
        "duration": p.duration,
        "rate_factor": p.rate_factor,
        "operators": [
            {
                "name": op.name,
                "invocations": op.invocations,
                "inputs": op.inputs,
                "outputs": op.outputs,
                "counts": _counts_payload(op.counts),
                "seconds": op.seconds,
                "utilization": op.utilization,
            }
            for _, op in sorted(p.operators.items())
        ],
        "edges": [
            {
                "edge": _edge_key(ep.edge),
                "elements": ep.elements,
                "bytes": ep.bytes,
                "elements_per_sec": ep.elements_per_sec,
                "bytes_per_sec": ep.bytes_per_sec,
                "mean_element_bytes": ep.mean_element_bytes,
                "packets_per_element": ep.packets_per_element,
                "packets_per_sec": ep.packets_per_sec,
                "on_air_bytes_per_sec": ep.on_air_bytes_per_sec,
            }
            for _, ep in sorted(
                p.edges.items(), key=lambda kv: _edge_key(kv[0])
            )
        ],
    }


def _graph_profile_from(
    payload: Mapping[str, Any], graph: StreamGraph | None
) -> GraphProfile:
    graph = resolve_graph(payload["graph"], graph)
    platform = get_platform(payload["platform"])
    operators = {
        row["name"]: OperatorProfile(
            name=row["name"],
            invocations=row["invocations"],
            inputs=row["inputs"],
            outputs=row["outputs"],
            counts=_counts_from(row["counts"]),
            seconds=row["seconds"],
            utilization=row["utilization"],
        )
        for row in payload["operators"]
    }
    edges = {}
    for row in payload["edges"]:
        edge = _edge_from_key(row["edge"])
        edges[edge] = EdgeProfile(
            edge=edge,
            elements=row["elements"],
            bytes=row["bytes"],
            elements_per_sec=row["elements_per_sec"],
            bytes_per_sec=row["bytes_per_sec"],
            mean_element_bytes=row["mean_element_bytes"],
            packets_per_element=row["packets_per_element"],
            packets_per_sec=row["packets_per_sec"],
            on_air_bytes_per_sec=row["on_air_bytes_per_sec"],
        )
    return GraphProfile(
        graph=graph,
        platform=platform,
        duration=payload["duration"],
        operators=operators,
        edges=edges,
        rate_factor=payload["rate_factor"],
    )


def _partition_payload(
    p: Partition,
    graph_ref: Mapping[str, Any] | None,
    solution: Solution | None,
) -> dict[str, Any]:
    return {
        "graph": _graph_ref_payload(p.graph, graph_ref),
        "node_set": sorted(p.node_set),
        "cpu_utilization": p.cpu_utilization,
        "network_bytes_per_sec": p.network_bytes_per_sec,
        "objective_value": p.objective_value,
        "feasible": p.feasible,
        "notes": {k: p.notes[k] for k in sorted(p.notes)},
        "solution": (
            _solution_payload(solution) if solution is not None else None
        ),
    }


def _partition_from(
    payload: Mapping[str, Any], graph: StreamGraph | None
) -> Partition:
    graph = resolve_graph(payload["graph"], graph)
    solution = payload["solution"]
    return Partition(
        graph=graph,
        node_set=frozenset(payload["node_set"]),
        cpu_utilization=payload["cpu_utilization"],
        network_bytes_per_sec=payload["network_bytes_per_sec"],
        objective_value=payload["objective_value"],
        feasible=payload["feasible"],
        solver_solution=(
            _solution_from(solution) if solution is not None else None
        ),
        notes=dict(payload["notes"]),
    )


def _partition_result_payload(
    r: PartitionResult, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    # The answer's solution is written once, in its partition's slot;
    # decoding hands the one Solution to both attributes again.
    return {
        "partition": _partition_payload(r.partition, graph_ref, r.solution),
        "vertices": r.vertices,
        "reduced_vertices": r.reduced_vertices,
        "build_seconds": r.build_seconds,
        "solve_seconds": r.solve_seconds,
    }


def _partition_result_from(
    payload: Mapping[str, Any], graph: StreamGraph | None
) -> PartitionResult:
    partition = _partition_from(payload["partition"], graph)
    if partition.solver_solution is None:
        raise ArtifactError("partition result carries no solution")
    return PartitionResult(
        partition=partition,
        solution=partition.solver_solution,
        vertices=payload["vertices"],
        reduced_vertices=payload["reduced_vertices"],
        build_seconds=payload["build_seconds"],
        solve_seconds=payload["solve_seconds"],
    )


def _rate_search_payload(
    r: RateSearchResult, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    return {
        "rate_factor": r.rate_factor,
        "result": (
            _partition_result_payload(r.result, graph_ref)
            if r.result is not None
            else None
        ),
        "probes": r.probes,
        "feasible_at_full_rate": r.feasible_at_full_rate,
    }


def _rate_search_from(
    payload: Mapping[str, Any], graph: StreamGraph | None
) -> RateSearchResult:
    result = payload["result"]
    return RateSearchResult(
        rate_factor=payload["rate_factor"],
        result=(
            _partition_result_from(result, graph)
            if result is not None
            else None
        ),
        probes=payload["probes"],
        feasible_at_full_rate=payload["feasible_at_full_rate"],
    )


_BUILDERS: dict[str, tuple[type, Callable, Callable]] = {
    "measurement": (Measurement, _measurement_payload, _measurement_from),
    "graph_profile": (
        GraphProfile, _graph_profile_payload, _graph_profile_from
    ),
    "partition": (
        Partition,
        lambda p, ref: _partition_payload(p, ref, p.solver_solution),
        _partition_from,
    ),
    "partition_result": (
        PartitionResult, _partition_result_payload, _partition_result_from
    ),
    "rate_search_result": (
        RateSearchResult, _rate_search_payload, _rate_search_from
    ),
}


def artifact_kind(obj: Any) -> str:
    """The wire-format kind tag for a supported artifact object."""
    for kind, (cls, _, _) in _BUILDERS.items():
        if isinstance(obj, cls):
            return kind
    raise ArtifactError(f"unsupported artifact type: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def to_document(
    obj: Any, graph_ref: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The JSON-ready document for a supported artifact."""
    kind = artifact_kind(obj)
    return {
        "schema": _SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": _BUILDERS[kind][1](obj, graph_ref),
    }


def is_current(document: Mapping[str, Any]) -> bool:
    """Whether ``document`` is of this build's schema and version."""
    return (
        document.get("schema") == _SCHEMA_NAME
        and document.get("schema_version") == SCHEMA_VERSION
    )


def from_document(
    document: Mapping[str, Any],
    _unused: Any = None,
    graph: StreamGraph | None = None,
) -> Any:
    """Reconstruct an artifact from its document.

    The ignored second parameter is kept only for the benchmark
    harness (``e2ebench/run.py``), which still passes one positionally;
    every other caller passes ``graph=`` by keyword.
    """
    if document.get("schema") != _SCHEMA_NAME:
        raise ArtifactError(
            f"not a {_SCHEMA_NAME} document (schema="
            f"{document.get('schema')!r})"
        )
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    kind = document.get("kind")
    if kind not in _BUILDERS:
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    return _BUILDERS[kind][2](document["payload"], graph)


def to_json(obj: Any, graph_ref: Mapping[str, Any] | None = None) -> str:
    """Serialize an artifact to a standalone JSON string."""
    return json.dumps(to_document(obj, graph_ref), sort_keys=True)


def from_json(text: str, graph: StreamGraph | None = None) -> Any:
    """Reconstruct an artifact from a :func:`to_json` string."""
    return from_document(json.loads(text), graph=graph)


def write_document(path, document: dict[str, Any], indent=None, encoded=None):
    """Write a document to disk as one JSON file (the on-disk convention).

    The file appears via write-then-rename from a writer-unique temp
    name (pid, thread, counter), so a reader never observes a
    half-written body and two writers racing on the same path cannot
    interleave: whichever rename lands last wins whole
    (``tests/workbench/test_store_concurrent.py`` pins this).  Shared
    by :func:`save_artifact`, the profile store and the result cache.

    ``encoded`` is ``encode_message(document)`` when the caller already
    has it (a server worker about to reply with it); those bytes are
    written as they are, so nothing is serialized twice, and ``indent``
    does not apply.
    """
    from . import faults

    # Chaos-only hook: a scheduled ``store.write`` fault raises (or
    # delays) here, before any byte lands — exercising every caller's
    # failed-durable-write path.  No-op without an installed plan.
    faults.maybe_raise("store.write")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if encoded is None:
        encoded = json.dumps(document, sort_keys=True, indent=indent).encode()
    # (pid, thread id, global counter): unique per in-flight write even
    # when two threads of one process race on the same key.
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident():x}."
        f"{next(_WRITE_COUNTER)}"
    )
    tmp.write_bytes(encoded)
    tmp.replace(path)


def read_document(path) -> tuple[dict[str, Any], dict]:
    """Read a document written by :func:`write_document`.

    Returns ``(document, {})``: the empty second member is kept only
    for the benchmark harness (``e2ebench/``), which still unpacks a
    pair.  Raises ``OSError`` (an unreadable file) or ``ValueError``
    (bad JSON, or JSON that is not an object); callers choose whether
    that is fatal (:func:`load_artifact`) or a cache miss (the profile
    store and result cache).
    """
    path = Path(path)
    document = json.loads(path.read_text())
    if not isinstance(document, dict):
        raise ValueError(
            f"{path} holds {type(document).__name__}, not a document"
        )
    return document, {}


def save_artifact(
    obj: Any,
    path,
    graph_ref: Mapping[str, Any] | None = None,
) -> None:
    """Write ``<path>`` as one JSON file."""
    write_document(path, to_document(obj, graph_ref), indent=1)


def load_artifact(path, graph: StreamGraph | None = None) -> Any:
    """Read an artifact written by :func:`save_artifact`.

    Any corruption — an unreadable file, truncated JSON, JSON that is
    not an object — raises :class:`ArtifactError`.
    """
    try:
        document, _ = read_document(path)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    return from_document(document, graph=graph)


# ---------------------------------------------------------------------------
# Canonical (wall-clock-free) form
# ---------------------------------------------------------------------------

#: Payload keys that record elapsed wall-clock time.  Everything else in
#: an artifact is a deterministic function of the solve (HiGHS and the
#: branch-and-bound search are deterministic), so zeroing these yields a
#: form two equivalent runs can compare byte for byte.
_WALL_CLOCK_KEYS = frozenset(
    {"build_seconds", "solve_seconds", "discover_elapsed", "prove_elapsed"}
)


def canonical_document(document: Mapping[str, Any]) -> dict[str, Any]:
    """A deep copy of a document with wall-clock fields zeroed.

    Incumbent events keep their objective and node count but lose their
    elapsed stamps.  Used by the served-vs-in-process equivalence tests
    and the CLI's ``--canonical`` artifact output.
    """

    def scrub(node: Any) -> Any:
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if key in _WALL_CLOCK_KEYS and isinstance(
                    value, (int, float)
                ):
                    out[key] = 0.0
                elif key == "incumbents" and isinstance(value, list):
                    out[key] = [
                        [0.0, *row[1:]]
                        if isinstance(row, list) and row
                        else row
                        for row in value
                    ]
                else:
                    out[key] = scrub(value)
            return out
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return scrub(dict(document))


def canonical_json(
    obj: Any, graph_ref: Mapping[str, Any] | None = None
) -> str:
    """:func:`to_json` with wall-clock fields zeroed.

    Two runs that made the same decisions produce identical strings; two
    runs that differ anywhere but timing do not.
    """
    return json.dumps(
        canonical_document(to_document(obj, graph_ref)), sort_keys=True
    )
