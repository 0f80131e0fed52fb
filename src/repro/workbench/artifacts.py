"""Serializable artifacts: versioned JSON (+ npz sidecar) round-trips.

Everything the profile-once / re-partition-many workflow produces can be
written to disk and reconstructed exactly:

* :class:`~repro.profiler.profiler.Measurement` — the platform-independent
  profiling record (the expensive thing to recompute);
* :class:`~repro.profiler.records.GraphProfile` — a platform costing;
* :class:`~repro.core.cut.Partition` and
  :class:`~repro.core.partitioner.PartitionResult` — solver outcomes;
* :class:`~repro.core.rate_search.RateSearchResult` — §4.3 searches.

Numbers round-trip bit-exactly: scalars ride through JSON via Python's
shortest-repr floats, numpy arrays through an ``.npz`` sidecar on disk
(or base64 inline for the string form).  Work functions are code, not
data — graphs are therefore stored *by reference*: a structural
fingerprint plus, when known, the ``(scenario, params)`` pair that
rebuilds the graph through the registry.  Loading verifies the
fingerprint, so a stale scenario or mismatched graph fails loudly
instead of silently decoding against the wrong topology.

The wire format is versioned (:data:`SCHEMA_VERSION`); a document with a
different version raises :class:`ArtifactError` rather than guessing.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
from typing import Any, Callable, Mapping

import numpy as np

from ..core.cut import Partition
from ..core.partitioner import PartitionResult
from ..core.preprocess import ReducedProblem
from ..core.problem import PartitionProblem, WeightedEdge
from ..core.rate_search import RateSearchResult
from ..dataflow.execute import ExecutionStats
from ..dataflow.graph import Edge, Pinning, StreamGraph, WorkCounts
from ..platforms import get_platform
from ..profiler.profiler import Measurement
from ..profiler.records import EdgeProfile, GraphProfile, OperatorProfile
from ..runtime.frames import SidecarError, pack_arrays, unpack_arrays
from ..solver.solution import IncumbentEvent, Solution, SolveStatus
from .scenarios import get_scenario

#: Version of the artifact wire format.  Bump on breaking changes.
#: Version 2 dropped the per-bucket peak fields of measurements and
#: graph profiles.
SCHEMA_VERSION = 2

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
# Array vault: ndarrays referenced out of the JSON body
# ---------------------------------------------------------------------------


class _Vault:
    """Collects ndarrays keyed ``a0, a1, ...`` during payload building."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def put(self, array: np.ndarray | None) -> dict[str, str] | None:
        if array is None:
            return None
        key = f"a{len(self.arrays)}"
        # Copy: a cached/stored document must never alias the live
        # object's buffers (in-place mutation would corrupt the store).
        self.arrays[key] = np.array(array)
        return {"__array__": key}

    @staticmethod
    def get(
        token: Mapping[str, str] | None, arrays: Mapping[str, np.ndarray]
    ) -> np.ndarray | None:
        if token is None:
            return None
        key = token["__array__"]
        try:
            # Copy: loaded artifacts must never alias the cached sidecar.
            return np.array(arrays[key])
        except KeyError:
            raise ArtifactError(f"missing array {key!r} in sidecar") from None


def _array_to_inline(array: np.ndarray) -> dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _array_from_inline(spec: Mapping[str, Any]) -> np.ndarray:
    raw = base64.b64decode(spec["data"])
    return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
        spec["shape"]
    ).copy()


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


def _pins_payload(pins: Mapping[str, Pinning]) -> dict[str, str]:
    return {name: pin.value for name, pin in sorted(pins.items())}


#: ``Pinning(value)`` walks the enum machinery on every call; a decoded
#: EEG answer holds hundreds of pins.
_PINNINGS = {pin.value: pin for pin in Pinning}


def _pins_from(payload: Mapping[str, str]) -> dict[str, Pinning]:
    return {name: _PINNINGS[value] for name, value in payload.items()}


def _solution_payload(solution: Solution, vault: _Vault) -> dict[str, Any]:
    return {
        "status": solution.status.value,
        "objective": solution.objective,
        "bound": solution.bound,
        "x": vault.put(solution.x),
        "names": solution.names,
        "incumbents": [
            [e.elapsed, e.objective, e.node_count]
            for e in solution.incumbents
        ],
        "discover_elapsed": solution.discover_elapsed,
        "prove_elapsed": solution.prove_elapsed,
        "nodes_explored": solution.nodes_explored,
        "iterations": solution.iterations,
        "reduced_costs": vault.put(solution.reduced_costs),
        "basis": vault.put(solution.basis),
    }


def _solution_from(
    payload: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> Solution:
    return Solution(
        status=SolveStatus(payload["status"]),
        objective=payload["objective"],
        bound=payload["bound"],
        x=_Vault.get(payload["x"], arrays),
        names=payload["names"],
        incumbents=[
            IncumbentEvent(elapsed=e, objective=o, node_count=n)
            for e, o, n in payload["incumbents"]
        ],
        discover_elapsed=payload["discover_elapsed"],
        prove_elapsed=payload["prove_elapsed"],
        nodes_explored=payload["nodes_explored"],
        iterations=payload["iterations"],
        reduced_costs=_Vault.get(payload["reduced_costs"], arrays),
        basis=_Vault.get(payload["basis"], arrays),
    )


def _problem_payload(problem: PartitionProblem) -> dict[str, Any]:
    return {
        "vertices": list(problem.vertices),
        "cpu": {v: problem.cpu[v] for v in sorted(problem.cpu)},
        "edges": [[e.src, e.dst, e.bandwidth] for e in problem.edges],
        "pins": _pins_payload(problem.pins),
        "cpu_budget": problem.cpu_budget,
        "net_budget": problem.net_budget,
        "alpha": problem.alpha,
        "beta": problem.beta,
    }


def _problem_from(payload: Mapping[str, Any]) -> PartitionProblem:
    return PartitionProblem(
        vertices=list(payload["vertices"]),
        cpu=dict(payload["cpu"]),
        edges=[
            WeightedEdge(src, dst, bandwidth)
            for src, dst, bandwidth in payload["edges"]
        ],
        pins=_pins_from(payload["pins"]),
        cpu_budget=payload["cpu_budget"],
        net_budget=payload["net_budget"],
        alpha=payload["alpha"],
        beta=payload["beta"],
    )


def _reduced_payload(reduced: ReducedProblem) -> dict[str, Any]:
    return {
        "problem": _problem_payload(reduced.problem),
        "members": {
            cluster: list(members)
            for cluster, members in sorted(reduced.members.items())
        },
    }


def _reduced_from(payload: Mapping[str, Any]) -> ReducedProblem:
    members = {
        cluster: tuple(ms) for cluster, ms in payload["members"].items()
    }
    cluster_of = {
        name: cluster for cluster, ms in members.items() for name in ms
    }
    return ReducedProblem(
        problem=_problem_from(payload["problem"]),
        members=members,
        cluster_of=cluster_of,
    )


# ---------------------------------------------------------------------------
# Top-level artifact payloads
# ---------------------------------------------------------------------------


def _measurement_payload(
    m: Measurement, vault: _Vault, graph_ref: Mapping[str, Any] | None
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
    payload: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    graph: StreamGraph | None,
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
    p: GraphProfile, vault: _Vault, graph_ref: Mapping[str, Any] | None
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
    payload: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    graph: StreamGraph | None,
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
    p: Partition, vault: _Vault, graph_ref: Mapping[str, Any] | None
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
            _solution_payload(p.solver_solution, vault)
            if p.solver_solution is not None
            else None
        ),
    }


def _partition_from(
    payload: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    graph: StreamGraph | None,
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
            _solution_from(solution, arrays) if solution is not None else None
        ),
        notes=dict(payload["notes"]),
    )


def _partition_result_payload(
    r: PartitionResult, vault: _Vault, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    return {
        "partition": _partition_payload(r.partition, vault, graph_ref),
        "solution": _solution_payload(r.solution, vault),
        "problem": _problem_payload(r.problem),
        "reduced": (
            _reduced_payload(r.reduced) if r.reduced is not None else None
        ),
        "pins": _pins_payload(r.pins),
        "build_seconds": r.build_seconds,
        "solve_seconds": r.solve_seconds,
    }


def _partition_result_from(
    payload: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    graph: StreamGraph | None,
) -> PartitionResult:
    reduced = payload["reduced"]
    return PartitionResult(
        partition=_partition_from(payload["partition"], arrays, graph),
        solution=_solution_from(payload["solution"], arrays),
        problem=_problem_from(payload["problem"]),
        reduced=_reduced_from(reduced) if reduced is not None else None,
        pins=_pins_from(payload["pins"]),
        build_seconds=payload["build_seconds"],
        solve_seconds=payload["solve_seconds"],
    )


def _rate_search_payload(
    r: RateSearchResult, vault: _Vault, graph_ref: Mapping[str, Any] | None
) -> dict[str, Any]:
    return {
        "rate_factor": r.rate_factor,
        "result": (
            _partition_result_payload(r.result, vault, graph_ref)
            if r.result is not None
            else None
        ),
        "probes": r.probes,
        "feasible_at_full_rate": r.feasible_at_full_rate,
    }


def _rate_search_from(
    payload: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    graph: StreamGraph | None,
) -> RateSearchResult:
    result = payload["result"]
    return RateSearchResult(
        rate_factor=payload["rate_factor"],
        result=(
            _partition_result_from(result, arrays, graph)
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
    "partition": (Partition, _partition_payload, _partition_from),
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
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """(JSON-ready document, ndarray sidecar) for a supported artifact."""
    kind = artifact_kind(obj)
    vault = _Vault()
    payload = _BUILDERS[kind][1](obj, vault, graph_ref)
    return (
        {
            "schema": _SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "payload": payload,
        },
        vault.arrays,
    )


def from_document(
    document: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray] | None = None,
    graph: StreamGraph | None = None,
) -> Any:
    """Reconstruct an artifact from its document + array sidecar."""
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
    return _BUILDERS[kind][2](document["payload"], arrays or {}, graph)


def to_json(obj: Any, graph_ref: Mapping[str, Any] | None = None) -> str:
    """Serialize an artifact to a standalone JSON string.

    Arrays are inlined base64 so the string is self-contained; prefer
    :func:`save_artifact` (npz sidecar) for large artifacts on disk.
    """
    document, arrays = to_document(obj, graph_ref)
    if arrays:
        document["inline_arrays"] = {
            key: _array_to_inline(array) for key, array in arrays.items()
        }
    return json.dumps(document, sort_keys=True)


def from_json(text: str, graph: StreamGraph | None = None) -> Any:
    """Reconstruct an artifact from a :func:`to_json` string."""
    document = json.loads(text)
    arrays = {
        key: _array_from_inline(spec)
        for key, spec in document.get("inline_arrays", {}).items()
    }
    return from_document(document, arrays, graph)


def write_document(path, document: dict[str, Any], arrays, indent=None):
    """Write a document + npz sidecar to disk (the on-disk convention).

    The sidecar lands first and both files appear via write-then-rename,
    so a reader never observes a document without its arrays or a
    half-written JSON body.  The sidecar name is *content-addressed* (a
    hash of its bytes) and every temp file is writer-unique, so two
    processes racing on the same path cannot interleave: whichever JSON
    rename lands last references exactly the sidecar its writer produced,
    never a mix of the two (``tests/workbench/test_store_concurrent.py``
    pins this).  A loser's sidecar may linger as an orphan — covered by
    the store GC item on the ROADMAP.  Mutates ``document`` to record the
    sidecar name.  Shared by :func:`save_artifact` and the profile store.
    """
    import os
    import threading
    from pathlib import Path

    from . import faults

    # Chaos-only hook: a scheduled ``store.write`` fault raises (or
    # delays) here, before any byte lands — exercising every caller's
    # failed-durable-write path.  No-op without an installed plan.
    faults.maybe_raise("store.write")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # (pid, thread id, global counter): unique per in-flight write even
    # when two threads of one process race on the same key.
    token = (
        f"{os.getpid()}.{threading.get_ident():x}."
        f"{next(_WRITE_COUNTER)}"
    )
    if arrays:
        blob = pack_arrays(arrays)
        digest = hashlib.sha256(blob).hexdigest()[:16]
        npz_name = f"{path.name}.{digest}.npz"
        document["npz"] = npz_name
        npz_path = path.with_name(npz_name)
        npz_tmp = path.with_name(f"{npz_name}.tmp.{token}")
        npz_tmp.write_bytes(blob)
        npz_tmp.replace(npz_path)
    tmp = path.with_name(f"{path.name}.tmp.{token}")
    tmp.write_text(json.dumps(document, sort_keys=True, indent=indent))
    tmp.replace(path)


def read_document(path) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read a document + npz sidecar written by :func:`write_document`.

    Raises ``OSError`` (unreadable files), ``ValueError`` (bad JSON),
    or :class:`~repro.runtime.frames.SidecarError` (a sidecar that does
    not decode, or whose bytes do not hash to the digest in its name);
    callers choose whether that is fatal (:func:`load_artifact`) or a
    cache miss (the profile store and result cache).
    """
    from pathlib import Path

    path = Path(path)
    document = json.loads(path.read_text())
    if not isinstance(document, dict):
        raise ValueError(
            f"{path} holds {type(document).__name__}, not a document"
        )
    arrays: dict[str, np.ndarray] = {}
    npz_name = document.get("npz")
    if npz_name:
        blob = path.with_name(npz_name).read_bytes()
        # The name embeds sha256(bytes)[:16] (see write_document), so a
        # swapped or bit-flipped sidecar is caught even when it still
        # decodes as a well-formed npz.
        parts = str(npz_name).rsplit(".", 2)
        digest = hashlib.sha256(blob).hexdigest()[:16]
        if len(parts) != 3 or parts[1] != digest:
            raise SidecarError(
                f"sidecar {npz_name} does not match its content digest"
            )
        arrays = unpack_arrays(blob)
    return document, arrays


def save_artifact(
    obj: Any,
    path,
    graph_ref: Mapping[str, Any] | None = None,
) -> None:
    """Write ``<path>`` (JSON) and, when arrays exist, ``<path>.npz``."""
    document, arrays = to_document(obj, graph_ref)
    write_document(path, document, arrays, indent=1)


def load_artifact(path, graph: StreamGraph | None = None) -> Any:
    """Read an artifact written by :func:`save_artifact`.

    Any corruption — truncated JSON, a truncated or bit-flipped npz
    sidecar (the zip CRC catches payload damage), a missing sidecar —
    raises :class:`ArtifactError`; sidecars are loaded with
    ``allow_pickle=False`` so damaged bytes can never decode as pickled
    objects.
    """
    try:
        document, arrays = read_document(path)
    except (OSError, ValueError, SidecarError) as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    return from_document(document, arrays, graph)


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
    document, arrays = to_document(obj, graph_ref)
    document = canonical_document(document)
    if arrays:
        document["inline_arrays"] = {
            key: _array_to_inline(array) for key, array in arrays.items()
        }
    return json.dumps(document, sort_keys=True)
