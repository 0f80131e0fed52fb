"""Hypothesis fuzzing of the artifact wire format.

Two properties pin the serving surface down:

* every representable ``Measurement`` / ``Partition`` /
  ``RateSearchResult`` — ragged rows, NaN/inf rates, empty graphs, the
  lot — survives ``to_json``/``from_json`` *bit-exact* (the re-serialized
  string is identical); and
* a truncated, bit-flipped, or swapped ``.npz`` sidecar raises the
  typed :class:`ArtifactError` (never unpickles garbage — sidecars load
  with ``allow_pickle=False``, and their bytes must hash to the digest
  in their name), and a store read of one is a miss.

Flipped zip flag bits get explicit cases across all three sidecar
readers (wire, ``load_artifact``, store).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cut import Partition
from repro.core.partitioner import PartitionResult
from repro.core.problem import PartitionProblem, WeightedEdge
from repro.core.rate_search import RateSearchResult
from repro.dataflow.builder import GraphBuilder
from repro.dataflow.execute import ExecutionStats
from repro.dataflow.graph import Pinning, StreamGraph, WorkCounts
from repro.profiler import Profiler
from repro.profiler.profiler import Measurement
from repro.solver.solution import IncumbentEvent, Solution, SolveStatus
from repro.runtime.frames import FrameError, pack_arrays, unpack_arrays
from repro.workbench.artifacts import (
    ArtifactError,
    from_json,
    load_artifact,
    save_artifact,
    to_json,
)
from repro.workbench.cache import ResultCache
from repro.workbench.store import read_entry

# ---------------------------------------------------------------------------
# A small deterministic graph family (work functions are never invoked
# by serialization, so placeholders suffice).
# ---------------------------------------------------------------------------


def _noop(ctx, port, item):  # pragma: no cover - never called
    ctx.emit(item)


def chain_graph(n_ops: int) -> StreamGraph:
    builder = GraphBuilder(f"fuzz-{n_ops}")
    with builder.node():
        stream = builder.source("src", output_size=8)
        for index in range(n_ops):
            stream = builder.iterate(f"op{index}", stream, _noop)
    builder.sink("out", stream)
    return builder.build()


GRAPHS = {n: chain_graph(n) for n in (0, 1, 3)}
EMPTY_GRAPH = StreamGraph("empty")

anyfloat = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e12,
    max_value=1e12,
)
small_int = st.integers(min_value=0, max_value=2**31 - 1)


def counts_strategy():
    return st.builds(
        WorkCounts,
        int_ops=finite,
        float_ops=finite,
        trans_ops=finite,
        mem_ops=finite,
        invocations=finite,
        loop_iterations=finite,
    )


def float_array(max_size: int = 8):
    return st.lists(anyfloat, min_size=0, max_size=max_size).map(
        lambda values: np.asarray(values, dtype=np.float64)
    )


def int_array(max_size: int = 8):
    return st.lists(
        st.integers(min_value=-3, max_value=3), min_size=0, max_size=max_size
    ).map(lambda values: np.asarray(values, dtype=np.int32))


@st.composite
def solutions(draw):
    names = [f"v{i}" for i in range(draw(st.integers(0, 5)))]
    return Solution(
        status=draw(st.sampled_from(list(SolveStatus))),
        objective=draw(st.one_of(st.none(), anyfloat)),
        bound=draw(st.one_of(st.none(), anyfloat)),
        x=draw(st.one_of(st.none(), float_array(len(names) or 1))),
        names=names,
        incumbents=[
            IncumbentEvent(
                elapsed=draw(finite),
                objective=draw(anyfloat),
                node_count=draw(small_int),
            )
            for _ in range(draw(st.integers(0, 3)))
        ],
        discover_elapsed=draw(st.one_of(st.none(), finite)),
        prove_elapsed=draw(st.one_of(st.none(), finite)),
        nodes_explored=draw(small_int),
        iterations=draw(small_int),
        reduced_costs=draw(st.one_of(st.none(), float_array())),
        basis=draw(st.one_of(st.none(), int_array())),
    )


@st.composite
def measurements(draw):
    graph = draw(st.sampled_from([*GRAPHS.values(), EMPTY_GRAPH]))
    stats = ExecutionStats(graph)
    for op_stats in stats.operators.values():
        op_stats.invocations = draw(small_int)
        op_stats.inputs = draw(small_int)
        op_stats.outputs = draw(small_int)
        op_stats.counts = draw(counts_strategy())
    for traffic in stats.edge_traffic.values():
        traffic.elements = draw(small_int)
        traffic.bytes = draw(small_int)
        traffic.peak_element_bytes = draw(small_int)
    for name in stats.source_inputs:
        stats.source_inputs[name] = draw(small_int)
    return Measurement(graph=graph, stats=stats, duration=draw(anyfloat))


@st.composite
def partitions(draw):
    graph = draw(st.sampled_from([*GRAPHS.values(), EMPTY_GRAPH]))
    names = sorted(graph.operators)
    node_set = frozenset(name for name in names if draw(st.booleans()))
    return Partition(
        graph=graph,
        node_set=node_set,
        cpu_utilization=draw(anyfloat),
        network_bytes_per_sec=draw(anyfloat),
        objective_value=draw(anyfloat),
        feasible=draw(st.booleans()),
        solver_solution=draw(st.one_of(st.none(), solutions())),
        notes={
            draw(st.sampled_from(["a", "b", "c"])): draw(finite)
            for _ in range(draw(st.integers(0, 2)))
        },
    )


#: Costs a PartitionProblem accepts: non-negative (NaN is rejected-ish
#: by comparison semantics but inf is legal and interesting).
nonneg = st.floats(
    allow_nan=False, allow_infinity=True, width=64, min_value=0.0
)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        WeightedEdge(
            src=draw(st.sampled_from(vertices)),
            dst=draw(st.sampled_from(vertices)),
            bandwidth=draw(nonneg),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return PartitionProblem(
        vertices=vertices,
        cpu={v: draw(nonneg) for v in vertices},
        edges=edges,
        pins={
            v: draw(st.sampled_from(list(Pinning)))
            for v in vertices
            if draw(st.booleans())
        },
        cpu_budget=draw(anyfloat),
        net_budget=draw(anyfloat),
        alpha=draw(finite),
        beta=draw(finite),
    )


@st.composite
def rate_search_results(draw):
    if draw(st.booleans()):
        result = None
    else:
        partition = draw(partitions())
        result = PartitionResult(
            partition=partition,
            solution=draw(solutions()),
            problem=draw(problems()),
            reduced=None,
            pins={
                name: draw(st.sampled_from(list(Pinning)))
                for name in partition.graph.operators
            },
            build_seconds=draw(finite),
            solve_seconds=draw(finite),
        )
    return RateSearchResult(
        rate_factor=draw(anyfloat),
        result=result,
        probes=draw(st.integers(0, 200)),
        feasible_at_full_rate=draw(st.booleans()),
    )


def assert_bit_exact_roundtrip(obj, graph):
    text = to_json(obj)
    rebuilt = from_json(text, graph=graph)
    assert to_json(rebuilt) == text


@settings(max_examples=60, deadline=None)
@given(measurement=measurements())
def test_measurement_roundtrip_bit_exact(measurement):
    assert_bit_exact_roundtrip(measurement, measurement.graph)


@settings(max_examples=60, deadline=None)
@given(partition=partitions())
def test_partition_roundtrip_bit_exact(partition):
    assert_bit_exact_roundtrip(partition, partition.graph)


@settings(max_examples=40, deadline=None)
@given(outcome=rate_search_results())
def test_rate_search_roundtrip_bit_exact(outcome):
    graph = outcome.result.partition.graph if outcome.result else GRAPHS[1]
    assert_bit_exact_roundtrip(outcome, graph)


def test_ragged_sink_rows_roundtrip_bit_exact():
    """A profiled graph whose elements are ragged (variable-length rows)
    serializes and reloads exactly."""
    builder = GraphBuilder("ragged")
    with builder.node():
        src = builder.source("src", output_size=4)

        def widen(ctx, port, item):
            ctx.count(int_ops=1.0)
            ctx.emit(np.zeros(1 + (int(item[0]) % 5), dtype=np.float32))

        out = builder.iterate("widen", src, widen)
    builder.sink("out", out)
    graph = builder.build()
    data = [np.array([i], dtype=np.float32) for i in range(24)]
    measurement = Profiler().measure(
        graph, {"src": data}, {"src": 8.0}
    )
    assert_bit_exact_roundtrip(measurement, graph)


# ---------------------------------------------------------------------------
# Corrupted sidecars
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_artifact(tmp_path_factory):
    """One on-disk artifact with a real npz sidecar to corrupt."""
    graph = GRAPHS[3]
    partition = Partition(
        graph=graph,
        node_set=frozenset(["src", "op0"]),
        cpu_utilization=0.25,
        network_bytes_per_sec=800.0,
        objective_value=800.0,
        feasible=True,
        solver_solution=Solution(
            status=SolveStatus.OPTIMAL,
            objective=800.0,
            x=np.linspace(0.0, 1.0, 64),
            names=[f"v{i}" for i in range(64)],
            reduced_costs=np.arange(64, dtype=np.float64),
            basis=np.arange(64, dtype=np.int32),
        ),
    )
    root = tmp_path_factory.mktemp("artifact")
    path = root / "partition.json"
    save_artifact(partition, path)
    sidecar = path.with_name(json.loads(path.read_text())["npz"])
    assert sidecar.exists()
    return path, sidecar, sidecar.read_bytes(), to_json(partition)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupt_npz_sidecar_raises_typed_error(saved_artifact, data):
    path, sidecar, pristine, original_json = saved_artifact
    mode = data.draw(st.sampled_from(["truncate", "flip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(0, len(pristine) - 1))
        corrupted = pristine[:cut]
    else:
        index = data.draw(st.integers(0, len(pristine) - 1))
        bit = data.draw(st.integers(0, 7))
        corrupted = bytearray(pristine)
        corrupted[index] ^= 1 << bit
        corrupted = bytes(corrupted)
    sidecar.write_bytes(corrupted)
    try:
        try:
            loaded = load_artifact(path)
        except ArtifactError:
            return  # the typed error — what corruption should produce
        # The only acceptable alternative: the flip landed in bytes the
        # zip format does not interpret, leaving the artifact intact.
        assert to_json(loaded) == original_json
    finally:
        sidecar.write_bytes(pristine)


def test_missing_sidecar_raises_typed_error(saved_artifact):
    path, sidecar, pristine, _ = saved_artifact
    sidecar.unlink()
    try:
        with pytest.raises(ArtifactError):
            load_artifact(path)
    finally:
        sidecar.write_bytes(pristine)


def test_truncated_json_raises_typed_error(saved_artifact, tmp_path):
    path, _, _, _ = saved_artifact
    text = path.read_text()
    clone = tmp_path / "partition.json"
    clone.write_text(text[: len(text) // 2])
    with pytest.raises(ArtifactError):
        load_artifact(clone)


def test_non_object_json_raises_typed_error(tmp_path):
    clone = tmp_path / "partition.json"
    clone.write_text("[1, 2]")
    with pytest.raises(ArtifactError, match="not a document"):
        load_artifact(clone)
    assert read_entry(clone) is None


def _flip_central_directory_flag(blob: bytes, bit: int) -> bytes:
    """Flip one general-purpose flag bit in every zip central-directory
    header (the flags sit 8 bytes into each ``PK\\x01\\x02`` record)."""
    corrupted = bytearray(blob)
    start = corrupted.find(b"PK\x01\x02")
    assert start >= 0
    while start >= 0:
        corrupted[start + 8] ^= 1 << bit
        start = corrupted.find(b"PK\x01\x02", start + 4)
    return bytes(corrupted)


@pytest.mark.parametrize("bit", [0, 5, 6])
def test_zip_flag_bits_raise_typed_errors_everywhere(
    saved_artifact, tmp_path, bit
):
    """Flag bit 0 ("encrypted") makes zipfile raise RuntimeError; bits 5
    and 6 ("compressed patched data", "strong encryption") raise
    NotImplementedError.  All three sidecar readers map them to their
    typed outcome: the wire a FrameError, ``load_artifact`` an
    ArtifactError, a store read a miss."""
    path, sidecar, pristine, _ = saved_artifact
    corrupted = _flip_central_directory_flag(pristine, bit)
    with pytest.raises(FrameError, match="corrupt array sidecar"):
        unpack_arrays(corrupted)

    clone = tmp_path / path.name
    clone.write_text(path.read_text())
    (tmp_path / sidecar.name).write_bytes(corrupted)
    with pytest.raises(ArtifactError):
        load_artifact(clone)
    assert read_entry(clone) is None


def _swap_arrays(blob: bytes) -> bytes:
    """A well-formed npz holding the same keys with other values."""
    arrays = unpack_arrays(blob)
    return pack_arrays({k: np.asarray(v) * 100 for k, v in arrays.items()})


def _flip_middle_byte(blob: bytes) -> bytes:
    corrupted = bytearray(blob)
    corrupted[len(corrupted) // 2] ^= 0xFF
    return bytes(corrupted)


@pytest.mark.parametrize("corrupt", [_swap_arrays, _flip_middle_byte])
def test_sidecar_digest_mismatch_is_typed_error_and_miss(
    saved_artifact, tmp_path, corrupt
):
    """A sidecar whose bytes do not hash to the digest in its name is
    refused even when it decodes as a valid npz: ``load_artifact``
    raises ArtifactError, and a cache or store read counts a miss
    instead of serving the other arrays."""
    path, sidecar, pristine, _ = saved_artifact
    clone = tmp_path / path.name
    clone.write_text(path.read_text())
    (tmp_path / sidecar.name).write_bytes(corrupt(pristine))
    with pytest.raises(ArtifactError, match="digest"):
        load_artifact(clone)
    assert read_entry(clone) is None

    cache_dir = tmp_path / "cache"
    ResultCache(cache_dir).store_document(
        "k", {"kind": "bench"}, {"x": np.arange(4.0)}
    )
    entry = cache_dir / "result-k.json"
    npz = cache_dir / json.loads(entry.read_text())["npz"]
    npz.write_bytes(corrupt(npz.read_bytes()))
    fresh = ResultCache(cache_dir)
    assert fresh.lookup("k") is None
    assert fresh.stats.misses == 1
