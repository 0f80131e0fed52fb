"""Hypothesis fuzzing of the artifact wire format.

Two properties pin the serving surface down:

* every representable ``Measurement`` / ``Partition`` /
  ``RateSearchResult`` — ragged rows, NaN/inf rates, empty graphs, the
  lot — survives ``to_json``/``from_json`` *bit-exact* (the re-serialized
  string is identical); and
* a truncated or non-object JSON file raises the typed
  :class:`ArtifactError`, and a store read of one is a miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cut import Partition
from repro.core.partitioner import PartitionResult
from repro.core.rate_search import RateSearchResult
from repro.dataflow.builder import GraphBuilder
from repro.dataflow.execute import ExecutionStats
from repro.dataflow.graph import StreamGraph, WorkCounts
from repro.profiler import Profiler
from repro.profiler.profiler import Measurement
from repro.solver.solution import IncumbentEvent, Solution, SolveStatus
from repro.workbench.artifacts import (
    ArtifactError,
    from_json,
    load_artifact,
    save_artifact,
    to_json,
)
from repro.workbench.store import DocumentStore

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


@st.composite
def solutions(draw):
    return Solution(
        status=draw(st.sampled_from(list(SolveStatus))),
        objective=draw(st.one_of(st.none(), anyfloat)),
        bound=draw(st.one_of(st.none(), anyfloat)),
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
def partitions(draw, solution=st.one_of(st.none(), solutions())):
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
        solver_solution=draw(solution),
        notes={
            draw(st.sampled_from(["a", "b", "c"])): draw(finite)
            for _ in range(draw(st.integers(0, 2)))
        },
    )


@st.composite
def rate_search_results(draw):
    if draw(st.booleans()):
        result = None
    else:
        # An answer's partition carries the answer's one solution.
        partition = draw(partitions(solution=solutions()))
        vertices = draw(st.integers(0, 600))
        result = PartitionResult(
            partition=partition,
            solution=partition.solver_solution,
            vertices=vertices,
            reduced_vertices=draw(st.integers(0, vertices)),
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
# Corrupted files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_artifact(tmp_path_factory):
    """One on-disk artifact to corrupt."""
    partition = Partition(
        graph=GRAPHS[3],
        node_set=frozenset(["src", "op0"]),
        cpu_utilization=0.25,
        network_bytes_per_sec=800.0,
        objective_value=800.0,
        feasible=True,
        solver_solution=Solution(status=SolveStatus.OPTIMAL, objective=800.0),
    )
    path = tmp_path_factory.mktemp("artifact") / "partition.json"
    save_artifact(partition, path)
    return path


def test_truncated_json_raises_typed_error(saved_artifact, tmp_path):
    text = saved_artifact.read_text()
    clone = tmp_path / "partition.json"
    clone.write_text(text[: len(text) // 2])
    with pytest.raises(ArtifactError):
        load_artifact(clone)
    assert DocumentStore(tmp_path).read("partition") is None


def test_non_object_json_raises_typed_error(tmp_path):
    clone = tmp_path / "partition.json"
    clone.write_text("[1, 2]")
    with pytest.raises(ArtifactError, match="not a document"):
        load_artifact(clone)
    assert DocumentStore(tmp_path).read("partition") is None
