"""Executor semantics: traversal order, stats, edge accounting, and the
typed ExecutionPlan every entry point consumes."""

import numpy as np
import pytest

from repro.dataflow import GraphBuilder, GraphError, run_graph
from repro.dataflow.execute import (
    ExecutionPlan,
    ExecutionPlanError,
    Executor,
)


def test_depth_first_traversal_order():
    """emit delivers downstream immediately (C backend semantics)."""
    trace = []
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")

        def make_work(tag):
            def work(ctx, port, item):
                trace.append(tag)
                ctx.emit(item)

            return work

        a = builder.iterate("a", stream, make_work("a"))
        b = builder.iterate("b", a, make_work("b"))
    sink = builder.sink("out", b)
    del sink
    graph = builder.build()
    executor = Executor(graph)
    executor.push("src", 1)
    executor.push("src", 2)
    assert trace == ["a", "b", "a", "b"]


def test_fanout_duplicates_elements_per_edge():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")
        left = builder.fmap("left", stream, lambda x: x)
        right = builder.fmap("right", stream, lambda x: x)
    builder.sink("out_l", left)
    builder.sink("out_r", right)
    graph = builder.build()
    executor = run_graph(graph, {"src": [1, 2, 3]})
    for edge in graph.edges:
        if edge.src == "src":
            assert executor.stats.edge_traffic[edge].elements == 3


def test_edge_bytes_use_declared_size():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src", output_size=400)
        mapped = builder.fmap("f", stream, lambda x: x)
    builder.sink("out", mapped)
    graph = builder.build()
    executor = run_graph(graph, {"src": [np.zeros(200, np.int16)]})
    src_edge = [e for e in graph.edges if e.src == "src"][0]
    assert executor.stats.edge_traffic[src_edge].bytes == 400


def test_edge_bytes_measured_when_not_declared():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")
        mapped = builder.fmap("f", stream, lambda x: x.astype(np.float32))
    builder.sink("out", mapped)
    graph = builder.build()
    executor = run_graph(graph, {"src": [np.zeros(10, np.int16)]})
    f_edge = [e for e in graph.edges if e.src == "f"][0]
    assert executor.stats.edge_traffic[f_edge].bytes == 40  # float32 x 10


def test_push_rejects_non_source():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")
        mapped = builder.fmap("f", stream, lambda x: x)
    builder.sink("out", mapped)
    graph = builder.build()
    executor = Executor(graph)
    with pytest.raises(GraphError, match="not a source"):
        executor.push("f", 1)


def test_run_graph_rejects_unknown_source():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")
    builder.sink("out", builder.fmap("f", stream, lambda x: x))
    graph = builder.build()
    with pytest.raises(GraphError, match="not source"):
        run_graph(graph, {"nope": [1]})


def test_round_robin_interleaves_sources():
    order = []
    builder = GraphBuilder()
    with builder.node():
        a = builder.source("a")
        b = builder.source("b")

        def tag(which):
            def work(ctx, port, item):
                order.append(which)
                ctx.emit(item)

            return work

        fa = builder.iterate("fa", a, tag("a"))
        fb = builder.iterate("fb", b, tag("b"))
    builder.sink("oa", fa)
    builder.sink("ob", fb)
    graph = builder.build()
    run_graph(graph, {"a": [1, 2], "b": [1, 2]})
    assert order == ["a", "b", "a", "b"]


def test_invocation_counts_and_outputs():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")

        def expand(ctx, port, item):
            ctx.emit(item)
            ctx.emit(item + 1)

        doubled = builder.iterate("expand", stream, expand)
    builder.sink("out", doubled)
    graph = builder.build()
    executor = run_graph(graph, {"src": [10, 20]})
    stats = executor.stats.operators["expand"]
    assert stats.invocations == 2
    assert stats.inputs == 2
    assert stats.outputs == 4
    assert executor.sink_values("out") == [10, 11, 20, 21]


def test_sink_values_requires_sink():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src")
        mapped = builder.fmap("f", stream, lambda x: x)
    builder.sink("out", mapped)
    graph = builder.build()
    executor = Executor(graph)
    with pytest.raises(GraphError, match="not a sink"):
        executor.sink_values("f")


# -- the ExecutionPlan ------------------------------------------------------


def _two_source_graph():
    builder = GraphBuilder("two")
    with builder.node():
        a = builder.source("a")
        c = builder.source("c")

        def forward(ctx, port, item):
            ctx.emit(item)

        z = builder.merge("z", [a, c], forward)
    builder.sink("out", z)
    return builder.build()


def test_plan_validates_fields():
    with pytest.raises(ExecutionPlanError, match="non-positive rate"):
        ExecutionPlan(rates={"a": 0.0})
    with pytest.raises(ExecutionPlanError, match="interleave=False"):
        ExecutionPlan(rates={"a": 1.0}, interleave=False)
    with pytest.raises(ExecutionPlanError, match="batch_size"):
        ExecutionPlan(batch_size=0)


def test_plan_resolve_sources_defaults_to_data_order():
    plan = ExecutionPlan()
    assert plan.resolve_sources({"c": [1], "a": [2]}) == ["c", "a"]


def test_plan_resolve_sources_typed_errors():
    graph = _two_source_graph()
    data = {"a": [1], "c": [2]}
    with pytest.raises(ExecutionPlanError, match="absent from the sample"):
        ExecutionPlan(sources=("a", "ghost")).resolve_sources(data)
    with pytest.raises(ExecutionPlanError, match="not sources of"):
        ExecutionPlan(sources=("z",)).resolve_sources({"z": [1]}, graph)
    with pytest.raises(ExecutionPlanError, match="rates missing"):
        ExecutionPlan(rates={"a": 1.0}).resolve_sources(data)
    # ExecutionPlanError is a GraphError subclass: old except clauses
    # keep working.
    assert issubclass(ExecutionPlanError, GraphError)


def test_plan_with_overrides_returns_new_frozen_copy():
    plan = ExecutionPlan(batch_size=2)
    bumped = plan.with_overrides(batch_size=4, batch=True)
    assert plan.batch_size == 2
    assert (bumped.batch_size, bumped.batch) == (4, True)
    with pytest.raises(AttributeError):
        plan.batch_size = 8
