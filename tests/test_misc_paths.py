"""Coverage for less-travelled code paths across modules."""

import pytest

from repro.core import Partition, brute_force_partition
from repro.core.heuristics import HeuristicResult
from repro.core.problem import PartitionProblem, WeightedEdge
from repro.dataflow import ExecutionPlan, GraphBuilder, Pinning, run_graph
from repro.solver import LinearProgram, SolveStatus, solve_lp_scipy


def test_simplex_redundant_equality_rows():
    """Duplicate (linearly dependent) equality rows still solve to the
    unique optimum."""
    lp = LinearProgram()
    x = lp.add_variable("x", objective=1.0)
    y = lp.add_variable("y", objective=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)  # redundant copy
    lp.add_constraint({x: 1.0, y: -1.0}, "=", 0.0)
    solution = solve_lp_scipy(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.values["x"] == pytest.approx(2.0)
    assert solution.values["y"] == pytest.approx(2.0)


def test_run_graph_sequential_mode():
    order = []
    builder = GraphBuilder()
    with builder.node():
        a = builder.source("a")
        b = builder.source("b")
        fa = builder.fmap("fa", a, lambda x: order.append("a") or x)
        fb = builder.fmap("fb", b, lambda x: order.append("b") or x)
    builder.sink("oa", fa)
    builder.sink("ob", fb)
    graph = builder.build()
    run_graph(graph, {"a": [1, 2], "b": [3, 4]}, ExecutionPlan(interleave=False))
    assert order == ["a", "a", "b", "b"]


def test_execution_stats_output_bytes():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src", output_size=10)
        left = builder.fmap("l", stream, lambda x: x)
        right = builder.fmap("r", stream, lambda x: x)
    builder.sink("ol", left)
    builder.sink("or", right)
    graph = builder.build()
    executor = run_graph(graph, {"src": [0, 1, 2]})
    # Fan-out to two edges: output_bytes reports one stream copy.
    assert executor.stats.output_bytes("src") == 30


def test_partition_from_node_set_budget_flags():
    problem_graph = _tiny_profile()
    feasible = Partition.from_node_set(
        problem_graph, {"src"}, alpha=0.0, beta=1.0,
        cpu_budget=1.0, net_budget=1e9,
    )
    assert feasible.feasible
    over_cpu = Partition.from_node_set(
        problem_graph, {"src", "work"}, alpha=0.0, beta=1.0,
        cpu_budget=1e-9, net_budget=1e9,
    )
    assert not over_cpu.feasible
    over_net = Partition.from_node_set(
        problem_graph, {"src"}, alpha=0.0, beta=1.0,
        cpu_budget=1.0, net_budget=0.0,
    )
    assert not over_net.feasible


def test_partition_accessors():
    profile = _tiny_profile()
    partition = Partition.from_node_set(
        profile, {"src", "work"}, alpha=0.0, beta=1.0
    )
    assert partition.is_node("work")
    assert not partition.is_node("sink")
    assert partition.server_set == frozenset({"sink"})
    cut = partition.cut_edges()
    assert len(cut) == 1 and cut[0].dst == "sink"
    assert partition.crossings() == 1


def test_heuristic_result_evaluate():
    problem = PartitionProblem(
        vertices=["s", "a", "t"],
        cpu={"s": 0.0, "a": 0.5, "t": 0.0},
        edges=[WeightedEdge("s", "a", 10.0), WeightedEdge("a", "t", 5.0)],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=1.0,
        net_budget=100.0,
    )
    result = HeuristicResult.evaluate("test", problem, {"s", "a"})
    assert result.cpu == pytest.approx(0.5)
    assert result.net == pytest.approx(5.0)
    assert result.feasible
    assert result.single_crossing
    brute = brute_force_partition(problem)
    assert result.objective >= brute.objective - 1e-9


def test_workcounts_repr_roundtrip_fields():
    from repro.dataflow import WorkCounts

    counts = WorkCounts()
    counts.add(int_ops=1, float_ops=2, trans_ops=3, mem_ops=4,
               invocations=5, loop_iterations=6)
    assert counts.total == 21
    assert counts.scaled(2.0).total == 42


def test_stream_and_graph_reprs():
    builder = GraphBuilder("reprtest")
    with builder.node():
        stream = builder.source("src")
    assert "src" in repr(stream)
    mapped = builder.fmap("f", stream, lambda x: x)
    builder.sink("out", mapped)
    graph = builder.build()
    assert "reprtest" in repr(graph)
    assert "source" in repr(graph.operators["src"])


_PROFILE = None


def _tiny_profile():
    global _PROFILE
    if _PROFILE is None:
        from repro.platforms import get_platform
        from repro.profiler import Profiler

        builder = GraphBuilder("tiny")
        with builder.node():
            stream = builder.source("src", output_size=100)

            def work(ctx, port, item):
                ctx.count(float_ops=10.0)
                ctx.emit(item)

            out = builder.iterate("work", stream, work)
        builder.sink("sink", out)
        graph = builder.build()
        _PROFILE = Profiler().profile(
            graph, {"src": [1.0] * 10}, {"src": 5.0},
            get_platform("tmote"),
        )
    return _PROFILE
