"""StreamGraph structure and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    GraphError,
    Namespace,
    Operator,
    StreamGraph,
    WorkCounts,
)


def make_op(name, **kwargs):
    return Operator(name=name, work=lambda ctx, port, item: ctx.emit(item),
                    **kwargs)


def chain_graph(n=3):
    graph = StreamGraph("chain")
    graph.add_operator(
        Operator(name="op0", is_source=True, side_effects=True,
                 namespace=Namespace.NODE)
    )
    for i in range(1, n):
        graph.add_operator(make_op(f"op{i}"))
        graph.add_edge(f"op{i-1}", f"op{i}")
    return graph


def test_duplicate_operator_rejected():
    graph = StreamGraph()
    graph.add_operator(make_op("a"))
    with pytest.raises(GraphError, match="duplicate"):
        graph.add_operator(make_op("a"))


def test_edge_to_unknown_operator_rejected():
    graph = StreamGraph()
    graph.add_operator(make_op("a"))
    with pytest.raises(GraphError, match="unknown"):
        graph.add_edge("a", "b")


def test_edge_into_source_rejected():
    graph = StreamGraph()
    graph.add_operator(make_op("a"))
    graph.add_operator(
        Operator(name="s", is_source=True, namespace=Namespace.NODE)
    )
    with pytest.raises(GraphError, match="source"):
        graph.add_edge("a", "s")


def test_duplicate_edge_rejected():
    graph = chain_graph(3)
    with pytest.raises(GraphError, match="duplicate"):
        graph.add_edge("op0", "op1")
    # Only ``(src, dst, dst_port)`` makes an edge a duplicate: the same
    # input port fed from another source, or another port, is new.
    graph.add_edge("op0", "op2")
    graph.add_edge("op0", "op1", dst_port=1)
    with pytest.raises(GraphError) as info:
        graph.add_edge("op0", "op2")
    assert str(info.value) == "duplicate edge: Edge(op0 -> op2:0)"


_NAMES = ("a", "b", "c", "d")
_edge_triples = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=40,
)


@given(triples=_edge_triples)
@settings(max_examples=200, deadline=None)
def test_add_edge_rejects_exactly_the_duplicates(triples):
    """``add_edge`` raises iff a set oracle already holds the triple;
    everything else (self-loops, fan-in to one port from several
    sources) is accepted, and the adjacency lists agree with the
    global edge list."""
    graph = StreamGraph()
    for name in _NAMES:
        graph.add_operator(make_op(name))
    seen: set[tuple[str, str, int]] = set()
    accepted: list[tuple[str, str, int]] = []
    for src, dst, port in triples:
        if (src, dst, port) in seen:
            with pytest.raises(GraphError) as info:
                graph.add_edge(src, dst, dst_port=port)
            message = f"duplicate edge: Edge({src} -> {dst}:{port})"
            assert str(info.value) == message
        else:
            edge = graph.add_edge(src, dst, dst_port=port)
            assert (edge.src, edge.dst, edge.dst_port) == (src, dst, port)
            seen.add((src, dst, port))
            accepted.append((src, dst, port))
    assert [(e.src, e.dst, e.dst_port) for e in graph.edges] == accepted
    for name in _NAMES:
        assert graph.out_edges(name) == [
            e for e in graph.edges if e.src == name
        ]
        assert graph.in_edges(name) == [
            e for e in graph.edges if e.dst == name
        ]


def test_topological_order_on_chain():
    graph = chain_graph(4)
    assert graph.topological_order() == ["op0", "op1", "op2", "op3"]


def test_cycle_detected():
    graph = chain_graph(3)
    graph.add_edge("op2", "op1")
    with pytest.raises(GraphError, match="cycle"):
        graph.topological_order()


def test_ancestors_descendants():
    graph = chain_graph(4)
    assert graph.ancestors("op2") == {"op0", "op1"}
    assert graph.descendants("op1") == {"op2", "op3"}
    assert graph.ancestors("op0") == set()
    assert graph.descendants("op3") == set()


def test_diamond_ancestors():
    graph = StreamGraph()
    graph.add_operator(
        Operator(name="s", is_source=True, namespace=Namespace.NODE)
    )
    for name in ("a", "b", "join"):
        graph.add_operator(make_op(name))
    graph.add_edge("s", "a")
    graph.add_edge("s", "b")
    graph.add_edge("a", "join", dst_port=0)
    graph.add_edge("b", "join", dst_port=1)
    assert graph.ancestors("join") == {"s", "a", "b"}
    order = graph.topological_order()
    assert order.index("s") < order.index("a") < order.index("join")


def test_sources_and_sinks_listing():
    graph = chain_graph(2)
    graph.add_operator(
        Operator(
            name="sink",
            work=lambda ctx, port, item: None,
            is_sink=True,
            side_effects=True,
        )
    )
    graph.add_edge("op1", "sink")
    assert graph.sources == ["op0"]
    assert graph.sinks == ["sink"]


def test_stateful_flag_from_factory():
    stateless = make_op("a")
    stateful = Operator(name="b", work=lambda c, p, i: None, make_state=dict)
    assert not stateless.stateful
    assert stateful.stateful
    assert stateful.new_state() == {}


def test_workcounts_merge_and_scale():
    counts = WorkCounts(int_ops=2, float_ops=4, trans_ops=1, mem_ops=8)
    counts.merge(WorkCounts(float_ops=6))
    assert counts.float_ops == 10
    scaled = counts.scaled(0.5)
    assert scaled.int_ops == 1 and scaled.mem_ops == 4
    assert counts.total == 2 + 10 + 1 + 8


def test_contains_and_len():
    graph = chain_graph(3)
    assert len(graph) == 3
    assert "op1" in graph
    assert "nope" not in graph
