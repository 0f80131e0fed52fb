"""PartitionProblem evaluation semantics."""

import pytest
from rebuild_oracle import scaled_problem

from repro.core import PartitionError, PartitionProblem, WeightedEdge
from repro.dataflow import Pinning


def chain_problem():
    return PartitionProblem(
        vertices=["s", "a", "b", "t"],
        cpu={"s": 0.0, "a": 0.3, "b": 0.5, "t": 0.0},
        edges=[
            WeightedEdge("s", "a", 100.0),
            WeightedEdge("a", "b", 40.0),
            WeightedEdge("b", "t", 10.0),
        ],
        pins={"s": Pinning.NODE, "t": Pinning.SERVER},
        cpu_budget=0.6,
        net_budget=50.0,
    )


def test_unknown_edge_vertex_rejected():
    with pytest.raises(PartitionError, match="unknown"):
        PartitionProblem(
            vertices=["a"],
            cpu={"a": 1.0},
            edges=[WeightedEdge("a", "zzz", 1.0)],
            pins={},
            cpu_budget=1.0,
            net_budget=1.0,
        )


def test_negative_weights_rejected():
    with pytest.raises(PartitionError, match="negative"):
        PartitionProblem(
            vertices=["a", "b"],
            cpu={"a": 1.0, "b": 1.0},
            edges=[WeightedEdge("a", "b", -1.0)],
            pins={},
            cpu_budget=1.0,
            net_budget=1.0,
        )
    with pytest.raises(PartitionError, match="negative"):
        PartitionProblem(
            vertices=["a"],
            cpu={"a": -1.0},
            edges=[],
            pins={},
            cpu_budget=1.0,
            net_budget=1.0,
        )


def test_loads_and_objective():
    problem = chain_problem()
    node_set = {"s", "a"}
    assert problem.cpu_load(node_set) == pytest.approx(0.3)
    assert problem.net_load(node_set) == pytest.approx(40.0)
    assert problem.objective(node_set) == pytest.approx(40.0)  # beta=1


def test_feasibility_checks():
    problem = chain_problem()
    assert problem.is_feasible({"s", "a"})          # cpu .3, net 40
    assert not problem.is_feasible({"s"})           # net 100 > 50
    assert not problem.is_feasible({"s", "a", "b"})  # cpu .8 > .6
    assert not problem.is_feasible({"a"})           # source not on node


def test_precedence_check():
    problem = chain_problem()
    assert problem.respects_precedence({"s", "a"})
    assert not problem.respects_precedence({"s", "b"})  # a on server, b node


def test_in_out_bandwidth():
    problem = chain_problem()
    assert problem.in_bandwidth("a") == pytest.approx(100.0)
    assert problem.out_bandwidth("a") == pytest.approx(40.0)
    assert problem.in_bandwidth("s") == pytest.approx(0.0)


def test_scaled_scales_loads_not_budgets():
    problem = scaled_problem(chain_problem(), 2.0)
    assert problem.cpu_load({"s", "a"}) == pytest.approx(0.6)
    assert problem.net_load({"s", "a"}) == pytest.approx(80.0)
    assert problem.cpu_budget == pytest.approx(0.6)
    assert problem.net_budget == pytest.approx(50.0)


def test_default_pin_is_movable():
    problem = chain_problem()
    assert problem.pins["a"] is Pinning.MOVABLE
    assert problem.movable() == {"a", "b"}
    assert problem.node_pinned() == {"s"}
    assert problem.server_pinned() == {"t"}
