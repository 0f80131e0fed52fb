"""BoundedExecutor batched execution and the ExecutionPlan replay path."""

import numpy as np
import pytest

from repro.apps.eeg.pipeline import (
    build_eeg_pipeline,
    extract_feature_vectors,
    source_rates,
)
from repro.dataflow.execute import ExecutionPlan, ExecutionPlanError
from repro.runtime.node import BoundedExecutor
from repro.workbench.scenarios import get_scenario


def _eeg_case(n_channels=4, duration_s=4.0):
    scen = get_scenario("eeg")
    params = scen.resolve_params(
        {"n_channels": n_channels, "duration_s": duration_s}
    )
    graph = scen.build(params)
    data, rates = scen.inputs(params)
    return graph, data, rates


def _feature_set(graph):
    return frozenset(
        name
        for name in graph.operators
        if name not in ("svm", "onset", "alarms")
    )


def _streams(boundary):
    streams = {}
    for edge, value in boundary:
        key = (edge.src, edge.dst, edge.dst_port)
        streams.setdefault(key, []).append(
            np.asarray(value, dtype=float).ravel()
        )
    return {
        key: np.concatenate(values) for key, values in streams.items()
    }


def test_push_batch_matches_scalar_pushes():
    graph, data, _ = _eeg_case()
    node_set = _feature_set(graph)
    scalar = BoundedExecutor(graph, node_set)
    batched = BoundedExecutor(graph, node_set)
    name = sorted(data)[0]
    out_scalar = []
    for item in data[name]:
        out_scalar.extend(scalar.push(name, item))
    out_batched = batched.push_batch(name, data[name])
    assert len(out_batched) == len(out_scalar)
    assert {
        k: v.invocations for k, v in scalar.counts.items()
    } == {k: v.invocations for k, v in batched.counts.items()}


def test_push_batch_empty_chunk_is_a_no_op():
    graph, data, _ = _eeg_case()
    executor = BoundedExecutor(graph, _feature_set(graph))
    name = sorted(data)[0]
    assert executor.push_batch(name, []) == []
    assert executor.counts[name].invocations == 0


def test_push_batch_rejects_foreign_source():
    graph, data, _ = _eeg_case()
    executor = BoundedExecutor(graph, _feature_set(graph))
    with pytest.raises(ValueError, match="not in the node partition"):
        executor.push_batch("svm", [1.0])


def test_run_plan_batched_matches_scalar_within_tolerance():
    graph, data, rates = _eeg_case()
    node_set = _feature_set(graph)

    def run_with(plan):
        executor = BoundedExecutor(graph, node_set)
        boundary = executor.run(data, plan)
        counts = {
            name: counts.invocations
            for name, counts in executor.counts.items()
        }
        return boundary, counts

    out_scalar, counts_scalar = run_with(ExecutionPlan(rates=rates))
    out_batched, counts_batched = run_with(
        ExecutionPlan(rates=rates, batch=True, batch_size=16)
    )
    assert counts_scalar == counts_batched
    scalar_streams = _streams(out_scalar)
    batched_streams = _streams(out_batched)
    assert set(scalar_streams) == set(batched_streams)
    for key, values in scalar_streams.items():
        np.testing.assert_allclose(
            batched_streams[key], values, rtol=1e-9, atol=1e-12
        )


def test_run_plan_rejects_unknown_source():
    graph, data, _ = _eeg_case()
    executor = BoundedExecutor(graph, _feature_set(graph))
    with pytest.raises(ExecutionPlanError, match="absent from the sample"):
        executor.run(data, ExecutionPlan(sources=("ghost",)))


def test_extract_feature_vectors_plan_paths_agree():
    scen = get_scenario("eeg")
    params = scen.resolve_params({"n_channels": 4, "duration_s": 6.0})
    data, _ = scen.inputs(params)
    default = extract_feature_vectors(data, n_channels=4)
    batched = extract_feature_vectors(
        data,
        n_channels=4,
        plan=ExecutionPlan(interleave=False, batch=True),
    )
    assert default.shape == batched.shape
    assert default.shape[0] > 0 and default.shape[1] == 12
    np.testing.assert_allclose(batched, default, rtol=1e-9, atol=1e-12)


def test_extract_feature_vectors_rejects_ragged_traces():
    graph = build_eeg_pipeline(n_channels=2)
    del graph
    rates = source_rates(2)
    data = {name: [np.zeros(256)] for name in rates}
    data["ch01.source"] = [np.zeros(256), np.zeros(256)]
    with pytest.raises(ValueError, match="same trace length"):
        extract_feature_vectors(data, n_channels=2)
