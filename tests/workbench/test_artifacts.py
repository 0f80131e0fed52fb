"""Artifact round-trips: serialize -> deserialize -> re-partition, byte-exact."""

import json

import numpy as np
import pytest

from repro.core import (
    PartitionObjective,
    RateSearch,
    RelocationMode,
    Wishbone,
)
from repro.dataflow import Operator
from repro.platforms import get_platform
from repro.workbench import (
    ArtifactError,
    Session,
    from_json,
    graph_fingerprint,
    load_artifact,
    save_artifact,
    to_json,
)
from repro.runtime.frames import encode_message
from repro.workbench.artifacts import (
    SCHEMA_VERSION,
    canonical_json,
    read_document,
    to_document,
    write_document,
)


@pytest.fixture(scope="module")
def eeg_session():
    return Session("eeg", n_channels=2)


@pytest.fixture(scope="module")
def speech_session():
    return Session("speech")


def _partitioner(**kw):
    defaults = dict(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        gap_tolerance=5e-3,
    )
    defaults.update(kw)
    return Wishbone(**defaults)


def _graph_ref(session):
    return {"scenario": session.scenario.name, "params": session.params}


@pytest.mark.parametrize("scenario_fixture", ["eeg_session", "speech_session"])
def test_measurement_roundtrip_byte_identical(scenario_fixture, request):
    session = request.getfixturevalue(scenario_fixture)
    ref = _graph_ref(session)
    measurement = session.measurement()
    text = to_json(measurement, graph_ref=ref)
    loaded = from_json(text)  # graph rebuilt via the scenario registry
    assert to_json(loaded, graph_ref=ref) == text
    # ...and the downstream profile is byte-identical too.
    platform = get_platform("tmote")
    assert to_json(measurement.on(platform)) == to_json(loaded.on(platform))


@pytest.mark.parametrize("scenario_fixture", ["eeg_session", "speech_session"])
def test_reloaded_measurement_repartitions_identically(
    scenario_fixture, request
):
    session = request.getfixturevalue(scenario_fixture)
    measurement = session.measurement()
    loaded = from_json(to_json(measurement, graph_ref=_graph_ref(session)))
    partitioner = _partitioner()
    a = partitioner.try_partition(
        measurement.on(get_platform("tmote")).scaled(0.5)
    )
    b = partitioner.try_partition(loaded.on(get_platform("tmote")).scaled(0.5))
    assert (a is None) == (b is None)
    if a is not None:
        assert a.partition.node_set == b.partition.node_set
        assert a.partition.objective_value == b.partition.objective_value


def test_graph_profile_roundtrip(eeg_session):
    ref = _graph_ref(eeg_session)
    profile = eeg_session.profile()
    text = to_json(profile, graph_ref=ref)
    loaded = from_json(text)
    assert to_json(loaded, graph_ref=ref) == text
    assert loaded.platform.name == "tmote"
    for name, op in profile.operators.items():
        assert loaded.operators[name].utilization == op.utilization


def test_partition_result_roundtrip_and_solution(eeg_session):
    ref = _graph_ref(eeg_session)
    result = eeg_session.partition(
        rate_factor=2.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    text = to_json(result, graph_ref=ref)
    loaded = from_json(text)
    assert to_json(loaded, graph_ref=ref) == text
    assert canonical_json(loaded, ref) == canonical_json(result, ref)
    assert loaded.partition.node_set == result.partition.node_set
    assert loaded.solution.status is result.solution.status
    # One Solution per answer, in process and decoded alike.
    assert result.partition.solver_solution is result.solution
    assert loaded.partition.solver_solution is loaded.solution
    # The §4.1 reduction's size survives.
    assert loaded.vertices == result.vertices
    assert loaded.reduced_vertices == result.reduced_vertices
    assert 0.0 < loaded.reduction_ratio == result.reduction_ratio


def test_partition_roundtrip(eeg_session):
    ref = _graph_ref(eeg_session)
    partition = eeg_session.partition(
        rate_factor=2.0, gap_tolerance=5e-3, net_budget=float("inf")
    ).partition
    loaded = from_json(to_json(partition, graph_ref=ref))
    assert loaded.node_set == partition.node_set
    assert loaded.server_set == partition.server_set
    assert loaded.cut_edges() == partition.cut_edges()


def test_rate_search_result_roundtrip(speech_session):
    ref = _graph_ref(speech_session)
    outcome = RateSearch(_partitioner(), tolerance=0.05).search(
        speech_session.profile()
    )
    text = to_json(outcome, graph_ref=ref)
    loaded = from_json(text)
    assert to_json(loaded, graph_ref=ref) == text
    assert loaded.rate_factor == outcome.rate_factor
    assert loaded.probes == outcome.probes
    assert loaded.feasible_at_full_rate == outcome.feasible_at_full_rate
    assert (
        loaded.result.partition.node_set == outcome.result.partition.node_set
    )


def test_save_and_load_with_npz_sidecar(tmp_path, eeg_session):
    """An answer saves as one JSON file (it holds no arrays); arrays
    handed to the on-disk convention land in a content-addressed npz
    sidecar next to the JSON and read back with it."""
    ref = _graph_ref(eeg_session)
    result = eeg_session.partition(
        rate_factor=2.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    path = tmp_path / "result.json"
    save_artifact(result, path, graph_ref=ref)
    assert "npz" not in json.loads(path.read_text())
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
    loaded = load_artifact(path)
    assert canonical_json(loaded, ref) == canonical_json(result, ref)

    document, _ = to_document(result, ref)
    arrays = {"a0": np.linspace(0.0, 1.0, 16)}
    with_arrays = tmp_path / "arrays.json"
    write_document(with_arrays, document, arrays)
    sidecar = json.loads(with_arrays.read_text())["npz"]
    assert sidecar.startswith("arrays.json.") and sidecar.endswith(".npz")
    assert (tmp_path / sidecar).exists()
    _, read_arrays = read_document(with_arrays)
    np.testing.assert_array_equal(read_arrays["a0"], arrays["a0"])
    loaded = load_artifact(with_arrays)
    assert loaded.partition.node_set == result.partition.node_set


def test_write_from_encoded_bytes_matches_write_from_document(
    tmp_path, eeg_session
):
    """An entry written from an answer's wire bytes reads back as the
    entry written from its document: same document, same sidecar bytes,
    and the sidecar name recorded in the caller's document both ways.
    Answers hold no arrays, so the sidecar case uses an explicit one."""
    result = eeg_session.partition(
        rate_factor=2.0, gap_tolerance=5e-3, net_budget=float("inf")
    )
    document, no_arrays = to_document(result, _graph_ref(eeg_session))
    assert no_arrays == {}
    answer = dict(document)
    wire = encode_message(answer, {})
    write_document(tmp_path / "c.json", answer, {}, encoded=wire)
    assert read_document(tmp_path / "c.json") == (document, {})
    arrays = {"a0": np.arange(5.0), "a1": np.linspace(0.0, 1.0, 3)}
    encoded = encode_message(document, arrays)
    plain, spliced = dict(document), dict(document)
    write_document(tmp_path / "a.json", plain, arrays)
    write_document(tmp_path / "b.json", spliced, arrays, encoded=encoded)
    doc_a, arrays_a = read_document(tmp_path / "a.json")
    doc_b, arrays_b = read_document(tmp_path / "b.json")
    assert plain["npz"] == doc_a["npz"] and spliced["npz"] == doc_b["npz"]
    assert doc_b.pop("npz").replace("b.json", "a.json") == doc_a.pop("npz")
    assert doc_a == doc_b == document
    assert arrays_a.keys() == arrays_b.keys()
    for key in arrays_a:
        np.testing.assert_array_equal(arrays_a[key], arrays_b[key])


def test_schema_version_mismatch_raises(eeg_session):
    text = to_json(
        eeg_session.measurement(), graph_ref=_graph_ref(eeg_session)
    )
    document = json.loads(text)
    document["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ArtifactError, match="schema version"):
        from_json(json.dumps(document))
    document["schema_version"] = "bogus"
    with pytest.raises(ArtifactError, match="schema version"):
        from_json(json.dumps(document))


def test_non_workbench_document_raises():
    with pytest.raises(ArtifactError, match="schema"):
        from_json(json.dumps({"schema": "something-else"}))


def test_unknown_kind_raises(eeg_session):
    document = json.loads(
        to_json(eeg_session.measurement(), graph_ref=_graph_ref(eeg_session))
    )
    document["kind"] = "mystery"
    with pytest.raises(ArtifactError, match="kind"):
        from_json(json.dumps(document))


def test_graph_fingerprint_mismatch_raises(eeg_session, speech_session):
    text = to_json(
        eeg_session.measurement(), graph_ref=_graph_ref(eeg_session)
    )
    wrong_graph = speech_session.graph()
    with pytest.raises(ArtifactError, match="fingerprint"):
        from_json(text, graph=wrong_graph)


def test_stored_fingerprint_follows_structural_changes(eeg_session):
    """A graph keeps its fingerprint between decodes, but adding an
    operator or an edge invalidates it: the new value matches a fresh
    graph of the same structure, and an artifact recorded before the
    change no longer decodes against the graph."""
    text = to_json(eeg_session.measurement())
    graph = eeg_session.graph()
    recorded = graph_fingerprint(graph)
    assert from_json(text, graph=graph).graph is graph

    twin = eeg_session.graph()
    for g in (graph, twin):
        g.add_operator(Operator(name="extra"))
    with_op = graph_fingerprint(graph)
    assert with_op != recorded
    with pytest.raises(ArtifactError, match="fingerprint"):
        from_json(text, graph=graph)

    source = graph.sources[0]
    for g in (graph, twin):
        g.add_edge(source, "extra")
    assert graph_fingerprint(graph) != with_op
    assert graph_fingerprint(graph) == graph_fingerprint(twin)


def test_artifact_without_scenario_needs_explicit_graph(eeg_session):
    measurement = eeg_session.measurement()
    text = to_json(measurement)  # no scenario reference
    with pytest.raises(ArtifactError, match="scenario"):
        from_json(text)
    loaded = from_json(text, graph=eeg_session.graph())
    assert loaded.duration == measurement.duration


def test_fingerprint_is_structural(eeg_session):
    g1 = eeg_session.graph()
    g2 = eeg_session.graph()
    assert g1 is not g2
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    g3 = Session("eeg", n_channels=3).graph()
    assert graph_fingerprint(g1) != graph_fingerprint(g3)
