"""The top-level public API surface and an end-to-end integration pass."""

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_platforms_mapping():
    assert "tmote" in repro.PLATFORMS
    assert repro.get_platform("server").is_server


def test_end_to_end_workflow_on_custom_graph():
    """README quickstart, condensed: build -> profile -> partition ->
    deploy -> run — every stage through the public API only."""
    builder = repro.GraphBuilder("api-test")
    with builder.node():
        source = builder.source("sensor", output_size=64)

        def halve(ctx, port, item):
            ctx.count(float_ops=32.0)
            ctx.emit(np.asarray(item, dtype=np.float32)[::2])

        reduced = builder.iterate("halve", source, halve)
    builder.sink("out", reduced)
    graph = builder.build()

    data = [np.arange(32, dtype=np.int16) for _ in range(20)]
    profile = repro.Profiler().profile(
        graph, {"sensor": data}, {"sensor": 5.0},
        repro.get_platform("tmote"),
    )
    result = repro.Wishbone(
        objective=repro.PartitionObjective(alpha=0.0, beta=1.0),
        mode=repro.RelocationMode.PERMISSIVE,
    ).partition(profile)
    assert result.feasible

    testbed = repro.Testbed(repro.get_platform("tmote"), n_nodes=3)
    deployment = repro.Deployment(profile, result.partition.node_set, testbed)
    prediction = deployment.analyze()
    assert 0.0 <= prediction.goodput <= 1.0
    stats = deployment.run({"sensor": data}, {"sensor": 5.0}, seed=0)
    assert stats.packets_sent > 0

    dot = repro.graph_to_dot(graph, profile=profile,
                             node_set=result.partition.node_set)
    assert "digraph" in dot


def test_eeg_deployment_integration():
    """Partition a small EEG build and deploy it over a mote testbed."""
    graph = repro.build_eeg_pipeline(n_channels=2)
    recording = repro.synth_eeg(
        n_channels=2, duration_s=12.0,
        seizure_intervals=((4.0, 9.0),), seed=5,
    )
    from repro.apps.eeg import source_rates

    profile = repro.Profiler().profile(
        graph, recording.source_data(), source_rates(2),
        repro.get_platform("tmote"),
    )
    result = repro.Wishbone(
        objective=repro.PartitionObjective(alpha=0.0, beta=1.0),
        mode=repro.RelocationMode.PERMISSIVE,
    ).partition(profile)
    assert result.feasible
    # The whole feature cascade should fit at the EEG's gentle rates.
    assert len(result.partition.node_set) > 50

    testbed = repro.Testbed(repro.get_platform("tmote"), n_nodes=4)
    deployment = repro.Deployment(profile, result.partition.node_set, testbed)
    prediction = deployment.analyze()
    assert prediction.input_fraction > 0.5
    stats = deployment.run(recording.source_data(), source_rates(2), seed=1)
    assert stats.goodput > 0.3


def test_rate_search_via_public_api(tmote_speech_profile):
    outcome = repro.max_feasible_rate(
        repro.Wishbone(mode=repro.RelocationMode.PERMISSIVE),
        tmote_speech_profile,
    )
    assert isinstance(outcome, repro.RateSearchResult)
    assert 0.0 < outcome.rate_factor < 1.0


def test_workbench_surface_at_top_level():
    """The workbench names are first-class citizens of the package."""
    for name in (
        "Session",
        "Scenario",
        "ProfileStore",
        "PartitionRequest",
        "PartitionService",
        "RateSearchRequest",
        "register_scenario",
        "get_scenario",
        "list_scenarios",
    ):
        assert hasattr(repro, name), name
    assert {"eeg", "speech", "leak"} <= {
        s.name for s in repro.list_scenarios()
    }


def test_readme_quickstart_session_workflow():
    """README quickstart, condensed: register scenario -> profile ->
    partition_many -> deploy, through the top-level API only."""
    session = repro.Session("eeg", n_channels=2)
    profile = session.profile()
    assert profile.platform.name == "tmote"
    results = session.partition_many(
        [
            repro.PartitionRequest(
                rate_factor=rate,
                gap_tolerance=5e-3,
                net_budget=float("inf"),
            )
            for rate in (1.0, 8.0)
        ]
    )
    assert all(r.feasible for r in results)
    prediction = session.deploy(results[0], n_nodes=3)
    assert 0.0 <= prediction.goodput <= 1.0


def test_old_and_new_experiment_helpers_import_cleanly():
    """The experiment helpers import and run without warnings."""
    import warnings

    from repro.experiments.common import measurement_for, profile_for

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph, _ = measurement_for("eeg", n_channels=1)
        profile = profile_for("eeg", "tmote", n_channels=1)
    assert len(graph) > 0
    assert profile.platform.name == "tmote"
