"""Deployment simulation: analysis vs. full data-level execution."""

import pytest

from repro.apps.speech import (
    FRAMES_PER_SEC,
    node_set_for_cut,
    synth_speech_audio,
)
from repro.network import Testbed
from repro.platforms import get_platform
from repro.runtime import Deployment


@pytest.fixture(scope="module")
def tmote_testbed():
    return Testbed(get_platform("tmote"), n_nodes=1)


def test_sources_must_be_on_node(tmote_speech_profile, tmote_testbed):
    with pytest.raises(ValueError, match="sources"):
        Deployment(tmote_speech_profile, frozenset({"preemph"}), tmote_testbed)


def test_analysis_fields_consistent(tmote_speech_profile, tmote_testbed):
    node_set = node_set_for_cut(tmote_speech_profile.graph, "filtbank")
    prediction = Deployment(
        tmote_speech_profile, node_set, tmote_testbed
    ).analyze()
    assert 0.0 <= prediction.input_fraction <= 1.0
    assert 0.0 <= prediction.msg_reception <= 1.0
    assert prediction.goodput == pytest.approx(
        prediction.input_fraction * prediction.msg_reception
    )
    assert prediction.element_goodput <= prediction.input_fraction + 1e-9
    assert prediction.deployed_cpu == pytest.approx(
        prediction.predicted_cpu
        * get_platform("tmote").os_overhead_factor
    )


def test_network_bound_at_source_cut(tmote_speech_profile, tmote_testbed):
    node_set = node_set_for_cut(tmote_speech_profile.graph, "source")
    prediction = Deployment(
        tmote_speech_profile, node_set, tmote_testbed
    ).analyze()
    assert prediction.input_fraction > 0.99  # no CPU work on the node
    assert prediction.msg_reception < 0.01   # raw audio floods the radio


def test_cpu_bound_at_cepstral_cut(tmote_speech_profile, tmote_testbed):
    node_set = node_set_for_cut(tmote_speech_profile.graph, "cepstrals")
    prediction = Deployment(
        tmote_speech_profile, node_set, tmote_testbed
    ).analyze()
    assert prediction.input_fraction < 0.03  # ~2 s per 25 ms frame
    assert prediction.msg_reception > 0.9    # almost nothing to send


def test_full_run_matches_analysis_roughly(tmote_speech_profile,
                                           tmote_testbed):
    graph = tmote_speech_profile.graph
    node_set = node_set_for_cut(graph, "filtbank")
    deployment = Deployment(tmote_speech_profile, node_set, tmote_testbed)
    prediction = deployment.analyze()

    audio = synth_speech_audio(duration_s=2.0, seed=3)
    stats = deployment.run(
        {"source": audio.frames()},
        {"source": FRAMES_PER_SEC},
        seed=1,
    )
    assert stats.input_fraction == pytest.approx(
        prediction.input_fraction, abs=0.08
    )
    assert stats.msg_reception == pytest.approx(
        prediction.msg_reception, abs=0.1
    )
    assert stats.packets_delivered <= stats.packets_sent


def test_full_run_server_produces_outputs(server_speech_profile):
    """On a fast platform everything flows through to the server sink."""
    graph = server_speech_profile.graph
    # Put only the source on the node; Meraki-style WiFi backhaul.
    meraki_profile = server_speech_profile  # costs don't matter here
    testbed = Testbed(get_platform("meraki"), n_nodes=1)
    meraki = Deployment(
        meraki_profile, node_set_for_cut(graph, "source"), testbed
    )
    audio = synth_speech_audio(duration_s=1.0, seed=4)
    stats = meraki.run(
        {"source": audio.frames()},
        {"source": FRAMES_PER_SEC},
        seed=0,
    )
    results = stats.server_outputs["results"]
    assert len(results) > 0
    assert all(isinstance(v, bool) for v in results)


def test_goodput_peaks_at_filterbank(tmote_speech_profile, tmote_testbed):
    """End-to-end: cut 4 wins on a single mote (paper §7.3)."""
    graph = tmote_speech_profile.graph
    goodputs = {}
    for cut in ("source", "preemph", "fft", "filtbank", "logs", "cepstrals"):
        deployment = Deployment(
            tmote_speech_profile, node_set_for_cut(graph, cut),
            tmote_testbed,
        )
        goodputs[cut] = deployment.analyze().goodput
    assert max(goodputs, key=goodputs.get) == "filtbank"


def test_run_default_plan_matches_explicit_insertion_order(
    server_speech_profile,
):
    """run() without a plan is the historic insertion-order drain."""
    from repro.dataflow.execute import ExecutionPlan

    graph = server_speech_profile.graph
    testbed = Testbed(get_platform("meraki"), n_nodes=1)
    deployment = Deployment(
        server_speech_profile, node_set_for_cut(graph, "source"), testbed
    )
    audio = synth_speech_audio(duration_s=1.0, seed=4)
    data = {"source": audio.frames()}
    rates = {"source": FRAMES_PER_SEC}
    default = deployment.run(data, rates, seed=0)
    explicit = deployment.run(
        data, rates, seed=0, plan=ExecutionPlan(interleave=False)
    )
    merged = deployment.run(
        data, rates, seed=0, plan=ExecutionPlan(rates=rates)
    )
    assert default.server_outputs == explicit.server_outputs
    assert default.packets_sent == explicit.packets_sent
    # One source: the virtual-time merge degenerates to the same order.
    assert default.server_outputs == merged.server_outputs


def test_run_plan_rejects_unknown_source(server_speech_profile):
    from repro.dataflow.execute import ExecutionPlan, ExecutionPlanError

    graph = server_speech_profile.graph
    testbed = Testbed(get_platform("meraki"), n_nodes=1)
    deployment = Deployment(
        server_speech_profile, node_set_for_cut(graph, "source"), testbed
    )
    audio = synth_speech_audio(duration_s=0.5, seed=4)
    with pytest.raises(ExecutionPlanError, match="not sources of"):
        deployment.run(
            {"source": audio.frames(), "fft": []},
            {"source": FRAMES_PER_SEC},
            plan=ExecutionPlan(sources=("fft",)),
        )
