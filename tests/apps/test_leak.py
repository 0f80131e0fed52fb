"""Leak-detection app and in-network aggregation semantics."""

import numpy as np
import pytest

from repro.apps.leak import (
    WINDOWS_PER_SEC,
    band_pass_taps,
    build_leak_pipeline,
    synth_leak_data,
)
from repro.dataflow import run_graph
from repro.network import Testbed
from repro.platforms import get_platform
from repro.profiler import Profiler
from repro.runtime import Deployment


def test_band_pass_frequency_response():
    taps = band_pass_taps()
    freqs = np.fft.rfftfreq(2048, d=1.0 / 1000.0)
    response = np.abs(np.fft.rfft(taps, 2048))
    in_band = response[(freqs > 90) & (freqs < 250)].mean()
    below = response[freqs < 20].mean()
    above = response[freqs > 420].mean()
    assert in_band > 4 * below
    assert in_band > 4 * above


def test_synth_data_leak_raises_band_energy():
    recording = synth_leak_data(duration_s=20.0, leak_start_s=10.0, seed=1)
    taps = band_pass_taps()
    energies = []
    for window in recording.windows:
        filtered = np.convolve(window.astype(float), taps, mode="same")
        energies.append(np.sqrt(np.mean(filtered**2)))
    energies = np.array(energies)
    labels = recording.window_labels
    assert energies[labels].mean() > 2 * energies[~labels].mean()


def test_end_to_end_leak_detection():
    graph = build_leak_pipeline(threshold=2.0)
    recording = synth_leak_data(duration_s=30.0, leak_start_s=15.0, seed=2)
    executor = run_graph(graph, recording.source_data())
    alarms = np.array(executor.sink_values("alarms"), dtype=bool)
    labels = recording.window_labels[: len(alarms)]
    # No false alarms before the leak; detection after it.
    assert not alarms[~labels].any()
    assert alarms[labels].mean() > 0.8


def test_reduce_operator_flags():
    graph = build_leak_pipeline()
    reduce_op = graph.operators["netAverage"]
    assert reduce_op.aggregate
    assert reduce_op.loss_tolerant
    assert not graph.operators["rms"].aggregate


def test_reduce_requires_node_namespace():
    from repro.dataflow import GraphBuilder

    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("s")
    with pytest.raises(ValueError, match="Node namespace"):
        builder.reduce("r", stream, lambda ctx, p, i: ctx.emit(i))


@pytest.fixture(scope="module")
def leak_profile():
    graph = build_leak_pipeline()
    recording = synth_leak_data(duration_s=10.0, leak_start_s=None, seed=0)
    return Profiler().profile(
        graph,
        recording.source_data(),
        {"vibration": WINDOWS_PER_SEC},
        get_platform("tmote"),
    )


def test_aggregation_keeps_root_link_flat(leak_profile):
    """§9: in-network aggregation decouples root-link load from N."""
    with_reduce = frozenset({"vibration", "bandpass", "rms", "netAverage"})
    loads = []
    for n in (1, 10, 40):
        testbed = Testbed(get_platform("tmote"), n_nodes=n)
        prediction = Deployment(leak_profile, with_reduce, testbed).analyze()
        loads.append(prediction.offered_pps)
    assert loads[0] == pytest.approx(loads[1], rel=1e-6)
    assert loads[0] == pytest.approx(loads[2], rel=1e-6)


def test_without_aggregation_root_link_scales_with_n(leak_profile):
    without_reduce = frozenset({"vibration", "bandpass", "rms"})
    testbed_1 = Testbed(get_platform("tmote"), n_nodes=1)
    testbed_20 = Testbed(get_platform("tmote"), n_nodes=20)
    load_1 = Deployment(
        leak_profile, without_reduce, testbed_1
    ).analyze().offered_pps
    load_20 = Deployment(
        leak_profile, without_reduce, testbed_20
    ).analyze().offered_pps
    assert load_20 == pytest.approx(20 * load_1, rel=1e-6)


def test_aggregation_preserves_goodput_at_scale(leak_profile):
    with_reduce = frozenset({"vibration", "bandpass", "rms", "netAverage"})
    without_reduce = frozenset({"vibration", "bandpass", "rms"})
    testbed = Testbed(get_platform("tmote"), n_nodes=40)
    aggregated = Deployment(leak_profile, with_reduce, testbed).analyze()
    centralised = Deployment(leak_profile, without_reduce, testbed).analyze()
    assert aggregated.goodput > 10 * centralised.goodput


def test_partitioner_places_reduce_on_node_with_fanin(leak_profile):
    """With §9's aggregation-aware costs, the reduce lands in-network.

    The plain two-tier ILP sees a tie across the reduce (one packet per
    window either side); modelling the aggregation tree's fan-in
    (``aggregate_fanin=20``) discounts the post-reduce edge 20x, making
    the in-network placement strictly better.
    """
    from repro.core import (
        PartitionObjective,
        RelocationMode,
        Wishbone,
    )

    result = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=2.0,
        aggregate_fanin=20.0,
    ).partition(leak_profile)
    assert "netAverage" in result.partition.node_set
    # The discounted cut is 20x cheaper than the undiscounted one.
    assert result.partition.network_bytes_per_sec < 20.0
