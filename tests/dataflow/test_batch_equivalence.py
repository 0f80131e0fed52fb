"""Randomized scalar-vs-batched execution equivalence.

The batched executor is an execution *strategy*, not an approximation:
for any graph, driving it with ``push_batch`` must produce exactly the
same ``ExecutionStats`` (invocations, inputs, outputs, work counts, edge
elements/bytes/largest element) as element-by-element ``push``, the same
profiles,
and therefore the same downstream partitions.  Element values may differ
only by floating-point summation order.
"""

import numpy as np
import pytest

from repro.apps.eeg import build_eeg_pipeline, synth_eeg
from repro.apps.eeg.pipeline import source_rates
from repro.apps.speech import build_speech_pipeline, synth_speech_audio
from repro.apps.speech.audio import FRAMES_PER_SEC
from repro.core import PartitionObjective, RelocationMode, Wishbone
from repro.dataflow import ExecutionPlan, GraphBuilder, run_graph
from repro.dataflow.execute import Executor, merge_schedule
from repro.dataflow.operators import (
    add_streams,
    constant_cost_map,
    decimate,
    fir_filter,
    fir_filter_block,
    get_even,
    get_odd,
    rewindow,
    zip_n,
)
from repro.platforms import get_platform
from repro.profiler import Profiler


def assert_stats_equal(a, b):
    """Exact equality of every aggregate statistic of two runs."""
    assert set(a.operators) == set(b.operators)
    for name in a.operators:
        sa, sb = a.operators[name], b.operators[name]
        assert (sa.invocations, sa.inputs, sa.outputs) == (
            sb.invocations, sb.inputs, sb.outputs,
        ), name
        for field in ("int_ops", "float_ops", "trans_ops", "mem_ops",
                      "invocations", "loop_iterations"):
            assert getattr(sa.counts, field) == getattr(sb.counts, field), (
                name, field,
            )
    assert set(a.edge_traffic) == set(b.edge_traffic)
    for edge in a.edge_traffic:
        ea, eb = a.edge_traffic[edge], b.edge_traffic[edge]
        assert (ea.elements, ea.bytes, ea.peak_element_bytes) == (
            eb.elements, eb.bytes, eb.peak_element_bytes,
        ), edge
    assert a.source_inputs == b.source_inputs


def build_kitchen_sink():
    """One graph exercising every library combinator plus a fallback op."""
    builder = GraphBuilder("kitchen")
    with builder.node():
        scalars = builder.source("scalars")
        blocks = builder.source("blocks", output_size=32)

        filtered = fir_filter(
            builder, "fir", scalars, np.array([0.4, 0.3, 0.2, 0.1])
        )
        kept = decimate(builder, "dec", filtered, 3)
        windows = rewindow(builder, "win", blocks, 12, hop=8)
        even = get_even(builder, "even", windows)
        odd = get_odd(builder, "odd", windows)
        feven = fir_filter_block(builder, "feven", even, np.array([0.5, 0.25]))
        fodd = fir_filter_block(builder, "fodd", odd, np.array([1.0, -1.0]))
        summed = add_streams(builder, "sum", feven, fodd)
        scaled = constant_cost_map(
            builder, "scale", summed, lambda v: np.asarray(v) * 2.0,
            float_ops_per_item=5.0,
        )
        # No work_batch: exercises the per-element fallback inside chunks.
        squared = builder.fmap("square", kept, lambda v: v * v,
                               cost=lambda v: {"float_ops": 1.0})
        zipped = zip_n(builder, "zip", [scaled, squared])
    sink = builder.sink("out", zipped)
    del sink
    return builder.build()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kitchen_sink_equivalence(seed):
    rng = np.random.default_rng(seed)
    n_scalars = int(rng.integers(40, 120))
    n_blocks = int(rng.integers(10, 30))
    data = {
        "scalars": [float(x) for x in rng.normal(size=n_scalars)],
        "blocks": [rng.normal(size=16) for _ in range(n_blocks)],
    }

    scalar = run_graph(build_kitchen_sink(), data)
    batched = run_graph(
        build_kitchen_sink(), data,
        ExecutionPlan(batch=True, interleave=False),
    )
    assert_stats_equal(scalar.stats, batched.stats)

    a = scalar.sink_values("out")
    b = batched.sink_values("out")
    assert len(a) == len(b)
    for (x1, y1), (x2, y2) in zip(a, b):
        np.testing.assert_allclose(x1, x2, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(y1, y2, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_mixed_scalar_and_batch_pushes_share_state(seed):
    """Interleaving push and push_batch over one executor is seamless."""
    rng = np.random.default_rng(seed)
    data = {
        "scalars": [float(x) for x in rng.normal(size=60)],
        "blocks": [rng.normal(size=16) for _ in range(18)],
    }
    scalar = run_graph(
        build_kitchen_sink(), data, ExecutionPlan(interleave=False)
    )

    mixed = Executor(build_kitchen_sink())
    items = data["scalars"]
    mixed.push(("scalars"), items[0])
    mixed.push_batch("scalars", items[1:40])
    mixed.push_batch("scalars", items[40:])
    blocks = data["blocks"]
    mixed.push_batch("blocks", blocks[:5])
    for block in blocks[5:9]:
        mixed.push("blocks", block)
    mixed.push_batch("blocks", blocks[9:])
    assert_stats_equal(scalar.stats, mixed.stats)


def test_eeg_profiles_and_partitions_identical():
    n_channels = 2
    recording = synth_eeg(
        n_channels=n_channels, duration_s=8.0,
        seizure_intervals=((3.0, 6.0),), seed=7,
    )
    data = recording.source_data()
    rates = source_rates(n_channels)

    scalar = Profiler().measure(
        build_eeg_pipeline(n_channels=n_channels), data, rates
    )
    batched = Profiler(batch=True).measure(
        build_eeg_pipeline(n_channels=n_channels), data, rates
    )
    assert_stats_equal(scalar.stats, batched.stats)

    platform = get_platform("tmote")
    profile_scalar = scalar.on(platform)
    profile_batched = batched.on(platform)
    for name in profile_scalar.operators:
        assert (
            profile_scalar.operators[name].seconds
            == profile_batched.operators[name].seconds
        )
    for edge in profile_scalar.edges:
        assert (
            profile_scalar.edges[edge].bytes_per_sec
            == profile_batched.edges[edge].bytes_per_sec
        )

    partitioner = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=1.0,
        net_budget=float("inf"),
    )
    result_scalar = partitioner.partition(profile_scalar.scaled(20.0))
    result_batched = partitioner.partition(profile_batched.scaled(20.0))
    assert (
        result_scalar.partition.node_set == result_batched.partition.node_set
    )


def test_speech_stats_and_sink_identical():
    audio = synth_speech_audio(duration_s=2.0, seed=5)
    data = {"source": audio.frames()}
    rates = {"source": FRAMES_PER_SEC}

    graph_scalar = build_speech_pipeline()
    graph_batched = build_speech_pipeline()
    scalar_exec = run_graph(graph_scalar, data)
    batched_exec = run_graph(
        graph_batched, data, ExecutionPlan(batch=True, interleave=False)
    )
    assert_stats_equal(scalar_exec.stats, batched_exec.stats)
    assert scalar_exec.sink_values("results") == batched_exec.sink_values(
        "results"
    )


def test_run_graph_source_rates_interleaves_like_profiler():
    builder = GraphBuilder()
    order = []
    with builder.node():
        fast = builder.source("fast")
        slow = builder.source("slow")

        def tag(which):
            def work(ctx, port, item):
                order.append(which)
                ctx.emit(item)

            return work

        a = builder.iterate("fa", fast, tag("fast"))
        b = builder.iterate("fb", slow, tag("slow"))
    builder.sink("oa", a)
    builder.sink("ob", b)
    run_graph(
        builder.build(),
        {"fast": [1, 2, 3, 4], "slow": [10, 20]},
        ExecutionPlan(rates={"fast": 4.0, "slow": 2.0}),
    )
    # fast at t=0,.25,.5,.75; slow at t=0,.5; ties break by source name.
    assert order == ["fast", "slow", "fast", "fast", "slow", "fast"]


def test_merge_schedule_round_robin_parity():
    """Equal rates reproduce the element-by-element round-robin order."""
    runs = merge_schedule({"a": 3, "b": 2})
    flattened = [(r.name, i) for r in runs for i in range(r.start, r.stop)]
    assert flattened == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2),
    ]


def test_merge_schedule_grouped_runs_each_source_whole():
    runs = merge_schedule(
        {"b": 3, "a": 6}, rates={"a": 2.0, "b": 1.0}, grouped=True
    )
    # One run per source, in source-name order, whatever the rates.
    assert [(r.name, r.start, r.stop) for r in runs] == [
        ("a", 0, 6), ("b", 0, 3),
    ]
    strict = merge_schedule({"b": 3, "a": 6}, rates={"a": 2.0, "b": 1.0})
    assert sorted(
        (r.name, i) for r in strict for i in range(r.start, r.stop)
    ) == sorted((r.name, i) for r in runs for i in range(r.start, r.stop))


def _spiky_two_source_graph():
    builder = GraphBuilder()
    with builder.node():
        fast = builder.source("fast", output_size=8)
        slow = builder.source("slow", output_size=16)

        def spiky(ctx, port, item):
            ctx.count(float_ops=100.0 if item else 1.0, mem_ops=2.0)
            if item:
                ctx.emit(np.ones(4))

        a = builder.iterate("fa", fast, spiky)
        b = builder.iterate("fb", slow, spiky)
    builder.sink("oa", a)
    builder.sink("ob", b)
    return builder.build()


@pytest.mark.parametrize(
    "source_cfg",
    [
        {"fast": ([1, 0, 1, 1, 0, 1, 1, 1], 4.0), "slow": ([1, 1], 1.0)},
        {"fast": ([1] * 12, 3.0), "slow": ([0, 1, 0, 1], 1.0)},
    ],
)
def test_scalar_vs_batched_stats_equal_multi_source(source_cfg):
    """Rate-skewed sources: the batched profile (one chunk per source)
    measures exactly what the element-by-element heap order does."""
    data = {name: items for name, (items, _) in source_cfg.items()}
    rates = {name: rate for name, (_, rate) in source_cfg.items()}
    scalar = Profiler().measure(_spiky_two_source_graph(), data, rates)
    batched = Profiler(batch=True).measure(
        _spiky_two_source_graph(), data, rates
    )
    assert_stats_equal(scalar.stats, batched.stats)
    assert scalar.duration == batched.duration


def test_scalar_vs_batched_stats_equal_eeg():
    """Full-app check on a seizure-bursty multi-channel EEG run."""
    n_channels = 2
    recording = synth_eeg(
        n_channels=n_channels, duration_s=6.0,
        seizure_intervals=((2.0, 4.0),), seed=3,
    )
    data = recording.source_data()
    rates = source_rates(n_channels)
    scalar = Profiler().measure(
        build_eeg_pipeline(n_channels=n_channels), data, rates
    )
    batched = Profiler(batch=True).measure(
        build_eeg_pipeline(n_channels=n_channels), data, rates
    )
    assert_stats_equal(scalar.stats, batched.stats)


def test_run_graph_source_rates_validation():
    """Plan rates are validated with typed errors on the run_graph path."""
    from repro.dataflow import ExecutionPlanError

    builder = GraphBuilder()
    with builder.node():
        a = builder.source("a")
        b = builder.source("b")
    builder.sink("oa", a)
    builder.sink("ob", b)
    graph = builder.build()
    data = {"a": [1, 2], "b": [3, 4]}
    with pytest.raises(ExecutionPlanError, match="rates missing"):
        run_graph(graph, data, ExecutionPlan(rates={"a": 1.0}))
    with pytest.raises(ExecutionPlanError, match="interleave=False"):
        run_graph(
            graph, data,
            ExecutionPlan(rates={"a": 1.0, "b": 1.0}, interleave=False),
        )
    with pytest.raises(ExecutionPlanError, match="non-positive rate"):
        run_graph(graph, data, ExecutionPlan(rates={"a": 1.0, "b": 0.0}))
