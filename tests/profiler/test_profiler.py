"""Profiler: rates, utilizations, multi-source interleaving, and the
ExecutionPlan overrides of ``measure`` and ``Session.profile``."""

import pytest

from repro.dataflow import ExecutionPlan, ExecutionPlanError, GraphBuilder
from repro.platforms import get_platform
from repro.profiler import Profiler
from repro.workbench import ProfileStore, Session
from repro.workbench.artifacts import canonical_json
from repro.workbench.scenarios import get_scenario


def simple_graph():
    builder = GraphBuilder()
    with builder.node():
        stream = builder.source("src", output_size=100)

        def work(ctx, port, item):
            ctx.count(float_ops=50.0)
            ctx.emit(item)

        out = builder.iterate("f", stream, work)
    builder.sink("sink", out)
    return builder.build()


def test_edge_rates_from_source_rate():
    graph = simple_graph()
    profile = Profiler().profile(
        graph, {"src": [1.0] * 10}, {"src": 5.0}, get_platform("server")
    )
    src_edge = [e for e in graph.edges if e.src == "src"][0]
    edge = profile.edges[src_edge]
    assert profile.duration == pytest.approx(2.0)
    assert edge.elements_per_sec == pytest.approx(5.0)
    assert edge.bytes_per_sec == pytest.approx(500.0)


def test_utilization_uses_platform_costs():
    graph = simple_graph()
    platform = get_platform("tmote")
    profile = Profiler().profile(
        graph, {"src": [1.0] * 10}, {"src": 5.0}, platform
    )
    op = profile.operators["f"]
    # 10 invocations x 50 float ops; plus invocation overhead.
    expected_cycles = (
        500 * platform.cycle_costs.float_op
        + 10 * platform.cycle_costs.invocation
    )
    assert op.seconds == pytest.approx(expected_cycles / platform.effective_hz)
    assert op.utilization == pytest.approx(op.seconds / 2.0)


def test_measurement_reusable_across_platforms():
    graph = simple_graph()
    measurement = Profiler().measure(graph, {"src": [1.0] * 4}, {"src": 2.0})
    fast = measurement.on(get_platform("server"))
    slow = measurement.on(get_platform("tmote"))
    assert slow.operators["f"].seconds > fast.operators["f"].seconds


def test_scaled_profile_is_linear():
    graph = simple_graph()
    profile = Profiler().profile(
        graph, {"src": [1.0] * 10}, {"src": 5.0}, get_platform("tmote")
    )
    doubled = profile.scaled(2.0)
    assert doubled.rate_factor == pytest.approx(2.0)
    for name in profile.operators:
        assert doubled.operators[name].utilization == pytest.approx(
            2.0 * profile.operators[name].utilization
        )
    for edge in profile.edges:
        assert doubled.edges[edge].bytes_per_sec == pytest.approx(
            2.0 * profile.edges[edge].bytes_per_sec
        )


def test_scaled_profiles_link_their_unscaled_base():
    """A chain of ``scaled`` calls keeps the profile it started from and
    the product of its factors; any other profile is its own base."""
    from repro.workbench.artifacts import from_document, to_document

    graph = simple_graph()
    profile = Profiler().profile(
        graph, {"src": [1.0] * 4}, {"src": 2.0}, get_platform("tmote")
    )
    assert profile.base is profile and profile.base_factor == 1.0
    chained = profile.scaled(2.0).scaled(3.0)
    assert chained.base is profile and chained.base_factor == 6.0
    restricted = chained.restricted_to({"f"})
    assert restricted.base is restricted and restricted.base_factor == 1.0
    decoded = from_document(to_document(chained), graph=graph)
    assert decoded.rate_factor == 6.0
    assert decoded.base is decoded and decoded.base_factor == 1.0


def test_scaled_rejects_negative():
    graph = simple_graph()
    profile = Profiler().profile(
        graph, {"src": [1.0]}, {"src": 1.0}, get_platform("server")
    )
    with pytest.raises(ValueError):
        profile.scaled(-1.0)


def test_multi_source_interleaving_by_rate():
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
    graph = builder.build()
    Profiler().measure(
        graph,
        {"fast": [1, 2, 3, 4], "slow": [1, 2]},
        {"fast": 4.0, "slow": 2.0},
    )
    # fast emits at t=0,.25,.5,.75; slow at t=0,.5
    assert order.count("fast") == 4 and order.count("slow") == 2
    assert order.index("slow") <= 2


def test_input_validation():
    graph = simple_graph()
    profiler = Profiler()
    with pytest.raises(Exception):
        profiler.measure(graph, {"nope": [1]}, {"nope": 1.0})
    with pytest.raises(ValueError, match="match"):
        profiler.measure(graph, {"src": [1]}, {})
    with pytest.raises(ValueError, match="rate"):
        profiler.measure(graph, {"src": [1]}, {"src": 0.0})
    with pytest.raises(ValueError, match="empty"):
        profiler.measure(graph, {"src": []}, {"src": 1.0})
    with pytest.raises(ValueError, match="batch_size"):
        Profiler(batch_size=0)


def test_restricted_to_subset():
    graph = simple_graph()
    profile = Profiler().profile(
        graph, {"src": [1.0] * 4}, {"src": 2.0}, get_platform("server")
    )
    sub = profile.restricted_to({"f"})
    assert set(sub.operators) == {"f"}
    assert len(sub.edges) == len(profile.edges)


def _scenario_case(name, overrides):
    scen = get_scenario(name)
    params = scen.resolve_params(overrides)
    graph = scen.build(params)
    data, rates = scen.inputs(params)
    return graph, data, rates


def test_measure_rejects_unknown_plan_source_with_typed_error():
    graph, data, rates = _scenario_case("eeg", {"n_channels": 4,
                                                "duration_s": 2.0})
    with pytest.raises(ExecutionPlanError, match="absent from the sample"):
        Profiler().measure(
            graph, data, rates, plan=ExecutionPlan(sources=("nope",))
        )
    with pytest.raises(ExecutionPlanError, match="not sources of"):
        Profiler().measure(
            graph, {**data, "featureVector": []}, rates,
            plan=ExecutionPlan(sources=("featureVector",)),
        )


def test_measure_plan_requires_rates_for_selected_sources():
    graph, data, _ = _scenario_case("eeg", {"n_channels": 4,
                                            "duration_s": 2.0})
    with pytest.raises(ExecutionPlanError, match="no rates"):
        Profiler().measure(graph, data, plan=ExecutionPlan())


def test_profiler_validates_batch_size():
    with pytest.raises(ValueError, match="batch_size"):
        Profiler(batch_size=0)


BATCH_SIZE_CASES = [
    ("eeg", {"n_channels": 6, "duration_s": 4.0}),
    ("speech", {}),
    ("leak", {}),
]


@pytest.mark.parametrize("name,overrides", BATCH_SIZE_CASES)
def test_batch_size_leaves_the_measurement_byte_identical(name, overrides):
    # batch_size is left out of the store's profile content key on
    # exactly this property: chunking keeps per-source element order,
    # so counts and bytes cannot depend on it.
    graph, data, rates = _scenario_case(name, overrides)
    ref = {"scenario": name}
    expected = canonical_json(
        Profiler(batch=True).measure(graph, data, rates), ref
    )
    for batch_size in (1, 7):
        graph, data, rates = _scenario_case(name, overrides)
        chunked = Profiler(batch=True, batch_size=batch_size).measure(
            graph, data, rates
        )
        assert canonical_json(chunked, ref) == expected, batch_size


def test_batch_size_plan_hits_the_plain_sessions_store_entry():
    store = ProfileStore()
    params = {"n_channels": 4, "duration_s": 4.0}
    plain = Session("eeg", store=store, params=params).measurement()
    assert (store.stats.hits, store.stats.misses) == (0, 1)
    chunked = Session("eeg", store=store, params=params).measurement(
        plan=ExecutionPlan(batch_size=7)
    )
    assert (store.stats.hits, store.stats.misses) == (1, 1)
    ref = {"scenario": "eeg"}
    assert canonical_json(chunked, ref) == canonical_json(plain, ref)


def test_session_profile_accepts_a_plan():
    session = Session(
        "eeg", params={"n_channels": 4, "duration_s": 4.0}
    )
    baseline = session.profile()
    planned = session.profile(plan=ExecutionPlan(batch=False))
    assert set(planned.operators) == set(baseline.operators)
    for name, profile in baseline.operators.items():
        assert planned.operators[name].seconds == pytest.approx(
            profile.seconds
        )


def test_session_profile_plan_none_uses_cached_path():
    session = Session(
        "eeg", params={"n_channels": 4, "duration_s": 4.0}
    )
    first = session.profile()
    second = session.profile()
    assert set(first.operators) == set(second.operators)
    # The backing store must have answered the repeat from cache.
    assert session.store.stats.hits >= 1
