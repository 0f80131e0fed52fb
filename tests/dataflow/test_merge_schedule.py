"""Edge cases and order invariants of the virtual-time merge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import GraphError
from repro.dataflow.execute import merge_schedule


def _flatten(schedule):
    """(name, element-index) pairs in delivery order."""
    return [
        (run.name, index)
        for run in schedule
        for index in range(run.start, run.stop)
    ]


def test_non_positive_rate_raises_graph_error():
    with pytest.raises(GraphError, match="non-positive rate"):
        merge_schedule({"a": 3}, {"a": 0.0})
    with pytest.raises(GraphError, match="non-positive rate"):
        merge_schedule({"a": 3, "b": 2}, {"a": 1.0, "b": -2.0})


def test_empty_sources_are_skipped_entirely():
    # A zero-length trace contributes nothing — even its (possibly
    # invalid) rate is never consulted, matching "no elements, no time".
    schedule = merge_schedule({"a": 2, "b": 0}, {"a": 1.0, "b": 1.0})
    assert _flatten(schedule) == [("a", 0), ("a", 1)]
    assert merge_schedule({}, None) == []
    assert merge_schedule({"a": 0}, None) == []


def test_grouped_schedule_is_one_run_per_source():
    schedule = merge_schedule(
        {"b": 4, "a": 4, "c": 0}, {"a": 10.0, "b": 10.0}, grouped=True
    )
    assert [(run.name, run.start, run.stop) for run in schedule] == [
        ("a", 0, 4), ("b", 0, 4),
    ]


def test_ties_break_by_source_name():
    # Equal rates put element i of every source at the same timestamp;
    # delivery order within the tie is the sorted source name,
    # independent of dict insertion order.
    schedule = merge_schedule({"zz": 2, "aa": 2}, {"zz": 1.0, "aa": 1.0})
    assert _flatten(schedule) == [
        ("aa", 0), ("zz", 0), ("aa", 1), ("zz", 1)
    ]


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.floats(min_value=0.1, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=5,
    ),
    order=st.randoms(use_true_random=False),
)
def test_merged_order_invariant_under_source_permutation(specs, order):
    names = [f"s{i}" for i in range(len(specs))]
    lengths = {n: count for n, (count, _) in zip(names, specs)}
    rates = {n: rate for n, (_, rate) in zip(names, specs)}

    reference = _flatten(merge_schedule(lengths, rates))

    shuffled = list(names)
    order.shuffle(shuffled)
    permuted_lengths = {n: lengths[n] for n in shuffled}
    permuted_rates = {n: rates[n] for n in shuffled}
    assert _flatten(
        merge_schedule(permuted_lengths, permuted_rates)
    ) == reference

    # The schedule is a complete, duplicate-free cover of every trace.
    assert sorted(reference) == sorted(
        (n, i) for n in names for i in range(lengths[n])
    )


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.floats(min_value=0.1, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_grouped_and_scalar_schedules_cover_identically(specs):
    # Grouped and strict schedules deliver the same elements, and each
    # source's elements in the same order; only the cross-source
    # interleaving differs.
    names = [f"s{i}" for i in range(len(specs))]
    lengths = {n: count for n, (count, _) in zip(names, specs)}
    rates = {n: rate for n, (_, rate) in zip(names, specs)}
    scalar = _flatten(merge_schedule(lengths, rates))
    grouped = _flatten(merge_schedule(lengths, rates, grouped=True))
    assert sorted(scalar) == sorted(grouped)
    for name in names:
        expected = [(name, i) for i in range(lengths[name])]
        assert [p for p in scalar if p[0] == name] == expected
        assert [p for p in grouped if p[0] == name] == expected
