"""Helper functions of the experiment harnesses."""

import pytest

from repro.experiments import fig5a, fig5b, fig7
from repro.experiments.common import (
    default_store,
    measurement_for,
    profile_for,
)


def test_measurement_cached_but_defensively_copied():
    """Regression for the shared-mutable-cache hazard: the old lru_cache
    handed the *same* StreamGraph/Measurement to every caller, so one
    harness mutating a profile corrupted every other experiment."""
    store = default_store()
    before = store.stats.misses
    graph1, first = measurement_for("speech")
    graph2, second = measurement_for("speech")
    # One profiling run...
    assert store.stats.misses <= before + 1
    # ...but isolated objects per caller.
    assert first is not second
    assert graph1 is not graph2
    assert first.stats is not second.stats
    # Mutations do not leak between callers or into the cache.
    first.duration = -1.0
    first.stats.operators["fft"].invocations = 10**9
    _, third = measurement_for("speech")
    assert third.duration == second.duration
    assert (
        third.stats.operators["fft"].invocations
        == second.stats.operators["fft"].invocations
    )


def test_speech_profile_platform_costing():
    tmote = profile_for("speech", "tmote")
    server = profile_for("speech", "server")
    assert tmote.operators["fft"].seconds > server.operators["fft"].seconds
    assert tmote.platform.name == "tmote"


def test_eeg_profile_small_channels():
    profile = profile_for("eeg", "tmote", n_channels=1)
    assert any(name.startswith("ch00.") for name in profile.operators)


def test_fig5a_series_helper():
    points = [
        fig5a.Fig5aPoint("tmote", 2.0, 10, 0.5, 1.0),
        fig5a.Fig5aPoint("tmote", 1.0, 20, 0.2, 2.0),
        fig5a.Fig5aPoint("n80", 1.0, 30, 0.1, 3.0),
    ]
    series = fig5a.series(points, "tmote")
    assert series == [(1.0, 20), (2.0, 10)]


def test_fig5b_platform_rates_helper():
    bars = [
        fig5b.Fig5bBar("filtbank", 6, "tmote", 0.1, False),
        fig5b.Fig5bBar("filtbank", 6, "n80", 0.2, False),
        fig5b.Fig5bBar("source", 1, "tmote", 100.0, True),
    ]
    rates = fig5b.platform_rates(bars, "filtbank")
    assert rates == {"tmote": 0.1, "n80": 0.2}


def test_fig7_cumulative_lookup():
    rows = fig7.run()
    assert fig7.cumulative_ms_at(rows, "source") < fig7.cumulative_ms_at(
        rows, "cepstrals"
    )
    with pytest.raises(KeyError):
        fig7.cumulative_ms_at(rows, "bogus")


def test_fig5a_partitioner_configuration():
    wishbone = fig5a.partitioner()
    assert wishbone.cpu_budget == 1.0
    assert wishbone.net_budget == float("inf")
