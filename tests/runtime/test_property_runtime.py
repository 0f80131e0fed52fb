"""Property-based tests over the network and deployment models."""

from hypothesis import given, settings, strategies as st

from repro.apps.speech import node_set_for_cut
from repro.network import Testbed
from repro.platforms import RadioSpec, get_platform
from repro.runtime import Deployment


radio_specs = st.builds(
    RadioSpec,
    payload_bytes=st.integers(min_value=16, max_value=1500),
    saturation_pps=st.floats(min_value=1.0, max_value=1000.0),
    base_delivery=st.floats(min_value=0.1, max_value=1.0),
    collapse_rate=st.floats(min_value=0.5, max_value=10.0),
)


@given(radio_specs, st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=60, deadline=None)
def test_delivery_fraction_bounded(spec, offered):
    fraction = spec.delivery_fraction(offered)
    assert 0.0 <= fraction <= spec.base_delivery + 1e-12


@given(
    radio_specs,
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_delivery_monotone_nonincreasing(spec, a, b):
    lo, hi = sorted((a, b))
    assert spec.delivery_fraction(lo) >= spec.delivery_fraction(hi) - 1e-12


@given(radio_specs, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_packets_for_covers_bytes(spec, size):
    packets = spec.packets_for(size)
    assert packets * spec.payload_bytes >= size
    if packets > 0:
        assert (packets - 1) * spec.payload_bytes < size


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=20, deadline=None)
def test_goodput_probability_bounds(n_nodes):
    profile = _speech_profile()
    testbed = Testbed(get_platform("tmote"), n_nodes=n_nodes)
    for cut in ("source", "filtbank", "cepstrals"):
        node_set = node_set_for_cut(profile.graph, cut)
        prediction = Deployment(profile, node_set, testbed).analyze()
        assert 0.0 <= prediction.input_fraction <= 1.0
        assert 0.0 <= prediction.msg_reception <= 1.0
        assert 0.0 <= prediction.goodput <= 1.0
        assert prediction.element_goodput <= prediction.input_fraction + 1e-9


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_goodput_monotone_in_network_size(n_a, n_b):
    """More nodes can never improve per-node goodput (shared root link)."""
    profile = _speech_profile()
    small, large = sorted((n_a, n_b))
    node_set = node_set_for_cut(profile.graph, "filtbank")
    small_prediction = Deployment(
        profile, node_set, Testbed(get_platform("tmote"), n_nodes=small)
    ).analyze()
    large_prediction = Deployment(
        profile, node_set, Testbed(get_platform("tmote"), n_nodes=large)
    ).analyze()
    assert large_prediction.goodput <= small_prediction.goodput + 1e-12


_PROFILE_CACHE = {}


def _speech_profile():
    if "p" not in _PROFILE_CACHE:
        from repro.apps.speech import (
            FRAMES_PER_SEC,
            build_speech_pipeline,
            synth_speech_audio,
        )
        from repro.profiler import Profiler

        graph = build_speech_pipeline()
        audio = synth_speech_audio(duration_s=1.0, seed=0)
        _PROFILE_CACHE["p"] = Profiler().profile(
            graph,
            {"source": audio.frames()},
            {"source": FRAMES_PER_SEC},
            get_platform("tmote"),
        )
    return _PROFILE_CACHE["p"]
