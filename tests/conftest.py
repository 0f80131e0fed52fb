"""Shared fixtures: cached profiling runs keep the suite fast."""

from __future__ import annotations

import pytest

from repro.apps.speech import (
    FRAMES_PER_SEC,
    build_speech_pipeline,
    synth_speech_audio,
)
from repro.platforms import get_platform
from repro.profiler import Profiler


@pytest.fixture(scope="session")
def speech_graph():
    return build_speech_pipeline()


@pytest.fixture(scope="session")
def speech_audio():
    return synth_speech_audio(duration_s=2.0, seed=0)


@pytest.fixture(scope="session")
def speech_measurement(speech_graph, speech_audio):
    return Profiler().measure(
        speech_graph,
        {"source": speech_audio.frames()},
        {"source": FRAMES_PER_SEC},
    )


@pytest.fixture(scope="session")
def tmote_speech_profile(speech_measurement):
    return speech_measurement.on(get_platform("tmote"))


@pytest.fixture(scope="session")
def server_speech_profile(speech_measurement):
    return speech_measurement.on(get_platform("server"))
