"""EEG application: wavelet cascade, SVM, seizure logic, end to end."""

import numpy as np
import pytest

from repro.apps.eeg import (
    H_HIGH_EVEN,
    H_HIGH_ODD,
    H_LOW_EVEN,
    H_LOW_ODD,
    LEVELS,
    LinearSVM,
    N_CHANNELS,
    ONSET_RUN,
    OPERATORS_PER_CHANNEL,
    build_eeg_pipeline,
    declare_onsets,
    evaluate_detections,
    expected_operator_count,
    feature_window_samples,
    source_rates,
    synth_eeg,
)
from repro.apps.eeg.pipeline import extract_feature_vectors
from repro.dataflow import run_graph


def test_polyphase_halves_agree_with_full_filter():
    """Even/odd 4-tap halves == decimated 8-tap db4 filtering."""
    from repro.apps.eeg.filters import _DB4_LOW

    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    # Polyphase: even samples through even taps + odd through odd taps,
    # which equals downsampling the full convolution by 2.
    full = np.convolve(np.concatenate([np.zeros(7), x]),
                       _DB4_LOW[::-1], mode="valid")
    assert len(H_LOW_EVEN) == len(H_LOW_ODD) == 4
    decimated = full[1::2]
    assert len(decimated) == 32
    # Our stage: split, filter each branch, add.
    even, odd = x[0::2], x[1::2]

    def branch(signal, taps):
        padded = np.concatenate([np.zeros(3), signal])
        return np.convolve(padded, taps[::-1], mode="valid")

    ours = branch(even, H_LOW_EVEN) + branch(odd, H_LOW_ODD)
    assert np.allclose(ours, decimated, atol=1e-9)


def test_qmf_relationship():
    """High-pass taps are the quadrature mirror of the low-pass."""
    low = np.concatenate([[e, o] for e, o in zip(H_LOW_EVEN, H_LOW_ODD)])
    high = np.concatenate([[e, o] for e, o in zip(H_HIGH_EVEN, H_HIGH_ODD)])
    assert np.allclose(np.abs(high), np.abs(low[::-1]), atol=1e-12)
    # Orthonormality of the scaling filter.
    assert np.sum(low**2) == pytest.approx(1.0, abs=1e-9)


def test_operator_counts():
    assert len(build_eeg_pipeline(n_channels=1)) == expected_operator_count(1)
    assert expected_operator_count(1) == OPERATORS_PER_CHANNEL + 4
    # The headline count for the full 22-channel cap.
    assert expected_operator_count(22) == 22 * OPERATORS_PER_CHANNEL + 4
    assert expected_operator_count(22) > 1000


def test_feature_window_samples_halve_per_level():
    assert feature_window_samples(5) == 16  # 2 s at 8 Hz
    assert feature_window_samples(6) == 8
    assert feature_window_samples(7) == 4
    assert feature_window_samples(LEVELS) >= 1


def test_cascade_reduces_rates(tmp_path):
    """Every level halves the stream (paper: 'the amount of data is
    halved')."""
    from repro.platforms import get_platform
    from repro.profiler import Profiler

    graph = build_eeg_pipeline(n_channels=1)
    recording = synth_eeg(n_channels=1, duration_s=8.0,
                          seizure_intervals=(), seed=0)
    profile = Profiler().profile(
        graph, recording.source_data(), source_rates(1),
        get_platform("server"),
    )
    from repro.apps.eeg import CASCADE_LOWS

    rates = {}
    for level in range(1, CASCADE_LOWS + 1):
        edges = [e for e in graph.edges if e.src == f"ch00.low{level}.add"]
        rates[level] = profile.edges[edges[0]].bytes_per_sec
    for level in range(1, CASCADE_LOWS):
        ratio = rates[level] / max(rates[level + 1], 1e-9)
        assert 1.8 < ratio < 2.3


def test_feature_extraction_shape():
    recording = synth_eeg(n_channels=3, duration_s=20.0,
                          seizure_intervals=(), seed=1)
    features = extract_feature_vectors(recording.source_data(), n_channels=3)
    assert features.shape[1] == 9  # 3 channels x 3 subband energies
    assert features.shape[0] >= 8  # ~one vector per 2 s window
    assert np.isfinite(features).all()


def test_seizure_energy_visible_in_features():
    recording = synth_eeg(n_channels=2, duration_s=40.0,
                          seizure_intervals=((15.0, 25.0),), seed=2)
    features = extract_feature_vectors(recording.source_data(), n_channels=2)
    n = min(len(features), len(recording.window_labels))
    labels = recording.window_labels[:n]
    seizure_mean = features[:n][labels].mean()
    background_mean = features[:n][~labels].mean()
    assert seizure_mean > 3 * background_mean


def test_svm_separates_synthetic_patient():
    train = synth_eeg(n_channels=4, duration_s=60.0,
                      seizure_intervals=((20.0, 32.0),), seed=3)
    features = extract_feature_vectors(train.source_data(), n_channels=4)
    n = min(len(features), len(train.window_labels))
    svm = LinearSVM(epochs=30, seed=0).fit(
        features[:n], train.window_labels[:n]
    )
    assert svm.accuracy(features[:n], train.window_labels[:n]) > 0.9


def test_svm_validation_errors():
    svm = LinearSVM()
    with pytest.raises(ValueError, match="both classes"):
        svm.fit(np.zeros((4, 2)), np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        svm.fit(np.zeros((4, 2)), np.zeros(3, dtype=bool))
    with pytest.raises(RuntimeError):
        svm.predict(np.zeros((1, 2)))


def test_declare_onsets_run_rule():
    predictions = [0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1]
    onsets = declare_onsets(np.array(predictions, dtype=bool), run=ONSET_RUN)
    # First run of 3 at index 3; the 4th positive doesn't re-declare;
    # the final run declares again at index 11.
    assert onsets == [3, 11]


def test_declare_onsets_no_false_trigger_on_short_runs():
    predictions = [1, 1, 0, 1, 1, 0, 1, 1]
    assert declare_onsets(np.array(predictions, dtype=bool)) == []


def test_evaluate_detections_latency_and_false_alarms():
    # Seizure spans windows 10-20 (20 s - 40 s); detector fires from
    # window 11 -> declaration at window 13 (26 s), latency 6 s.
    predictions = np.zeros(30, dtype=bool)
    predictions[11:20] = True
    predictions[27:30] = True  # spurious late run -> false alarm
    report = evaluate_detections(
        predictions, seizure_intervals=((20.0, 40.0),)
    )
    assert report.true_detections == 1
    assert report.false_alarms == 1
    assert report.missed_seizures == 0
    assert report.detection_latency_s[0] == pytest.approx(8.0)
    assert report.sensitivity == 1.0


def test_end_to_end_seizure_detection():
    train = synth_eeg(n_channels=4, duration_s=60.0,
                      seizure_intervals=((20.0, 32.0),), seed=4)
    features = extract_feature_vectors(train.source_data(), n_channels=4)
    n = min(len(features), len(train.window_labels))
    svm = LinearSVM(epochs=30, seed=0).fit(
        features[:n], train.window_labels[:n]
    )
    test = synth_eeg(n_channels=4, duration_s=60.0,
                     seizure_intervals=((30.0, 44.0),), seed=9)
    graph = build_eeg_pipeline(
        n_channels=4,
        svm_weights=svm.weights,
        svm_bias=svm.bias,
        feature_mean=svm._mean,
        feature_std=svm._std,
    )
    executor = run_graph(graph, test.source_data())
    alarms = executor.sink_values("alarms")
    assert len(alarms) >= 1
    # Declared within the seizure (windows 15..22).
    assert 15 <= alarms[0] <= 23


def test_pipeline_weight_validation():
    with pytest.raises(ValueError, match="length"):
        build_eeg_pipeline(n_channels=2, svm_weights=np.ones(5))


def test_default_channel_count():
    assert N_CHANNELS == 22
