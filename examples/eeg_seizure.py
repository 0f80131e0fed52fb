"""EEG seizure-onset detection: the paper's §6.1 application end to end.

1. Synthesize a "patient": 22-channel EEG with labelled seizures.
2. Train the patient-specific linear SVM on extracted subband features.
3. Build the full ~1200-operator dataflow graph with the trained weights
   and verify it detects a held-out seizure.
4. Profile it on the TMote and the N80 and show how the optimal node
   partition shrinks as the input rate scales (Figure 5(a)).

Run:  python examples/eeg_seizure.py           (trimmed channel count)
      python examples/eeg_seizure.py --full    (all 22 channels; slower)
"""

import sys

from repro import (
    PartitionObjective,
    Profiler,
    RelocationMode,
    Wishbone,
    get_platform,
    run_graph,
)
from repro.apps.eeg import (
    LinearSVM,
    build_eeg_pipeline,
    evaluate_detections,
    expected_operator_count,
    source_rates,
    synth_eeg,
)
from repro.apps.eeg.pipeline import extract_feature_vectors
from repro.viz import series_table


def main(full: bool = False):
    n_channels = 22 if full else 6

    # -- 1. the patient ----------------------------------------------------
    train = synth_eeg(
        n_channels=n_channels,
        duration_s=90.0,
        seizure_intervals=((25.0, 40.0), (60.0, 72.0)),
        seed=11,
    )
    test = synth_eeg(
        n_channels=n_channels,
        duration_s=90.0,
        seizure_intervals=((35.0, 50.0),),
        seed=23,
    )
    print(f"patient: {n_channels} channels, 90 s recordings, "
          f"{len(train.seizure_intervals)} training seizures")

    # -- 2. patient-specific SVM -------------------------------------------
    features = extract_feature_vectors(
        train.source_data(), n_channels=n_channels
    )
    n = min(len(features), len(train.window_labels))
    svm = LinearSVM(epochs=40, seed=0).fit(
        features[:n], train.window_labels[:n]
    )
    print(f"SVM trained on {n} windows "
          "(train accuracy "
          f"{svm.accuracy(features[:n], train.window_labels[:n]):.1%})")

    # -- 3. deploy the trained graph on held-out data -----------------------
    graph = build_eeg_pipeline(
        n_channels=n_channels,
        svm_weights=svm.weights,
        svm_bias=svm.bias,
        feature_mean=svm._mean,
        feature_std=svm._std,
    )
    print(f"graph: {len(graph)} operators "
          f"(22 channels would be {expected_operator_count(22)}; "
          "paper reports 1412)")
    executor = run_graph(graph, test.source_data())
    alarms = executor.sink_values("alarms")
    test_features = extract_feature_vectors(
        test.source_data(), n_channels=n_channels
    )
    m = min(len(test_features), len(test.window_labels))
    report = evaluate_detections(
        svm.predict(test_features[:m]), test.seizure_intervals
    )
    print(f"held-out seizure at 35-50 s: alarms at windows {alarms} "
          f"(seizure spans windows 17-25)")
    print(f"event-level: sensitivity {report.sensitivity:.0%}, "
          f"{report.false_alarms} false alarms, "
          f"latency {report.detection_latency_s} s")

    # -- 4. partitioning across rates (Figure 5(a) flavour) -----------------
    print("\noptimal node partition vs input rate (one channel graph):\n")
    single = build_eeg_pipeline(n_channels=1)
    recording = synth_eeg(n_channels=1, duration_s=8.0,
                          seizure_intervals=(), seed=0)
    measurement = Profiler().measure(
        single, recording.source_data(), source_rates(1)
    )
    wishbone = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=1.0,
        net_budget=float("inf"),
    )
    rows = []
    for platform_name in ("tmote", "n80"):
        probe = wishbone.prepare_probe(
            measurement.on(get_platform(platform_name))
        )
        for factor in (1.0, 5.0, 10.0, 15.0, 20.0):
            result = probe.try_partition(factor)
            ops = len(result.partition.node_set) if result else 0
            cpu = result.partition.cpu_utilization if result else 0.0
            rows.append([platform_name, f"x{factor:.0f}", ops, f"{cpu:.0%}"])
    print(series_table(
        ["platform", "rate", "node operators", "node CPU"], rows
    ))


if __name__ == "__main__":
    main(full="--full" in sys.argv)
