"""Assemble the 22-channel EEG seizure-detection graph (paper §6.1).

Node namespace: 22 channel cascades, each producing 3 subband energies
per 2-second window, zipped into a 66-element feature vector, classified
by a linear SVM.  Server namespace: the stateful 3-consecutive-window
onset detector and the result sink.

"If the entire application fits on the embedded node, then the data
stream is reduced to only a feature vector — an enormous data reduction.
But data is also reduced by each stage of processing on each channel,
offering many intermediate points which are profitable to consider."
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...dataflow.builder import GraphBuilder
from ...dataflow.graph import OperatorContext, StreamGraph
from ...dataflow.operators import zip_n
from .channel import (
    FEATURES_PER_CHANNEL,
    OPERATORS_PER_CHANNEL,
    get_channel_features,
)
from .seizure import ONSET_RUN

#: Default channel count (paper: a 22-channel monitoring cap).
N_CHANNELS = 22

#: Global operators beyond the channels: feature zip, SVM, onset, sink.
GLOBAL_OPERATORS = 4


def expected_operator_count(n_channels: int = N_CHANNELS) -> int:
    """Total operators the builder instantiates (see EXPERIMENTS.md for
    the comparison against the paper's 1412)."""
    return n_channels * OPERATORS_PER_CHANNEL + GLOBAL_OPERATORS


def _flatten_features(item: Any) -> np.ndarray:
    """Flatten the nested zip output into the 66-element feature vector."""
    flat: list[float] = []

    def walk(value: Any) -> None:
        if isinstance(value, tuple):
            for v in value:
                walk(v)
        else:
            flat.append(float(value))

    walk(item)
    return np.asarray(flat)


def build_eeg_pipeline(
    n_channels: int = N_CHANNELS,
    svm_weights: np.ndarray | None = None,
    svm_bias: float = 0.0,
    feature_mean: np.ndarray | None = None,
    feature_std: np.ndarray | None = None,
    name: str = "eeg",
) -> StreamGraph:
    """Build the EEG graph.

    Args:
        n_channels: channels on the monitoring cap (22 in the paper).
        svm_weights: trained SVM weights over the feature vector (length
            ``3 * n_channels``); defaults to a raw-energy heuristic so the
            graph runs untrained (features are dominated by seizure
            energy).
        svm_bias: SVM bias term.
        feature_mean / feature_std: standardisation learned at training.
    """
    n_features = FEATURES_PER_CHANNEL * n_channels
    if svm_weights is None:
        svm_weights = np.ones(n_features) / n_features
        svm_bias = -2.0 if svm_bias == 0.0 else svm_bias
    svm_weights = np.asarray(svm_weights, dtype=float)
    if len(svm_weights) != n_features:
        raise ValueError(
            f"svm_weights must have length {n_features}, "
            f"got {len(svm_weights)}"
        )
    mean = (
        np.zeros(n_features) if feature_mean is None
        else np.asarray(feature_mean, float)
    )
    std = (
        np.ones(n_features) if feature_std is None
        else np.asarray(feature_std, float)
    )

    builder = GraphBuilder(name)
    with builder.node():
        channel_streams = [
            get_channel_features(builder, channel)
            for channel in range(n_channels)
        ]
        vector = zip_n(
            builder,
            "featureVector",
            channel_streams,
            output_size=4 * n_features,
        )

        def svm_work(ctx: OperatorContext, port: int, item: Any) -> None:
            features = _flatten_features(item)
            z = (features - mean) / std
            score = float(z @ svm_weights + svm_bias)
            ctx.count(float_ops=float(3 * len(features) + 1),
                      mem_ops=float(2 * len(features)),
                      loop_iterations=float(len(features)))
            ctx.emit(score > 0.0)

        def svm_batch(ctx: OperatorContext, port: int, values: Any) -> Any:
            features = np.stack([_flatten_features(v) for v in values])
            z = (features - mean) / std
            scores = z @ svm_weights + svm_bias
            k, width = features.shape
            ctx.count(float_ops=float(3 * width + 1) * k,
                      mem_ops=float(2 * width) * k,
                      loop_iterations=float(width) * k)
            return [bool(score > 0.0) for score in scores]

        decisions = builder.iterate("svm", vector, svm_work, output_size=1,
                                    work_batch=svm_batch)

    def onset_work(ctx: OperatorContext, port: int, item: Any) -> None:
        state = ctx.state
        ctx.count(int_ops=3.0)
        if item:
            state["run"] += 1
            if state["run"] >= ONSET_RUN and not state["declared"]:
                state["declared"] = True
                ctx.emit(state["window"])
        else:
            state["run"] = 0
            state["declared"] = False
        state["window"] += 1

    onsets = builder.iterate(
        "onset",
        decisions,
        onset_work,
        make_state=lambda: {"run": 0, "declared": False, "window": 0},
    )
    builder.sink("alarms", onsets)
    return builder.build()


def source_rates(n_channels: int = N_CHANNELS) -> dict[str, float]:
    """Per-source block rates: one 256-sample block per second."""
    return {f"ch{c:02d}.source": 1.0 for c in range(n_channels)}


def extract_feature_vectors(
    source_data: dict[str, list[Any]],
    n_channels: int = N_CHANNELS,
    plan: "ExecutionPlan | None" = None,
) -> np.ndarray:
    """Run only the feature-extraction part; return (n_windows, 66) array.

    Used to train the patient-specific SVM: the cascade through the
    ``featureVector`` zip runs in-process, and the vectors that would be
    handed to the SVM are captured at the boundary.

    The default plan interleaves channels block-by-block (equal-rate
    virtual-time merge — the order simultaneous sampling would produce);
    pass e.g. ``ExecutionPlan(interleave=False, batch=True)`` to drive
    the extraction vectorized instead.  The returned array is one row
    per window either way.
    """
    from ...dataflow.execute import ExecutionPlan
    from ...runtime.node import BoundedExecutor

    graph = build_eeg_pipeline(n_channels=n_channels)
    feature_set = frozenset(
        name
        for name in graph.operators
        if name not in ("svm", "onset", "alarms")
    )
    executor = BoundedExecutor(graph, feature_set)
    names = sorted(source_data)
    lengths = {len(source_data[n]) for n in names}
    if len(lengths) > 1:
        raise ValueError("all channels must have the same trace length")
    if plan is None:
        plan = ExecutionPlan(sources=tuple(names))
    boundary = executor.run(source_data, plan)
    vectors = [_flatten_features(value) for _, value in boundary]
    return np.stack(vectors) if vectors else np.zeros((0, 3 * n_channels))


def svm_decisions_from_run(executor_sink: list[Any]) -> list[int]:
    """Convenience: the alarm sink collects declared onset window indices."""
    return [int(v) for v in executor_sink]
