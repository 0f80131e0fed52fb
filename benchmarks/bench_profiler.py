"""Profiler hot-path benchmark: batched vs scalar execution throughput.

Measures the front half of the pipeline — "execute the graph on sample
data and measure per-edge rates and per-operator work" (paper §3) — which
PR 1 left as the dominant figure-experiment cost:

1. ``element_throughput`` — elements/second pushing the EEG (22-channel)
   and speech sample traces through the reference executor, scalar
   (per-element dispatch) vs batched (columnar chunks via ``work_batch``),
   each with peak tracking on and off.  The two modes must produce
   identical aggregate statistics (asserted and reported).

2. ``peak_tracking`` — the cost of peak tracking itself.  It is now
   event-driven (dirty sets + per-bucket deltas) instead of a full-graph
   rescan per element; the overhead fraction reported here is the
   evidence that it no longer scales with E+V per element.

3. ``end_to_end`` — wall-clock of fresh (uncached) profiling runs of the
   figure scenarios, the quantity every fig5/fig6/fig7 driver pays first.

Results are written as machine-readable JSON (default:
``BENCH_profiler.json``) so the perf trajectory is tracked PR over PR;
CI runs ``--smoke`` and gates on regression against the committed
baseline (see ``benchmarks/check_bench_regression.py``).

Run:  PYTHONPATH=src python benchmarks/bench_profiler.py [--smoke] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.apps.eeg import build_eeg_pipeline, synth_eeg
from repro.apps.eeg.pipeline import source_rates
from repro.apps.speech import build_speech_pipeline, synth_speech_audio
from repro.apps.speech.audio import FRAMES_PER_SEC
from repro.profiler.profiler import Measurement, Profiler


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _measurements_agree(a: Measurement, b: Measurement) -> bool:
    """Aggregate statistics and peaks of two runs are identical."""
    for name in a.stats.operators:
        sa, sb = a.stats.operators[name], b.stats.operators[name]
        if (sa.invocations, sa.inputs, sa.outputs) != (
            sb.invocations, sb.inputs, sb.outputs,
        ):
            return False
        if sa.counts.minus(sb.counts).total != 0.0:
            return False
    for edge in a.stats.edge_traffic:
        ea, eb = a.stats.edge_traffic[edge], b.stats.edge_traffic[edge]
        if (ea.elements, ea.bytes, ea.peak_element_bytes) != (
            eb.elements, eb.bytes, eb.peak_element_bytes,
        ):
            return False
    return a.edge_peak_bytes_per_sec == b.edge_peak_bytes_per_sec


def _scenarios(smoke: bool) -> dict:
    """Sample traces sized so batched chunks are representative.

    EEG sources tick at 1 block/s, so the peak-tracking bucket width is
    what bounds a chunk; the benchmark uses wide buckets over a long
    trace (the profiler default of 1 s would chunk per element).
    """
    eeg_channels = 6 if smoke else 22
    eeg_duration = 60.0 if smoke else 240.0
    eeg_bucket = 20.0 if smoke else 60.0
    speech_duration = 5.0 if smoke else 30.0
    recording = synth_eeg(
        n_channels=eeg_channels,
        duration_s=eeg_duration,
        seizure_intervals=(),
        seed=0,
    )
    audio = synth_speech_audio(duration_s=speech_duration, seed=0)
    return {
        "eeg": {
            "build": lambda: build_eeg_pipeline(n_channels=eeg_channels),
            "data": recording.source_data(),
            "rates": source_rates(eeg_channels),
            "bucket_seconds": eeg_bucket,
            "meta": {"channels": eeg_channels, "duration_s": eeg_duration},
        },
        "speech": {
            "build": build_speech_pipeline,
            "data": {"source": audio.frames()},
            "rates": {"source": FRAMES_PER_SEC},
            "bucket_seconds": 1.0,
            "meta": {"duration_s": speech_duration},
        },
    }


def bench_element_throughput(scenarios: dict, repeats: int = 3) -> dict:
    """Scalar vs batched elements/second, peak tracking on and off.

    Each configuration runs ``repeats`` times on a fresh graph and the
    best time is kept — the short batched runs are otherwise dominated by
    warmup noise.
    """
    out: dict = {}
    for name, sc in scenarios.items():
        elements = sum(len(v) for v in sc["data"].values())
        row: dict = dict(sc["meta"])
        row["elements"] = elements
        row["bucket_seconds"] = sc["bucket_seconds"]
        runs: dict[str, Measurement] = {}
        for mode, batch in (("scalar", False), ("batched", True)):
            for peak in (True, False):
                profiler = Profiler(
                    bucket_seconds=sc["bucket_seconds"],
                    track_peak=peak,
                    batch=batch,
                )
                seconds = float("inf")
                for _ in range(repeats):
                    graph = sc["build"]()
                    measurement, elapsed = _timed(
                        lambda: profiler.measure(
                            graph, sc["data"], sc["rates"]
                        )
                    )
                    seconds = min(seconds, elapsed)
                key = f"{mode}_peak_{'on' if peak else 'off'}"
                runs[key] = measurement
                row[key] = {
                    "seconds": seconds,
                    "elements_per_sec": elements / seconds,
                }
        row["speedup_peak_on"] = (
            row["batched_peak_on"]["elements_per_sec"]
            / row["scalar_peak_on"]["elements_per_sec"]
        )
        row["speedup_peak_off"] = (
            row["batched_peak_off"]["elements_per_sec"]
            / row["scalar_peak_off"]["elements_per_sec"]
        )
        row["stats_identical"] = _measurements_agree(
            runs["scalar_peak_on"], runs["batched_peak_on"]
        )
        out[name] = row
    return out


def bench_peak_tracking(throughput: dict) -> dict:
    """Peak-tracking overhead, derived from the throughput runs.

    With the event-driven tracker the overhead is a per-push set insert
    plus one delta per touched edge/operator per *bucket* — independent
    of graph size per element, so the fraction stays small even on the
    1100-operator EEG graph.
    """
    out: dict = {}
    for name, row in throughput.items():
        out[name] = {
            mode: {
                "overhead_fraction": (
                    row[f"{mode}_peak_on"]["seconds"]
                    - row[f"{mode}_peak_off"]["seconds"]
                )
                / row[f"{mode}_peak_off"]["seconds"],
            }
            for mode in ("scalar", "batched")
        }
    return out


def bench_end_to_end(smoke: bool) -> dict:
    """Fresh (uncached) figure-scenario profiling wall-clock."""
    from repro.workbench import ProfileStore

    # Private in-memory stores: a durable REPRO_STORE (or the harnesses'
    # shared store) must not turn these into disk-load timings.
    n_channels = 6 if smoke else 22
    _, speech_seconds = _timed(lambda: ProfileStore().measurement("speech"))
    _, eeg_seconds = _timed(
        lambda: ProfileStore().measurement("eeg", {"n_channels": n_channels})
    )
    return {
        "speech_measurement_seconds": speech_seconds,
        "eeg_measurement_seconds": eeg_seconds,
        "eeg_channels": n_channels,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI (6 EEG channels, short traces)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_profiler.json",
        help="path of the JSON report (default: ./BENCH_profiler.json)",
    )
    args = parser.parse_args()

    report = {
        "benchmark": "profiler",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    total_start = time.perf_counter()
    scenarios = _scenarios(args.smoke)
    report["element_throughput"] = bench_element_throughput(
        scenarios, repeats=2 if args.smoke else 3
    )
    report["peak_tracking"] = bench_peak_tracking(report["element_throughput"])
    report["end_to_end"] = bench_end_to_end(args.smoke)
    report["total_seconds"] = time.perf_counter() - total_start

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"wrote {args.output}")
    for name, row in report["element_throughput"].items():
        print(
            f"{name}: {row['batched_peak_on']['elements_per_sec']:,.0f} "
            f"elem/s batched vs "
            f"{row['scalar_peak_on']['elements_per_sec']:,.0f} scalar "
            f"({row['speedup_peak_on']:.1f}x peak-on, "
            f"{row['speedup_peak_off']:.1f}x peak-off, "
            f"stats_identical={row['stats_identical']})"
        )
    for name, row in report["peak_tracking"].items():
        print(
            f"{name} peak-tracking overhead: "
            f"scalar {row['scalar']['overhead_fraction']:+.1%}, "
            f"batched {row['batched']['overhead_fraction']:+.1%}"
        )
    e2e = report["end_to_end"]
    print(
        f"fresh profiling: speech {e2e['speech_measurement_seconds']:.2f}s, "
        f"eeg {e2e['eeg_measurement_seconds']:.2f}s"
    )


if __name__ == "__main__":
    main()
