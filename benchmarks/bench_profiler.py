"""Profiler hot-path benchmark: batched vs scalar execution throughput.

Measures the front half of the pipeline — "execute the graph on sample
data and measure per-edge rates and per-operator work" (paper §3) — which
PR 1 left as the dominant figure-experiment cost:

1. ``element_throughput`` — elements/second pushing the EEG (22-channel)
   and speech sample traces through the reference executor, scalar
   (per-element dispatch) vs batched (columnar chunks via ``work_batch``).
   The two modes must produce identical aggregate statistics (asserted
   and reported as ``stats_identical``).

2. ``end_to_end`` — wall-clock of fresh (uncached) profiling runs of the
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
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor

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
    """Aggregate statistics of two runs are identical."""
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
    return a.stats.source_inputs == b.stats.source_inputs


#: The throughput runs are spread over this many fresh processes, with
#: this many runs per (scenario, mode) in each; the best of all is kept.
PROCESSES = 4
REPEATS = 5

MODES = (("scalar", False), ("batched", True))


def _scenarios(smoke: bool) -> dict:
    """Sample traces sized so batched chunks are representative.

    Batched profiling sends each source's whole trace as one chunk, so
    the trace length sets the chunk size.  Smoke runs shrink the EEG
    graph and trace; the speech trace is the full-size one in both
    (about 0.15 s per scalar run), since a shorter trace leaves the
    batched run too short to time steadily.
    """
    eeg_channels = 6 if smoke else 22
    eeg_duration = 60.0 if smoke else 240.0
    speech_duration = 30.0
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
            "meta": {"channels": eeg_channels, "duration_s": eeg_duration},
        },
        "speech": {
            "build": build_speech_pipeline,
            "data": {"source": audio.frames()},
            "rates": {"source": FRAMES_PER_SEC},
            "meta": {"duration_s": speech_duration},
        },
    }


def _measure_in_child(smoke: bool, repeats: int) -> dict:
    """One process's sample: per scenario, the best wall time of each
    mode over ``repeats`` runs and whether the modes' statistics agree.

    The runs round-robin over every (scenario, mode) pair, so each
    pair's samples spread across the whole call.
    """
    scenarios = _scenarios(smoke)
    best: dict[tuple[str, str], float] = {}
    runs: dict[tuple[str, str], Measurement] = {}
    for _ in range(repeats):
        for name, sc in scenarios.items():
            for mode, batch in MODES:
                graph = sc["build"]()
                profiler = Profiler(batch=batch)
                runs[name, mode], elapsed = _timed(
                    lambda: profiler.measure(graph, sc["data"], sc["rates"])
                )
                best[name, mode] = min(
                    best.get((name, mode), float("inf")), elapsed
                )
    return {
        name: {
            **sc["meta"],
            "elements": sum(len(v) for v in sc["data"].values()),
            "seconds": {mode: best[name, mode] for mode, _ in MODES},
            "stats_identical": _measurements_agree(
                runs[name, "scalar"], runs[name, "batched"]
            ),
        }
        for name, sc in scenarios.items()
    }


def bench_element_throughput(smoke: bool) -> dict:
    """Scalar vs batched elements/second.

    The best time over all runs is kept: the short batched runs are
    otherwise dominated by warmup and scheduler noise.  On a shared
    2-vCPU host a whole process can also run slow (about one fresh
    process in five timed the batched speech run at 9–17 ms instead of
    6.4–7.3 ms, for every run it made), so the runs are spread over
    :data:`PROCESSES` fresh processes, one at a time.
    """
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=1, mp_context=ctx, max_tasks_per_child=1
    ) as pool:
        samples = [
            pool.submit(_measure_in_child, smoke, REPEATS).result()
            for _ in range(PROCESSES)
        ]

    out: dict = {}
    for name, first in samples[0].items():
        row = {
            key: value
            for key, value in first.items()
            if key not in ("seconds", "stats_identical")
        }
        seconds = {
            mode: min(sample[name]["seconds"][mode] for sample in samples)
            for mode, _ in MODES
        }
        for mode, _ in MODES:
            row[mode] = {
                "seconds": seconds[mode],
                "elements_per_sec": row["elements"] / seconds[mode],
            }
        row["speedup"] = seconds["scalar"] / seconds["batched"]
        row["stats_identical"] = all(
            sample[name]["stats_identical"] for sample in samples
        )
        out[name] = row
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
        "cpu_count": os.cpu_count(),
    }
    total_start = time.perf_counter()
    report["element_throughput"] = bench_element_throughput(args.smoke)
    report["end_to_end"] = bench_end_to_end(args.smoke)
    report["total_seconds"] = time.perf_counter() - total_start

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"wrote {args.output}")
    for name, row in report["element_throughput"].items():
        print(
            f"{name}: {row['batched']['elements_per_sec']:,.0f} "
            f"elem/s batched vs "
            f"{row['scalar']['elements_per_sec']:,.0f} scalar "
            f"({row['speedup']:.1f}x, "
            f"stats_identical={row['stats_identical']})"
        )
    e2e = report["end_to_end"]
    print(
        f"fresh profiling: speech {e2e['speech_measurement_seconds']:.2f}s, "
        f"eeg {e2e['eeg_measurement_seconds']:.2f}s"
    )


if __name__ == "__main__":
    main()
