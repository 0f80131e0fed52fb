"""Steadiness report: run one workload N times and judge the spread.

Usage (from the repository root)::

    python3 e2ebench/steady.py --workload served-cold --runs 10

Each run gets its own seed (``--first-seed``, +1, ...).  For every
metric the report prints the median, the quartiles, the interquartile
range and the full range (max - min), both as a share of the median,
against the metric's bound in ``BENCHMARK.json``.  A metric whose
quartile spread exceeds a third of its bound is flagged (``setup_s`` is
reported but, having the widest bound, only flagged past the bound).

It also names the failure modes that made earlier benchmarks noisy:

* seed-dependent work: runs with different seeds did different work
  (their work digests differ);
* concurrent process start: a process started while another was still
  starting;
* too few samples behind a percentile: fewer than ten latency samples
  beyond p90.

Exit status 1 when anything is flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import TAIL_SAMPLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return {"report": report, "result": result}


def overlaps(starts: list[dict]) -> bool:
    spans = sorted((s["start"], s["ready"]) for s in starts)
    return any(b[0] < a[1] for a, b in zip(spans, spans[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {
        m["name"]: m.get("bound")
        for m in bench["end_to_end"] + bench["per_layer"]
    }
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        values = {
            k: round(v["value"], 4)
            for k, v in runs[-1]["result"]["metrics"].items()
        }
        print(f"seed {seed}: {values}", file=sys.stderr)

    flags = []
    for run in runs:
        result = run["result"]
        if not result["correct"] or result["failed"]:
            flags.append(
                f"seed {run['report']['seed']}: {result['failed']} of "
                f"{result['attempted']} calls failed or output wrong"
            )
    if len({r["report"]["work_digest"] for r in runs}) > 1:
        flags.append("seed-dependent work: work digests differ across seeds")
    if any(overlaps(r["report"]["process_starts"]) for r in runs):
        flags.append("concurrent process start: start-ups overlapped")
    if args.trace == 0:
        thin = [
            r["report"]["seed"]
            for r in runs
            if r["report"]["latency_samples"] * 0.1 < TAIL_SAMPLES
        ]
        if thin:
            flags.append(
                f"too few samples behind p90 in seeds {thin}"
            )

    print(
        f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}"
    )
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        iqr = (q3 - q1) / median if median else 0.0
        rng = (max(values) - min(values)) / median if median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            limit = bound if name == "setup_s" else bound / 3
            if iqr > limit:
                mark = "  <-- spread"
                flags.append(
                    f"{name}: quartile spread {iqr:.3f} > {limit:.3f}"
                )
            elif rng > bound:
                mark = "  (range > bound)"
        print(
            f"{name:28} {median:12.5g} {q1:12.5g} {q3:12.5g} "
            f"{iqr:8.3f} {rng:8.3f} "
            f"{'' if bound is None else bound:>6}{mark}"
        )
    for flag in flags:
        print(f"FLAG: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
