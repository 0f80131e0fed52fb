"""Compare a freshly generated BENCH_*.json against the committed baseline.

Fails (exit 1) when a watched metric regresses by more than the allowed
tolerance.  The watched metrics are *relative* speedups rather than raw
elements/second: CI runners and the machines baselines were recorded on
differ widely in absolute speed, but the batched/scalar and tuned/plain
ratios are properties of the code, not the hardware.

Usage:
    python benchmarks/check_bench_regression.py \
        --baseline BENCH_profiler.json --fresh fresh.json \
        --metric element_throughput.eeg.speedup \
        --metric element_throughput.speech.speedup \
        [--tolerance 0.30]

Each ``--metric`` is a dotted path into the JSON; the check passes while
``fresh >= baseline * (1 - tolerance)`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import sys


def lookup(doc: dict, dotted: str) -> float:
    node = doc
    for key in dotted.split("."):
        node = node[key]
    return float(node)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated JSON")
    parser.add_argument("--metric", action="append", required=True,
                        dest="metrics", help="dotted path (repeatable)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args()

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    failed = False
    for metric in args.metrics:
        base_value = lookup(baseline, metric)
        fresh_value = lookup(fresh, metric)
        floor = base_value * (1.0 - args.tolerance)
        status = "ok" if fresh_value >= floor else "REGRESSION"
        if fresh_value < floor:
            failed = True
        print(
            f"{metric}: baseline={base_value:.3f} fresh={fresh_value:.3f} "
            f"floor={floor:.3f} [{status}]"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
