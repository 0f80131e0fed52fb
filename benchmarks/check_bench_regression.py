"""Compare a freshly generated BENCH_*.json against the committed baseline.

Fails (exit 1) when a watched metric regresses by more than the allowed
tolerance.  The watched metrics are *relative* speedups rather than raw
elements/second: CI runners and the machines baselines were recorded on
differ widely in absolute speed, but the batched/scalar and tuned/plain
ratios are properties of the code, not the hardware.  Deterministic
counts (branch-and-bound nodes) are gated the other way round with
``--lower-is-better``.

Usage:
    python benchmarks/check_bench_regression.py \\
        --baseline BENCH_profiler.json --fresh fresh.json \\
        --metric element_throughput.eeg.speedup \\
        --metric element_throughput.speech.speedup \\
        [--tolerance 0.30] [--lower-is-better]

Each ``--metric`` is a dotted path into the JSON; the check passes while
``fresh >= baseline * (1 - tolerance)`` for every metric, or, with
``--lower-is-better``, while ``fresh <= baseline * (1 + tolerance)``.
Under each metric the absolute ``*seconds`` values next to it (and one
level down, e.g. ``tuned.seconds``) are printed for both files, so a
ratio that moved can be traced to the side of it that moved.
"""

from __future__ import annotations

import argparse
import json
import sys


def lookup(doc: dict, dotted: str):
    node = doc
    for key in dotted.split("."):
        node = node[key]
    return node


def sibling_seconds(doc: dict, dotted: str) -> dict[str, float]:
    """The ``*seconds`` values beside ``dotted`` and one level below."""
    parent = lookup(doc, dotted.rpartition(".")[0]) if "." in dotted else doc
    found: dict[str, float] = {}
    for key, value in parent.items():
        if key.endswith("seconds") and isinstance(value, (int, float)):
            found[key] = float(value)
        elif isinstance(value, dict):
            for inner, inner_value in value.items():
                if inner.endswith("seconds") and isinstance(
                    inner_value, (int, float)
                ):
                    found[f"{key}.{inner}"] = float(inner_value)
    return found


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
    parser.add_argument("--lower-is-better", action="store_true",
                        help="fail when a metric rises above "
                             "baseline * (1 + tolerance) instead")
    args = parser.parse_args()

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    failed = False
    for metric in args.metrics:
        base_value = float(lookup(baseline, metric))
        fresh_value = float(lookup(fresh, metric))
        if args.lower_is_better:
            bound = base_value * (1.0 + args.tolerance)
            ok = fresh_value <= bound
            label = "ceiling"
        else:
            bound = base_value * (1.0 - args.tolerance)
            ok = fresh_value >= bound
            label = "floor"
        failed |= not ok
        print(
            f"{metric}: baseline={base_value:.3f} fresh={fresh_value:.3f} "
            f"{label}={bound:.3f} [{'ok' if ok else 'REGRESSION'}]"
        )
        base_seconds = sibling_seconds(baseline, metric)
        fresh_seconds = sibling_seconds(fresh, metric)
        for key in sorted(base_seconds.keys() | fresh_seconds.keys()):
            old = base_seconds.get(key, float("nan"))
            new = fresh_seconds.get(key, float("nan"))
            print(f"    {key}: baseline={old:.3f} fresh={new:.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
