"""Platform explorer: one program, many targets (the heterogeneity story).

The paper's pitch is writing the application once and letting Wishbone
re-partition it for each platform.  This example sweeps every modeled
platform for the speech pipeline and reports, per platform:

* the compute-bound sustainable rate with everything on the node;
* the optimal cut and sustainable rate under each platform's own radio;
* the predicted deployment goodput at that operating point;

and writes colorized GraphViz files (one per platform) showing the
chosen partitions.

Run:  python examples/platform_explorer.py [output-dir]
"""

import sys
from pathlib import Path

from repro import (
    Deployment,
    PartitionObjective,
    Profiler,
    RateSearch,
    RelocationMode,
    Testbed,
    Wishbone,
    build_speech_pipeline,
    get_platform,
    synth_speech_audio,
    write_dot,
)
from repro.apps.speech import FRAMES_PER_SEC, PIPELINE_ORDER
from repro.platforms import PLATFORMS
from repro.viz import bar_chart, series_table


def main(output_dir: str = "platform-partitions"):
    graph = build_speech_pipeline()
    audio = synth_speech_audio(duration_s=4.0, seed=0)
    measurement = Profiler().measure(
        graph, {"source": audio.frames()}, {"source": FRAMES_PER_SEC}
    )
    out = Path(output_dir)
    out.mkdir(exist_ok=True)

    embedded = [
        name for name, platform in PLATFORMS.items()
        if platform.radio is not None
    ]
    rows = []
    rates_for_chart = []
    for name in embedded:
        platform = get_platform(name)
        profile = measurement.on(platform)

        all_on_node = profile.node_cpu_utilization(set(PIPELINE_ORDER))
        compute_bound = 1.0 / all_on_node if all_on_node > 0 else float("inf")

        wishbone = Wishbone(
            objective=PartitionObjective(alpha=0.0, beta=1.0),
            mode=RelocationMode.PERMISSIVE,
        )
        outcome = RateSearch(wishbone, tolerance=0.02).search(profile)
        if outcome.result is None:
            rows.append([name, f"x{compute_bound:.3f}", "-", "-", "-"])
            rates_for_chart.append((name, 0.0))
            continue
        partition = outcome.result.partition
        cut = max(partition.node_set, key=PIPELINE_ORDER.index)

        testbed = Testbed(platform, n_nodes=1)
        goodput = Deployment(
            profile.scaled(outcome.rate_factor),
            partition.node_set,
            testbed,
        ).analyze().goodput

        rows.append([
            name,
            f"x{compute_bound:.3f}",
            f"x{outcome.rate_factor:.3f}",
            f"after {cut}",
            f"{goodput:.0%}",
        ])
        rates_for_chart.append((name, outcome.rate_factor))

        path = write_dot(
            graph,
            out / f"{name}.dot",
            profile=profile,
            node_set=partition.node_set,
            title=f"{name}: cut after {cut}",
        )
        print(f"wrote {path}")

    print("\nPer-platform summary (speech detection):\n")
    print(series_table(
        ["platform", "compute-bound rate", "sustainable rate",
         "optimal cut", "goodput @ rate"],
        rows,
    ))

    print("\nSustainable rate (multiple of 8 kHz):\n")
    print(bar_chart(
        [name for name, _ in rates_for_chart],
        [rate for _, rate in rates_for_chart],
        unit="x",
    ))


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["platform-partitions"]))
