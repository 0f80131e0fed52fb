"""Speech detection across platforms: the paper's §6.2/§7 workflow.

1. Build the 8-stage MFCC pipeline and profile it on synthetic audio.
2. Compare platforms: where does the optimal cut fall, and at what rate?
3. Deploy the chosen TMote partition on a simulated 20-mote testbed and
   measure goodput — then actually run the data through it end to end.

Run:  python examples/speech_detection.py
"""

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
)
from repro.apps.speech import (
    DEPLOYMENT_CUTPOINTS,
    FRAMES_PER_SEC,
    PIPELINE_ORDER,
    node_set_for_cut,
)
from repro.viz import profile_table, series_table


def main():
    graph = build_speech_pipeline()
    audio = synth_speech_audio(duration_s=4.0, seed=0)
    measurement = Profiler().measure(
        graph, {"source": audio.frames()}, {"source": FRAMES_PER_SEC}
    )

    # -- per-platform partitioning -------------------------------------
    print("Optimal partitioning per platform "
          "(alpha=0, beta=1 — minimize bandwidth under CPU budget):\n")
    rows = []
    for name in ("tmote", "n80", "iphone", "gumstix", "meraki"):
        platform = get_platform(name)
        profile = measurement.on(platform)
        wishbone = Wishbone(
            objective=PartitionObjective(alpha=0.0, beta=1.0),
            mode=RelocationMode.PERMISSIVE,
        )
        outcome = RateSearch(wishbone, tolerance=0.02).search(profile)
        if outcome.result is None:
            rows.append([name, "-", "infeasible", "-", "-"])
            continue
        partition = outcome.result.partition
        cut = max(
            (op for op in partition.node_set),
            key=PIPELINE_ORDER.index,
        )
        rows.append([
            name,
            f"x{outcome.rate_factor:.3f}",
            f"{outcome.rate_factor * FRAMES_PER_SEC:.1f} ev/s",
            f"after {cut}",
            f"{partition.cpu_utilization:.0%}",
        ])
    print(series_table(
        ["platform", "max rate", "events/s", "optimal cut", "node CPU"],
        rows,
    ))

    # -- Figure 7 style profile ------------------------------------------
    tmote_profile = measurement.on(get_platform("tmote"))
    print("\nTMote Sky profile (Figure 7):\n")
    print(profile_table(tmote_profile, PIPELINE_ORDER,
                        per_event_divisor=audio.n_frames))

    # -- deployment on a 20-mote testbed ----------------------------------
    print("\nDeployment predictions, 20-TMote testbed (Figure 10):\n")
    testbed = Testbed(get_platform("tmote"), n_nodes=20)
    rows = []
    for index, cut in enumerate(DEPLOYMENT_CUTPOINTS, start=1):
        deployment = Deployment(
            tmote_profile, node_set_for_cut(graph, cut), testbed
        )
        prediction = deployment.analyze()
        rows.append([
            index,
            cut,
            f"{prediction.input_fraction:.1%}",
            f"{prediction.msg_reception:.1%}",
            f"{prediction.goodput:.2%}",
        ])
    print(series_table(
        ["cut", "cutpoint", "input processed", "msgs received", "goodput"],
        rows,
    ))

    # -- full data-level run at the compute-bound cut ---------------------
    print("\nEnd-to-end run (cut 6, 20 nodes, 4 s of audio):")
    deployment = Deployment(
        tmote_profile, node_set_for_cut(graph, "cepstrals"), testbed
    )
    stats = deployment.run(
        {"source": audio.frames()}, {"source": FRAMES_PER_SEC}, seed=0
    )
    print(f"  packets sent {stats.packets_sent}, delivered "
          f"{stats.packets_delivered}; measured goodput "
          f"{stats.goodput:.2%}")
    detections = stats.server_outputs.get("results", [])
    print(f"  server received {len(detections)} detection decisions "
          f"({sum(detections)} speech frames flagged)")


if __name__ == "__main__":
    main()
