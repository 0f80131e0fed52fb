"""Water-pipeline leak detection with in-network aggregation (§9).

A 40-node pipeline monitoring network: every node band-passes its
vibration signal and reports the RMS energy in the leak band.  The
network-average "reduce" operator can run in-network (tree aggregation:
the root link carries ONE combined stream) or on the server (the root
link carries 40 streams and collapses).

The example partitions the app with and without aggregation-aware edge
costs, deploys both on the simulated testbed, and runs the data end to
end to confirm the leak is detected.

Run:  python examples/pipeline_leak.py
"""

from repro import (
    Deployment,
    PartitionObjective,
    Profiler,
    RelocationMode,
    Testbed,
    Wishbone,
    get_platform,
    run_graph,
)
from repro.apps.leak import (
    WINDOWS_PER_SEC,
    build_leak_pipeline,
    synth_leak_data,
)
from repro.viz import series_table

N_NODES = 40


def main():
    graph = build_leak_pipeline(threshold=2.0)
    calm = synth_leak_data(duration_s=10.0, leak_start_s=None, seed=0)
    profile = Profiler().profile(
        graph,
        calm.source_data(),
        {"vibration": WINDOWS_PER_SEC},
        get_platform("tmote"),
    )

    # -- partition with and without aggregation-aware costs -------------
    plain = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=2.0,
    ).partition(profile)
    aware = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=2.0,
        aggregate_fanin=N_NODES,
    ).partition(profile)
    print("partitioning the leak app for the TMote:")
    print("  plain two-tier ILP:      node = "
          f"{sorted(plain.partition.node_set)}")
    print(f"  aggregation-aware (N={N_NODES}): node = "
          f"{sorted(aware.partition.node_set)}")

    # -- deployment comparison on the shared channel ----------------------
    testbed = Testbed(get_platform("tmote"), n_nodes=N_NODES)
    rows = []
    for label, node_set in (
        ("reduce on server", frozenset({"vibration", "bandpass", "rms"})),
        ("reduce in-network", frozenset(
            {"vibration", "bandpass", "rms", "netAverage"})),
    ):
        prediction = Deployment(profile, node_set, testbed).analyze()
        rows.append([
            label,
            f"{prediction.offered_pps:.1f}",
            f"{prediction.msg_reception:.1%}",
            f"{prediction.goodput:.1%}",
        ])
    print(f"\n{N_NODES}-node deployment, root-link view:\n")
    print(series_table(
        ["placement", "root link pps", "msgs received", "goodput"], rows
    ))

    # -- end-to-end detection check ---------------------------------------
    leaky = synth_leak_data(duration_s=30.0, leak_start_s=15.0, seed=3)
    executor = run_graph(graph, leaky.source_data())
    alarms = executor.sink_values("alarms")
    first = alarms.index(True) if True in alarms else None
    print(f"\nend-to-end: leak starts at window 60; first alarm at window "
          f"{first} ({sum(alarms)} alarm windows total)")


if __name__ == "__main__":
    main()
