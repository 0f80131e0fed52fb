"""Figure 5(a): operators in the optimal node partition vs. input rate.

One EEG channel is partitioned for TMote Sky and Nokia N80 across a sweep
of input-rate multiples.  "As we increased the data rate (moving right),
fewer operators can fit within the CPU bounds on the node (moving down).
The sloping lines show that every stage of processing yields data
reductions."

Configuration follows §7.1: alpha = 0, beta = 1, the CPU may be fully
utilized but not over-utilized (budget 1.0), and bandwidth is
unconstrained (the y-axis is about what *fits*, not what the radio
carries).  Stateful relocation is permissive — the EEG cascade is full of
FIR state, and the paper clearly relocates it.

Note: the paper's x-axis label reads "multiple of 8 kHz"; the EEG app
samples at 256 Hz, so we report multiples of the application's native
rate, which is the quantity actually swept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.partitioner import (
    Formulation,
    PartitionObjective,
    RelocationMode,
    Wishbone,
)
from .common import measurement_for
from ..platforms import get_platform


@dataclass(frozen=True)
class Fig5aPoint:
    platform: str
    rate_factor: float
    node_operators: int
    cpu_utilization: float
    cut_bandwidth: float


def partitioner() -> Wishbone:
    """The §7.1 configuration."""
    return Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        formulation=Formulation.RESTRICTED,
        cpu_budget=1.0,
        net_budget=float("inf"),
    )


def run(
    platforms: tuple[str, ...] = ("tmote", "n80"),
    rate_factors: tuple[float, ...] | None = None,
    n_points: int = 24,
    max_factor: float = 20.0,
) -> list[Fig5aPoint]:
    """Sweep rates for one EEG channel on each platform."""
    if rate_factors is None:
        rate_factors = tuple(
            float(x) for x in np.linspace(0.5, max_factor, n_points)
        )
    _, measurement = measurement_for("eeg", n_channels=1)
    points: list[Fig5aPoint] = []
    wishbone = partitioner()
    for platform_name in platforms:
        probe = wishbone.prepare_probe(
            measurement.on(get_platform(platform_name))
        )
        for factor in rate_factors:
            result = probe.try_partition(factor)
            if result is None:
                # Not even the pinned sources fit: report the floor.
                points.append(Fig5aPoint(platform_name, factor, 0, 0.0, 0.0))
                continue
            partition = result.partition
            points.append(
                Fig5aPoint(
                    platform=platform_name,
                    rate_factor=factor,
                    node_operators=len(partition.node_set),
                    cpu_utilization=partition.cpu_utilization,
                    cut_bandwidth=partition.network_bytes_per_sec,
                )
            )
    return points


def series(points: list[Fig5aPoint], platform: str) -> list[tuple[float, int]]:
    """(rate, operators) series for one platform, rate-ordered."""
    return sorted(
        (p.rate_factor, p.node_operators)
        for p in points
        if p.platform == platform
    )
