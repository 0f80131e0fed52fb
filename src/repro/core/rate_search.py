"""Data rate as a free variable (paper Section 4.3).

When no partition fits at the ideal rate, Wishbone finds the maximum
input-rate scaling for which one exists.  Because CPU and network load
scale (approximately) linearly and monotonically with input rate,
feasibility is monotone in the rate factor, so a binary search over the
factor — each probe one partitioner run — converges quickly.

The search probes through one :class:`~repro.core.probe.ScaledProbe`:
the pins, the §4.1 reduction, and the ILP's sparsity structure are
rate-invariant, so the formulation is built once and each probe only
rescales the cost vector and the budget right-hand sides (two vector
copies) before solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiler.records import GraphProfile
from .partitioner import PartitionResult, Wishbone


@dataclass
class RateSearchResult:
    """Outcome of the rate search.

    Attributes:
        rate_factor: the highest feasible multiple of the profiled rate
            (0.0 when not even an idle graph fits).
        result: the partitioning at that rate (``None`` if none exists).
        probes: number of partitioner invocations spent.
        feasible_at_full_rate: True when no load-shedding is needed.
    """

    rate_factor: float
    result: PartitionResult | None
    probes: int
    feasible_at_full_rate: bool


class RateSearch:
    """Binary search for the maximum sustainable input rate.

    Args:
        partitioner: the configured :class:`Wishbone` instance to probe with.
        tolerance: relative precision of the returned rate factor.
        max_factor: upper limit of the search range (as a multiple of the
            profiled rate).
        max_probes: hard cap on partitioner invocations.
    """

    def __init__(
        self,
        partitioner: Wishbone,
        tolerance: float = 0.01,
        max_factor: float = 1024.0,
        max_probes: int = 60,
    ) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.partitioner = partitioner
        self.tolerance = tolerance
        self.max_factor = max_factor
        self.max_probes = max_probes

    def search(
        self, profile: GraphProfile, target_factor: float = 1.0
    ) -> RateSearchResult:
        """Find the maximum feasible rate factor.

        Args:
            profile: graph profile at the nominal (factor 1.0) rate.
            target_factor: the rate the application wants; if feasible,
                the search stops there ("maximize the data rate within the
                upper bound", §7.3.1 — there is no benefit past the
                application's native rate).
        """
        probes = 0
        prober = self.partitioner.prepare_probe(profile)

        def probe(factor: float) -> PartitionResult | None:
            nonlocal probes
            probes += 1
            return prober.try_partition(factor)

        at_target = probe(target_factor)
        if at_target is not None:
            return RateSearchResult(
                rate_factor=target_factor,
                result=at_target,
                probes=probes,
                feasible_at_full_rate=True,
            )

        # Establish a feasible lower bracket; rates can be arbitrarily
        # small, so scan downward geometrically.
        lo = target_factor / 2.0
        lo_result = None
        while probes < self.max_probes:
            lo_result = probe(lo)
            if lo_result is not None:
                break
            lo /= 4.0
            if lo < 1e-9:
                return RateSearchResult(
                    rate_factor=0.0,
                    result=None,
                    probes=probes,
                    feasible_at_full_rate=False,
                )

        hi = min(target_factor, self.max_factor)
        best_factor, best_result = lo, lo_result
        while probes < self.max_probes and (hi - lo) > self.tolerance * hi:
            mid = (lo + hi) / 2.0
            result = probe(mid)
            if result is not None:
                lo, best_factor, best_result = mid, mid, result
            else:
                hi = mid
        return RateSearchResult(
            rate_factor=best_factor,
            result=best_result,
            probes=probes,
            feasible_at_full_rate=False,
        )


def max_feasible_rate(
    partitioner: Wishbone,
    profile: GraphProfile,
    target_factor: float = 1.0,
    tolerance: float = 0.01,
) -> RateSearchResult:
    """Convenience wrapper around :class:`RateSearch`."""
    return RateSearch(partitioner, tolerance=tolerance).search(
        profile, target_factor=target_factor
    )
