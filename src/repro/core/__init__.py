"""Wishbone's core: profile-driven optimal graph partitioning (paper §4)."""

from .bruteforce import BruteForceResult, brute_force_partition
from .cut import InfeasiblePartition, Partition, PartitionError
from .heuristics import (
    HeuristicResult,
    balanced_mincut_partition,
    greedy_prefix_partition,
    list_schedule_partition,
)
from .ilp_general import GeneralIlp, build_general_ilp
from .ilp_restricted import RestrictedIlp, build_restricted_ilp
from .lagrangian import (
    LagrangianResult,
    lagrangian_partition,
    min_closure_node_set,
)
from .partitioner import (
    Formulation,
    PartitionObjective,
    PartitionResult,
    Wishbone,
)
from .pinning import (
    RelocationMode,
    base_pinnings,
    compute_pinnings,
    movable_operators,
    node_candidate_operators,
    propagate_pinnings,
)
from .preprocess import ReducedProblem, preprocess
from .probe import ScaledProbe
from .problem import PartitionProblem, WeightedEdge, problem_from_profile
from .rate_search import RateSearch, RateSearchResult, max_feasible_rate
from .three_tier import (
    ThreeTierIlp,
    ThreeTierProblem,
    Tier,
    build_three_tier_ilp,
    three_tier_from_two_profiles,
)

__all__ = [
    "ThreeTierIlp",
    "ThreeTierProblem",
    "Tier",
    "build_three_tier_ilp",
    "three_tier_from_two_profiles",
    "BruteForceResult",
    "Formulation",
    "GeneralIlp",
    "HeuristicResult",
    "InfeasiblePartition",
    "LagrangianResult",
    "Partition",
    "PartitionError",
    "PartitionObjective",
    "PartitionProblem",
    "PartitionResult",
    "RateSearch",
    "RateSearchResult",
    "ReducedProblem",
    "RelocationMode",
    "RestrictedIlp",
    "ScaledProbe",
    "WeightedEdge",
    "Wishbone",
    "balanced_mincut_partition",
    "base_pinnings",
    "brute_force_partition",
    "build_general_ilp",
    "build_restricted_ilp",
    "compute_pinnings",
    "greedy_prefix_partition",
    "lagrangian_partition",
    "list_schedule_partition",
    "max_feasible_rate",
    "min_closure_node_set",
    "movable_operators",
    "node_candidate_operators",
    "preprocess",
    "problem_from_profile",
    "propagate_pinnings",
]
