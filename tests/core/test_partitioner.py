"""The Wishbone facade on the real speech application."""

import pytest
from rebuild_oracle import rebuild_objective

from repro.apps.speech import PIPELINE_ORDER
from repro.core import (
    Formulation,
    InfeasiblePartition,
    PartitionObjective,
    RelocationMode,
    Wishbone,
)


def test_full_rate_infeasible_on_tmote(tmote_speech_profile):
    wishbone = Wishbone(mode=RelocationMode.PERMISSIVE)
    with pytest.raises(InfeasiblePartition):
        wishbone.partition(tmote_speech_profile)
    assert wishbone.try_partition(tmote_speech_profile) is None


def test_reduced_rate_partitions_at_filterbank(tmote_speech_profile):
    wishbone = Wishbone(mode=RelocationMode.PERMISSIVE)
    result = wishbone.partition(tmote_speech_profile.scaled(0.075))
    node_ops = sorted(result.partition.node_set, key=PIPELINE_ORDER.index)
    assert node_ops == list(PIPELINE_ORDER[:6])  # through filtbank
    assert result.feasible
    assert result.partition.cpu_utilization <= 0.75 + 1e-9


def test_solver_backends_agree(tmote_speech_profile):
    """Branch and bound reaches the optimum HiGHS branch and cut proves
    for the same profile (``tests/milp_oracle.py``)."""
    wishbone = Wishbone(mode=RelocationMode.PERMISSIVE)
    ours = wishbone.partition(tmote_speech_profile.scaled(0.05))
    highs = rebuild_objective(wishbone, tmote_speech_profile, 0.05)
    assert highs is not None
    assert ours.partition.objective_value == pytest.approx(highs, rel=1e-6)


def test_formulations_agree_on_pipeline(tmote_speech_profile):
    profile = tmote_speech_profile.scaled(0.05)
    restricted = Wishbone(
        mode=RelocationMode.PERMISSIVE,
        formulation=Formulation.RESTRICTED,
    ).partition(profile)
    general = Wishbone(
        mode=RelocationMode.PERMISSIVE,
        formulation=Formulation.GENERAL,
    ).partition(profile)
    assert general.partition.objective_value <= (
        restricted.partition.objective_value + 1e-6
    )
    # On a pure pipeline there is nothing to gain from a second crossing.
    assert general.partition.objective_value == pytest.approx(
        restricted.partition.objective_value, rel=1e-6
    )


def test_preprocessing_shrinks_problem(tmote_speech_profile):
    result = Wishbone(mode=RelocationMode.PERMISSIVE).partition(
        tmote_speech_profile.scaled(0.05)
    )
    assert result.reduced_vertices < result.vertices
    assert result.reduction_ratio > 0.0
    without = Wishbone(
        mode=RelocationMode.PERMISSIVE, use_preprocess=False
    ).partition(tmote_speech_profile.scaled(0.05))
    assert without.reduced_vertices == without.vertices == result.vertices
    assert without.reduction_ratio == 0.0
    assert without.partition.objective_value == pytest.approx(
        result.partition.objective_value, rel=1e-6
    )


def test_conservative_mode_matches_on_stateless_pipeline(
    tmote_speech_profile,
):
    # Every speech stage is stateless, so the modes agree.
    profile = tmote_speech_profile.scaled(0.05)
    conservative = Wishbone(mode=RelocationMode.CONSERVATIVE).partition(
        profile
    )
    permissive = Wishbone(mode=RelocationMode.PERMISSIVE).partition(profile)
    assert conservative.partition.node_set == permissive.partition.node_set


def test_objective_weights_change_partition(tmote_speech_profile):
    profile = tmote_speech_profile.scaled(0.05)
    bandwidth_only = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
    ).partition(profile)
    cpu_heavy = Wishbone(
        objective=PartitionObjective(alpha=1e6, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
    ).partition(profile)
    # With CPU extremely expensive, the node partition shrinks.
    assert len(cpu_heavy.partition.node_set) <= len(
        bandwidth_only.partition.node_set
    )


def test_partition_reports_cut_edges(tmote_speech_profile):
    result = Wishbone(mode=RelocationMode.PERMISSIVE).partition(
        tmote_speech_profile.scaled(0.05)
    )
    cut = result.partition.cut_edges()
    assert len(cut) == 1  # a pipeline has exactly one cut edge
    assert result.partition.crossings() == 1
    edge = cut[0]
    assert edge.src in result.partition.node_set
    assert edge.dst in result.partition.server_set


def test_budget_overrides(tmote_speech_profile):
    tight = Wishbone(
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=0.01,
        net_budget=float("inf"),
    ).partition(tmote_speech_profile.scaled(0.05))
    # Nothing but the (cheap) source fits.
    assert tight.partition.cpu_utilization <= 0.01 + 1e-9


def test_server_platform_everything_fits(server_speech_profile):
    result = Wishbone(mode=RelocationMode.PERMISSIVE).partition(
        server_speech_profile
    )
    assert result.feasible

