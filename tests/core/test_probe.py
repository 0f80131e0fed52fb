"""Incremental rate probing (repro.core.probe) vs the full rebuild path.

The §4.3 equivalence: a uniformly scaled instance is the cached base
instance with the cost vector multiplied and the budget right-hand sides
divided by the rate factor.  Every probe must therefore agree with a full
pin -> reduce -> formulate -> solve rebuild at the same factor.
"""

import pytest

from repro.core import (
    Formulation,
    PartitionObjective,
    RateSearch,
    RelocationMode,
    SolverBackend,
    Wishbone,
)


def make_partitioner(**kwargs):
    return Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        **kwargs,
    )


@pytest.mark.parametrize("factor", [0.05, 0.1, 0.5, 1.0])
def test_probe_matches_full_rebuild(tmote_speech_profile, factor):
    partitioner = make_partitioner()
    probe = partitioner.prepare_probe(tmote_speech_profile)
    assert probe.incremental
    via_probe = probe.try_partition(factor)
    via_rebuild = partitioner.try_partition(
        tmote_speech_profile.scaled(factor)
    )
    assert (via_probe is None) == (via_rebuild is None)
    if via_probe is not None:
        assert via_probe.partition.node_set == via_rebuild.partition.node_set
        assert via_probe.partition.objective_value == pytest.approx(
            via_rebuild.partition.objective_value, rel=1e-9
        )
        assert via_probe.partition.cpu_utilization == pytest.approx(
            via_rebuild.partition.cpu_utilization, rel=1e-9
        )


def test_probe_general_formulation(tmote_speech_profile):
    partitioner = make_partitioner(formulation=Formulation.GENERAL)
    probe = partitioner.prepare_probe(tmote_speech_profile)
    assert probe.incremental
    for factor in (0.05, 0.2):
        via_probe = probe.try_partition(factor)
        via_rebuild = partitioner.try_partition(
            tmote_speech_profile.scaled(factor)
        )
        assert (via_probe is None) == (via_rebuild is None)
        if via_probe is not None:
            assert via_probe.partition.objective_value == pytest.approx(
                via_rebuild.partition.objective_value, rel=1e-6
            )


def test_probe_scipy_backend(tmote_speech_profile):
    partitioner = make_partitioner(solver=SolverBackend.SCIPY_MILP)
    probe = partitioner.prepare_probe(tmote_speech_profile)
    via_probe = probe.try_partition(0.1)
    via_rebuild = partitioner.try_partition(tmote_speech_profile.scaled(0.1))
    assert (via_probe is None) == (via_rebuild is None)
    if via_probe is not None:
        assert via_probe.partition.objective_value == pytest.approx(
            via_rebuild.partition.objective_value, rel=1e-6
        )


def test_probe_without_preprocess(tmote_speech_profile):
    partitioner = make_partitioner(use_preprocess=False)
    probe = partitioner.prepare_probe(tmote_speech_profile)
    assert probe.reduced is None
    result = probe.try_partition(0.1)
    rebuilt = partitioner.try_partition(tmote_speech_profile.scaled(0.1))
    assert (result is None) == (rebuilt is None)
    if result is not None:
        assert result.partition.node_set == rebuilt.partition.node_set


def test_probe_rejects_nonpositive_factor(tmote_speech_profile):
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    with pytest.raises(ValueError):
        probe.partition(0.0)


def test_rate_search_incremental_matches_full(tmote_speech_profile):
    partitioner = make_partitioner()
    inc = RateSearch(partitioner, incremental=True).search(
        tmote_speech_profile
    )
    full = RateSearch(partitioner, incremental=False).search(
        tmote_speech_profile
    )
    assert inc.rate_factor == pytest.approx(full.rate_factor, rel=1e-12)
    assert inc.probes == full.probes
    assert inc.result.partition.node_set == full.result.partition.node_set


def test_probe_reduction_shared_across_factors(tmote_speech_profile):
    """One §4.1 reduction serves every probe (structure is rate-invariant)."""
    partitioner = make_partitioner()
    probe = partitioner.prepare_probe(tmote_speech_profile)
    a = probe.try_partition(0.05)
    b = probe.try_partition(0.1)
    assert a is not None and b is not None
    assert a.reduced is not None and b.reduced is not None
    assert a.reduced.members == b.reduced.members
    # The reduced problems only differ by the uniform scale.
    assert a.reduced.problem.vertices == b.reduced.problem.vertices


def test_probe_shares_relaxation_and_basis_across_probes(
    tmote_speech_profile,
):
    """The persistent HiGHS engine (and its root basis) outlives a probe."""
    from repro.solver.scipy_backend import make_highs_relaxation

    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    first = probe.try_partition(0.05)
    engine = probe._relaxation
    if engine is None or engine is False:
        pytest.skip("private HiGHS bindings unavailable")
    # The root basis of the first probe was exported for the next one.
    assert engine._root_basis is not None
    second = probe.try_partition(0.1)
    assert probe._relaxation is engine  # reused, not rebuilt
    # Warm-started probes still agree with the cold rebuild path.
    rebuilt = make_partitioner().try_partition(
        tmote_speech_profile.scaled(0.1)
    )
    assert (second is None) == (rebuilt is None)
    if second is not None:
        assert second.partition.node_set == rebuilt.partition.node_set
    del first, make_highs_relaxation


def test_highs_relaxation_update_problem_matches_fresh_build(
    tmote_speech_profile,
):
    """In-place cost/rhs edits equal a from-scratch model at the new rate."""
    from repro.solver.scipy_backend import make_highs_relaxation

    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    base = probe._arrays_at(1.0)
    engine = make_highs_relaxation(base)
    if engine is None:
        pytest.skip("private HiGHS bindings unavailable")
    scaled = probe._arrays_at(0.25)
    engine.update_problem(c=scaled.c, b_ub=scaled.b_ub)
    warm = engine.solve(scaled.lb, scaled.ub)
    fresh_engine = make_highs_relaxation(scaled)
    fresh = fresh_engine.solve(scaled.lb, scaled.ub)
    assert warm.status == fresh.status
    assert warm.objective == pytest.approx(fresh.objective, rel=1e-9)


# ---------------------------------------------------------------------------
# Budget-override isolation and cross-process handoff
# ---------------------------------------------------------------------------


def test_budget_override_does_not_leak_into_default_calls(
    tmote_speech_profile,
):
    """A request that omits budgets after a prior request set them must
    get the fresh-probe answer — the overridden solve's relaxation state
    (basis, within-gap incumbent steering) may not carry over."""
    import numpy as np

    probe = make_partitioner(gap_tolerance=5e-3).prepare_probe(
        tmote_speech_profile
    )
    factor = 0.05
    baseline = probe.partition(factor)
    # An overridden solve with different (still feasible) budgets...
    overridden = probe.try_partition(
        factor,
        cpu_budget=0.9,
        net_budget=baseline.partition.network_bytes_per_sec * 2.0,
    )
    assert overridden is not None
    # ...then a default-budget call again: identical to the first call
    # and to a brand-new probe, down to the solution vector.
    after = probe.partition(factor)
    fresh = make_partitioner(gap_tolerance=5e-3).prepare_probe(
        tmote_speech_profile
    ).partition(factor)
    assert after.partition.node_set == baseline.partition.node_set
    assert after.partition.node_set == fresh.partition.node_set
    assert np.array_equal(after.solution.x, baseline.solution.x)
    assert np.array_equal(after.solution.x, fresh.solution.x)
    assert after.problem.cpu_budget == baseline.problem.cpu_budget
    assert after.problem.net_budget == baseline.problem.net_budget


def test_budget_override_reported_in_problem(tmote_speech_profile):
    """Overridden budgets land in the result's problem metadata."""
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    factor = 0.05
    result = probe.try_partition(factor, cpu_budget=0.75)
    if result is None:
        pytest.skip("override infeasible on this profile")
    assert result.problem.cpu_budget == pytest.approx(0.75)


def test_relaxation_persists_within_one_budget_configuration(
    tmote_speech_profile,
):
    """The budget-change reset must not kill same-budget warm starts."""
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    probe.try_partition(0.05, cpu_budget=0.9)
    engine = probe._relaxation
    if engine is None or engine is False:
        pytest.skip("private HiGHS bindings unavailable")
    probe.try_partition(0.1, cpu_budget=0.9)  # same budgets, new rate
    assert probe._relaxation is engine
    probe.try_partition(0.1, cpu_budget=0.8)  # budget change: discarded
    assert probe._relaxation is not engine
