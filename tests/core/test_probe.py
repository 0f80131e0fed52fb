"""Rate probing (repro.core.probe) against the full rebuild oracle.

The §4.3 equivalence: a uniformly scaled instance is the cached base
instance with the cost vector multiplied and the budget right-hand sides
divided by the rate factor.  Every probe must therefore reach the
optimum of a pin -> reduce -> formulate rebuild at the same factor,
solved by an independent MILP engine (``tests/rebuild_oracle.py``).
"""

import pytest
from rebuild_oracle import rebuild_objective, within_gap

from repro.core import (
    Formulation,
    PartitionError,
    PartitionObjective,
    RelocationMode,
    Wishbone,
)
from repro.solver import BranchAndBound


def make_partitioner(**kwargs):
    return Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        **kwargs,
    )


def assert_matches_rebuild(partitioner, profile, factor):
    """The probe's answer at ``factor`` is optimal for the rebuilt
    instance (both infeasible, or equal objectives within the gap)."""
    via_probe = partitioner.prepare_probe(profile).try_partition(factor)
    oracle = rebuild_objective(partitioner, profile, factor)
    assert (via_probe is None) == (oracle is None)
    if via_probe is not None:
        assert within_gap(
            via_probe.partition.objective_value,
            oracle,
            partitioner.gap_tolerance,
        )


@pytest.mark.parametrize("factor", [0.05, 0.1, 0.5, 1.0])
def test_probe_matches_full_rebuild(tmote_speech_profile, factor):
    assert_matches_rebuild(make_partitioner(), tmote_speech_profile, factor)


def test_probe_general_formulation(tmote_speech_profile):
    partitioner = make_partitioner(formulation=Formulation.GENERAL)
    for factor in (0.05, 0.2):
        assert_matches_rebuild(partitioner, tmote_speech_profile, factor)


def test_probe_without_preprocess(tmote_speech_profile):
    partitioner = make_partitioner(use_preprocess=False)
    assert partitioner.prepare_probe(tmote_speech_profile).reduced is None
    assert_matches_rebuild(partitioner, tmote_speech_profile, 0.1)


def test_probe_matches_full_rebuild_on_eeg():
    """EEG-3: its identical channels make ties (at rate 8 the oracle
    and the probe pick different node sets of one objective), so only
    objectives can be compared."""
    from repro.workbench import Session

    profile = Session("eeg", n_channels=3).profile()
    partitioner = make_partitioner(
        cpu_budget=0.9, net_budget=float("inf"), gap_tolerance=5e-3
    )
    for factor in (8.0, 12.0, 20.0):
        assert_matches_rebuild(partitioner, profile, factor)


def test_probe_rejects_nonpositive_factor(tmote_speech_profile):
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    with pytest.raises(ValueError):
        probe.partition(0.0)


class StructuralRhs(Wishbone):
    """A partitioner whose formulation adds a structural row with a
    nonzero right-hand side: rescaling costs and budgets no longer gives
    the instance at another rate."""

    sense = "<="

    def formulate(self, problem):
        model = super().formulate(problem)
        first = model.program.variables[0]
        model.program.add_constraint(
            {first: 1.0}, self.sense, 1.0, name="structural"
        )
        return model


@pytest.mark.parametrize("sense", ["<=", ">=", "="])
def test_probe_rejects_a_formulation_that_is_not_rate_separable(
    tmote_speech_profile, sense
):
    partitioner = StructuralRhs(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
    )
    partitioner.sense = sense
    with pytest.raises(PartitionError, match="rate-separable"):
        partitioner.prepare_probe(tmote_speech_profile)
    with pytest.raises(PartitionError, match="rate-separable"):
        partitioner.partition(tmote_speech_profile.scaled(0.1))


def test_probe_reduction_shared_across_factors(tmote_speech_profile):
    """One §4.1 reduction serves every probe (structure is rate-invariant)."""
    partitioner = make_partitioner()
    probe = partitioner.prepare_probe(tmote_speech_profile)
    a = probe.try_partition(0.05)
    b = probe.try_partition(0.1)
    assert a is not None and b is not None
    assert probe.reduced is not None
    assert a.vertices == b.vertices == len(probe.problem.vertices)
    reduced = len(probe.reduced.problem.vertices)
    assert a.reduced_vertices == b.reduced_vertices == reduced
    assert a.reduction_ratio == b.reduction_ratio > 0.0


def test_probe_shares_relaxation_and_basis_across_probes(
    tmote_speech_profile,
):
    """The HiGHS engine outlives a probe; its basis does not.  Moving to
    the next rate factor leaves no valid basis behind, and the probe
    agrees with a fresh one."""
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    probe.try_partition(0.05)
    engine = probe._relaxation
    if engine is None or engine is False:
        pytest.skip("private HiGHS bindings unavailable")
    arrays = probe._arrays_at(0.1, None, None)
    engine.update_problem(c=arrays.c, b_ub=arrays.b_ub)
    assert not engine._highs.getBasis().valid  # basis discarded
    second = probe.try_partition(0.1)
    assert probe._relaxation is engine  # reused, not rebuilt
    fresh = make_partitioner().try_partition(
        tmote_speech_profile.scaled(0.1)
    )
    assert (second is None) == (fresh is None)
    if second is not None:
        assert second.partition.node_set == fresh.partition.node_set


def test_relaxation_persists_within_one_budget_configuration(
    tmote_speech_profile,
):
    """The engine is kept across rate factors and across budget changes:
    each solve starts from no basis, so no reset is needed on either."""
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    probe.try_partition(0.05, cpu_budget=0.9)
    engine = probe._relaxation
    if engine is None or engine is False:
        pytest.skip("private HiGHS bindings unavailable")
    probe.try_partition(0.1, cpu_budget=0.9)  # same budgets, new rate
    assert probe._relaxation is engine
    probe.try_partition(0.1, cpu_budget=0.8)  # budget change: still kept
    assert probe._relaxation is engine


def test_probe_reuses_its_model_and_solves_like_a_fresh_one():
    """The probe keeps one HiGHS model across probes, and a probe solve
    after any earlier sequence of factors and budgets returns the same
    decision, objective, node count and simplex iterations as a freshly
    built model.
    The sequence repeats a (factor, budget) pair after other solves,
    and EEG-3 at these rates keeps a search tree."""
    from repro.workbench import Session

    profile = Session("eeg", n_channels=3).profile()
    partitioner = make_partitioner(gap_tolerance=5e-3)
    probe = partitioner.prepare_probe(profile)
    engine = None
    sequence = [
        (8.0, 1.0), (12.0, 0.9), (8.0, 0.8), (20.0, 1.0), (8.0, 1.0),
        (30.0, 0.9),
    ]
    for factor, cpu_budget in sequence:
        result = probe.try_partition(
            factor, cpu_budget=cpu_budget, net_budget=float("inf")
        )
        if engine is None:
            engine = probe._relaxation
            if engine is None or engine is False:
                pytest.skip("private HiGHS bindings unavailable")
        assert probe._relaxation is engine  # reused, not rebuilt
        fresh = BranchAndBound(
            gap_tolerance=partitioner.gap_tolerance
        ).solve(probe._arrays_at(factor, cpu_budget, float("inf")))
        assert result is not None
        fresh_set = probe.model.node_set(fresh.values)
        if probe.reduced is not None:
            fresh_set = probe.reduced.expand(fresh_set)
        assert result.partition.node_set == fresh_set
        assert result.solution.objective == fresh.objective
        assert result.solution.nodes_explored == fresh.nodes_explored
        assert result.solution.iterations == fresh.iterations


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
    from repro.workbench.artifacts import canonical_json

    partitioner = make_partitioner(gap_tolerance=5e-3)
    probe = partitioner.prepare_probe(tmote_speech_profile)
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
    # and to a brand-new probe, down to the solver's effort.
    after = probe.partition(factor)
    fresh = make_partitioner(gap_tolerance=5e-3).prepare_probe(
        tmote_speech_profile
    ).partition(factor)
    assert after.partition.node_set == baseline.partition.node_set
    assert after.partition.node_set == fresh.partition.node_set
    assert canonical_json(after) == canonical_json(baseline)
    assert canonical_json(after) == canonical_json(fresh)
    # ...and it meets the default budgets, resolved as a request's are.
    cpu_budget, net_budget = partitioner.resolve_budgets(
        tmote_speech_profile.platform
    )
    assert after.partition.cpu_utilization <= cpu_budget + 1e-9
    assert after.partition.network_bytes_per_sec <= net_budget + 1e-9


def test_budget_override_binds_the_answer(tmote_speech_profile):
    """An overridden budget is the one the answer is solved under: it
    meets it, moves the answer off the default-budget one, and equals a
    partitioner configured with that budget."""
    probe = make_partitioner().prepare_probe(tmote_speech_profile)
    factor = 0.05
    default = probe.partition(factor)
    result = probe.try_partition(factor, cpu_budget=0.3)
    if result is None:
        pytest.skip("override infeasible on this profile")
    assert result.partition.cpu_utilization <= 0.3 + 1e-9
    assert result.partition.node_set != default.partition.node_set
    configured = make_partitioner(cpu_budget=0.3).partition(
        tmote_speech_profile.scaled(factor)
    )
    assert result.partition.node_set == configured.partition.node_set
