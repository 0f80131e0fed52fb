"""Figure 6 (small configuration) and the ablation studies."""

import pytest

from repro.core import ScaledProbe
from repro.experiments import fig6, scaling


@pytest.fixture(scope="module")
def fig6_run():
    """A small configuration for CI (4 channels, 5 rate points) and the
    number of formulations it built."""
    formulations = []
    init = ScaledProbe.__init__

    def counting_init(self, *args, **kwargs):
        formulations.append(args)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScaledProbe, "__init__", counting_init)
        result = fig6.run(n_runs=5, n_channels=4, max_factor=30.0)
    return result, len(formulations)


@pytest.fixture(scope="module")
def fig6_result(fig6_run):
    return fig6_run[0]


def test_fig6_formulates_once(fig6_run):
    """The sweep probes one formulation at every rate (§4.3)."""
    assert fig6_run[1] == 1


def test_fig6_all_runs_terminate(fig6_result):
    assert len(fig6_result.samples) == 5
    feasible = [s for s in fig6_result.samples if s.feasible]
    assert feasible, "some rates must be partitionable"


def test_fig6_every_run_proves_before_the_time_limit(fig6_result):
    assert fig6_result.limit_hits == 0


def test_fig6_prove_at_least_discover(fig6_result):
    for sample in fig6_result.samples:
        if sample.feasible:
            assert sample.prove_seconds >= sample.discover_seconds - 1e-9


def test_fig6_cdf_monotone(fig6_result):
    data, percentiles = fig6_result.cdf("discover")
    assert list(data) == sorted(data)
    assert list(percentiles) == sorted(percentiles)
    assert fig6_result.percentile("prove", 50) >= fig6_result.percentile(
        "discover", 50
    ) - 1e-9


def test_fig6_node_ops_shrink_with_rate(fig6_result):
    feasible = [s for s in fig6_result.samples if s.feasible]
    ops = [s.node_operators for s in feasible]
    assert all(a >= b for a, b in zip(ops, ops[1:]))


# -- ablations -----------------------------------------------------------------

def test_preprocessing_ablation_preserves_optimum():
    rows = scaling.preprocessing_ablation(sizes=(25, 50), seed=0)
    for row in rows:
        assert row.optimum_preserved
        assert row.reduced_vertices <= row.n_vertices
        assert row.reduction_ratio >= 0.0


def test_formulation_ablation_model_sizes():
    rows = scaling.formulation_ablation(sizes=(25, 50), seed=1)
    for row in rows:
        # Restricted: |V| variables. General: |V| + 2|E|.
        assert row.general_vars > row.restricted_vars
        assert row.general_constraints > row.restricted_constraints
        assert row.objectives_match


def test_bound_ablation_bounds_are_valid():
    rows = scaling.bound_ablation(sizes=(25, 50), seed=2)
    for row in rows:
        assert row.bound_valid
        assert row.bound_gap >= -1e-9


def test_solver_scaling_terminates():
    rows = scaling.solver_scaling(sizes=(30, 60), seed=3)
    assert all(row.feasible for row in rows)
    assert all(row.solve_seconds < 60 for row in rows)


def test_random_dag_generator_is_deterministic():
    a = scaling.random_pipeline_dag(40, seed=7)
    b = scaling.random_pipeline_dag(40, seed=7)
    assert a.vertices == b.vertices
    assert [(e.src, e.dst, e.bandwidth) for e in a.edges] == [
        (e.src, e.dst, e.bandwidth) for e in b.edges
    ]
