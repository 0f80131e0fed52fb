"""Block symmetry detection and orbital branching.

The detector reads only the arrays; every symmetry it accepts is
verified exactly, and branch and bound with orbital branching must reach
the optimum that brute force and HiGHS's branch and cut reach.
"""

import numpy as np
import pytest
from milp_oracle import proven
from replicated_problems import probe_arrays, replicated_branches

from repro.core import (
    PartitionObjective,
    RelocationMode,
    Wishbone,
    brute_force_partition,
    build_restricted_ilp,
)
from repro.experiments.common import profile_for
from repro.solver import BranchAndBound, LinearProgram, SolveStatus
from repro.solver import branch_bound
from repro.solver.branch_bound import ProgramStructure
from repro.solver.symmetry import (
    BlockSymmetry,
    detect_block_symmetry,
    verify_blocks,
)

SEEDS = range(40)


def instance(seed, perturb=False):
    generated = replicated_branches(seed, perturb=perturb)
    model = build_restricted_ilp(generated.problem)
    arrays = model.program.to_arrays()
    column = {name: i for i, name in enumerate(arrays.names)}
    blocks = np.array(
        [
            [column[model.assign_vars[v].name] for v in branch]
            for branch in generated.branches
        ]
    )
    return generated, arrays, blocks


@pytest.mark.parametrize("seed", SEEDS)
def test_replicated_branches_solve_like_brute_force_and_highs(seed):
    generated, arrays, blocks = instance(seed)
    problem = generated.problem
    symmetry = detect_block_symmetry(arrays)
    # The branches are found as one family of blocks, aligned by role.
    assert len(symmetry.families) == 1
    family = symmetry.families[0]
    assert sorted(map(sorted, family.tolist())) == sorted(
        map(sorted, blocks.tolist())
    )
    assert verify_blocks(arrays, family)

    solution = BranchAndBound().solve(arrays)
    brute = brute_force_partition(problem, single_crossing=True)
    highs = proven(arrays, gap_tolerance=1e-6)
    assert solution.status is highs.status
    if brute.feasible:
        assert solution.status is SolveStatus.OPTIMAL
        tol = 1e-6 * max(1.0, abs(brute.objective))
        assert solution.objective == pytest.approx(brute.objective, abs=tol)
        assert solution.objective == pytest.approx(highs.objective, abs=tol)
    else:
        assert solution.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("seed", SEEDS)
def test_one_perturbed_coefficient_breaks_the_branch_symmetry(seed):
    generated, arrays, blocks = instance(seed, perturb=True)
    problem = generated.problem
    diamond = any(name.endswith(".left") for name in generated.branches[0])
    symmetry = detect_block_symmetry(arrays)
    # No accepted symmetry maps a column of branch 0 to another branch's
    # (a diamond's two identical arms may still swap inside branch 0).
    branch0 = set(blocks[0].tolist())
    for family in symmetry.families:
        for position in family.T.tolist():
            inside = {column in branch0 for column in position}
            assert len(inside) == 1
    if len(blocks) == 2 and not diamond:
        assert not symmetry.families  # nothing is left to permute
    assert not verify_blocks(arrays, blocks)
    # The remaining copies still solve exactly.
    solution = BranchAndBound().solve(arrays)
    brute = brute_force_partition(problem, single_crossing=True)
    if brute.feasible:
        tol = 1e-6 * max(1.0, abs(brute.objective))
        assert solution.objective == pytest.approx(brute.objective, abs=tol)
    else:
        assert solution.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("seed", range(8))
def test_hand_built_permutations_are_verified_exactly(seed):
    _, arrays, blocks = instance(seed)
    assert verify_blocks(arrays, blocks)
    # Misaligned: block 1 lists its columns in reverse role order.
    misaligned = blocks.copy()
    misaligned[1] = misaligned[1][::-1]
    assert not verify_blocks(arrays, misaligned)
    # Overlapping blocks are no permutation at all.
    assert not verify_blocks(arrays, np.array([blocks[0], blocks[0]]))
    # Rows alone do not make a symmetry: the cost and the bounds of
    # every position must match too.
    column = blocks[1][-1]
    c = arrays.c.copy()
    c[column] += 1.0
    assert not verify_blocks(arrays.with_objective(c), blocks)
    ub = arrays.ub.copy()
    ub[column] = 0.0
    assert not verify_blocks(arrays.with_bounds(arrays.lb, ub), blocks)


def test_solves_that_close_at_the_root_never_detect(monkeypatch):
    def refuse(arrays):
        raise AssertionError("detection ran for a root-closing solve")

    monkeypatch.setattr(branch_bound, "detect_block_symmetry", refuse)
    lp = LinearProgram()
    xs = [lp.add_binary(f"x{i}", objective=-1.0) for i in range(4)]
    lp.add_constraint({x: 1.0 for x in xs}, "<=", 2.0)
    solution = BranchAndBound().solve(lp)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.nodes_explored == 1


def test_orbit_holds_only_blocks_with_identical_bounds():
    blocks = np.array([[0, 1], [2, 3], [4, 5]])
    symmetry = BlockSymmetry(7, [blocks])
    lb = np.zeros(7)
    ub = np.ones(7)
    assert symmetry.orbit(1, lb, ub).tolist() == [1, 3, 5]
    assert symmetry.orbit(6, lb, ub) is None
    ub[4] = 0.0  # block 2 was branched on: it leaves the orbit
    assert symmetry.orbit(0, lb, ub).tolist() == [0, 2]
    ub[2] = 0.0  # now blocks 1 and 2 match, and block 0 stands alone
    assert symmetry.orbit(0, lb, ub) is None
    assert symmetry.orbit(2, lb, ub).tolist() == [2, 4]
    assert symmetry.orbit(5, lb, ub).tolist() == [3, 5]
    lb[3] = 1.0
    assert symmetry.orbit(5, lb, ub) is None


def eeg_arrays(channels, rate, budget):
    wishbone = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        cpu_budget=budget,
        net_budget=float("inf"),
        gap_tolerance=5e-3,
    )
    profile = profile_for("eeg", "tmote", n_channels=channels)
    return wishbone.prepare_probe(profile)._arrays_at(rate)


def test_eeg_channels_are_the_detected_blocks():
    arrays = eeg_arrays(4, 8.0, 0.9)
    symmetry = detect_block_symmetry(arrays)
    assert len(symmetry.families) == 1
    family = symmetry.families[0]
    assert family.shape[0] == 4
    for channel, block in enumerate(family.tolist()):
        # Names are only read here, by the test: each block is exactly
        # one channel, and every position is the same operator role.
        names = [arrays.names[j] for j in block]
        assert all(name.startswith(f"f[ch{channel:02d}.") for name in names)
    roles = {
        tuple(arrays.names[j].split(".", 1)[1] for j in column)
        for column in family.T.tolist()
    }
    assert all(len(set(role)) == 1 for role in roles)


def test_orbital_branching_shrinks_the_tree_not_the_optimum(monkeypatch):
    arrays = eeg_arrays(4, 8.0, 0.9)
    with_symmetry = BranchAndBound(gap_tolerance=1e-6).solve(arrays)
    monkeypatch.setattr(
        branch_bound,
        "detect_block_symmetry",
        lambda arrays: BlockSymmetry(arrays.num_variables, []),
    )
    without = BranchAndBound(gap_tolerance=1e-6).solve(arrays)
    highs = proven(arrays, gap_tolerance=1e-6)
    assert highs.status is SolveStatus.OPTIMAL
    assert with_symmetry.status is SolveStatus.OPTIMAL
    assert without.status is SolveStatus.OPTIMAL
    assert with_symmetry.objective == pytest.approx(highs.objective, rel=1e-6)
    assert without.objective == pytest.approx(highs.objective, rel=1e-6)
    assert with_symmetry.nodes_explored * 2 < without.nodes_explored


def families(symmetry):
    return [blocks.tolist() for blocks in symmetry.families]


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_reused_families_equal_fresh_detection(seed):
    """A probe detects once and reuses the families at every factor and
    budget; they equal what detection finds on that solve's arrays."""
    _, arrays, _ = instance(seed)
    rng = np.random.default_rng(seed)
    structure = ProgramStructure(arrays)
    detected = structure.symmetry(probe_arrays(arrays, 1.0))
    assert families(detected)
    for factor in rng.uniform(0.2, 5.0, size=4):
        for cpu, net in ((None, None), (float(rng.uniform(0.1, 3.0)), None),
                         (None, float("inf"))):
            scaled = probe_arrays(arrays, float(factor), cpu, net)
            reused = structure.symmetry(scaled)
            assert reused is detected
            assert families(reused) == families(detect_block_symmetry(scaled))


def test_eeg_probe_reuses_the_families_it_detected():
    wishbone = Wishbone(
        objective=PartitionObjective(alpha=0.0, beta=1.0),
        mode=RelocationMode.PERMISSIVE,
        net_budget=float("inf"),
        gap_tolerance=5e-3,
    )
    probe = wishbone.prepare_probe(profile_for("eeg", "tmote", n_channels=4))
    structure = probe._structure
    detected = None
    for rate in (8.0, 12.0, 20.0, 30.0, 40.0):
        for budget in (1.2, 1.0, 0.9, 0.8):
            arrays = probe._arrays_at(rate, budget, float("inf"))
            symmetry = structure.symmetry(arrays)
            detected = detected or symmetry
            assert symmetry is detected
            assert families(symmetry) == families(
                detect_block_symmetry(arrays)
            )
    assert len(detected.families) == 1


def swapped_budget_rows(b0, b1):
    """Two blocks ``(u_i, v_i)``, each with its own budget row
    ``u_i + 4 v_i <= b_i``, and costs ``-(2 u_i + 4 v_i)``: swapping the
    blocks swaps the two budget rows, a symmetry only while the rows'
    rhs are equal."""
    lp = LinearProgram()
    xs = [
        lp.add_binary(f"{name}{i}", objective=cost)
        for i in range(2)
        for name, cost in (("u", -2.0), ("v", -4.0))
    ]
    lp.add_constraint({xs[0]: 1.0, xs[1]: 4.0}, "<=", b0)
    lp.add_constraint({xs[2]: 1.0, xs[3]: 4.0}, "<=", b1)
    return lp.to_arrays()


def test_a_rewritten_row_that_tells_the_blocks_apart_stops_reuse():
    """Budgets (3, 3): both blocks branch and swap onto each other.
    Budgets (3, 4.5), rewritten in the same arrays: block 1 can afford
    ``v`` and block 0 cannot, so no family holds.  Reusing the first
    solve's family would fix ``v1`` with ``v0`` in the down branch and
    lose the optimum ``u0 + v1`` (-6) for ``u0 + u1`` (-4)."""
    base = swapped_budget_rows(3.0, 3.0)
    structure = ProgramStructure(base)
    first = BranchAndBound().solve(base, structure=structure)
    assert first.nodes_explored > 1  # it branched, so it detected
    assert families(structure.symmetry(base)) == [[[0, 1], [2, 3]]]

    b_ub = base.b_ub.copy()
    b_ub[1] = 4.5
    rewritten = base.with_b_ub(b_ub)
    assert not structure.symmetry(rewritten).families
    assert not detect_block_symmetry(rewritten).families
    solution = BranchAndBound().solve(rewritten, structure=structure)
    highs = proven(rewritten, gap_tolerance=1e-9)
    assert highs.status is SolveStatus.OPTIMAL
    assert highs.objective == pytest.approx(-6.0)
    assert solution.objective == pytest.approx(-6.0)

    # Equal budgets again: the symmetry is back, and found afresh.
    b_ub[0] = 4.5
    assert families(structure.symmetry(base.with_b_ub(b_ub))) == [
        [[0, 1], [2, 3]]
    ]
