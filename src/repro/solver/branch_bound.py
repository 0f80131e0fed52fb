"""Branch-and-bound MILP solver, from scratch.

This is the reproduction of lp_solve's role in the paper: a branch-and-bound
search over LP relaxations that *discovers* good integer solutions early and
*proves* optimality later.  Both timestamps are recorded, which is what lets
``benchmarks/bench_fig6.py`` regenerate the two CDF curves of Figure 6.

Design notes:
  * array-native hot path: child nodes are two O(1) bound edits on numpy
    ``lb``/``ub`` vectors (no per-node ``StandardArrays`` rebuild), and
    relaxation results travel as raw vectors (no name->value dict round
    trips);
  * best-first search on the relaxation bound (ties broken FIFO), hybridised
    with depth-first *diving*: after branching, the child on the rounding-
    preferred side is explored immediately, so integer-feasible incumbents
    appear much earlier (the find-vs-prove gap the paper plots) while the
    heap keeps the global bound honest;
  * branching on the most fractional integer variable (vectorized);
  * a cheap rounding heuristic probes every node's relaxation for an
    integer-feasible neighbour;
  * *closure fixing* before the root: precedence rows ``x_v <= x_u`` (the
    restricted ILP's Eq. 6) and nonnegative budget rows (Eq. 2) make the
    instance a precedence-constrained knapsack.  Setting a binary to 1
    forces its whole ancestor closure to 1, so any binary whose closure
    alone overflows a budget row is fixed to 0 before the first
    relaxation (the feasible set is unchanged; the LP bound tightens).
    The closure loads are computed once per formulation
    (:class:`ProgramStructure`); a solve only compares them with its
    budgets;
  * *reduced-cost fixing* at the root: once the root heuristic produces an
    incumbent, integer variables whose reduced cost proves they cannot move
    off their bound in any improving solution are fixed permanently,
    shrinking the tree;
  * *orbital branching* (Ostrowski, Linderoth, Rossi and Smriglio, 2011)
    on verified block symmetry: at the first branching of a formulation's
    solves, :func:`~repro.solver.symmetry.detect_block_symmetry` finds
    families of interchangeable column blocks (the EEG channels) from the
    arrays alone, and later solves of the formulation reuse them while
    they still hold for their costs and budgets
    (:meth:`ProgramStructure.symmetry`).  Blocks of a family whose node
    bounds are identical position by position can be permuted inside the
    node, so branching on a binary in one of them sets it to 1 in the up
    child and sets its whole orbit (its position in every such block) to
    0 in the down child.  Solves that close at the root never run the
    detector; like closure fixing it has no knob (the optimum is
    unchanged, though which of several symmetric optima is returned may
    differ);
  * one LP engine, HiGHS: with warm starts a single persistent
    :class:`~repro.solver.scipy_backend.HighsRelaxation` serves every node
    of a solve with two bound edits and a dual-simplex resume from the
    previous node's basis; without them each node is one cold
    :func:`~repro.solver.scipy_backend.solve_lp_scipy` run.  No basis
    outlives a solve.

Knobs (constructor arguments): ``dive`` toggles the diving hybrid,
``reduced_cost_fixing`` the root fixing, ``warm_start`` the persistent
HiGHS model.  All default to on; disabling all three gives the plain
best-first solver with a cold LP per node for A/B measurements
(``plain`` in ``benchmarks/bench_solver.py``).
Closure fixing and orbital branching have no knob: neither changes the
optimal value.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import INF, LinearProgram, StandardArrays
from .scipy_backend import make_highs_relaxation, solve_lp_scipy
from .solution import IncumbentEvent, Solution, SolveStatus
from .symmetry import BlockSymmetry, detect_block_symmetry

_INT_TOL = 1e-6
#: Feasibility tolerance for validating *rounded* integer candidates
#: against the original constraints.  Matches HiGHS's primal feasibility
#: tolerance: an LP point is trusted to that precision and no further —
#: an LP vertex may sit within ``_INT_TOL`` of an integer point whose
#: exact constraint residual is far larger than the LP's own slack.
_FEAS_TOL = 1e-7


class _ClosureLoads:
    """Closure fixing's per-formulation half: each binary's closure loads.

    A precedence row has two coefficients, ``+1`` on ``x_v`` and ``-1`` on
    ``x_u``, both binary, with rhs 0: ``x_v <= x_u``.  A budget row has no
    negative coefficient, at least three nonzeros, all on columns with
    ``lb >= 0``, and a finite rhs.  Setting ``x_v = 1`` forces every
    ancestor of ``v`` to 1, so the least activity of a budget row with
    ``x_v = 1`` is its activity at ``lb`` plus the coefficients of ``v``'s
    ancestor closure that sit at ``lb = 0``: ``v``'s closure load.  Loads
    depend on ``A``, ``lb``, ``ub``, integrality and which rhs entries are
    finite or zero (:meth:`holds_for`), never on the budget values, so a
    formulation computes them once and :meth:`fixed` compares them with
    each solve's budgets.
    """

    def __init__(self, arrays: StandardArrays) -> None:
        b = arrays.b_ub
        self._finite, self._zero = np.isfinite(b), b == 0.0
        #: Budget rows, each row's activity with every binary at 1
        #: (``total``), and the lb-0 binaries that may be fixed with their
        #: loads (one column per budget row).  ``budget`` is empty when
        #: there is nothing to fix (no budget row, or cyclic precedence).
        self.budget = np.empty(0, dtype=np.intp)
        a = arrays.a_ub
        lb = np.asarray(arrays.lb, dtype=float)
        ub = np.asarray(arrays.ub, dtype=float)
        if not a.size:
            return
        n = a.shape[1]
        rows = np.arange(a.shape[0])
        hi_col = a.argmax(axis=1)
        lo_col = a.argmin(axis=1)
        hi = a[rows, hi_col]
        lo = a[rows, lo_col]

        budget = np.flatnonzero((lo >= 0.0) & self._finite)
        nonzero = a[budget] != 0.0
        budget = budget[
            (nonzero.sum(axis=1) >= 3) & ~(nonzero & (lb < 0.0)).any(axis=1)
        ]
        if not len(budget):
            return
        # Activity of each budget row at lb, and what each binary adds at 1.
        binary = (arrays.integrality != 0) & (lb >= 0.0) & (ub <= 1.0)
        a_budget = a[budget]
        floor = np.maximum(lb, 0.0)
        base = a_budget @ floor
        extra = np.where(binary, a_budget * (1.0 - floor), 0.0)

        # With max +1 and min -1, squares summing to 2 leave no other nonzero.
        precedence = (
            (hi == 1.0)
            & (lo == -1.0)
            & self._zero
            & (np.einsum("ij,ij->i", a, a) == 2.0)
            & binary[hi_col]
            & binary[lo_col]
        )
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for v, u in zip(
            hi_col[precedence].tolist(), lo_col[precedence].tolist()
        ):
            parents[v].append(u)
            children[u].append(v)
            indegree[v] += 1

        # Ancestor closures as bitsets, in topological order (Kahn); a cycle
        # leaves some binary unvisited, and then nothing is fixed.
        nodes = np.flatnonzero(binary)
        closure = [0] * n
        ready = [j for j in nodes.tolist() if not indegree[j]]
        visited = 0
        while ready:
            j = ready.pop()
            visited += 1
            bits = 1 << j
            for u in parents[j]:
                bits |= closure[u]
            closure[j] = bits
            for v in children[j]:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
        if visited < len(nodes):
            return

        width = (n + 7) // 8
        packed = b"".join(closure[j].to_bytes(width, "little") for j in nodes)
        member = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(len(nodes), width),
            axis=1,
            count=n,
            bitorder="little",
        )
        eligible = (lb[nodes] == 0.0) & (ub[nodes] > 0.0)
        self.budget = budget
        self.total = base + extra.sum(axis=1)
        self.nodes = nodes[eligible]
        self.loads = (base + member @ extra.T)[eligible]

    def holds_for(self, b_ub: np.ndarray) -> bool:
        """Whether ``b_ub`` has the finite and zero entries these loads
        were computed for."""
        return np.array_equal(np.isfinite(b_ub), self._finite) and (
            np.array_equal(b_ub == 0.0, self._zero)
        )

    def fixed(self, b_ub: np.ndarray) -> np.ndarray:
        """Binaries at ``lb = 0`` that no feasible point can set to 1.

        A binary whose closure load exceeds a budget rhs by more than
        :meth:`BranchAndBound._feasible`'s tolerance is 0 in every point
        the solver would accept.
        """
        if not len(self.budget):
            return self.budget
        b_budget = b_ub[self.budget]
        limit = b_budget + _FEAS_TOL * np.maximum(1.0, np.abs(b_budget))
        if np.all(self.total <= limit):
            return self.budget[:0]  # not even every binary at 1 overflows
        return self.nodes[(self.loads > limit).any(axis=1)]


class ProgramStructure:
    """What every solve of one formulation shares, computed once.

    A rate probe (:class:`~repro.core.probe.ScaledProbe`) solves one
    formulation many times, rewriting only ``c`` and ``b_ub`` between
    solves, and hands its one instance of this class to each
    :meth:`BranchAndBound.solve`; a bare solve builds one for itself.
    Every solve's arrays must share this formulation's ``A_ub``,
    ``A_eq``, ``b_eq``, ``lb``, ``ub`` and integrality objects (a probe's
    arrays are shallow copies of its base arrays).  It holds:

    * closure loads (:class:`_ClosureLoads`), built at the first solve and
      rebuilt only if the finite or zero ``b_ub`` entries change; each
      solve compares them with its budgets, in the same floats as a
      one-shot computation, so the fixed set is identical;
    * block symmetry, detected at the first solve that branches
      (:meth:`symmetry`).
    """

    def __init__(self, arrays: StandardArrays) -> None:
        self._arrays = arrays
        self._closure: _ClosureLoads | None = None
        self._symmetry: BlockSymmetry | None = None
        self._symmetry_b_ub: np.ndarray | None = None

    def _check(self, arrays: StandardArrays) -> None:
        base = self._arrays
        if not all(
            getattr(arrays, name) is getattr(base, name)
            for name in ("a_ub", "a_eq", "b_eq", "lb", "ub", "integrality")
        ):
            raise ValueError(
                "arrays differ from their formulation in more than c and b_ub"
            )

    def closure_fixed(self, arrays: StandardArrays) -> np.ndarray:
        """The binaries closure fixing sets to 0 in a solve of ``arrays``."""
        self._check(arrays)
        if self._closure is None or not self._closure.holds_for(arrays.b_ub):
            self._closure = _ClosureLoads(arrays)
        return self._closure.fixed(arrays.b_ub)

    def symmetry(self, arrays: StandardArrays) -> BlockSymmetry:
        """Verified block symmetry of ``arrays``.

        The first call detects it.  A later call reuses those families
        when each still holds for ``arrays``, and detects afresh
        otherwise.  Since ``A``, ``b_eq``, ``lb``, ``ub`` and integrality
        are the ones detection verified, a family still holds when

        * ``c`` is equal across its blocks, position by position, and
        * every ``b_ub`` row rewritten since detection has equal
          coefficients across its blocks, position by position.

        Soundness: :func:`~repro.solver.symmetry.verify_blocks` accepted
        the family on the detection arrays: for each swap of block 0 with
        block ``k``, ``c``, ``lb``, ``ub`` and integrality agree position
        by position, and the rows of ``[A | b]`` the swap touches form the
        same multiset before and after it.  Only ``c`` and ``b_ub`` can
        differ now, and the first condition re-checks ``c``.  A rewritten
        row that is equal across the blocks is mapped onto itself by every
        swap, at any rhs, so it stands for itself on both sides of the
        multiset equation, at detection and now; removing it from both
        sides of the verified equation leaves the other rows, whose
        ``[A | b]`` is unchanged, still matched.  A rewritten row that
        tells the blocks apart (each block's own budget row, exchanged by
        the swap and now with different rhs) fails the check, so the
        family is not reused.
        """
        self._check(arrays)
        if self._symmetry is None:
            self._symmetry = detect_block_symmetry(arrays)
            self._symmetry_b_ub = arrays.b_ub.copy()
            return self._symmetry
        rewritten = arrays.a_ub[arrays.b_ub != self._symmetry_b_ub]
        for blocks in self._symmetry.families:
            c = arrays.c[blocks]
            rows = rewritten[:, blocks]
            if not (c == c[0]).all() or not (rows == rows[:, :1]).all():
                return detect_block_symmetry(arrays)
        return self._symmetry


@dataclass(order=True)
class _Node:
    bound: float
    order: int
    # bounds overrides: variable index -> (lb, ub)
    var_bounds: dict[int, tuple[float, float]] = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBound:
    """Best-first branch and bound (with diving) over LP relaxations.

    Args:
        gap_tolerance: relative gap at which a solve is declared optimal.
        node_limit: maximum number of explored nodes.
        time_limit: wall-clock limit in seconds (``None`` = unlimited).
        dive: explore the rounding-preferred child depth-first immediately
            after branching (earlier incumbents, same final objective).
        reduced_cost_fixing: permanently fix integer variables at the root
            when their reduced cost proves no improving solution moves them.
        warm_start: solve every node of a solve on one persistent HiGHS
            model, each warm-started from the previous node's basis;
            otherwise each node is a cold ``linprog`` run.
    """

    def __init__(
        self,
        gap_tolerance: float = 1e-6,
        node_limit: int = 200_000,
        time_limit: float | None = None,
        dive: bool = True,
        reduced_cost_fixing: bool = True,
        warm_start: bool = True,
    ) -> None:
        self.gap_tolerance = gap_tolerance
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.dive = dive
        self.reduced_cost_fixing = reduced_cost_fixing
        self.warm_start = warm_start

    # -- helpers -----------------------------------------------------------

    def _make_relaxation_solver(self, arrays: StandardArrays, shared=None):
        """Bind HiGHS to this instance for the duration of a solve.

        Returns ``solve(lb, ub) -> Solution``.  With warm starts enabled,
        a persistent HiGHS model is kept hot across nodes (bound edits +
        dual-simplex resume); otherwise each call is an independent cold
        solve.  ``shared`` is an already-built
        :class:`~repro.solver.scipy_backend.HighsRelaxation` to reuse (it
        outlives this solve: a rate probe keeps one model across probes
        and clears its basis before each).
        """
        engine = None
        if self.warm_start:
            engine = (
                shared if shared is not None else make_highs_relaxation(arrays)
            )

        def relax(lb, ub):
            nonlocal engine
            if engine is not None:
                try:
                    return engine.solve(lb, ub)
                except Exception:
                    # The private HiGHS bindings misbehaved mid-solve
                    # (e.g. a scipy upgrade changed a signature):
                    # degrade permanently to cold linprog solves.
                    engine = None
            return solve_lp_scipy(arrays.with_bounds(lb, ub))

        return relax

    @staticmethod
    def _fractionality(
        x: np.ndarray, int_indices: np.ndarray
    ) -> tuple[int, float]:
        """Return (most fractional integer index, its fractionality score).

        The score is ``0.5 - |frac - 0.5|``: 0.5 means exactly half-integral
        (the most fractional a variable can be), values near 0 mean nearly
        integral.  Variables within ``_INT_TOL`` of an integer are skipped;
        ties go to the lowest index.
        """
        if len(int_indices) == 0:
            return -1, 0.0
        xi = x[int_indices]
        frac = xi - np.floor(xi)
        fractional = (frac > _INT_TOL) & (frac < 1.0 - _INT_TOL)
        if not fractional.any():
            return -1, 0.0
        score = 0.5 - np.abs(frac - 0.5)
        score[~fractional] = -1.0
        best = int(np.argmax(score))
        return int(int_indices[best]), float(score[best])

    @staticmethod
    def _check_integral(x: np.ndarray, int_indices: np.ndarray) -> bool:
        fractional = np.abs(x[int_indices] - np.round(x[int_indices]))
        return bool(np.all(fractional <= _INT_TOL))

    @staticmethod
    def _feasible(
        arrays: StandardArrays,
        lb: np.ndarray,
        ub: np.ndarray,
        x: np.ndarray,
        tol: float = _FEAS_TOL,
    ) -> bool:
        """Exact-arithmetic feasibility of ``x`` within ``tol``.

        Row tolerances scale with the right-hand side (``tol * max(1,
        |b|)``): constraint rows are unnormalized — budget rows can carry
        byte/sec coefficients of 1e3-1e5 against right-hand sides up to
        the net-budget cap — and an absolute cutoff there would reject
        points the (internally scaled) LP engine rightly calls feasible.
        """
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        if arrays.a_ub.size:
            row_tol = tol * np.maximum(1.0, np.abs(arrays.b_ub))
            if np.any(arrays.a_ub @ x > arrays.b_ub + row_tol):
                return False
        if arrays.a_eq.size:
            row_tol = tol * np.maximum(1.0, np.abs(arrays.b_eq))
            if np.any(np.abs(arrays.a_eq @ x - arrays.b_eq) > row_tol):
                return False
        return True

    def _round_heuristic(
        self,
        arrays: StandardArrays,
        lb: np.ndarray,
        ub: np.ndarray,
        x: np.ndarray,
        int_indices: np.ndarray,
    ) -> np.ndarray | None:
        """Round integer variables and test feasibility of the result."""
        candidate = x.copy()
        candidate[int_indices] = np.round(candidate[int_indices])
        if self._feasible(arrays, lb, ub, candidate):
            return candidate
        # Second attempt: push fractional vars down (cheaper on budgeted
        # knapsack-style rows, which is what the CPU constraint is).
        candidate = x.copy()
        candidate[int_indices] = np.floor(candidate[int_indices] + _INT_TOL)
        if self._feasible(arrays, lb, ub, candidate):
            return candidate
        return None

    def _integral_candidate(
        self,
        arrays: StandardArrays,
        lb: np.ndarray,
        ub: np.ndarray,
        x: np.ndarray,
        int_indices: np.ndarray,
    ) -> np.ndarray | None:
        """Validate a near-integral LP point as a true integer solution.

        An LP vertex with every integer variable within ``_INT_TOL`` of an
        integer is only *tolerance*-feasible: the exact integer point it
        implies can violate a tight constraint (e.g. the CPU-budget
        knapsack row) by up to ``|a| * _INT_TOL`` — orders of magnitude
        beyond the LP engine's own feasibility tolerance.  Accepting such
        a point as an incumbent makes the solver report "optimal"
        assignments that fail an exact budget check downstream.  Returns
        the rounded candidate when it satisfies the original constraints
        within ``_FEAS_TOL``, else ``None`` (the caller branches on the
        worst-deviation variable instead).
        """
        candidate = x.copy()
        candidate[int_indices] = np.round(candidate[int_indices])
        if self._feasible(arrays, lb, ub, candidate):
            return candidate
        if np.array_equal(candidate, x):
            # The LP point is *exactly* integral yet fails our re-check:
            # the residual is pure summation noise between our dense dot
            # product and the engine's sparse one.  Trust the engine.
            return candidate
        return None

    @staticmethod
    def _deviation_branch(
        x: np.ndarray,
        int_indices: np.ndarray,
        bounds_of: "Callable[[int], tuple[float, float]]",
    ) -> int:
        """Branch variable for a rejected near-integral point.

        Picks the integer variable farthest from its rounded value (all
        are within ``_INT_TOL``, so the ordinary fractionality rule sees
        none of them); fixing it to either neighbouring integer forces
        the LP to absorb the rounding error exactly.  Variables whose
        floor/ceil branch cannot *strictly tighten* their current box are
        skipped — branching an already-fixed variable would recreate the
        parent node verbatim and loop.  Returns -1 when no variable
        qualifies (the node is pruned).
        """
        if len(int_indices) == 0:
            return -1
        deviation = np.abs(x[int_indices] - np.round(x[int_indices]))
        for pos in np.argsort(-deviation):
            if deviation[pos] <= 0.0:
                break
            idx = int(int_indices[pos])
            blb, bub = bounds_of(idx)
            floor_val = math.floor(x[idx])
            ceil_val = math.ceil(x[idx])
            down_ok = blb <= floor_val < bub
            up_ok = blb < ceil_val <= bub
            if down_ok or up_ok:
                return idx
        return -1

    # -- main entry ---------------------------------------------------------

    def solve(
        self,
        program: LinearProgram | StandardArrays,
        relaxation=None,
        structure: ProgramStructure | None = None,
    ) -> Solution:
        """Solve the MILP.

        ``relaxation`` is an optional already-built
        :class:`~repro.solver.scipy_backend.HighsRelaxation` of ``program``
        with no solver state (used with warm starts only), so a caller
        that solves one model many times skips the model build.
        ``structure`` is the :class:`ProgramStructure` of the formulation
        ``program`` is a solve of; without one, the solve builds its own.
        """
        arrays = (
            program.to_arrays()
            if isinstance(program, LinearProgram)
            else program
        )
        if structure is None:
            structure = ProgramStructure(arrays)
        start = time.perf_counter()
        int_indices = np.flatnonzero(arrays.integrality)
        total_iterations = 0

        # Pristine bounds for global feasibility checks; working root bounds
        # (lb0/ub0) are tightened by closure fixing here and by
        # reduced-cost fixing after the root.
        lb_orig = np.asarray(arrays.lb, dtype=float)
        ub_orig = np.asarray(arrays.ub, dtype=float)
        lb0 = lb_orig.copy()
        ub0 = ub_orig.copy()
        ub0[structure.closure_fixed(arrays)] = 0.0

        solve_relaxation = self._make_relaxation_solver(arrays, relaxation)
        root = solve_relaxation(lb0, ub0)
        total_iterations += root.iterations
        if root.status == SolveStatus.INFEASIBLE:
            return Solution(
                status=SolveStatus.INFEASIBLE,
                prove_elapsed=time.perf_counter() - start,
                nodes_explored=1,
                iterations=total_iterations,
            )
        if root.status == SolveStatus.UNBOUNDED:
            return Solution(
                status=SolveStatus.UNBOUNDED,
                prove_elapsed=time.perf_counter() - start,
                nodes_explored=1,
                iterations=total_iterations,
            )
        if root.status != SolveStatus.OPTIMAL:
            return Solution(
                status=SolveStatus.LIMIT,
                prove_elapsed=time.perf_counter() - start,
                nodes_explored=1,
                iterations=total_iterations,
            )

        nodes_explored = 1  # the root relaxation
        incumbent_x: np.ndarray | None = None
        incumbent_obj = INF
        incumbents: list[IncumbentEvent] = []

        def record_incumbent(x: np.ndarray, obj: float) -> None:
            nonlocal incumbent_x, incumbent_obj
            if obj < incumbent_obj - 1e-12:
                incumbent_x = x.copy()
                incumbent_obj = obj
                incumbents.append(
                    IncumbentEvent(
                        elapsed=time.perf_counter() - start,
                        objective=obj,
                        node_count=nodes_explored,
                    )
                )

        def cutoff() -> float:
            """Nodes with relaxation bound >= this cannot improve."""
            if incumbent_obj == INF:
                return INF
            return incumbent_obj - self.gap_tolerance * max(
                1.0, abs(incumbent_obj)
            )

        def finish(status: SolveStatus, bound: float) -> Solution:
            elapsed = time.perf_counter() - start
            return Solution(
                status=status,
                objective=incumbent_obj,
                x=incumbent_x,
                names=arrays.names,
                bound=bound,
                incumbents=incumbents,
                discover_elapsed=(
                    incumbents[-1].elapsed if incumbents else elapsed
                ),
                prove_elapsed=elapsed,
                nodes_explored=nodes_explored,
                iterations=total_iterations,
            )

        x_root = root.x
        if self._check_integral(x_root, int_indices):
            candidate = self._integral_candidate(
                arrays, lb_orig, ub_orig, x_root, int_indices
            )
            if candidate is not None:
                record_incumbent(candidate, float(arrays.c @ candidate))
                return finish(SolveStatus.OPTIMAL, root.objective)
            # Rounded point violates a constraint: fall through to the
            # tree, which branches on the worst-deviation variable.
        else:
            rounded = self._round_heuristic(
                arrays, lb_orig, ub_orig, x_root, int_indices
            )
            if rounded is not None:
                record_incumbent(rounded, float(arrays.c @ rounded))
                if root.objective >= cutoff():
                    return finish(SolveStatus.OPTIMAL, incumbent_obj)

        # Reduced-cost fixing at the root (Dantzig): a nonbasic integer
        # variable at its bound with reduced cost d must raise the LP bound
        # by at least |d| to take its next integer value; if that already
        # crosses the cutoff, the variable is fixed for the whole tree.
        if (
            self.reduced_cost_fixing
            and root.reduced_costs is not None
            and incumbent_obj < INF
            and len(int_indices)
        ):
            slack = cutoff() - root.objective
            rc = np.asarray(root.reduced_costs, dtype=float)[int_indices]
            xi = x_root[int_indices]
            lbi = lb0[int_indices]
            ubi = ub0[int_indices]
            open_interval = ubi > lbi
            # Only fix onto a finite bound that is itself an integer value —
            # the nearest alternative integer is then exactly 1 away, which
            # is the step the reduced-cost argument prices.
            lb_integral = np.isfinite(lbi)
            lb_integral[lb_integral] &= (
                np.abs(lbi[lb_integral] - np.round(lbi[lb_integral]))
                <= _INT_TOL
            )
            ub_integral = np.isfinite(ubi)
            ub_integral[ub_integral] &= (
                np.abs(ubi[ub_integral] - np.round(ubi[ub_integral]))
                <= _INT_TOL
            )
            at_lb = (
                (np.abs(xi - lbi) <= _INT_TOL)
                & open_interval
                & lb_integral
            )
            at_ub = (
                (np.abs(xi - ubi) <= _INT_TOL)
                & open_interval
                & ub_integral
            )
            fix_down = int_indices[at_lb & (rc >= slack)]
            fix_up = int_indices[at_ub & (-rc >= slack)]
            ub0[fix_down] = lb0[fix_down]
            lb0[fix_up] = ub0[fix_up]

        counter = itertools.count()
        heap: list[_Node] = []
        root_node = _Node(
            bound=root.objective, order=next(counter), var_bounds={}
        )
        # The root relaxation is already solved (and its integrality check
        # and rounding heuristic already ran above); seed the loop with it
        # so it goes straight to branching.
        dive_next: _Node | None = None
        pending: tuple[_Node, Solution, bool] | None = (root_node, root, False)
        # Best bound among subtrees dropped because the LP engine hit its
        # own limit (not infeasibility); optimality cannot be claimed past
        # this value.
        unresolved_bound = INF
        # Found at the first branching: a solve that closes at the root
        # never pays for detection.
        symmetry: BlockSymmetry | None = None

        while pending is not None or dive_next is not None or heap:
            if nodes_explored >= self.node_limit:
                break
            if (
                self.time_limit is not None
                and time.perf_counter() - start > self.time_limit
            ):
                break

            if pending is not None:
                node, relax, run_checks = pending
                pending = None
                lb, ub = lb0, ub0
            else:
                run_checks = True
                if dive_next is not None:
                    node, dive_next = dive_next, None
                    if node.bound >= cutoff():
                        continue
                else:
                    node = heapq.heappop(heap)
                    if node.bound >= cutoff():
                        # Bound can no longer improve on the incumbent:
                        # proven — unless an engine-limited subtree with a
                        # better bound was dropped along the way.
                        if unresolved_bound < cutoff():
                            return finish(
                                SolveStatus.FEASIBLE, unresolved_bound
                            )
                        return finish(SolveStatus.OPTIMAL, incumbent_obj)
                nodes_explored += 1
                lb = lb0.copy()
                ub = ub0.copy()
                for idx, (vlb, vub) in node.var_bounds.items():
                    lb[idx] = vlb
                    ub[idx] = vub
                relax = solve_relaxation(lb, ub)
                total_iterations += relax.iterations
                if relax.status == SolveStatus.INFEASIBLE:
                    continue  # infeasible subtree
                if relax.status != SolveStatus.OPTIMAL:
                    # The engine gave up (iteration limit): the subtree is
                    # unresolved, not infeasible — remember its bound so
                    # the final status cannot over-claim optimality.
                    unresolved_bound = min(unresolved_bound, node.bound)
                    continue
                if relax.objective >= cutoff():
                    continue  # pruned by bound

            x = relax.x
            if run_checks and not self._check_integral(x, int_indices):
                rounded = self._round_heuristic(
                    arrays, lb_orig, ub_orig, x, int_indices
                )
                if rounded is not None:
                    record_incumbent(rounded, float(arrays.c @ rounded))

            def bounds_of(idx: int) -> tuple[float, float]:
                if idx in node.var_bounds:
                    return node.var_bounds[idx]
                return float(lb0[idx]), float(ub0[idx])

            branch_idx, _ = self._fractionality(x, int_indices)
            if branch_idx < 0:
                # Every integer variable is within _INT_TOL of an integer;
                # accept only if the exact rounded point checks out, else
                # branch on the worst-deviation variable so the LP absorbs
                # the rounding error exactly.
                candidate = self._integral_candidate(
                    arrays, lb_orig, ub_orig, x, int_indices
                )
                if candidate is not None:
                    record_incumbent(candidate, float(arrays.c @ candidate))
                    continue
                branch_idx = self._deviation_branch(x, int_indices, bounds_of)
                if branch_idx < 0:
                    # Every deviating variable sits at a box bound within
                    # noise, so no branch can absorb the rounding error.
                    # Dropping the node could turn a feasible instance
                    # into INFEASIBLE; defer to the engine's feasibility
                    # verdict instead and accept the rounded point (the
                    # pre-validation behaviour, now reachable only via
                    # bound-tolerance noise).
                    fallback = x.copy()
                    fallback[int_indices] = np.round(fallback[int_indices])
                    record_incumbent(fallback, float(arrays.c @ fallback))
                    continue
            value = x[branch_idx]
            blb, bub = bounds_of(branch_idx)
            floor_val, ceil_val = math.floor(value), math.ceil(value)
            if floor_val >= ceil_val:
                # Deviation branching on an exactly-integral value cannot
                # tighten the box; prune rather than loop.
                continue
            down = dict(node.var_bounds)
            down[branch_idx] = (blb, float(floor_val))
            if (blb, bub) == (0.0, 1.0):
                # Orbital branching: the down child fixes the binary's
                # whole orbit, since any point with some orbit member at 1
                # maps onto one with this member at 1 (the up child).
                if symmetry is None:
                    symmetry = structure.symmetry(arrays)
                orbit = symmetry.orbit(branch_idx, lb, ub)
                if orbit is not None:
                    down.update(dict.fromkeys(orbit.tolist(), (0.0, 0.0)))
            up = dict(node.var_bounds)
            up[branch_idx] = (float(ceil_val), bub)

            children = [
                _Node(
                    bound=relax.objective,
                    order=next(counter),
                    var_bounds=child,
                    depth=node.depth + 1,
                )
                # A child is kept only when its branch interval is
                # non-empty AND strictly tighter than the parent's box —
                # an identical child (deviation branching on a variable
                # at a bound) would re-solve the same node forever, and
                # an empty interval is trivially infeasible.
                for child, valid in (
                    (down, blb <= floor_val < bub),
                    (up, blb < ceil_val <= bub),
                )
                if valid
            ]
            if not children:
                continue
            if self.dive and len(children) == 2:
                # Dive toward the rounding-preferred side; the sibling goes
                # to the heap so the global bound stays exact.
                preferred = 0 if (value - floor_val) <= 0.5 else 1
                dive_next = children[preferred]
                heapq.heappush(heap, children[1 - preferred])
            elif self.dive:
                dive_next = children[0]
            else:
                for child in children:
                    heapq.heappush(heap, child)

        # Loop left by a limit or by exhausting the tree.
        elapsed = time.perf_counter() - start
        open_bounds = [n.bound for n in ([dive_next] if dive_next else [])]
        if heap:
            open_bounds.append(heap[0].bound)
        if pending is not None:
            open_bounds.append(pending[0].bound)
        if unresolved_bound < INF:
            open_bounds.append(unresolved_bound)
        remaining = min(open_bounds) if open_bounds else INF

        if incumbent_x is None:
            status = (
                SolveStatus.INFEASIBLE
                if remaining == INF
                else SolveStatus.LIMIT
            )
            return Solution(
                status=status,
                prove_elapsed=elapsed,
                nodes_explored=nodes_explored,
                iterations=total_iterations,
            )
        if remaining < cutoff():
            return finish(SolveStatus.FEASIBLE, remaining)
        return finish(SolveStatus.OPTIMAL, incumbent_obj)

