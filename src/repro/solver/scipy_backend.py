"""scipy (HiGHS) LP engine for branch and bound.

These wrap HiGHS behind the same :class:`~repro.solver.solution.Solution`
interface as our branch and bound.  They solve its LP relaxations:
:class:`HighsRelaxation` keeps one persistent model per solve, and
:func:`solve_lp_scipy` runs one cold :func:`scipy.optimize.linprog` per
node (with warm starts off, or when scipy's private HiGHS bindings are
missing).

The LP wrapper is array-native: bounds travel as an (n, 2) ndarray (no
per-variable tuple list), the result carries the raw solution vector, and
per-variable reduced costs are extracted from the HiGHS bound marginals so
branch and bound can do reduced-cost fixing at the root without a second
solve.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from .model import LinearProgram, StandardArrays
from .solution import Solution, SolveStatus


try:  # private scipy module; present in every scipy that ships HiGHS >= 1.9
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None


def _as_arrays(program: LinearProgram | StandardArrays) -> StandardArrays:
    if isinstance(program, LinearProgram):
        return program.to_arrays()
    return program


class HighsRelaxation:
    """A persistent, warm-started HiGHS LP for branch-and-bound relaxations.

    :func:`scipy.optimize.linprog` rebuilds and cold-starts a HiGHS model on
    every call, which costs ~10x the actual re-solve work when branch and
    bound probes thousands of child nodes of one instance.  This class
    passes the model to HiGHS once and then serves each node with two bound
    edits and a warm ``run()`` — HiGHS reuses the previous optimal basis, so
    a child relaxation typically needs a handful of dual simplex pivots.
    Warm starts stay inside one solve: :meth:`update_problem` retargets
    the model for the next solve and discards every basis.

    Raises ``RuntimeError`` at construction when scipy's private HiGHS
    bindings are unavailable; callers fall back to :func:`solve_lp_scipy`.
    """

    def __init__(self, arrays: StandardArrays) -> None:
        if _highs_core is None:
            raise RuntimeError("scipy HiGHS bindings unavailable")
        self.arrays = arrays
        n = arrays.num_variables
        m_ub = arrays.a_ub.shape[0]
        m_eq = arrays.a_eq.shape[0]
        m = m_ub + m_eq

        lp = _highs_core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.col_cost_ = np.asarray(arrays.c, dtype=float)
        lp.col_lower_ = np.asarray(arrays.lb, dtype=float)
        lp.col_upper_ = np.asarray(arrays.ub, dtype=float)
        row_lower = np.full(m, -np.inf)
        row_upper = np.empty(m)
        row_upper[:m_ub] = arrays.b_ub
        if m_eq:
            row_lower[m_ub:] = arrays.b_eq
            row_upper[m_ub:] = arrays.b_eq
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper

        stacked = (
            np.vstack([arrays.a_ub, arrays.a_eq])
            if m_eq
            else arrays.a_ub
        )
        csr = sparse.csr_matrix(stacked) if m else sparse.csr_matrix((0, n))
        matrix = _highs_core.HighsSparseMatrix()
        matrix.format_ = _highs_core.MatrixFormat.kRowwise
        matrix.num_col_ = n
        matrix.num_row_ = m
        matrix.start_ = csr.indptr.astype(np.int32)
        matrix.index_ = csr.indices.astype(np.int32)
        matrix.value_ = np.asarray(csr.data, dtype=float)
        lp.a_matrix_ = matrix

        self._highs = _highs_core._Highs()
        self._highs.setOptionValue("output_flag", False)
        status = self._highs.passModel(lp)
        if status not in (
            _highs_core.HighsStatus.kOk,
            _highs_core.HighsStatus.kWarning,
        ):
            raise RuntimeError(f"HiGHS rejected the model: {status}")
        self._col_indices = np.arange(n, dtype=np.int32)
        self._current_lb = np.asarray(arrays.lb, dtype=float)
        self._current_ub = np.asarray(arrays.ub, dtype=float)

    # -- in-place model edits (rate probes) -------------------------------

    def update_problem(
        self,
        c: np.ndarray | None = None,
        b_ub: np.ndarray | None = None,
    ) -> None:
        """Rewrite the objective and/or inequality right-hand sides in
        place, then drop all solver state.

        Used by :class:`~repro.core.probe.ScaledProbe`: a §4.3 rate probe
        only rescales the cost vector and the budget rows, so the model is
        kept across probes.  Its basis is not: the next solve starts cold
        and is bit-identical to one on a model freshly built from the new
        arrays, so no answer depends on what was solved before.
        """
        if c is not None:
            c = np.asarray(c, dtype=float)
            self._highs.changeColsCost(
                len(self._col_indices), self._col_indices, c
            )
            self.arrays = self.arrays.with_objective(c)
        if b_ub is not None:
            b_ub = np.asarray(b_ub, dtype=float)
            for row in np.flatnonzero(b_ub != self.arrays.b_ub):
                self._highs.changeRowBounds(
                    int(row), -np.inf, float(b_ub[row])
                )
            self.arrays = self.arrays.with_b_ub(b_ub)
        self._highs.clearSolver()

    def solve(
        self, lb: np.ndarray | None = None, ub: np.ndarray | None = None
    ) -> Solution:
        """Re-solve under replacement bounds, warm-starting from the last
        basis.  ``None`` keeps the bounds from the previous solve."""
        if lb is not None or ub is not None:
            self._current_lb = np.asarray(
                lb if lb is not None else self._current_lb, dtype=float
            )
            self._current_ub = np.asarray(
                ub if ub is not None else self._current_ub, dtype=float
            )
            self._highs.changeColsBounds(
                len(self._col_indices),
                self._col_indices,
                self._current_lb,
                self._current_ub,
            )
        self._highs.run()
        status = self._highs.getModelStatus()
        core = _highs_core
        iterations = int(self._highs.getInfo().simplex_iteration_count)
        if status == core.HighsModelStatus.kInfeasible:
            return Solution(
                status=SolveStatus.INFEASIBLE, iterations=iterations
            )
        if status in (
            core.HighsModelStatus.kUnbounded,
            core.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            return Solution(
                status=SolveStatus.UNBOUNDED, iterations=iterations
            )
        if status != core.HighsModelStatus.kOptimal:
            return Solution(status=SolveStatus.LIMIT, iterations=iterations)
        highs_solution = self._highs.getSolution()
        objective = float(self._highs.getObjectiveValue())
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            x=np.asarray(highs_solution.col_value, dtype=float),
            names=self.arrays.names,
            bound=objective,
            iterations=iterations,
            reduced_costs=np.asarray(highs_solution.col_dual, dtype=float),
        )


def make_highs_relaxation(arrays: StandardArrays) -> HighsRelaxation | None:
    """Build a persistent HiGHS relaxation engine, or ``None`` when the
    private bindings are missing (callers then use :func:`solve_lp_scipy`)."""
    try:
        return HighsRelaxation(arrays)
    except Exception:
        return None


def _extract_reduced_costs(result) -> np.ndarray | None:
    """Per-variable reduced costs from the HiGHS bound marginals.

    HiGHS reports the sensitivity of the optimum to each variable bound;
    for a variable sitting at one of its bounds exactly one marginal is
    nonzero and equals the classical reduced cost.
    """
    lower = getattr(result, "lower", None)
    upper = getattr(result, "upper", None)
    if lower is None or upper is None:
        return None
    lo = getattr(lower, "marginals", None)
    hi = getattr(upper, "marginals", None)
    if lo is None or hi is None:
        return None
    return np.asarray(lo) + np.asarray(hi)


def solve_lp_scipy(program: LinearProgram | StandardArrays) -> Solution:
    """Solve the LP relaxation with one cold HiGHS run (integrality
    dropped)."""
    arrays = _as_arrays(program)
    result = optimize.linprog(
        arrays.c,
        A_ub=arrays.a_ub if arrays.a_ub.size else None,
        b_ub=arrays.b_ub if arrays.a_ub.size else None,
        A_eq=arrays.a_eq if arrays.a_eq.size else None,
        b_eq=arrays.b_eq if arrays.a_eq.size else None,
        bounds=np.column_stack((arrays.lb, arrays.ub)),
        method="highs",
    )
    if result.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE)
    if result.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED)
    if not result.success:
        return Solution(status=SolveStatus.LIMIT)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(result.fun),
        x=np.asarray(result.x, dtype=float),
        names=arrays.names,
        bound=float(result.fun),
        iterations=int(getattr(result, "nit", 0) or 0),
        reduced_costs=_extract_reduced_costs(result),
    )
