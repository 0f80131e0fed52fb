"""Closure fixing in one shot, kept only as a test oracle.

Branch and bound splits closure fixing in two: the closure loads are
computed once per formulation (:class:`repro.solver.branch_bound.
ProgramStructure`) and compared with each solve's budgets.  This module
is the computation before that split, from the arrays of one solve
alone; tests check that both name the same binaries.
"""

from __future__ import annotations

import numpy as np

from repro.solver.branch_bound import _FEAS_TOL
from repro.solver.model import StandardArrays


def closure_overflow(
    arrays: StandardArrays, lb: np.ndarray, ub: np.ndarray
) -> np.ndarray:
    """Binaries at ``lb = 0`` that no feasible point can set to 1.

    A precedence row has two coefficients, ``+1`` on ``x_v`` and ``-1`` on
    ``x_u``, both binary, with rhs 0: ``x_v <= x_u``.  A budget row has no
    negative coefficient, at least three nonzeros, all on columns with
    ``lb >= 0``, and a finite rhs.  Setting ``x_v = 1`` forces every
    ancestor of ``v`` to 1, so the least activity of a budget row with
    ``x_v = 1`` is its activity at ``lb`` plus the coefficients of ``v``'s
    ancestor closure that sit at ``lb = 0``.  When that exceeds the rhs by
    more than branch and bound's feasibility tolerance, ``x_v`` is 0 in
    every point the solver would accept.  Returns those column indices
    (none when the rows have no such structure or the precedence rows
    form a cycle).
    """
    none = np.empty(0, dtype=np.intp)
    a, b = arrays.a_ub, arrays.b_ub
    if not a.size:
        return none
    n = a.shape[1]
    rows = np.arange(a.shape[0])
    hi_col = a.argmax(axis=1)
    lo_col = a.argmin(axis=1)
    hi = a[rows, hi_col]
    lo = a[rows, lo_col]

    budget = np.flatnonzero((lo >= 0.0) & np.isfinite(b))
    nonzero = a[budget] != 0.0
    budget = budget[
        (nonzero.sum(axis=1) >= 3) & ~(nonzero & (lb < 0.0)).any(axis=1)
    ]
    if not len(budget):
        return none
    # Activity of each budget row at lb, and what each binary adds at 1.
    binary = (arrays.integrality != 0) & (lb >= 0.0) & (ub <= 1.0)
    a_budget, b_budget = a[budget], b[budget]
    floor = np.maximum(lb, 0.0)
    base = a_budget @ floor
    extra = np.where(binary, a_budget * (1.0 - floor), 0.0)
    limit = b_budget + _FEAS_TOL * np.maximum(1.0, np.abs(b_budget))
    if np.all(base + extra.sum(axis=1) <= limit):
        return none  # not even every binary at 1 overflows a row

    # With max +1 and min -1, squares summing to 2 leave no other nonzero.
    precedence = (
        (hi == 1.0)
        & (lo == -1.0)
        & (b == 0.0)
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
        return none

    width = (n + 7) // 8
    packed = b"".join(closure[j].to_bytes(width, "little") for j in nodes)
    member = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(nodes), width),
        axis=1,
        count=n,
        bitorder="little",
    )
    overflow = (base + member @ extra.T > limit).any(axis=1)
    return nodes[overflow & (lb[nodes] == 0.0) & (ub[nodes] > 0.0)]
