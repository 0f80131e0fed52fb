"""Seeded partition problems with replicated identical branches.

Test support for the symmetry code: ``k`` copies of one random branch
(a node-pinned source, a chain of operators, optionally a diamond of two
identical operators) feed one shared server-pinned sink, the shape of the
EEG application's channels.  Every instance has at most 14 operators, so
brute force can enumerate it.  :func:`probe_arrays` rewrites a
formulation's arrays the way a rate probe does between solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import PartitionProblem, WeightedEdge
from repro.core.probe import BUDGET_ROW_NAMES
from repro.core.problem import NET_BUDGET_CAP
from repro.dataflow import Pinning
from repro.solver import StandardArrays

MAX_OPS = 14


@dataclass
class Replicated:
    """A generated instance and the vertex names of each branch, listed
    in the same role order for every branch."""

    problem: PartitionProblem
    branches: list[list[str]]


def replicated_branches(seed: int, perturb: bool = False) -> Replicated:
    """``k`` identical branches into a shared sink, from ``seed``.

    With ``perturb`` the CPU cost of branch 0's first operator is scaled
    by ``1 + 1e-9``: one coefficient of the CPU row (and, when the
    objective weighs CPU, of ``c``), so branch 0 is no longer a copy.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    per_branch = (MAX_OPS - 1) // k  # source + operators
    diamond = bool(rng.random() < 0.5) and per_branch >= 4
    chain = int(rng.integers(1, per_branch - 2 * diamond))
    roles = ["src"] + [f"op{i}" for i in range(chain)]
    if diamond:
        roles += ["left", "right"]
    cpu = {role: float(rng.uniform(0.05, 1.0)) for role in roles}
    cpu["src"] = 0.0
    if diamond:
        cpu["right"] = cpu["left"]
    # Template edges (src role, dst role or "sink"), one bandwidth each;
    # the diamond's two arms carry the same bandwidths.
    path = ["src"] + roles[1 : 1 + chain]
    edges = list(zip(path[:-1], path[1:]))
    if diamond:
        edges += [(path[-1], "left"), (path[-1], "right")]
        edges += [("left", "sink"), ("right", "sink")]
    else:
        edges.append((path[-1], "sink"))
    bandwidth = {edge: float(rng.uniform(1.0, 100.0)) for edge in edges}
    if diamond:
        bandwidth[(path[-1], "right")] = bandwidth[(path[-1], "left")]
        bandwidth[("right", "sink")] = bandwidth[("left", "sink")]

    branches = [[f"b{b}.{role}" for role in roles] for b in range(k)]
    vertices = [name for branch in branches for name in branch] + ["sink"]
    vertex_cpu = {"sink": 0.0}
    pins = {"sink": Pinning.SERVER}
    weighted = []
    for b, branch in enumerate(branches):
        for role, name in zip(roles, branch):
            vertex_cpu[name] = cpu[role]
        pins[branch[0]] = Pinning.NODE
        for src, dst in edges:
            weighted.append(
                WeightedEdge(
                    f"b{b}.{src}",
                    "sink" if dst == "sink" else f"b{b}.{dst}",
                    bandwidth[(src, dst)],
                )
            )
    if perturb:
        vertex_cpu[branches[0][1]] *= 1.0 + 1e-9

    total_cpu = sum(vertex_cpu.values())
    source_out = k * bandwidth[edges[0]]
    net_budget = (
        float(rng.uniform(0.3, 1.0)) * source_out
        if rng.random() < 0.3
        else 1e12
    )
    alpha = float(rng.uniform(0.0, 50.0)) if rng.random() < 0.5 else 0.0
    problem = PartitionProblem(
        vertices=vertices,
        cpu=vertex_cpu,
        edges=weighted,
        pins=pins,
        cpu_budget=total_cpu * float(rng.uniform(0.2, 0.9)),
        net_budget=net_budget,
        alpha=alpha,
        beta=1.0,
    )
    return Replicated(problem=problem, branches=branches)


def probe_arrays(
    arrays: StandardArrays,
    factor: float,
    cpu_budget: float | None = None,
    net_budget: float | None = None,
) -> StandardArrays:
    """``arrays`` as a rate probe solves them at ``factor``.

    The cost vector is multiplied by ``factor``; the budget rows' rhs are
    replaced by ``cpu_budget``/``net_budget`` (``None`` keeps them) and
    divided by ``factor``.  Every other array is shared with ``arrays``,
    as a probe's are with its base formulation.
    """
    if net_budget is not None:
        net_budget = min(net_budget, NET_BUDGET_CAP)
    b_ub = arrays.b_ub.copy()
    budgets = (("cpu_budget", cpu_budget), ("net_budget", net_budget))
    for name, budget in budgets:
        if budget is not None and name in arrays.ub_row_names:
            b_ub[arrays.ub_row_names.index(name)] = budget
    rows = [
        i for i, name in enumerate(arrays.ub_row_names)
        if name in BUDGET_ROW_NAMES
    ]
    b_ub[rows] = b_ub[rows] / factor
    return replace(arrays, c=arrays.c * factor, b_ub=b_ub)
