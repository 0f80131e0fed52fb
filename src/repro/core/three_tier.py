"""Three-tier partitioning: motes -> microservers -> central server (§9).

"A more radical change would extend the model with multiple logical
partitions corresponding to categories of devices. [...] We have verified
that we can use an ILP approach for a restricted three tier network
architecture.  (Motes communicate only to microservers, and microservers
to the central server.)"

This module implements that restricted three-tier ILP.  Each vertex is
assigned a tier from {MOTE, MICRO, SERVER}; data flows strictly downward
(mote -> micro -> server), so the encoding uses two nested binaries per
vertex:

    a_v = 1  iff  v runs on the mote or the microserver
    b_v = 1  iff  v runs on the mote          (b_v <= a_v)

Precedence on every edge (u, v):  b_u >= b_v  and  a_u >= a_v.
Budgets: mote CPU over b, microserver CPU over (a - b); the mote radio
carries sum (b_u - b_v) r_uv, the microserver backhaul sum (a_u - a_v)
r_uv.  CPU costs differ per tier (the whole point of heterogeneous
hardware), so the instance carries two cost vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..dataflow.graph import Pinning
from ..solver.model import LinearProgram, Variable
from .cut import PartitionError
from .problem import WeightedEdge


class Tier(enum.Enum):
    MOTE = "mote"
    MICRO = "micro"
    SERVER = "server"


#: Ordering used by the downward-flow restriction (higher = closer to
#: the sensor).
_TIER_LEVEL = {Tier.MOTE: 2, Tier.MICRO: 1, Tier.SERVER: 0}


@dataclass
class ThreeTierProblem:
    """A three-tier partitioning instance.

    Attributes:
        vertices: vertex names.
        mote_cpu / micro_cpu: per-vertex CPU cost on each embedded tier.
        edges: directed weighted edges (bandwidth in bytes/s).
        pins: optional fixed tier per vertex.
        mote_cpu_budget / micro_cpu_budget: CPU budgets (Eq. 2 analogue).
        mote_net_budget: budget of the mote -> microserver radio.
        micro_net_budget: budget of the microserver -> server backhaul.
        alphas: (mote CPU weight, micro CPU weight) in the objective.
        betas: (mote link weight, backhaul weight) in the objective.
    """

    vertices: list[str]
    mote_cpu: dict[str, float]
    micro_cpu: dict[str, float]
    edges: list[WeightedEdge]
    pins: dict[str, Tier] = field(default_factory=dict)
    mote_cpu_budget: float = 1.0
    micro_cpu_budget: float = 1.0
    mote_net_budget: float = float("inf")
    micro_net_budget: float = float("inf")
    alphas: tuple[float, float] = (0.0, 0.0)
    betas: tuple[float, float] = (1.0, 0.2)

    def __post_init__(self) -> None:
        known = set(self.vertices)
        for edge in self.edges:
            if edge.src not in known or edge.dst not in known:
                raise PartitionError(f"edge {edge} references unknown vertex")

    # -- evaluation ---------------------------------------------------------

    def loads(self, assignment: dict[str, Tier]) -> dict[str, float]:
        """CPU and link loads of a full assignment."""
        mote_cpu = sum(
            self.mote_cpu.get(v, 0.0)
            for v, tier in assignment.items()
            if tier is Tier.MOTE
        )
        micro_cpu = sum(
            self.micro_cpu.get(v, 0.0)
            for v, tier in assignment.items()
            if tier is Tier.MICRO
        )
        mote_net = 0.0
        micro_net = 0.0
        for edge in self.edges:
            src = _TIER_LEVEL[assignment[edge.src]]
            dst = _TIER_LEVEL[assignment[edge.dst]]
            if src >= 2 > dst:
                mote_net += edge.bandwidth
            if src >= 1 > dst:
                micro_net += edge.bandwidth
        return {
            "mote_cpu": mote_cpu,
            "micro_cpu": micro_cpu,
            "mote_net": mote_net,
            "micro_net": micro_net,
        }

    def objective(self, assignment: dict[str, Tier]) -> float:
        loads = self.loads(assignment)
        return (
            self.alphas[0] * loads["mote_cpu"]
            + self.alphas[1] * loads["micro_cpu"]
            + self.betas[0] * loads["mote_net"]
            + self.betas[1] * loads["micro_net"]
        )

    def is_feasible(self, assignment: dict[str, Tier]) -> bool:
        for v, tier in self.pins.items():
            if assignment.get(v) is not tier:
                return False
        for edge in self.edges:
            if (
                _TIER_LEVEL[assignment[edge.src]]
                < _TIER_LEVEL[assignment[edge.dst]]
            ):
                return False  # data may not flow back up
        loads = self.loads(assignment)
        return (
            loads["mote_cpu"] <= self.mote_cpu_budget + 1e-9
            and loads["micro_cpu"] <= self.micro_cpu_budget + 1e-9
            and loads["mote_net"] <= self.mote_net_budget + 1e-9
            and loads["micro_net"] <= self.micro_net_budget + 1e-9
        )


@dataclass
class ThreeTierIlp:
    program: LinearProgram
    a_vars: dict[str, Variable]
    b_vars: dict[str, Variable]

    def assignment(self, values: dict[str, float]) -> dict[str, Tier]:
        result: dict[str, Tier] = {}
        for name, a_var in self.a_vars.items():
            a = values.get(a_var.name, 0.0) > 0.5
            b = values.get(self.b_vars[name].name, 0.0) > 0.5
            if b:
                result[name] = Tier.MOTE
            elif a:
                result[name] = Tier.MICRO
            else:
                result[name] = Tier.SERVER
        return result


def build_three_tier_ilp(problem: ThreeTierProblem) -> ThreeTierIlp:
    """Encode the three-tier instance as a MILP."""
    lp = LinearProgram(name="wishbone-three-tier")
    a_vars: dict[str, Variable] = {}
    b_vars: dict[str, Variable] = {}

    # Per-vertex network coefficients (vertex-wise regrouping, as in the
    # two-tier restricted formulation).
    net_coeff: dict[str, float] = {v: 0.0 for v in problem.vertices}
    for edge in problem.edges:
        net_coeff[edge.src] += edge.bandwidth
        net_coeff[edge.dst] -= edge.bandwidth

    alpha_mote, alpha_micro = problem.alphas
    beta_mote, beta_micro = problem.betas
    for name in problem.vertices:
        pin = problem.pins.get(name)
        a_lb, a_ub = 0.0, 1.0
        b_lb, b_ub = 0.0, 1.0
        if pin is Tier.MOTE:
            a_lb = b_lb = 1.0
        elif pin is Tier.MICRO:
            a_lb, b_ub = 1.0, 0.0
        elif pin is Tier.SERVER:
            a_ub = b_ub = 0.0
        # Objective regrouped per vertex:
        #   mote cpu:   alpha1 * c1_v * b_v
        #   micro cpu:  alpha2 * c2_v * (a_v - b_v)
        #   mote net:   beta1 * netc_v * b_v
        #   micro net:  beta2 * netc_v * a_v
        a_obj = alpha_micro * problem.micro_cpu.get(name, 0.0) + (
            beta_micro * net_coeff[name]
        )
        b_obj = (
            alpha_mote * problem.mote_cpu.get(name, 0.0)
            - alpha_micro * problem.micro_cpu.get(name, 0.0)
            + beta_mote * net_coeff[name]
        )
        a_vars[name] = lp.add_variable(
            f"a[{name}]", lb=a_lb, ub=a_ub, integer=True, objective=a_obj
        )
        b_vars[name] = lp.add_variable(
            f"b[{name}]", lb=b_lb, ub=b_ub, integer=True, objective=b_obj
        )
        lp.add_constraint(
            {a_vars[name]: 1.0, b_vars[name]: -1.0}, ">=", 0.0,
            name=f"nest[{name}]",
        )

    for edge in problem.edges:
        lp.add_constraint(
            {a_vars[edge.src]: 1.0, a_vars[edge.dst]: -1.0}, ">=", 0.0
        )
        lp.add_constraint(
            {b_vars[edge.src]: 1.0, b_vars[edge.dst]: -1.0}, ">=", 0.0
        )

    lp.add_constraint(
        {b_vars[v]: problem.mote_cpu.get(v, 0.0) for v in problem.vertices},
        "<=",
        problem.mote_cpu_budget,
        name="mote_cpu",
    )
    micro_terms: dict[Variable, float] = {}
    for v in problem.vertices:
        cost = problem.micro_cpu.get(v, 0.0)
        if cost:
            micro_terms[a_vars[v]] = micro_terms.get(a_vars[v], 0.0) + cost
            micro_terms[b_vars[v]] = micro_terms.get(b_vars[v], 0.0) - cost
    lp.add_constraint(micro_terms, "<=", problem.micro_cpu_budget,
                      name="micro_cpu")
    lp.add_constraint(
        {b_vars[v]: net_coeff[v] for v in problem.vertices},
        "<=",
        min(problem.mote_net_budget, 1e15),
        name="mote_net",
    )
    lp.add_constraint(
        {a_vars[v]: net_coeff[v] for v in problem.vertices},
        "<=",
        min(problem.micro_net_budget, 1e15),
        name="micro_net",
    )
    return ThreeTierIlp(program=lp, a_vars=a_vars, b_vars=b_vars)


def three_tier_from_two_profiles(
    mote_profile,
    micro_profile,
    pins: dict[str, Pinning],
    **kwargs,
) -> ThreeTierProblem:
    """Build a three-tier instance from per-tier profiles of one graph.

    Vertices pinned NODE in the two-tier sense become MOTE pins; SERVER
    pins stay SERVER; movable operators may land on any tier.  Bandwidths
    come from the mote profile (the narrower radio dominates costs).
    """
    graph = mote_profile.graph
    vertices = graph.topological_order()
    tier_pins: dict[str, Tier] = {}
    for name, pin in pins.items():
        if pin is Pinning.NODE:
            tier_pins[name] = Tier.MOTE
        elif pin is Pinning.SERVER:
            tier_pins[name] = Tier.SERVER
    aggregated: dict[tuple[str, str], float] = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst)
        aggregated[key] = aggregated.get(key, 0.0) + mote_profile.net_cost(
            edge
        )
    return ThreeTierProblem(
        vertices=vertices,
        mote_cpu={v: mote_profile.cpu_cost(v) for v in vertices},
        micro_cpu={v: micro_profile.cpu_cost(v) for v in vertices},
        edges=[
            WeightedEdge(src, dst, bw)
            for (src, dst), bw in sorted(aggregated.items())
        ],
        pins=tier_pins,
        **kwargs,
    )
