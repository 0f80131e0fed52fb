"""Declarative linear-program model.

A tiny modelling layer in the spirit of lp_solve's API: callers create
variables, attach linear constraints, and set a linear objective.  The model
can export itself as dense numpy arrays for branch and bound and its HiGHS
LP engine.

Only minimization is supported; maximize by negating the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Constraint senses accepted by :meth:`LinearProgram.add_constraint`.
SENSES = ("<=", ">=", "=")

INF = float("inf")


@dataclass(frozen=True)
class Variable:
    """A decision variable; hashable, usable as a dict key in constraints."""

    name: str
    index: int
    lb: float = 0.0
    ub: float = INF
    integer: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name!r}, {kind}, [{self.lb}, {self.ub}])"


@dataclass(frozen=True)
class Constraint:
    """``sum(coef * var) sense rhs`` with sense one of ``<=``, ``>=``, ``=``."""

    name: str
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str
    rhs: float


@dataclass
class StandardArrays:
    """Dense matrix form: min c@x s.t. A_ub@x <= b_ub, A_eq@x = b_eq.

    Variable bounds are stored as two vectors (``lb``/``ub``) so hot-path
    callers — most importantly branch and bound, which re-solves the same
    instance thousands of times under slightly different bounds — can derive
    child instances with two O(1) element writes and a shallow copy instead
    of rebuilding a list of tuples.  ``bounds`` remains available as a
    read-only tuple view for compatibility and tests.

    ``ub_row_names``/``eq_row_names`` carry the constraint names row by row,
    which lets rate probes (``repro.core.probe``) locate and rescale
    specific right-hand-side entries without re-running model construction.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # 1 where integer, 0 where continuous
    names: list[str]
    ub_row_names: tuple[str, ...] = ()
    eq_row_names: tuple[str, ...] = ()

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def bounds(self) -> list[tuple[float, float]]:
        """Per-variable (lb, ub) pairs (compatibility view of lb/ub)."""
        return list(zip(self.lb.tolist(), self.ub.tolist()))

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "StandardArrays":
        """Shallow copy with replacement bound vectors (matrices shared)."""
        return replace(self, lb=lb, ub=ub)

    def with_b_ub(self, b_ub: np.ndarray) -> "StandardArrays":
        """Shallow copy with a replacement inequality rhs (matrices shared)."""
        return replace(self, b_ub=b_ub)

    def with_objective(self, c: np.ndarray) -> "StandardArrays":
        """Shallow copy with a replacement cost vector (matrices shared)."""
        return replace(self, c=c)


class LinearProgram:
    """A mutable (mixed-integer) linear program in minimization form."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: dict[int, float] = {}
        self._by_name: dict[str, Variable] = {}

    # -- construction -----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        integer: bool = False,
        objective: float = 0.0,
    ) -> Variable:
        """Create a variable; ``objective`` is its cost coefficient."""
        if name in self._by_name:
            raise ValueError(f"duplicate variable name: {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(name=name, index=len(self.variables), lb=lb, ub=ub,
                       integer=integer)
        self.variables.append(var)
        self._by_name[name] = var
        if objective:
            self._objective[var.index] = objective
        return var

    def add_binary(self, name: str, objective: float = 0.0) -> Variable:
        """Shortcut for a {0, 1} integer variable."""
        return self.add_variable(name, lb=0.0, ub=1.0, integer=True,
                                 objective=objective)

    def variable(self, name: str) -> Variable:
        return self._by_name[name]

    def set_objective_coefficient(
        self, var: Variable, coefficient: float
    ) -> None:
        if coefficient:
            self._objective[var.index] = coefficient
        else:
            self._objective.pop(var.index, None)

    def add_constraint(
        self,
        terms: dict[Variable, float],
        sense: str,
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        """Add ``sum(coef*var for var, coef in terms) sense rhs``."""
        if sense not in SENSES:
            raise ValueError(f"bad sense {sense!r}; expected one of {SENSES}")
        coeffs = tuple(
            (var.index, float(coef)) for var, coef in terms.items() if coef
        )
        constraint = Constraint(
            name=name or f"c{len(self.constraints)}",
            coeffs=coeffs,
            sense=sense,
            rhs=float(rhs),
        )
        self.constraints.append(constraint)
        return constraint

    # -- inspection --------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self.variables if v.integer)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def objective_value(self, values: dict[str, float]) -> float:
        """Evaluate the objective at a point given by variable name."""
        return sum(
            coef * values.get(self.variables[idx].name, 0.0)
            for idx, coef in self._objective.items()
        )

    def is_feasible(self, values: dict[str, float], tol: float = 1e-6) -> bool:
        """Check bounds and all constraints at a named point."""
        x = np.zeros(self.num_variables)
        for var in self.variables:
            x[var.index] = values.get(var.name, 0.0)
        for var in self.variables:
            if x[var.index] < var.lb - tol or x[var.index] > var.ub + tol:
                return False
        for con in self.constraints:
            lhs = sum(coef * x[idx] for idx, coef in con.coeffs)
            if con.sense == "<=" and lhs > con.rhs + tol:
                return False
            if con.sense == ">=" and lhs < con.rhs - tol:
                return False
            if con.sense == "=" and abs(lhs - con.rhs) > tol:
                return False
        return True

    # -- export -------------------------------------------------------------

    def to_arrays(self) -> StandardArrays:
        """Export to dense minimization-form arrays."""
        n = self.num_variables
        c = np.zeros(n)
        for idx, coef in self._objective.items():
            c[idx] = coef

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        ub_names: list[str] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        eq_names: list[str] = []
        for con in self.constraints:
            row = np.zeros(n)
            for idx, coef in con.coeffs:
                row[idx] += coef
            if con.sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
                ub_names.append(con.name)
            elif con.sense == ">=":
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
                ub_names.append(con.name)
            else:
                eq_rows.append(row)
                eq_rhs.append(con.rhs)
                eq_names.append(con.name)

        a_ub = np.vstack(ub_rows) if ub_rows else np.zeros((0, n))
        a_eq = np.vstack(eq_rows) if eq_rows else np.zeros((0, n))
        return StandardArrays(
            c=c,
            a_ub=a_ub,
            b_ub=np.asarray(ub_rhs, dtype=float),
            a_eq=a_eq,
            b_eq=np.asarray(eq_rhs, dtype=float),
            lb=np.array([v.lb for v in self.variables], dtype=float),
            ub=np.array([v.ub for v in self.variables], dtype=float),
            integrality=np.array(
                [1 if v.integer else 0 for v in self.variables]
            ),
            names=[v.name for v in self.variables],
            ub_row_names=tuple(ub_names),
            eq_row_names=tuple(eq_names),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinearProgram({self.name!r}, vars={self.num_variables} "
            f"({self.num_integer_variables} int), cons={self.num_constraints})"
        )
