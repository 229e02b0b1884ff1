"""Problem representation: variables, exact-rational linear constraints, objective.

All stored constraints are ">=" rows.  Inputs in "<=" or "=" form are
canonicalized at build time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .rationals import (
    Ext,
    INF,
    NEG_INF,
    Rat,
    ZERO,
    ONE,
    ext_mul,
    is_finite,
    is_integral,
)


class VarKind(enum.Enum):
    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class BoundKind(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class Variable:
    index: int
    name: str
    kind: VarKind
    global_lb: Ext
    global_ub: Ext

    def __post_init__(self):
        if self.kind is VarKind.BINARY:
            if self.global_lb != 0 or self.global_ub != 1:
                raise ValueError(
                    f"binary variable {self.name!r} must have bounds [0,1]"
                )
        if self.global_lb > self.global_ub:
            raise ValueError(f"variable {self.name!r} has lb > ub")
        if self.kind is VarKind.INTEGER:
            for b in (self.global_lb, self.global_ub):
                if is_finite(b) and not is_integral(b):
                    raise ValueError(
                        f"integer variable {self.name!r} has fractional bound {b}"
                    )

    @property
    def is_integral(self) -> bool:
        return self.kind in (VarKind.BINARY, VarKind.INTEGER)


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse >=-constraint: sum of coef * x_var >= rhs.

    Terms are stored sorted by variable index with no zero coefficients, so
    structural equality is exact constraint equality.  ``origin`` records
    provenance ("model", "learned:<strategy>", "derived") and is excluded
    from equality.
    """

    terms: Tuple[Tuple[int, Rat], ...]
    rhs: Rat
    origin: str = field(default="model", compare=False)

    @staticmethod
    def from_dict(terms: Mapping[int, Rat], rhs, origin: str = "model") -> "LinearConstraint":
        items = tuple(
            sorted((j, Fraction(c)) for j, c in terms.items() if c != 0)
        )
        return LinearConstraint(items, Fraction(rhs), origin)

    def coef(self, var: int) -> Rat:
        for j, c in self.terms:
            if j == var:
                return c
        return ZERO

    def as_dict(self) -> dict:
        return dict(self.terms)

    def variables(self) -> Tuple[int, ...]:
        return tuple(j for j, _ in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def scaled(self, factor: Rat) -> "LinearConstraint":
        """Multiply by a positive rational (an equivalence transformation)."""
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return LinearConstraint(
            tuple((j, c * factor) for j, c in self.terms),
            self.rhs * factor,
            self.origin,
        )

    def combined(self, other: "LinearConstraint", mult: Rat, origin: str = "derived") -> "LinearConstraint":
        """Return self + mult * other for a positive multiplier."""
        mult = Fraction(mult)
        if mult <= 0:
            raise ValueError("aggregation multiplier must be positive")
        acc = self.as_dict()
        for j, c in other.terms:
            acc[j] = acc.get(j, ZERO) + mult * c
        return LinearConstraint.from_dict(acc, self.rhs + mult * other.rhs, origin)

    def canonical_scale(self) -> "LinearConstraint":
        """Scale so coefficients are integers with gcd 1 (rhs follows along)."""
        if not self.terms:
            return self
        denom_lcm = 1
        for _, c in self.terms:
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
        nums = [c.numerator * (denom_lcm // c.denominator) for _, c in self.terms]
        g = 0
        for n in nums:
            g = math.gcd(g, abs(n))
        factor = Fraction(denom_lcm, g)
        return self.scaled(factor)

    def __str__(self) -> str:
        parts = []
        for j, c in self.terms:
            sign = "+" if c >= 0 else "-"
            parts.append(f"{sign} {abs(c)} x{j}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} >= {self.rhs}"


@dataclass(frozen=True)
class BoundAtom:
    var: int
    kind: BoundKind
    value: Rat

    def holds(self, lb: Ext, ub: Ext) -> Optional[bool]:
        """Status under a bound box: True if forced, False if impossible, None if open."""
        if self.kind is BoundKind.LOWER:
            if lb >= self.value:
                return True
            if ub < self.value:
                return False
        else:
            if ub <= self.value:
                return True
            if lb > self.value:
                return False
        return None


@dataclass(frozen=True)
class BoundDisjunction:
    """At least one atom holds."""

    atoms: Tuple[BoundAtom, ...]
    origin: str = field(default="learned:graph", compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("bound disjunction must be non-empty")
        seen = set()
        for a in self.atoms:
            key = (a.var, a.kind)
            if key in seen:
                raise ValueError("duplicate (variable, bound-kind) atom")
            seen.add(key)


@dataclass(frozen=True)
class Problem:
    variables: Tuple[Variable, ...]
    constraints: Tuple[LinearConstraint, ...]
    objective: Optional[Tuple[Tuple[int, Rat], ...]] = None

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def objective_dict(self) -> dict:
        return dict(self.objective) if self.objective else {}


def build_problem(
    variables: Sequence[Variable],
    constraints: Iterable,
    objective: Optional[Mapping[int, Rat]] = None,
) -> Problem:
    """Validate and canonicalize a problem.

    ``constraints`` may contain LinearConstraint rows (already >=) or tuples
    ``(terms_dict, op, rhs)`` with op in {'>=', '<=', '='}; the latter are
    turned into one or two >= rows.
    """
    names = set()
    for i, v in enumerate(variables):
        if v.index != i:
            raise ValueError(f"variable {v.name!r} has index {v.index}, expected {i}")
        if v.name in names:
            raise ValueError(f"duplicate variable name {v.name!r}")
        names.add(v.name)

    n = len(variables)
    rows = []
    for con in constraints:
        if isinstance(con, LinearConstraint):
            rows.append(con)
            continue
        terms, op, rhs = con
        terms = {j: Fraction(c) for j, c in terms.items() if c != 0}
        rhs = Fraction(rhs)
        if op == ">=":
            rows.append(LinearConstraint.from_dict(terms, rhs))
        elif op == "<=":
            rows.append(
                LinearConstraint.from_dict({j: -c for j, c in terms.items()}, -rhs)
            )
        elif op == "=":
            rows.append(LinearConstraint.from_dict(terms, rhs))
            rows.append(
                LinearConstraint.from_dict({j: -c for j, c in terms.items()}, -rhs)
            )
        else:
            raise ValueError(f"unknown constraint sense {op!r}")

    for row in rows:
        for j, _ in row.terms:
            if not 0 <= j < n:
                raise ValueError(f"constraint references undeclared variable index {j}")

    obj = None
    if objective is not None:
        for j in objective:
            if not 0 <= j < n:
                raise ValueError(f"objective references undeclared variable index {j}")
        obj = tuple(sorted((j, Fraction(c)) for j, c in objective.items() if c != 0))

    return Problem(tuple(variables), tuple(rows), obj)


@dataclass(frozen=True)
class SubstitutionRecord:
    """How a constraint was normalized: complemented variables and the divisor.

    A complemented index j means the normalized constraint's coefficient on j
    applies to the literal ub_j - x_j instead of x_j.
    """

    complemented: Tuple[int, ...]
    divisor: Rat

    @property
    def complemented_set(self) -> frozenset:
        return frozenset(self.complemented)


def complement_term(
    C: LinearConstraint, var: int, variables: Sequence[Variable]
) -> LinearConstraint:
    """Rewrite the term on ``var`` against the literal ub - x (pure coefficient surgery).

    The caller is responsible for tracking which indices are in literal form.
    """
    a = C.coef(var)
    if a == 0:
        raise ValueError(f"variable {var} not in constraint")
    ub = variables[var].global_ub
    if not is_finite(ub):
        raise ValueError(f"cannot complement variable {var} with infinite upper bound")
    terms = C.as_dict()
    terms[var] = -a
    return LinearConstraint.from_dict(terms, C.rhs - a * ub, "derived")


def normalize_for_reduction(
    C: LinearConstraint, r: int, variables: Sequence[Variable]
) -> Tuple[LinearConstraint, SubstitutionRecord]:
    """Bring C to the form: unit coefficient on the r-literal, all others >= 0.

    Every variable with a negative coefficient (possibly including r itself)
    is complemented, then the row is divided by the resulting coefficient on
    r.  The record maps results back to original variable space.
    """
    if C.coef(r) == 0:
        raise ValueError(f"resolved variable {r} has zero coefficient")
    work = C
    complemented = []
    for j, c in C.terms:
        if c < 0:
            work = complement_term(work, j, variables)
            complemented.append(j)
    divisor = work.coef(r)
    work = work.scaled(ONE / divisor)
    return work, SubstitutionRecord(tuple(complemented), divisor)


def denormalize(
    C: LinearConstraint, record: SubstitutionRecord, variables: Sequence[Variable]
) -> LinearConstraint:
    """Map a constraint in the record's literal space back to original variables.

    Only complementation is undone; positive scaling is an equivalence and is
    kept as-is.
    """
    work = C
    for j in record.complemented:
        if work.coef(j) != 0:
            work = complement_term(work, j, variables)
    return LinearConstraint(work.terms, work.rhs, C.origin)


@dataclass(frozen=True)
class Evaluation:
    satisfied: bool
    slack: Rat


def evaluate(C: LinearConstraint, point: Sequence[Rat]) -> Evaluation:
    """Check a dense rational point against a row; slack = lhs - rhs."""
    for j, _ in C.terms:
        if j >= len(point):
            raise ValueError("point dimension smaller than constraint support")
    lhs = sum((c * Fraction(point[j]) for j, c in C.terms), ZERO)
    slack = lhs - C.rhs
    return Evaluation(slack >= 0, slack)


def satisfies_disjunction(D: BoundDisjunction, point: Sequence[Rat]) -> bool:
    for a in D.atoms:
        x = Fraction(point[a.var])
        if a.kind is BoundKind.LOWER and x >= a.value:
            return True
        if a.kind is BoundKind.UPPER and x <= a.value:
            return True
    return False
