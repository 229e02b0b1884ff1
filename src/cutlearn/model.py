"""Problem representation: variables, exact-rational linear constraints, objective.

All stored constraints are ">=" rows.  Inputs in "<=" or "=" form are
canonicalized at build time.  A row's ``int_scaled`` form is the row times
the lcm of its denominators, with ``int`` coefficients and rhs; scaling a
">=" row by a positive number changes neither its feasible set nor any
comparison of activities with its rhs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .rationals import (
    Ext,
    INF,
    NEG_INF,
    Rat,
    ZERO,
    ONE,
    format_ext,
    format_rational,
    int_if_integral,
    is_finite,
    is_integral,
)


def _exact(value, owner: str, what: str, var: Optional[int] = None) -> Rat:
    """``value`` as a Fraction.  A float is refused: a finite one is
    binary-float residue, and an infinite one is no coefficient, right-hand
    side or atom value."""
    if isinstance(value, float):
        on = "" if var is None else f" on x{var}"
        raise ValueError(
            f"{owner} has float {what} {value}{on}; "
            f"{what}s must be exact (int or Fraction)"
        )
    return Fraction(value)


def _exact_terms(terms: Mapping[int, Rat], owner: str) -> Tuple[Tuple[int, Rat], ...]:
    """``terms`` as exact nonzero Fractions sorted by variable index."""
    exact = ((j, _exact(c, owner, "coefficient", j)) for j, c in terms.items())
    return tuple(sorted((j, c) for j, c in exact if c != 0))


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
        for name in ("global_lb", "global_ub"):
            b = getattr(self, name)
            if not isinstance(b, float):
                # An integral finite bound is stored as an int.
                object.__setattr__(self, name, int_if_integral(b))
            elif not math.isinf(b):
                raise ValueError(
                    f"variable {self.name!r} has float bound {b}; "
                    "finite bounds must be exact (int or Fraction)"
                )
        if self.kind is VarKind.BINARY:
            if self.global_lb != 0 or self.global_ub != 1:
                raise ValueError(
                    f"binary variable {self.name!r} must have bounds [0,1]"
                )
        if self.global_lb > self.global_ub:
            raise ValueError(f"variable {self.name!r} has lb > ub")
        if self.global_lb == INF or self.global_ub == NEG_INF:
            raise ValueError(f"variable {self.name!r} has an empty domain")
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
        return LinearConstraint(
            _exact_terms(terms, "row"), _exact(rhs, "row", "right-hand side"), origin
        )

    def coef(self, var: int) -> Rat:
        for j, c in self.terms:
            if j == var:
                return c
        return ZERO

    def as_dict(self) -> dict:
        return dict(self.terms)

    def int_scaled(self) -> Tuple[int, Tuple[Tuple[int, int], ...], int]:
        """``(scale, terms, rhs)``: the row times ``scale``, the lcm of its
        coefficient and rhs denominators, so every coefficient and the rhs
        are ``int``.  Scaling by a positive number keeps the row's feasible
        set, and any comparison of two activities, or of one with the rhs,
        comes out the same on the scaled row.  Computed once per row."""
        return self._int_form

    @cached_property
    def _int_form(self) -> Tuple[int, Tuple[Tuple[int, int], ...], int]:
        # Not a dataclass field, so it stays out of equality, hash and repr.
        scale = math.lcm(self.rhs.denominator, *(c.denominator for _, c in self.terms))
        terms = tuple((j, c.numerator * (scale // c.denominator)) for j, c in self.terms)
        return scale, terms, self.rhs.numerator * (scale // self.rhs.denominator)

    @staticmethod
    def from_int_form(
        scale: int, terms: Tuple[Tuple[int, int], ...], rhs: int
    ) -> "LinearConstraint":
        """The row ``terms / scale >= rhs / scale`` under origin "derived",
        for sorted nonzero ``int`` terms and a positive ``scale``, with that
        form divided by its gcd as its ``int_scaled()``: dividing by the gcd
        leaves the lcm of the row's denominators as the scale."""
        g = math.gcd(scale, rhs, *(a for _, a in terms))
        if g > 1:
            scale, rhs = scale // g, rhs // g
            terms = tuple((j, a // g) for j, a in terms)
        C = LinearConstraint(
            tuple((j, Fraction(a, scale)) for j, a in terms), Fraction(rhs, scale), "derived"
        )
        C.__dict__["_int_form"] = (scale, terms, rhs)
        return C

    def global_span(self, variables: Sequence[Variable]) -> Ext:
        """The row's widest span max_j |a_j|·(global ub_j − global lb_j) over
        ``variables``, INF if one of those bounds is infinite, 0 for a row
        without terms.  It is kept in the row's ``global_contributions``
        cache, for the same ``variables`` object only."""
        cached = self.__dict__.get("_global")
        if cached is not None and cached[0] is variables and cached[3] is not None:
            return cached[3]
        top, bottom = global_contributions(self, variables)
        if top.infinite or bottom.infinite:
            span = INF
        else:
            widest = max(
                (t - bottom.contribs[j] for j, t in top.contribs.items()), default=0
            )
            span = Fraction(widest, self.int_scaled()[0])
        self.__dict__["_global"] = (variables, top, bottom, span)
        return span

    def with_origin(self, origin: str) -> "LinearConstraint":
        """The same row under another ``origin``, with its integer-scaled
        form and its global contributions if those are computed already."""
        out = LinearConstraint(self.terms, self.rhs, origin)
        for key in ("_int_form", "_global"):
            if key in self.__dict__:
                out.__dict__[key] = self.__dict__[key]
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def scaled(self, factor: Rat) -> "LinearConstraint":
        """Multiply by a positive rational (an equivalence transformation)."""
        factor = _exact(factor, "row scaling", "factor")
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return LinearConstraint(
            tuple((j, c * factor) for j, c in self.terms),
            self.rhs * factor,
            self.origin,
        )

    def canonical_scale(self) -> "LinearConstraint":
        """Scale so coefficients are integers with gcd 1 (rhs follows along)."""
        if not self.terms:
            return self
        scale, terms, _ = self.int_scaled()
        return self.scaled(Fraction(scale, math.gcd(*(a for _, a in terms))))

    def __str__(self) -> str:
        parts = []
        for j, c in self.terms:
            sign = "+" if c >= 0 else "-"
            parts.append(f"{sign} {abs(c)} x{j}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} >= {self.rhs}"


# -- row activities -------------------------------------------------------------


# A bound per variable index.
Bounds = Sequence[Ext]


class Activity(NamedTuple):
    """A row's max activity, kept exact.

    ``finite`` is the sum of the finite contributions a_j x_j (x_j at the
    bound that maximizes the term), ``infinite`` the number of infinite
    ones, and ``contribs`` each term's contribution, None for an infinite
    one: in term order from ``activity``, by variable index from
    ``global_contributions``.
    """

    finite: Rat
    infinite: int
    contribs: Union[Tuple[Optional[Rat], ...], Dict[int, Optional[Rat]]]


def activity(terms: Sequence[Tuple[int, Rat]], lb: Bounds, ub: Bounds) -> Activity:
    """The box kernel: the max activity of the row with ``terms`` over the
    box [lb, ub].

    With the two bound vectors swapped it is the min activity, whose
    infinite contributions are then -inf.  On ``int`` terms and bounds, such
    as an integer-scaled row's over integral bounds, it is an ``int`` sum.
    """
    finite = 0
    infinite = 0
    contribs: List[Optional[Rat]] = []
    for j, a in terms:
        bound = ub[j] if a > 0 else lb[j]
        if is_finite(bound):
            contrib = a * bound
            finite += contrib
            contribs.append(contrib)
        else:
            infinite += 1
            contribs.append(None)
    return Activity(finite, infinite, tuple(contribs))


def infeasible_over(C: LinearConstraint, lb: Bounds, ub: Bounds) -> bool:
    """Is C's max activity over the box [lb, ub] below its rhs?  Both sides
    are taken on C's integer-scaled row."""
    _, terms, rhs = C.int_scaled()
    finite, infinite, _ = activity(terms, lb, ub)
    return not infinite and finite < rhs


def global_contributions(
    C: LinearConstraint, variables: Sequence[Variable]
) -> Tuple[Activity, Activity]:
    """The global kernel: the max and the min activity of C's integer-scaled
    row at the global bounds of ``variables``, in one pass over its terms.

    A term's max (min) contribution is a_j times the global bound of x_j
    that maximizes (minimizes) it, None where that bound is infinite.  They
    are computed once per row and ``variables`` object and kept on the row,
    so a caller that updates the dicts updates copies.
    """
    cached = C.__dict__.get("_global")
    if cached is not None and cached[0] is variables:
        return cached[1], cached[2]
    _, terms, _ = C.int_scaled()
    top = bottom = 0
    top_infinite = bottom_infinite = 0
    tops: Dict[int, Optional[Rat]] = {}
    bottoms: Dict[int, Optional[Rat]] = {}
    for j, a in terms:
        v = variables[j]
        hi, lo = (v.global_ub, v.global_lb) if a > 0 else (v.global_lb, v.global_ub)
        if is_finite(hi):
            tops[j] = hi = a * hi
            top += hi
        else:
            tops[j] = None
            top_infinite += 1
        if is_finite(lo):
            bottoms[j] = lo = a * lo
            bottom += lo
        else:
            bottoms[j] = None
            bottom_infinite += 1
    out = Activity(top, top_infinite, tops), Activity(bottom, bottom_infinite, bottoms)
    C.__dict__["_global"] = (variables, *out, None)  # the span, once asked for
    return out


@dataclass(frozen=True)
class BoundAtom:
    var: int
    kind: BoundKind
    value: Rat

    def __post_init__(self):
        if isinstance(self.value, float):
            raise ValueError(
                f"bound atom on x{self.var} has float value {self.value}; "
                "atom values must be exact (int or Fraction)"
            )

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


# What conflict analysis learns and search installs.  Not a ``typing.Union``:
# typing's cache would keep every re-imported copy of these classes alive.
LearnedObject = LinearConstraint | BoundDisjunction


@dataclass(frozen=True)
class Problem:
    variables: Tuple[Variable, ...]
    constraints: Tuple[LinearConstraint, ...]
    objective: Optional[Tuple[Tuple[int, Rat], ...]] = None

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
        terms = {j: _exact(c, "row", "coefficient", j) for j, c in terms.items()}
        rhs = _exact(rhs, "row", "right-hand side")
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
        obj = _exact_terms(objective, "objective")

    return Problem(tuple(variables), tuple(rows), obj)


@dataclass(frozen=True)
class SubstitutionRecord:
    """How a constraint was brought to literal space.

    The normalized constraint's coefficient on a complemented index j applies
    to the literal ub_j - x_j, on a shifted index to x_j - lb_j, and on any
    other index to x_j itself; every literal lies on [0, ub_j - lb_j].  The
    constraint was then divided by ``divisor``.
    """

    complemented: Tuple[int, ...]
    shifted: Tuple[int, ...]
    divisor: Rat


def _substitute(
    C: LinearConstraint,
    complemented: Iterable[int],
    shifted: Iterable[int],
    sign: int,
    variables: Sequence[Variable],
) -> LinearConstraint:
    """Complement C's terms on ``complemented`` (x -> ub - x) and shift its
    terms on ``shifted`` by ``sign`` times the lower bound (x -> x - lb for
    sign 1, back for sign -1).  Indices absent from C are skipped."""
    terms = C.as_dict()
    rhs = C.rhs
    for j in complemented:
        a = terms.get(j)
        if a is None:
            continue
        ub = variables[j].global_ub
        if not is_finite(ub):
            raise ValueError(f"cannot complement variable {j} with infinite upper bound")
        terms[j] = -a
        rhs -= a * ub
    for j in shifted:
        a = terms.get(j)
        if a is None:
            continue
        lb = variables[j].global_lb
        if not is_finite(lb):
            raise ValueError(f"cannot shift variable {j} with infinite lower bound")
        rhs -= sign * a * lb
    return LinearConstraint.from_dict(terms, rhs, "derived")


def complement(
    C: LinearConstraint, js: Iterable[int], variables: Sequence[Variable]
) -> LinearConstraint:
    """Rewrite C's terms on ``js`` against the literals ub - x.

    Indices absent from C are skipped, so the call is its own inverse.  The
    caller is responsible for tracking which indices are in literal form.
    """
    return _substitute(C, js, (), 1, variables)


def normalize_for_reduction(
    C: LinearConstraint, r: int, variables: Sequence[Variable]
) -> Tuple[LinearConstraint, SubstitutionRecord]:
    """Bring C to literal space: unit coefficient on the r-literal, all others >= 0.

    Every variable with a negative coefficient (possibly including r itself)
    is complemented, every other one with a nonzero lower bound is shifted
    to x - lb, then the row is divided by the resulting coefficient on r.
    The record maps results back to original variable space.
    """
    if C.coef(r) == 0:
        raise ValueError(f"resolved variable {r} has zero coefficient")
    complemented = tuple(j for j, c in C.terms if c < 0)
    shifted = tuple(
        j for j, c in C.terms if c > 0 and variables[j].global_lb != 0
    )
    work = _substitute(C, complemented, shifted, 1, variables)
    divisor = work.coef(r)
    work = work.scaled(ONE / divisor)
    return work, SubstitutionRecord(complemented, shifted, divisor)


def denormalize(
    C: LinearConstraint, record: SubstitutionRecord, variables: Sequence[Variable]
) -> LinearConstraint:
    """Map a constraint in the record's literal space back to original variables.

    Complementation and shifts are undone; positive scaling is an
    equivalence and is kept as-is.
    """
    work = _substitute(C, record.complemented, record.shifted, -1, variables)
    return work.with_origin(C.origin)


def literal_variables(
    C: LinearConstraint, variables: Sequence[Variable]
) -> List[Variable]:
    """The variables, with each of C's on its literal domain [0, ub - lb]."""
    out = list(variables)
    for j, _ in C.terms:
        v = variables[j]
        width = (
            v.global_ub - v.global_lb
            if is_finite(v.global_ub) and is_finite(v.global_lb)
            else INF
        )
        out[j] = replace(v, global_lb=0, global_ub=width)
    return out


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


def violation(problem: Problem, point: Sequence[Rat]) -> Optional[str]:
    """The first global bound, integrality requirement or row that ``point``
    violates, described; None if the point is feasible."""
    if len(point) != len(problem.variables):
        return f"point has {len(point)} values for {len(problem.variables)} variables"
    for v, x in zip(problem.variables, point):
        if not v.global_lb <= x <= v.global_ub:
            return (
                f"{v.name} = {format_rational(x)} outside "
                f"[{format_ext(v.global_lb)}, {format_ext(v.global_ub)}]"
            )
        if v.is_integral and not is_integral(x):
            return f"{v.name} = {format_rational(x)} is not integral"
    for i, C in enumerate(problem.constraints):
        if not evaluate(C, point).satisfied:
            return f"row {i} violated: {C}"
    return None
