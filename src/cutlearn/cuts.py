"""Single-constraint strengthening operators and reason reductions for binary rows.

The reduction entry points take a reason constraint that propagates the
resolved variable r and the local bounds ``lb``, ``ub`` of the state at
which it did; they read no trail.  They normalize the reason to unit
coefficient on the resolved literal with nonnegative coefficients elsewhere,
apply the operators below in that literal space, and map the result back to
original variables.  A binary variable is its own literal on [0, 1], so the
operators take the model's variables unchanged there.
"""

from __future__ import annotations

import enum
import math
from typing import List, Sequence, Tuple

from .model import (
    Bounds,
    LinearConstraint,
    SubstitutionRecord,
    Variable,
    VarKind,
    complement,
    denormalize,
    global_contributions,
    infeasible_over,
    normalize_for_reduction,
)
from .rationals import (
    ZERO,
    ONE,
    frac_part,
    is_finite,
    is_integral,
)


class CutError(ValueError):
    """An operator's precondition is violated."""


class ReductionError(Exception):
    """A reduction cannot produce a usable reason; the caller falls back."""


class ReductionStrategy(enum.Enum):
    CLAUSE = "clause"
    COEF_TIGHT = "coeftight"
    WMIR = "wmir"
    CMIR = "cmir"


# -- generalized resolution ---------------------------------------------------


def resolve(C1: LinearConstraint, C2: LinearConstraint, var: int) -> LinearConstraint:
    """Positive combination C1 + (|a1|/|a2|)·C2 cancelling ``var``.

    It is built in ``int``s from the integer-scaled rows: with A1, A2 their
    coefficients on var and s1 C1's scale, |A2|·C1 + |A1|·C2 (scaled rows)
    is the resolvent times s1·|A2|, and the row is returned with that form,
    divided by its gcd, as its ``int_scaled()``.
    """
    s1, terms1, b1 = C1.int_scaled()
    _, terms2, b2 = C2.int_scaled()
    A1, A2 = dict(terms1).get(var, 0), dict(terms2).get(var, 0)
    if A1 == 0 or A2 == 0:
        raise CutError(f"variable {var} missing from a resolution operand")
    if (A1 > 0) == (A2 > 0):
        raise CutError(f"variable {var} has same-sign coefficients; cannot resolve")
    g = math.gcd(A1, A2)
    m1, m2 = abs(A2) // g, abs(A1) // g
    acc = {j: m1 * a for j, a in terms1}
    for j, a in terms2:
        acc[j] = acc.get(j, 0) + m2 * a
    terms = tuple(sorted((j, a) for j, a in acc.items() if a))
    return LinearConstraint.from_int_form(s1 * m1, terms, m1 * b1 + m2 * b2)


# -- basic operators ----------------------------------------------------------


def weaken(
    C: LinearConstraint, var: int, variables: Sequence[Variable]
) -> LinearConstraint:
    """Drop a term, paying max{a*ub, a*lb} (global bounds) on the rhs."""
    a = C.coef(var)
    if a == 0:
        raise CutError(f"variable {var} not in constraint")
    v = variables[var]
    bound = v.global_ub if a > 0 else v.global_lb
    if not is_finite(bound):
        raise CutError(f"cannot weaken x{var}: relevant global bound is infinite")
    terms = C.as_dict()
    del terms[var]
    return LinearConstraint.from_dict(terms, C.rhs - a * bound, "derived")


def coef_tighten(
    C: LinearConstraint, variables: Sequence[Variable]
) -> LinearConstraint:
    """Clip integer-variable coefficients towards b - minact (global bounds).

    Continuous terms are untouched.  On 0/1 rows with nonnegative
    coefficients this is saturation: every coefficient is clipped to the rhs.
    """
    # C's integer-scaled row clips the same coefficients, in int arithmetic.
    scale, terms, rhs = C.int_scaled()
    _, minact = global_contributions(C, variables)
    if minact.infinite:
        return C
    if minact.finite >= rhs:
        raise CutError("coefficient tightening requires a non-redundant constraint")
    btilde = rhs - minact.finite
    clipped = {}
    for j, a in terms:
        v = variables[j]
        if not v.is_integral:
            continue
        if a > btilde:
            clipped[j] = btilde
            rhs -= (a - btilde) * v.global_lb
        elif a < -btilde:
            clipped[j] = -btilde
            rhs -= (a + btilde) * v.global_ub
    if not clipped:
        return C.with_origin("derived")
    # Clipping keeps the terms' order and makes no coefficient 0; btilde is
    # fractional only through a fractional continuous bound.
    d = btilde.denominator
    coefs = {**dict(terms), **clipped}
    return LinearConstraint.from_int_form(
        scale * d, tuple((j, int(a * d)) for j, a in coefs.items()), int(rhs * d)
    )


def cg_cut(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    """Round all coefficients and the rhs up (integer vars with lb 0)."""
    for j, _ in C.terms:
        v = variables[j]
        if not v.is_integral:
            raise CutError("CG cut requires integer variables only")
        if v.global_lb != 0:
            raise CutError("CG cut requires global lower bounds 0")
    return LinearConstraint.from_dict(
        {j: math.ceil(a) for j, a in C.terms}, math.ceil(C.rhs), "derived"
    )


def mir_cut(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    """Mixed integer rounding cut for variables with global lower bound 0.

    Integer terms become floor(a) + min{1, f(a)/f(b)}; positive continuous
    terms become a/f(b); nonpositive continuous terms are dropped (weakening
    at the lower bound); the rhs is rounded up.
    """
    fb = frac_part(C.rhs)
    if fb == 0:
        raise CutError("MIR cut requires a fractional right-hand side")
    for j, _ in C.terms:
        if variables[j].global_lb != 0:
            raise CutError("MIR cut requires global lower bounds 0")
    terms = {}
    for j, a in C.terms:
        v = variables[j]
        if v.is_integral:
            terms[j] = math.floor(a) + min(ONE, frac_part(a) / fb)
        elif a > 0:
            terms[j] = a / fb
    return LinearConstraint.from_dict(terms, math.ceil(C.rhs), "derived")


# -- reason reductions (pure binary, Assumption-1 form) ----------------------


def resolvent_infeasible(
    C: LinearConstraint, reason: LinearConstraint, r: int, lb: Bounds, ub: Bounds
) -> bool:
    """Is the resolvent of C and ``reason`` on r infeasible over [lb, ub]?

    Raises CutError if the two cannot be resolved on r.
    """
    return infeasible_over(resolve(C, reason, r), lb, ub)


def _literal_reason(
    C_reason: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> Tuple[LinearConstraint, SubstitutionRecord, List[int]]:
    """Return the reason in literal space, its record and P: the literals
    other than r not fixed at 0 (lb 0 for a complemented binary, ub 1 for
    any other)."""
    for j, _ in C_reason.terms:
        if variables[j].kind is not VarKind.BINARY:
            raise ReductionError("binary reduction applied to a non-binary reason")
    norm, record = normalize_for_reduction(C_reason, r, variables)
    P = [
        j
        for j, _ in norm.terms
        if j != r and (lb[j] == 0 if j in record.complemented else ub[j] == 1)
    ]
    return norm, record, P


def _check_gap(norm: LinearConstraint, P: List[int]) -> None:
    """Require a fractional propagation gap b - sum_{j in P} a_j in (0, 1):
    the pre-rounding bound the literal-space reason propagates for r."""
    btilde = norm.rhs - sum((norm.coef(j) for j in P), ZERO)
    if is_integral(btilde):
        raise ReductionError("reason propagates tightly; nothing to reduce")
    if not (0 < btilde < 1):
        raise ReductionError(f"reason does not propagate the literal (gap {btilde})")


def reduce_clause(
    C_reason: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """Clause over the resolved literal and the falsified literals (cover cut)."""
    norm, record, P = _literal_reason(C_reason, r, variables, lb, ub)
    clause = LinearConstraint.from_dict(
        {j: ONE for j, _ in norm.terms if j not in P}, ONE, "derived"
    )
    return denormalize(clause, record, variables)


def reduce_coeftight(
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """Weaken all relaxable literals (single sweep), then tighten coefficients.

    Returns the input unchanged if the plain resolvent is already infeasible
    over [lb, ub]; raises ReductionError if the reduction exhausts the
    relaxable literals without restoring an infeasible resolvent.  A pair
    that cannot be resolved counts as feasible.
    """
    try:
        if resolvent_infeasible(C_confl, C_reason, r, lb, ub):
            return C_reason
    except CutError:
        pass
    work, record, P = _literal_reason(C_reason, r, variables, lb, ub)
    for j in P:
        work = weaken(work, j, variables)
    if work.rhs > 0:
        work = coef_tighten(work, variables)
    reduced = denormalize(work, record, variables).canonical_scale()
    try:
        if resolvent_infeasible(C_confl, reduced, r, lb, ub):
            return reduced
    except CutError:
        pass
    raise ReductionError(
        "coefficient-tightening reduction exhausted relaxable literals"
    )


def reduce_cmir(
    C_reason: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """Complement the locally-unfixed literals, apply MIR, complement back."""
    norm, record, P = _literal_reason(C_reason, r, variables, lb, ub)
    _check_gap(norm, P)
    cut = mir_cut(complement(norm, P, variables), variables)
    return denormalize(complement(cut, P, variables), record, variables)


def reduce_wmir(
    C_reason: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """Weaken the fractional unfixed literals, then apply MIR."""
    work, record, P = _literal_reason(C_reason, r, variables, lb, ub)
    _check_gap(work, P)
    for j in P:
        if not is_integral(work.coef(j)):
            work = weaken(work, j, variables)
    return denormalize(mir_cut(work, variables), record, variables)


def reduce_reason(
    strategy: ReductionStrategy,
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """Dispatch a binary reason reduction by strategy."""
    if strategy is ReductionStrategy.CLAUSE:
        return reduce_clause(C_reason, r, variables, lb, ub)
    if strategy is ReductionStrategy.COEF_TIGHT:
        return reduce_coeftight(C_reason, C_confl, r, variables, lb, ub)
    if strategy is ReductionStrategy.CMIR:
        return reduce_cmir(C_reason, r, variables, lb, ub)
    if strategy is ReductionStrategy.WMIR:
        return reduce_wmir(C_reason, r, variables, lb, ub)
    raise ValueError(f"unknown strategy {strategy}")
