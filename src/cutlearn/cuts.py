"""Single-constraint strengthening operators and reason reductions for binary rows.

The reduction entry points expect a reason constraint that propagates the
resolved variable; they normalize it to unit coefficient on the resolved
literal with nonnegative coefficients elsewhere, work in that literal space,
and map the result back to original variables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import (
    LinearConstraint,
    SubstitutionRecord,
    Variable,
    VarKind,
    denormalize,
    normalize_for_reduction,
)
from .rationals import (
    Ext,
    Rat,
    ZERO,
    ONE,
    ext_mul,
    frac_ceil,
    frac_floor,
    frac_part,
    is_finite,
    is_integral,
)
from .trail import StateId, Trail, global_min_activity, infeasible_at


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
    """Positive combination of C1 and C2 cancelling ``var``.

    C2 is scaled by |a1_var| / |a2_var| so C1 enters with unit weight; the
    result has coefficient exactly 0 on var.
    """
    a1 = C1.coef(var)
    a2 = C2.coef(var)
    if a1 == 0 or a2 == 0:
        raise CutError(f"variable {var} missing from a resolution operand")
    if (a1 > 0) == (a2 > 0):
        raise CutError(f"variable {var} has same-sign coefficients; cannot resolve")
    return C1.combined(C2, abs(a1) / abs(a2), origin="derived")


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


def saturate(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    """Clip every coefficient to the rhs (binary, nonnegative, rhs > 0)."""
    if C.rhs <= 0:
        raise CutError("saturation requires a positive right-hand side")
    for j, a in C.terms:
        if variables[j].kind is not VarKind.BINARY:
            raise CutError("saturation requires binary variables")
        if a < 0:
            raise CutError("saturation requires nonnegative coefficients")
    return LinearConstraint.from_dict(
        {j: min(a, C.rhs) for j, a in C.terms}, C.rhs, "derived"
    )


def coef_tighten(
    C: LinearConstraint, variables: Sequence[Variable]
) -> LinearConstraint:
    """Clip integer-variable coefficients towards b - minact (global bounds).

    Continuous terms are untouched.  On 0/1 rows with nonnegative
    coefficients this coincides with saturation.
    """
    minact = global_min_activity(C, variables)
    if minact >= C.rhs:
        raise CutError("coefficient tightening requires a non-redundant constraint")
    if not is_finite(minact):
        return C
    btilde = C.rhs - minact
    terms = C.as_dict()
    rhs = C.rhs
    for j, a in C.terms:
        v = variables[j]
        if not v.is_integral:
            continue
        if a > btilde:
            terms[j] = btilde
            rhs -= (a - btilde) * v.global_lb
        elif a < -btilde:
            terms[j] = -btilde
            rhs -= (a + btilde) * v.global_ub
    return LinearConstraint.from_dict(terms, rhs, "derived")


def cg_cut(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    """Round all coefficients and the rhs up (integer vars with lb 0)."""
    for j, _ in C.terms:
        v = variables[j]
        if not v.is_integral:
            raise CutError("CG cut requires integer variables only")
        if v.global_lb != 0:
            raise CutError("CG cut requires global lower bounds 0")
    return LinearConstraint.from_dict(
        {j: frac_ceil(a) for j, a in C.terms}, frac_ceil(C.rhs), "derived"
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
            terms[j] = frac_floor(a) + min(ONE, frac_part(a) / fb)
        elif a > 0:
            terms[j] = a / fb
    return LinearConstraint.from_dict(terms, frac_ceil(C.rhs), "derived")


# -- reason reductions (pure binary, Assumption-1 form) ----------------------


@dataclass(frozen=True)
class NormalizedReason:
    """Reason in literal space: unit coefficient on r, others >= 0."""

    constraint: LinearConstraint
    record: SubstitutionRecord
    r: int


def normalize_reason(
    C: LinearConstraint, r: int, variables: Sequence[Variable]
) -> NormalizedReason:
    norm, record = normalize_for_reduction(C, r, variables)
    return NormalizedReason(norm, record, r)


def _literal_local_ub(
    j: int, record: SubstitutionRecord, lb: Sequence[Ext], ub: Sequence[Ext]
) -> Ext:
    """Local upper bound of the (possibly complemented) binary literal j."""
    if j in record.complemented_set:
        return 1 - lb[j]
    return ub[j]


def _check_binary_support(
    norm: NormalizedReason, variables: Sequence[Variable]
) -> None:
    for j, _ in norm.constraint.terms:
        if variables[j].kind is not VarKind.BINARY:
            raise ReductionError("binary reduction applied to a non-binary reason")


def _propagation_gap(
    norm: NormalizedReason, trail: Trail, state: StateId
) -> Tuple[Rat, List[int], List[int]]:
    """Return (btilde, P, others) for the literal-space reason at ``state``.

    btilde = b - sum_{j in P} a_j where P holds the literals with local upper
    bound 1; it equals the pre-rounding bound propagated for the r-literal.
    """
    lb, ub = trail.bounds_at(state)
    P: List[int] = []
    others: List[int] = []
    btilde = norm.constraint.rhs
    for j, a in norm.constraint.terms:
        if j == norm.r:
            continue
        if _literal_local_ub(j, norm.record, lb, ub) == 1:
            P.append(j)
            btilde -= a
        else:
            others.append(j)
    return btilde, P, others


def reduce_clause(
    C_reason: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> LinearConstraint:
    """Clause over the resolved literal and the falsified literals (cover cut)."""
    variables = trail.variables
    norm = normalize_reason(C_reason, r, variables)
    _check_binary_support(norm, variables)
    lb, ub = trail.bounds_at(state)
    terms = {norm.r: ONE}
    for j, _ in norm.constraint.terms:
        if j == norm.r:
            continue
        if _literal_local_ub(j, norm.record, lb, ub) == 0:
            terms[j] = ONE
    clause = LinearConstraint.from_dict(terms, ONE, "derived")
    return denormalize(clause, norm.record, variables)


def reduce_coeftight(
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> LinearConstraint:
    """Weaken all relaxable literals (single sweep), then tighten coefficients.

    Returns the input unchanged if the plain resolvent is already infeasible
    at ``state``; raises ReductionError if the reduction exhausts the
    relaxable literals without restoring an infeasible resolvent.
    """
    variables = trail.variables
    if _resolvent_infeasible(C_reason, C_confl, r, trail, state):
        return C_reason
    norm = normalize_reason(C_reason, r, variables)
    _check_binary_support(norm, variables)
    _, P, _ = _propagation_gap(norm, trail, state)
    work = norm.constraint
    for j in sorted(P):
        # Literal bounds are [0,1]; weakening pays a_j on the rhs.
        terms = work.as_dict()
        a = terms.pop(j)
        work = LinearConstraint.from_dict(terms, work.rhs - a, "derived")
    minact = ZERO  # all literal coefficients nonnegative, literal lb 0
    if work.rhs > minact:
        btilde = work.rhs - minact
        work = LinearConstraint.from_dict(
            {j: min(a, btilde) for j, a in work.terms}, work.rhs, "derived"
        )
    reduced = denormalize(work, norm.record, variables).canonical_scale()
    if _resolvent_infeasible(reduced, C_confl, r, trail, state):
        return reduced
    raise ReductionError(
        "coefficient-tightening reduction exhausted relaxable literals"
    )


def reduce_cmir(
    C_reason: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> LinearConstraint:
    """Complement the locally-unfixed literals, apply MIR, complement back."""
    variables = trail.variables
    norm = normalize_reason(C_reason, r, variables)
    _check_binary_support(norm, variables)
    btilde, P, others = _propagation_gap(norm, trail, state)
    if is_integral(btilde):
        raise ReductionError("reason propagates tightly; nothing to reduce")
    if not (0 < btilde < 1):
        raise ReductionError(f"reason does not propagate the literal (gap {btilde})")
    f = frac_part(btilde)

    def psi(a: Rat) -> Rat:
        return frac_floor(a) + min(ONE, frac_part(a) / f)

    terms = {norm.r: ONE}
    rhs = ONE
    C = norm.constraint
    for j in others:
        terms[j] = psi(C.coef(j))
    for j in P:
        val = psi(-C.coef(j))
        terms[j] = -val
        rhs -= val
    out = LinearConstraint.from_dict(terms, rhs, "derived")
    return denormalize(out, norm.record, variables)


def reduce_wmir(
    C_reason: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> LinearConstraint:
    """Weaken the fractional unfixed literals, then apply MIR."""
    variables = trail.variables
    norm = normalize_reason(C_reason, r, variables)
    _check_binary_support(norm, variables)
    btilde, P, others = _propagation_gap(norm, trail, state)
    if is_integral(btilde):
        raise ReductionError("reason propagates tightly; nothing to reduce")
    if not (0 < btilde < 1):
        raise ReductionError(f"reason does not propagate the literal (gap {btilde})")
    C = norm.constraint
    p_w = [j for j in P if not is_integral(C.coef(j))]
    p_z = [j for j in P if is_integral(C.coef(j))]
    rhs0 = C.rhs - sum((C.coef(j) for j in p_w), ZERO)
    f = frac_part(rhs0)

    def psi_w(a: Rat) -> Rat:
        return frac_floor(a) + min(ONE, frac_part(a) / f)

    terms = {norm.r: ONE}
    for j in p_z:
        terms[j] = C.coef(j)
    for j in others:
        terms[j] = psi_w(C.coef(j))
    out = LinearConstraint.from_dict(terms, frac_ceil(rhs0), "derived")
    return denormalize(out, norm.record, variables)


def _resolvent_infeasible(
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> bool:
    try:
        res = resolve(C_confl, C_reason, r)
    except CutError:
        return False
    return infeasible_at(res, trail, state)


def reduce_reason(
    strategy: ReductionStrategy,
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    r: int,
    trail: Trail,
    state: StateId,
) -> LinearConstraint:
    """Dispatch a binary reason reduction by strategy."""
    if strategy is ReductionStrategy.CLAUSE:
        return reduce_clause(C_reason, r, trail, state)
    if strategy is ReductionStrategy.COEF_TIGHT:
        return reduce_coeftight(C_reason, C_confl, r, trail, state)
    if strategy is ReductionStrategy.CMIR:
        return reduce_cmir(C_reason, r, trail, state)
    if strategy is ReductionStrategy.WMIR:
        return reduce_wmir(C_reason, r, trail, state)
    raise ValueError(f"unknown strategy {strategy}")
