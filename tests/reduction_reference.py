"""The binary reductions and the general-integer separation as they were
before the reductions shared one literal-space substitution and one MIR
rounding.

A verbatim copy of the earlier ``normalize_for_reduction``/``denormalize``,
the four binary reductions with their inline rounding functions, ``mir_cut``
and ``resolve_general_integer`` with the result types it returned, kept as
the reference for the differential test in ``test_cuts.py``.  Only the model,
the trail, ``resolve`` and the error types are shared with ``cutlearn``, so
that results and failures compare equal; ``test_cuts.py`` maps this
``resolve_general_integer``'s results and the solver's to one form.

``resolve_in_fractions`` is resolution as it was before ``resolve`` ran on
the integer-scaled rows: the composition C1 + (|a1|/|a2|)·C2 summed term by
term in ``Fraction``s, the reference for ``resolve`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from cutlearn.cuts import CutError, ReductionError, resolve
from cutlearn.model import LinearConstraint, Variable, VarKind
from cutlearn.rationals import (
    INF,
    ONE,
    ZERO,
    Ext,
    Rat,
    frac_part,
    is_finite,
    is_integral,
)
from cutlearn.trail import StateId, Trail

from conftest import infeasible_at, reference_max_activity


def resolve_in_fractions(
    C1: LinearConstraint, C2: LinearConstraint, var: int
) -> LinearConstraint:
    """C1 + (|a1|/|a2|)·C2, which cancels ``var``, in ``Fraction``s."""
    a1, a2 = C1.coef(var), C2.coef(var)
    if a1 == 0 or a2 == 0:
        raise CutError(f"variable {var} missing from a resolution operand")
    if (a1 > 0) == (a2 > 0):
        raise CutError(f"variable {var} has same-sign coefficients; cannot resolve")
    mult = abs(a1) / abs(a2)
    terms = C1.as_dict()
    for j, c in C2.terms:
        terms[j] = terms.get(j, ZERO) + mult * c
    return LinearConstraint.from_dict(terms, C1.rhs + mult * C2.rhs, "derived")


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
        return math.floor(a) + min(ONE, frac_part(a) / f)

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
        return math.floor(a) + min(ONE, frac_part(a) / f)

    terms = {norm.r: ONE}
    for j in p_z:
        terms[j] = C.coef(j)
    for j in others:
        terms[j] = psi_w(C.coef(j))
    out = LinearConstraint.from_dict(terms, math.ceil(rhs0), "derived")
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


@dataclass(frozen=True)
class Resolved:
    constraint: LinearConstraint


@dataclass(frozen=True)
class SeparationCut:
    constraint: LinearConstraint


class Failed:
    pass


FAILED = Failed()


def resolve_general_integer(
    C_reason: LinearConstraint,
    C_learn: LinearConstraint,
    x_r: int,
    trail: Trail,
    state: StateId,
) -> Union[Resolved, SeparationCut, Failed]:
    """Resolve a general-integer bound change, separating with a rounding cut
    if plain resolution leaves the resolvent feasible."""
    variables = trail.variables
    lb, ub = trail.bounds_at(state)
    try:
        plain = resolve(C_learn, C_reason, x_r)
    except CutError:
        return FAILED
    if reference_max_activity(plain, lb, ub) < plain.rhs:
        return Resolved(plain)

    # Shift/complement every variable of the reason to a 0-based literal,
    # normalize the coefficient on x_r's literal to 1, and apply the
    # mixed integer rounding cut.
    work = C_reason
    shifted: List[Tuple[int, Fraction]] = []
    complemented: List[int] = []
    for j, a in C_reason.terms:
        v = variables[j]
        if a > 0:
            if not is_finite(v.global_lb):
                return FAILED
            if v.global_lb != 0:
                shifted.append((j, Fraction(v.global_lb)))
        else:
            if not is_finite(v.global_ub):
                return FAILED
            complemented.append(j)
    terms = work.as_dict()
    rhs = work.rhs
    for j, off in shifted:
        rhs -= terms[j] * off
    for j in complemented:
        rhs -= terms[j] * Fraction(variables[j].global_ub)
        terms[j] = -terms[j]
    work = LinearConstraint.from_dict(terms, rhs, "derived")
    a_r = work.coef(x_r)
    if a_r <= 0:
        return FAILED
    work = work.scaled(ONE / a_r)

    # Literal-space bounds: shifted and complemented variables both live on
    # [0, ub - lb], so lb 0 holds for MIR.
    lit_vars = list(variables)
    for j, _ in work.terms:
        v = variables[j]
        width = (
            v.global_ub - v.global_lb
            if is_finite(v.global_ub) and is_finite(v.global_lb)
            else INF
        )
        lit_vars[j] = replace(v, global_lb=ZERO, global_ub=width)
    try:
        cut = mir_cut(work, lit_vars)
    except CutError:
        return FAILED

    # Map back to original variable space.
    terms = cut.as_dict()
    rhs = cut.rhs
    for j in complemented:
        if j in terms:
            rhs -= terms[j] * Fraction(variables[j].global_ub)
            terms[j] = -terms[j]
    for j, off in shifted:
        if j in terms:
            rhs += terms[j] * off
    reduced = LinearConstraint.from_dict(terms, rhs, "derived")
    try:
        res = resolve(C_learn, reduced, x_r)
    except CutError:
        return FAILED
    if reference_max_activity(res, lb, ub) < res.rhs:
        return SeparationCut(reduced)
    return FAILED
