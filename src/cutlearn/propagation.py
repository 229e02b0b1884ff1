"""Bound-strengthening propagation of linear rows and bound disjunctions."""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .model import (
    BoundDisjunction,
    BoundKind,
    Bounds,
    LinearConstraint,
    Variable,
    VarKind,
    activity,
)
from .rationals import Rat, is_integral
from .trail import BoundChange, DisjunctionReason, RowReason, Trail


class Candidate(NamedTuple):
    """A bound tightening implied by one row at the current local bounds."""

    var: int
    kind: BoundKind
    value: Rat
    pre_rounding: Rat


class PropagationResult(NamedTuple):
    conflict: bool
    changes: Tuple[Candidate, ...] = ()


NO_CHANGE = PropagationResult(False)
CONFLICT = PropagationResult(True)


def residual(finite: Rat, infinite: int, contrib: Optional[Rat]) -> Optional[Rat]:
    """Max activity of the other terms of a row, given the row's activity
    (``finite``, ``infinite``) and one term's contribution; None if infinite."""
    if contrib is None:
        return finite if infinite == 1 else None
    return finite - contrib if infinite == 0 else None


def propagate_candidates(
    C: LinearConstraint, variables: Sequence[Variable], lb: Bounds, ub: Bounds
) -> PropagationResult:
    """Candidates from one row against the box [lb, ub].

    The row's activity is computed once; each term's residual (the max
    activity of the other terms) then costs O(1).

    With every max contribution finite, x_j tightens iff its local span
    |a_j|·(ub_j − lb_j) exceeds the slack max activity − rhs, rounded or
    not: an integral x_j has integral bounds, and ceil(pre) > lb_j iff
    pre > lb_j.  A local span never exceeds its global span, so a row whose
    slack is at least ``C.global_span(variables)`` implies nothing, and
    its per-term loop is skipped (SCIP's max-activity-delta test).
    """
    finite, infinite, contribs = activity(C.terms, lb, ub)
    if infinite == 0:
        if finite < C.rhs:
            return CONFLICT
        if finite - C.rhs >= C.global_span(variables):
            return NO_CHANGE
    elif infinite > 1:
        return NO_CHANGE
    candidates: List[Candidate] = []
    for (j, a), contrib in zip(C.terms, contribs):
        rest = residual(finite, infinite, contrib)
        if rest is None:
            continue
        pre = (C.rhs - rest) / a
        var = variables[j]
        if a > 0:
            value = math.ceil(pre) if var.is_integral else pre
            if value > lb[j]:
                candidates.append(Candidate(j, BoundKind.LOWER, value, pre))
        else:
            value = math.floor(pre) if var.is_integral else pre
            if value < ub[j]:
                candidates.append(Candidate(j, BoundKind.UPPER, value, pre))
    if candidates:
        return PropagationResult(False, tuple(candidates))
    return NO_CHANGE


class DisjunctionPropagation(NamedTuple):
    conflict: bool
    change: Optional[Tuple[int, BoundKind, Rat]] = None


def propagate_disjunction(D: BoundDisjunction, trail: Trail) -> DisjunctionPropagation:
    """Unit rule: if all atoms but one are violated, enforce the remaining one."""
    open_atoms = []
    for atom in D.atoms:
        status = atom.holds(trail.local_lb[atom.var], trail.local_ub[atom.var])
        if status is True:
            return DisjunctionPropagation(False)
        if status is None:
            open_atoms.append(atom)
    if not open_atoms:
        return DisjunctionPropagation(True)
    if len(open_atoms) > 1:
        return DisjunctionPropagation(False)
    atom = open_atoms[0]
    value = atom.value
    var = trail.variables[atom.var]
    if var.is_integral and not is_integral(value):
        value = math.ceil(value) if atom.kind is BoundKind.LOWER else math.floor(value)
    return DisjunctionPropagation(False, (atom.var, atom.kind, value))


# Rounds after which ``propagate_fixpoint`` stops short of a fixpoint.
MAX_ROUNDS = 200


class FixpointResult(NamedTuple):
    conflict: bool
    # For conflicts: ("row" | "disjunction", index within the given list).
    source: Optional[Tuple[str, int]] = None
    num_changes: int = 0
    # True when the loop stopped after ``MAX_ROUNDS`` rounds, before a fixpoint.
    capped: bool = False


def propagate_fixpoint(
    trail: Trail,
    rows: Sequence[LinearConstraint],
    disjunctions: Sequence[BoundDisjunction] = (),
) -> FixpointResult:
    """Round-robin propagation in row-index order until stable or conflicting.

    Continuous bounds can converge to a fixpoint without ever reaching it
    (two rows tightening each other by a shrinking amount each round), so
    the number of rounds is capped at ``MAX_ROUNDS``.  Stopping early is
    sound: propagation only ever deduces implied bounds, never assumes
    anything.

    Each row is evaluated once per round.  Its deductions tighten, for each
    x_j, the bound that its max activity does not read (the lower bound if
    a_j > 0, the upper bound if a_j < 0), so right after they are pushed the
    row implies nothing and is marked stable.  A row is skipped when the
    trail still holds it stable: no bound of its variables differs from
    when it was marked (``Trail.is_stable``), backjumps included.
    Evaluating it would again give no change, so the order, the deductions
    and any conflict stay those of a plain round robin.
    """
    # The trail updates its bound vectors in place.
    variables, lb, ub = trail.variables, trail.local_lb, trail.local_ub
    num_changes = 0
    changed = True
    rounds = 0
    while changed and rounds < MAX_ROUNDS:
        changed = False
        rounds += 1
        for i, row in enumerate(rows):
            if trail.is_stable(i, row):
                continue
            result = propagate_candidates(row, variables, lb, ub)
            if result.conflict:
                return FixpointResult(
                    True, ("row", i), num_changes
                )
            if result.changes:
                # A row has one term per variable, so it gives at most one
                # candidate per variable and pushing one moves no other's
                # bound.
                for cand in result.changes:
                    trail.push_deduction(
                        cand.var,
                        cand.kind,
                        cand.value,
                        RowReason(i, row),
                        cand.pre_rounding,
                    )
                num_changes += len(result.changes)
                changed = True
            trail.mark_stable(i, row)
        for i, dis in enumerate(disjunctions):
            res = propagate_disjunction(dis, trail)
            if res.conflict:
                return FixpointResult(
                    True, ("disjunction", i), num_changes
                )
            if res.change is not None:
                var, kind, value = res.change
                trail.push_deduction(var, kind, value, DisjunctionReason(i, dis))
                num_changes += 1
                changed = True
    return FixpointResult(False, num_changes=num_changes, capped=changed)


def is_tight_propagation(change: BoundChange, trail: Trail) -> bool:
    """A propagation is tight if no integer rounding was needed."""
    if trail.variables[change.var].kind is VarKind.CONTINUOUS:
        return True
    if change.pre_rounding is None:
        raise ValueError(
            f"change on x{change.var} at {change.state} has no pre-rounding value"
        )
    return is_integral(change.pre_rounding)
