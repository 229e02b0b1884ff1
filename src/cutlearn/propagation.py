"""Bound-strengthening propagation of linear rows and bound disjunctions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import BoundDisjunction, BoundKind, LinearConstraint, VarKind
from .rationals import (
    Ext,
    Rat,
    ZERO,
    ext_add,
    ext_mul,
    frac_ceil,
    frac_floor,
    is_finite,
    is_integral,
)
from .trail import (
    DisjunctionReason,
    RowReason,
    StateId,
    Trail,
    activity_bounds_max,
)


@dataclass(frozen=True)
class Candidate:
    """A bound tightening implied by one row at the current local bounds."""

    var: int
    kind: BoundKind
    value: Rat
    pre_rounding: Rat


@dataclass(frozen=True)
class PropagationResult:
    conflict: bool
    changes: Tuple[Candidate, ...] = ()

    @property
    def no_change(self) -> bool:
        return not self.conflict and not self.changes


NO_CHANGE = PropagationResult(False)
CONFLICT = PropagationResult(True)


def residual_max(
    C: LinearConstraint, skip: int, lb: Sequence[Ext], ub: Sequence[Ext]
) -> Ext:
    """Max of sum over j != skip of a_j x_j within the bounds, or +inf."""
    total: Ext = ZERO
    for j, a in C.terms:
        if j == skip:
            continue
        contrib = ext_mul(a, ub[j]) if a > 0 else ext_mul(a, lb[j])
        total = ext_add(total, contrib)
    return total


def propagate_candidates(
    C: LinearConstraint, trail: Trail, state: Optional[StateId] = None
) -> PropagationResult:
    """Candidates from one row against the bounds at ``state`` (default: current)."""
    if state is None:
        lb, ub = trail.local_lb, trail.local_ub
    else:
        lb, ub = trail.bounds_at(state)
    maxact = activity_bounds_max(C, lb, ub)
    if maxact < C.rhs:
        return CONFLICT
    candidates: List[Candidate] = []
    for j, a in C.terms:
        residual = residual_max(C, j, lb, ub)
        if not is_finite(residual):
            continue
        pre = (C.rhs - residual) / a
        var = trail.variables[j]
        if a > 0:
            value = frac_ceil(pre) if var.is_integral else pre
            if value > lb[j]:
                candidates.append(Candidate(j, BoundKind.LOWER, value, pre))
        else:
            value = frac_floor(pre) if var.is_integral else pre
            if value < ub[j]:
                candidates.append(Candidate(j, BoundKind.UPPER, value, pre))
    if candidates:
        return PropagationResult(False, tuple(candidates))
    return NO_CHANGE


@dataclass(frozen=True)
class DisjunctionPropagation:
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
        value = frac_ceil(value) if atom.kind is BoundKind.LOWER else frac_floor(value)
    return DisjunctionPropagation(False, (atom.var, atom.kind, value))


@dataclass(frozen=True)
class FixpointResult:
    conflict: bool
    # For conflicts: ("row" | "disjunction", index within the given list).
    source: Optional[Tuple[str, int]] = None
    state: Optional[StateId] = None
    num_changes: int = 0


def propagate_fixpoint(
    trail: Trail,
    rows: Sequence[LinearConstraint],
    disjunctions: Sequence[BoundDisjunction] = (),
    max_rounds: int = 200,
) -> FixpointResult:
    """Round-robin propagation in row-index order until stable or conflicting.

    Continuous bounds can converge to a fixpoint without ever reaching it
    (two rows tightening each other by a shrinking amount each round), so
    the number of rounds is capped.  Stopping early is sound: propagation
    only ever deduces implied bounds, never assumes anything.
    """
    num_changes = 0
    changed = True
    rounds = 0
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for i, row in enumerate(rows):
            while True:
                result = propagate_candidates(row, trail)
                if result.conflict:
                    return FixpointResult(
                        True, ("row", i), trail.current_state, num_changes
                    )
                applied = False
                for cand in result.changes:
                    # Bounds may have moved while applying earlier candidates
                    # of the same row; re-check that the change still tightens.
                    if cand.kind is BoundKind.LOWER:
                        if cand.value <= trail.local_lb[cand.var]:
                            continue
                    else:
                        if cand.value >= trail.local_ub[cand.var]:
                            continue
                    trail.push_deduction(
                        cand.var,
                        cand.kind,
                        cand.value,
                        RowReason(i, row),
                        cand.pre_rounding,
                    )
                    num_changes += 1
                    applied = True
                if not applied:
                    break
                changed = True
        for i, dis in enumerate(disjunctions):
            res = propagate_disjunction(dis, trail)
            if res.conflict:
                return FixpointResult(
                    True, ("disjunction", i), trail.current_state, num_changes
                )
            if res.change is not None:
                var, kind, value = res.change
                trail.push_deduction(var, kind, value, DisjunctionReason(i, dis))
                num_changes += 1
                changed = True
    return FixpointResult(False, num_changes=num_changes)


def is_tight_propagation(C: LinearConstraint, change, trail: Trail) -> bool:
    """A propagation is tight if no integer rounding was needed."""
    if trail.variables[change.var].kind is VarKind.CONTINUOUS:
        return True
    pre = change.pre_rounding
    if pre is None:
        pre = _rederive_pre_rounding(C, change, trail)
    return is_integral(pre)


def _rederive_pre_rounding(C: LinearConstraint, change, trail: Trail) -> Rat:
    before = trail.predecessor(change.state)
    result = propagate_candidates(C, trail, before)
    for cand in result.changes:
        if cand.var == change.var and cand.kind == change.kind:
            return cand.pre_rounding
    raise ValueError(
        f"change on x{change.var} at {change.state} is not derivable from the row"
    )
