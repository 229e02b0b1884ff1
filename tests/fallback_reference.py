"""The graph fallback as it was before it became one implication walk.

A verbatim copy of the earlier ``graph_fallback`` and its helpers
``_reason_sources``, ``_atom_sources``, ``_expand_change``, ``_negated_atom``
and ``_fallback_backjump``, kept as the reference for the differential test
in ``test_conflict.py``.  Only the model, the trail and ``AnalysisResult``
are shared with ``cutlearn``, so that results compare equal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Union

from cutlearn.conflict import AnalysisResult
from cutlearn.model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Variable,
    VarKind,
    complement,
)
from cutlearn.rationals import ONE
from cutlearn.trail import INITIAL_STATE, BoundChange, RowReason, StateId, Trail


def _reason_sources(
    trail: Trail,
    reason: Union[LinearConstraint, BoundDisjunction],
    upto: StateId,
    implied: Optional[BoundChange] = None,
) -> List[BoundChange]:
    """Latest bound changes (up to ``upto``) that falsify each literal of a
    row or a disjunction, except the literal ``implied`` by it.

    A disjunction's literals are its atoms.  A row term a_j x_j stands for
    the bound it can imply (lower for a_j > 0, upper for a_j < 0), which is
    falsified by the other bound, the one its max activity is taken at.
    """
    if isinstance(reason, LinearConstraint):
        literals = [
            (j, BoundKind.LOWER if a > 0 else BoundKind.UPPER)
            for j, a in reason.terms
        ]
    else:
        literals = [(atom.var, atom.kind) for atom in reason.atoms]
    out = []
    for var, kind in literals:
        if implied is not None and var == implied.var and kind is implied.kind:
            continue
        other = BoundKind.UPPER if kind is BoundKind.LOWER else BoundKind.LOWER
        ch = trail.latest_change(var, other, upto=upto)
        if ch is not None:
            out.append(ch)
    return out


def _atom_sources(
    trail: Trail, seed: List[BoundChange], used: Set[int]
) -> List[BoundChange]:
    """Expand continuous changes through their reasons until only integral
    bound changes remain; drops nothing else."""
    variables = trail.variables
    result = {}
    stack = list(seed)
    seen: Set[StateId] = set()
    while stack:
        ch = stack.pop()
        if ch.state in seen:
            continue
        seen.add(ch.state)
        if variables[ch.var].kind is not VarKind.CONTINUOUS:
            result[ch.state] = ch
            continue
        if ch.reason is None:
            raise ValueError("continuous decision on the trail")
        stack.extend(_expand_change(trail, ch, used))
    return sorted(result.values(), key=lambda c: c.state)


def _expand_change(trail: Trail, ch: BoundChange, used: Set[int]) -> List[BoundChange]:
    """The changes that made ``ch``'s reason imply it."""
    if isinstance(ch.reason, RowReason):
        used.add(ch.reason.index)
        reason = ch.reason.row
    else:
        reason = ch.reason.disjunction
    s = ch.state
    return _reason_sources(trail, reason, StateId(s.level, s.index - 1), ch)


def _negated_atom(ch: BoundChange, variables: Sequence[Variable]) -> BoundAtom:
    v = variables[ch.var]
    if not v.is_integral:
        raise ValueError("cannot negate a continuous bound change")
    if ch.kind is BoundKind.LOWER:
        return BoundAtom(ch.var, BoundKind.UPPER, ch.new_value - 1)
    return BoundAtom(ch.var, BoundKind.LOWER, ch.new_value + 1)


def graph_fallback(
    trail: Trail, conflict: Union[LinearConstraint, BoundDisjunction]
) -> AnalysisResult:
    """Single-FUIP analysis over bound changes.

    The learned object is the negation of the contributing bound set after
    all current-level propagations except the last one are expanded through
    their reasons.  Pure-binary results are returned as a clause row;
    otherwise as a bound disjunction.
    """
    variables = trail.variables
    state = trail.current_state
    level = state.level
    if level == 0:
        return AnalysisResult("global_infeasibility")
    used: Set[int] = set()
    seed = _reason_sources(trail, conflict, state)
    contributions = _atom_sources(trail, seed, used)
    # Drop root-level contributions: they hold in every subproblem.
    contributions = [c for c in contributions if c.state.level > 0]
    open_here = [c for c in contributions if c.state.level == level]
    earlier = {c.state: c for c in contributions if c.state.level < level}
    iterations = 0
    while len(open_here) > 1:
        open_here.sort(key=lambda c: c.state)
        ch = open_here.pop()
        if ch.is_decision:
            # The decision sits at index 0, so it cannot be the latest of
            # two open changes at its own level.
            raise AssertionError("decision dominated a later change")
        expanded = _atom_sources(trail, _expand_change(trail, ch, used), used)
        iterations += 1
        for nc in expanded:
            if nc.state.level == 0:
                continue
            if nc.state.level == level:
                if all(nc.state != o.state for o in open_here):
                    open_here.append(nc)
            else:
                earlier[nc.state] = nc
    atoms_src = sorted(earlier.values(), key=lambda c: c.state) + open_here
    if not atoms_src:
        return AnalysisResult("global_infeasibility")
    atoms = []
    seen_keys = set()
    for ch in atoms_src:
        atom = _negated_atom(ch, variables)
        key = (atom.var, atom.kind)
        if key in seen_keys:
            # Keep the weakest negation (latest change dominates earlier
            # ones on the same bound).
            atoms = [a for a in atoms if (a.var, a.kind) != key]
        seen_keys.add(key)
        atoms.append(atom)

    if all(variables[a.var].kind is VarKind.BINARY for a in atoms):
        # The clause over the atoms' literals: x for x >= 1, 1 - x for x <= 0.
        clause = complement(
            LinearConstraint.from_dict({a.var: ONE for a in atoms}, ONE),
            [a.var for a in atoms if a.kind is BoundKind.UPPER],
            variables,
        )
        learned = clause.with_origin("learned:graph")
    else:
        learned = BoundDisjunction(tuple(atoms), "learned:graph")
    return AnalysisResult(
        "learned",
        learned,
        backjump_target=_fallback_backjump(trail, atoms_src),
        iterations=iterations,
        conflicting_state=state,
        used_row_indices=tuple(sorted(used)),
    )


def _fallback_backjump(trail: Trail, sources: List[BoundChange]) -> StateId:
    """State after which the learned object becomes unit: the latest source
    change below the conflict level (or the root if there is none)."""
    level = trail.current_level
    below = [c.state for c in sources if c.state.level < level]
    return max(below) if below else INITIAL_STATE
