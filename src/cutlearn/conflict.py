"""Conflict analysis: learn globally valid constraints from local infeasibility.

The main loop walks the trail backward from the infeasible state, replacing
the conflicting constraint by its resolvent with (reduced) reason constraints
until the result would propagate at an earlier decision level.  Reasons with
continuous variables are first cleaned by resolving those variables out;
general-integer bound changes go through a rounding-cut separation attempt.
When no linear constraint can be learned, a bound-disjunction fallback walks
the implication graph instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Set, Tuple, Union

from .cuts import (
    CutError,
    ReductionError,
    ReductionStrategy,
    coef_tighten,
    mir_cut,
    reduce_reason,
    resolve,
)
from .model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Variable,
    VarKind,
)
from .propagation import is_tight_propagation
from .rationals import ONE, ZERO, is_finite
from .trail import (
    INITIAL_STATE,
    BoundChange,
    DisjunctionReason,
    RowReason,
    StateId,
    Trail,
    activity_bounds_max,
    global_max_activity,
    global_min_activity,
    is_relaxable,
)

GRAPH_FALLBACK = "graph"


@dataclass(frozen=True)
class AnalysisConfig:
    max_learned_length: Optional[int] = None
    emit_trace: bool = False


@dataclass(frozen=True)
class AnalysisResult:
    # outcome in {"learned", "learned_disjunction", "global_infeasibility",
    # "abandoned"}
    outcome: str
    constraint: Optional[LinearConstraint] = None
    disjunction: Optional[BoundDisjunction] = None
    backjump_target: Optional[StateId] = None
    iterations: int = 0
    strategy_used: Optional[str] = None
    abandoned_reason: Optional[str] = None
    # State at which the learned object was (last known) infeasible.
    conflicting_state: Optional[StateId] = None
    # Indices of the rows whose reasons the derivation resolved through.
    used_row_indices: Tuple[int, ...] = ()
    trace: Tuple[str, ...] = ()

    @property
    def learned_object(self):
        if self.outcome == "learned":
            return self.constraint
        if self.outcome == "learned_disjunction":
            return self.disjunction
        return None


# -- state scans --------------------------------------------------------------


class _ActivityWalk:
    """C's max activity, kept while walking the trail forward from the root.

    The activity is a pair: the exact sum of the finite contributions and
    the number of infinite ones.  ``apply`` updates it in O(1) per bound
    change, and only a change on a variable of C can move it.  For each
    variable of C the walk also keeps a_j times its other bound, the one
    that minimizes the term, for the propagation test.  Contributions are
    Fractions; an infinite one is stored as None.
    """

    def __init__(self, C: LinearConstraint, variables: Sequence[Variable]):
        self.rhs = C.rhs
        self.coef = dict(C.terms)
        self.top = {}  # j -> a_j times the bound maximizing a_j x_j
        self.bottom = {}  # j -> a_j times the bound minimizing a_j x_j
        self.finite = ZERO
        self.infinite = 0
        for j, a in C.terms:
            v = variables[j]
            hi, lo = (v.global_ub, v.global_lb) if a > 0 else (v.global_lb, v.global_ub)
            if is_finite(hi):
                self.top[j] = a * hi
                self.finite += self.top[j]
            else:
                self.top[j] = None
                self.infinite += 1
            self.bottom[j] = a * lo if is_finite(lo) else None

    def apply(self, ch: BoundChange) -> bool:
        """Apply one change; False if its variable is not in C."""
        a = self.coef.get(ch.var)
        if a is None:
            return False
        value = a * ch.new_value
        if (ch.kind is BoundKind.UPPER) != (a > 0):
            self.bottom[ch.var] = value
            return True
        old = self.top[ch.var]
        if old is None:
            self.infinite -= 1
        else:
            self.finite -= old
        self.finite += value
        self.top[ch.var] = value
        return True

    def infeasible(self) -> bool:
        return self.infinite == 0 and self.finite < self.rhs

    def propagates(self) -> bool:
        """Would C tighten some bound of one of its variables?

        C tightens x_j iff putting x_j at its minimizing bound, with every
        other term at its max, violates C.  For an integral x_j the bound
        itself is integral, so this agrees with the rounded deduction of
        ``propagate_candidates``.
        """
        rhs = self.rhs
        if self.infinite > 1 or self.infeasible():
            return False
        for j, top in self.top.items():
            if top is None:
                residual = self.finite
            elif self.infinite:
                continue
            else:
                residual = self.finite - top
            bottom = self.bottom[j]
            if bottom is None or residual + bottom < rhs:
                return True
        return False


def min_infeasible_state(C: LinearConstraint, trail: Trail) -> Optional[StateId]:
    """Lexicographically smallest state at which C's max activity < rhs."""
    walk = _ActivityWalk(C, trail.variables)
    if walk.infeasible():
        return INITIAL_STATE
    for ch in trail.changes:
        if walk.apply(ch) and walk.infeasible():
            return ch.state
    return None


def is_asserting(
    C: LinearConstraint, trail: Trail, conflict_level: Optional[int] = None
) -> Optional[StateId]:
    """Earliest state at a decision level before ``conflict_level`` where C
    would tighten some bound; None if there is no such state.

    C must still propagate at the *end* of some level before
    ``conflict_level``: a deduction visible mid-level but subsumed by later
    changes of the same level is stale, and backjumping for it would make
    no progress.  The answer is then the first propagating state of the
    trail, even if that one is stale.
    """
    if conflict_level is None:
        conflict_level = trail.current_level
    if conflict_level <= 0:
        return None
    walk = _ActivityWalk(C, trail.variables)
    propagates = walk.propagates()
    first = INITIAL_STATE if propagates else None
    level = 0
    for ch in trail.changes:
        if ch.state.level != level:
            if propagates:
                return first
            if ch.state.level >= conflict_level:
                return None
            level = ch.state.level
        if walk.apply(ch):
            propagates = walk.propagates()
            if propagates and first is None:
                first = ch.state
    return first if propagates else None


# -- reason handling ----------------------------------------------------------


@dataclass(frozen=True)
class ReducedReason:
    constraint: LinearConstraint


@dataclass(frozen=True)
class EarlierConflict:
    constraint: LinearConstraint


def reduce_mbp(
    C_reason: LinearConstraint,
    C_confl: LinearConstraint,
    x_r: int,
    trail: Trail,
    prop_state: StateId,
    strategy: ReductionStrategy,
    used_rows: Optional[Set[int]] = None,
) -> Union[ReducedReason, EarlierConflict]:
    """Resolve out non-relaxable continuous variables, then reduce.

    Walks states strictly before ``prop_state`` in decreasing order; each
    visited state's change is on a continuous variable whose local bound
    blocks relaxing the working reason, and is cancelled using that state's
    own reason.  If the aggregate becomes infeasible just before
    ``prop_state``, it is itself a conflict and is returned as such.
    """
    variables = trail.variables
    work = C_reason
    cursor = prop_state
    pred = trail.predecessor(prop_state)
    pred_lb, pred_ub = trail.bounds_at(pred)
    while True:
        target: Optional[BoundChange] = None
        for ch in reversed(trail.changes):
            if ch.state >= cursor:
                continue
            c = ch.var
            if variables[c].kind is not VarKind.CONTINUOUS:
                continue
            a = work.coef(c)
            if a == 0:
                continue
            # The change must be on the side that blocks relaxation.
            wanted = BoundKind.UPPER if a > 0 else BoundKind.LOWER
            if ch.kind is not wanted:
                continue
            if is_relaxable(work, c, trail, ch.state):
                continue
            target = ch
            break
        if target is None:
            break
        if target.reason is None:
            raise ReductionError(
                f"continuous variable x{target.var} was branched on"
            )
        if not isinstance(target.reason, RowReason):
            raise ReductionError(
                f"continuous variable x{target.var} propagated by a disjunction"
            )
        if used_rows is not None:
            used_rows.add(target.reason.index)
        work = resolve(work, target.reason.row, target.var)
        if activity_bounds_max(work, pred_lb, pred_ub) < work.rhs:
            return EarlierConflict(work)
        cursor = target.state
    # Weaken any remaining (relaxable) continuous terms so the binary
    # reduction sees a pure 0/1 constraint.
    from .cuts import weaken

    for j, _ in work.terms:
        if variables[j].kind is VarKind.CONTINUOUS:
            work = weaken(work, j, variables)
    reduced = reduce_reason(strategy, work, C_confl, x_r, trail, prop_state)
    return ReducedReason(reduced)


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
    if activity_bounds_max(plain, lb, ub) < plain.rhs:
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

    # Literal-space bounds: shifted vars live on [0, ub-lb]; complemented
    # ones on [0, ub-lb] as well, so lb 0 holds for MIR.
    class _LitVar:
        def __init__(self, kind, glb, gub):
            self.kind = kind
            self.global_lb = glb
            self.global_ub = gub
            self.is_integral = kind in (VarKind.BINARY, VarKind.INTEGER)

    lit_vars = {}
    for j, _ in work.terms:
        v = variables[j]
        width = v.global_ub - v.global_lb if is_finite(v.global_ub) and is_finite(v.global_lb) else v.global_ub
        lit_vars[j] = _LitVar(v.kind, ZERO, width)
    try:
        cut = mir_cut(work, _SeqView(lit_vars, len(variables)))
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
    if activity_bounds_max(res, lb, ub) < res.rhs:
        return SeparationCut(reduced)
    return FAILED


class _SeqView:
    """Sequence facade over a sparse {index: variable-like} mapping."""

    def __init__(self, mapping, size):
        self._mapping = mapping
        self._size = size

    def __getitem__(self, j):
        return self._mapping[j]

    def __len__(self):
        return self._size


# -- Algorithm-1 main loop ----------------------------------------------------


def analyze(
    conflict_row: LinearConstraint,
    trail: Trail,
    strategy: ReductionStrategy,
    config: AnalysisConfig = AnalysisConfig(),
) -> AnalysisResult:
    """Learn a globally valid constraint explaining the current conflict.

    Returns Abandoned when a reason cannot be reduced (the caller may then
    try ``graph_fallback``).
    """
    variables = trail.variables
    conflict_level = trail.current_level
    C_learn = conflict_row
    iterations = 0
    trace: List[str] = []
    used: Set[int] = set()
    prev_state: Optional[StateId] = None

    while True:
        if global_max_activity(C_learn, variables) < C_learn.rhs:
            return AnalysisResult(
                "global_infeasibility",
                constraint=C_learn,
                iterations=iterations,
                strategy_used=strategy.value,
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        asserting_at = is_asserting(C_learn, trail, conflict_level)
        s = min_infeasible_state(C_learn, trail)
        if s is None:
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason="conflict lost during strengthening",
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        if asserting_at is not None:
            return AnalysisResult(
                "learned",
                constraint=_with_origin(C_learn, strategy),
                backjump_target=asserting_at,
                iterations=iterations,
                strategy_used=strategy.value,
                conflicting_state=s,
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        if s.level == 0:
            # Conflicts with globally valid root deductions: no feasible
            # point exists.
            return AnalysisResult(
                "global_infeasibility",
                constraint=C_learn,
                iterations=iterations,
                strategy_used=strategy.value,
                conflicting_state=s,
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        if prev_state is not None and s >= prev_state:
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason="no progress in the backward walk",
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        prev_state = s
        ch = trail.change_at(s)
        if ch.is_decision:
            # A decision state can only be minimal if the constraint
            # propagates at its predecessor, which the asserting check
            # would have caught.
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason="minimal infeasible state is a decision",
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        if not isinstance(ch.reason, RowReason):
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason="reason is a bound disjunction",
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        C_reason = ch.reason.row
        used.add(ch.reason.index)
        r = ch.var
        action = "resolve"
        try:
            if is_tight_propagation(C_reason, ch, trail):
                reduced = C_reason
                action = "tight"
            elif variables[r].kind is VarKind.BINARY:
                has_continuous = any(
                    variables[j].kind is VarKind.CONTINUOUS
                    for j, _ in C_reason.terms
                )
                if has_continuous:
                    out = reduce_mbp(
                        C_reason, C_learn, r, trail, s, strategy, used
                    )
                    if isinstance(out, EarlierConflict):
                        C_learn = out.constraint
                        iterations += 1
                        if config.emit_trace:
                            trace.append(
                                f"iter={iterations} state=({s.level},{s.index}) "
                                f"var={r} action=earlier-conflict len={len(C_learn)}"
                            )
                        continue
                    reduced = out.constraint
                    action = "mbp"
                else:
                    reduced = reduce_reason(strategy, C_reason, C_learn, r, trail, s)
                    action = strategy.value
            elif variables[r].kind is VarKind.INTEGER:
                out = resolve_general_integer(C_reason, C_learn, r, trail, s)
                if isinstance(out, Failed):
                    return AnalysisResult(
                        "abandoned",
                        iterations=iterations,
                        strategy_used=strategy.value,
                        abandoned_reason="general-integer resolution failed",
                        conflicting_state=s,
                        used_row_indices=tuple(sorted(used)),
                        trace=tuple(trace),
                    )
                if isinstance(out, Resolved):
                    C_learn = _strengthen(out.constraint, variables)
                    iterations += 1
                    if config.emit_trace:
                        trace.append(
                            f"iter={iterations} state=({s.level},{s.index}) "
                            f"var={r} action=int-resolve len={len(C_learn)}"
                        )
                    continue
                reduced = out.constraint
                action = "separation-cut"
            else:
                # Continuous propagations are always tight, so this branch
                # is unreachable; kept as a guard.
                reduced = C_reason
        except ReductionError as exc:
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason=str(exc),
                conflicting_state=s,
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        try:
            C_learn = resolve(C_learn, reduced, r)
        except CutError as exc:
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason=str(exc),
                conflicting_state=s,
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )
        if action == "tight":
            # A tightly propagating reason guarantees the plain resolvent is
            # itself infeasible at the resolved state; check it.
            lb_s, ub_s = trail.bounds_at(s)
            assert activity_bounds_max(C_learn, lb_s, ub_s) < C_learn.rhs, (
                f"resolvent feasible at {s} after tight resolution on x{r}"
            )
        C_learn = _strengthen(C_learn, variables)
        iterations += 1
        if config.emit_trace:
            trace.append(
                f"iter={iterations} state=({s.level},{s.index}) var={r} "
                f"action={action} len={len(C_learn)}"
            )
        if (
            config.max_learned_length is not None
            and len(C_learn) > config.max_learned_length
        ):
            return AnalysisResult(
                "abandoned",
                iterations=iterations,
                strategy_used=strategy.value,
                abandoned_reason="learned constraint too long",
                used_row_indices=tuple(sorted(used)),
                trace=tuple(trace),
            )


def _strengthen(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    minact = global_min_activity(C, variables)
    if minact < C.rhs:
        try:
            return coef_tighten(C, variables)
        except CutError:
            return C
    return C


def _with_origin(C: LinearConstraint, strategy: ReductionStrategy) -> LinearConstraint:
    return LinearConstraint(C.terms, C.rhs, f"learned:{strategy.value}")


# -- graph fallback -----------------------------------------------------------


def _contributing_changes(
    C: LinearConstraint,
    trail: Trail,
    state: StateId,
    exclude_var: Optional[int] = None,
) -> List[BoundChange]:
    """Latest bound changes (up to ``state``) on the non-relaxable side of
    each term; these jointly explain the row's activity at ``state``."""
    out = []
    for j, a in C.terms:
        if j == exclude_var:
            continue
        kind = BoundKind.UPPER if a > 0 else BoundKind.LOWER
        ch = trail.latest_change(j, kind, upto=state)
        if ch is not None:
            out.append(ch)
    return out


def _atom_sources(
    trail: Trail,
    seed: List[BoundChange],
    used: Optional[Set[int]] = None,
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


def _expand_change(
    trail: Trail, ch: BoundChange, used: Optional[Set[int]] = None
) -> List[BoundChange]:
    pred = trail.predecessor(ch.state)
    if isinstance(ch.reason, RowReason):
        if used is not None:
            used.add(ch.reason.index)
        return _contributing_changes(ch.reason.row, trail, pred, exclude_var=ch.var)
    # Disjunction reason: every other atom was violated at the predecessor.
    out = []
    for atom in ch.reason.disjunction.atoms:
        if atom.var == ch.var and atom.kind == ch.kind:
            continue
        kind = BoundKind.UPPER if atom.kind is BoundKind.LOWER else BoundKind.LOWER
        hit = trail.latest_change(atom.var, kind, upto=pred)
        if hit is not None:
            out.append(hit)
    return out


def _negated_atom(ch: BoundChange, variables: Sequence[Variable]) -> BoundAtom:
    v = variables[ch.var]
    if not v.is_integral:
        raise ValueError("cannot negate a continuous bound change")
    if ch.kind is BoundKind.LOWER:
        return BoundAtom(ch.var, BoundKind.UPPER, ch.new_value - 1)
    return BoundAtom(ch.var, BoundKind.LOWER, ch.new_value + 1)


def graph_fallback(
    trail: Trail,
    conflict_row: Optional[LinearConstraint] = None,
    conflict_disjunction: Optional[BoundDisjunction] = None,
) -> AnalysisResult:
    """Single-FUIP analysis over bound changes.

    The learned object is the negation of the contributing bound set after
    all current-level propagations except the last one are expanded through
    their reasons.  Pure-binary results are returned as a clause row;
    otherwise as a bound disjunction.
    """
    variables = trail.variables
    state = trail.current_state
    if conflict_row is not None:
        seed = _contributing_changes(conflict_row, trail, state)
    elif conflict_disjunction is not None:
        seed = []
        for atom in conflict_disjunction.atoms:
            kind = (
                BoundKind.UPPER if atom.kind is BoundKind.LOWER else BoundKind.LOWER
            )
            ch = trail.latest_change(atom.var, kind, upto=state)
            if ch is not None:
                seed.append(ch)
    else:
        raise ValueError("graph_fallback needs a conflicting row or disjunction")
    if trail.current_level == 0:
        return AnalysisResult(
            "global_infeasibility", strategy_used=GRAPH_FALLBACK
        )

    level = trail.current_level
    used: Set[int] = set()
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
        return AnalysisResult(
            "global_infeasibility", strategy_used=GRAPH_FALLBACK
        )
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

    backjump = _fallback_backjump(trail, atoms_src)
    if all(variables[a.var].kind is VarKind.BINARY for a in atoms):
        terms = {}
        rhs = ONE
        for a in atoms:
            if a.kind is BoundKind.LOWER:  # atom x >= 1
                terms[a.var] = ONE
            else:  # atom x <= 0
                terms[a.var] = -ONE
                rhs -= ONE
        clause = LinearConstraint.from_dict(terms, rhs, "learned:graph")
        return AnalysisResult(
            "learned",
            constraint=clause,
            backjump_target=backjump,
            iterations=iterations,
            strategy_used=GRAPH_FALLBACK,
            conflicting_state=state,
            used_row_indices=tuple(sorted(used)),
        )
    disjunction = BoundDisjunction(tuple(atoms), "learned:graph")
    return AnalysisResult(
        "learned_disjunction",
        disjunction=disjunction,
        backjump_target=backjump,
        iterations=iterations,
        strategy_used=GRAPH_FALLBACK,
        conflicting_state=state,
        used_row_indices=tuple(sorted(used)),
    )


def _fallback_backjump(trail: Trail, sources: List[BoundChange]) -> StateId:
    """State after which the learned object becomes unit: the latest source
    change below the conflict level (or the root if there is none)."""
    level = trail.current_level
    below = [c.state for c in sources if c.state.level < level]
    return max(below) if below else INITIAL_STATE
