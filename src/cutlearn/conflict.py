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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .cuts import (
    CutError,
    ReductionError,
    ReductionStrategy,
    coef_tighten,
    mir_cut,
    reduce_reason,
    resolve,
    resolvent_infeasible,
    weaken,
)
from .model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    Bounds,
    LearnedObject,
    LinearConstraint,
    Variable,
    VarKind,
    complement,
    denormalize,
    global_contributions,
    infeasible_over,
    literal_variables,
    normalize_for_reduction,
)
from .propagation import is_tight_propagation
from .rationals import INF, ONE, Ext
from .trail import INITIAL_STATE, BoundChange, RowReason, StateId, Trail


@dataclass(frozen=True)
class AnalysisResult:
    # outcome in {"learned", "global_infeasibility", "abandoned"}
    outcome: str
    # A row, or a bound disjunction from the graph fallback; set iff learned.
    learned: Optional[LearnedObject] = None
    backjump_target: Optional[StateId] = None
    iterations: int = 0
    abandoned_reason: Optional[str] = None
    # State at which the learned object was (last known) infeasible.
    conflicting_state: Optional[StateId] = None
    # Indices of the rows whose reasons the derivation resolved through.
    used_row_indices: Tuple[int, ...] = ()
    trace: Tuple[str, ...] = ()


# -- state scans --------------------------------------------------------------


class _ActivityWalk:
    """C's max activity, kept while walking the trail forward from the root.

    The walk runs on C's integer-scaled row (``LinearConstraint.int_scaled``),
    and integral bounds are ``int``s, so on integral data all its sums are
    ``int`` sums; a fractional continuous bound stays a Fraction.
    Its tests compare quantities that all carry the same positive scale, so
    they answer as on C itself.  The walk starts at the global bounds, read
    from ``global_contributions``: the exact sum of the finite max
    contributions, the variables whose max contribution is infinite, and
    each term's max and min contribution, the latter for ``propagates``.
    ``apply`` updates it in O(1) per change on a variable of C.  Infinite
    values are None.
    """

    def __init__(self, C: LinearConstraint, variables: Sequence[Variable]):
        _, terms, self.rhs = C.int_scaled()
        self.coef = dict(terms)
        top, bottom = global_contributions(C, variables)
        self.finite = top.finite
        # j -> a_j times the bound that maximizes (minimizes) the term; the
        # row keeps the global ones, so the walk updates copies.
        self.top, self.bottom = dict(top.contribs), dict(bottom.contribs)
        self.unbounded = {j for j, t in self.top.items() if t is None}
        self.widest = self.span = None  # the widest span's j and width, once known

    def apply(self, ch: BoundChange) -> bool:
        """Apply one change; False if its variable is not in C."""
        j = ch.var
        a = self.coef.get(j)
        if a is None:
            return False
        if j == self.widest:
            self.widest = None
        value = a * ch.new_value
        if (ch.kind is BoundKind.UPPER) != (a > 0):
            self.bottom[j] = value
            return True
        old = self.top[j]
        if old is None:
            self.unbounded.discard(j)
        else:
            self.finite -= old
        self.finite += value
        self.top[j] = value
        return True

    def infeasible(self) -> bool:
        return not self.unbounded and self.finite < self.rhs

    def propagates(self) -> bool:
        """Would C tighten some bound of one of its variables?

        C tightens x_j iff x_j at its minimizing bound, every other term at
        its max, violates C; for an integral x_j that bound is integral, so
        this agrees with the rounded deduction of ``propagate_candidates``.
        With one infinite top only that term can tighten; with none, x_j can
        iff its span top_j - bottom_j exceeds finite - rhs.  Spans only shrink
        along the walk: the widest is sought again after its variable changes.
        """
        if len(self.unbounded) == 1:
            bottom = self.bottom[next(iter(self.unbounded))]
            return bottom is None or self.finite + bottom < self.rhs
        if self.unbounded or self.finite < self.rhs:
            return False
        if self.widest is None:
            self.widest = max(self.bottom, key=self._span)
            self.span = self._span(self.widest)
        return self.span > self.finite - self.rhs

    def _span(self, j: int) -> Ext:
        bottom = self.bottom[j]
        return INF if bottom is None else self.top[j] - bottom


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
class EarlierConflict:
    constraint: LinearConstraint


def reduce_mbp(
    C_reason: LinearConstraint,
    trail: Trail,
    prop_state: StateId,
    used_rows: Set[int],
) -> Union[LinearConstraint, EarlierConflict]:
    """Resolve out non-relaxable continuous variables, weaken the rest.

    Walks the trail once, over states strictly before ``prop_state`` in
    decreasing order; each change on a continuous variable whose local
    bound blocks relaxing the working reason is cancelled using that
    state's own reason, whose row index goes into ``used_rows``.  Returns the
    pure-binary reason left, or, if the aggregate becomes infeasible just
    before ``prop_state``, that aggregate as an ``EarlierConflict`` to
    replace the conflicting row.
    """
    variables = trail.variables
    work = C_reason
    pred_lb, pred_ub = trail.bounds_at(StateId(prop_state.level, prop_state.index - 1))
    for ch in reversed(trail.changes):
        if ch.state >= prop_state:
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
        if ch.reason is None:
            raise ReductionError(f"continuous variable x{c} was branched on")
        if not isinstance(ch.reason, RowReason):
            raise ReductionError(
                f"continuous variable x{c} propagated by a disjunction"
            )
        used_rows.add(ch.reason.index)
        work = resolve(work, ch.reason.row, c)
        if infeasible_over(work, pred_lb, pred_ub):
            return EarlierConflict(work)
    # Weaken any remaining (relaxable) continuous terms so the binary
    # reduction sees a pure 0/1 constraint.
    for j, _ in work.terms:
        if variables[j].kind is VarKind.CONTINUOUS:
            work = weaken(work, j, variables)
    return work


def resolve_general_integer(
    C_reason: LinearConstraint,
    C_learn: LinearConstraint,
    x_r: int,
    variables: Sequence[Variable],
    lb: Bounds,
    ub: Bounds,
) -> LinearConstraint:
    """The reason to resolve a general-integer bound change with.

    That is ``C_reason`` itself if the plain resolvent is infeasible over
    [lb, ub], else the MIR cut of the reason in literal space, where every
    variable lies on [0, ub - lb], mapped back to the original variables,
    if its resolvent is.  Raises ReductionError when neither is.
    """
    try:
        if resolvent_infeasible(C_learn, C_reason, x_r, lb, ub):
            return C_reason
        norm, record = normalize_for_reduction(C_reason, x_r, variables)
        cut = mir_cut(norm, literal_variables(norm, variables))
        cut = denormalize(cut, record, variables)
        if resolvent_infeasible(C_learn, cut, x_r, lb, ub):
            return cut
    except ValueError:  # CutError is a ValueError
        pass
    raise ReductionError("general-integer resolution failed")


# -- Algorithm-1 main loop ----------------------------------------------------


def analyze(
    conflict_row: LinearConstraint,
    trail: Trail,
    strategy: ReductionStrategy,
) -> AnalysisResult:
    """Learn a globally valid constraint explaining the current conflict.

    Every reason handler gives the row to resolve with, and one tail
    resolves, checks tight resolutions, strengthens and records the step.
    The result is "abandoned" when a reason cannot be reduced (the caller
    may then try ``graph_fallback``).
    """
    variables = trail.variables
    conflict_level = trail.current_level
    C_learn = conflict_row
    iterations = 0
    trace: List[str] = []
    used: Set[int] = set()
    prev_state: Optional[StateId] = None

    def result(outcome: str, **fields) -> AnalysisResult:
        return AnalysisResult(
            outcome,
            iterations=iterations,
            used_row_indices=tuple(sorted(used)),
            trace=tuple(trace),
            **fields,
        )

    def abandon(why: str, **fields) -> AnalysisResult:
        return result("abandoned", abandoned_reason=why, **fields)

    def step(state: StateId, var: int, action: str) -> None:
        nonlocal iterations
        iterations += 1
        trace.append(
            f"iter={iterations} state=({state.level},{state.index}) "
            f"var={var} action={action} len={len(C_learn)}"
        )

    while True:
        s = min_infeasible_state(C_learn, trail)
        if s is None:
            return abandon("conflict lost during strengthening")
        if s == INITIAL_STATE:
            # The walk starts at the global bounds: C is globally infeasible.
            return result("global_infeasibility")
        asserting_at = is_asserting(C_learn, trail, conflict_level)
        if asserting_at is not None:
            return result(
                "learned",
                learned=C_learn.with_origin(f"learned:{strategy.value}"),
                backjump_target=asserting_at,
                conflicting_state=s,
            )
        if s.level == 0:
            # Conflicts with globally valid root deductions: no feasible
            # point exists.
            return result("global_infeasibility", conflicting_state=s)
        if prev_state is not None and s >= prev_state:
            return abandon("no progress in the backward walk")
        prev_state = s
        ch = trail.change_at(s)
        if ch.is_decision:
            # A decision state can only be minimal if the constraint
            # propagates at its predecessor, which the asserting check
            # would have caught.
            return abandon("minimal infeasible state is a decision")
        if not isinstance(ch.reason, RowReason):
            return abandon("reason is a bound disjunction")
        C_reason = ch.reason.row
        used.add(ch.reason.index)
        r = ch.var
        lb, ub = trail.bounds_at(s)
        try:
            if is_tight_propagation(ch, trail):
                reduced = C_reason
                action = "tight"
            elif variables[r].kind is VarKind.BINARY:
                action = strategy.value
                if any(
                    variables[j].kind is VarKind.CONTINUOUS
                    for j, _ in C_reason.terms
                ):
                    C_reason = reduce_mbp(C_reason, trail, s, used)
                    if isinstance(C_reason, EarlierConflict):
                        C_learn = _strengthen(C_reason.constraint, variables)
                        step(s, r, "earlier-conflict")
                        continue
                    action = "mbp"
                reduced = reduce_reason(
                    strategy, C_reason, C_learn, r, variables, lb, ub
                )
            else:
                # A general integer: continuous propagations are always tight.
                reduced = resolve_general_integer(
                    C_reason, C_learn, r, variables, lb, ub
                )
                action = "int-resolve" if reduced is C_reason else "separation-cut"
        except ReductionError as exc:
            return abandon(str(exc), conflicting_state=s)
        try:
            C_learn = resolve(C_learn, reduced, r)
        except CutError as exc:
            return abandon(str(exc), conflicting_state=s)
        if action == "tight":
            # A tightly propagating reason guarantees the plain resolvent is
            # itself infeasible at the resolved state; check it.
            assert infeasible_over(C_learn, lb, ub), (
                f"resolvent feasible at {s} after tight resolution on x{r}"
            )
        C_learn = _strengthen(C_learn, variables)
        step(s, r, action)


def _strengthen(C: LinearConstraint, variables: Sequence[Variable]) -> LinearConstraint:
    # coef_tighten refuses a globally redundant C (global min activity >= rhs).
    try:
        return coef_tighten(C, variables)
    except CutError:
        return C


# -- graph fallback -----------------------------------------------------------


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


def graph_fallback(
    trail: Trail, conflict: Union[LinearConstraint, BoundDisjunction]
) -> AnalysisResult:
    """Single-FUIP analysis over bound changes.

    One walk over the implication graph: the changes that falsify the
    conflict's literals are reached first, and a continuous change is
    expanded through its reason as soon as it is reached.  Integral changes
    at the conflict level stay open, and the latest open one is expanded
    while more than one is; root-level changes hold in every subproblem and
    are dropped.  The learned object negates the sources left, as a clause
    row when they are all binary and as a bound disjunction otherwise.
    """
    variables = trail.variables
    state = trail.current_state
    level = state.level
    if level == 0:
        return AnalysisResult("global_infeasibility")
    used: Set[int] = set()
    seen: Set[StateId] = set()
    # Integral sources by state: at the conflict level, and at levels 1 to L-1.
    open_here: Dict[StateId, BoundChange] = {}
    earlier: Dict[StateId, BoundChange] = {}

    def reasons(ch: BoundChange) -> List[BoundChange]:
        """The changes that made ``ch``'s reason imply it."""
        if isinstance(ch.reason, RowReason):
            used.add(ch.reason.index)
            reason = ch.reason.row
        else:
            reason = ch.reason.disjunction
        s = ch.state
        return _reason_sources(trail, reason, StateId(s.level, s.index - 1), ch)

    def reach(stack: List[BoundChange]) -> None:
        while stack:
            ch = stack.pop()
            if ch.state in seen:
                continue
            seen.add(ch.state)
            if variables[ch.var].kind is VarKind.CONTINUOUS:
                if ch.reason is None:
                    raise ValueError("continuous decision on the trail")
                stack.extend(reasons(ch))
            elif ch.state.level == level:
                open_here[ch.state] = ch
            elif ch.state.level > 0:
                earlier[ch.state] = ch

    reach(_reason_sources(trail, conflict, state))
    iterations = 0
    while len(open_here) > 1:
        ch = open_here.pop(max(open_here))
        if ch.is_decision:
            # The decision sits at index 0, so it cannot be the latest of
            # two open changes at its own level.
            raise AssertionError("decision dominated a later change")
        reach(reasons(ch))
        iterations += 1
    sources = [earlier[s] for s in sorted(earlier)] + list(open_here.values())
    if not sources:
        return AnalysisResult("global_infeasibility")
    # The negations in state order; the latest change on a bound dominates
    # the earlier ones, so its (weakest) negation replaces theirs.
    negated: Dict[Tuple[int, BoundKind], BoundAtom] = {}
    for ch in sources:
        if ch.kind is BoundKind.LOWER:
            atom = BoundAtom(ch.var, BoundKind.UPPER, ch.new_value - 1)
        else:
            atom = BoundAtom(ch.var, BoundKind.LOWER, ch.new_value + 1)
        negated.pop((atom.var, atom.kind), None)
        negated[atom.var, atom.kind] = atom
    atoms = list(negated.values())
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
    # The object becomes unit after the latest source below the conflict level.
    return AnalysisResult(
        "learned",
        learned,
        backjump_target=max(earlier, default=INITIAL_STATE),
        iterations=iterations,
        conflicting_state=state,
        used_row_indices=tuple(sorted(used)),
    )
