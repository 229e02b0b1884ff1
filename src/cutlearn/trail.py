"""Ordered record of decisions and deductions with per-state local bounds.

States are identified by (decision level, within-level change index); the
state before any change is ``INITIAL_STATE`` = (0, -1).  Index 0 at each
level > 0 is the branching decision; root-level deductions start at (0, 0).
States order as tuples, and the state just before (L, i) is (L, i - 1): for
i = 0 that is (L, -1), which sorts after every change of a lower level and
before level L's first change, so bound queries and backjumps at it see
exactly the changes before (L, 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .model import BoundDisjunction, BoundKind, LinearConstraint, Variable, VarKind
from .rationals import Ext, Rat, format_ext, int_if_integral, is_integral


class StateId(NamedTuple):
    level: int
    index: int


INITIAL_STATE = StateId(0, -1)


class RowReason(NamedTuple):
    index: int
    row: LinearConstraint


class DisjunctionReason(NamedTuple):
    index: int
    disjunction: BoundDisjunction


# None = branching decision.  A ``typing.Union`` here would be kept in typing's
# cache, and with it every re-imported copy of this module.
Reason = RowReason | DisjunctionReason | None


class BoundChange(NamedTuple):
    state: StateId
    var: int
    kind: BoundKind
    new_value: Rat
    old_value: Ext
    reason: Reason
    # Propagated value before integer rounding; None for decisions.
    pre_rounding: Optional[Rat] = None

    @property
    def is_decision(self) -> bool:
        return self.reason is None


class Trail:
    """Root-to-node path of bound changes over a fixed variable set.

    A pushed value is stored as an ``int`` when it is integral, as are
    ``Variable`` bounds, so every integral finite value in the local bound
    vectors and in each change's ``new_value`` and ``old_value`` is an
    ``int``."""

    def __init__(self, variables: Sequence[Variable]):
        self.variables = tuple(variables)
        self.local_lb: List[Ext] = [v.global_lb for v in variables]
        self.local_ub: List[Ext] = [v.global_ub for v in variables]
        self.changes: List[BoundChange] = []
        # ``stamp`` and ``prior_stamps`` are each variable's change history:
        # ``stamp[j]`` is the trail length just after x_j's latest change on
        # the trail, 0 if it has none, and ``prior_stamps[k]`` is the stamp
        # that ``changes[k]`` replaced, which a backjump puts back, so
        # following them from ``stamp[j]`` visits x_j's changes newest first.
        # ``latest_change`` and the stable-row test read them.  ``stable_rows``
        # maps a row index to the row and the trail length at which
        # propagation last found that row implying nothing; ``stable_log``
        # holds, for every such mark, the trail length, the index and the
        # entry it replaced, so a backjump can drop the marks made after its
        # earliest undone change.  An entry then always describes the
        # current trail's prefix of that length, and a row is stable iff
        # none of its variables has a stamp past that length.
        self.stamp: List[int] = [0] * len(self.variables)
        self.prior_stamps: List[int] = []
        self.stable_rows: Dict[int, Tuple[LinearConstraint, int]] = {}
        self.stable_log: List[Tuple[int, int, Optional[Tuple[LinearConstraint, int]]]] = []

    # -- state bookkeeping ------------------------------------------------

    @property
    def current_state(self) -> StateId:
        return self.changes[-1].state if self.changes else INITIAL_STATE

    @property
    def current_level(self) -> int:
        return self.current_state.level

    def change_at(self, state: StateId) -> BoundChange:
        for ch in reversed(self.changes):
            if ch.state == state:
                return ch
        raise KeyError(f"no change at state {state}")

    # -- mutation ----------------------------------------------------------

    def _next_state(self, decision: bool) -> StateId:
        cur = self.current_state
        if decision:
            return StateId(cur.level + 1, 0)
        return StateId(cur.level, cur.index + 1)

    def _apply(self, change: BoundChange) -> None:
        j = change.var
        if change.kind is BoundKind.LOWER:
            self.local_lb[j] = change.new_value
        else:
            self.local_ub[j] = change.new_value
        self.prior_stamps.append(self.stamp[j])
        self.changes.append(change)
        self.stamp[j] = len(self.changes)

    def _exact(self, var: int, value: Rat) -> Rat:
        """``value`` as an ``int`` when integral; ValueError unless it is an
        ``int`` or a ``Fraction``."""
        if not isinstance(value, (int, Fraction)):
            raise ValueError(
                f"variable {self.variables[var].name!r} gets bound {value!r}; "
                "bounds must be exact (int or Fraction)"
            )
        return int_if_integral(value)

    def _check_tightens(self, var: int, kind: BoundKind, value: Rat) -> Ext:
        if kind is BoundKind.LOWER:
            old = self.local_lb[var]
            if value <= old:
                raise ValueError(
                    f"lower bound {value} does not tighten {format_ext(old)} for x{var}"
                )
        else:
            old = self.local_ub[var]
            if value >= old:
                raise ValueError(
                    f"upper bound {value} does not tighten {format_ext(old)} for x{var}"
                )
        v = self.variables[var]
        if v.is_integral and not is_integral(value):
            raise ValueError(f"fractional bound {value} for integral variable x{var}")
        return old

    def push_decision(self, var: int, kind: BoundKind, value: Rat) -> StateId:
        if self.variables[var].kind is VarKind.CONTINUOUS:
            raise ValueError("branching on a continuous variable is not allowed")
        value = self._exact(var, value)
        old = self._check_tightens(var, kind, value)
        state = self._next_state(decision=True)
        self._apply(BoundChange(state, var, kind, value, old, None))
        return state

    def push_deduction(
        self,
        var: int,
        kind: BoundKind,
        value: Rat,
        reason: Reason,
        pre_rounding: Optional[Rat] = None,
    ) -> StateId:
        if reason is None:
            raise ValueError("deduction requires a reason")
        value = self._exact(var, value)
        old = self._check_tightens(var, kind, value)
        state = self._next_state(decision=False)
        self._apply(
            BoundChange(state, var, kind, value, old, reason, pre_rounding)
        )
        return state

    def backjump(self, target: StateId) -> None:
        if target > self.current_state:
            raise ValueError(f"backjump target {target} beyond current state")
        while self.changes and self.changes[-1].state > target:
            ch = self.changes.pop()
            if ch.kind is BoundKind.LOWER:
                self.local_lb[ch.var] = ch.old_value
            else:
                self.local_ub[ch.var] = ch.old_value
            self.stamp[ch.var] = self.prior_stamps.pop()
        length = len(self.changes)
        log, stable = self.stable_log, self.stable_rows
        while log and log[-1][0] > length:
            _, index, replaced = log.pop()
            if replaced is None:
                del stable[index]
            else:
                stable[index] = replaced

    # -- stable rows ---------------------------------------------------------

    def mark_stable(self, index: int, row: LinearConstraint) -> None:
        """Record that ``row``, at ``index``, implies nothing at current bounds."""
        length = len(self.changes)
        self.stable_log.append((length, index, self.stable_rows.get(index)))
        self.stable_rows[index] = (row, length)

    def is_stable(self, index: int, row: LinearConstraint) -> bool:
        """True iff ``row`` was marked stable at ``index`` and no bound of its
        variables differs from when it was marked, so it still implies
        nothing."""
        entry = self.stable_rows.get(index)
        if entry is None or entry[0] is not row:
            return False
        stamp, since = self.stamp, entry[1]
        for j, _ in row.terms:
            if stamp[j] > since:
                return False
        return True

    # -- bound queries -----------------------------------------------------

    def bounds_at(self, state: StateId) -> Tuple[List[Ext], List[Ext]]:
        """Local bound vectors as they were at (inclusive) the given state."""
        lb = list(self.local_lb)
        ub = list(self.local_ub)
        for ch in reversed(self.changes):
            if ch.state <= state:
                break
            if ch.kind is BoundKind.LOWER:
                lb[ch.var] = ch.old_value
            else:
                ub[ch.var] = ch.old_value
        return lb, ub

    def latest_change(
        self, var: int, kind: BoundKind, upto: Optional[StateId] = None
    ) -> Optional[BoundChange]:
        """x_var's latest ``kind`` change, at or before ``upto`` if given;
        visits only x_var's own changes, newest first."""
        changes, prior = self.changes, self.prior_stamps
        k = self.stamp[var]
        while k:
            ch = changes[k - 1]
            if ch.kind is kind and (upto is None or ch.state <= upto):
                return ch
            k = prior[k - 1]
        return None

