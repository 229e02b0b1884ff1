"""Shared builders for the test suite, and the checked extended arithmetic
and activity sums that the reference implementations use."""

from fractions import Fraction
from typing import Optional

import pytest

from cutlearn.model import (
    BoundKind,
    LinearConstraint,
    Problem,
    Variable,
    VarKind,
    build_problem,
)
from cutlearn.rationals import INF, NEG_INF, ZERO, Ext, Rat, is_finite
from cutlearn.trail import INITIAL_STATE, BoundChange, StateId, Trail

F = Fraction


# -- a trail's bounds at the current or an earlier state ---------------------


def box(trail: Trail, state: Optional[StateId] = None):
    """(variables, lb, ub) at ``state`` (default: the current state), the
    arguments the reductions and ``propagate_candidates`` take after the row."""
    if state is None:
        return trail.variables, trail.local_lb, trail.local_ub
    return (trail.variables, *trail.bounds_at(state))


def reference_max_activity(C: LinearConstraint, lb, ub) -> Ext:
    """C's max activity over [lb, ub], INF if unbounded: a plain sum of
    a_j times the maximizing bound in C's own Fractions, with the checked
    extended arithmetic."""
    total = ZERO
    for j, a in C.terms:
        total = ext_add(total, ext_mul(a, ub[j] if a > 0 else lb[j]))
    return total


def max_activity(C: LinearConstraint, trail: Trail, state: Optional[StateId] = None) -> Ext:
    _, lb, ub = box(trail, state)
    return reference_max_activity(C, lb, ub)


def infeasible_at(
    C: LinearConstraint, trail: Trail, state: Optional[StateId] = None
) -> bool:
    return max_activity(C, trail, state) < C.rhs


def global_min_activity(C: LinearConstraint, variables) -> Ext:
    """C's min activity at the global bounds, NEG_INF if unbounded: a plain
    sum of a_j times the minimizing global bound in C's own Fractions, with
    the checked extended arithmetic."""
    total = ZERO
    for j, a in C.terms:
        v = variables[j]
        total = ext_add(total, ext_mul(a, v.global_lb if a > 0 else v.global_ub))
    return total


# -- whole-trail scans the trail's history queries are tested against --------


def reference_predecessor(trail: Trail, state: StateId) -> StateId:
    """The state of the change just before the change at ``state`` on the
    trail, INITIAL_STATE if there is none."""
    prev = INITIAL_STATE
    for ch in trail.changes:
        if ch.state == state:
            return prev
        prev = ch.state
    raise KeyError(f"no change at state {state}")


def reference_latest_change(
    trail: Trail, var: int, kind: BoundKind, upto: Optional[StateId] = None
) -> Optional[BoundChange]:
    """x_var's latest ``kind`` change at or before ``upto``, by a scan of
    the whole trail from its end."""
    for ch in reversed(trail.changes):
        if upto is not None and ch.state > upto:
            continue
        if ch.var == var and ch.kind is kind:
            return ch
    return None


# -- checked extended arithmetic for reference implementations ----------------
#
# The solver never adds or multiplies an infinity.  The reference
# implementations in the tests sum over infinite bounds freely, so they go
# through these helpers, which raise on the indeterminate forms instead of
# producing nan.


class InfinityArithmeticError(ArithmeticError):
    """Raised for indeterminate forms such as inf - inf or 0 * inf."""


def ext_add(a: Ext, b: Ext) -> Ext:
    if not (is_finite(a) and is_finite(b)):
        if not is_finite(a) and not is_finite(b) and a != b:
            raise InfinityArithmeticError("inf - inf")
        return b if is_finite(a) else a
    return a + b


def ext_neg(a: Ext) -> Ext:
    if a == INF:
        return NEG_INF
    if a == NEG_INF:
        return INF
    return -a


def ext_mul(a: Rat, b: Ext) -> Ext:
    """Multiply a finite rational by an extended value."""
    if not is_finite(b):
        if a == 0:
            raise InfinityArithmeticError("0 * inf")
        return b if a > 0 else ext_neg(b)
    return a * b


def binary_vars(n, start=0):
    return [
        Variable(i, f"x{i + 1}", VarKind.BINARY, F(0), F(1))
        for i in range(start, start + n)
    ]


def mk(terms, rhs):
    return LinearConstraint.from_dict(
        {j: F(c) for j, c in terms.items()}, F(rhs)
    )


def binary_problem(n, rows, objective=None):
    """rows: list of ({var: coef}, rhs) in >= form."""
    cons = [({j: F(c) for j, c in t.items()}, ">=", F(r)) for t, r in rows]
    obj = None
    if objective is not None:
        obj = {j: F(c) for j, c in objective.items()}
    return build_problem(binary_vars(n), cons, obj)


def mbp5_system():
    """Five-constraint mixed-binary system: three binaries, two boxed
    continuous variables; branching x2 <= 0 propagates into a conflict."""
    vs = [
        Variable(0, "x1", VarKind.BINARY, F(0), F(1)),
        Variable(1, "x2", VarKind.BINARY, F(0), F(1)),
        Variable(2, "x3", VarKind.BINARY, F(0), F(1)),
        Variable(3, "y1", VarKind.CONTINUOUS, F(0), F(1)),
        Variable(4, "y2", VarKind.CONTINUOUS, F(-1), F(1)),
    ]
    rows = [
        mk({0: -2, 3: -4, 4: -2}, -3),
        mk({0: 20, 3: 5, 4: -1}, 4),
        mk({0: -20, 3: 5, 4: -10}, -16),
        mk({4: -1, 1: -1}, 0),
        mk({4: 1, 2: -1}, 0),
    ]
    return vs, rows


def separation_instance():
    """General integer z in [0,5] plus one binary; the conflict needs the
    rounding cut z + x >= 2 to resolve z."""
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]
    reason = mk({0: 2, 1: 1}, 3)
    confl = mk({0: -2, 1: 1}, -3)
    return vs, reason, confl


def fallback_problem(objective=True):
    """Two general integers where the rounding-cut separation fails.

    The reason 2z + w >= 4 propagates z >= 2 from w <= 1 with fractional
    pre-rounding 3/2; the plain resolvent stays feasible, and the shifted
    reason has an integral right-hand side so no rounding cut exists.
    Analysis must fall back to a learned bound disjunction.
    """
    vs = [
        Variable(0, "w", VarKind.INTEGER, F(0), F(4)),
        Variable(1, "z", VarKind.INTEGER, F(1), F(3)),
    ]
    rows = [
        ({1: F(2), 0: F(1)}, ">=", F(4)),
        ({1: F(-2), 0: F(1)}, ">=", F(-5, 2)),
    ]
    obj = {0: F(1), 1: F(1)} if objective else None
    return build_problem(vs, rows, obj)


@pytest.fixture
def mbp5():
    return mbp5_system()
