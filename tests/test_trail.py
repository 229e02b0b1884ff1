"""Trail mechanics: states, bound queries, backjumps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.model import BoundAtom, BoundDisjunction, BoundKind, Variable, VarKind
from cutlearn.rationals import INF, int_if_integral
from cutlearn.trail import (
    INITIAL_STATE,
    DisjunctionReason,
    RowReason,
    StateId,
    Trail,
)

from conftest import (
    F,
    binary_vars,
    infeasible_at,
    max_activity,
    mk,
    reference_latest_change,
    reference_predecessor,
)


def test_state_ids_order_lexicographically():
    assert StateId(0, -1) < StateId(0, 0) < StateId(0, 5) < StateId(1, 0)
    assert INITIAL_STATE == StateId(0, -1)


def test_decision_and_deduction_numbering():
    t = Trail(binary_vars(3))
    assert t.current_state == INITIAL_STATE
    C = mk({0: 1, 1: 1}, 1)
    s0 = t.push_deduction(2, BoundKind.UPPER, 0, RowReason(0, C))
    assert s0 == StateId(0, 0)
    s1 = t.push_decision(0, BoundKind.LOWER, 1)
    assert s1 == StateId(1, 0)
    s2 = t.push_deduction(1, BoundKind.UPPER, 0, RowReason(0, C))
    assert s2 == StateId(1, 1)
    assert t.change_at(s1).is_decision
    # The state just before (L, i) is (L, i - 1); for i = 0 that is
    # (L, -1), after every lower level's change and before level L's.
    assert StateId(s2.level, s2.index - 1) == s1
    assert StateId(s0.level, s0.index - 1) == INITIAL_STATE
    assert s0 < StateId(s1.level, s1.index - 1) < s1


def test_tightening_enforced():
    t = Trail(binary_vars(2))
    t.push_decision(0, BoundKind.UPPER, 0)
    with pytest.raises(ValueError):
        t.push_decision(0, BoundKind.UPPER, 0)  # does not tighten
    with pytest.raises(ValueError):
        t.push_decision(1, BoundKind.LOWER, F(1, 2))  # fractional for binary
    with pytest.raises(ValueError):
        t.push_deduction(1, BoundKind.LOWER, 1, None)  # deduction needs reason


@pytest.mark.parametrize("value", [1.0, 0.5, INF])
def test_push_refuses_values_that_are_not_int_or_fraction(value):
    vs = [
        Variable(0, "z", VarKind.INTEGER, 0, 5),
        Variable(1, "y", VarKind.CONTINUOUS, 0, 5),
    ]
    t = Trail(vs)
    with pytest.raises(ValueError, match="variable 'z'"):
        t.push_decision(0, BoundKind.LOWER, value)
    with pytest.raises(ValueError, match="variable 'y'"):
        t.push_deduction(1, BoundKind.LOWER, value, RowReason(0, mk({1: 1}, 1)))
    assert not t.changes


def test_bounds_at_reconstructs_history():
    t = Trail(binary_vars(2))
    s1 = t.push_decision(0, BoundKind.UPPER, 0)
    s2 = t.push_decision(1, BoundKind.LOWER, 1)
    lb, ub = t.bounds_at(INITIAL_STATE)
    assert (lb, ub) == ([F(0), F(0)], [F(1), F(1)])
    lb, ub = t.bounds_at(s1)
    assert ub[0] == 0 and lb[1] == 0
    lb, ub = t.bounds_at(s2)
    assert ub[0] == 0 and lb[1] == 1


def test_backjump_restores_bounds():
    t = Trail(binary_vars(3))
    s1 = t.push_decision(0, BoundKind.UPPER, 0)
    t.push_decision(1, BoundKind.UPPER, 0)
    t.push_decision(2, BoundKind.LOWER, 1)
    t.backjump(s1)
    assert t.current_state == s1
    assert t.local_ub == [F(0), F(1), F(1)]
    assert t.local_lb == [F(0), F(0), F(0)]
    t.backjump(INITIAL_STATE)
    assert not t.changes
    with pytest.raises(ValueError):
        t.backjump(StateId(4, 0))


@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=8))
def test_push_backjump_roundtrip(moves):
    """Any prefix of decisions can be undone back to a recorded state and
    the local bounds then match a fresh replay of that prefix."""
    t = Trail(binary_vars(5))
    recorded = [(INITIAL_STATE, list(t.local_lb), list(t.local_ub))]
    for var, up in moves:
        kind = BoundKind.UPPER if up else BoundKind.LOWER
        value = 0 if up else 1
        try:
            s = t.push_decision(var, kind, value)
        except ValueError:
            continue
        recorded.append((s, list(t.local_lb), list(t.local_ub)))
    for state, lb, ub in reversed(recorded):
        t.backjump(state)
        assert t.local_lb == lb
        assert t.local_ub == ub


# -- history queries against whole-trail scans --------------------------------

HISTORY_VARS = [
    Variable(0, "x", VarKind.BINARY, 0, 1),
    Variable(1, "z", VarKind.INTEGER, -3, 3),
    Variable(2, "y", VarKind.CONTINUOUS, -2, 2),
    Variable(3, "w", VarKind.BINARY, 0, 1),
]
HISTORY_ROW = mk({0: 1, 1: 1, 2: 1, 3: 1}, 0)
HISTORY_DISJUNCTION = BoundDisjunction(
    (BoundAtom(0, BoundKind.LOWER, 1), BoundAtom(3, BoundKind.LOWER, 1))
)


def _replay(changes):
    """A fresh trail over HISTORY_VARS with ``changes`` pushed in order."""
    t = Trail(HISTORY_VARS)
    for ch in changes:
        if ch.is_decision:
            t.push_decision(ch.var, ch.kind, ch.new_value)
        else:
            t.push_deduction(ch.var, ch.kind, ch.new_value, ch.reason, ch.pre_rounding)
    return t


def _draw_push(data, t):
    """Push one tightening decision or deduction drawn from the values
    k/2, k in -4..4, that keep the variable's domain nonempty."""
    j = data.draw(st.integers(0, len(HISTORY_VARS) - 1))
    v, lo, hi = HISTORY_VARS[j], t.local_lb[j], t.local_ub[j]
    kind = data.draw(st.sampled_from(list(BoundKind)))
    values = [
        F(k, 2)
        for k in range(-4, 5)
        if (lo < F(k, 2) <= hi if kind is BoundKind.LOWER else lo <= F(k, 2) < hi)
        and (not v.is_integral or k % 2 == 0)
    ]
    if not values:
        return
    value = data.draw(st.sampled_from(values))
    if data.draw(st.booleans()):
        value = int_if_integral(value)
    if v.is_integral and data.draw(st.booleans()):
        t.push_decision(j, kind, value)
    elif data.draw(st.booleans()):
        t.push_deduction(j, kind, value, RowReason(0, HISTORY_ROW), value)
    else:
        t.push_deduction(j, kind, value, DisjunctionReason(0, HISTORY_DISJUNCTION))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_history_queries_match_whole_trail_scans(data):
    """Over pushes and backjumps on binary, general-integer and continuous
    variables, ``latest_change``, which follows x_var's own changes through
    the stamps, finds the change a scan of the whole trail finds.  At
    (L, i - 1), the arithmetic state before (L, i), ``bounds_at``,
    ``latest_change`` and ``backjump`` agree with the same calls at the
    predecessor a trail scan finds, and a backjump to (L, -1) leaves
    exactly the changes of the levels below L."""
    t = Trail(HISTORY_VARS)
    queries = [(j, kind) for j in range(len(HISTORY_VARS)) for kind in BoundKind]
    for _ in range(data.draw(st.integers(1, 20))):
        if data.draw(st.integers(0, 3)) == 0:
            levels = range(1, t.current_level + 1)
            targets = [INITIAL_STATE] + [ch.state for ch in t.changes]
            t.backjump(data.draw(st.sampled_from(targets + [StateId(L, -1) for L in levels])))
        else:
            _draw_push(data, t)
        uptos = [None, INITIAL_STATE] + [ch.state for ch in t.changes]
        uptos += [StateId(L, -1) for L in range(t.current_level + 2)]
        for upto in uptos:
            for j, kind in queries:
                assert t.latest_change(j, kind, upto) is reference_latest_change(
                    t, j, kind, upto
                )

    for ch in t.changes:
        s = ch.state
        before, pred = StateId(s.level, s.index - 1), reference_predecessor(t, s)
        assert t.bounds_at(before) == t.bounds_at(pred)
        for j, kind in queries:
            assert t.latest_change(j, kind, before) is t.latest_change(j, kind, pred)
        a, b = _replay(t.changes), _replay(t.changes)
        a.backjump(before)
        b.backjump(pred)
        assert a.changes == b.changes and a.stamp == b.stamp
        assert (a.local_lb, a.local_ub) == (b.local_lb, b.local_ub)
    for L in range(t.current_level + 1):
        a = _replay(t.changes)
        a.backjump(StateId(L, -1))
        assert a.changes == [ch for ch in t.changes if ch.state.level < L]
        assert (a.local_lb, a.local_ub) == t.bounds_at(StateId(L, -1))


def test_activity_bounds():
    t = Trail(binary_vars(3))
    C = mk({0: 2, 1: -3, 2: 1}, 0)
    assert max_activity(C, t) == 3
    s = t.push_decision(0, BoundKind.UPPER, 0)
    assert max_activity(C, t) == 1
    assert max_activity(C, t, INITIAL_STATE) == 3
    assert max_activity(C, t, s) == 1


def test_max_activity_monotone_along_trail():
    t = Trail(binary_vars(4))
    C = mk({0: 1, 1: 2, 2: -1, 3: 3}, 2)
    prev = max_activity(C, t, INITIAL_STATE)
    for var, kind, val in [
        (0, BoundKind.UPPER, 0),
        (2, BoundKind.LOWER, 1),
        (3, BoundKind.UPPER, 0),
    ]:
        s = t.push_decision(var, kind, val)
        cur = max_activity(C, t, s)
        assert cur <= prev
        prev = cur


def test_infeasible_at():
    t = Trail(binary_vars(2))
    C = mk({0: 1, 1: 1}, 2)
    s = t.push_decision(0, BoundKind.UPPER, 0)
    assert not infeasible_at(C, t, INITIAL_STATE)
    assert infeasible_at(C, t, s)


def test_reimported_modules_are_freed():
    """A fresh import of the package leaves nothing alive once dropped: no
    module-level ``typing`` alias over the package's classes keeps a copy
    of them in typing's cache."""
    import gc
    import importlib
    import sys
    import weakref

    def ours():
        return [n for n in sys.modules if n == "cutlearn" or n.startswith("cutlearn.")]

    loaded = {name: sys.modules.pop(name) for name in ours()}
    try:
        search = importlib.import_module("cutlearn.search")
        trail = sys.modules["cutlearn.trail"]
        assert trail.RowReason is not RowReason
        refs = [weakref.ref(trail.RowReason), weakref.ref(search.LinearConstraint)]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(loaded)
    del search, trail
    gc.collect()
    assert [r() for r in refs] == [None, None]


# -- stable rows ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_stable_iff_no_change_on_the_row_since_its_surviving_mark(data):
    """A mark survives until a backjump undoes a change made before it, and
    then the index's previous surviving mark is back.  ``is_stable`` holds
    iff the index's latest surviving mark is for this row and no change
    after it is on the row's variables; the row's bounds are then those at
    the mark."""
    t = Trail(binary_vars(4))
    rows = [mk({0: 1, 1: 1}, 1), mk({1: 1, 2: -1}, 0), mk({2: 1, 3: 1}, 1)]
    marks = []  # (index, row, changes at the mark, the row's bounds then)

    def bounds(row):
        return [(t.local_lb[j], t.local_ub[j]) for j, _ in row.terms]

    for _ in range(data.draw(st.integers(1, 25))):
        step = data.draw(st.sampled_from(["push", "backjump", "mark"]))
        if step == "push":
            free = [j for j in range(4) if t.local_lb[j] < t.local_ub[j]]
            if free:
                j = data.draw(st.sampled_from(free))
                kind = data.draw(st.sampled_from(list(BoundKind)))
                value = 1 if kind is BoundKind.LOWER else 0
                if data.draw(st.booleans()):
                    t.push_decision(j, kind, value)
                else:
                    t.push_deduction(j, kind, value, RowReason(0, rows[0]))
        elif step == "backjump":
            targets = [INITIAL_STATE] + [ch.state for ch in t.changes]
            t.backjump(data.draw(st.sampled_from(targets)))
        else:
            i = data.draw(st.integers(0, 1))
            row = data.draw(st.sampled_from(rows))
            t.mark_stable(i, row)
            marks.append((i, row, list(t.changes), bounds(row)))
        for i in range(2):
            surviving = [
                m for m in marks
                if m[0] == i
                and len(m[2]) <= len(t.changes)
                and all(a is b for a, b in zip(m[2], t.changes))
            ]
            for row in rows:
                want = bool(surviving) and surviving[-1][1] is row and not any(
                    row.coef(ch.var) for ch in t.changes[len(surviving[-1][2]):]
                )
                assert t.is_stable(i, row) == want
                if want:
                    assert bounds(row) == surviving[-1][3]
