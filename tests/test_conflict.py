"""Conflict analysis: backward resolution, continuous elimination, fallbacks."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.conflict import (
    EarlierConflict,
    _ActivityWalk,
    _strengthen,
    analyze,
    graph_fallback,
    is_asserting,
    min_infeasible_state,
    reduce_mbp,
    resolve_general_integer,
)
from cutlearn.cuts import (
    ReductionError,
    ReductionStrategy,
    coef_tighten,
    reduce_reason,
    resolve,
)
from cutlearn.model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Variable,
    VarKind,
    build_problem,
    global_contributions,
)
from cutlearn.oracle import validate_learned
from cutlearn.propagation import propagate_fixpoint
from cutlearn.rationals import (
    INF,
    NEG_INF,
    ZERO,
    is_finite,
)
from cutlearn.trail import (
    INITIAL_STATE,
    DisjunctionReason,
    RowReason,
    StateId,
    Trail,
)

import fallback_reference as fallback_ref
from conftest import (
    F,
    binary_vars,
    box,
    ext_add,
    ext_mul,
    global_min_activity,
    max_activity,
    mbp5_system,
    mk,
    reference_max_activity,
)


# -- helper state queries -----------------------------------------------------


def test_min_infeasible_state():
    t = Trail(binary_vars(2))
    t.push_decision(0, BoundKind.UPPER, 0)
    t.push_decision(1, BoundKind.UPPER, 0)
    assert min_infeasible_state(mk({0: 1}, 1), t) == StateId(1, 0)
    assert min_infeasible_state(mk({0: 1, 1: 1}, 1), t) == StateId(2, 0)
    assert min_infeasible_state(mk({0: 1}, 0), t) is None


def test_is_asserting_picks_earliest_state():
    C = mk({0: 1}, 1)
    t = Trail(binary_vars(2))
    t.push_decision(1, BoundKind.UPPER, 0)
    # C would already deduce x1 >= 1 at the root
    assert is_asserting(C, t, 1) == INITIAL_STATE


def test_is_asserting_ignores_stale_propagation():
    """A constraint whose deduction is already on the trail at the end of a
    level is not asserting there: backjumping would relearn nothing."""
    C = mk({0: 1}, 1)
    t = Trail(binary_vars(2))
    t.push_deduction(0, BoundKind.LOWER, 1, RowReason(0, C))
    t.push_decision(1, BoundKind.UPPER, 0)
    assert is_asserting(C, t, 1) is None


def test_is_asserting_sees_root_even_with_later_deduction():
    """The same deduction made inside a deeper level does not block the root:
    moving it to level 0 is progress."""
    C = mk({0: 1}, 1)
    t = Trail(binary_vars(3))
    t.push_decision(2, BoundKind.UPPER, 0)
    t.push_deduction(0, BoundKind.LOWER, 1, RowReason(0, C))
    assert is_asserting(C, t, 2) == INITIAL_STATE


def _stale_then_asserting():
    """y >= z over y, z in [0,5]: z >= 2 makes the row deduce y >= 2 at
    (1,0) and the deduction (1,1) makes that stale, but y <= 4 at level 2
    lets the row tighten z again."""
    vs = [
        Variable(0, "y", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(2, "x", VarKind.BINARY, F(0), F(1)),
    ]
    C = mk({0: 1, 1: -1}, 0)
    t = Trail(vs)
    t.push_decision(1, BoundKind.LOWER, 2)
    t.push_deduction(0, BoundKind.LOWER, 2, RowReason(0, C))
    t.push_decision(0, BoundKind.UPPER, 4)
    t.push_decision(2, BoundKind.UPPER, 0)
    return C, t, 3


def test_is_asserting_returns_stale_first_state_when_a_later_level_asserts():
    """Some level end asserts, so the answer is the first propagating
    state, stale or not."""
    C, t, _ = _stale_then_asserting()
    assert is_asserting(C, t, 3) == StateId(1, 0)
    assert is_asserting(C, t, 2) is None
    assert _reference_is_asserting(C, t, 3) == StateId(1, 0)
    assert _reference_is_asserting(C, t, 2) is None


# -- reference equivalence ----------------------------------------------------
#
# The state queries as they were before the incremental trail walk: rebuild
# the bound vectors at every state and rescan the whole row per term.


def _reference_scan_states(trail):
    lb = [v.global_lb for v in trail.variables]
    ub = [v.global_ub for v in trail.variables]
    yield INITIAL_STATE, lb, ub
    for ch in trail.changes:
        if ch.kind is BoundKind.LOWER:
            lb[ch.var] = ch.new_value
        else:
            ub[ch.var] = ch.new_value
        yield ch.state, lb, ub


def _reference_min_infeasible_state(C, trail):
    for state, lb, ub in _reference_scan_states(trail):
        if reference_max_activity(C, lb, ub) < C.rhs:
            return state
    return None


def _reference_residual_max(C, skip, lb, ub):
    total = ZERO
    for j, a in C.terms:
        if j != skip:
            total = ext_add(total, ext_mul(a, ub[j]) if a > 0 else ext_mul(a, lb[j]))
    return total


def _reference_propagates_under(C, trail, lb, ub):
    if reference_max_activity(C, lb, ub) < C.rhs:
        return False
    for j, a in C.terms:
        residual = _reference_residual_max(C, j, lb, ub)
        if not is_finite(residual):
            continue
        pre = (C.rhs - residual) / a
        var = trail.variables[j]
        if a > 0:
            value = math.ceil(pre) if var.is_integral else pre
            if value > lb[j]:
                return True
        else:
            value = math.floor(pre) if var.is_integral else pre
            if value < ub[j]:
                return True
    return False


def _reference_is_asserting(C, trail, conflict_level=None):
    if conflict_level is None:
        conflict_level = trail.current_level
    level_end = {}
    for state, lb, ub in _reference_scan_states(trail):
        if state.level >= conflict_level:
            break
        level_end[state.level] = (list(lb), list(ub))
    target_level = None
    for level in sorted(level_end):
        lb, ub = level_end[level]
        if _reference_propagates_under(C, trail, lb, ub):
            target_level = level
            break
    if target_level is None:
        return None
    for state, lb, ub in _reference_scan_states(trail):
        if state.level > target_level:
            break
        if _reference_propagates_under(C, trail, lb, ub):
            return state
    raise AssertionError("asserting level found but no asserting state")


_small = st.integers(-4, 4)


@st.composite
def _variable(draw, index):
    kind = draw(st.sampled_from(list(VarKind)))
    if kind is VarKind.BINARY:
        return Variable(index, f"v{index}", kind, F(0), F(1))
    lb = draw(st.one_of(st.just(NEG_INF), _small.map(F)))
    ub = draw(st.one_of(st.just(INF), st.integers(0, 5).map(F)))
    if lb != NEG_INF and ub != INF:
        ub = lb + ub
    if kind is VarKind.CONTINUOUS and lb != NEG_INF:
        lb = lb + F(draw(st.integers(0, 2)), 3)
        ub = max(ub, lb)
    return Variable(index, f"v{index}", kind, lb, ub)


def _span(C, t, j):
    """|a_j| times x_j's local domain width; inf if a bound is infinite."""
    lo, hi = t.local_lb[j], t.local_ub[j]
    return INF if not (is_finite(lo) and is_finite(hi)) else abs(C.coef(j)) * (hi - lo)


@st.composite
def _trail_and_row(draw):
    n = draw(st.integers(1, 8))
    vs = [draw(_variable(i)) for i in range(n)]
    tied = draw(st.booleans())
    if tied:
        # One domain for every variable and one coefficient magnitude below:
        # every term has the same span until the trail tightens one.
        v0 = vs[0]
        vs = [
            Variable(i, f"v{i}", v0.kind, v0.global_lb, v0.global_ub)
            for i in range(n)
        ]
    support = draw(st.sets(st.integers(0, n - 1), min_size=1))
    magnitude = F(draw(st.integers(1, 6)), draw(st.integers(1, 7)))

    def coef():
        if tied:
            return magnitude * draw(st.sampled_from([-1, 1]))
        return F(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 7)))

    coefs = {j: coef() for j in support}
    C = mk(coefs, F(draw(st.integers(-12, 12)), draw(st.integers(1, 7))))
    t = Trail(vs)
    reason = RowReason(0, C)
    for _ in range(draw(st.integers(0, 30))):
        # Mostly changes on C's variables: only those can move the answers.
        # A change on the widest term (an infinite span first, ties to the
        # smallest index) makes the walk look for the widest again.
        widest = max(sorted(support), key=lambda k: _span(C, t, k))
        j = draw(
            st.one_of(
                st.sampled_from(sorted(support)),
                st.integers(0, n - 1),
                st.just(widest),
            )
        )
        v = vs[j]
        kind = draw(st.sampled_from(list(BoundKind)))
        lo, hi = t.local_lb[j], t.local_ub[j]
        if lo == NEG_INF:
            lo = min(F(-5), hi) if hi != INF else F(-5)
        if hi == INF:
            hi = max(F(5), lo)
        step = F(1) if v.is_integral else F(1, 2)
        k = draw(st.integers(1, 6))
        if kind is BoundKind.LOWER:
            value = (math.ceil(lo) if v.is_integral else lo) + k * step
            if value <= t.local_lb[j] or value > hi + 1:
                continue
        else:
            value = (math.floor(hi) if v.is_integral else hi) - k * step
            if value >= t.local_ub[j] or value < lo - 1:
                continue
        decide = v.kind is not VarKind.CONTINUOUS and draw(st.booleans())
        if decide:
            t.push_decision(j, kind, value)
        else:
            t.push_deduction(j, kind, value, reason)
    level = draw(st.integers(0, t.current_level + 1))
    return C, t, level


@settings(max_examples=400, deadline=None)
@given(_trail_and_row())
def test_state_queries_match_reference(case):
    C, t, level = case
    assert min_infeasible_state(C, t) == _reference_min_infeasible_state(C, t)
    assert is_asserting(C, t, level) == _reference_is_asserting(C, t, level)
    assert is_asserting(C, t) == _reference_is_asserting(C, t)


@st.composite
def _continuous_trail_and_row(draw):
    """A row with coefficient and rhs denominators among the coprime 2, 3
    and 5 over continuous variables with fractional bounds, and binaries
    that open the decision levels: the walk's scale is up to 30, and its
    sums stay Fractions."""
    n = draw(st.integers(1, 4))
    vs = []
    for i in range(n):
        lb = F(draw(st.integers(-9, 9)), draw(st.sampled_from([2, 3, 5, 7])))
        ub = lb + F(draw(st.integers(1, 12)), 4)
        vs.append(Variable(i, f"c{i}", VarKind.CONTINUOUS, lb, ub))
    vs += [Variable(n + i, f"b{i}", VarKind.BINARY, F(0), F(1)) for i in range(2)]
    denominator = st.sampled_from([2, 3, 5])
    support = range(n + draw(st.integers(0, 2)))
    coefs = {j: F(draw(st.integers(-6, 6).filter(bool)), draw(denominator)) for j in support}
    C = mk(coefs, F(draw(st.integers(-12, 12)), draw(denominator)))
    t = Trail(vs)
    reason = RowReason(0, C)
    for _ in range(draw(st.integers(0, 12))):
        j = draw(st.integers(0, n + 1))
        lo, hi = t.local_lb[j], t.local_ub[j]
        if j >= n:
            if lo != hi:
                kind = draw(st.sampled_from(list(BoundKind)))
                t.push_decision(j, kind, hi if kind is BoundKind.LOWER else lo)
            continue
        # A point strictly inside the domain tightens either bound.
        value = lo + (hi - lo) * F(draw(st.integers(1, 4)), 5)
        t.push_deduction(j, draw(st.sampled_from(list(BoundKind))), value, reason)
    level = draw(st.integers(0, t.current_level + 1))
    return C, t, level


@settings(max_examples=300, deadline=None)
@given(_continuous_trail_and_row())
def test_state_queries_match_reference_on_fractional_continuous_rows(case):
    C, t, level = case
    assert min_infeasible_state(C, t) == _reference_min_infeasible_state(C, t)
    assert is_asserting(C, t, level) == _reference_is_asserting(C, t, level)
    assert is_asserting(C, t) == _reference_is_asserting(C, t)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_trail_and_row(), _continuous_trail_and_row()))
def test_state_queries_leave_the_kept_contributions_unchanged(case):
    """``min_infeasible_state`` and ``is_asserting`` start from the global
    contributions kept on C: asked twice on one row they answer the same,
    and the kept contributions still equal a fresh computation."""
    C, t, level = case
    answers = [(min_infeasible_state(C, t), is_asserting(C, t, level)) for _ in range(2)]
    assert answers[0] == answers[1]
    fresh = LinearConstraint(C.terms, C.rhs)
    assert global_contributions(C, t.variables) == global_contributions(fresh, t.variables)


def test_walk_keeps_ints_on_an_integral_row():
    """An integral row over integral bounds: the walk's rhs, max activity,
    top and bottom contributions and widest span stay ints."""
    vs = [
        Variable(0, "b", VarKind.BINARY, F(0), F(1)),
        Variable(1, "i", VarKind.INTEGER, F(-3), F(4)),
        Variable(2, "j", VarKind.INTEGER, NEG_INF, F(5)),
    ]
    C = mk({0: 2, 1: -3, 2: 1}, -4)
    t = Trail(vs)
    t.push_decision(0, BoundKind.LOWER, 1)
    t.push_deduction(1, BoundKind.UPPER, 2, RowReason(0, C))
    t.push_deduction(2, BoundKind.LOWER, -1, RowReason(0, C))
    t.push_deduction(1, BoundKind.LOWER, 0, RowReason(0, C))
    walk = _ActivityWalk(C, vs)
    for ch in [None] + t.changes:
        if ch is not None:
            assert walk.apply(ch)
        walk.propagates()
        values = [walk.rhs, walk.finite, *walk.top.values(), *walk.bottom.values()]
        if walk.span is not None and is_finite(walk.span):
            values.append(walk.span)
        assert all(type(x) is int for x in values if x is not None), values
    assert walk.bottom[2] == -1 and walk.span is not None


# -- mixed-binary regression --------------------------------------------------


def _mbp_conflict():
    vs, rows = mbp5_system()
    t = Trail(vs)
    t.push_decision(1, BoundKind.UPPER, 0)
    res = propagate_fixpoint(t, rows)
    assert res.conflict and res.source == ("row", 2)
    return vs, rows, t


def test_mbp_propagation_chain():
    _, _, t = _mbp_conflict()
    seen = [
        (ch.state, ch.var, ch.kind, ch.new_value) for ch in t.changes[1:]
    ]
    assert seen == [
        (StateId(1, 1), 4, BoundKind.UPPER, F(0)),
        (StateId(1, 2), 2, BoundKind.UPPER, F(0)),
        (StateId(1, 3), 4, BoundKind.LOWER, F(0)),
        (StateId(1, 4), 3, BoundKind.UPPER, F(3, 4)),
        (StateId(1, 5), 0, BoundKind.LOWER, F(1)),
    ]


def test_plain_resolution_loses_the_conflict():
    _, rows, t = _mbp_conflict()
    naive = resolve(rows[2], rows[1], 0)
    assert naive == mk({3: 10, 4: -11}, -12)
    assert max_activity(naive, t) >= naive.rhs


def test_continuous_elimination_chain():
    """Cancelling y1 through its propagating row, then y2, turns the binary
    reason into a pure 0/1 constraint before reduction."""
    _, rows, t = _mbp_conflict()
    step1 = resolve(rows[1], rows[0], 3)
    assert step1 == mk({0: F(35, 2), 4: F(-7, 2)}, F(1, 4))
    step2 = resolve(step1, rows[4], 4)
    assert step2 == mk({0: F(35, 2), 2: F(-7, 2)}, F(1, 4))
    s = StateId(1, 5)
    binary = reduce_mbp(rows[1], t, s, set())
    assert binary == step2
    out = reduce_reason(ReductionStrategy.CMIR, binary, rows[2], 0, *box(t, s))
    assert out == mk({0: 1}, 1)


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_mbp_analysis_learns_continuous_row(strategy):
    vs, rows, t = _mbp_conflict()
    result = analyze(rows[2], t, strategy)
    assert result.outcome == "learned"
    assert result.learned == mk({3: 5, 4: -10}, 4)
    assert result.backjump_target == INITIAL_STATE
    assert result.conflicting_state == StateId(1, 4)
    assert result.iterations == 1
    assert result.trace == ("iter=1 state=(1,5) var=0 action=mbp len=2",)


def _earlier_conflict():
    """x0 + c - 3y >= 7/2 (row 0) propagates x0 >= 1 from y >= 1 and c <= 6,
    which -c - 4y >= -6 (row 1) deduced at the root; x0 + y <= 1 conflicts.
    Resolving c out of row 0 through row 1 gives x0 - 7y >= -5/2, already
    infeasible once y >= 1, before x0 >= 1 was deduced.  Coefficient
    tightening strengthens that row to x0 - 9/2 y >= 0."""
    vs = [
        Variable(0, "x0", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.BINARY, F(0), F(1)),
        Variable(2, "c", VarKind.CONTINUOUS, F(0), F(10)),
    ]
    rows = [mk({0: 1, 2: 1, 1: -3}, F(7, 2)), mk({2: -1, 1: -4}, -6)]
    t = Trail(vs)
    t.push_deduction(2, BoundKind.UPPER, 6, RowReason(1, rows[1]), F(6))
    t.push_decision(1, BoundKind.LOWER, 1)
    t.push_deduction(0, BoundKind.LOWER, 1, RowReason(0, rows[0]), F(1, 2))
    return vs, rows, t, mk({0: -1, 1: -1}, -1)


def test_reduce_mbp_reports_an_earlier_conflict():
    _, rows, t, C = _earlier_conflict()
    used = set()
    out = reduce_mbp(rows[0], t, StateId(1, 1), used)
    assert out == EarlierConflict(mk({0: 1, 1: -7}, F(-5, 2)))
    assert used == {1}


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_analysis_continues_from_an_earlier_conflict(strategy):
    vs, rows, t, C = _earlier_conflict()
    result = analyze(C, t, strategy)
    assert result.outcome == "learned"
    assert result.learned == mk({0: 1, 1: F(-9, 2)}, 0)
    assert result.backjump_target == INITIAL_STATE
    assert result.conflicting_state == StateId(1, 0)
    assert result.used_row_indices == (0, 1)
    assert result.iterations == 1
    assert result.trace == ("iter=1 state=(1,1) var=0 action=earlier-conflict len=2",)
    problem = build_problem(vs, rows + [C])
    assert validate_learned(problem, result.learned)


# -- general-integer resolution ----------------------------------------------


def _int_vars():
    return [
        Variable(0, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]


def test_general_integer_plain_resolution():
    vs = _int_vars()
    R = mk({0: 2, 1: 1}, 3)
    Cc = mk({0: -1}, -1)
    t = Trail(vs)
    t.push_decision(1, BoundKind.UPPER, 0)
    propagate_fixpoint(t, [R, Cc])
    out = resolve_general_integer(R, Cc, 0, *box(t))
    assert out is R
    assert resolve(Cc, out, 0) == mk({1: F(1, 2)}, F(1, 2))


def test_general_integer_separation_cut():
    """The plain resolvent stays feasible; a rounding cut on the shifted
    reason separates the rounded deduction and restores infeasibility."""
    vs = _int_vars()
    R = mk({0: 2, 1: 1}, 3)
    Cc = mk({0: -2, 1: 1}, -3)
    t = Trail(vs)
    t.push_decision(1, BoundKind.UPPER, 0)
    res = propagate_fixpoint(t, [R, Cc])
    assert res.conflict
    cut = resolve_general_integer(R, Cc, 0, *box(t))
    assert cut == mk({0: 1, 1: 1}, 2)
    # valid for the reason's integer points
    for z in range(6):
        for x in (0, 1):
            if 2 * z + x >= 3:
                assert z + x >= 2
    # and the resolvent with the cut is infeasible at the conflict state
    resolvent = resolve(Cc, cut, 0)
    assert max_activity(resolvent, t) < resolvent.rhs


def test_general_integer_separation_failure():
    """After shifting z to its lower bound the reason has an integral
    right-hand side, so no rounding cut exists and resolution fails."""
    vs = [
        Variable(0, "w", VarKind.INTEGER, F(0), F(4)),
        Variable(1, "z", VarKind.INTEGER, F(1), F(3)),
    ]
    R = mk({1: 2, 0: 1}, 4)
    Cc = mk({1: -2, 0: 1}, F(-5, 2))
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 1)
    res = propagate_fixpoint(t, [R, Cc])
    assert res.conflict and res.source == ("row", 1)
    s = min_infeasible_state(Cc, t)
    ch = t.change_at(s)
    assert ch.var == 1 and ch.pre_rounding == F(3, 2)
    with pytest.raises(ReductionError, match="general-integer resolution failed"):
        resolve_general_integer(ch.reason.row, Cc, ch.var, *box(t, s))
    result = analyze(Cc, t, ReductionStrategy.CMIR)
    assert result.outcome == "abandoned"
    assert result.abandoned_reason == "general-integer resolution failed"


# -- graph fallback -----------------------------------------------------------


def test_graph_fallback_binary_clause():
    vs = binary_vars(3)
    rows = [mk({0: 1, 1: 1, 2: 1}, 2)]
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    t.push_decision(1, BoundKind.UPPER, 0)
    res = propagate_fixpoint(t, rows)
    assert res.conflict
    out = graph_fallback(t, rows[0])
    assert out.outcome == "learned"
    assert out.learned == mk({0: 1, 1: 1}, 1)
    assert out.backjump_target == StateId(1, 0)


def test_graph_fallback_integer_disjunction():
    vs = [
        Variable(0, "w", VarKind.INTEGER, F(0), F(4)),
        Variable(1, "z", VarKind.INTEGER, F(1), F(3)),
    ]
    rows = [mk({1: 2, 0: 1}, 4), mk({1: -2, 0: 1}, F(-5, 2))]
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 1)
    res = propagate_fixpoint(t, rows)
    assert res.conflict
    out = graph_fallback(t, rows[res.source[1]])
    assert out.outcome == "learned"
    assert isinstance(out.learned, BoundDisjunction)
    (atom,) = out.learned.atoms
    assert (atom.var, atom.kind, atom.value) == (0, BoundKind.LOWER, F(2))
    assert out.backjump_target == INITIAL_STATE
    # the disjunction is valid: every feasible integer point has w >= 2
    for w in range(5):
        for z in range(1, 4):
            if 2 * z + w >= 4 and -2 * z + w >= F(-5, 2):
                assert w >= 2


def _random_fallback_case(rng):
    """A random trail over binaries, integers on [0, 6] and continuous
    variables, with root deductions, up to four decision levels, row and
    disjunction reasons, and a row or disjunction conflict.

    The walk reads only structure, so a reason need not imply its change:
    it only names the change's literal among a few others.  General
    integers often tighten again a bound that an earlier change, at this or
    an earlier level, already tightened: that is where the fallback's
    sources repeat a (variable, kind).
    """
    n_bin, n_int, n_cont = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)
    vs = binary_vars(n_bin)
    vs += [Variable(n_bin + i, f"z{i}", VarKind.INTEGER, 0, 6) for i in range(n_int)]
    first = n_bin + n_int
    vs += [Variable(first + i, f"y{i}", VarKind.CONTINUOUS, 0, 10) for i in range(n_cont)]
    n = len(vs)
    t = Trail(vs)
    rows, disjunctions, tightened = [], [], []
    kinds = list(BoundKind)
    other = {BoundKind.LOWER: BoundKind.UPPER, BoundKind.UPPER: BoundKind.LOWER}

    def literals():
        # Mostly literals that some change on the trail falsifies.
        lits = {}
        for _ in range(rng.randint(1, 3)):
            if t.changes and rng.random() < 0.7:
                ch = rng.choice(t.changes)
                j, kind = ch.var, other[ch.kind]
            else:
                j, kind = rng.randrange(n), rng.choice(kinds)
            lits[j, kind] = None
        return lits

    def row_or_disjunction(lits):
        if rng.random() < 0.55:
            # A row term stands for the lower bound if its coefficient is
            # positive, for the upper bound if it is negative.
            coefs = {
                j: rng.randint(1, 3) * (1 if kind is BoundKind.LOWER else -1)
                for j, kind in lits
            }
            return mk(coefs, rng.randint(-4, 4))
        return BoundDisjunction(tuple(BoundAtom(j, kind, 0) for j, kind in lits))

    def tightened_value(j, kind):
        lo, hi = t.local_lb[j], t.local_ub[j]
        if lo >= hi:
            return None
        if vs[j].kind is VarKind.CONTINUOUS:
            step = (hi - lo) * F(rng.randint(1, 3), 4)
        else:
            step = rng.randint(1, min(2, hi - lo))
        return lo + step if kind is BoundKind.LOWER else hi - step

    def push(decision):
        if tightened and rng.random() < 0.5:
            j, kind = rng.choice(tightened)
        else:
            j, kind = rng.randrange(first if decision else n), rng.choice(kinds)
        value = tightened_value(j, kind)
        if value is None:
            return
        if vs[j].kind is VarKind.INTEGER:
            tightened.append((j, kind))
        if decision:
            t.push_decision(j, kind, value)
            return
        lits = literals()
        lits.pop((j, kind), None)
        reason = row_or_disjunction([(j, kind), *lits])
        if isinstance(reason, LinearConstraint):
            rows.append(reason)
            t.push_deduction(j, kind, value, RowReason(len(rows) - 1, reason), value)
        else:
            disjunctions.append(reason)
            t.push_deduction(j, kind, value, DisjunctionReason(len(disjunctions) - 1, reason))

    for _ in range(rng.randint(0, 2)):
        push(decision=False)
    for _ in range(rng.randint(0, 4)):
        push(decision=True)
        for _ in range(rng.randint(0, 4)):
            push(decision=False)
    return t, row_or_disjunction(list(literals()))


def _fallback_outcome(fallback, trail, conflict):
    try:
        return fallback(trail, conflict)
    except (ValueError, AssertionError) as exc:
        return type(exc)


def test_graph_fallback_matches_reference(monkeypatch):
    """The one-walk fallback gives every field of the earlier helper-based
    fallback's result, or raises the same exception, on random trails; the
    trails reach every part of the walk."""
    seen = Counter()
    expand, negate = fallback_ref._expand_change, fallback_ref._negated_atom
    negated = []

    def counting_expand(trail, ch, used):
        if isinstance(ch.reason, DisjunctionReason):
            seen["disjunction reason"] += 1
        if trail.variables[ch.var].kind is VarKind.CONTINUOUS:
            seen["continuous"] += 1
        return expand(trail, ch, used)

    def recording_negate(ch, variables):
        atom = negate(ch, variables)
        negated.append((atom.var, atom.kind))
        return atom

    monkeypatch.setattr(fallback_ref, "_expand_change", counting_expand)
    monkeypatch.setattr(fallback_ref, "_negated_atom", recording_negate)
    rng = random.Random(2023)
    for _ in range(3000):
        trail, conflict = _random_fallback_case(rng)
        negated.clear()
        want = _fallback_outcome(fallback_ref.graph_fallback, trail, conflict)
        got = _fallback_outcome(graph_fallback, trail, conflict)
        assert got == want
        if isinstance(want, type):
            continue
        if want.learned is not None:
            assert type(got.learned) is type(want.learned)
            assert got.learned.origin == want.learned.origin
            seen[type(want.learned).__name__] += 1
        seen[want.outcome] += 1
        if len(set(negated)) < len(negated):
            seen["dedupe"] += 1
    for what in (
        "disjunction reason",
        "continuous",
        "dedupe",
        "LinearConstraint",
        "BoundDisjunction",
        "global_infeasibility",
    ):
        assert seen[what] > 0, (what, seen)


# -- analysis loop corner cases ----------------------------------------------


def test_analysis_reports_global_infeasibility_from_root():
    vs = binary_vars(2)
    rows = [mk({0: 1}, 1), mk({0: -1, 1: 1}, 1), mk({1: -1}, 0)]
    t = Trail(vs)
    res = propagate_fixpoint(t, rows)
    assert res.conflict
    confl = rows[res.source[1]]
    result = analyze(confl, t, ReductionStrategy.CMIR)
    assert result.outcome == "global_infeasibility"


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_analysis_of_a_globally_infeasible_row_names_no_state(strategy):
    """A row infeasible at the global bounds conflicts before any change of
    the trail, so no trail state is reported as the conflicting one."""
    t = Trail(binary_vars(3))
    t.push_decision(0, BoundKind.UPPER, 0)
    t.push_decision(1, BoundKind.LOWER, 1)
    result = analyze(mk({0: 1, 1: 1, 2: 1}, 4), t, strategy)
    assert result.outcome == "global_infeasibility"
    assert result.conflicting_state is None
    assert result.learned is None and result.iterations == 0


def _boxed(v):
    """``v`` with each infinite bound replaced by a finite one."""
    lb = v.global_lb if is_finite(v.global_lb) else min(F(-2), v.global_ub)
    ub = v.global_ub if is_finite(v.global_ub) else lb + 3
    return Variable(v.index, v.name, v.kind, lb, ub)


@st.composite
def _row_and_variables(draw):
    n = draw(st.integers(1, 6))
    vs = [draw(_variable(i)) for i in range(n)]
    if draw(st.booleans()):
        # A finite min activity: coef_tighten then has coefficients to clip.
        vs = [_boxed(v) for v in vs]
    support = draw(st.sets(st.integers(0, n - 1), min_size=1))
    coefs = {
        j: F(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 3)))
        for j in support
    }
    C = mk(coefs, F(draw(st.integers(-12, 12)), draw(st.integers(1, 3))))
    minact = global_min_activity(C, vs)
    if is_finite(minact) and draw(st.booleans()):
        # An rhs just above the min activity leaves large coefficients to clip.
        C = mk(coefs, minact + F(draw(st.integers(1, 6)), 2))
    return C, vs


@settings(max_examples=300, deadline=None)
@given(_row_and_variables())
def test_global_min_activity_is_the_fraction_sum(case):
    """The global kernel's min activity on C's integer-scaled row, divided by
    the scale once, is the plain Fraction sum at the global bounds."""
    C, vs = case
    _, minact = global_contributions(C, vs)
    scaled = NEG_INF if minact.infinite else F(minact.finite, C.int_scaled()[0])
    assert scaled == global_min_activity(C, vs)


@settings(max_examples=300, deadline=None)
@given(_row_and_variables())
def test_coef_tighten_matches_clipping_in_fractions(case):
    """``coef_tighten`` clips on C's integer-scaled row; the result is the
    clipping of C's own Fraction coefficients towards rhs - minact."""
    C, vs = case
    minact = global_min_activity(C, vs)
    if not is_finite(minact) or minact >= C.rhs:
        return
    btilde = C.rhs - minact
    terms, rhs = C.as_dict(), C.rhs
    for j, a in C.terms:
        v = vs[j]
        if v.is_integral and a > btilde:
            terms[j] = btilde
            rhs -= (a - btilde) * v.global_lb
        elif v.is_integral and a < -btilde:
            terms[j] = -btilde
            rhs -= (a + btilde) * v.global_ub
    out = coef_tighten(C, vs)
    assert out == mk(terms, rhs) and out.origin == "derived"
    assert out.int_scaled() == mk(terms, rhs).int_scaled()


@settings(max_examples=300, deadline=None)
@given(_row_and_variables())
def test_strengthen_tightens_exactly_the_rows_that_are_not_redundant(case):
    C, vs = case
    out = _strengthen(C, vs)
    if global_min_activity(C, vs) < C.rhs:
        assert out == coef_tighten(C, vs)
    else:
        assert out is C


def test_analysis_learns_asserting_clause_binary():
    """Classic two-row chain: branching two variables to 0 violates a third
    row; the learned constraint propagates at the first level already."""
    vs = binary_vars(3)
    rows = [mk({0: 1, 1: 1, 2: 1}, 2)]
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    t.push_decision(1, BoundKind.UPPER, 0)
    res = propagate_fixpoint(t, rows)
    assert res.conflict
    result = analyze(rows[0], t, ReductionStrategy.CLAUSE)
    # the conflicting row itself asserts at level 1 (it would force x3 = 1)
    assert result.outcome == "learned"
    assert result.backjump_target.level <= 1
