"""Conflict analysis: backward resolution, continuous elimination, fallbacks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.conflict import (
    AnalysisConfig,
    EarlierConflict,
    Failed,
    ReducedReason,
    Resolved,
    SeparationCut,
    analyze,
    graph_fallback,
    is_asserting,
    min_infeasible_state,
    reduce_mbp,
    resolve_general_integer,
)
from cutlearn.cuts import ReductionStrategy, resolve
from cutlearn.model import BoundKind, Variable, VarKind
from cutlearn.propagation import propagate_fixpoint, residual_max
from cutlearn.rationals import INF, NEG_INF, frac_ceil, frac_floor, is_finite
from cutlearn.trail import (
    INITIAL_STATE,
    RowReason,
    StateId,
    Trail,
    activity_bounds_max,
    max_activity,
)

from conftest import F, binary_vars, mbp5_system, mk


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
        if activity_bounds_max(C, lb, ub) < C.rhs:
            return state
    return None


def _reference_propagates_under(C, trail, lb, ub):
    if activity_bounds_max(C, lb, ub) < C.rhs:
        return False
    for j, a in C.terms:
        residual = residual_max(C, j, lb, ub)
        if not is_finite(residual):
            continue
        pre = (C.rhs - residual) / a
        var = trail.variables[j]
        if a > 0:
            value = frac_ceil(pre) if var.is_integral else pre
            if value > lb[j]:
                return True
        else:
            value = frac_floor(pre) if var.is_integral else pre
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


@st.composite
def _trail_and_row(draw):
    n = draw(st.integers(1, 5))
    vs = [draw(_variable(i)) for i in range(n)]
    support = draw(st.sets(st.integers(0, n - 1), min_size=1))
    coefs = {
        j: F(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 3)))
        for j in support
    }
    C = mk(coefs, F(draw(st.integers(-12, 12)), draw(st.integers(1, 3))))
    t = Trail(vs)
    reason = RowReason(0, C)
    for _ in range(draw(st.integers(0, 20))):
        # Mostly changes on C's variables: only those can move the answers.
        j = draw(st.one_of(st.sampled_from(sorted(support)), st.integers(0, n - 1)))
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
            value = (frac_ceil(lo) if v.is_integral else lo) + k * step
            if value <= t.local_lb[j] or value > hi + 1:
                continue
        else:
            value = (frac_floor(hi) if v.is_integral else hi) - k * step
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
    out = reduce_mbp(rows[1], rows[2], 0, t, StateId(1, 5), ReductionStrategy.CMIR)
    assert isinstance(out, ReducedReason)
    assert out.constraint == mk({0: 1}, 1)


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_mbp_analysis_learns_continuous_row(strategy):
    vs, rows, t = _mbp_conflict()
    result = analyze(rows[2], t, strategy, AnalysisConfig(emit_trace=True))
    assert result.outcome == "learned"
    assert result.constraint == mk({3: 5, 4: -10}, 4)
    assert result.backjump_target == INITIAL_STATE
    assert result.conflicting_state == StateId(1, 4)
    assert result.iterations == 1
    assert result.trace == ("iter=1 state=(1,5) var=0 action=mbp len=2",)


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
    out = resolve_general_integer(R, Cc, 0, t, t.current_state)
    assert isinstance(out, Resolved)
    assert out.constraint == mk({1: F(1, 2)}, F(1, 2))


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
    out = resolve_general_integer(R, Cc, 0, t, t.current_state)
    assert isinstance(out, SeparationCut)
    cut = out.constraint
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
    out = resolve_general_integer(ch.reason.row, Cc, ch.var, t, s)
    assert isinstance(out, Failed)
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
    out = graph_fallback(t, conflict_row=rows[0])
    assert out.outcome == "learned"
    assert out.constraint == mk({0: 1, 1: 1}, 1)
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
    out = graph_fallback(t, conflict_row=rows[res.source[1]])
    assert out.outcome == "learned_disjunction"
    (atom,) = out.disjunction.atoms
    assert (atom.var, atom.kind, atom.value) == (0, BoundKind.LOWER, F(2))
    assert out.backjump_target == INITIAL_STATE
    # the disjunction is valid: every feasible integer point has w >= 2
    for w in range(5):
        for z in range(1, 4):
            if 2 * z + w >= 4 and -2 * z + w >= F(-5, 2):
                assert w >= 2


def test_graph_fallback_needs_a_conflict():
    t = Trail(binary_vars(1))
    with pytest.raises(ValueError):
        graph_fallback(t)


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
