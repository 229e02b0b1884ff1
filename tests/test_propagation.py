"""Row propagation: soundness, rounding, disjunction unit rule, termination."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    Variable,
    VarKind,
    activity,
    evaluate,
)
from cutlearn.propagation import (
    Candidate,
    FixpointResult,
    PropagationResult,
    is_tight_propagation,
    propagate_candidates,
    propagate_disjunction,
    propagate_fixpoint,
    residual,
)
from cutlearn.rationals import (
    INF,
    NEG_INF,
    ZERO,
    is_finite,
)
from cutlearn.trail import INITIAL_STATE, DisjunctionReason, RowReason, Trail

from conftest import (
    F,
    binary_vars,
    box,
    ext_add,
    ext_mul,
    max_activity,
    mk,
    reference_max_activity,
)

coefs = st.integers(min_value=-4, max_value=4)


def all_binary_points(n):
    return itertools.product(*([[F(0), F(1)]] * n))


def in_box(point, lb, ub):
    return all(lb[j] <= point[j] <= ub[j] for j in range(len(point)))


@settings(max_examples=200)
@given(
    st.lists(st.tuples(coefs, coefs, coefs, coefs), min_size=1, max_size=4),
    st.integers(min_value=-3, max_value=3),
)
def test_fixpoint_soundness_binary(coef_rows, rhs):
    """Every binary point satisfying all rows survives propagation: it stays
    inside the tightened box, and a reported conflict means no point exists."""
    rows = [
        mk(dict(enumerate(cs)), rhs + i) for i, cs in enumerate(coef_rows)
    ]
    t = Trail(binary_vars(4))
    res = propagate_fixpoint(t, rows)
    feasible = [
        p
        for p in all_binary_points(4)
        if all(evaluate(C, list(p)).satisfied for C in rows)
    ]
    if res.conflict:
        assert not feasible
        assert res.source is not None
    else:
        for p in feasible:
            assert in_box(p, t.local_lb, t.local_ub)


def test_single_row_candidates_and_rounding():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(1)),
    ]
    t = Trail(vs)
    # 2z + y >= 4 with y <= 1 forces z >= 3/2, rounded up to 2
    C = mk({0: 2, 1: 1}, 4)
    res = propagate_candidates(C, *box(t))
    assert not res.conflict
    (cand,) = res.changes
    assert (cand.var, cand.kind, cand.value) == (0, BoundKind.LOWER, F(2))
    assert cand.pre_rounding == F(3, 2)


def test_residual_max_handles_infinite_bounds():
    vs = [
        Variable(0, "y", VarKind.CONTINUOUS, float("-inf"), float("inf")),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]
    t = Trail(vs)
    C = mk({0: 1, 1: 1}, 0)
    finite, infinite, contribs = activity(C.terms, t.local_lb, t.local_ub)
    assert (finite, infinite, contribs) == (1, 1, (None, 1))
    # the residual of y is 1; that of x is +inf, which the kernel gives as None
    assert residual(finite, infinite, contribs[0]) == 1
    assert residual(finite, infinite, contribs[1]) is None
    # the unbounded variable yields no candidate for x, but does for y
    res = propagate_candidates(C, *box(t))
    (cand,) = res.changes
    assert cand.var == 0 and cand.kind is BoundKind.LOWER and cand.value == -1


def test_fixpoint_idempotent():
    t = Trail(binary_vars(3))
    rows = [mk({0: 1, 1: 1}, 2), mk({1: -1, 2: 1}, 0)]
    res = propagate_fixpoint(t, rows)
    assert not res.conflict and res.num_changes > 0 and not res.capped
    before = (list(t.local_lb), list(t.local_ub))
    again = propagate_fixpoint(t, rows)
    assert again.num_changes == 0
    assert (t.local_lb, t.local_ub) == before


def test_conflict_reports_source_row():
    t = Trail(binary_vars(2))
    t.push_decision(0, BoundKind.UPPER, 0)
    rows = [mk({1: 1}, 0), mk({0: 2, 1: 1}, 3)]
    res = propagate_fixpoint(t, rows)
    assert res.conflict and res.source == ("row", 1)


def test_continuous_zigzag_terminates():
    """Two rows each tightening the other's variable by a shrinking amount
    converge geometrically without reaching a fixpoint; the round cap stops
    the loop with sound (if not maximal) bounds."""
    vs = [
        Variable(0, "y1", VarKind.CONTINUOUS, F(0), F(10)),
        Variable(1, "y2", VarKind.CONTINUOUS, F(0), F(10)),
    ]
    t = Trail(vs)
    rows = [mk({0: -2, 1: 1}, -1), mk({1: -2, 0: 1}, -1)]
    res = propagate_fixpoint(t, rows)
    assert not res.conflict and res.capped
    # limit point is y1 = y2 = 1; every derived bound must stay valid there
    assert t.local_ub[0] >= 1 and t.local_ub[1] >= 1
    for C in rows:
        assert evaluate(C, [F(1), F(1)]).satisfied


def test_disjunction_unit_rule():
    vs = binary_vars(2)
    t = Trail(vs)
    D = BoundDisjunction(
        (BoundAtom(0, BoundKind.LOWER, F(1)), BoundAtom(1, BoundKind.LOWER, F(1)))
    )
    # two open atoms: nothing to do
    assert propagate_disjunction(D, t).change is None
    t.push_decision(0, BoundKind.UPPER, 0)
    res = propagate_disjunction(D, t)
    assert res.change == (1, BoundKind.LOWER, F(1))
    t.push_decision(1, BoundKind.UPPER, 0)
    assert propagate_disjunction(D, t).conflict
    t.backjump(t.changes[0].state)
    t.push_decision(1, BoundKind.LOWER, 1)
    # one atom already holds: satisfied, no propagation
    res = propagate_disjunction(D, t)
    assert not res.conflict and res.change is None


def test_disjunction_unit_rule_rounds_integer_atoms():
    vs = [Variable(0, "z", VarKind.INTEGER, F(0), F(5))]
    t = Trail(vs)
    D = BoundDisjunction((BoundAtom(0, BoundKind.LOWER, F(3, 2)),))
    res = propagate_disjunction(D, t)
    assert res.change == (0, BoundKind.LOWER, F(2))


def test_fixpoint_applies_disjunctions():
    vs = binary_vars(2)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    D = BoundDisjunction(
        (BoundAtom(0, BoundKind.LOWER, F(1)), BoundAtom(1, BoundKind.LOWER, F(1)))
    )
    res = propagate_fixpoint(t, [], [D])
    assert not res.conflict and t.local_lb[1] == 1
    # and a conflicting disjunction is attributed correctly
    t2 = Trail(vs)
    t2.push_decision(0, BoundKind.UPPER, 0)
    t2.push_decision(1, BoundKind.UPPER, 0)
    res2 = propagate_fixpoint(t2, [], [D])
    assert res2.conflict and res2.source == ("disjunction", 0)


def test_is_tight_propagation():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(4)),
    ]
    # rounded integer deduction: z >= ceil(3/2) is not tight
    t = Trail(vs)
    C = mk({0: 2, 1: 1}, 4)
    t.push_deduction(1, BoundKind.UPPER, 1, RowReason(9, mk({1: -1}, -1)))
    propagate_fixpoint(t, [C])
    change = next(ch for ch in t.changes if ch.var == 0)
    assert not is_tight_propagation(change, t)
    # integral pre-rounding: z >= 2 from y <= 0 is tight
    t2 = Trail(vs)
    t2.push_deduction(1, BoundKind.UPPER, 0, RowReason(9, mk({1: -1}, 0)))
    propagate_fixpoint(t2, [C])
    change2 = next(ch for ch in t2.changes if ch.var == 0)
    assert change2.pre_rounding == 2
    assert is_tight_propagation(change2, t2)
    # continuous deductions are always tight
    t3 = Trail(vs)
    C3 = mk({1: -1, 0: -1}, -2)  # y <= 2 - z
    propagate_fixpoint(t3, [C3])
    change3 = next(ch for ch in t3.changes if ch.var == 1)
    assert is_tight_propagation(change3, t3)
    # a row deduction on an integral variable must carry its pre-rounding
    t4 = Trail(vs)
    t4.push_deduction(0, BoundKind.LOWER, 2, RowReason(0, C))
    with pytest.raises(ValueError, match="pre-rounding"):
        is_tight_propagation(t4.changes[-1], t4)


def test_max_activity_drops_below_rhs_exactly_on_conflict():
    t = Trail(binary_vars(2))
    C = mk({0: 1, 1: 1}, 2)
    assert not propagate_candidates(C, *box(t)).conflict
    t.push_decision(0, BoundKind.UPPER, 0)
    assert max_activity(C, t) < C.rhs
    assert propagate_candidates(C, *box(t)).conflict


# -- stable-row skip -----------------------------------------------------------


def reference_fixpoint(trail, rows, disjunctions=(), max_rounds=200):
    """The plain round robin that evaluates every row in every round."""
    num_changes = 0
    changed = True
    rounds = 0
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for i, row in enumerate(rows):
            while True:
                result = propagate_candidates(row, *box(trail))
                if result.conflict:
                    return FixpointResult(
                        True, ("row", i), num_changes
                    )
                applied = False
                for cand in result.changes:
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
                    True, ("disjunction", i), num_changes
                )
            if res.change is not None:
                var, kind, value = res.change
                trail.push_deduction(var, kind, value, DisjunctionReason(i, dis))
                num_changes += 1
                changed = True
    return FixpointResult(False, num_changes=num_changes, capped=changed)


@st.composite
def variable_sets(draw):
    variables = []
    for j in range(draw(st.integers(min_value=2, max_value=5))):
        kind = draw(st.sampled_from(list(VarKind)))
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        elif kind is VarKind.INTEGER:
            lb = draw(st.sampled_from([NEG_INF, F(-2), F(0)]))
            ub = draw(st.sampled_from([F(1), F(3), INF]))
        else:
            lb = draw(st.sampled_from([NEG_INF, F(-3, 2), F(0)]))
            ub = draw(st.sampled_from([F(1, 2), F(2), INF]))
        variables.append(Variable(j, f"v{j}", kind, lb, ub))
    return variables


def draw_row(data, n):
    terms = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=-3, max_value=3),
            min_size=1,
            max_size=n,
        )
    )
    return mk(terms, data.draw(st.integers(min_value=-4, max_value=4)))


def draw_decision(data, trail):
    """A decision that tightens an unfixed integral variable within its box."""
    free = [
        j
        for j, v in enumerate(trail.variables)
        if v.is_integral and trail.local_lb[j] < trail.local_ub[j]
    ]
    if not free:
        return None
    j = data.draw(st.sampled_from(free))
    lb, ub = trail.local_lb[j], trail.local_ub[j]
    lo = lb if is_finite(lb) else (ub - 4 if is_finite(ub) else F(-4))
    hi = ub if is_finite(ub) else lo + 4
    if data.draw(st.booleans()):
        value = data.draw(st.integers(min_value=int(lo), max_value=int(hi) - 1))
        return j, BoundKind.UPPER, F(value)
    value = data.draw(st.integers(min_value=int(lo) + 1, max_value=int(hi)))
    return j, BoundKind.LOWER, F(value)


@settings(max_examples=300, deadline=None)
@given(variable_sets(), st.data())
def test_stable_row_skip_matches_plain_round_robin(variables, data):
    """Skipping stable rows changes no deduction, conflict or result, under
    decisions, backjumps, appended learned rows and other row lists."""
    n = len(variables)
    rows = [draw_row(data, n) for _ in range(data.draw(st.integers(1, 4)))]
    fast, ref = Trail(variables), Trail(variables)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        step = data.draw(
            st.sampled_from(["decide", "fixpoint", "backjump", "learn", "other"])
        )
        if step == "decide":
            decision = draw_decision(data, fast)
            if decision is None:
                continue
            fast.push_decision(*decision)
            ref.push_decision(*decision)
            continue
        if step == "backjump":
            target = data.draw(st.sampled_from([INITIAL_STATE] + [ch.state for ch in fast.changes]))
            fast.backjump(target)
            ref.backjump(target)
            assert fast.changes == ref.changes
            continue
        if step == "learn":
            rows = rows + [draw_row(data, n)]
            row_list = rows
        elif step == "other":
            row_list = data.draw(st.permutations(rows))
            row_list = row_list[: data.draw(st.integers(0, len(row_list)))]
        else:
            row_list = rows
        got = propagate_fixpoint(fast, row_list)
        want = reference_fixpoint(ref, row_list)
        assert got == want
        assert fast.changes == ref.changes


def test_row_stale_after_backjump_is_propagated_again():
    """A stable row whose variable a backjump loosens is evaluated again,
    even when nothing on the row's variables changes after the backjump."""
    t = Trail(binary_vars(3))
    rows = [mk({0: 1, 1: 1}, 1)]  # x0 + x1 >= 1
    decision = t.push_decision(1, BoundKind.UPPER, 0)
    assert propagate_fixpoint(t, rows).num_changes == 1
    assert t.local_lb[0] == 1  # x0 >= 1, then the row is stable
    t.backjump(decision)  # undo the deduction, keep the decision
    assert t.local_lb[0] == 0
    t.push_decision(2, BoundKind.UPPER, 0)  # a variable outside the row
    res = propagate_fixpoint(t, rows)
    assert res.num_changes == 1 and t.local_lb[0] == 1
    # a backjump that loosens x1 and a decision that re-tightens it
    t.backjump(INITIAL_STATE)
    assert propagate_fixpoint(t, rows).num_changes == 0
    t.push_decision(1, BoundKind.UPPER, 0)
    assert propagate_fixpoint(t, rows).num_changes == 1 and t.local_lb[0] == 1


@pytest.fixture
def evaluations(monkeypatch):
    """The rows ``propagate_fixpoint`` evaluates, in order."""
    import cutlearn.propagation as propagation

    seen = []

    def counting(C, *args):
        seen.append(C)
        return propagate_candidates(C, *args)

    monkeypatch.setattr(propagation, "propagate_candidates", counting)
    return seen


def test_stable_row_is_not_evaluated_after_a_backjump_to_its_mark(evaluations):
    """A backjump that undoes only changes made after a row was marked
    stable puts its variables' bounds back, so the row stays stable."""
    t = Trail(binary_vars(4))
    rows = [mk({0: 1, 1: 1}, 1), mk({2: 1, 3: 1}, 1)]  # x0 + x1 >= 1, x2 + x3 >= 1
    t.push_decision(0, BoundKind.UPPER, 0)
    assert propagate_fixpoint(t, rows).num_changes == 1  # x1 >= 1
    marked = t.current_state  # both rows are stable here
    t.push_decision(2, BoundKind.UPPER, 0)
    assert propagate_fixpoint(t, rows).num_changes == 1  # x3 >= 1
    t.backjump(marked)  # undoes x2 <= 0 and x3 >= 1
    evaluations.clear()
    assert propagate_fixpoint(t, rows).num_changes == 0
    assert evaluations == []
    # A new change on x3 makes the second row unstable again.
    t.push_decision(3, BoundKind.UPPER, 0)
    assert propagate_fixpoint(t, rows).num_changes == 1 and t.local_lb[2] == 1
    assert evaluations == [rows[1]]


def test_deducing_row_is_evaluated_once_per_round(evaluations):
    """A row's deductions do not move the bounds its max activity reads, so
    it is evaluated once in the round it deduces and then skipped."""
    t = Trail(binary_vars(3))
    rows = [mk({0: 1, 1: 1}, 1), mk({1: -1, 2: -1}, -1)]  # x0 + x1 >= 1, x1 + x2 <= 1
    t.push_decision(2, BoundKind.LOWER, 1)
    # Round 1: row 0 implies nothing, row 1 deduces x1 <= 0.  Round 2: row 0
    # deduces x0 >= 1.  Round 3: both rows are stable.
    assert propagate_fixpoint(t, rows).num_changes == 2
    assert t.local_ub[1] == 0 and t.local_lb[0] == 1
    assert evaluations == [rows[0], rows[1], rows[0]]


# -- activity kernel -------------------------------------------------------------


def reference_residual_max(C, skip, lb, ub):
    """Max of sum over j != skip of a_j x_j within the bounds, or +inf."""
    total = ZERO
    for j, a in C.terms:
        if j == skip:
            continue
        contrib = ext_mul(a, ub[j]) if a > 0 else ext_mul(a, lb[j])
        total = ext_add(total, contrib)
    return total


def reference_candidates(C, trail, state=None):
    """``propagate_candidates`` as it was before the activity kernel: the
    whole row is summed again for every term's residual."""
    if state is None:
        lb, ub = trail.local_lb, trail.local_ub
    else:
        lb, ub = trail.bounds_at(state)
    total = ZERO
    for j, a in C.terms:
        total = ext_add(total, ext_mul(a, ub[j]) if a > 0 else ext_mul(a, lb[j]))
    if total < C.rhs:
        return PropagationResult(True)
    candidates = []
    for j, a in C.terms:
        rest = reference_residual_max(C, j, lb, ub)
        if not is_finite(rest):
            continue
        pre = (C.rhs - rest) / a
        var = trail.variables[j]
        if a > 0:
            value = math.ceil(pre) if var.is_integral else pre
            if value > lb[j]:
                candidates.append(Candidate(j, BoundKind.LOWER, value, pre))
        else:
            value = math.floor(pre) if var.is_integral else pre
            if value < ub[j]:
                candidates.append(Candidate(j, BoundKind.UPPER, value, pre))
    return PropagationResult(False, tuple(candidates))


def infinite_contributions(C, lb, ub):
    return sum(
        1 for j, a in C.terms if not is_finite(ub[j] if a > 0 else lb[j])
    )


@st.composite
def rows_with_infinities(draw):
    """Variables of every kind and a row over them with 0, 1 or at least 2
    infinite max-activity contributions (``want`` of them)."""
    want = draw(st.sampled_from([0, 1, 2, 3]))
    n = draw(st.integers(min_value=max(want, 1), max_value=6))
    coefs = [
        F(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 3)))
        for _ in range(n)
    ]
    unbounded = set(draw(st.permutations(range(n)))[:want])
    variables = []
    for j, a in enumerate(coefs):
        kind = draw(st.sampled_from(list(VarKind)))
        if j in unbounded and kind is VarKind.BINARY:
            kind = VarKind.INTEGER
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        else:
            lb = F(draw(st.integers(-3, 1)))
            ub = lb + draw(st.integers(1, 4))
            if kind is VarKind.CONTINUOUS:
                lb -= F(draw(st.integers(0, 2)), 3)
            if j in unbounded:
                if a > 0:
                    ub = INF
                else:
                    lb = NEG_INF
            elif draw(st.booleans()):
                # infinite on the side that leaves the max activity finite
                if a > 0:
                    lb = NEG_INF
                else:
                    ub = INF
        variables.append(Variable(j, f"v{j}", kind, lb, ub))
    C = mk(dict(enumerate(coefs)), F(draw(st.integers(-12, 12)), draw(st.integers(1, 3))))
    return variables, C, want


@settings(max_examples=400, deadline=None)
@given(rows_with_infinities(), st.data())
def test_candidates_match_quadratic_reference(case, data):
    """The O(1)-residual propagation deduces what the O(n^2) rescan did, at
    the current state and at every earlier state of a trail of decisions."""
    variables, C, want = case
    t = Trail(variables)
    assert infinite_contributions(C, t.local_lb, t.local_ub) == want
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        decision = draw_decision(data, t)
        if decision is not None:
            t.push_decision(*decision)
    for state in [None, INITIAL_STATE] + [ch.state for ch in t.changes]:
        variables, lb, ub = box(t, state)
        assert propagate_candidates(C, variables, lb, ub) == reference_candidates(C, t, state)
        finite, infinite, contribs = activity(C.terms, lb, ub)
        assert infinite == infinite_contributions(C, lb, ub)
        assert (INF if infinite else finite) == reference_max_activity(C, lb, ub)
        for (j, _), contrib in zip(C.terms, contribs):
            rest = residual(finite, infinite, contrib)
            expected = reference_residual_max(C, j, lb, ub)
            assert rest == (expected if is_finite(expected) else None)


# -- slack against the widest global span ----------------------------------------


def reference_global_span(C, variables):
    """max_j |a_j|·(global ub_j − global lb_j), INF if any is unbounded."""
    return max(
        ext_add(ext_mul(abs(a), v.global_ub), ext_mul(-abs(a), v.global_lb))
        for v, a in ((variables[j], a) for j, a in C.terms)
    )


@st.composite
def rows_with_slack(draw):
    """Variables of every kind, some with an infinite global bound, and a row
    over them whose slack at the global bounds (max activity − rhs) is
    drawn around its widest global span, so that the span test both fires
    and falls through."""
    n = draw(st.integers(min_value=1, max_value=5))
    variables = []
    for j in range(n):
        kind = draw(st.sampled_from(list(VarKind)))
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        else:
            lb = F(draw(st.integers(-2, 1)))
            ub = lb + draw(st.integers(0, 3))
            if kind is VarKind.CONTINUOUS:
                lb -= F(draw(st.integers(0, 2)), 3)
            infinite = draw(st.sampled_from([None, None, None, "lb", "ub"]))
            if infinite == "lb":
                lb = NEG_INF
            elif infinite == "ub":
                ub = INF
        variables.append(Variable(j, f"v{j}", kind, lb, ub))
    terms = {
        j: F(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
        for j in draw(st.sets(st.integers(0, n - 1), min_size=1))
    }
    C = mk(terms, 0)
    top = max_activity(C, Trail(variables))
    span = reference_global_span(C, variables)
    if not is_finite(top):
        return variables, mk(terms, F(draw(st.integers(-6, 6)), draw(st.integers(1, 2))))
    slack = F(draw(st.integers(0, 8)), draw(st.integers(1, 2)))
    if is_finite(span):
        slack = draw(st.sampled_from([slack, span, span + slack, span - F(1, 2), 2 * span]))
    return variables, mk(terms, top - slack)


@settings(max_examples=400, deadline=None)
@given(rows_with_slack(), st.data())
def test_span_test_matches_reference(case, data):
    """Skipping a row whose slack covers its widest global span deduces what
    the quadratic reference does, at every state of a trail of decisions."""
    variables, C = case
    t = Trail(variables)
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        decision = draw_decision(data, t)
        if decision is not None:
            t.push_decision(*decision)
    assert C.global_span(t.variables) == reference_global_span(C, variables)
    for state in [None, INITIAL_STATE] + [ch.state for ch in t.changes]:
        assert propagate_candidates(C, *box(t, state)) == reference_candidates(C, t, state)


def test_span_is_kept_per_variables_object():
    """One row object under two variable tuples with different global bounds:
    the span cached for the first must not be read for the second."""
    C = mk({0: 1, 1: 1}, 0)  # x0 + x1 >= 0
    narrow = Trail(binary_vars(2))  # slack 2, span 1: implies nothing
    wide = Trail([Variable(j, f"z{j}", VarKind.INTEGER, F(-3), F(1)) for j in range(2)])
    # slack 2, span 4: z0 >= -1 and z1 >= -1
    for t in (narrow, wide, narrow, wide):
        assert propagate_candidates(C, *box(t)) == reference_candidates(C, t)
    assert propagate_candidates(C, *box(wide)).changes
    assert C.global_span(narrow.variables) == 1 and C.global_span(wide.variables) == 4
