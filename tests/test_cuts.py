"""Strengthening operators and binary reason reductions, checked by enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.cuts import (
    CutError,
    ReductionError,
    ReductionStrategy,
    cg_cut,
    coef_tighten,
    mir_cut,
    reduce_clause,
    reduce_cmir,
    reduce_coeftight,
    reduce_reason,
    reduce_wmir,
    resolve,
    weaken,
)
from cutlearn.conflict import resolve_general_integer
from cutlearn.model import (
    BoundKind,
    Variable,
    VarKind,
    activity,
    complement,
    denormalize,
    evaluate,
    normalize_for_reduction,
)
from cutlearn.propagation import propagate_candidates
from cutlearn.rationals import INF, NEG_INF, is_integral
from cutlearn.trail import RowReason, Trail

import reduction_reference as ref
from conftest import F, binary_vars, box, max_activity, mk


def binary_points(n):
    return itertools.product(*([[F(0), F(1)]] * n))


def feasible_points(C, n):
    return [p for p in binary_points(n) if evaluate(C, list(p)).satisfied]


# -- generalized resolution ---------------------------------------------------


def test_resolve_cancels_with_unit_weight_on_first():
    C1 = mk({0: 1, 1: -2, 2: 1}, 1)
    C2 = mk({1: 4, 2: 1}, 2)
    out = resolve(C1, C2, 1)
    # C2 scaled by 2/4, added to C1 unchanged
    assert out == mk({0: 1, 2: F(3, 2)}, 2)
    assert out.coef(1) == 0


def test_resolve_rejects_bad_operands():
    C1 = mk({0: 1}, 1)
    with pytest.raises(CutError):
        resolve(C1, mk({1: 1}, 0), 0)  # var missing from one side
    with pytest.raises(CutError):
        resolve(C1, mk({0: 2}, 0), 0)  # same-sign coefficients


@settings(max_examples=100)
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
def test_resolve_preserves_feasible_points(c1, c2, r1, r2):
    C1 = mk(dict(enumerate(c1)), r1)
    C2 = mk(dict(enumerate(c2)), r2)
    a1, a2 = C1.coef(0), C2.coef(0)
    if a1 == 0 or a2 == 0 or (a1 > 0) == (a2 > 0):
        return
    out = resolve(C1, C2, 0)
    for p in binary_points(3):
        if evaluate(C1, list(p)).satisfied and evaluate(C2, list(p)).satisfied:
            assert evaluate(out, list(p)).satisfied


@st.composite
def resolution_cases(draw):
    """Binary, general-integer and continuous variables, the last with
    fractional bounds; two rows over them with fractional coefficients and
    right-hand sides; and a variable to resolve on, on which the two rows
    mostly have opposite signs."""
    n = draw(st.integers(1, 6))
    vs = []
    for j in range(n):
        kind = draw(st.sampled_from(list(VarKind)))
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        else:
            step = 1 if kind is VarKind.INTEGER else draw(st.integers(1, 4))
            lb = F(draw(st.integers(-3, 3)), step)
            ub = lb + draw(st.integers(0, 4))
        vs.append(Variable(j, f"v{j}", kind, lb, ub))
    nonzero = st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 9))
    rhs = st.builds(F, st.integers(-12, 12), st.integers(1, 9))
    var = draw(st.integers(0, n - 1))
    rows = []
    for _ in range(2):
        support = draw(st.sets(st.integers(0, n - 1), max_size=n))
        rows.append({j: draw(nonzero) for j in support})
    if draw(st.integers(0, 3)):
        a = draw(nonzero)
        rows[0][var] = a
        rows[1][var] = -abs(draw(nonzero)) if a > 0 else abs(draw(nonzero))
    C1, C2 = (mk(terms, draw(rhs)) for terms in rows)
    return vs, C1, C2, var


def _outcome(f, *args):
    try:
        return f(*args)
    except CutError as exc:
        return f"CutError: {exc}"


@settings(max_examples=500, deadline=None)
@given(resolution_cases())
def test_resolve_matches_the_fraction_composition(case):
    """``resolve`` on the integer-scaled rows gives the Fraction composition
    C1 + (|a1|/|a2|)·C2, the same integer-scaled form as a fresh row, and
    the same CutErrors; so does ``coef_tighten`` on the resolvent, which
    clips on the form ``resolve`` attached."""
    vs, C1, C2, var = case
    want = _outcome(ref.resolve_in_fractions, C1, C2, var)
    out = _outcome(resolve, C1, C2, var)
    assert out == want
    if isinstance(want, str):
        return
    assert out.origin == "derived" and out.coef(var) == 0
    assert out.int_scaled() == want.int_scaled()
    tight, want_tight = (_outcome(coef_tighten, row, vs) for row in (out, want))
    assert tight == want_tight
    if not isinstance(tight, str):
        assert tight.int_scaled() == mk(tight.as_dict(), tight.rhs).int_scaled()


# -- single-constraint operators ---------------------------------------------


def test_weaken_pays_the_dropped_bound():
    vs = binary_vars(3)
    C = mk({0: 2, 1: -3, 2: 1}, 2)
    assert weaken(C, 0, vs) == mk({1: -3, 2: 1}, 0)
    assert weaken(C, 1, vs) == mk({0: 2, 2: 1}, 2)
    assert set(feasible_points(C, 3)) <= set(feasible_points(weaken(C, 0, vs), 3))
    with pytest.raises(CutError):
        weaken(C, 2 + 1, vs)
    y = Variable(0, "y", VarKind.CONTINUOUS, F(0), float("inf"))
    with pytest.raises(CutError):
        weaken(mk({0: 1}, 0), 0, [y])


def test_complement_operator_is_involution():
    vs = binary_vars(2)
    C = mk({0: 3, 1: -1}, 2)
    flipped = complement(C, [0], vs)
    assert flipped == mk({0: -3, 1: -1}, -1)
    assert complement(flipped, [0], vs) == C
    # the flipped row holds at x0 exactly when C holds at 1 - x0
    for p in binary_points(2):
        assert (
            evaluate(C, list(p)).satisfied
            == evaluate(flipped, [1 - p[0], p[1]]).satisfied
        )


def test_coef_tighten_general_bounds():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(-1), F(2)),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]
    C = mk({0: 5, 1: 1}, 3)
    out = coef_tighten(C, vs)
    # btilde = 3 - (5*(-1) + 0) = 8; 5 < 8 so z untouched here
    assert out == C
    C2 = mk({0: 1, 1: 4}, 2)
    out2 = coef_tighten(C2, vs)
    # btilde = 2 - (-1) = 3; the x coefficient 4 > 3 clips to 3
    assert out2 == mk({0: 1, 1: 3}, 2)
    pts = [
        (F(z), F(x)) for z in range(-1, 3) for x in (0, 1)
    ]
    for p in pts:
        assert evaluate(C2, list(p)).satisfied == evaluate(out2, list(p)).satisfied
    with pytest.raises(CutError):
        coef_tighten(mk({1: 1}, -1), vs)  # redundant row


def test_coef_tighten_clips_to_a_fractional_gap():
    """A continuous lower bound of 1/3 makes the gap b - minact fractional:
    the clipped coefficient and the attached integer form carry it."""
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(1, 3), F(2)),
    ]
    out = coef_tighten(mk({0: 3, 1: 1}, 2), vs)
    # btilde = 2 - 1/3 = 5/3 < 3
    assert out == mk({0: F(5, 3), 1: 1}, 2)
    assert out.int_scaled() == (3, ((0, 5), (1, 3)), 6)


def test_coef_tighten_matches_saturation_on_01_rows():
    vs = binary_vars(3)
    C = mk({0: 5, 1: 2, 2: 1}, 2)
    out = coef_tighten(C, vs)
    # every coefficient clipped to the rhs
    assert out == mk({0: 2, 1: 2, 2: 1}, 2)
    assert feasible_points(C, 3) == feasible_points(out, 3)


def test_cg_cut():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(4)),
        Variable(1, "w", VarKind.INTEGER, F(0), F(4)),
    ]
    C = mk({0: F(1, 2), 1: F(3, 2)}, F(5, 4))
    out = cg_cut(C, vs)
    assert out == mk({0: 1, 1: 2}, 2)
    for z in range(5):
        for w in range(5):
            if evaluate(C, [F(z), F(w)]).satisfied:
                assert evaluate(out, [F(z), F(w)]).satisfied
    with pytest.raises(CutError):
        cg_cut(C, [Variable(0, "y", VarKind.CONTINUOUS, F(0), F(4)), vs[1]])
    with pytest.raises(CutError):
        cg_cut(C, [Variable(0, "z", VarKind.INTEGER, F(1), F(4)), vs[1]])


def test_mir_cut_mixed():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(10)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(10)),
    ]
    C = mk({0: 1, 1: 1}, F(3, 2))
    out = mir_cut(C, vs)
    # f(b) = 1/2: z keeps coefficient 1, y becomes y/f(b) = 2y, rhs rounds to 2
    assert out == mk({0: 1, 1: 2}, 2)
    for z in range(4):
        for y in (F(0), F(1, 4), F(1, 2), F(1), F(2)):
            if evaluate(C, [F(z), y]).satisfied:
                assert evaluate(out, [F(z), y]).satisfied
    with pytest.raises(CutError):
        mir_cut(mk({0: 1}, 2), vs)  # integral rhs


def test_mir_cut_drops_nonpositive_continuous():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(10)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(10)),
    ]
    C = mk({0: 1, 1: -1}, F(1, 2))
    out = mir_cut(C, vs)
    assert out == mk({0: 1}, 1)


# -- reason reductions, first worked pipeline ---------------------------------


def _pipeline_one():
    """Reason x1+x2+2x3 >= 2 propagates x3 under x1 <= 0; the conflict
    x1-2x3+x4+x5 >= 1 resolves on x3."""
    vs = binary_vars(5)
    Cr = mk({0: 1, 1: 1, 2: 2}, 2)
    Cc = mk({0: 1, 2: -2, 3: 1, 4: 1}, 1)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    return Cr, Cc, t


def test_plain_resolvent_can_stay_feasible():
    Cr, Cc, t = _pipeline_one()
    naive = resolve(Cc, Cr, 2)
    assert naive == mk({0: 2, 1: 1, 3: 1, 4: 1}, 3)
    assert max_activity(naive, t) >= naive.rhs  # no conflict explained


def test_reductions_restore_infeasible_resolvent():
    Cr, Cc, t = _pipeline_one()
    s = t.current_state
    ct = reduce_coeftight(Cr, Cc, 2, *box(t, s))
    cm = reduce_cmir(Cr, 2, *box(t, s))
    cl = reduce_clause(Cr, 2, *box(t, s))
    assert ct == cm == cl == mk({0: 1, 2: 1}, 1)
    res = resolve(Cc, ct, 2)
    assert res == mk({0: 3, 3: 1, 4: 1}, 3)
    assert max_activity(res, t) < res.rhs


def test_reduced_reason_cuts_fractional_vertex():
    """The reduced reason x1 + x3 >= 1 separates the fractional point
    (0, 1, 1/2) that satisfies the original reason with equality."""
    Cr, _, _ = _pipeline_one()
    reduced = mk({0: 1, 2: 1}, 1)
    point = [F(0), F(1), F(1, 2), F(0), F(0)]
    assert evaluate(Cr, point).satisfied
    assert not evaluate(reduced, point).satisfied


def test_reductions_keep_integer_points_of_the_reason():
    Cr, Cc, t = _pipeline_one()
    s = t.current_state
    for strategy in ReductionStrategy:
        red = reduce_reason(strategy, Cr, Cc, 2, *box(t, s))
        for p in binary_points(5):
            if p[0] != 0:  # only points inside the local box
                continue
            if evaluate(Cr, list(p)).satisfied:
                assert evaluate(red, list(p)).satisfied, (strategy, p)


def test_reduced_reason_still_propagates():
    Cr, Cc, t = _pipeline_one()
    s = t.current_state
    for strategy in ReductionStrategy:
        red = reduce_reason(strategy, Cr, Cc, 2, *box(t, s))
        result = propagate_candidates(red, *box(t, s))
        assert any(
            c.var == 2 and c.kind is BoundKind.LOWER and c.value >= 1
            for c in result.changes
        ), strategy


# -- second pipeline: weakening identity --------------------------------------


def _pipeline_two():
    vs = binary_vars(4)
    C = mk({0: 3, 1: 3, 2: 3, 3: 2}, 7)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    return C, t


def test_wmir_weakens_before_rounding():
    C, t = _pipeline_two()
    s = t.current_state
    w = reduce_wmir(C, 3, *box(t, s))
    c = reduce_cmir(C, 3, *box(t, s))
    assert w == mk({0: 2, 3: 1}, 1)
    assert c == mk({0: 2, 1: 1, 2: 1, 3: 1}, 3)


def test_wmir_equals_weakened_cmir():
    C, t = _pipeline_two()
    s = t.current_state
    w = reduce_wmir(C, 3, *box(t, s))
    c = reduce_cmir(C, 3, *box(t, s))
    assert weaken(weaken(c, 1, t.variables), 2, t.variables) == w


def test_cmir_dominates_wmir_pointwise():
    C, t = _pipeline_two()
    s = t.current_state
    w = reduce_wmir(C, 3, *box(t, s))
    c = reduce_cmir(C, 3, *box(t, s))
    for p in binary_points(4):
        if evaluate(c, list(p)).satisfied:
            assert evaluate(w, list(p)).satisfied
    # and strictly: a point kept by wmir but cut by cmir
    p = [F(1), F(0), F(0), F(0)]
    assert evaluate(w, p).satisfied and not evaluate(c, p).satisfied


@st.composite
def non_tight_binary_reasons(draw):
    """A pure-binary reason, its resolved variable r and a box of fixings at
    which the reason propagates r with a fractional gap in (0, 1)."""
    n = draw(st.integers(2, 6))
    vs = binary_vars(n)
    r = draw(st.integers(0, n - 1))
    lb, ub = [0] * n, [1] * n
    for j in range(n):
        fixing = draw(st.sampled_from(["free", "zero", "one"]))
        if j != r and fixing == "zero":
            ub[j] = 0
        elif j != r and fixing == "one":
            lb[j] = 1
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    terms = {j: draw(nonzero) for j in sorted(draw(st.sets(st.integers(0, n - 1))) | {r})}
    others = sum(a * (ub[j] if a > 0 else lb[j]) for j, a in terms.items() if j != r)
    gap = draw(st.fractions(min_value=0, max_value=1, max_denominator=6).filter(
        lambda g: 0 < g < 1
    ))
    a_r = terms[r]
    rhs = others + a_r * (gap if a_r > 0 else 1 - gap)
    return mk(terms, rhs), r, vs, lb, ub


@settings(max_examples=300, deadline=None)
@given(non_tight_binary_reasons())
def test_wmir_dominates_division(case):
    """The paper's dominance claim, in literal space: after the fractional
    unfixed literals are weakened, the MIR cut (``reduce_wmir``) and the
    division cut (Chvátal-Gomory rounding of the reason, whose resolved
    literal has coefficient 1) are both valid on the reason's 0/1 points,
    share the rhs, and wmir's coefficients are at most division's."""
    C, r, vs, lb, ub = case
    norm, record = normalize_for_reduction(C, r, vs)
    work = norm
    for j, a in norm.terms:
        unfixed = lb[j] == 0 if j in record.complemented else ub[j] == 1
        if j != r and unfixed and not is_integral(a):
            work = weaken(work, j, vs)
    wmir, division = mir_cut(work, vs), cg_cut(work, vs)
    assert denormalize(wmir, record, vs) == reduce_wmir(C, r, vs, lb, ub)
    for p in feasible_points(norm, len(vs)):
        assert evaluate(wmir, list(p)).satisfied
        assert evaluate(division, list(p)).satisfied
    assert wmir.rhs == division.rhs
    for j, _ in work.terms:
        assert wmir.coef(j) <= division.coef(j)


# -- divergence between rounding and tightening reductions --------------------


def _witness_setup():
    """Reason whose rounding reduction cuts a point the tightening one keeps."""
    vs = binary_vars(6)  # index 5 is a slack for the synthetic conflict
    C = mk({0: 6, 1: -6, 2: 4, 3: 3, 4: 6}, 8)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    result = propagate_candidates(C, *box(t))
    cand = next(c for c in result.changes if c.var == 1)
    assert (cand.kind, cand.value, cand.pre_rounding) == (
        BoundKind.UPPER,
        F(0),
        F(5, 6),
    )
    t.push_deduction(cand.var, cand.kind, cand.value, RowReason(0, C), cand.pre_rounding)
    Cc = mk({1: 4, 5: 1}, 4)
    return C, Cc, t


def test_rounding_reduction_beats_tightening_on_a_point():
    C, Cc, t = _witness_setup()
    s = t.current_state
    cm = reduce_cmir(C, 1, *box(t, s))
    ct = reduce_coeftight(C, Cc, 1, *box(t, s))
    assert cm == mk({0: 1, 1: -1, 4: 1}, 1)
    assert ct == mk({0: 1, 1: -1}, 0)
    origin = [F(0)] * 6
    assert evaluate(ct, origin).satisfied
    assert not evaluate(cm, origin).satisfied
    # one-way dominance: the single-sweep tightening never cuts a point the
    # rounding reduction keeps
    for p in binary_points(6):
        if evaluate(cm, list(p)).satisfied:
            assert evaluate(ct, list(p)).satisfied


# -- failure modes ------------------------------------------------------------


def test_reduction_rejects_tight_reason():
    vs = binary_vars(2)
    C = mk({0: 1, 1: 1}, 1)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    # C propagates x2 >= 1 with integral pre-rounding: nothing to reduce
    with pytest.raises(ReductionError):
        reduce_cmir(C, 1, *box(t))
    with pytest.raises(ReductionError):
        reduce_wmir(C, 1, *box(t))


def test_reduction_rejects_non_binary_support():
    vs = [
        Variable(0, "z", VarKind.INTEGER, F(0), F(5)),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]
    C = mk({0: F(1), 1: F(3, 2)}, F(3, 2))
    t = Trail(vs)
    with pytest.raises(ReductionError):
        reduce_cmir(C, 1, *box(t))


def test_coeftight_returns_input_when_resolvent_already_infeasible():
    vs = binary_vars(2)
    Cr = mk({0: 1, 1: 1}, 1)
    Cc = mk({1: -1}, 0)
    t = Trail(vs)
    t.push_decision(0, BoundKind.UPPER, 0)
    # resolve gives x1 >= 1, infeasible under x1 <= 0: nothing to do
    assert reduce_coeftight(Cr, Cc, 1, *box(t)) == Cr


# -- differential test against the earlier reductions ------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def reduction_cases(draw):
    """A reason through a resolved variable r, a conflict row on r with the
    opposite sign and a trail of local bound changes.  Binary cases have
    mixed-sign fractional coefficients and a right-hand side placed so the
    reason propagates r with a gap around (0, 1); general cases add integer
    and continuous variables with zero, positive, negative and infinite
    global bounds."""
    n = draw(st.integers(min_value=2, max_value=5))
    general = draw(st.booleans())
    vs = []
    for j in range(n):
        kind = VarKind.BINARY
        if general:
            kind = draw(st.sampled_from(list(VarKind)))
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        elif kind is VarKind.INTEGER:
            lb = draw(st.sampled_from([NEG_INF, F(-3), F(-1), F(0), F(2)]))
            base = F(0) if lb == NEG_INF else lb
            ub = draw(st.sampled_from([INF, base, base + 1, base + 3]))
        else:
            lb = draw(st.sampled_from([NEG_INF, F(-1), F(0), F(1, 2)]))
            base = F(0) if lb == NEG_INF else lb
            ub = draw(st.sampled_from([INF, base + F(1, 2), base + 2]))
        vs.append(Variable(j, f"v{j}", kind, lb, ub))
    t = Trail(vs)
    anchor = mk({0: 1}, 0)
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        lo, hi = t.local_lb[j], t.local_ub[j]
        kind = draw(st.sampled_from([BoundKind.LOWER, BoundKind.UPPER]))
        if lo == NEG_INF:
            mid = F(0) if hi == INF else hi - 1
        else:
            mid = lo + 1 if hi == INF else F(lo + hi) / 2
        value = mid
        if vs[j].is_integral:
            value = math.floor(mid) if kind is BoundKind.UPPER else math.ceil(mid)
        if (kind is BoundKind.LOWER and value <= lo) or (
            kind is BoundKind.UPPER and value >= hi
        ):
            continue
        if vs[j].is_integral:
            t.push_decision(j, kind, value)
        else:
            t.push_deduction(j, kind, value, RowReason(0, anchor))
    lb, ub = t.local_lb, t.local_ub
    r = draw(st.integers(0, n - 1))
    nonzero = small_fracs.filter(lambda c: c != 0)
    support = draw(st.sets(st.integers(0, n - 1))) | {r}
    terms = {j: draw(nonzero) for j in sorted(support)}
    others = mk({j: c for j, c in terms.items() if j != r}, 0)
    finite, infinite, _ = activity(others.terms, lb, ub)
    gap = draw(st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=6))
    a_r = terms[r]
    if infinite or draw(st.integers(0, 9)) == 0:
        rhs = draw(small_fracs)
    elif a_r > 0:
        rhs = finite + a_r * gap
    else:
        rhs = finite + a_r * (1 - gap)
    reason = mk(terms, rhs)
    confl_terms = {j: draw(nonzero) for j in draw(st.sets(st.integers(0, n - 1)))}
    confl_terms[r] = -draw(st.integers(1, 3)) if a_r > 0 else draw(st.integers(1, 3))
    # Place the plain resolvent's slack at the state near 0, where the
    # reduction of the reason decides whether the resolvent stays infeasible.
    plain = resolve(mk(confl_terms, 0), reason, r)
    finite, infinite, _ = activity(plain.terms, lb, ub)
    slack = draw(st.fractions(min_value=-1, max_value=1, max_denominator=4))
    confl = mk(confl_terms, slack if infinite else finite - plain.rhs - slack)
    return reason, confl, r, t


def _reduction_outcome(f, *args):
    """A returned constraint with its origin, or the exception's type and
    message.

    The general-integer separation is mapped to one form for both APIs: the
    solver returns the reason itself where the reference returns the plain
    resolvent, and raises where the reference returns ``FAILED``.
    """
    try:
        out = f(*args)
    except (ValueError, ReductionError) as exc:
        return type(exc), str(exc)
    if out is ref.FAILED:
        return ReductionError, "general-integer resolution failed"
    if isinstance(out, ref.Resolved):
        return "plain resolvent", out.constraint
    if f is resolve_general_integer and out is args[0]:
        reason, confl, r = args[:3]
        return "plain resolvent", resolve(confl, reason, r)
    if isinstance(out, ref.SeparationCut):
        out = out.constraint
    return out, out.origin


@settings(max_examples=600, deadline=None)
@given(reduction_cases())
def test_reductions_match_reference(case):
    """The reductions and the general-integer separation give exactly the
    constraints and failures of ``tests/reduction_reference.py``.  The one
    allowed difference: a non-binary reason the reference could not bring
    to literal space (ValueError) is now refused as a ReductionError."""
    reason, confl, r, t = case
    s = t.current_state
    pairs = [
        (reduce_clause, ref.reduce_clause, (reason, r)),
        (reduce_coeftight, ref.reduce_coeftight, (reason, confl, r)),
        (reduce_cmir, ref.reduce_cmir, (reason, r)),
        (reduce_wmir, ref.reduce_wmir, (reason, r)),
        (resolve_general_integer, ref.resolve_general_integer, (reason, confl, r)),
    ]
    for new, old, args in pairs:
        got = _reduction_outcome(new, *args, *box(t, s))
        want = _reduction_outcome(old, *args, t, s)
        if want[0] is ValueError and got[0] is ReductionError:
            # the reference complemented before it checked the support
            assert "cannot complement" in want[1]
            assert got[1] == "binary reduction applied to a non-binary reason"
            continue
        assert got == want, (new.__name__, reason, confl, r)
