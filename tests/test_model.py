"""Constraint canonical form, normalization round trips, problem building."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlearn.model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Variable,
    VarKind,
    activity,
    build_problem,
    complement,
    denormalize,
    evaluate,
    global_contributions,
    infeasible_over,
    literal_variables,
    normalize_for_reduction,
)
from cutlearn.rationals import INF, NEG_INF, int_if_integral

from conftest import F, binary_vars, mk, reference_max_activity

coefs = st.fractions(min_value=-100, max_value=100, max_denominator=10)


def small_constraints(n=4):
    return st.builds(
        lambda cs, rhs: LinearConstraint.from_dict(dict(enumerate(cs)), rhs),
        st.lists(coefs, min_size=n, max_size=n),
        coefs,
    )


def test_terms_sorted_and_sparse():
    C = LinearConstraint.from_dict({3: F(1), 0: F(2), 1: F(0)}, F(1))
    assert C.terms == ((0, F(2)), (3, F(1)))
    assert C.coef(1) == 0
    assert len(C) == 2


def test_origin_excluded_from_equality():
    a = LinearConstraint.from_dict({0: F(1)}, F(1), "model")
    b = LinearConstraint.from_dict({0: F(1)}, F(1), "learned:cmir")
    assert a == b


def test_canonical_scale():
    C = LinearConstraint.from_dict({0: F(2, 3), 1: F(-4, 3)}, F(1, 6))
    scaled = C.canonical_scale()
    assert scaled.terms == ((0, F(1)), (1, F(-2)))
    assert scaled.rhs == F(1, 4)
    assert scaled.canonical_scale() == scaled


def test_int_scaled():
    C = LinearConstraint.from_dict({0: F(1, 2), 1: F(-2, 3)}, F(1, 5))
    assert C.int_scaled() == (30, ((0, 15), (1, -20)), 6)
    scale, terms, rhs = mk({0: 2, 3: -1}, -4).int_scaled()
    assert (scale, terms, rhs) == (1, ((0, 2), (3, -1)), -4)
    assert all(type(a) is int for _, a in terms) and type(rhs) is int


def test_int_scaled_is_kept_out_of_equality_and_repr():
    """The integer form is computed once, is not part of the row's value,
    and carries over to the row under another origin."""
    C = LinearConstraint.from_dict({0: F(1, 2), 1: F(-2, 3)}, F(1, 5))
    fresh = LinearConstraint.from_dict({0: F(1, 2), 1: F(-2, 3)}, F(1, 5))
    form = C.int_scaled()
    assert C.int_scaled() is form
    assert C == fresh and hash(C) == hash(fresh) and repr(C) == repr(fresh)
    learned = C.with_origin("learned:cmir")
    assert learned == C and learned.origin == "learned:cmir"
    assert learned.int_scaled() is form
    assert fresh.with_origin("derived").int_scaled() == form


def test_global_contributions_are_kept_per_variables_object():
    """A row keeps its global contributions with the ``variables`` object
    they were computed for, and under another origin: one row under two
    variable tuples with different global bounds reads each tuple's own."""
    C = mk({0: 1, 1: -1}, 0)
    narrow = tuple(binary_vars(2))
    wide = tuple(Variable(j, f"z{j}", VarKind.INTEGER, F(-3), F(1)) for j in range(2))
    for vs in (narrow, wide, narrow, wide):
        fresh = LinearConstraint(C.terms, C.rhs)
        assert global_contributions(C, vs) == global_contributions(fresh, vs)
    kept = global_contributions(C, wide)
    assert global_contributions(C, wide)[0] is kept[0]
    assert kept[0] == (4, 0, (1, 3)) and kept[1] == (-4, 0, (-3, -1))
    learned = C.with_origin("learned:cmir")
    assert all(a is b for a, b in zip(global_contributions(learned, wide), kept))
    assert learned.global_span(wide) == 4 and learned.global_span(narrow) == 1


@given(st.dictionaries(st.integers(0, 6), coefs.filter(bool), max_size=5), coefs)
def test_int_scaled_is_the_row_times_its_scale(terms, rhs):
    C = LinearConstraint.from_dict(terms, rhs)
    scale, int_terms, int_rhs = C.int_scaled()
    scaled = C.scaled(scale)
    assert int_terms == scaled.terms and int_rhs == scaled.rhs
    assert all(type(a) is int for _, a in int_terms) and type(int_rhs) is int
    # The smallest such scale: the lcm of the denominators.
    for p in range(2, 8):
        if scale % p == 0:
            smaller = C.scaled(Fraction(scale, p))
            values = [a for _, a in smaller.terms] + [smaller.rhs]
            assert any(v.denominator != 1 for v in values)
    if C.terms:
        canon = C.canonical_scale()
        assert canon == C.scaled(canon.terms[0][1] / C.terms[0][1])
        assert all(a.denominator == 1 for _, a in canon.terms)
        assert math.gcd(*(a.numerator for _, a in canon.terms)) == 1


# -- the box kernel on the integer-scaled row ---------------------------------

# Rationals with denominators 1 to 7.
sevenths = st.builds(F, st.integers(-20, 20), st.integers(1, 7))


@st.composite
def rows_and_boxes(draw):
    """A row with coefficient and rhs denominators 1 to 7 and a box whose
    bounds are integral (as ``int`` or as ``Fraction``), fractional (a
    continuous variable's) or infinite."""
    n = draw(st.integers(1, 6))
    lb, ub = [], []
    for _ in range(n):
        lo = draw(sevenths)
        hi = lo + draw(sevenths.map(abs))
        if draw(st.booleans()):
            lo, hi = int_if_integral(lo), int_if_integral(hi)
        lb.append(NEG_INF if draw(st.integers(0, 4)) == 0 else lo)
        ub.append(INF if draw(st.integers(0, 4)) == 0 else hi)
    support = draw(st.sets(st.integers(0, n - 1), min_size=1))
    nonzero = st.builds(F, st.integers(-20, 20).filter(bool), st.integers(1, 7))
    coefs = {j: draw(nonzero) for j in support}
    return mk(coefs, draw(sevenths)), lb, ub


@settings(max_examples=300, deadline=None)
@given(rows_and_boxes())
def test_scaled_activity_matches_the_fraction_sum(case):
    """On C's own terms and on its integer-scaled ones, divided by the scale
    once, the box kernel's max activity is the plain Fraction sum, INF
    included, and ``infeasible_over`` compares it with the rhs."""
    C, lb, ub = case
    expected = reference_max_activity(C, lb, ub)
    scale, scaled_terms, _ = C.int_scaled()
    for terms, divisor in ((C.terms, 1), (scaled_terms, scale)):
        finite, infinite, _ = activity(terms, lb, ub)
        assert (INF if infinite else Fraction(finite, divisor)) == expected
    assert infeasible_over(C, lb, ub) == (expected < C.rhs)


def test_scaled_requires_positive_factor():
    C = mk({0: 1}, 1)
    with pytest.raises(ValueError):
        C.scaled(F(0))


def test_binary_bounds_enforced():
    with pytest.raises(ValueError):
        Variable(0, "x", VarKind.BINARY, F(0), F(2))
    with pytest.raises(ValueError):
        Variable(0, "z", VarKind.INTEGER, F(0), F(3, 2))
    with pytest.raises(ValueError):
        Variable(0, "y", VarKind.CONTINUOUS, F(1), F(0))


@pytest.mark.parametrize("kind", [VarKind.CONTINUOUS, VarKind.INTEGER])
def test_empty_domain_rejected(kind):
    """A lower bound of +inf or an upper bound of -inf admits no value."""
    for lb, ub in ((INF, INF), (NEG_INF, NEG_INF)):
        with pytest.raises(ValueError, match="empty domain"):
            Variable(0, "x", kind, lb, ub)
    Variable(0, "x", kind, NEG_INF, INF)  # a free variable is fine


@pytest.mark.parametrize(
    "lb, ub",
    [
        (0.1, F(1)),
        (F(0), 0.7),
        (0.1, 0.7),
        (float("nan"), F(1)),
        (F(0), float("nan")),
        (0.0, 1.0),
    ],
)
def test_finite_float_bound_rejected(lb, ub):
    """A finite float bound is binary-float residue in an exact solver:
    0.1 would enter propagation as 3602879701896397/36028797018963968.
    Only INF and NEG_INF may be floats, so nan and a binary's (0.0, 1.0)
    are refused too, under every kind."""
    for kind in VarKind:
        with pytest.raises(ValueError, match="float bound"):
            Variable(0, "x", kind, lb, ub)


def test_exact_and_infinite_bounds_accepted():
    Variable(0, "x", VarKind.CONTINUOUS, F(1, 10), F(7, 10))
    Variable(0, "z", VarKind.INTEGER, 0, 3)
    Variable(0, "y", VarKind.CONTINUOUS, float("-inf"), float("inf"))


@pytest.mark.parametrize(
    "build",
    [
        lambda x: LinearConstraint.from_dict({0: x}, F(1)),
        lambda x: LinearConstraint.from_dict({0: F(1)}, x),
        lambda x: build_problem(binary_vars(1), [({0: x}, ">=", F(0))]),
        lambda x: build_problem(binary_vars(1), [({0: F(1)}, "=", x)]),
        lambda x: build_problem(binary_vars(1), [], {0: x}),
        lambda x: BoundAtom(0, BoundKind.LOWER, x),
    ],
    ids=["coefficient", "rhs", "tuple_row", "tuple_rhs", "objective", "atom"],
)
@pytest.mark.parametrize("x", [0.1, 0.5, 0.0, INF, NEG_INF])
def test_float_value_rejected(build, x):
    """Only a variable's bound may be a float, and only INF or NEG_INF.
    A finite float would enter as binary-float residue (0.1 as
    3602879701896397/36028797018963968), and an infinite one would be read
    as an infinite bound by ``is_finite``'s type test."""
    with pytest.raises(ValueError, match="float"):
        build(x)


def test_build_problem_canonicalizes_senses():
    vs = binary_vars(2)
    p = build_problem(
        vs,
        [({0: F(1), 1: F(2)}, "<=", F(3)), ({0: F(1)}, "=", F(1))],
    )
    assert p.constraints[0] == mk({0: -1, 1: -2}, -3)
    assert p.constraints[1] == mk({0: 1}, 1)
    assert p.constraints[2] == mk({0: -1}, -1)
    # already-canonical rows pass through unchanged
    again = build_problem(vs, list(p.constraints))
    assert again.constraints == p.constraints


def test_build_problem_validation():
    vs = binary_vars(2)
    with pytest.raises(ValueError):
        build_problem(vs, [({5: F(1)}, ">=", F(0))])
    with pytest.raises(ValueError):
        build_problem(vs, [], {9: F(1)})
    with pytest.raises(ValueError):
        build_problem([vs[0], vs[0]], [])


def test_complement_is_involution():
    vs = binary_vars(3)
    C = mk({0: 2, 1: -3, 2: 1}, 4)
    once = complement(C, [1], vs)
    assert once.coef(1) == 3
    assert complement(once, [1], vs) == C


# None is a binary; (lb, width) an integer on [lb, lb + width].
boxes = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    min_size=4,
    max_size=4,
)


def _box_vars(spec):
    return [
        Variable(j, f"x{j}", VarKind.BINARY, F(0), F(1))
        if box is None
        else Variable(j, f"z{j}", VarKind.INTEGER, F(box[0]), F(box[0] + box[1]))
        for j, box in enumerate(spec)
    ]


@given(small_constraints(), st.integers(min_value=0, max_value=3), boxes)
def test_normalize_denormalize_roundtrip(C, r, spec):
    vs = _box_vars(spec)
    if C.coef(r) == 0:
        return
    norm, record = normalize_for_reduction(C, r, vs)
    assert norm.coef(r) == 1
    assert all(c >= 0 for _, c in norm.terms)
    # exactly the positive terms with a nonzero lower bound are shifted
    assert record.shifted == tuple(
        j for j, c in C.terms if c > 0 and vs[j].global_lb != 0
    )
    back = denormalize(norm, record, vs)
    # denormalization undoes complementation and shifts only; the positive
    # division by the divisor stays, so scaling back recovers the input
    # exactly
    assert record.divisor > 0
    assert back.scaled(record.divisor) == C
    # at every point of the box, each literal lies on its literal domain
    # and the normalized row's slack is C's slack over the divisor
    lits = literal_variables(norm, vs)
    for x in itertools.product(
        *(range(int(v.global_lb), int(v.global_ub) + 1) for v in vs)
    ):
        slack = sum(c * x[j] for j, c in C.terms) - C.rhs
        norm_slack = -norm.rhs
        for j, c in norm.terms:
            if j in record.complemented:
                lit = vs[j].global_ub - x[j]
            elif j in record.shifted:
                lit = x[j] - vs[j].global_lb
            else:
                lit = x[j]
            assert lits[j].global_lb == 0 <= lit <= lits[j].global_ub
            norm_slack += c * lit
        assert norm_slack == slack / record.divisor


def test_literal_variables_width():
    """Each of C's variables moves to [0, ub - lb]: the exact width when
    both global bounds are finite, INF when either is infinite.  Variables
    outside C keep their domains."""
    vs = [
        Variable(0, "a", VarKind.INTEGER, F(-2), INF),
        Variable(1, "b", VarKind.INTEGER, NEG_INF, F(3)),
        Variable(2, "c", VarKind.INTEGER, NEG_INF, INF),
        Variable(3, "d", VarKind.INTEGER, F(-2), F(5)),
        Variable(4, "y", VarKind.CONTINUOUS, F(1, 3), F(5, 2)),
        Variable(5, "e", VarKind.INTEGER, F(1), F(4)),
    ]
    lits = literal_variables(mk({0: 1, 1: -2, 2: 3, 3: -1, 4: 1}, 0), vs)
    assert [(v.global_lb, v.global_ub) for v in lits[:5]] == [
        (0, INF),
        (0, INF),
        (0, INF),
        (0, 7),
        (0, F(13, 6)),
    ]
    # Integral widths and the new lower bounds are ints.
    assert [type(v.global_lb) for v in lits[:5]] == [int] * 5
    assert type(lits[3].global_ub) is int and type(lits[4].global_ub) is Fraction
    assert [v.kind for v in lits] == [v.kind for v in vs]
    assert lits[5] is vs[5]


def test_normalize_divisor_tracks_sign():
    vs = binary_vars(2)
    C = mk({0: -2, 1: 4}, 3)
    norm, record = normalize_for_reduction(C, 0, vs)
    assert norm.coef(0) == 1
    assert 0 in record.complemented
    assert record.divisor == 2
    # forward again through the same record is the identity in literal space
    again, record2 = normalize_for_reduction(
        denormalize(norm, record, vs), 0, vs
    )
    assert again == norm
    assert record2.complemented == record.complemented


def test_bound_atom_holds():
    atom = BoundAtom(0, BoundKind.LOWER, F(1))
    assert atom.holds(F(1), F(1)) is True
    assert atom.holds(F(0), F(0)) is False
    assert atom.holds(F(0), F(1)) is None
    up = BoundAtom(0, BoundKind.UPPER, F(0))
    assert up.holds(F(0), F(0)) is True
    assert up.holds(F(1), F(1)) is False


def test_disjunction_validation():
    a = BoundAtom(0, BoundKind.LOWER, F(1))
    with pytest.raises(ValueError):
        BoundDisjunction(())
    with pytest.raises(ValueError):
        BoundDisjunction((a, BoundAtom(0, BoundKind.LOWER, F(2))))
    BoundDisjunction((a, BoundAtom(0, BoundKind.UPPER, F(0))))


def test_evaluate_slack():
    C = mk({0: 2, 1: -1}, 1)
    ev = evaluate(C, [F(1), F(0)])
    assert ev.satisfied and ev.slack == 1
    ev = evaluate(C, [F(0), F(1)])
    assert not ev.satisfied and ev.slack == -2
