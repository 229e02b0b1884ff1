"""The enumeration/projection oracle against direct brute force."""

import dataclasses
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
    build_problem,
    evaluate,
)
from cutlearn.corpus import random_mbp_problem
from cutlearn.oracle import (
    FM_ROW_CAP,
    LIMIT_REASON,
    MAX_ASSIGNMENTS,
    OracleError,
    OracleOptimum,
    check_answer,
    enumerate_feasible,
    fm_eliminate,
    oracle_optimum,
    validate_learned,
)
from cutlearn.rationals import INF, NEG_INF
from cutlearn.search import solve

import oracle_reference as ref
from conftest import F, binary_problem, binary_vars, mk

coefs = st.integers(min_value=-3, max_value=3)


def brute_points(problem):
    """Direct filter over the binary box, independent of the oracle."""
    n = len(problem.variables)
    out = []
    for p in itertools.product(*([[F(0), F(1)]] * n)):
        if all(evaluate(C, list(p)).satisfied for C in problem.constraints):
            out.append(p)
    return out


# -- projection ---------------------------------------------------------------


def test_fm_eliminate_small_system():
    # x + y >= 2, -y >= -3  =>  x >= -1 after eliminating y
    system = [({0: F(1), 1: F(1)}, F(2)), ({1: F(-1)}, F(-3))]
    out = fm_eliminate(system, 1)
    assert out == [({0: F(1)}, F(-1))]


def test_fm_eliminate_detects_empty_interval():
    # y >= 2 and -y >= -1 project to the contradictory row 0 >= 1
    system = [({0: F(1)}, F(2)), ({0: F(-1)}, F(-1))]
    out = fm_eliminate(system, 0)
    assert out == [({}, F(1))]


def test_fm_eliminate_row_cap():
    system = [({0: F(1), 1: F(i + 1)}, F(0)) for i in range(30)]
    system += [({0: F(-1), 1: F(-(i + 1))}, F(0)) for i in range(30)]
    with pytest.raises(OracleError):
        fm_eliminate(system, 0, cap=100)


# -- enumeration --------------------------------------------------------------


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.lists(coefs, min_size=4, max_size=4), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_enumerate_matches_direct_filter(rows):
    problem = binary_problem(4, [(dict(enumerate(cs)), r) for cs, r in rows])
    got = {
        tuple(a[j] for j in range(4)) for a in enumerate_feasible(problem)
    }
    assert got == set(brute_points(problem))


def test_enumerate_mixed_continuous():
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(2)),
    ]
    # y >= 3 - 2x is only satisfiable within y <= 2 when x = 1
    p = build_problem(vs, [({0: F(2), 1: F(1)}, ">=", F(3))])
    assert enumerate_feasible(p) == [{0: F(1)}]


def _fm_blowup_problem():
    """One binary and one continuous y with n rows y >= -k and n rows
    -y >= -100 - k: eliminating y pairs them into n * n > FM_ROW_CAP rows."""
    n = math.isqrt(FM_ROW_CAP) + 1
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(200)),
    ]
    rows = [({1: F(1)}, ">=", F(-k)) for k in range(n)]
    rows += [({1: F(-1)}, ">=", F(-100 - k)) for k in range(n)]
    return build_problem(vs, rows)


def test_size_caps():
    wide = [
        Variable(i, f"z{i}", VarKind.INTEGER, F(0), F(1000)) for i in range(5)
    ]
    continuous = [
        Variable(i, f"y{i}", VarKind.CONTINUOUS, F(0), F(1)) for i in range(7)
    ]
    free = [Variable(0, "z", VarKind.INTEGER, NEG_INF, F(0))]
    refusals = [
        (binary_problem(21, []), "21 integral variables exceed"),
        (build_problem(continuous, []), "7 continuous variables exceed"),
        (build_problem(wide, []), f"larger than {MAX_ASSIGNMENTS} assignments"),
        (build_problem(free, []), "'z' has an infinite domain"),
        (_fm_blowup_problem(), "Fourier-Motzkin blowup"),
    ]
    learned = [
        mk({0: 1}, 0),
        BoundDisjunction((BoundAtom(0, BoundKind.LOWER, F(1)),)),
    ]
    for problem, match in refusals:
        with pytest.raises(OracleError, match=match):
            oracle_optimum(problem)
        with pytest.raises(OracleError, match=match):
            enumerate_feasible(problem)
        for obj in learned:
            with pytest.raises(OracleError, match=match):
                validate_learned(problem, obj)


# -- optimization -------------------------------------------------------------


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.lists(coefs, min_size=3, max_size=3), st.integers(-2, 2)),
        min_size=1,
        max_size=3,
    ),
    st.lists(coefs, min_size=3, max_size=3),
)
def test_optimum_matches_direct_minimum(rows, obj):
    problem = binary_problem(
        3, [(dict(enumerate(cs)), r) for cs, r in rows], dict(enumerate(obj))
    )
    pts = brute_points(problem)
    got = oracle_optimum(problem)
    if not pts:
        assert got.status == "infeasible"
    else:
        want = min(sum(F(c) * p[j] for j, c in enumerate(obj)) for p in pts)
        assert got.status == "optimal" and got.value == want
        w = list(got.witness)
        assert all(evaluate(C, w).satisfied for C in problem.constraints)
        assert sum(F(c) * w[j] for j, c in enumerate(obj)) == want


def test_optimum_with_continuous_objective():
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(5)),
    ]
    # minimize y subject to y >= 2 - 2x: optimum 0 at x = 1
    p = build_problem(vs, [({0: F(2), 1: F(1)}, ">=", F(2))], {1: F(1)})
    got = oracle_optimum(p)
    assert got.status == "optimal" and got.value == 0
    # with a reward for y the continuous part would be unbounded-free; keep
    # the minimization direction and check the mixed witness is feasible
    assert evaluate(p.constraints[0], list(got.witness)).satisfied


def test_optimum_with_fractional_continuous_objective():
    """The objective's scale (6 for x/2 + y/3) does not scale the value of
    its continuous part."""
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(1), F(5)),
    ]
    p = build_problem(vs, [({0: F(1), 1: F(1)}, ">=", F(1))], {0: F(1, 2), 1: F(1, 3)})
    got = oracle_optimum(p)
    assert got == OracleOptimum("optimal", F(1, 3), (F(0), F(1)))


def test_optimum_pure_continuous_feasibility():
    vs = [Variable(0, "y", VarKind.CONTINUOUS, F(0), F(1))]
    p = build_problem(vs, [({0: F(1)}, ">=", F(1, 2))])
    got = oracle_optimum(p)
    assert got.status == "optimal" and got.witness[0] >= F(1, 2)
    infeas = build_problem(vs, [({0: F(1)}, ">=", F(2))])
    assert oracle_optimum(infeas).status == "infeasible"


# -- learned-object validation ------------------------------------------------


def test_validate_row_accepts_implied_and_rejects_cutting():
    p = binary_problem(3, [({0: 1, 1: 1, 2: 1}, 2)])
    assert validate_learned(p, mk({0: 1, 1: 1, 2: 1}, 1))
    assert validate_learned(p, mk({0: 1, 1: 1}, 1))
    # x1 >= 1 wrongly cuts (0, 1, 1)
    assert not validate_learned(p, mk({0: 1}, 1))


def test_validate_row_with_continuous_part():
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(2)),
        Variable(2, "w", VarKind.CONTINUOUS, NEG_INF, F(0)),
    ]
    p = build_problem(vs, [({0: F(2), 1: F(1)}, ">=", F(3))])
    # implied: feasibility forces x = 1 and y >= 1
    assert validate_learned(p, mk({0: 1}, 1))
    assert validate_learned(p, mk({1: 1}, 1))
    assert not validate_learned(p, mk({1: 1}, F(3, 2)))
    # w <= 0 bounds -w below, but nothing bounds w or y + w below
    assert validate_learned(p, mk({2: -1}, 0))
    assert not validate_learned(p, mk({2: 1}, -100))
    assert not validate_learned(p, mk({1: 1, 2: 1}, -100))


def test_validate_disjunction():
    p = binary_problem(2, [({0: 1, 1: 1}, 1)])
    good = BoundDisjunction(
        (
            BoundAtom(0, BoundKind.LOWER, F(1)),
            BoundAtom(1, BoundKind.LOWER, F(1)),
        )
    )
    assert validate_learned(p, good)
    bad = BoundDisjunction((BoundAtom(0, BoundKind.LOWER, F(1)),))
    assert not validate_learned(p, bad)
    # On an integral z, z >= 5/2 holds iff z >= 3 and z <= 5/2 iff z <= 2.
    z = [Variable(0, "z", VarKind.INTEGER, F(0), F(5))]
    lower = BoundDisjunction((BoundAtom(0, BoundKind.LOWER, F(5, 2)),))
    upper = BoundDisjunction((BoundAtom(0, BoundKind.UPPER, F(5, 2)),))
    for rows, lower_valid, upper_valid in [
        ([({0: F(1)}, ">=", F(3))], True, False),  # z in [3, 5]
        ([({0: F(1)}, ">=", F(2))], False, False),  # z = 2 and z = 3 feasible
        ([({0: F(1)}, "<=", F(2))], False, True),  # z in [0, 2]
        ([({0: F(1)}, "<=", F(3))], False, False),  # z = 3 feasible
    ]:
        p = build_problem(z, rows)
        assert validate_learned(p, lower) is lower_valid, rows
        assert validate_learned(p, upper) is upper_valid, rows


def test_validate_disjunction_continuous_atom():
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, F(0), F(2)),
    ]
    p = build_problem(vs, [({0: F(2), 1: F(1)}, ">=", F(3))])
    assert validate_learned(
        p, BoundDisjunction((BoundAtom(1, BoundKind.LOWER, F(1)),))
    )
    assert not validate_learned(
        p, BoundDisjunction((BoundAtom(1, BoundKind.LOWER, F(3, 2)),))
    )
    # y <= 1 as well forces y = 1: each atom's slack is exactly 0 there
    pinned = build_problem(
        vs, [({0: F(2), 1: F(1)}, ">=", F(3)), ({1: F(1)}, "<=", F(1))]
    )
    for kind in BoundKind:
        atom = BoundAtom(1, kind, F(1))
        assert validate_learned(pinned, BoundDisjunction((atom,)))
    assert not validate_learned(
        pinned, BoundDisjunction((BoundAtom(1, BoundKind.UPPER, F(1, 2)),))
    )


def test_validate_rejects_undeclared_variables():
    """Index n is past the last variable of an n-variable problem."""
    p = binary_problem(1, [])
    for obj, j in [
        (mk({1: 1}, -5), 1),
        (mk({0: 1, 2: 1}, -5), 2),
        (BoundDisjunction((BoundAtom(1, BoundKind.LOWER, F(0)),)), 1),
    ]:
        with pytest.raises(ValueError, match=f"undeclared variable index {j}$"):
            validate_learned(p, obj)


def test_validate_on_infeasible_problem_is_vacuous():
    p = binary_problem(1, [({0: 1}, 1), ({0: -1}, 0)])
    assert validate_learned(p, mk({0: 1}, 5))


# -- the integer-scaled core against the Fraction-per-term reference ----------

fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonzero_fracs = fracs.filter(bool)


# -- whole answers ---------------------------------------------------------------


def _raised_until_invalid(problem, row):
    """``row`` with its rhs raised by 1 until the oracle rejects it."""
    while validate_learned(problem, row):
        row = LinearConstraint(row.terms, row.rhs + 1, row.origin)
    return row


def _answer_mutations():
    """(problem, mutated result, the prefix its reason must start with).

    Each mutation breaks exactly one rule of ``check_answer``, so a copy of
    it that skips any one rule returns None, or another rule's reason, on
    at least one of them.  random_mbp_problem(52): optimum 4 at x1, x2, x3,
    y1 = 1, 0, 0, 3/2, with one learned row."""
    mbp = random_mbp_problem(52)
    good = solve(mbp)
    (row,) = good.learned
    bad_row = (_raised_until_invalid(mbp, row),)
    no_objective = binary_problem(2, [({0: 1, 1: 1}, 1)])
    feasible = solve(no_objective)
    infeasible = binary_problem(1, [({0: 1}, 1), ({0: -1}, 0)])
    proof = solve(infeasible)

    def moved(var, value):
        witness = list(good.witness)
        witness[var] = value
        return dataclasses.replace(good, witness=tuple(witness))

    change = dataclasses.replace
    return [
        (mbp, change(good, learned=bad_row), "invalid learned object "),
        (mbp, change(good, status="limit", learned=bad_row), "invalid learned object "),
        (mbp, change(good, status="limit"), LIMIT_REASON),
        (mbp, change(good, status="infeasible"), "status infeasible, oracle optimal"),
        (infeasible, change(proof, status="optimal"), "status optimal, oracle infeasible"),
        (mbp, change(good, objective=good.objective + 1), "objective 5, oracle 4"),
        (mbp, change(good, objective=good.objective - 1), "objective 3, oracle 4"),
        (no_objective, change(feasible, objective=0), "objective 0, oracle None"),
        (mbp, moved(3, F(4)), "witness: y1 = 4 outside [0, 3]"),
        (mbp, moved(0, F(1, 2)), "witness: x1 = 1/2 is not integral"),
        (mbp, moved(3, F(0)), "witness: row 2 violated"),
    ]


def test_check_answer_accepts_correct_answers():
    """An optimal answer with a learned row, an objective-free feasible one
    (the oracle reports value 0 there, the solver None) and an infeasible
    one all agree, with and without a precomputed optimum."""
    for problem in (
        random_mbp_problem(52),
        binary_problem(2, [({0: 1, 1: 1}, 1)]),
        binary_problem(1, [({0: 1}, 1), ({0: -1}, 0)]),
    ):
        result = solve(problem)
        assert check_answer(problem, result) is None
        assert check_answer(problem, result, oracle_optimum(problem)) is None


def test_check_answer_names_the_first_broken_rule():
    for problem, result, prefix in _answer_mutations():
        for truth in (None, oracle_optimum(problem)):
            reason = check_answer(problem, result, truth)
            assert reason is not None and reason.startswith(prefix), (prefix, reason)


@st.composite
def _linear_terms(draw, indices):
    chosen = draw(st.lists(st.sampled_from(indices), unique=True)) if indices else []
    return {j: draw(nonzero_fracs) for j in chosen}


@st.composite
def oracle_cases(draw):
    """A problem with up to 3 binary or general-integer variables (negative
    lower bounds included) and up to 3 continuous ones in any index order,
    fractional rows and objective, a learned row and a disjunction."""
    kinds = draw(
        st.lists(
            st.sampled_from(
                [VarKind.BINARY, VarKind.INTEGER, VarKind.CONTINUOUS]
            ),
            min_size=1,
            max_size=6,
        ).filter(
            lambda ks: sum(k is VarKind.CONTINUOUS for k in ks) <= 3
            and sum(k is not VarKind.CONTINUOUS for k in ks) <= 3
        )
    )
    variables = []
    for i, kind in enumerate(kinds):
        if kind is VarKind.BINARY:
            lb, ub = F(0), F(1)
        elif kind is VarKind.INTEGER:
            lb = F(draw(st.integers(-2, 1)))
            ub = lb + draw(st.integers(0, 2))
        else:
            lb = draw(st.one_of(st.just(NEG_INF), fracs))
            if draw(st.booleans()):
                ub = INF
            elif lb == NEG_INF:
                ub = draw(fracs)
            else:
                ub = lb + abs(draw(fracs))
        variables.append(Variable(i, f"v{i}", kind, lb, ub))
    indices = list(range(len(variables)))
    rows = draw(
        st.lists(
            st.tuples(
                _linear_terms(indices), st.sampled_from([">=", "="]), fracs
            ),
            max_size=4,
        )
    )
    objective = draw(st.one_of(st.none(), _linear_terms(indices)))
    problem = build_problem(variables, rows, objective)
    # A random row, or a model row with a lowered rhs (so often implied).
    learned = LinearConstraint.from_dict(
        draw(_linear_terms(indices)), draw(fracs)
    )
    if problem.constraints and draw(st.booleans()):
        row = draw(st.sampled_from(problem.constraints))
        learned = LinearConstraint.from_dict(
            dict(row.terms), row.rhs - abs(draw(fracs))
        )
    disjunction = None
    if indices:
        atoms = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(indices),
                    st.sampled_from([BoundKind.LOWER, BoundKind.UPPER]),
                ),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        disjunction = BoundDisjunction(
            tuple(BoundAtom(j, kind, draw(fracs)) for j, kind in atoms)
        )
    return problem, learned, disjunction


def _outcome(f, *args):
    try:
        return f(*args)
    except OracleError as exc:
        return ("refused", str(exc))


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_integer_core_matches_fraction_reference(case):
    problem, learned, disjunction = case
    got = _outcome(oracle_optimum, problem)
    assert got == _outcome(ref.oracle_optimum, problem)
    if isinstance(got, OracleOptimum) and got.status == "optimal":
        assert _all_fractions((got.value, *got.witness))
    feasible = _outcome(enumerate_feasible, problem)
    assert feasible == _outcome(ref.enumerate_feasible, problem)
    if isinstance(feasible, list):
        assert all(_all_fractions(a.values()) for a in feasible)
    for obj in (learned, disjunction):
        if obj is not None:
            assert _outcome(validate_learned, problem, obj) == _outcome(
                ref.validate_learned, problem, obj
            )
