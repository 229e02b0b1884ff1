"""Solver end-to-end behavior against the oracle, plus search plumbing."""

from fractions import Fraction

import pytest

from cutlearn import search
from cutlearn.conflict import graph_fallback
from cutlearn.corpus import (
    pigeonhole,
    random_binary_problem,
    random_general_integer_problem,
    random_mbp_problem,
)
from cutlearn.cuts import ReductionStrategy
from cutlearn.model import (
    BoundAtom,
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    VarKind,
    Variable,
    build_problem,
    violation,
)
from cutlearn.oracle import check_answer, validate_learned
from cutlearn.rationals import INF, NEG_INF, is_finite
from cutlearn.search import (
    SolverConfig,
    SolverError,
    run_two_phase,
    select_branching,
    serialize_learned,
    solve,
)
from cutlearn.trail import Trail

from conftest import F, binary_problem, binary_vars, fallback_problem, mk


# -- agreement sweeps ---------------------------------------------------------


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_binary_solves_match_oracle(strategy):
    for seed in range(15):
        problem = random_binary_problem(seed)
        result = solve(problem, SolverConfig(strategy=strategy))
        assert check_answer(problem, result) is None


def test_mixed_binary_solves_match_oracle():
    for seed in range(10):
        problem = random_mbp_problem(seed)
        result = solve(problem)
        assert check_answer(problem, result) is None


def test_general_integer_solves_match_oracle():
    for seed in range(10):
        problem = random_general_integer_problem(seed)
        result = solve(problem)
        assert check_answer(problem, result) is None


def test_learning_off_still_agrees():
    for seed in range(8):
        problem = random_binary_problem(seed)
        result = solve(problem, SolverConfig(conflict_limit=0))
        assert check_answer(problem, result) is None
        assert not result.learned


# -- determinism --------------------------------------------------------------


def test_solver_is_deterministic():
    problem = random_binary_problem(7)
    a = solve(problem, SolverConfig())
    b = solve(problem, SolverConfig())
    assert (a.status, a.objective, a.witness) == (b.status, b.objective, b.witness)
    assert a.stats == b.stats
    assert a.learned == b.learned


# -- feasibility-only search --------------------------------------------------


def test_solve_without_objective_stops_at_first_leaf():
    problem = binary_problem(3, [({0: 1, 1: 1, 2: 1}, 2)])
    result = solve(problem)
    assert result.status == "optimal" and result.objective is None
    assert violation(problem, result.witness) is None


def test_infeasible_without_objective():
    problem = binary_problem(1, [({0: 1}, 1), ({0: -1}, 0)])
    assert solve(problem).status == "infeasible"


# -- disjunction fallback end to end ------------------------------------------


@pytest.mark.parametrize("with_objective", [True, False])
def test_fallback_learns_valid_disjunction(with_objective):
    problem = fallback_problem(objective=with_objective)
    result = solve(problem)
    assert check_answer(problem, result) is None
    assert result.stats.fallbacks >= 1
    disjunctions = [
        obj for obj in result.learned if isinstance(obj, BoundDisjunction)
    ]
    assert disjunctions


def test_conflict_on_an_installed_disjunction_is_analyzed(monkeypatch):
    """The rows imply D1 = (x1 >= 1 or x2 >= 1), D2 = (x0 >= 1 or x3 >= 1)
    and D3 = (x0 >= 1 or x4 >= 1), which are installed.  After x0 <= 0, D2
    and D3 imply x3 >= 1 and x4 >= 1 before the rows do (through x5), and
    the rows then falsify both atoms of D1 in one pass.  The graph fallback
    analyzes that conflict, expands x3 >= 1 and x4 >= 1 through D2 and D3
    and learns x0 >= 1."""
    rows = [
        ({1: 1, 2: 1}, 1),
        ({1: -1, 3: -1}, -1),
        ({2: -1, 4: -1}, -1),
        ({3: 1, 5: 1}, 1),
        ({4: 1, 5: 1}, 1),
        ({0: 1, 5: -1}, 0),
    ]
    problem = binary_problem(6, rows)
    installed = tuple(
        BoundDisjunction(
            (BoundAtom(a, BoundKind.LOWER, F(1)), BoundAtom(b, BoundKind.LOWER, F(1)))
        )
        for a, b in [(1, 2), (0, 3), (0, 4)]
    )
    seen = []

    def fallback(trail, conflict):
        out = graph_fallback(trail, conflict)
        seen.append((conflict, out))
        return out

    monkeypatch.setattr(search, "graph_fallback", fallback)
    result = search._Solver(problem, SolverConfig(), installed=installed).run()
    assert check_answer(problem, result) is None
    ((conflict, out),) = seen
    assert conflict == installed[0]
    assert out.learned == mk({0: 1}, 1) and out.iterations == 4
    assert out.used_row_indices == (1, 2)
    assert result.learned == (out.learned,)
    for obj in installed:
        assert validate_learned(problem, obj)


# -- unbounded integers --------------------------------------------------------


def _lb_only_integer():
    """x integer [0, inf], y binary, min x + y, x + y >= 3: optimum 3."""
    vs = [
        Variable(0, "x", VarKind.INTEGER, F(0), INF),
        Variable(1, "y", VarKind.BINARY, F(0), F(1)),
    ]
    rows = [({0: F(1), 1: F(1)}, ">=", F(3))]
    return build_problem(vs, rows, {0: F(1), 1: F(1)}), F(3)


def _ub_only_integer():
    """x integer [-inf, 5], y binary, min y, x + y <= 10: optimum 0, with x
    unbounded below."""
    vs = [
        Variable(0, "x", VarKind.INTEGER, NEG_INF, F(5)),
        Variable(1, "y", VarKind.BINARY, F(0), F(1)),
    ]
    rows = [({0: F(-1), 1: F(-1)}, ">=", F(-10))]
    return build_problem(vs, rows, {1: F(1)}), F(0)


def _free_integer():
    """x free integer, z in [0, 10], min z, z = 2x - 1: optimum 1."""
    vs = [
        Variable(0, "x", VarKind.INTEGER, NEG_INF, INF),
        Variable(1, "z", VarKind.CONTINUOUS, F(0), F(10)),
    ]
    rows = [
        ({0: F(2), 1: F(-1)}, ">=", F(1)),
        ({0: F(-2), 1: F(1)}, ">=", F(-1)),
    ]
    return build_problem(vs, rows, {1: F(1)}), F(1)


@pytest.mark.parametrize(
    "model", [_lb_only_integer, _ub_only_integer, _free_integer]
)
@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_unbounded_integer_solves_to_known_optimum(model, strategy):
    """The oracle refuses infinite integer domains, so the optima are
    known by hand."""
    problem, optimum = model()
    for result in (
        solve(problem, SolverConfig(strategy=strategy)),
        run_two_phase(problem, SolverConfig(strategy=strategy))[1],
    ):
        assert result.status == "optimal" and result.objective == optimum
        assert violation(problem, result.witness) is None


# -- objective cutoff ----------------------------------------------------------


def test_one_cutoff_row_replaced_in_place():
    """Seven incumbents and one installed learned row: the cutoff row is
    appended for the first incumbent and replaced for every later one."""
    problem = random_binary_problem(93)
    solver = search._Solver(problem, SolverConfig())
    incumbents = []
    add = solver._add_cutoff_row

    def add_and_check(value):
        add(value)
        (row,) = [r for r in solver.rows if r.origin == "cutoff"]
        assert solver.rows[solver.cutoff] is row
        incumbents.append(value)

    solver._add_cutoff_row = add_and_check
    result = solver.run()
    assert len(incumbents) >= 3 and solver.learned_row_idx
    assert incumbents[-1] == result.objective
    (row,) = [r for r in solver.rows if r.origin == "cutoff"]
    assert row.rhs == 1 - result.objective  # integral objective: delta = 1
    assert len(solver.rows) == (
        len(problem.constraints) + len(solver.learned_row_idx) + 1
    )
    assert check_answer(problem, result) is None


def test_cutoff_row_matches_the_row_built_from_the_objective():
    """The cutoff row, built from terms computed once, equals term for term
    the row ``from_dict`` builds from -c, with a Fraction rhs, for an
    integral and a fractional incumbent value, with and without delta."""
    for problem, delta in ((random_binary_problem(93), 1), (random_mbp_problem(3), 0)):
        solver = search._Solver(problem, SolverConfig())
        assert solver.all_integer_obj == (delta == 1)
        neg = {j: -c for j, c in problem.objective_dict().items()}
        for value in (-3, F(7, 2), 4):
            solver._add_cutoff_row(value)
            row = solver.rows[solver.cutoff]
            want = LinearConstraint.from_dict(neg, delta - value, "cutoff")
            assert row.terms == want.terms and row.rhs == want.rhs
            assert [type(c) for _, c in row.terms] == [Fraction] * len(want)
            assert type(row.rhs) is Fraction


# -- two-phase ----------------------------------------------------------------


def test_two_phase_agrees_and_shares_objects():
    for seed in (3, 11, 19):
        problem = random_binary_problem(seed)
        r1, r2, objects = run_two_phase(problem)
        assert (r1.status, r1.objective) == (r2.status, r2.objective)
        for result in (r1, r2):
            assert check_answer(problem, result) is None
        assert list(r1.learned) == objects
        # phase 2 analyzes no conflict and learns nothing of its own
        assert not r2.learned
        assert r2.stats.conflicts_analyzed == 0 and r2.stats.fallbacks == 0


def test_generation_tree_is_strategy_independent():
    problem = random_binary_problem(5)
    nodes = set()
    for strategy in ReductionStrategy:
        solver = search._Solver(problem, SolverConfig(strategy=strategy), generate=True)
        nodes.add(solver.run().stats.nodes)
    assert len(nodes) == 1


# -- branching ----------------------------------------------------------------


def test_select_branching_lowest_index_down_first():
    problem = binary_problem(3, [({0: 1, 1: 1, 2: 1}, 1)])
    t = Trail(problem.variables)
    var, kind, value, flip_kind, flip_value = select_branching(t, problem)
    assert (var, kind, value) == (0, BoundKind.UPPER, F(0))
    assert (flip_kind, flip_value) == (BoundKind.LOWER, F(1))
    t.push_decision(0, BoundKind.UPPER, 0)
    assert select_branching(t, problem)[0] == 1


def test_select_branching_splits_integer_range():
    up, down = BoundKind.LOWER, BoundKind.UPPER
    for lb, ub, first, second in [
        (F(0), F(5), (down, F(2)), (up, F(3))),
        (F(0), INF, (down, F(0)), (up, F(1))),
        (NEG_INF, F(4), (up, F(4)), (down, F(3))),
        (NEG_INF, INF, (down, F(0)), (up, F(1))),
    ]:
        vs = [Variable(0, "z", VarKind.INTEGER, lb, ub)]
        problem = build_problem(vs, [])
        t = Trail(vs)
        var, kind, value, flip_kind, flip_value = select_branching(t, problem)
        assert (var, (kind, value), (flip_kind, flip_value)) == (0, first, second)


def test_select_branching_skips_fixed_and_continuous():
    vs = [
        Variable(0, "y", VarKind.CONTINUOUS, F(0), F(1)),
        Variable(1, "x", VarKind.BINARY, F(0), F(1)),
    ]
    problem = build_problem(vs, [])
    t = Trail(vs)
    t.push_decision(1, BoundKind.UPPER, 0)
    assert select_branching(t, problem) is None


# -- limits and config --------------------------------------------------------


def test_node_limit_reports_limit_status():
    problem = random_binary_problem(2)
    result = solve(problem, SolverConfig(node_limit=1))
    assert result.status == "limit"


def test_conflict_limit_bounds_the_analyses():
    problem = pigeonhole(5, 4)  # three analyses without a limit
    none = solve(problem, SolverConfig(conflict_limit=0))
    assert none.status == "infeasible"
    assert none.stats.conflicts_analyzed == 0 and not none.learned
    one = solve(problem, SolverConfig(conflict_limit=1))
    assert one.status == "infeasible"
    assert one.stats.conflicts_analyzed == 1


def test_config_validation():
    with pytest.raises(ValueError, match="^node limit must be positive$"):
        SolverConfig(node_limit=0)
    with pytest.raises(ValueError, match="^conflict limit must be 0 or more$"):
        SolverConfig(conflict_limit=-1)
    SolverConfig(conflict_limit=0)


def test_unbounded_continuous_objective_raises():
    """min y subject to x - y >= 0 with y free: y falls without limit."""
    vs = [
        Variable(0, "x", VarKind.BINARY, F(0), F(1)),
        Variable(1, "y", VarKind.CONTINUOUS, NEG_INF, INF),
    ]
    problem = build_problem(vs, [({0: F(1), 1: F(-1)}, ">=", F(0))], {1: F(1)})
    with pytest.raises(SolverError, match="^continuous objective part unbounded below$"):
        solve(problem)


# -- learned objects ----------------------------------------------------------


def test_serialize_learned():
    row = LinearConstraint.from_dict({0: F(3, 2), 2: F(-1)}, F(1, 4), "learned:x")
    assert serialize_learned(row) == "lin 1/4 0:3/2 2:-1"
    dis = BoundDisjunction(
        (
            BoundAtom(0, BoundKind.LOWER, F(2)),
            BoundAtom(1, BoundKind.UPPER, F(-1, 2)),
        )
    )
    assert serialize_learned(dis) == "dis 0>=2 1<=-1/2"


def test_learned_objects_seed_an_exploitation_run():
    problem = random_mbp_problem(52)
    result = solve(problem)
    assert result.learned
    cfg = SolverConfig(conflict_limit=0)
    again = search._Solver(problem, cfg, installed=result.learned).run()
    assert check_answer(problem, again) is None


# -- integral values are ints ---------------------------------------------------


def _assert_int_if_integral(x):
    """A finite integral value is an ``int``; any other finite one a Fraction."""
    if is_finite(x):
        assert type(x) is (int if x.denominator == 1 else Fraction), repr(x)


def test_integral_values_are_ints(monkeypatch):
    """Over binary, mixed-binary and general-integer instances and PHP(4..6),
    every integral value the search stores is an ``int``: the variables'
    bounds, each change's new and old value and the trail's bound vectors
    after every fixpoint, the witness and the objective."""
    fixpoint = search.propagate_fixpoint

    def checked_fixpoint(trail, *args, **kwargs):
        out = fixpoint(trail, *args, **kwargs)
        for ch in trail.changes:
            _assert_int_if_integral(ch.new_value)
            _assert_int_if_integral(ch.old_value)
        for x in trail.local_lb + trail.local_ub:
            _assert_int_if_integral(x)
        return out

    monkeypatch.setattr(search, "propagate_fixpoint", checked_fixpoint)
    problems = (
        [random_binary_problem(seed) for seed in range(15)]
        + [random_mbp_problem(seed) for seed in range(15)]
        + [random_general_integer_problem(seed) for seed in range(15)]
        + [pigeonhole(p, p - 1) for p in (4, 5, 6)]
    )
    objectives = 0
    for problem in problems:
        for v in problem.variables:
            _assert_int_if_integral(v.global_lb)
            _assert_int_if_integral(v.global_ub)
        result = solve(problem)
        if result.witness is not None:
            for x in result.witness:
                _assert_int_if_integral(x)
        if result.objective is not None:
            _assert_int_if_integral(result.objective)
            objectives += 1
    assert objectives > 20
