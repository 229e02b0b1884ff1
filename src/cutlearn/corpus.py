"""Deterministic random instance generators for tests and experiments.

All generators are pure functions of their seed so test suites and scripts
see the same instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .model import LinearConstraint, Problem, Variable, VarKind, activity, build_problem
from .rationals import ONE, ZERO


def _binaries(count: int, first: int = 0) -> List[Variable]:
    """Binaries x1..x<count> at indices first, first + 1, ..."""
    return [
        Variable(first + k, f"x{k + 1}", VarKind.BINARY, ZERO, ONE) for k in range(count)
    ]


def _random_rows(
    rng: random.Random, variables: List[Variable], count: int, max_size: int, coef: int
) -> List[LinearConstraint]:
    """``count`` rows over 2 to ``max_size`` distinct variables (the one
    variable if there is only one), with nonzero integer coefficients in
    [-coef, coef].  Each rhs is drawn above the row's min activity and at
    most its max activity at the global bounds, so propagation has work to
    do; integral bounds keep that range nonempty."""
    n = len(variables)
    lb = [v.global_lb for v in variables]
    ub = [v.global_ub for v in variables]
    rows = []
    for _ in range(count):
        size = rng.randint(2, min(max_size, n)) if n > 1 else 1
        terms = {}
        for j in rng.sample(range(n), size):
            c = 0
            while c == 0:
                c = rng.randint(-coef, coef)
            terms[j] = c
        minact = activity(terms.items(), ub, lb).finite
        maxact = activity(terms.items(), lb, ub).finite
        rows.append(LinearConstraint.from_dict(terms, rng.randint(minact + 1, maxact)))
    return rows


def random_binary_problem(seed: int) -> Problem:
    """Pure-binary instance: 2 to 8 binaries, 1 to 6 rows with integer
    coefficients in [-10, 10], and an objective over every variable."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    variables = _binaries(n)
    rows = _random_rows(rng, variables, rng.randint(1, 6), 4, 10)
    objective = {j: rng.randint(-5, 5) for j in range(n)}
    return build_problem(variables, rows, objective)


def random_mbp_problem(seed: int) -> Problem:
    """Mixed-binary instance: 1 to 6 binaries plus 1 to 3 boxed continuous
    variables, 2 to 6 rows, and an objective over about 80% of them."""
    rng = random.Random(seed)
    nb = rng.randint(1, 6)
    nc = rng.randint(1, 3)
    variables = _binaries(nb)
    for k in range(nc):
        lo = rng.randint(-2, 0)
        hi = rng.randint(lo + 1, 3)
        variables.append(Variable(nb + k, f"y{k + 1}", VarKind.CONTINUOUS, lo, hi))
    rows = _random_rows(rng, variables, rng.randint(2, 6), 4, 10)
    objective = {j: rng.randint(-4, 4) for j in range(nb + nc) if rng.random() < 0.8}
    return build_problem(variables, rows, objective)


def random_general_integer_problem(seed: int) -> Problem:
    """Instance with small-range general integers for the fallback paths:
    1 to 3 integers, 0 to 3 binaries and 2 to 5 rows."""
    rng = random.Random(seed)
    ni = rng.randint(1, 3)
    nb = rng.randint(0, 3)
    variables: List[Variable] = []
    for k in range(ni):
        lo = rng.randint(0, 2)
        hi = rng.randint(lo + 2, lo + 5)
        variables.append(Variable(k, f"z{k + 1}", VarKind.INTEGER, lo, hi))
    variables += _binaries(nb, ni)
    rows = _random_rows(rng, variables, rng.randint(2, 5), 3, 5)
    objective = {j: rng.randint(-3, 3) for j in range(ni + nb)}
    return build_problem(variables, rows, objective)


def pigeonhole(p: int, h: int) -> Problem:
    """PHP(p, h): p pigeons into h holes, at most one pigeon per hole.

    Variable ``i * h + j`` says pigeon i sits in hole j.  Infeasible exactly
    when p > h; the textbook family where cutting planes beat resolution.
    """
    if p < 1 or h < 1:
        raise ValueError("pigeonhole needs at least one pigeon and one hole")
    variables = [
        Variable(i * h + j, f"x{i}_{j}", VarKind.BINARY, ZERO, ONE)
        for i in range(p)
        for j in range(h)
    ]
    rows = [
        LinearConstraint.from_dict({i * h + j: ONE for j in range(h)}, ONE)
        for i in range(p)
    ]
    rows += [
        LinearConstraint.from_dict({i * h + j: -ONE for i in range(p)}, -ONE)
        for j in range(h)
    ]
    return build_problem(variables, rows)


def parity(n: int, k: int) -> Problem:
    """``sum 2 x_i = 2k + 1`` over n binaries: infeasible, since the left
    side is even, yet propagation alone cannot see it."""
    variables = _binaries(n)
    return build_problem(
        variables, [({i: Fraction(2) for i in range(n)}, "=", Fraction(2 * k + 1))]
    )


def mknap(seed: int, n: int = 14, m: int = 2) -> Problem:
    """Multidimensional knapsack: m capacity rows over n binaries, drawn one
    row after the other, each with weights 1-9 and
    ``sum w_i x_i <= floor(sum w_i / 2)``; then n profits 1-9, and minimize
    ``-sum p_i x_i``."""
    rng = random.Random(seed)
    variables = _binaries(n)
    rows = []
    for _ in range(m):
        weights = [rng.randint(1, 9) for _ in range(n)]
        rows.append(
            (dict(enumerate(map(Fraction, weights))), "<=", Fraction(sum(weights) // 2))
        )
    objective = {i: Fraction(-rng.randint(1, 9)) for i in range(n)}
    return build_problem(variables, rows, objective)


def desk_corpus(size: int = 20, base_seed: int = 1234) -> List[Problem]:
    """Fixed mixed corpus for the two-phase experiment.

    The default seed is chosen so that several instances actually learn
    constraints during the generation phase; most tiny random instances are
    decided by propagation alone.
    """
    problems = []
    for k in range(size):
        seed = base_seed + k
        if k % 2 == 1:
            problems.append(random_mbp_problem(seed))
        else:
            problems.append(random_binary_problem(seed))
    return problems
