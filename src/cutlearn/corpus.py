"""Deterministic random instance generators for tests and experiments.

All generators are pure functions of their seed so test suites and scripts
see the same instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .model import LinearConstraint, Problem, Variable, VarKind, build_problem

ZERO = Fraction(0)
ONE = Fraction(1)


def _nonzero_coef(rng: random.Random, lo: int = -10, hi: int = 10) -> Fraction:
    c = 0
    while c == 0:
        c = rng.randint(lo, hi)
    return Fraction(c)


def random_binary_problem(
    seed: int,
    max_vars: int = 8,
    max_rows: int = 6,
    with_objective: bool = True,
) -> Problem:
    """Pure-binary instance with integer coefficients in [-10, 10].

    The right-hand side of each row is sampled between the row's minimum and
    maximum activity so that propagation has work to do.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_rows)
    variables = [
        Variable(i, f"x{i + 1}", VarKind.BINARY, ZERO, ONE) for i in range(n)
    ]
    rows = []
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        support = rng.sample(range(n), size)
        terms = {j: _nonzero_coef(rng) for j in support}
        minact = sum(min(c, ZERO) for c in terms.values())
        maxact = sum(max(c, ZERO) for c in terms.values())
        rhs = Fraction(rng.randint(int(minact) + 1, int(maxact)))
        rows.append(LinearConstraint.from_dict(terms, rhs))
    objective = None
    if with_objective:
        objective = {j: Fraction(rng.randint(-5, 5)) for j in range(n)}
    return build_problem(variables, rows, objective)


def random_mbp_problem(
    seed: int,
    max_binaries: int = 6,
    max_continuous: int = 3,
    max_rows: int = 6,
    with_objective: bool = True,
) -> Problem:
    """Mixed-binary instance: binaries plus boxed continuous variables."""
    rng = random.Random(seed)
    nb = rng.randint(1, max_binaries)
    nc = rng.randint(1, max_continuous)
    variables: List[Variable] = [
        Variable(i, f"x{i + 1}", VarKind.BINARY, ZERO, ONE) for i in range(nb)
    ]
    for k in range(nc):
        lo = Fraction(rng.randint(-2, 0))
        hi = Fraction(rng.randint(int(lo) + 1, 3))
        variables.append(
            Variable(nb + k, f"y{k + 1}", VarKind.CONTINUOUS, lo, hi)
        )
    n = nb + nc
    rows = []
    m = rng.randint(2, max_rows)
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        support = rng.sample(range(n), size)
        terms = {j: _nonzero_coef(rng) for j in support}
        minact = ZERO
        maxact = ZERO
        for j, c in terms.items():
            v = variables[j]
            lo_c = c * (v.global_lb if c > 0 else v.global_ub)
            hi_c = c * (v.global_ub if c > 0 else v.global_lb)
            minact += lo_c
            maxact += hi_c
        if minact + 1 > maxact:
            rhs = maxact
        else:
            rhs = Fraction(rng.randint(int(minact) + 1, int(maxact)))
        rows.append(LinearConstraint.from_dict(terms, rhs))
    objective = None
    if with_objective:
        objective = {
            j: Fraction(rng.randint(-4, 4))
            for j in range(n)
            if rng.random() < 0.8
        }
    return build_problem(variables, rows, objective)


def random_general_integer_problem(
    seed: int, max_integers: int = 3, max_binaries: int = 3, max_rows: int = 5
) -> Problem:
    """Instance with small-range general integers for the fallback paths."""
    rng = random.Random(seed)
    ni = rng.randint(1, max_integers)
    nb = rng.randint(0, max_binaries)
    variables: List[Variable] = []
    for k in range(ni):
        lo = rng.randint(0, 2)
        hi = rng.randint(lo + 2, lo + 5)
        variables.append(
            Variable(k, f"z{k + 1}", VarKind.INTEGER, Fraction(lo), Fraction(hi))
        )
    for k in range(nb):
        variables.append(
            Variable(ni + k, f"x{k + 1}", VarKind.BINARY, ZERO, ONE)
        )
    n = ni + nb
    rows = []
    for _ in range(rng.randint(2, max_rows)):
        size = rng.randint(2, min(3, n)) if n > 1 else 1
        support = rng.sample(range(n), size)
        terms = {j: _nonzero_coef(rng, -5, 5) for j in support}
        minact = ZERO
        maxact = ZERO
        for j, c in terms.items():
            v = variables[j]
            minact += c * (v.global_lb if c > 0 else v.global_ub)
            maxact += c * (v.global_ub if c > 0 else v.global_lb)
        rhs = Fraction(rng.randint(int(minact) + 1, int(maxact)))
        rows.append(LinearConstraint.from_dict(terms, rhs))
    objective = {j: Fraction(rng.randint(-3, 3)) for j in range(n)}
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
    variables = [
        Variable(i, f"x{i + 1}", VarKind.BINARY, ZERO, ONE) for i in range(n)
    ]
    return build_problem(
        variables, [({i: Fraction(2) for i in range(n)}, "=", Fraction(2 * k + 1))]
    )


def mknap(seed: int, n: int = 14, m: int = 2) -> Problem:
    """Multidimensional knapsack: m capacity rows over n binaries, drawn one
    row after the other, each with weights 1-9 and
    ``sum w_i x_i <= floor(sum w_i / 2)``; then n profits 1-9, and minimize
    ``-sum p_i x_i``."""
    rng = random.Random(seed)
    variables = [
        Variable(i, f"x{i + 1}", VarKind.BINARY, ZERO, ONE) for i in range(n)
    ]
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
