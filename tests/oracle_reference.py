"""The oracle as it was before its integer-scaled enumeration core.

A verbatim copy of the ``Fraction``-per-term brute force, kept as the
reference for the differential test in ``test_oracle.py``.  Only the
result and error types are shared with ``cutlearn.oracle``, so that
results and refusals compare equal.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from cutlearn.model import (
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Problem,
    VarKind,
)
from cutlearn.oracle import OracleError, OracleOptimum
from cutlearn.rationals import ONE, ZERO, Rat, is_finite

MAX_INTEGRAL_VARS = 20
MAX_CONTINUOUS_VARS = 6
MAX_ASSIGNMENTS = 2_000_000
FM_ROW_CAP = 10_000


# A row is (sparse coefficient map, rhs) meaning sum coef*x >= rhs.
Row = Tuple[Dict[int, Rat], Rat]


def _rational_gcd(a: Rat, b: Rat) -> Rat:
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def fm_eliminate(system: Sequence[Row], var: int, cap: int = FM_ROW_CAP) -> List[Row]:
    """Project ``var`` out of a system of >=-rows by pairing opposite signs."""
    pos: List[Row] = []
    neg: List[Row] = []
    rest: List[Row] = []
    for coefs, rhs in system:
        a = coefs.get(var, ZERO)
        if a > 0:
            pos.append((coefs, rhs))
        elif a < 0:
            neg.append((coefs, rhs))
        else:
            rest.append((coefs, rhs))
    out = [({j: c for j, c in coefs.items() if c != 0}, rhs) for coefs, rhs in rest]
    for pcoefs, prhs in pos:
        a = pcoefs[var]
        for ncoefs, nrhs in neg:
            b = -ncoefs[var]
            g = _rational_gcd(a, b)
            m_p, m_n = b / g, a / g
            coefs: Dict[int, Rat] = {}
            for j, c in pcoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, ZERO) + m_p * c
            for j, c in ncoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, ZERO) + m_n * c
            coefs = {j: c for j, c in coefs.items() if c != 0}
            out.append((coefs, m_p * prhs + m_n * nrhs))
            if len(out) > cap:
                raise OracleError(
                    f"Fourier-Motzkin blowup beyond {cap} rows"
                )
    return out


def _system_feasible(system: Sequence[Row], variables: Sequence[int]) -> bool:
    work = list(system)
    for v in variables:
        work = fm_eliminate(work, v)
    return all(rhs <= 0 for coefs, rhs in work if not coefs)


def _var_range_rows(problem: Problem, var: int) -> List[Row]:
    v = problem.variables[var]
    rows: List[Row] = []
    if is_finite(v.global_lb):
        rows.append(({var: ONE}, Fraction(v.global_lb)))
    if is_finite(v.global_ub):
        rows.append(({var: -ONE}, -Fraction(v.global_ub)))
    return rows


def _split_vars(problem: Problem) -> Tuple[List[int], List[int]]:
    integral = [v.index for v in problem.variables if v.is_integral]
    continuous = [
        v.index for v in problem.variables if v.kind is VarKind.CONTINUOUS
    ]
    return integral, continuous


def _check_size(problem: Problem) -> Tuple[List[int], List[int]]:
    integral, continuous = _split_vars(problem)
    if len(integral) > MAX_INTEGRAL_VARS:
        raise OracleError(
            f"{len(integral)} integral variables exceed the limit of "
            f"{MAX_INTEGRAL_VARS}"
        )
    if len(continuous) > MAX_CONTINUOUS_VARS:
        raise OracleError(
            f"{len(continuous)} continuous variables exceed the limit of "
            f"{MAX_CONTINUOUS_VARS}"
        )
    count = 1
    for j in integral:
        v = problem.variables[j]
        if not (is_finite(v.global_lb) and is_finite(v.global_ub)):
            raise OracleError(f"integral variable {v.name!r} has an infinite domain")
        count *= int(v.global_ub - v.global_lb) + 1
        if count > MAX_ASSIGNMENTS:
            raise OracleError(
                f"integral box larger than {MAX_ASSIGNMENTS} assignments"
            )
    return integral, continuous


def _domains(problem: Problem, integral: List[int]):
    for j in integral:
        v = problem.variables[j]
        lo, hi = int(v.global_lb), int(v.global_ub)
        yield [Fraction(k) for k in range(lo, hi + 1)]


def _residual_system(
    problem: Problem, assignment: Dict[int, Rat], continuous: List[int]
) -> Optional[List[Row]]:
    """Continuous-only rows after substituting an integral assignment.

    Returns None if some purely integral row is already violated.
    """
    rows: List[Row] = []
    for C in problem.constraints:
        coefs: Dict[int, Rat] = {}
        rhs = C.rhs
        for j, a in C.terms:
            if j in assignment:
                rhs -= a * assignment[j]
            else:
                coefs[j] = a
        if not coefs:
            if rhs > 0:
                return None
            continue
        rows.append((coefs, rhs))
    for j in continuous:
        rows.extend(_var_range_rows(problem, j))
    return rows


def enumerate_feasible(problem: Problem) -> List[Dict[int, Rat]]:
    """All integral assignments that extend to a feasible point."""
    integral, continuous = _check_size(problem)
    feasible = []
    for values in itertools.product(*_domains(problem, integral)):
        assignment = dict(zip(integral, values))
        rows = _residual_system(problem, assignment, continuous)
        if rows is None:
            continue
        if _system_feasible(rows, continuous):
            feasible.append(assignment)
    return feasible


def _back_substitute(
    stages: List[Tuple[int, List[Row]]], fixed: Dict[int, Rat]
) -> Dict[int, Rat]:
    """Pick values for eliminated variables in reverse elimination order."""
    values = dict(fixed)
    for var, system in reversed(stages):
        lo: Optional[Rat] = None
        hi: Optional[Rat] = None
        for coefs, rhs in system:
            a = coefs.get(var, ZERO)
            if a == 0:
                continue
            residual = rhs - sum(
                (c * values[j] for j, c in coefs.items() if j != var), ZERO
            )
            bound = residual / a
            if a > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            values[var] = ZERO
        elif lo is None:
            values[var] = hi
        elif hi is None:
            values[var] = lo
        else:
            if lo > hi:
                raise OracleError("back-substitution hit an empty interval")
            values[var] = (lo + hi) / 2
    return values


def oracle_optimum(problem: Problem) -> OracleOptimum:
    """Exact minimum of the objective over the mixed-integer feasible set."""
    integral, continuous = _check_size(problem)
    objective = problem.objective_dict()
    t = len(problem.variables)  # epigraph variable for the continuous part
    best: Optional[Rat] = None
    best_witness: Optional[Tuple[Rat, ...]] = None
    for values in itertools.product(*_domains(problem, integral)):
        assignment = dict(zip(integral, values))
        rows = _residual_system(problem, assignment, continuous)
        if rows is None:
            continue
        int_part = sum(
            (objective.get(j, ZERO) * assignment[j] for j in integral), ZERO
        )
        cont_obj = {j: objective[j] for j in continuous if objective.get(j)}
        if cont_obj:
            epi: Dict[int, Rat] = {t: ONE}
            for j, c in cont_obj.items():
                epi[j] = -c
            work = rows + [(epi, ZERO)]
        else:
            work = list(rows)
        stages: List[Tuple[int, List[Row]]] = []
        for v in continuous:
            stages.append((v, work))
            work = fm_eliminate(work, v)
        if any(rhs > 0 for coefs, rhs in work if not coefs):
            continue
        if cont_obj:
            t_lb: Optional[Rat] = None
            unbounded = True
            for coefs, rhs in work:
                a = coefs.get(t, ZERO)
                if a > 0:
                    unbounded = False
                    bound = rhs / a
                    t_lb = bound if t_lb is None or bound > t_lb else t_lb
            if unbounded or t_lb is None:
                raise OracleError("continuous objective part is unbounded below")
            value = int_part + t_lb
            fixed = dict(assignment)
            fixed[t] = t_lb
        else:
            value = int_part
            fixed = dict(assignment)
        if best is None or value < best:
            point = _back_substitute(stages, fixed)
            best = value
            best_witness = tuple(
                point[j] for j in range(len(problem.variables))
            )
    if best is None:
        if not objective and not integral:
            # Pure-continuous feasibility question.
            rows = _residual_system(problem, {}, continuous)
            if rows is not None and _system_feasible(rows, continuous):
                stages = []
                work = list(rows)
                for v in continuous:
                    stages.append((v, work))
                    work = fm_eliminate(work, v)
                point = _back_substitute(stages, {})
                return OracleOptimum(
                    "optimal",
                    ZERO,
                    tuple(point[j] for j in range(len(problem.variables))),
                )
        return OracleOptimum("infeasible")
    return OracleOptimum("optimal", best, best_witness)


def validate_learned(
    problem: Problem, learned: Union[LinearConstraint, BoundDisjunction]
) -> bool:
    """True iff every feasible point of the problem satisfies the object."""
    integral, continuous = _check_size(problem)
    if isinstance(learned, LinearConstraint):
        return _validate_row(problem, learned, integral, continuous)
    return _validate_disjunction(problem, learned, integral, continuous)


def _validate_row(
    problem: Problem,
    learned: LinearConstraint,
    integral: List[int],
    continuous: List[int],
) -> bool:
    t = len(problem.variables)  # value of the learned row's continuous part
    cont_terms = {j: a for j, a in learned.terms if j in set(continuous)}
    for values in itertools.product(*_domains(problem, integral)):
        assignment = dict(zip(integral, values))
        rows = _residual_system(problem, assignment, continuous)
        if rows is None:
            continue
        int_lhs = sum(
            (a * assignment[j] for j, a in learned.terms if j in assignment),
            ZERO,
        )
        if not cont_terms:
            if not _system_feasible(rows, continuous):
                continue
            if int_lhs < learned.rhs:
                return False
            continue
        # Pin t to the continuous part with two opposite rows, project
        # everything else out, and read off the implied minimum of t.
        eq_up: Dict[int, Rat] = {t: ONE}
        eq_dn: Dict[int, Rat] = {t: -ONE}
        for j, a in cont_terms.items():
            eq_up[j] = -a
            eq_dn[j] = a
        work = rows + [(eq_up, ZERO), (eq_dn, ZERO)]
        for v in continuous:
            work = fm_eliminate(work, v)
        if any(rhs > 0 for coefs, rhs in work if not coefs):
            continue
        t_min: Optional[Rat] = None
        bounded = False
        for coefs, rhs in work:
            a = coefs.get(t, ZERO)
            if a > 0:
                bounded = True
                bound = rhs / a
                t_min = bound if t_min is None or bound > t_min else t_min
        if not bounded:
            return False  # continuous part can be arbitrarily negative
        if int_lhs + t_min < learned.rhs:
            return False
    return True


def _validate_disjunction(
    problem: Problem,
    learned: BoundDisjunction,
    integral: List[int],
    continuous: List[int],
) -> bool:
    integral_set = set(integral)
    s = len(problem.variables)  # strictness margin for continuous negations
    for values in itertools.product(*_domains(problem, integral)):
        assignment = dict(zip(integral, values))
        rows = _residual_system(problem, assignment, continuous)
        if rows is None:
            continue
        # Negate every atom; a violating point must defeat all of them.
        neg_rows: List[Row] = []
        decided_false = True
        skip = False
        for atom in learned.atoms:
            if atom.var in integral_set:
                x = assignment[atom.var]
                if atom.kind is BoundKind.LOWER:
                    holds = x >= atom.value
                else:
                    holds = x <= atom.value
                if holds:
                    skip = True  # the assignment satisfies the disjunction
                    break
            else:
                decided_false = False
                if atom.kind is BoundKind.LOWER:
                    # not (x >= v): x <= v - s with margin s > 0
                    neg_rows.append(({atom.var: -ONE, s: -ONE}, -atom.value))
                else:
                    neg_rows.append(({atom.var: ONE, s: -ONE}, atom.value))
        if skip:
            continue
        if decided_false:
            # All atoms integral and all false at this assignment: it must
            # not be feasible.
            if _system_feasible(rows, continuous):
                return False
            continue
        work = rows + neg_rows + [({s: ONE}, ZERO)]
        for v in continuous:
            work = fm_eliminate(work, v)
        if any(rhs > 0 for coefs, rhs in work if not coefs):
            continue
        s_max: Optional[Rat] = None
        bounded = False
        for coefs, rhs in work:
            a = coefs.get(s, ZERO)
            if a < 0:
                bounded = True
                bound = rhs / a
                s_max = bound if s_max is None or bound < s_max else s_max
        if not bounded or s_max is None or s_max > 0:
            return False
    return True
