"""Brute-force ground truth for small problems.

Feasibility, optima and learned-object validity are decided by exhaustive
enumeration of the integral box combined with Fourier-Motzkin elimination of
the continuous variables.  The box is enumerated in ``int``s against rows
scaled to integer coefficients, so a purely integral row costs an integer
dot product per point; results are still exact ``Fraction``s.  Every answer
reads one query, ``_IntegralBox.lowest``: the lowest value of one auxiliary
variable at each feasible point, under a few extra rows.  This module
deliberately shares no propagation or cut code with the solver so it can
certify the solver's output, whole answers with ``check_answer``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .model import (
    BoundDisjunction,
    BoundKind,
    LinearConstraint,
    Problem,
    VarKind,
    violation,
)
from .rationals import ONE, ZERO, Rat, is_finite

MAX_INTEGRAL_VARS = 20
MAX_CONTINUOUS_VARS = 6
MAX_ASSIGNMENTS = 2_000_000
FM_ROW_CAP = 10_000


class OracleError(Exception):
    """The instance exceeds the sizes this oracle is willing to decide."""


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
            # g divides a and b: the multipliers are ints, and int rows stay so.
            g = _rational_gcd(a, b)
            m_p, m_n = b // g, a // g
            coefs: Dict[int, Rat] = {}
            for j, c in pcoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, 0) + m_p * c
            for j, c in ncoefs.items():
                if j != var:
                    coefs[j] = coefs.get(j, 0) + m_n * c
            coefs = {j: c for j, c in coefs.items() if c != 0}
            out.append((coefs, m_p * prhs + m_n * nrhs))
            if len(out) > cap:
                raise OracleError(
                    f"Fourier-Motzkin blowup beyond {cap} rows"
                )
    return out


def _var_range_rows(problem: Problem, var: int) -> List[Row]:
    """x_var's finite global bounds n/d as ``int`` rows d·x ≥ n and -d·x ≥ -n."""
    v = problem.variables[var]
    rows: List[Row] = []
    if is_finite(v.global_lb):
        rows.append(({var: v.global_lb.denominator}, v.global_lb.numerator))
    if is_finite(v.global_ub):
        rows.append(({var: -v.global_ub.denominator}, -v.global_ub.numerator))
    return rows


def _check_size(problem: Problem) -> Tuple[List[int], List[int]]:
    integral = [v.index for v in problem.variables if v.is_integral]
    continuous = [
        v.index for v in problem.variables if v.kind is VarKind.CONTINUOUS
    ]
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


class _Scaled(NamedTuple):
    """``sum a_j x_j >= rhs`` over an integral box, scaled to integers.

    ``scale`` is the lcm of the denominators of the coefficients and the
    rhs.  ``pairs`` holds ``(position, scale * a_j)`` for each integral
    term, where position indexes the enumerated value tuple; ``rhs`` is
    ``scale * rhs``, and ``cont`` maps each other term's j to
    ``scale * a_j``.
    """

    pairs: Tuple[Tuple[int, int], ...]
    rhs: int
    scale: int
    cont: Dict[int, Rat]


def _dot(pairs: Tuple[Tuple[int, int], ...], values: Tuple[int, ...]) -> int:
    total = 0
    for k, a in pairs:
        total += a * values[k]
    return total


def _residual(rows: Sequence[_Scaled], values: Tuple[int, ...]) -> List[Row]:
    """``rows`` over the continuous variables left at the point ``values``,
    still scaled, so in ``int``s."""
    return [(cont, rhs - _dot(pairs, values)) for pairs, rhs, _, cont in rows]


# The elimination stages of one point: each continuous variable with the
# system it was projected out of, in elimination order.
Stages = List[Tuple[int, List[Row]]]


class _IntegralBox:
    """The one enumeration core: the integral box of a problem in ``int``s.

    Built once per oracle call, after the size checks.  Each model row is
    scaled to integers once; a row without continuous terms is then checked
    at every point by an integer dot product, and only rows with continuous
    terms enter the residual system handed to Fourier-Motzkin.  The
    auxiliary variable of ``lowest`` is x_t with ``t = num_vars``.
    """

    def __init__(self, problem: Problem):
        self.integral, self.continuous = _check_size(problem)
        self.num_vars = len(problem.variables)
        self.position = {j: k for k, j in enumerate(self.integral)}
        self._checks: List[Tuple[Tuple[Tuple[int, int], ...], int]] = []
        self._mixed: List[_Scaled] = []
        for C in problem.constraints:
            row = self.scale(C.terms, C.rhs)
            if row.cont:
                self._mixed.append(row)
            else:
                self._checks.append((row.pairs, row.rhs))
        self._ranges = [
            r for j in self.continuous for r in _var_range_rows(problem, j)
        ]
        self._domains = [
            range(int(v.global_lb), int(v.global_ub) + 1)
            for v in (problem.variables[j] for j in self.integral)
        ]

    def scale(self, terms: Sequence[Tuple[int, Rat]], rhs: Rat) -> _Scaled:
        scale = math.lcm(rhs.denominator, *(a.denominator for _, a in terms))
        scaled = [(j, a.numerator * (scale // a.denominator)) for j, a in terms]
        return _Scaled(
            tuple((self.position[j], a) for j, a in scaled if j in self.position),
            rhs.numerator * (scale // rhs.denominator),
            scale,
            {j: a for j, a in scaled if j not in self.position},
        )

    def lowest(
        self, extra: Sequence[_Scaled] = ()
    ) -> Iterator[Tuple[Tuple[int, ...], Optional[Rat], Stages]]:
        """``(values, low, stages)`` for each point, in ``itertools.product``
        order, that extends to a feasible point of the model plus the
        ``extra`` rows (scaled by ``scale``), which may bound x_t from
        below but never from above.

        The residual system (the mixed rows in model order, the continuous
        bound rows, then the extra rows) is in ``int``s and has its
        continuous variables projected out; ``low`` is the lowest value of
        x_t, or None when x_t is unbounded below (always so without a row on
        x_t).  It is the one Fraction built per point."""
        checks, mixed, ranges = self._checks, self._mixed, self._ranges
        t = self.num_vars
        for values in itertools.product(*self._domains):
            for pairs, rhs in checks:
                if _dot(pairs, values) < rhs:
                    break
            else:
                work = _residual(mixed, values) + ranges + _residual(extra, values)
                stages: Stages = []
                for v in self.continuous:
                    stages.append((v, work))
                    work = fm_eliminate(work, v)
                # The largest bound rhs / a_t, as (rhs, a_t) with a_t > 0.
                low: Optional[Tuple[int, int]] = None
                for coefs, rhs in work:
                    if not coefs:
                        if rhs > 0:
                            break
                    else:
                        a = coefs.get(t, 0)
                        if a > 0 and (low is None or rhs * low[1] > low[0] * a):
                            low = rhs, a
                else:
                    yield values, None if low is None else Fraction(*low), stages

    def assignment(self, values: Tuple[int, ...]) -> Dict[int, Rat]:
        return {j: Fraction(x) for j, x in zip(self.integral, values)}


def enumerate_feasible(problem: Problem) -> List[Dict[int, Rat]]:
    """All integral assignments that extend to a feasible point."""
    box = _IntegralBox(problem)
    return [box.assignment(values) for values, _, _ in box.lowest()]


def _back_substitute(stages: Stages, fixed: Dict[int, Rat]) -> Dict[int, Rat]:
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


@dataclass(frozen=True)
class OracleOptimum:
    status: str  # "optimal" | "infeasible"
    value: Optional[Rat] = None
    witness: Optional[Tuple[Rat, ...]] = None


def oracle_optimum(problem: Problem) -> OracleOptimum:
    """Exact minimum of the objective over the mixed-integer feasible set."""
    box = _IntegralBox(problem)
    objective = box.scale(problem.objective or (), ZERO)
    t = box.num_vars  # epigraph variable for the continuous part
    epigraph: List[_Scaled] = []
    if objective.cont:
        # t ≥ the continuous part, times the objective's scale.
        terms = ((t, objective.scale), *((j, -c) for j, c in objective.cont.items()))
        epigraph.append(box.scale(terms, ZERO))
    best: Optional[Rat] = None
    best_witness: Optional[Tuple[Rat, ...]] = None
    for values, low, stages in box.lowest(epigraph):
        value = Fraction(_dot(objective.pairs, values), objective.scale)
        if epigraph:
            if low is None:
                raise OracleError("continuous objective part is unbounded below")
            value += low
        if best is None or value < best:
            point = _back_substitute(stages, {**box.assignment(values), t: low})
            best = value
            best_witness = tuple(point[j] for j in range(t))
    if best is None:
        return OracleOptimum("infeasible")
    return OracleOptimum("optimal", best, best_witness)


def validate_learned(
    problem: Problem, learned: Union[LinearConstraint, BoundDisjunction]
) -> bool:
    """True iff every feasible point of the problem satisfies the object.

    The object's slack is ``C·x − b`` for a row ``C·x ≥ b``, and the largest
    of ``x_j − v`` for an atom ``x_j ≥ v`` and ``v − x_j`` for ``x_j ≤ v``
    over a disjunction's atoms; the object holds where its slack is
    nonnegative.  With one row ``x_t ≥ slack`` per row or atom, it is valid
    iff the lowest x_t is bounded and nonnegative at every feasible point.
    Raises ``ValueError`` on a term or atom outside the problem.
    """
    t = len(problem.variables)
    if isinstance(learned, LinearConstraint):
        slacks = [(learned.terms, learned.rhs)]
    else:
        slacks = [
            (((a.var, ONE),), a.value)
            if a.kind is BoundKind.LOWER
            else (((a.var, -ONE),), -a.value)
            for a in learned.atoms
        ]
    for terms, _ in slacks:
        for j, _ in terms:
            if not 0 <= j < t:
                raise ValueError(
                    f"learned object references undeclared variable index {j}"
                )
    box = _IntegralBox(problem)
    rows = [
        box.scale(((t, ONE), *((j, -a) for j, a in terms)), -rhs)
        for terms, rhs in slacks
    ]
    return all(low is not None and low >= 0 for _, low, _ in box.lowest(rows))


LIMIT_REASON = "the solver hit a limit"


def check_answer(
    problem: Problem, result, truth: Optional[OracleOptimum] = None
) -> Optional[str]:
    """None if ``result``, a solve of ``problem``, agrees with the oracle,
    else the first broken rule, in this order: every learned object is
    valid (even at a limit); the status is not ``limit`` (``LIMIT_REASON``);
    it is the oracle's; the objective is None without a model objective and
    the oracle's value with one; an optimal witness satisfies the model.
    ``truth`` is computed only when not passed.  Reads only ``status``,
    ``objective``, ``witness`` and ``learned``; raises ``OracleError`` on an
    instance the oracle refuses.
    """
    for obj in result.learned:
        if not validate_learned(problem, obj):
            return f"invalid learned object {obj}"
    if result.status == "limit":
        return LIMIT_REASON
    if truth is None:
        truth = oracle_optimum(problem)
    if result.status != truth.status:
        return f"status {result.status}, oracle {truth.status}"
    want = truth.value if problem.objective is not None else None
    if result.objective != want:
        return f"objective {result.objective}, oracle {want}"
    if result.status == "optimal":
        bad = violation(problem, result.witness or ())
        if bad is not None:
            return f"witness: {bad}"
    return None
