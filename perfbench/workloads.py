"""Inputs and answer checks for the cutlearn benchmark.

Each workload is a fixed corpus. The run's seed draws the order in which a
pass makes its calls, so every seed times the same work. Redrawing the
instances would make the per-pass totals heavy-tailed: on random draws of
100 acceptance-sweep instances the interquartile spread of total solve time
across seeds is about 25%. Even redrawing only the row order of each
instance moved the median call by up to 14% between seeds, as much as the
host's own noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from cutlearn import oracle, search
from cutlearn.corpus import random_general_integer_problem, random_mbp_problem
from cutlearn.cuts import ReductionStrategy
from cutlearn.model import (
    LinearConstraint,
    Problem,
    Variable,
    VarKind,
    build_problem,
    evaluate,
)

# The oracle enumerates the integral box; beyond this many points it is too
# slow to run once per instance and the known answer is checked instead.
MAX_CERTIFIED_BOX = 4096


def pigeonhole(p: int, h: int) -> Problem:
    """PHP(p, h): p pigeons into h holes, at most one pigeon per hole.

    Variable ``i * h + j`` says pigeon i sits in hole j. Infeasible exactly
    when p > h.
    """
    if p < 1 or h < 1:
        raise ValueError("pigeonhole needs at least one pigeon and one hole")
    zero, one = Fraction(0), Fraction(1)
    variables = [
        Variable(i * h + j, f"x{i}_{j}", VarKind.BINARY, zero, one)
        for i in range(p)
        for j in range(h)
    ]
    rows = [
        LinearConstraint.from_dict({i * h + j: one for j in range(h)}, one)
        for i in range(p)
    ]
    rows += [
        LinearConstraint.from_dict({i * h + j: -one for i in range(p)}, -one)
        for j in range(h)
    ]
    return build_problem(variables, rows)


def shuffled_rows(problem: Problem, rng: random.Random) -> Problem:
    rows = list(problem.constraints)
    rng.shuffle(rows)
    return build_problem(problem.variables, rows, problem.objective_dict() or None)


def box_size(problem: Problem) -> int:
    size = 1
    for v in problem.variables:
        if v.is_integral:
            size *= int(v.global_ub - v.global_lb) + 1
    return size


@dataclass(frozen=True)
class Instance:
    label: str
    problem: Problem
    # Known status for instances the oracle does not decide.
    expected: Optional[str] = None
    truth: Optional[oracle.OracleOptimum] = None


@dataclass(frozen=True)
class Workload:
    name: str
    two_phase: bool
    # () -> [(label, problem, known status or None)]
    generate: Callable[[], List[Tuple[str, Problem, Optional[str]]]]


def pigeonhole_proofs(copies: Tuple[Tuple[int, int], ...] = ((4, 1), (5, 2))):
    """PHP(p, p - 1) under ``n`` fixed row orders for each (p, n).

    With these counts the median and the 90th percentile call are PHP(5,4)
    proofs, the smallest size at which ``is_asserting`` outweighs
    propagation. PHP(6,5) is left out: its calls last about four times as
    long, too long for a call's best time to fall in a spell at full speed.
    """
    rng = random.Random(0)
    return [
        (f"php/{p}/{k}", shuffled_rows(pigeonhole(p, p - 1), rng), "infeasible")
        for p, n in copies
        for k in range(n)
    ]


# General-integer seeds whose calls last 60 ms to 0.6 s. With them a pass
# takes more than twice as long, and seed 35 alone is half of it.
HEAVY_INTEGER_SEEDS = (30, 35, 53)


def twophase(integer: int = 60, mixed: int = 10):
    """General-integer and mixed-binary instances for ``run_two_phase``.

    Halving the set would lose either the only disjunction conflicts
    (general-integer seed 51) or every certified learned object (the even
    seeds).
    """
    out = [
        (f"integer/{s}", random_general_integer_problem(s), None)
        for s in range(integer)
        if s not in HEAVY_INTEGER_SEEDS
    ]
    out += [(f"mixed/{s}", random_mbp_problem(s), None) for s in range(mixed)]
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pigeonhole", False, pigeonhole_proofs),
        Workload("twophase", True, twophase),
    )
}


def build_instances(workload: Workload, seed: int) -> List[Instance]:
    """Generate the inputs, in the order ``seed`` draws, and the oracle's
    reference optima."""
    generated = workload.generate()
    random.Random(seed).shuffle(generated)
    out = []
    for label, problem, expected in generated:
        truth = None
        if box_size(problem) <= MAX_CERTIFIED_BOX:
            truth = oracle.oracle_optimum(problem)
        out.append(Instance(label, problem, expected, truth))
    return out


# -- checks ---------------------------------------------------------------------


def check_result(inst: Instance, result: search.SolveResult) -> Optional[str]:
    """None if the result agrees with the known answer and the oracle."""
    if result.status == "limit":
        return "hit the node limit"
    wants = {inst.expected, inst.truth.status if inst.truth else None} - {None}
    if len(wants) != 1:
        return f"no single reference answer: {sorted(wants)}"
    (want,) = wants
    if result.status != want:
        return f"status {result.status}, expected {want}"
    if result.status != "optimal":
        return None
    problem = inst.problem
    if (
        inst.truth is not None
        and problem.objective is not None
        and result.objective != inst.truth.value
    ):
        return f"objective {result.objective}, oracle {inst.truth.value}"
    witness = list(result.witness)
    for v in problem.variables:
        x = witness[v.index]
        if x < v.global_lb or x > v.global_ub:
            return f"witness puts {v.name} outside its bounds"
        if v.is_integral and x.denominator != 1:
            return f"witness gives integral {v.name} the value {x}"
    for row in problem.constraints:
        if not evaluate(row, witness).satisfied:
            return f"witness violates {row}"
    return None


def check_learned(inst: Instance, objects) -> Optional[str]:
    """Certify learned objects with the oracle where it decides the instance.

    Every object is valid on an infeasible instance, so those are skipped.
    An object the oracle refuses to decide is not a failure; the traced run
    counts refusals.
    """
    if inst.truth is None or inst.truth.status == "infeasible":
        return None
    for obj in objects:
        try:
            valid = oracle.validate_learned(inst.problem, obj)
        except oracle.OracleError:
            continue
        if not valid:
            return f"learned object fails validation: {obj}"
    return None


STRATEGIES = tuple(ReductionStrategy)
