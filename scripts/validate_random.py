#!/usr/bin/env python3
"""Random cross-validation of the solver against the enumeration oracle.

Generates pure-binary, mixed-binary, and general-integer instances, solves
each one under every reduction strategy, and checks that the reported optimum
matches the oracle, that its witness keeps every global bound, integrality
requirement and row, and that every learned constraint or bound disjunction
is valid for the instance.  The oracle's optimum is computed once per instance
and shared by the strategies; the last line splits the time between the
solver and the oracle.  Exits nonzero on the first discrepancy.
"""

import argparse
import sys
import time

from cutlearn.corpus import (
    random_binary_problem,
    random_general_integer_problem,
    random_mbp_problem,
)
from cutlearn.cuts import ReductionStrategy
from cutlearn.model import violation
from cutlearn.oracle import oracle_optimum, validate_learned
from cutlearn.search import SolverConfig, solve


def check_one(problem, strategy, truth, clock):
    """None if the solve under ``strategy`` agrees with ``truth``, the
    oracle's optimum; ``clock`` accumulates solver and oracle seconds."""
    start = time.perf_counter()
    result = solve(problem, SolverConfig(strategy=strategy))
    clock["solver"] += time.perf_counter() - start
    if result.status == "limit":
        return "hit the node limit"
    if truth.status == "infeasible":
        if result.status != "infeasible":
            return f"solver says {result.status}, oracle says infeasible"
    else:
        if result.status != "optimal":
            return f"solver says {result.status}, oracle says optimal"
        if problem.objective is not None and result.objective != truth.value:
            return f"optimum {result.objective} != oracle {truth.value}"
        bad_witness = violation(problem, result.witness)
        if bad_witness is not None:
            return f"witness: {bad_witness}"
    start = time.perf_counter()
    invalid = next(
        (obj for obj in result.learned if not validate_learned(problem, obj)),
        None,
    )
    clock["oracle"] += time.perf_counter() - start
    if invalid is not None:
        return f"invalid learned object {invalid}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", type=int, default=200, help="binary seeds")
    ap.add_argument("--mixed", type=int, default=100, help="mixed-binary seeds")
    ap.add_argument("--integer", type=int, default=50, help="general-integer seeds")
    args = ap.parse_args(argv)

    groups = [
        ("binary", random_binary_problem, args.binary),
        ("mixed", random_mbp_problem, args.mixed),
        ("integer", random_general_integer_problem, args.integer),
    ]
    clock = {"solver": 0.0, "oracle": 0.0}
    checked = 0
    for label, gen, count in groups:
        for seed in range(count):
            problem = gen(seed)
            start = time.perf_counter()
            truth = oracle_optimum(problem)
            clock["oracle"] += time.perf_counter() - start
            for strategy in ReductionStrategy:
                err = check_one(problem, strategy, truth, clock)
                checked += 1
                if err is not None:
                    print(
                        f"FAIL {label} seed={seed} "
                        f"strategy={strategy.name.lower()}: {err}"
                    )
                    return 1
        print(f"{label}: {count} instances ok")
    print(
        f"all {checked} solves agree with the oracle "
        f"(solver {clock['solver']:.1f}s, oracle {clock['oracle']:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
