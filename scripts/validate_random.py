#!/usr/bin/env python3
"""Random cross-validation of the solver against the enumeration oracle.

Solves pure-binary, mixed-binary, general-integer and ``mknap`` instances
under every reduction strategy and checks each answer with
``oracle.check_answer`` against the oracle's optimum, computed once per
instance.  The last line splits the time between the solver and the
oracle.  Exits nonzero on the first discrepancy.
"""

import argparse
import sys
import time

from cutlearn.corpus import (
    mknap,
    random_binary_problem,
    random_general_integer_problem,
    random_mbp_problem,
)
from cutlearn.cuts import ReductionStrategy
from cutlearn.oracle import check_answer, oracle_optimum
from cutlearn.search import SolverConfig, solve


def check_one(problem, strategy, truth, clock):
    """None if the solve under ``strategy`` agrees with ``truth``, the
    oracle's optimum, else the disagreement; ``clock`` accumulates solver
    and oracle seconds."""
    start = time.perf_counter()
    result = solve(problem, SolverConfig(strategy=strategy))
    clock["solver"] += time.perf_counter() - start
    start = time.perf_counter()
    err = check_answer(problem, result, truth)
    clock["oracle"] += time.perf_counter() - start
    return err


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", type=int, default=200, help="binary seeds")
    ap.add_argument("--mixed", type=int, default=100, help="mixed-binary seeds")
    ap.add_argument("--integer", type=int, default=50, help="general-integer seeds")
    ap.add_argument("--mknap", type=int, default=20, help="mknap seeds")
    args = ap.parse_args(argv)

    groups = [
        ("binary", random_binary_problem, args.binary),
        ("mixed", random_mbp_problem, args.mixed),
        ("integer", random_general_integer_problem, args.integer),
        ("mknap", mknap, args.mknap),
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
