"""Command-line front end: solve, oracle cross-check, two-phase experiment."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cuts import ReductionStrategy
from .fileio import ParseError, emit_stats, parse_native, parse_opb
from .model import Problem
from .oracle import OracleError, oracle_optimum, validate_learned
from .rationals import format_rational
from .search import (
    SolverConfig,
    run_two_phase,
    solve,
    write_learned_file,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_LIMIT = 2


def _load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}")
    if path.endswith(".opb"):
        return parse_opb(text)
    return parse_native(text)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")
    sub.add_argument(
        "--reduction",
        choices=[s.value for s in ReductionStrategy],
        default=ReductionStrategy.CMIR.value,
    )
    sub.add_argument("--no-learning", action="store_true")
    sub.add_argument("--node-limit", type=int, default=10_000)
    sub.add_argument("--conflict-limit", type=int, default=1_000)
    sub.add_argument("--max-learned-length", type=int, default=None)
    sub.add_argument("--stats-json", default=None)
    sub.add_argument("--trace", default=None)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        strategy=ReductionStrategy(args.reduction),
        enable_learning=not args.no_learning,
        node_limit=args.node_limit,
        conflict_limit=args.conflict_limit,
        max_learned_length=args.max_learned_length,
        emit_trace=args.trace is not None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cutlearn",
        description="exact-rational branch-and-bound with cut-based conflict learning",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_solver_flags(subs.add_parser("solve"))
    check = subs.add_parser("check")
    check.add_argument("file")
    two = subs.add_parser("twophase")
    _add_solver_flags(two)
    two.add_argument("--out-learned", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK

    try:
        problem = _load_problem(args.file)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command == "solve":
        return _cmd_solve(problem, args)
    if args.command == "check":
        return _cmd_check(problem)
    return _cmd_twophase(problem, args)


def _cmd_solve(problem: Problem, args) -> int:
    result = solve(problem, _config_from_args(args))
    _report(result)
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            fh.write(emit_stats(result.stats, result.status, result.objective) + "\n")
    return EXIT_LIMIT if result.status == "limit" else EXIT_OK


def _cmd_check(problem: Problem) -> int:
    result = solve(problem)
    try:
        truth = oracle_optimum(problem)
        for obj in result.learned:
            if not validate_learned(problem, obj):
                print(f"check: INVALID learned object {obj}", file=sys.stderr)
                return EXIT_INPUT_ERROR
    except OracleError as exc:
        print(f"check: oracle refused: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if result.status == "limit":
        print("check: solver hit a limit; no verdict")
        return EXIT_LIMIT
    solver_status = result.status
    oracle_status = "optimal" if truth.status == "optimal" else "infeasible"
    agree = solver_status == oracle_status and (
        solver_status != "optimal" or result.objective == truth.value
    )
    print(
        f"check: solver={solver_status}"
        + (f" value={format_rational(result.objective)}" if result.objective is not None else "")
        + f" oracle={oracle_status}"
        + (f" value={format_rational(truth.value)}" if truth.value is not None else "")
        + (" AGREE" if agree else " DISAGREE")
    )
    return EXIT_OK if agree else EXIT_INPUT_ERROR


def _cmd_twophase(problem: Problem, args) -> int:
    r1, r2, objects = run_two_phase(problem, _config_from_args(args))
    print("phase1 " + emit_stats(r1.stats, r1.status, r1.objective))
    print("phase2 " + emit_stats(r2.stats, r2.status, r2.objective))
    if args.out_learned:
        write_learned_file(args.out_learned, objects)
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            fh.write(emit_stats(r2.stats, r2.status, r2.objective) + "\n")
    if r1.status == "limit" or r2.status == "limit":
        return EXIT_LIMIT
    return EXIT_OK


def _report(result) -> None:
    if result.status == "optimal":
        if result.objective is None:
            print("status: feasible")
        else:
            print(f"status: optimal objective: {format_rational(result.objective)}")
        if result.witness is not None:
            point = " ".join(format_rational(x) for x in result.witness)
            print(f"witness: {point}")
    elif result.status == "infeasible":
        print("status: infeasible")
    else:
        print("status: limit reached")


if __name__ == "__main__":
    sys.exit(main())
