"""Command-line front end: solve, oracle cross-check, two-phase experiment."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cuts import ReductionStrategy
from .fileio import ParseError, emit_result_stats, parse_native, parse_opb
from .model import Problem
from .oracle import LIMIT_REASON, OracleError, check_answer, oracle_optimum
from .rationals import format_rational
from .search import (
    SolveResult,
    SolverConfig,
    SolverError,
    run_two_phase,
    solve,
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


def _write_stats(path: str, result: SolveResult) -> bool:
    """Write ``result``'s stats to ``path``; False, with the error reported,
    if the path cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(emit_result_stats(result) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    sub.add_argument("file")
    sub.add_argument(
        "--reduction",
        choices=[s.value for s in ReductionStrategy],
        default=defaults.strategy.value,
    )
    sub.add_argument("--node-limit", type=int, default=defaults.node_limit)
    sub.add_argument(
        "--conflict-limit",
        type=int,
        default=defaults.conflict_limit,
        help="conflicts analyzed at most; 0 turns learning off",
    )
    sub.add_argument("--stats-json", default=None)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        strategy=ReductionStrategy(args.reduction),
        node_limit=args.node_limit,
        conflict_limit=args.conflict_limit,
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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK

    try:
        problem = _load_problem(args.file)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command != "check":
        try:
            config = _config_from_args(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    try:
        if args.command == "check":
            return _cmd_check(problem)
        if args.command == "solve":
            return _cmd_solve(problem, config, args)
        return _cmd_twophase(problem, config, args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _cmd_solve(problem: Problem, config: SolverConfig, args) -> int:
    result = solve(problem, config)
    _report(result)
    if args.stats_json and not _write_stats(args.stats_json, result):
        return EXIT_INPUT_ERROR
    return EXIT_LIMIT if result.status == "limit" else EXIT_OK


def _cmd_check(problem: Problem) -> int:
    result = solve(problem)
    try:
        truth = oracle_optimum(problem)
        reason = check_answer(problem, result, truth)
    except OracleError as exc:
        print(f"check: oracle refused: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if reason == LIMIT_REASON:
        print("check: solver hit a limit; no verdict")
        return EXIT_LIMIT
    oracle_value = truth.value if problem.objective is not None else None
    print(
        f"check: solver={result.status}"
        + (f" value={format_rational(result.objective)}" if result.objective is not None else "")
        + f" oracle={truth.status}"
        + (f" value={format_rational(oracle_value)}" if oracle_value is not None else "")
        + (" AGREE" if reason is None else f" DISAGREE {reason}")
    )
    return EXIT_OK if reason is None else EXIT_INPUT_ERROR


def _cmd_twophase(problem: Problem, config: SolverConfig, args) -> int:
    r1, r2, _ = run_two_phase(problem, config)
    print("phase1 " + emit_result_stats(r1))
    print("phase2 " + emit_result_stats(r2))
    if args.stats_json and not _write_stats(args.stats_json, r2):
        return EXIT_INPUT_ERROR
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
