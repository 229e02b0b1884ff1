"""Command-line entry points via main(argv)."""

import argparse
import dataclasses
import json
from fractions import Fraction as F

import pytest

from cutlearn import cli
from cutlearn.cli import (
    EXIT_INPUT_ERROR,
    EXIT_LIMIT,
    EXIT_OK,
    _add_solver_flags,
    _config_from_args,
    main,
)
from cutlearn.cuts import ReductionStrategy
from cutlearn.fileio import parse_native, print_native
from cutlearn.model import LinearConstraint
from cutlearn.corpus import pigeonhole, random_mbp_problem
from cutlearn.oracle import validate_learned
from cutlearn.search import SolverConfig, solve

OPB = "min: +1 x1 +1 x2;\n+1 x1 +1 x2 >= 1;\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_opb(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", OPB)
    stats = str(tmp_path / "stats.json")
    assert main(["solve", path, "--stats-json", stats]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: optimal objective: 1" in out
    payload = json.loads(open(stats).read())
    assert payload["status"] == "optimal" and payload["objective"] == "1"
    assert payload["propagation_capped"] == 0


def test_stats_json_counts_capped_propagation(tmp_path):
    """y1 <= (y2 + 1) / 2 and y2 <= (y1 + 1) / 2 pull both upper bounds
    toward 1 without ever reaching a fixpoint, so the round cap stops it."""
    text = (
        "var y1 continuous [0, 10]\n"
        "var y2 continuous [0, 10]\n"
        "con a: -2 y1 + 1 y2 >= -1\n"
        "con b: 1 y1 - 2 y2 >= -1\n"
    )
    path = _write(tmp_path, "zigzag.txt", text)
    stats = str(tmp_path / "stats.json")
    assert main(["solve", path, "--stats-json", stats]) == EXIT_OK
    assert json.loads(open(stats).read())["propagation_capped"] == 1


def test_solve_native_with_reduction_flag(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    for strategy in ("clause", "coeftight", "wmir", "cmir"):
        assert main(["solve", path, "--reduction", strategy]) == EXIT_OK
        assert "status:" in capsys.readouterr().out


# c2 propagates b >= 1 from z >= 1, through y with an infinite upper bound.
NONBINARY_REASON = (
    "var w binary\n"
    "var z binary\n"
    "var b binary\n"
    "var y integer [0, {ub}]\n"
    "con c1: 1 w + 1 z >= 1\n"
    "con c2: 1 b - 1 y - 1 z >= -1/2\n"
    "con c3: -1 b - 1 z >= -1\n"
)


def test_nonbinary_reason_is_refused_not_fatal(tmp_path, capsys):
    """A binary variable propagated by a row with a general integer of
    infinite upper bound: the binary reductions refuse the reason and the
    analysis falls back, under every strategy.  The learned objects hold on
    the model with y capped at 3, where the oracle can enumerate."""
    path = _write(tmp_path, "nb.txt", NONBINARY_REASON.format(ub="inf"))
    capped = parse_native(NONBINARY_REASON.format(ub="3"))
    for strategy in ReductionStrategy:
        assert main(["solve", path, "--reduction", strategy.value]) == EXIT_OK
        assert "status: feasible" in capsys.readouterr().out
        result = solve(parse_native(open(path).read()), SolverConfig(strategy=strategy))
        assert result.learned
        for obj in result.learned:
            assert validate_learned(capped, obj), (strategy, obj)


def test_solve_node_limit(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", OPB)
    assert main(["solve", path, "--node-limit", "1"]) == EXIT_LIMIT
    assert "limit" in capsys.readouterr().out


def test_conflict_limit_flag(tmp_path, capsys):
    path = _write(tmp_path, "php.txt", print_native(pigeonhole(5, 4)))
    stats = str(tmp_path / "stats.json")
    assert main(["solve", path, "--conflict-limit", "0", "--stats-json", stats]) == EXIT_OK
    assert "status: infeasible" in capsys.readouterr().out
    assert json.loads(open(stats).read())["conflicts_analyzed"] == 0


def test_solver_flag_defaults_are_the_config_defaults():
    parser = argparse.ArgumentParser()
    _add_solver_flags(parser)
    assert _config_from_args(parser.parse_args(["model.txt"])) == SolverConfig()


def test_check_agrees(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    assert main(["check", path]) == EXIT_OK
    assert "AGREE" in capsys.readouterr().out


# random_mbp_problem(52): optimum 4 at x1, x2, x3, y1 = 1, 0, 0, 3/2; each
# case moves one value so the point breaks one kind of requirement.
@pytest.mark.parametrize(
    "var, value, reason",
    [
        (3, F(4), "witness: y1 = 4 outside [0, 3]"),
        (0, F(1, 2), "witness: x1 = 1/2 is not integral"),
        (3, F(0), "witness: row 2 violated"),
    ],
    ids=["bound", "integrality", "row"],
)
def test_check_rejects_an_infeasible_witness(
    tmp_path, capsys, monkeypatch, var, value, reason
):
    """Status and objective agree with the oracle, but the witness does not
    satisfy the problem: ``check`` must say so."""
    problem = random_mbp_problem(52)
    result = solve(problem)
    witness = list(result.witness)
    witness[var] = value
    bad = dataclasses.replace(result, witness=tuple(witness))
    monkeypatch.setattr(cli, "solve", lambda _problem: bad)
    path = _write(tmp_path, "p.txt", print_native(problem))
    assert main(["check", path]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    assert "value=4 oracle=optimal value=4 DISAGREE" in out
    assert reason in out


@pytest.mark.parametrize("rhs, code", [(-6, EXIT_LIMIT), (100, EXIT_INPUT_ERROR)])
def test_check_at_a_limit(tmp_path, capsys, monkeypatch, rhs, code):
    """At a limit ``check`` gives no verdict (exit 2) unless a learned
    object is invalid, which is a disagreement (exit 1)."""
    problem = random_mbp_problem(52)
    result = solve(problem)
    (row,) = result.learned
    learned = (LinearConstraint(row.terms, F(rhs), row.origin),)
    limit = dataclasses.replace(result, status="limit", learned=learned)
    monkeypatch.setattr(cli, "solve", lambda _problem: limit)
    path = _write(tmp_path, "p.txt", print_native(problem))
    assert main(["check", path]) == code
    out = capsys.readouterr().out
    if code == EXIT_LIMIT:
        assert out == "check: solver hit a limit; no verdict\n"
    else:
        assert "=limit value=4 oracle=optimal value=4 DISAGREE invalid learned object" in out


@pytest.mark.parametrize(
    "name, text",
    [
        ("a.txt", "var x binary\nvar y binary\ncon c1: x + y >= 1\n"),
        ("a.opb", "+1 x1 +1 x2 >= 1 ;\n"),
    ],
    ids=["txt", "opb"],
)
def test_check_agrees_without_objective(tmp_path, capsys, name, text):
    """A feasible model without an objective: the oracle's optimum carries
    value 0 and the solver's none, which is agreement."""
    path = _write(tmp_path, name, text)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solver=optimal oracle=optimal AGREE" in out


def test_check_infeasible(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", "+1 x1 >= 1;\n-1 x1 >= 0;\n")
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solver=infeasible" in out and "AGREE" in out


def test_twophase_prints_both_phases(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    assert main(["twophase", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("phase1 ") and "phase2 " in out
    for line in out.splitlines():
        tag, payload = line.split(" ", 1)
        json.loads(payload)


def test_bad_input_paths(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.opb")]) == EXIT_INPUT_ERROR
    bad = _write(tmp_path, "bad.opb", "+1 x1 >= 1\n")
    assert main(["solve", bad]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    bound = _write(tmp_path, "bound.txt", "var x integer [1/0, 5]\n")
    assert main(["solve", bound]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: line 1: malformed bound '1/0'\n"


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    """An output path in a missing directory is reported, not a traceback."""
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    missing = str(tmp_path / "missing" / "out.txt")
    for argv in (
        ["solve", path, "--stats-json", missing],
        ["twophase", path, "--stats-json", missing],
    ):
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing!r}: ")
        assert err.count("\n") == 1


def test_bad_flags(tmp_path, capsys):
    assert main(["solve"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    path = _write(tmp_path, "a.opb", OPB)
    for command in ("solve", "twophase"):
        for flag, value, message in (
            ("--node-limit", "0", "node limit must be positive"),
            ("--conflict-limit", "-1", "conflict limit must be 0 or more"),
        ):
            assert main([command, path, flag, value]) == EXIT_INPUT_ERROR
            assert capsys.readouterr().err == f"error: {message}\n"


def test_seed_flag_is_rejected(tmp_path, capsys):
    """The search is deterministic and reads no seed, so none is accepted."""
    path = _write(tmp_path, "a.opb", OPB)
    assert main(["solve", path, "--seed", "1"]) == EXIT_INPUT_ERROR
    assert "--seed" in capsys.readouterr().err


def test_trace_flag_is_rejected(tmp_path, capsys):
    """No trace is written, so the flag is not accepted either."""
    path = _write(tmp_path, "a.opb", OPB)
    trace = tmp_path / "trace.jsonl"
    assert main(["solve", path, "--trace", str(trace)]) == EXIT_INPUT_ERROR
    assert "--trace" in capsys.readouterr().err
    assert not trace.exists()


UNBOUNDED = (
    "var x binary\n"
    "var y continuous [-inf, inf]\n"
    "min: y\n"
    "con c: x - y >= 0\n"
)


@pytest.mark.parametrize("command", ["solve", "check", "twophase"])
def test_unbounded_objective_is_an_input_error(tmp_path, capsys, command):
    """y can fall without limit, so there is no optimum: every command
    reports that and exits, with no traceback."""
    path = _write(tmp_path, "unbounded.txt", UNBOUNDED)
    assert main([command, path]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: continuous objective part unbounded below\n"
    )


def test_empty_domain_is_an_input_error(tmp_path, capsys):
    """A variable fixed at +inf has no value; the model must be refused,
    not solved to a witness outside its bounds."""
    path = _write(
        tmp_path,
        "empty.txt",
        "var x continuous [inf, inf]\nvar b binary\ncon c: 1 x + 1 b >= 1\n",
    )
    assert main(["solve", path]) == EXIT_INPUT_ERROR
    assert "empty domain" in capsys.readouterr().err
