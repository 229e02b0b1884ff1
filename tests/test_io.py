"""Input dialects, round-trip printing, and statistics emission."""

import hashlib
import json

import pytest

from cutlearn.corpus import (
    desk_corpus,
    random_binary_problem,
    random_general_integer_problem,
    random_mbp_problem,
)
from cutlearn.fileio import (
    ParseError,
    emit_result_stats,
    emit_stats,
    parse_native,
    parse_opb,
    print_native,
)
from cutlearn.model import VarKind
from cutlearn.search import Stats, solve

from conftest import F, mk


# -- pseudo-Boolean subset ----------------------------------------------------


def test_parse_opb_basic():
    p = parse_opb(
        "* a comment\n"
        "min: +1 x1 -2 x3;\n"
        "+2 x1 +3 x2 >= 2;\n"
        "-1 x2 +1 x3 <= 0;\n"
        "+1 x1 = 1;\n"
    )
    assert len(p.variables) == 3
    assert all(v.kind is VarKind.BINARY for v in p.variables)
    assert dict(p.objective) == {0: F(1), 2: F(-2)}
    # <= negated, = split into two rows
    assert p.constraints == (
        mk({0: 2, 1: 3}, 2),
        mk({1: 1, 2: -1}, 0),
        mk({0: 1}, 1),
        mk({0: -1}, -1),
    )


def test_parse_opb_repeated_terms_accumulate():
    p = parse_opb("+1 x1 +2 x1 >= 2;\n")
    assert p.constraints == (mk({0: 3}, 2),)


def test_parse_opb_errors():
    with pytest.raises(ParseError):
        parse_opb("+1 x1 >= 1\n")  # missing ';'
    with pytest.raises(ParseError):
        parse_opb("+1 x1 >= 1.5;\n")  # fractional rhs
    with pytest.raises(ParseError):
        parse_opb("+1 x0 >= 1;\n")  # numbering starts at x1
    with pytest.raises(ParseError):
        parse_opb("+1 x1 junk >= 1;\n")
    with pytest.raises(ParseError):
        parse_opb("min: +1 x1;\nmin: +1 x1;\n+1 x1 >= 0;\n")
    err = None
    try:
        parse_opb("+1 x1 >= 1;\nbogus\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


# -- native mixed format ------------------------------------------------------

NATIVE = """\
# mixed sample
var x binary
var z integer [0, 5]
var y continuous [-1/2, inf]
min: + 1 x + 2 z
con c0: + 2 x - 1 y >= 3/2
con c1: + 1 z + 1 y <= 4
con c2: + 1 x = 1
"""


def test_parse_native_basic():
    p = parse_native(NATIVE)
    kinds = [v.kind for v in p.variables]
    assert kinds == [VarKind.BINARY, VarKind.INTEGER, VarKind.CONTINUOUS]
    assert p.variables[2].global_lb == F(-1, 2)
    assert p.variables[2].global_ub == float("inf")
    assert dict(p.objective) == {0: F(1), 1: F(2)}
    assert p.constraints[0] == mk({0: 2, 2: -1}, F(3, 2))
    assert p.constraints[1] == mk({1: -1, 2: -1}, -4)
    assert p.constraints[2:] == (mk({0: 1}, 1), mk({0: -1}, -1))


def test_parse_native_decimals_are_exact():
    p = parse_native("var y continuous [0, 1]\ncon c: + 0.1 y >= 0.3\n")
    assert p.constraints[0] == mk({0: F(1, 10)}, F(3, 10))


def test_parse_native_rejects_scientific_notation():
    with pytest.raises(ParseError):
        parse_native("var y continuous [0, 1]\ncon c: + 1 y >= 1e-3\n")


def test_parse_native_errors():
    with pytest.raises(ParseError):
        parse_native("var x binary\nvar x binary\n")
    with pytest.raises(ParseError):
        parse_native("var z integer\n")  # needs bounds
    with pytest.raises(
        ParseError, match=r"^line 1: binary variable 'x' must have bounds \[0,1\]$"
    ):
        parse_native("var x binary [0, 2]\n")
    with pytest.raises(ParseError):
        parse_native("con c: + 1 x >= 0\n")  # unknown variable
    with pytest.raises(ParseError):
        parse_native("var x binary\ncon c + 1 x >= 0\n")  # missing ':'
    with pytest.raises(ParseError):
        parse_native("what is this\n")
    for line in (
        "var x integer [foo, 3]",
        "var x binary [zz, 1]",
        "var x integer [1e3, 5]",
        "var x integer [1/0, 5]",
    ):
        with pytest.raises(ParseError, match="^line 2: malformed bound"):
            parse_native("# a malformed bound\n" + line + "\n")


def test_parse_native_requires_a_sign_before_every_later_term():
    """A term after the first without its sign is refused, in a row and in
    the objective, instead of being read as added."""
    head = "var x binary\nvar y binary\n"
    for line in ("con c: x y >= 1", "con c: 2 x 3 y >= 1", "min: x y", "min: + 2 x 3 y"):
        with pytest.raises(ParseError, match="^line 3: missing sign"):
            parse_native(head + line + "\n")


def test_print_native_roundtrip():
    for problem in [parse_native(NATIVE), random_mbp_problem(3)] + desk_corpus(6):
        text = print_native(problem)
        back = parse_native(text)
        assert back.variables == problem.variables
        assert back.constraints == problem.constraints
        assert back.objective == problem.objective
        assert print_native(back) == text


# sha256 of the printed random instances: the benchmark's ``twophase`` inputs
# and the transcript's sweep.  A change that means to change them updates it
# and says so.
GENERATED_INSTANCES_SHA256 = (
    "6d6ff545642fd1e578e71e93e7b234968903cd7b4445a0679db86a56c4fcd2bb"
)


def test_generated_instances_are_unchanged():
    """``random_binary_problem`` seeds 0-999, ``random_mbp_problem`` seeds
    0-299 and ``random_general_integer_problem`` seeds 0-199, printed one
    after the other, give the committed digest."""
    problems = [random_binary_problem(s) for s in range(1000)]
    problems += [random_mbp_problem(s) for s in range(300)]
    problems += [random_general_integer_problem(s) for s in range(200)]
    text = "".join(print_native(p) for p in problems)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_INSTANCES_SHA256


# -- statistics ---------------------------------------------------------------


def test_emit_stats_fixed_key_order():
    text = emit_stats(Stats(nodes=3), status="optimal", objective=F(7, 2))
    payload = json.loads(text)
    assert list(payload) == [
        "nodes",
        "conflicts_analyzed",
        "learned_linear",
        "learned_disjunctions",
        "fallbacks",
        "avg_learned_length",
        "used_pct",
        "bdchgs_by_learned",
        "propagation_capped",
        "status",
        "objective",
    ]
    assert payload["nodes"] == 3
    assert payload["propagation_capped"] == 0
    assert payload["objective"] == "7/2"


def test_emit_result_stats():
    problem = random_mbp_problem(52)
    result = solve(problem)
    payload = json.loads(emit_result_stats(result))
    assert payload["status"] == result.status
    assert payload["conflicts_analyzed"] == result.stats.conflicts_analyzed
