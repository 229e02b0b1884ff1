"""Problem parsers, statistics emission, and round-trip printing.

Two input dialects are supported: a pseudo-Boolean subset (all variables
binary, integer coefficients, lines terminated by ';') and a line-based
native format for mixed problems.  All numbers are parsed to exact
rationals; scientific notation is rejected.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .model import Problem, Variable, VarKind, build_problem
from .rationals import (
    Ext,
    Rat,
    format_ext,
    format_rational,
    parse_ext,
    parse_rational,
)
from .search import SolveResult, Stats


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# -- pseudo-Boolean subset -----------------------------------------------------

_OPB_TERM = re.compile(r"([+-]?\d+)\s+x(\d+)")


def parse_opb(text: str) -> Problem:
    """Pseudo-Boolean input: optional "min:" line, then ';'-terminated rows."""
    objective: Optional[Dict[int, Rat]] = None
    raw_rows: List[Tuple[Dict[int, Rat], str, Rat, int]] = []
    max_var = 0

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("*", 1)[0].strip()  # '*' starts a comment
        if not line:
            continue
        if line.startswith("min:"):
            if objective is not None:
                raise ParseError("duplicate objective", lineno)
            body = line[4:].strip()
            if not body.endswith(";"):
                raise ParseError("objective missing terminating ';'", lineno)
            terms, rest = _opb_terms(body[:-1], lineno)
            if rest.strip():
                raise ParseError(f"trailing junk {rest.strip()!r}", lineno)
            objective = terms
            max_var = max(max_var, max(terms, default=-1) + 1)
            continue
        if not line.endswith(";"):
            raise ParseError("constraint missing terminating ';'", lineno)
        body = line[:-1].strip()
        m = re.search(r"(>=|<=|=)", body)
        if m is None:
            raise ParseError("missing comparison operator", lineno)
        lhs, op, rhs_s = body[: m.start()], m.group(1), body[m.end():].strip()
        terms, rest = _opb_terms(lhs, lineno)
        if rest.strip():
            raise ParseError(f"unparsed tokens {rest.strip()!r}", lineno)
        try:
            rhs = Fraction(int(rhs_s))
        except ValueError:
            raise ParseError(f"non-integer right-hand side {rhs_s!r}", lineno)
        raw_rows.append((terms, op, rhs, lineno))
        max_var = max(max_var, max(terms, default=-1) + 1)

    variables = [
        Variable(i, f"x{i + 1}", VarKind.BINARY, Fraction(0), Fraction(1))
        for i in range(max_var)
    ]
    rows = [(terms, op, rhs) for terms, op, rhs, _ in raw_rows]
    return build_problem(variables, rows, objective)


def _opb_terms(text: str, lineno: int) -> Tuple[Dict[int, Rat], str]:
    terms: Dict[int, Rat] = {}
    pos = 0
    for m in _OPB_TERM.finditer(text):
        if text[pos : m.start()].strip():
            raise ParseError(
                f"unparsed tokens {text[pos:m.start()].strip()!r}", lineno
            )
        coef = Fraction(int(m.group(1)))
        var = int(m.group(2)) - 1  # x1 is index 0
        if var < 0:
            raise ParseError("variable numbering starts at x1", lineno)
        terms[var] = terms.get(var, Fraction(0)) + coef
        pos = m.end()
    return terms, text[pos:]


# -- native mixed format -------------------------------------------------------

_NAT_TERM = re.compile(r"([+-]?)\s*(\d+(?:\.\d+)?(?:/\d+)?)?\s*([A-Za-z_]\w*)")


def parse_native(text: str) -> Problem:
    """Line grammar: "var <name> <kind> [lo, hi]", "min: <terms>",
    "con <name>: <terms> <op> <rhs>"."""
    variables: List[Variable] = []
    index: Dict[str, int] = {}
    objective: Optional[Dict[int, Rat]] = None
    rows: List[Tuple[Dict[int, Rat], str, Rat]] = []

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var "):
            variables.append(_parse_var_line(line, lineno, len(variables), index))
            continue
        if line.startswith("min:"):
            if objective is not None:
                raise ParseError("duplicate objective", lineno)
            objective = _parse_terms(line[4:].strip(), index, lineno)
            continue
        if line.startswith("con "):
            body = line[4:]
            if ":" not in body:
                raise ParseError("constraint missing ':'", lineno)
            _, expr = body.split(":", 1)
            m = re.search(r"(>=|<=|=)", expr)
            if m is None:
                raise ParseError("missing comparison operator", lineno)
            terms = _parse_terms(expr[: m.start()].strip(), index, lineno)
            rhs = _parse_number(expr[m.end():].strip(), lineno)
            rows.append((terms, m.group(1), rhs))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)

    return build_problem(variables, rows, objective)


def _parse_var_line(line, lineno, idx, index) -> Variable:
    m = re.match(
        r"var\s+([A-Za-z_]\w*)\s+(binary|integer|continuous)"
        r"(?:\s*\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\])?\s*$",
        line,
    )
    if m is None:
        raise ParseError(f"bad variable declaration {line!r}", lineno)
    name, kind_s, lo_s, hi_s = m.groups()
    if name in index:
        raise ParseError(f"duplicate variable {name!r}", lineno)
    kind = VarKind(kind_s)
    if kind is VarKind.BINARY:
        if lo_s is not None and (
            _parse_bound(lo_s, lineno) != 0 or _parse_bound(hi_s, lineno) != 1
        ):
            raise ParseError(f"binary variable {name!r} must have bounds [0,1]", lineno)
        lo, hi = Fraction(0), Fraction(1)
    else:
        if lo_s is None:
            raise ParseError(f"variable {name!r} needs explicit bounds", lineno)
        lo, hi = _parse_bound(lo_s, lineno), _parse_bound(hi_s, lineno)
    index[name] = idx
    try:
        return Variable(idx, name, kind, lo, hi)
    except ValueError as exc:
        raise ParseError(str(exc), lineno)


def _parse_number(text: str, lineno: int) -> Rat:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {text!r}", lineno)


def _parse_bound(text: str, lineno: int) -> Ext:
    try:
        return parse_ext(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed bound {text.strip()!r}", lineno)


def _parse_terms(text: str, index: Dict[str, int], lineno: int) -> Dict[int, Rat]:
    terms: Dict[int, Rat] = {}
    pos = 0
    for m in _NAT_TERM.finditer(text):
        gap = text[pos : m.start()].strip()
        if gap:
            raise ParseError(f"unparsed tokens {gap!r}", lineno)
        sign_s, num_s, name = m.groups()
        if terms and not sign_s:
            raise ParseError(f"missing sign before term {m.group(0).strip()!r}", lineno)
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", lineno)
        coef = _parse_number(num_s, lineno) if num_s else Fraction(1)
        if sign_s == "-":
            coef = -coef
        j = index[name]
        terms[j] = terms.get(j, Fraction(0)) + coef
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unparsed tokens {text[pos:].strip()!r}", lineno)
    if not terms:
        raise ParseError("empty term list", lineno)
    return terms


def print_native(problem: Problem) -> str:
    """Inverse of parse_native for problems with identifier-safe names."""
    lines = []
    for v in problem.variables:
        if v.kind is VarKind.BINARY:
            lines.append(f"var {v.name} binary")
        else:
            lines.append(
                f"var {v.name} {v.kind.value} "
                f"[{format_ext(v.global_lb)}, {format_ext(v.global_ub)}]"
            )
    if problem.objective:
        lines.append("min: " + _format_terms(problem, dict(problem.objective)))
    for i, C in enumerate(problem.constraints):
        lines.append(
            f"con c{i}: {_format_terms(problem, C.as_dict())} >= "
            f"{format_rational(C.rhs)}"
        )
    return "\n".join(lines) + "\n"


def _format_terms(problem: Problem, terms: Dict[int, Rat]) -> str:
    parts = []
    for j in sorted(terms):
        c = terms[j]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {format_rational(abs(c))} {problem.variables[j].name}")
    return " ".join(parts)


# -- statistics ----------------------------------------------------------------

def emit_stats(stats: Stats, status: str = "", objective: Optional[Rat] = None) -> str:
    payload = dataclasses.asdict(stats)
    payload["status"] = status
    payload["objective"] = None if objective is None else format_rational(objective)
    return json.dumps(payload)


def emit_result_stats(result: SolveResult) -> str:
    return emit_stats(result.stats, result.status, result.objective)
