"""Exact rational scalars extended with +/- infinity.

Finite values are ``int`` or ``fractions.Fraction``.  A value is infinite
exactly when it is a float, and the only floats are the sentinels ``INF``
and ``NEG_INF``, so ``is_finite`` is a type test rather than two comparisons.
That holds because every other float is refused where values enter the
model: ``Variable`` refuses finite float bounds and empty domains, and rows
(``LinearConstraint.from_dict``, ``build_problem``), objectives and bound
atoms refuse every float, infinite ones included.

A finite bound or value whose denominator is 1 is an ``int``: ``Variable``
bounds, the values ``Trail`` pushes and a leaf's objective value and
continuous witness entries pass through ``int_if_integral``, and roundings
use ``math.floor``/``math.ceil``.  So sums over integral bounds run in
``int`` arithmetic, while row coefficients and right-hand sides stay
``Fraction``s.  No code adds, subtracts or multiplies an infinity: it only
compares one or tests it with ``is_finite``, and every subtraction or
product on a bound is guarded by ``is_finite``.  So ``inf - inf`` and
``0 * inf`` never arise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

INF = math.inf
NEG_INF = -math.inf

Rat = Fraction
Ext = Union[Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)


def is_finite(x: Ext) -> bool:
    return not isinstance(x, float)


def int_if_integral(a: Rat) -> Rat:
    """A finite value as an ``int`` when its denominator is 1, else as is."""
    return a.numerator if a.denominator == 1 else a


def frac_part(a: Rat) -> Rat:
    """Fractional part a - floor(a), in [0, 1)."""
    return a - math.floor(a)


def is_integral(a: Ext) -> bool:
    return not isinstance(a, float) and a.denominator == 1


def parse_rational(text: str) -> Rat:
    """Parse 'p/q', integer, or decimal text to an exact Fraction.

    Scientific notation is rejected so no inexactness can sneak in.
    """
    text = text.strip()
    if "e" in text.lower():
        raise ValueError(f"scientific notation not allowed: {text!r}")
    return Fraction(text)


def format_rational(a: Rat) -> str:
    if a.denominator == 1:
        return str(a.numerator)
    return f"{a.numerator}/{a.denominator}"


def format_ext(a: Ext) -> str:
    if a == INF:
        return "inf"
    if a == NEG_INF:
        return "-inf"
    return format_rational(a)


def parse_ext(text: str) -> Ext:
    text = text.strip()
    if text in ("inf", "+inf"):
        return INF
    if text == "-inf":
        return NEG_INF
    return parse_rational(text)
