"""Exact rational scalars extended with +/- infinity.

Finite values are ``fractions.Fraction``; the two infinities are the float
sentinels ``INF`` and ``NEG_INF``.  Plain float arithmetic would silently
produce ``nan`` for ``inf - inf`` and ``0 * inf``, so all mixed arithmetic
goes through the helpers below, which raise instead.
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


class InfinityArithmeticError(ArithmeticError):
    """Raised for indeterminate forms such as inf - inf or 0 * inf."""


def is_inf(x: Ext) -> bool:
    return x == INF or x == NEG_INF


def is_finite(x: Ext) -> bool:
    return not is_inf(x)


def ext_add(a: Ext, b: Ext) -> Ext:
    if is_inf(a) or is_inf(b):
        if is_inf(a) and is_inf(b) and a != b:
            raise InfinityArithmeticError("inf - inf")
        return a if is_inf(a) else b
    return a + b


def ext_neg(a: Ext) -> Ext:
    if a == INF:
        return NEG_INF
    if a == NEG_INF:
        return INF
    return -a


def ext_sub(a: Ext, b: Ext) -> Ext:
    return ext_add(a, ext_neg(b))


def ext_mul(a: Rat, b: Ext) -> Ext:
    """Multiply a finite rational by an extended value."""
    if is_inf(b):
        if a == 0:
            raise InfinityArithmeticError("0 * inf")
        return b if a > 0 else ext_neg(b)
    return a * b


def ext_div(a: Ext, b: Rat) -> Ext:
    if b == 0:
        raise ZeroDivisionError("division by zero rational")
    if is_inf(a):
        return a if b > 0 else ext_neg(a)
    return a / b


def frac_floor(a: Rat) -> Rat:
    return Fraction(math.floor(a))


def frac_ceil(a: Rat) -> Rat:
    return Fraction(math.ceil(a))


def frac_part(a: Rat) -> Rat:
    """Fractional part a - floor(a), in [0, 1)."""
    return a - frac_floor(a)


def is_integral(a: Ext) -> bool:
    return is_finite(a) and a.denominator == 1


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
