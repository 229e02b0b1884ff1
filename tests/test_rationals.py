"""Exact arithmetic, extended values, and rational text round trips."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutlearn.rationals import (
    INF,
    NEG_INF,
    format_ext,
    format_rational,
    frac_part,
    is_finite,
    is_integral,
    parse_ext,
    parse_rational,
)

rationals = st.fractions(
    min_value=-(10**9), max_value=10**9, max_denominator=10**6
)


class _FloatSubclass(float):
    pass


extended = st.one_of(
    st.integers(),
    rationals,
    st.builds(
        Fraction,
        st.integers(min_value=10**30) | st.integers(max_value=-(10**30)),
        st.integers(min_value=1),
    ),
    st.sampled_from([INF, NEG_INF, _FloatSubclass("inf"), _FloatSubclass("-inf")]),
)


@given(extended)
def test_infinite_exactly_when_float(x):
    """The type test agrees with comparing against both sentinels, and
    ``is_integral`` answers as it did when built on that comparison."""
    infinite = x == INF or x == NEG_INF
    assert is_finite(x) == (not infinite)
    assert is_integral(x) == (not infinite and x.denominator == 1)


@given(rationals, rationals)
def test_exact_add_sub_roundtrip(p, q):
    assert (p + q) - q == p


@given(rationals, rationals)
def test_exact_mul_div_roundtrip(p, q):
    if q != 0:
        assert (p * q) / q == p


@given(rationals)
def test_frac_part_range(a):
    f = frac_part(a)
    assert 0 <= f < 1
    assert (f == 0) == is_integral(a)
    assert math.floor(a) + f == a


@given(rationals)
def test_floor_ceil_bracket(a):
    """The roundings the solver uses give ``int``s that bracket a."""
    assert type(math.floor(a)) is int and type(math.ceil(a)) is int
    assert math.floor(a) <= a <= math.ceil(a)
    assert math.ceil(a) - math.floor(a) in (0, 1)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1.5") == Fraction(3, 2)


def test_parse_rational_rejects_scientific():
    with pytest.raises(ValueError):
        parse_rational("1e3")
    with pytest.raises(ValueError):
        parse_rational("2.5E-1")


@given(rationals)
def test_format_parse_roundtrip(a):
    assert parse_rational(format_rational(a)) == a


def test_ext_text_roundtrip():
    for value in (INF, NEG_INF, Fraction(5, 3), Fraction(-2)):
        assert parse_ext(format_ext(value)) == value
    assert not is_finite(parse_ext("inf"))
