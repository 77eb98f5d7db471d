"""Hypothesis strategies shared by the tests."""

from fractions import Fraction
from functools import cache
from math import ceil, floor

from hypothesis import strategies as st


def fractions(min_value, max_value, max_denominator: int):
    """The rationals p/q in [min_value, max_value] with q <= max_denominator,
    drawn the way `st.fractions` draws them, a denominator and then a
    numerator in range, with the numerator strategy of each denominator
    built once: `st.fractions` builds a new strategy for every value it
    draws, and inspects a signature each time."""
    low, high = Fraction(min_value), Fraction(max_value)

    @cache
    def over(q):
        return st.integers(ceil(low * q), floor(high * q)).map(lambda p: Fraction(p, q))

    return st.integers(1, max_denominator).flatmap(over)
