"""Rational ground type.

All exponents and coefficient parts are exact rationals, the stdlib
``fractions.Fraction``.
"""

from fractions import Fraction

RAT = Fraction

ZERO = RAT(0)


def rat(value, den=None):
    """Coerce ints, Fractions, strings or (num, den) pairs to the ground type."""
    if den is not None:
        return RAT(value, den)
    if isinstance(value, (int, Fraction, str)):
        return RAT(value)
    return RAT(value.numerator, value.denominator)


def is_integer(value):
    return value.denominator == 1


def as_int(value):
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return int(value.numerator)


def floor(value):
    return int(value // 1)


def num_den(value):
    """(numerator, denominator) as plain ints, e.g. for JSON output."""
    return int(value.numerator), int(value.denominator)
