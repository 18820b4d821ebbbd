"""The integer forms below the parser: monomials as integer triples and
pairs, exponents and precisions as (num, den) pairs.  They must agree with
the ground types, and the hot paths must do no Fraction arithmetic."""

import fractions
import math
import random
from fractions import Fraction

import pytest

from qmock import dsl, theta
from qmock._rational import (GaussianRational, QMonomial, _gaussian_pow, as_pair, decimal_int, decimal_text,
                             json_pair, mono, qadd, qdiv, qle, qlt, qmax, qmin, qmul, qpow, qrat, qsub,
                             triple_pow, triple_reduce)
from qmock.series import FractionalExponent, product_precision

import oracles

# the arithmetic and comparison methods of Fraction
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
            "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
            "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__", "__lt__", "__le__",
            "__gt__", "__ge__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """A list that collects the name of every Fraction operation made."""
    ops = []
    for name in _DUNDERS:
        inner = getattr(Fraction, name)

        def counted(*args, _name=name, _inner=inner):
            ops.append(_name)
            return _inner(*args)

        monkeypatch.setattr(fractions.Fraction, name, counted)
    return ops


def _coeff(rnd):
    re = Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
    im = rnd.choice([0, 0, Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))])
    return GaussianRational(re or 1, im)


def _exponent(rnd):
    return Fraction(rnd.randint(-30, 30), rnd.randint(1, 12))


def _ref(m):
    return (m.coeff.re, m.coeff.im), m.exp


class TestNoFractionArithmetic:
    def test_monomials(self, fraction_ops):
        rnd = random.Random(7)
        ms = [mono(_coeff(rnd), _exponent(rnd)) for _ in range(40)]
        fraction_ops.clear()
        for a, b in zip(ms, ms[1:]):
            a * b
            a.inverse()
            a ** rnd.randint(-5, 5)
            a == b
            hash(a)
        qpow(Fraction(3, 7)) ** (2, 3)
        assert fraction_ops == []

    def test_precisions(self, fraction_ops):
        pairs = [(3, 2), (-7, 3), (0, 1), (5, 1), None]
        for pa in pairs:
            for la in pairs[:-1]:
                product_precision(pa, la, (1, 6), (-2, 5))
                dsl._target((9, 2), la, pa)
        assert fraction_ops == []

    def test_parsed_powers_of_q(self, fraction_ops):
        # q^k is one QPow(k): no Fraction arithmetic, whatever the exponent
        ast = dsl.parse("q^5*q^(-3)/q^(4/6) + 2*q - q^-7")
        assert fraction_ops == []
        assert ast.left.left.right == dsl.QPow(Fraction(2, 3))
        assert ast.right == dsl.QPow(Fraction(-7))

    def test_theta(self, fraction_ops):
        rnd = random.Random(8)
        cases = [(mono(_coeff(rnd), _exponent(rnd)), mono(_coeff(rnd), abs(_exponent(rnd)) or 1))
                 for _ in range(30)]
        fraction_ops.clear()
        for x, b in cases:
            qrat(theta.theta_start(x, b))
            theta.jacobi_theta(x, b, (31, 3))
            theta.jacobi_theta(x, b, 4)
        assert fraction_ops == []


class TestAgainstTheGroundTypes:
    """Seeded fuzz: the integer operations against Fraction and
    GaussianRational arithmetic."""

    def test_monomial_operations(self):
        rnd = random.Random(11)
        for _ in range(2000):
            a, b = mono(_coeff(rnd), _exponent(rnd)), mono(_coeff(rnd), _exponent(rnd))
            k = rnd.randint(-6, 6)
            assert _ref(a * b) == oracles.ref_monomial_mul(_ref(a), _ref(b))
            assert _ref(a ** k) == oracles.ref_monomial_pow(_ref(a), k)
            assert _ref(a.inverse()) == oracles.ref_monomial_pow(_ref(a), -1)
            assert _ref(-a) == ((-a.coeff.re, -a.coeff.im), a.exp)
            assert (a * a.inverse()) == mono(1, 0)
            # equality and the hash follow the values, however they were built
            c = QMonomial(b.coeff * GaussianRational(rnd.randint(1, 5)), b.exp)
            equal = c.coeff == b.coeff
            assert (c == b) is equal and (hash(c) == hash(b) or not equal)
            assert mono(a.coeff, a.exp) == a and hash(mono(a.coeff, a.exp)) == hash(a)

    def test_rational_powers_need_coefficient_one(self):
        rnd = random.Random(12)
        for _ in range(200):
            e, k = _exponent(rnd), Fraction(rnd.randint(-9, 9), rnd.randint(2, 12))
            got = qpow(e) ** k
            assert got.coeff == 1 and got.exp == e * k
            assert qpow(e) ** as_pair(k) == got
        with pytest.raises(FractionalExponent):
            mono(-1, 1) ** Fraction(1, 2)

    def test_pair_helpers(self):
        rnd = random.Random(13)
        for _ in range(3000):
            a, b = _exponent(rnd), _exponent(rnd)
            pa, pb = as_pair(a), as_pair(b)
            k = rnd.randint(-7, 7)
            assert qrat(qadd(pa, pb)) == a + b
            assert qrat(qsub(pa, pb)) == a - b
            assert qrat(qmul(pa, k)) == a * k and qrat(qmul(pa, pb)) == a * b
            if b:
                assert qrat(qdiv(pa, pb)) == a / b
            assert qlt(pa, pb) == (a < b) and qle(pa, pb) == (a <= b)
            assert qrat(qmin(pa, pb)) == min(a, b) and qrat(qmax(pa, pb)) == max(a, b)
            # pairs are in lowest terms, so equal values are equal tuples
            assert (qadd(pa, pb) == as_pair(a + b))

    def test_precision_helpers(self):
        rnd = random.Random(14)

        def value():
            return rnd.choice([None, _exponent(rnd)])

        for _ in range(3000):
            pa, la, pb, lb = value(), _exponent(rnd), value(), _exponent(rnd)
            as_p = [None if v is None else as_pair(v) for v in (pa, la, pb, lb)]
            assert qrat(product_precision(*as_p)) == oracles.ref_product_precision(pa, la, pb, lb)
            w, other, own = _exponent(rnd), value(), value()
            got = dsl._target(as_pair(w), *[None if v is None else as_pair(v) for v in (other, own)])
            assert qrat(got) == oracles.ref_target(w, other, own)


class TestDecimalText:
    """Integers of any length to and from decimal text, in parts below
    CPython's int<->str limit, against a 100-digit-at-a-time oracle."""

    def test_round_trip(self):
        rnd = random.Random(15)
        values = [0, 7, -1, 10 ** 639, 10 ** 640 - 1, 10 ** 640, 2 ** 2126, 2 ** 2127, 10 ** 4300,
                  1 - 10 ** 5000, 2 ** 16610]
        values += [rnd.choice([1, -1]) * rnd.randrange(10 ** rnd.randint(600, 9000)) for _ in range(40)]
        for n in values:
            text = decimal_text(n)
            assert text == oracles.decimal_digits(n)
            assert decimal_int(text.lstrip("-")) == abs(n)
        assert decimal_int("000" + "9" * 700) == 10 ** 700 - 1

    def test_rationals(self):
        big = 10 ** 5000 + 1
        assert decimal_text(Fraction(-big, 3)) == f"-{oracles.decimal_digits(big)}/3"
        assert decimal_text(Fraction(big, 1)) == oracles.decimal_digits(big)
        assert decimal_text(Fraction(-3, 4)) == "-3/4"
        assert str(GaussianRational(Fraction(big, 7), -big)) == \
            f"{oracles.decimal_digits(big)}/7-{oracles.decimal_digits(big)}*i"

    def test_json_pair(self):
        assert json_pair(Fraction(-3, 4)) == [-3, 4]
        assert json_pair(Fraction(10 ** 4300 - 1)) == [10 ** 4300 - 1, 1]  # 4300 digits: a number
        assert json_pair(Fraction(1, 10 ** 4300)) == [1, oracles.decimal_digits(10 ** 4300)]
        assert json_pair(Fraction(-(10 ** 4300))) == [oracles.decimal_digits(-(10 ** 4300)), 1]


class TestTriplePow:
    def test_real_path_against_the_gaussian_loop(self):
        # a real coefficient takes (re^n, 0, den^n), of its reciprocal for
        # n < 0: the same value as the Gaussian loop, reduced, over a
        # positive denominator
        rnd = random.Random(297)
        for _ in range(3000):
            r = rnd.choice([1, -1]) * rnd.randint(1, 10 ** rnd.randint(0, 8))
            d = rnd.randint(1, 10 ** rnd.randint(0, 8))
            g = math.gcd(r, d)
            r, d = r // g, d // g
            n = rnd.randint(-30, 30)
            got = triple_pow((r, 0, d), n)
            want = _gaussian_pow(r, 0, d, n)
            assert got == triple_reduce(want) and got[1] == 0 and got[2] > 0, (r, d, n)
            assert Fraction(got[0], got[2]) == Fraction(r, d) ** n
        for t in ((0, 0, 1), (0, 0, 3)):
            with pytest.raises(ZeroDivisionError):
                triple_pow(t, -1)
            assert triple_pow(t, 2) == _gaussian_pow(*t, 2)
