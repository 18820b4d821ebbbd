"""Hecke-type double sums: direct enumeration, the quadrant oracle, and the
shift/flip/base-change recurrences."""

import random
import time
from fractions import Fraction

import pytest

from qmock.hecke import f_abc
from qmock.series import GaussianRational, LatticeTooLarge, QSeries, mono, qpow
from qmock.theta import Jm, jacobi_theta
from qmock.catalog import psi3

from oracles import f_abc_via_quadrants, series_to_dict

R = Fraction


def _random_spec(rnd):
    a = rnd.randint(1, 4)
    c = rnd.randint(1, 4)
    b = rnd.randint(0, 6)
    x = mono(rnd.choice([1, -1, 2]), R(rnd.randint(-3, 5), rnd.choice([1, 2, 5, 7])))
    y = mono(rnd.choice([1, -1]), R(rnd.randint(-3, 5), rnd.choice([1, 2, 5, 7])))
    base = mono(rnd.choice([1, 1, -1]), R(rnd.choice([1, 1, 2, 3]), rnd.choice([1, 2])))
    return a, b, c, x, y, base


class TestAgainstQuadrantOracle:
    def test_twenty_random_specs(self):
        rnd = random.Random(424242)
        for _ in range(20):
            a, b, c, x, y, base = _random_spec(rnd)
            lhs = f_abc(a, b, c, x, y, base, 30)
            rhs = f_abc_via_quadrants(a, b, c, x, y, base, 30)
            assert lhs.agrees_with(rhs), (a, b, c, x, y, base)

    def test_fuzz_value_and_precision(self):
        # the quadrant r, s < 0 comes from the flip identity; the oracle
        # sums the whole rectangle
        rnd = random.Random(9191)
        coeffs = [1, -1, 2, R(1, 2), R(-3, 2), GaussianRational(0, 1),
                  GaussianRational(1, 1), GaussianRational(R(1, 3), R(-2, 3))]
        bases = [qpow(1), mono(-1, 1), qpow(R(1, 2))]
        reaching = 0
        for _ in range(320):
            a, c, b = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 5)
            x = mono(rnd.choice(coeffs), R(rnd.randint(-4, 5), rnd.choice([1, 2, 3, 5])))
            y = mono(rnd.choice(coeffs), R(rnd.randint(-4, 5), rnd.choice([1, 2, 3, 5])))
            base = rnd.choice(bases)
            order = R(rnd.randint(-3, 12), rnd.choice([1, 1, 2, 3]))
            got = f_abc(a, b, c, x, y, base, order)
            want = f_abc_via_quadrants(a, b, c, x, y, base, order)
            spec = (a, b, c, x, y, base, order)
            assert got.precision == want.precision == order, spec
            assert got.terms == want.terms, spec
            reaching += any(
                base.exp * (a * r * (r - 1) / 2 + b * r * s + c * s * (s - 1) / 2)
                + x.exp * r + y.exp * s < order
                for r in range(-8, 0) for s in range(-8, 0))
        assert reaching >= 50

    @pytest.mark.parametrize("base", [mono(2, 1), mono(R(1, 2), 1), mono(-2, R(3, 2)),
                                      mono(GaussianRational(1, 1), 1)])
    def test_fuzz_at_bases_whose_coefficient_is_not_a_sign(self, base):
        # b^k and b^(-k) differ here, so a row's ratio or lead with a power
        # of the base taken with the wrong sign changes the series
        rnd = random.Random(9192)
        coeffs = [1, -1, 2, R(-3, 2), GaussianRational(0, 1), GaussianRational(1, 1)]
        for _ in range(50):
            a, c, b = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 5)
            x = mono(rnd.choice(coeffs), R(rnd.randint(-4, 5), rnd.choice([1, 2, 3])))
            y = mono(rnd.choice(coeffs), R(rnd.randint(-4, 5), rnd.choice([1, 2, 3])))
            order = R(rnd.randint(-3, 12), rnd.choice([1, 1, 2]))
            got = f_abc(a, b, c, x, y, base, order)
            want = f_abc_via_quadrants(a, b, c, x, y, base, order)
            assert (got.terms, got.precision) == (want.terms, want.precision), (a, b, c, x, y, base, order)

    def test_fractional_negated_base_point(self):
        args = (3, 5, 3, qpow(R(5, 4)), mono(-1, R(5, 4)), mono(-1, R(1, 2)))
        lhs = f_abc(*args, 40)
        rhs = f_abc_via_quadrants(*args, 40)
        assert lhs.agrees_with(rhs)

    def test_order_zero_is_empty(self):
        out = f_abc(3, 5, 3, qpow(2), qpow(3), qpow(1), 0)
        assert out.is_zero()
        assert f_abc_via_quadrants(3, 5, 3, qpow(2), qpow(3), qpow(1), 0).is_zero()

    def test_tiny_positive_order_keeps_origin(self):
        out = f_abc(3, 5, 3, qpow(2), qpow(3), qpow(1), R(1, 100))
        assert series_to_dict(out) == {0: 1}


class TestKnownValues:
    def test_constant_term(self):
        out = f_abc(3, 5, 3, qpow(2), qpow(3), qpow(1), 1)
        assert series_to_dict(out) == {0: 1}

    def test_psi_product_form(self):
        lhs = f_abc(3, 5, 3, qpow(2), qpow(3), qpow(1), 50)
        rhs = Jm(1, 50) * (QSeries.one(50) + psi3(50))
        assert lhs.agrees_with(rhs.truncate(50))

    def test_theta_square_difference(self):
        lhs = Jm(1, 60) ** 2
        rhs = f_abc(1, 7, 1, qpow(1), qpow(2), qpow(1), 60) \
            - f_abc(1, 7, 1, qpow(3), qpow(4), qpow(1), 60).mul_monomial(qpow(1))
        assert lhs.truncate(60).agrees_with(rhs)


class TestRecurrences:
    def test_y_shift(self):
        rnd = random.Random(777)
        for _ in range(10):
            a, b, c, x, y, base = _random_spec(rnd)
            lhs = f_abc(a, b, c, x, y, base, 25)
            shifted = f_abc(a, b, c, (base ** b) * x, (base ** c) * y, base, 30)
            rhs = shifted.mul_monomial(-y) + jacobi_theta(x, base ** a, 25)
            assert lhs.agrees_with(rhs.truncate(25)), (a, b, c, x, y, base)

    def test_x_shift(self):
        rnd = random.Random(778)
        for _ in range(10):
            a, b, c, x, y, base = _random_spec(rnd)
            lhs = f_abc(a, b, c, x, y, base, 25)
            shifted = f_abc(a, b, c, (base ** a) * x, (base ** b) * y, base, 30)
            rhs = shifted.mul_monomial(-x) + jacobi_theta(y, base ** c, 25)
            assert lhs.agrees_with(rhs.truncate(25)), (a, b, c, x, y, base)

    def test_flip(self):
        rnd = random.Random(779)
        for _ in range(10):
            a, b, c, x, y, base = _random_spec(rnd)
            lhs = f_abc(a, b, c, x, y, base, 25)
            inner = f_abc(
                a, b, c,
                (base ** (2 * a + b)) * x.inverse(),
                (base ** (2 * c + b)) * y.inverse(),
                base, 40,
            )
            shift = -((base ** (a + b + c)) * (x * y).inverse())
            rhs = inner.mul_monomial(shift)
            assert lhs.agrees_with(rhs.truncate(25)), (a, b, c, x, y, base)

    def test_base_change_to_fourth_power(self):
        rnd = random.Random(780)
        for _ in range(5):
            a, b, c, x, y, base = _random_spec(rnd)
            b4 = base ** 4
            lhs = f_abc(a, b, c, x, y, base, 22)
            t1 = f_abc(a, b, c, -(x ** 2) * base ** a, -(y ** 2) * base ** c, b4, 30)
            t2 = f_abc(a, b, c, -(x ** 2) * base ** (3 * a), -(y ** 2) * base ** (c + 2 * b), b4, 30)
            t3 = f_abc(a, b, c, -(x ** 2) * base ** (a + 2 * b), -(y ** 2) * base ** (3 * c), b4, 30)
            t4 = f_abc(a, b, c, -(x ** 2) * base ** (3 * a + 2 * b), -(y ** 2) * base ** (3 * c + 2 * b), b4, 30)
            rhs = t1 - t2.mul_monomial(x) - t3.mul_monomial(y) \
                + t4.mul_monomial((x * y) * (base ** b))
            assert lhs.agrees_with(rhs.truncate(22)), (a, b, c, x, y, base)


class TestLatticePrecheck:
    @pytest.mark.parametrize("a, b, c, x, y, base, order", [
        # column 0 or row 0 falls far below the corner and the windows' ends
        # at its vertex: to about -2.5*10^11 and -1.7*10^11 in the first two
        (2, 1, 3, qpow(-1000000), qpow(1), qpow(1), 5),
        (2, 1, 3, qpow(1), qpow(-1000000), qpow(1), 5),
        (1, 1, 3, qpow(R(-4519199, 125)), qpow(R(18548149, 200)), qpow(2), 10),
        # fine grids
        (1, 3, 2, qpow(R(-3, 1000000)), qpow(R(2, 7)), qpow(3), 3),
        (3, 2, 2, qpow(R(-7471, 2500)), qpow(R(86617, 1000000)), qpow(R(1, 1000)), 3),
    ])
    def test_oversized_quadrant_is_refused_before_it_is_walked(self, a, b, c, x, y, base, order):
        start = time.perf_counter()
        with pytest.raises(LatticeTooLarge):
            f_abc(a, b, c, x, y, base, order)
        assert time.perf_counter() - start < 2


class TestParameterValidation:
    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            f_abc(0, 1, 1, qpow(1), qpow(1), qpow(1), 5)
        with pytest.raises(ValueError):
            f_abc(1, 1, 0, qpow(1), qpow(1), qpow(1), 5)

    def test_rejects_negative_cross_term(self):
        with pytest.raises(ValueError):
            f_abc(1, -1, 1, qpow(1), qpow(1), qpow(1), 5)
