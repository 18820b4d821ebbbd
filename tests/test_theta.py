"""Theta products: Pochhammer symbols, the bilateral sum, named shortcuts."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from qmock._rational import gaussian, qrat
from qmock.appell import appell_m
from qmock.dsl import IdentityRecord, evaluate, parse, verify_identity
from qmock.hecke import f_abc
from qmock.series import DivergentProduct, GaussianRational, LatticeTooLarge, mono, qpow
from qmock.theta import (
    J,
    Jbar,
    Jm,
    jacobi_theta,
    pochhammer_finite,
    pochhammer_infinite,
    theta_start,
    theta_terms,
    theta_window,
)

from oracles import (
    appell_m_pairwise,
    assert_dict_eq,
    bilateral_theta,
    f_abc_via_quadrants,
    jacobi_theta_product,
    pochhammer_pairwise,
    poly_mul,
    poly_one,
    product_side_pochhammer,
    series_to_dict,
    theta_term_gaussian,
)


class TestPochhammerFinite:
    def test_empty_product(self):
        out = pochhammer_finite(qpow(1), qpow(1), 0)
        assert series_to_dict(out) == {0: 1}

    def test_two_factors_base_two(self):
        # (1-q)(1-q^3) = 1 - q - q^3 + q^4
        out = pochhammer_finite(qpow(1), qpow(2), 2)
        assert series_to_dict(out) == {0: 1, 1: -1, 3: -1, 4: 1}

    def test_sign_flip(self):
        out = pochhammer_finite(mono(-1, 1), qpow(1), 2)
        want = poly_mul({Fraction(0): Fraction(1), Fraction(1): Fraction(1)},
                        {Fraction(0): Fraction(1), Fraction(2): Fraction(1)})
        assert series_to_dict(out) == want

    def test_randomized_against_factor_products(self):
        rnd = random.Random(271)
        for _ in range(60):
            c = rnd.choice([1, -1, 2, Fraction(-1, 2), Fraction(3, 5)])
            e = Fraction(rnd.randint(-6, 6), rnd.choice([1, 2, 3]))
            b = Fraction(rnd.randint(1, 4), rnd.choice([1, 2]))
            n = rnd.randint(0, 7)
            want = poly_one()
            for i in range(n):
                factor = {Fraction(0): Fraction(1)}
                factor[e + i * b] = factor.get(e + i * b, 0) - Fraction(c)
                want = poly_mul(want, factor)
            exact = pochhammer_finite(mono(c, e), qpow(b), n)
            assert exact.precision is None and series_to_dict(exact) == want
            order = Fraction(rnd.randint(-2, 15), rnd.choice([1, 2]))
            cut = pochhammer_finite(mono(c, e), qpow(b), n, order)
            assert cut.precision == order
            assert series_to_dict(cut) == {x: v for x, v in want.items() if x < order}

    def test_cut_product_is_the_exact_one_truncated(self):
        # below an order, only the factors below the order raised by the
        # negative exponents are formed; any base, either sign of exponent
        rnd = random.Random(272)
        for _ in range(300):
            x = mono(rnd.choice([1, -1, 3, Fraction(-2, 3), GaussianRational(1, 1)]),
                     Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3])))
            b = mono(rnd.choice([1, -1, 2]), Fraction(rnd.randint(-3, 6), rnd.choice([1, 2])))
            n = rnd.randint(0, 14)
            order = Fraction(rnd.randint(-12, 12), rnd.choice([1, 2, 5]))
            assert pochhammer_finite(x, b, n, order) == pochhammer_finite(x, b, n).truncate(order)

    def test_long_product_at_a_low_order(self):
        start = time.perf_counter()
        out = evaluate(parse("poch_fin(q, q, 10^6)"), 3)
        assert time.perf_counter() - start < 5
        assert str(out) == "1 - q - q^2" and out.precision == 3


class TestPochhammerInfinite:
    def test_euler_pentagonal(self):
        out = pochhammer_infinite(qpow(1), qpow(1), 13)
        want = product_side_pochhammer(1, 1, 1, 13)
        assert_dict_eq(series_to_dict(out), want, 13)
        assert series_to_dict(out) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}

    def test_all_factors_beyond_order(self):
        out = pochhammer_infinite(qpow(100), qpow(1), 50)
        assert series_to_dict(out) == {0: 1}

    def test_randomized_against_factor_products(self):
        rnd = random.Random(272)
        for _ in range(60):
            c = rnd.choice([1, -1, 2, Fraction(-1, 2), Fraction(3, 5)])
            e = Fraction(rnd.randint(1, 12), rnd.choice([1, 2, 3]))
            b = Fraction(rnd.randint(1, 6), rnd.choice([1, 2, 3]))
            order = Fraction(rnd.randint(1, 24), rnd.choice([1, 2]))
            out = pochhammer_infinite(mono(c, e), qpow(b), order)
            assert out.precision == order
            assert series_to_dict(out) == product_side_pochhammer(c, e, b, order)

    def test_negative_exponents_and_unit_factor(self):
        rnd = random.Random(273)
        units = 0
        for _ in range(80):
            c = rnd.choice([1, -1, 2, Fraction(-1, 2), Fraction(3, 5)])
            b = Fraction(rnd.randint(1, 4), rnd.choice([1, 2]))
            e = Fraction(rnd.randint(-8, 2), rnd.choice([1, 2, 3]))
            if rnd.random() < 0.25:  # one factor is 1 - q^0
                c, e = 1, -b * rnd.randint(0, 3)
                units += 1
            order = Fraction(rnd.randint(-4, 14), rnd.choice([1, 2]))
            out = pochhammer_infinite(mono(c, e), qpow(b), order)
            assert out.precision == order, (c, e, b, order)
            assert series_to_dict(out) == pochhammer_pairwise(c, e, b, order), (c, e, b, order)
        assert units >= 10

    def test_distinct_parts(self):
        out = pochhammer_infinite(mono(-1, 1), qpow(1), 4)
        want = product_side_pochhammer(-1, 1, 1, 4)
        assert_dict_eq(series_to_dict(out), want, 4)
        assert series_to_dict(out) == {0: 1, 1: 1, 2: 1, 3: 2}

    def test_nonpositive_base(self):
        with pytest.raises(DivergentProduct):
            pochhammer_infinite(qpow(1), qpow(0), 5)


class TestJacobiTheta:
    def test_vanishes_at_base_powers(self):
        assert jacobi_theta(qpow(1), qpow(1), 30).is_zero()
        assert jacobi_theta(qpow(6), qpow(3), 30).is_zero()
        assert jacobi_theta(mono(1, 0), qpow(1), 30).is_zero()

    def test_minus_one(self):
        out = jacobi_theta(mono(-1, 0), qpow(1), 7)
        want = bilateral_theta(-1, 0, 1, 7)
        assert series_to_dict(out) == want == {0: 2, 1: 2, 3: 2, 6: 2}

    def test_sum_equals_product_form(self):
        out = jacobi_theta(qpow(1), qpow(3), 20)
        prod = jacobi_theta_product(qpow(1), qpow(3), 20)
        assert out.agrees_with(prod)

    def test_sum_equals_product_form_randomized(self):
        rnd = random.Random(314)
        for _ in range(50):
            c = rnd.choice([1, -1, 2, Fraction(1, 2)])
            e = Fraction(rnd.randint(1, 12), rnd.choice([1, 2, 5, 7]))
            b = Fraction(rnd.randint(1, 4), rnd.choice([1, 2]))
            x = mono(c, e)
            s = jacobi_theta(x, qpow(b), 15)
            p = jacobi_theta_product(x, qpow(b), 15)
            assert s.agrees_with(p), f"x={x} base=q^{b}"

    def test_against_bilateral_oracle_randomized(self):
        # value and precision, with Gaussian and non-unit coefficients on x
        # and on the base, zero, negative and fractional exponents of x,
        # and orders <= 0 and fractional
        rnd = random.Random(315)
        coeffs = [(1, 0), (-1, 0), (0, 1), (1, 1), (2, 0), (Fraction(1, 3), 0)]
        seen = dict.fromkeys(["gaussian x", "gaussian base", "non-unit x", "non-unit base",
                              "x exponent 0", "negative x exponent", "fractional x exponent",
                              "order <= 0", "fractional order", "zero"], 0)
        for _ in range(300):
            cx, cb = rnd.choice(coeffs), rnd.choice(coeffs)
            ex = 0 if rnd.random() < 0.15 else Fraction(rnd.randint(-12, 12), rnd.choice([1, 2, 3, 5]))
            eb = Fraction(rnd.randint(1, 4), rnd.choice([1, 2, 3]))
            order = Fraction(rnd.randint(-6, 20), rnd.choice([1, 1, 2, 3]))
            got = jacobi_theta(mono(GaussianRational(*cx), ex), mono(GaussianRational(*cb), eb), order)
            # |n| <= 73 holds every term below the order here
            want = bilateral_theta(cx, ex, eb, order, span=100, base_coeff=cb)
            assert got.precision == order, (cx, ex, cb, eb, order)
            assert {e: (c.re, c.im) for e, c in got.terms.items()} == want, (cx, ex, cb, eb, order)
            seen["gaussian x"] += cx[1] != 0
            seen["gaussian base"] += cb[1] != 0
            seen["non-unit x"] += cx[0] not in (1, -1) and not cx[1]
            seen["non-unit base"] += cb[0] not in (1, -1) and not cb[1]
            seen["x exponent 0"] += ex == 0
            seen["negative x exponent"] += ex < 0
            seen["fractional x exponent"] += Fraction(ex).denominator != 1
            seen["order <= 0"] += order <= 0
            seen["fractional order"] += order.denominator != 1
            seen["zero"] += got.is_zero()
        assert min(seen.values()) >= 10, seen

    def test_negative_exponent_argument(self):
        x = mono(1, Fraction(-3, 5))
        s = jacobi_theta(x, qpow(1), 12)
        want = bilateral_theta(1, Fraction(-3, 5), 1, 12)
        assert_dict_eq(series_to_dict(s), want, 12)

    def test_shift_law(self):
        # j(q^2 x; q) = q^(-1) x^(-2) j(x; q)
        rnd = random.Random(11)
        for _ in range(10):
            e = Fraction(rnd.randint(1, 6), 7)
            x = mono(rnd.choice([1, -1, 2]), e)
            lhs = jacobi_theta(qpow(2) * x, qpow(1), 20)
            rhs = jacobi_theta(x, qpow(1), 24).mul_monomial(
                (x ** -2) * qpow(-1)
            )
            assert lhs.agrees_with(rhs)

    def test_reflection_law(self):
        x = mono(2, Fraction(3, 7))
        lhs = jacobi_theta(x, qpow(1), 20)
        assert lhs.agrees_with(jacobi_theta(qpow(1) * x.inverse(), qpow(1), 20))
        rhs = jacobi_theta(x.inverse(), qpow(1), 22).mul_monomial(-x)
        assert lhs.agrees_with(rhs)


    @pytest.mark.parametrize("text, order", [
        pytest.param(text, order, id=text) for text, order in (
            ("J(1, 10^-9)", 3), ("J(10^9, 1)", 3), ("poch_inf(q, q^(1/1000000000))", 3),
            ("f(1,1,1,q,q,q^(1/1000000000))", 3), ("f(1,1,1,q,q,q)", 10 ** 8),
            ("f(1,1,1,q,q^(100000000000000000),q)", 10 ** 16),
            ("m(q, q^(1/1000000000), q^(1/3))", 3))])
    def test_too_long_sum_fails_before_its_terms(self, text, order):
        # about 2*10^9 terms or factors lie below the order (about 10^8
        # for f at order 10^8, 1.4*10^8 rows of one term at 10^16): their
        # count in closed form, or the span of the first few and of the
        # last of row 0 and of column 0, refuses the lattice without
        # walking them
        start = time.perf_counter()
        report = verify_identity(IdentityRecord("long", "", Fraction(order), parse(text), parse("0")))
        assert time.perf_counter() - start < 5
        assert report.status == "ERROR" and report.detail.startswith("LatticeTooLarge")
        with pytest.raises(LatticeTooLarge):
            jacobi_theta(qpow(1), qpow(Fraction(1, 10 ** 9)), 3)

    def test_far_terms_past_the_order_are_not_counted(self):
        # a base of q^(10^8) puts the first terms that the guards look at
        # past the order, where they must not count towards the lattice
        big = qpow(10 ** 8)
        got = appell_m(qpow(Fraction(1, 3)), big, qpow(Fraction(1, 2)), 3)
        assert got == appell_m_pairwise(qpow(Fraction(1, 3)), big, qpow(Fraction(1, 2)), 3)
        assert f_abc(1, 1, 1, qpow(1), qpow(1), big, 3) == f_abc_via_quadrants(1, 1, 1, qpow(1), qpow(1), big, 3)


class TestThetaTerms:
    """``theta_terms`` against the coefficient (-x)^n * b^binom(n, 2) in
    GaussianRational arithmetic, for coefficients of x and b that are 1 or
    -1 (the sign path), rationals, powers of 2 and Gaussian rationals."""

    KINDS = {
        "unit": [(1, 0, 1), (-1, 0, 1)],
        "rational": [(3, 0, 5), (-7, 0, 2), (5, 0, 1), (-2, 0, 9), (2, 0, 2)],
        "power of 2": [(1 << k, 0, 1) for k in (1, 3, 7)] + [(-1, 0, 1 << k) for k in (1, 4, 9)],
        "gaussian": [(1, 1, 1), (0, 1, 1), (0, -1, 1), (2, -3, 5), (-1, 4, 3)],
    }

    def test_against_gaussian_oracle(self):
        rnd = random.Random(2027)
        kinds = list(self.KINDS)
        seen = set()
        for _ in range(2000):
            kx, kb = rnd.choice(kinds), rnd.choice(kinds)
            cx, cb = rnd.choice(self.KINDS[kx]), rnd.choice(self.KINDS[kb])
            ns = [rnd.randint(-40, 40) for _ in range(rnd.randint(0, 4))]
            got = theta_terms(cx, cb, ns)
            assert len(got) == len(ns)
            x, b = gaussian(cx), gaussian(cb)
            for n, t in zip(ns, got):
                assert t[2] > 0 and gaussian(t) == theta_term_gaussian(x, b, n), (cx, cb, n, t)
                if kx == kb == "unit":
                    assert t in ((1, 0, 1), (-1, 0, 1))
            seen.add((kx, kb))
        assert len(seen) == len(kinds) ** 2


class TestThetaWindow:
    """theta_window against a scan of E(n) = B*binom(n, 2) + X*n < top over
    integers that hold every such n: E(n) = B/2*(n - m)^2 + E(m) with
    m = (B - 2X)/(2B), so these lie within sqrt(2*(top - E(m))/B) of m."""

    def test_against_a_scan(self):
        rnd = random.Random(3141)
        seen = dict.fromkeys(["nonempty", "empty", "negative discriminant",
                              "empty, discriminant >= 0", "top <= 0", "|X| >> B"], 0)
        for _ in range(3000):
            B = rnd.randint(1, 40)
            X = rnd.choice([-1, 1]) * rnd.choice([rnd.randint(0, 60), rnd.randint(10 ** 5, 10 ** 7)])

            def E(n):
                return B * Fraction(n) * (n - 1) / 2 + X * n

            m = Fraction(B - 2 * X, 2 * B)
            top = int(E(m)) + rnd.choice([rnd.randint(-30, 60), rnd.randint(0, 5000), rnd.randint(0, 2)])
            vertex, window = theta_window(B, X, top)
            w = isqrt(max(0, int(2 * (top - E(m)) / B) + 1)) + 1
            scan = range(int(m) - w - 1, int(m) + w + 2)
            assert list(window) == [n for n in scan if E(n) < top], (B, X, top)
            assert theta_window(B, X) == (vertex, None)
            assert E(vertex) < E(vertex - 1) and E(vertex + 1) < E(vertex + 2), (B, X)
            assert min(E(vertex), E(vertex + 1)) == min(E(n) for n in range(vertex - 3, vertex + 5))
            seen["nonempty" if window else "empty"] += 1
            negative = (B - 2 * X) ** 2 + 4 * B * (2 * top - 1) < 0
            seen["negative discriminant"] += negative
            seen["empty, discriminant >= 0"] += not window and not negative
            seen["top <= 0"] += top <= 0
            seen["|X| >> B"] += abs(X) > 1000 * B
        assert min(seen.values()) >= 100, seen


class TestThetaValuation:
    def test_start_matches_the_series(self):
        # ties between the two least terms (x = c*b^k) come up often here;
        # x = b^k vanishes
        rnd = random.Random(2718)
        vanished = 0
        for _ in range(400):
            b = mono(rnd.choice([1, -1, GaussianRational(0, 1)]),
                     Fraction(rnd.randint(1, 6), rnd.choice([1, 2])))
            if rnd.random() < 0.5:
                x = (b ** rnd.randint(-3, 3)) * mono(rnd.choice([1, 1, -1, 2]), 0)
            else:
                x = mono(rnd.choice([1, -1, 2]), Fraction(rnd.randint(-20, 20), rnd.choice([1, 3, 5])))
            d = qrat(theta_start(x, b))
            if d is None:
                vanished += 1
                assert jacobi_theta(x, b, 40).is_zero(), (x, b)
            else:
                assert jacobi_theta(x, b, d + 1).low_degree() == d, (x, b)
        assert vanished


class TestNamedSpecializations:
    def test_J12_product_formula(self):
        j1, j2 = Jm(1, 32), Jm(2, 32)
        assert J(1, 2, 30).agrees_with((j1 * j1 * j2.invert()).truncate(30))

    def test_Jbar01_product_formula(self):
        j1, j2 = Jm(1, 32), Jm(2, 32)
        rhs = (j2 * j2 * j1.invert()) * 2
        assert Jbar(0, 1, 30).agrees_with(rhs.truncate(30))

    def test_Jm_is_euler_product(self):
        out = Jm(1, 13)
        assert series_to_dict(out) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        out3 = Jm(3, 26)
        want = product_side_pochhammer(1, 3, 3, 26)
        assert_dict_eq(series_to_dict(out3), want, 26)

    def test_substitute_power_matches_rebased_product(self):
        j1 = Jm(1, 10)
        assert j1.substitute_power(3).agrees_with(Jm(3, 30))

    def test_order_monotonicity_across_theta_layer(self):
        x, b = mono(-1, Fraction(2, 7)), qpow(1)
        assert jacobi_theta(x, b, 12).agrees_with(jacobi_theta(x, b, 40))
        assert pochhammer_infinite(x, b, 12).agrees_with(pochhammer_infinite(x, b, 40))


class TestMonomialBase:
    def test_negated_base_theta(self):
        # j(x; -q) = j(x; q^2) j(-qx; q^2) / J_{1,4}
        for x in (mono(-1, 2), mono(2, 3), mono(Fraction(1, 3), 5)):
            lhs = jacobi_theta(x, mono(-1, 1), 25)
            num = jacobi_theta(x, qpow(2), 28) * jacobi_theta(-(qpow(1) * x), qpow(2), 28)
            rhs = num * J(1, 4, 28).invert()
            assert lhs.agrees_with(rhs.truncate(25))

    def test_gaussian_argument_evaluations(self):
        i = GaussianRational(0, 1)
        lhs = jacobi_theta(mono(i, 0), qpow(1), 20)
        assert lhs.agrees_with(J(1, 4, 20) * GaussianRational(1, -1))
        assert jacobi_theta(mono(i, 1), qpow(2), 20).agrees_with(J(4, 8, 20))

    def test_imaginary_parts_cancel_at_i_sqrt_q(self):
        s = jacobi_theta(mono(GaussianRational(0, 1), Fraction(1, 2)), qpow(1), 12)
        assert all(c.im == 0 for c in s.terms.values())
