"""Appell-Lerch sums, the universal mock theta function, and the structured
block decompositions."""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import appell_m_start, universal_g_via_m

from qmock import appell
from qmock._rational import qrat
from qmock.appell import (
    appell_m,
    g_abc,
    h_abc,
    msplit_rhs,
    theta_abc,
    theta_np,
    universal_g_eulerian,
    universal_g_start,
)
from qmock.hecke import f_abc
from qmock.series import (
    DegenerateDenominator,
    DegenerateX,
    DegenerateZ,
    DivisibilityViolation,
    FractionalExponent,
    GaussianRational,
    LatticeTooLarge,
    QSeries,
    QSeriesError,
    mono,
    qpow,
)
from qmock.theta import J, Jbar, Jm, jacobi_theta

from qmock.catalog import nu3, psi3

M1 = mono(-1, 0)
R = Fraction


class TestAppellM:
    def test_z_shift_invariance(self):
        x, z = qpow(R(2, 7)), qpow(R(3, 5))
        lhs = appell_m(x, qpow(1), z, 40)
        rhs = appell_m(x, qpow(1), qpow(1) * z, 40)
        assert lhs.agrees_with(rhs)
        # z far from [0, e_b) is first moved there by powers of the base;
        # the pairwise loop sums the far z as it stands
        for x, base, z, order in [
            (mono(2, R(4, 3)), qpow(R(1, 2)), mono(GaussianRational(R(1, 3), R(-2, 3)), 7), 3),
            (qpow(R(2, 7)), mono(-1, 1), mono(-1, R(-33, 5)), 6),
            (mono(R(1, 2), R(-1, 3)), qpow(2), mono(GaussianRational(0, 1), R(25, 3)), 8),
        ]:
            got = appell_m(x, base, z, order)
            assert (got, got.precision) == (oracles.appell_m_pairwise(x, base, z, order), order)
            assert got == appell_m(x, base, z * base ** -4, order)
            # the bilateral sum and j(z; b) both take a factor -1/z under the
            # shift, so the valuation bound is the same for either z
            assert qrat(appell_m_start(x, base, z)) == qrat(appell_m_start(x, base, z * base ** -4))

    def test_bilateral_sum_sees_the_reduced_z(self, monkeypatch):
        seen = []
        summed = appell._bilateral_sum

        def spy(x, base, z, work):
            seen.append(z)
            return summed(x, base, z, work)

        monkeypatch.setattr(appell, "_bilateral_sum", spy)
        for x, base, z, k in [
            (mono(2, R(4, 3)), qpow(R(1, 2)), mono(GaussianRational(R(1, 3), R(-2, 3)), 22), -44),
            (qpow(R(2, 7)), mono(-1, 1), mono(-1, R(-33, 5)), 7),
            (qpow(R(2, 7)), qpow(1), qpow(R(3, 5)), 0),
        ]:
            seen.clear()
            appell_m(x, base, z, 3)
            assert seen == [z * base ** k]  # its exponent in [0, e_b)

    @pytest.mark.parametrize("sum_of, x, base, z, order", [
        # far grids: the lattices of the sums below the order
        (appell_m, qpow(R(1, 3)), qpow(R(1, 1000000)), qpow(R(1, 7)), 5),
        (appell_m, qpow(R(-1, 999)), qpow(R(1, 10007)), qpow(R(-3, 50000)), 3),
        # the summands near the vertex, r about -12866, start near q^(-8271)
        # on a grid of step 1/70049: about 5.8*10^8 slots
        (appell._bilateral_sum, qpow(R(-1, 7)), qpow(R(1, 10007)), qpow(R(9, 7)), 6),
    ])
    def test_oversized_sum_is_refused_before_it_is_summed(self, sum_of, x, base, z, order):
        with pytest.raises(LatticeTooLarge):
            sum_of(x, base, z, order)

    def test_psi_combination(self):
        # -q^(-1) m(q, q^12, q^2) - m(q^5, q^12, q^2) = psi(q)
        lhs = appell_m(qpow(1), qpow(12), qpow(2), 61).mul_monomial(mono(-1, -1)) \
            - appell_m(qpow(5), qpow(12), qpow(2), 60)
        assert lhs.truncate(60).agrees_with(psi3(60))

    def test_nu_combination(self):
        # 2 q^(-1) m(q^2, q^12, -q^3) + J_1 J_{3,12} / J_2 = nu(q)
        head = appell_m(qpow(2), qpow(12), mono(-1, 3), 61).mul_monomial(mono(2, -1))
        tail = (Jm(1, 62) * J(3, 12, 62)) * Jm(2, 62).invert()
        assert (head + tail.truncate(60)).truncate(60).agrees_with(nu3(60))

    def test_degenerate_z(self):
        with pytest.raises(DegenerateZ):
            appell_m(qpow(1), qpow(1), mono(1, 0), 10)
        with pytest.raises(DegenerateZ):
            appell_m(qpow(2), qpow(3), qpow(6), 10)   # z = (q^3)^2

    def test_degenerate_xz(self):
        # x z = q^5 is an integral power of the base q
        with pytest.raises(DegenerateZ):
            appell_m(qpow(R(2, 7)), qpow(1), qpow(5) * qpow(R(-2, 7)), 10)

    def test_x_inversion_law(self):
        x, z = mono(-1, R(2, 5)), qpow(R(4, 5))
        lhs = appell_m(x, qpow(1), z, 30)
        rhs = appell_m(x.inverse(), qpow(1), z.inverse(), 31).mul_monomial(x.inverse())
        assert lhs.agrees_with(rhs.truncate(30))

    def test_x_shift_law(self):
        x, z = qpow(R(1, 7)), qpow(R(3, 7))
        lhs = appell_m(qpow(1) * x, qpow(1), z, 30)
        rhs = QSeries.one(30) - appell_m(x, qpow(1), z, 30).mul_monomial(x)
        assert lhs.agrees_with(rhs.truncate(30))

    def test_order_monotonicity(self):
        x, z = qpow(R(1, 7)), qpow(R(3, 7))
        assert appell_m(x, qpow(1), z, 12).agrees_with(appell_m(x, qpow(1), z, 35))
        assert universal_g_eulerian(x, qpow(1), 12).agrees_with(
            universal_g_eulerian(x, qpow(1), 35)
        )

    def test_change_z_theta_quotient(self):
        x, z1, z0 = qpow(R(1, 7)), qpow(R(2, 7)), qpow(R(3, 7))
        lhs = appell_m(x, qpow(1), z1, 30) - appell_m(x, qpow(1), z0, 30)
        w = 34
        num = (Jm(1, w) ** 3) * jacobi_theta(z1 * z0.inverse(), qpow(1), w) \
            * jacobi_theta(x * z0 * z1, qpow(1), w)
        den = jacobi_theta(z0, qpow(1), w) * jacobi_theta(z1, qpow(1), w) \
            * jacobi_theta(x * z0, qpow(1), w) * jacobi_theta(x * z1, qpow(1), w)
        rhs = (num * den.invert()).mul_monomial(z0)
        assert lhs.agrees_with(rhs.truncate(30))


class TestUniversalG:
    def test_eulerian_equals_appell_form(self):
        for x in (qpow(R(2, 7)), qpow(R(3, 5)), mono(-1, R(2, 9)),
                  mono(2, R(4, 9)), qpow(R(1, 5))):
            a = universal_g_eulerian(x, qpow(1), 25)
            b = universal_g_via_m(x, qpow(1), 25)
            assert a.agrees_with(b), f"x={x}"

    def test_inversion_symmetry(self):
        x = qpow(R(2, 7))
        a = universal_g_eulerian(x, qpow(1), 30)
        b = universal_g_eulerian(qpow(1) * x.inverse(), qpow(1), 30)
        assert a.agrees_with(b)

    def test_psi_from_g(self):
        lhs = universal_g_eulerian(qpow(1), qpow(4), 40).mul_monomial(qpow(1))
        assert lhs.truncate(40).agrees_with(psi3(40))

    def test_nu_from_g_at_i_sqrt_q(self):
        x = mono(GaussianRational(0, 1), R(1, 2))
        assert universal_g_eulerian(x, qpow(1), 40).agrees_with(nu3(40))

    def test_free_z_representation(self):
        x, z = qpow(R(1, 7)), qpow(R(2, 7))
        w = 34
        g = universal_g_eulerian(x, qpow(1), 30)
        x3 = x ** -3
        m1 = appell_m(qpow(1) * x3, qpow(3), (x ** 3) * z, w).mul_monomial(-(x ** -2))
        m2 = appell_m(qpow(2) * x3, qpow(3), (x ** 3) * z, w).mul_monomial(-(x ** -1))
        num = (Jm(1, w) ** 2) * jacobi_theta(x * z, qpow(1), w) * jacobi_theta(z, qpow(3), w)
        den = jacobi_theta(x, qpow(1), w) * jacobi_theta(z, qpow(1), w) \
            * jacobi_theta((x ** 3) * z, qpow(3), w)
        rhs = m1 + m2 + num * den.invert()
        assert g.agrees_with(rhs.truncate(30))


class TestAgainstPairwiseLoops:
    """appell_m and g against the pairwise loops of tests/oracles.py, which
    expand every denominator and Pochhammer factor and add the summands one
    at a time: the same value, the same precision and the same error."""

    COEFFS = [GaussianRational(1), GaussianRational(-1), GaussianRational(2),
              GaussianRational(R(1, 2)), GaussianRational(R(-3, 2)), GaussianRational(0, 1),
              GaussianRational(1, 1), GaussianRational(R(1, 3), R(-2, 3))]
    BASES = [qpow(1), mono(-1, 1), qpow(R(1, 2)), qpow(R(4, 3)), mono(-1, R(1, 2))]

    def _outcome(self, fn, *args):
        try:
            out = fn(*args)
        except (DegenerateX, DegenerateZ) as exc:
            return type(exc)
        return out, out.precision

    def _monomial(self, rnd, base, top=9):
        if rnd.random() < 0.1:
            return base ** rnd.randint(-2, 3)
        return mono(rnd.choice(self.COEFFS), R(rnd.randint(-top, top), rnd.choice([1, 2, 3, 4, 9])))

    def _order(self, rnd):
        return R(rnd.randint(-2, 12), rnd.choice([1, 1, 2, 3]))

    def test_appell_m(self):
        rnd = random.Random(81)
        errors = 0
        for _ in range(400):
            base = rnd.choice(self.BASES)
            # x now and then far from 1, so that the summands of m that
            # reach below the order can lie far from r = 0
            x = self._monomial(rnd, base, rnd.choice([9, 9, 30]))
            z = self._monomial(rnd, base)
            order = self._order(rnd)
            got = self._outcome(appell_m, x, base, z, order)
            assert got == self._outcome(oracles.appell_m_pairwise, x, base, z, order), \
                (x, base, z, order)
            # the bilateral sum alone: where j(z; b) starts low, m at the
            # order does not see all of it
            assert (self._outcome(appell._bilateral_sum, x, base, z, order)
                    == self._outcome(oracles.bilateral_sum_pairwise, x, base, z, order))
            errors += got is DegenerateZ
        assert errors >= 20

    def test_universal_g(self):
        rnd = random.Random(82)
        errors = 0
        for _ in range(400):
            base = rnd.choice(self.BASES)
            x = self._monomial(rnd, base)
            order = self._order(rnd)
            got = self._outcome(universal_g_eulerian, x, base, order)
            assert got == self._outcome(oracles.universal_g_pairwise, x, base, order), \
                (x, base, order)
            errors += got is DegenerateX
        assert errors >= 20


    @pytest.mark.parametrize("order", [R(-3), R(-1, 2), R(0), R(1, 3), R(5, 2), R(29, 3)])
    def test_universal_g_at_low_and_fractional_orders(self, order):
        # the Eulerian loop stops before forming the product of the term
        # that ends it only where a positive order makes that exact; at
        # orders <= 0 that product can be zero to a lower precision, which
        # g's precision then follows, as the pairwise loop's does
        xs = [qpow(R(1, 3)), mono(-1, R(-1, 2)), mono(2, R(3, 2)), mono(GaussianRational(0, 1), -2),
              mono(R(1, 2), 0), mono(R(-3, 2), R(7, 4)), mono(1, 1)]
        for base in self.BASES:
            for x in xs:
                got = self._outcome(universal_g_eulerian, x, base, order)
                assert got == self._outcome(oracles.universal_g_pairwise, x, base, order), \
                    (x, base, order)


class TestAgainstPairwiseLoopsAtScaledBases(TestAgainstPairwiseLoops):
    """The same checks at bases whose coefficient is not 1 or -1, where
    b^k and b^(-k) differ: a power of the base's coefficient taken with the
    wrong sign, in a Pochhammer factor or weight of g or in a summand of
    m, changes the series here and nowhere above."""

    BASES = [mono(2, 1), mono(R(1, 2), 1), mono(-2, R(3, 2)), mono(GaussianRational(1, 1), 1)]


class TestAgainstPairwiseLoopsAtUnitArguments(TestAgainstPairwiseLoops):
    """The same checks with every x and z of coefficient 1 or -1, where
    each summand of m is led by a sign of ``theta.theta_terms`` and its run
    twisted by a ratio of 1 or -1: a lead or ratio of the wrong sign
    changes the series here."""

    COEFFS = [GaussianRational(1), GaussianRational(-1)]


class TestBlocksAgainstHandCoded:
    """The block sums, DSL templates planned in one pass, against the
    hand-coded sums of tests/oracles.py, which run through the retry loop:
    the same value, the same precision and the same error."""

    COEFFS = TestAgainstPairwiseLoops.COEFFS
    BASES = [qpow(1), mono(-1, 1), qpow(R(1, 2))]
    BLOCKS = {"g_abc": g_abc, "h_abc": h_abc, "theta_np": theta_np,
              "theta_abc": theta_abc, "msplit_rhs": msplit_rhs}

    def _outcome(self, fn, *args):
        try:
            out = fn(*args)
        except (QSeriesError, ValueError) as exc:
            return type(exc)
        return out, out.precision

    def _monomial(self, rnd):
        return mono(rnd.choice(self.COEFFS), R(rnd.randint(-4, 4), rnd.choice([1, 2, 3])))

    def _arguments(self, rnd, name, base):
        """Folded arguments of ``name``, a quarter of the theta-quotient
        blocks with x (or z) put where one theta denominator vanishes."""
        x, y, z, zp = (self._monomial(rnd) for _ in range(4))
        degenerate = rnd.random() < 0.25
        if name in ("g_abc", "h_abc"):
            a, c = rnd.randint(1, 3), rnd.randint(1, 3)
            if name == "h_abc":
                k = rnd.randint(1, 2)
                b = a * c * k if rnd.random() < 0.9 else a * c * k + 1
            else:
                b = rnd.randint(1, 5)
            if rnd.random() < 0.1:
                z = base ** rnd.randint(-2, 2)  # j(z0; b^(aD)) may vanish
            return (a, b, c, x, y, base, zp, z)
        if name == "theta_np":
            n, p = (1, rnd.randint(1, 3)) if degenerate else (rnd.randint(1, 4), rnd.randint(1, 3))
            if degenerate:  # the denominator j(b^(p(p+2)r + p(p+1)/2) (-y)^(p+1)/(-x); b^N)
                r, k, N = rnd.randrange(p), rnd.randint(-1, 1), p * p * (2 + p)
                x = -(base ** (p * (p + 2) * r + p * (p + 1) // 2 - k * N) * (-y) ** (p + 1))
            return (n, p, x, y, base)
        if name == "theta_abc":
            a, c = rnd.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            b = rnd.choice([2, 4]) if rnd.random() < 0.9 else 3
            if degenerate and not b % a and not b % c:
                # the denominator j(b^(d2 (e+1) - cb1) (-x) (-y)^(-b/c); b^M)
                M = b * (R(b * b, a * c) - 1)
                e, k = rnd.randrange(b // a), rnd.randint(-1, 1)
                d2, cb1 = R(b * b, c) - a, c * (b // c) * (b // c - 1) // 2
                try:
                    x = -(base ** (k * M - d2 * (e + 1) + cb1) * (-y) ** (b // c))
                except FractionalExponent:
                    pass
            return (a, b, c, x, y, base)
        n = rnd.randint(1, 3)
        target = rnd.randrange(3) if degenerate else None
        if target == 0:  # j(x z; b) vanishes
            z = base ** rnd.randint(-2, 2) * x.inverse()
        elif target == 1:  # j(b^r z; b^n) vanishes
            z = base ** rnd.randint(-2, 2)
        elif target == 2:  # j(-b^binom(n,2) (-x)^n zp; b^n) vanishes: an m has a degenerate z
            zp = -(base ** (n * rnd.randint(-1, 1) - n * (n - 1) // 2)) * (-x) ** -n
        return (n, x, base, z, zp)

    def test_blocks(self):
        rnd = random.Random(83)
        errors = {}
        for i in range(400):
            name = list(self.BLOCKS)[i % 5]
            base = rnd.choice(self.BASES)
            args = self._arguments(rnd, name, base)
            order = rnd.randint(2, 20)
            got = self._outcome(self.BLOCKS[name], *args, order)
            assert got == self._outcome(oracles.BLOCKS[name], *args, order), (name, args, order)
            if isinstance(got, type):
                errors[got] = errors.get(got, 0) + 1
        assert errors.get(DegenerateDenominator, 0) >= 20, errors


class TestValuationBounds:
    @pytest.mark.parametrize("x, base, z", [
        (qpow(R(2, 5)), qpow(1), qpow(R(4, 5))),
        (mono(-1, R(2, 5)), qpow(1), qpow(R(-4, 5))),
        (qpow(5), qpow(12), qpow(2)),
        (mono(-1, 26), qpow(48), M1),
        (mono(2, R(-8, 3)), mono(-1, 3), mono(-1, R(4, 3))),
    ])
    def test_m_starts_at_or_past_its_bound(self, x, base, z):
        v = qrat(appell_m_start(x, base, z))
        assert appell_m(x, base, z, v + 4).low_degree() >= v

    def test_bilateral_start_is_the_least_summand_start(self):
        # the closed form against the least start of the summands of a wide
        # r range: |r0|, |v| <= 101 here, and the starts fall towards them
        # from either end; z unreduced
        rnd = random.Random(2201)
        for _ in range(400):
            base = rnd.choice([qpow(R(1, 2)), qpow(R(4, 3)), mono(-1, 1)])
            x = mono(rnd.choice([1, -1, 2]), R(rnd.randint(-30, 30), rnd.choice([1, 2, 3, 5, 7])))
            z = mono(rnd.choice([1, -1]), R(rnd.randint(-20, 20), rnd.choice([1, 2, 3, 7, 9])))
            starts = [oracles._least_exp(x, base, z, r) for r in range(-110, 111)]
            assert min(starts) < min(starts[0], starts[-1])
            assert qrat(appell.bilateral_start(x, base, z)) == min(starts), (x, base, z)

    @pytest.mark.parametrize("x, base", [
        (mono(-1, R(2, 5)), qpow(1)), (qpow(R(-3, 2)), qpow(1)), (mono(2, 3), qpow(2)),
        (mono(-1, R(4, 9)), qpow(4)), (qpow(R(7, 2)), qpow(1)),
    ])
    def test_g_starts_at_or_past_its_bound(self, x, base):
        v = qrat(universal_g_start(x, base))
        assert universal_g_eulerian(x, base, v + 4).low_degree() >= v


class TestBlockDecompositions:
    def test_g353_collapses_for_unit_lengths(self):
        # a = c = 1 keeps one term per sum
        x, y = qpow(R(1, 7)), qpow(R(3, 7))
        out = g_abc(1, 7, 1, x, y, qpow(1), M1, M1, 20)
        # exponent: binom(8,2) - binom(2,2) = 28 - 1 = 27; -q^27 (-y)/(-x)^7
        t1 = jacobi_theta(x, qpow(1), 24) * appell_m(
            -(qpow(27) * (-y) * ((-x) ** -7)), qpow(48), M1, 24
        )
        t2 = jacobi_theta(y, qpow(1), 24) * appell_m(
            -(qpow(27) * (-x) * ((-y) ** -7)), qpow(48), M1, 24
        )
        assert out.agrees_with((t1 + t2).truncate(20))

    def test_master_block_decomposition_oracle(self):
        # f_(1,3,1) = block + theta correction, with f as the direct oracle
        x, y = qpow(R(1, 7)), qpow(R(3, 7))
        lhs = f_abc(1, 3, 1, x, y, qpow(1), 25)
        rhs = g_abc(1, 3, 1, x, y, qpow(1), M1, M1, 25) + theta_np(1, 2, x, y, qpow(1), 25)
        assert lhs.agrees_with(rhs.truncate(25))

    def test_theta_np_single_cell(self):
        # p = 1 collapses to the single (0,0) cell; check shape by evaluating
        x, y = qpow(R(1, 7)), qpow(R(3, 7))
        out = theta_np(1, 1, x, y, qpow(1), 15)
        assert out.precision >= 15

    def test_parameters_must_be_positive(self):
        x, y = qpow(R(1, 3)), qpow(R(1, 5))
        calls = [lambda: g_abc(0, 1, 1, x, y, qpow(1), M1, M1, 5),
                 lambda: h_abc(1, 1, 0, x, y, qpow(1), M1, M1, 5),
                 lambda: theta_abc(0, 1, 1, x, y, qpow(1), 5),
                 lambda: theta_np(1, 0, x, y, qpow(1), 5),
                 lambda: theta_np(0, 1, x, y, qpow(1), 5)]
        for call in calls:
            with pytest.raises(ValueError, match=r"need [acnp] > 0 and [acnp] > 0"):
                call()

    def test_h_requires_divisibility(self):
        with pytest.raises(DivisibilityViolation):
            h_abc(3, 5, 3, qpow(R(1, 7)), qpow(R(3, 7)), qpow(1), M1, M1, 10)
        with pytest.raises(DivisibilityViolation):
            theta_abc(3, 5, 3, qpow(R(1, 7)), qpow(R(3, 7)), qpow(1), 10)

    def test_two_term_block_matches_direct_sum(self):
        x, y = qpow(3), mono(-1, 2)
        lhs = f_abc(4, 4, 1, x, y, qpow(1), 25)
        h = h_abc(4, 4, 1, x, y, qpow(1), M1, M1, 25)
        th = theta_abc(4, 4, 1, x, y, qpow(1), 31)
        den = Jbar(0, 3, 31) * Jbar(0, 12, 31)
        rhs = h - (th * den.invert()).truncate(25)
        assert lhs.agrees_with(rhs.truncate(25))

    def test_two_term_block_small_parameters(self):
        x, y = qpow(R(1, 7)), qpow(R(3, 7))
        lhs = f_abc(1, 2, 1, x, y, qpow(1), 25)
        h = h_abc(1, 2, 1, x, y, qpow(1), M1, M1, 25)
        th = theta_abc(1, 2, 1, x, y, qpow(1), 31)
        den = Jbar(0, 3, 31) * Jbar(0, 3, 31)
        rhs = h - (th * den.invert()).truncate(25)
        assert lhs.agrees_with(rhs.truncate(25))

    @pytest.mark.parametrize("n,p", [(2, 1), (4, 1), (2, 3), (3, 4), (1, 4), (5, 2)])
    def test_theta_block_beyond_shipped_parameters(self, n, p):
        # even n exercises the half-integer offsets {(n-1)/2} = 1/2
        b = n + p
        for x, y in ((qpow(R(1, 7)), qpow(R(3, 7))), (mono(-1, R(2, 5)), mono(2, R(4, 5)))):
            lhs = f_abc(n, b, n, x, y, qpow(1), 20)
            rhs = g_abc(n, b, n, x, y, qpow(1), M1, M1, 20) \
                + theta_np(n, p, x, y, qpow(1), 20)
            assert lhs.agrees_with(rhs.truncate(20)), (n, p, x, y)

    @pytest.mark.parametrize("abc", [(1, 3, 1), (3, 3, 1), (1, 4, 2), (2, 4, 1), (1, 6, 2)])
    def test_two_term_block_beyond_shipped_parameters(self, abc):
        a, b, c = abc
        d1 = b * b // a - c
        d2 = b * b // c - a
        x, y = qpow(R(1, 7)), qpow(R(3, 7))
        lhs = f_abc(a, b, c, x, y, qpow(1), 20)
        h = h_abc(a, b, c, x, y, qpow(1), M1, M1, 20)
        th = theta_abc(a, b, c, x, y, qpow(1), 26)
        den = Jbar(0, d1, 26) * Jbar(0, d2, 26)
        rhs = h - (th * den.invert()).truncate(20)
        assert lhs.agrees_with(rhs.truncate(20)), abc


class TestMsplit:
    def test_identity_split(self):
        x, z = qpow(R(1, 7)), qpow(R(2, 7))
        ref = appell_m(x, qpow(1), z, 25)
        assert msplit_rhs(1, x, qpow(1), z, z, 25).agrees_with(ref)

    def test_level_four_split_generic_zprime(self):
        x, z, zp = qpow(R(1, 7)), qpow(R(2, 7)), qpow(R(3, 7))
        ref = appell_m(x, qpow(1), z, 30)
        assert msplit_rhs(2, x, qpow(1), z, zp, 30).agrees_with(ref)

    def test_level_nine_split(self):
        x, z, zp = qpow(R(1, 7)), qpow(R(2, 7)), qpow(R(3, 7))
        ref = appell_m(x, qpow(1), z, 30)
        assert msplit_rhs(3, x, qpow(1), z, zp, 30).agrees_with(ref)

    def test_split_with_negative_coefficient_arguments(self):
        x, z, zp = qpow(R(2, 5)), mono(-1, R(1, 5)), qpow(R(4, 5))
        ref = appell_m(x, qpow(1), z, 25)
        assert msplit_rhs(2, x, qpow(1), z, zp, 25).agrees_with(ref)
