"""Kernel tests: exact arithmetic, precision bookkeeping, ring properties."""

import random
from fractions import Fraction

import pytest

from qmock import series
from qmock._rational import RAT
from qmock.series import (
    BeyondPrecision,
    FractionalExponent,
    GaussianRational,
    LatticeTooLarge,
    NonPositivePower,
    PoleAtOne,
    QMonomial,
    QSeries,
    ZeroSeries,
    mono,
    qpow,
    unit_fraction_expand,
)

import oracles
from oracles import long_division_invert, poly_mul, series_to_dict, assert_dict_eq


def S(terms, precision=None):
    return QSeries(terms, precision)


class TestGaussianRational:
    def test_reduction_and_equality(self):
        assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
        assert GaussianRational(1, 2) != GaussianRational(1, 3)
        assert GaussianRational(3) == 3

    def test_field_ops(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)
        z = GaussianRational(1, -1)          # 1 - i
        assert z * z.conjugate() == GaussianRational(2)
        assert (z / z) == GaussianRational(1)
        assert z.inverse() * z == GaussianRational(1)

    def test_pow(self):
        z = GaussianRational(1, 1)
        assert z ** 4 == GaussianRational(-4)
        assert z ** -4 == GaussianRational(Fraction(-1, 4))
        assert GaussianRational(Fraction(2, 3)) ** -2 == GaussianRational(Fraction(9, 4))

    def test_pow_needs_an_integral_exponent(self):
        with pytest.raises(FractionalExponent):
            GaussianRational(2) ** Fraction(1, 2)
        with pytest.raises(FractionalExponent):
            GaussianRational(1, 1) ** RAT(-1, 3)
        assert GaussianRational(2) ** Fraction(6, 2) == 8
        assert GaussianRational(1, 1) ** RAT(2) == GaussianRational(0, 2)

    def test_real_values_hash_as_their_real_part(self):
        for x in (3, -7, Fraction(5, 12), RAT(-2, 9), 0):
            g = GaussianRational(x)
            assert g == x and hash(g) == hash(x)
            assert len({g, x}) == 1
        assert hash(GaussianRational(1, 2)) == hash(GaussianRational(Fraction(2, 2), 2))


class TestAdd:
    def test_cancellation(self):
        a = S({0: 1, 1: 1}, 10)
        b = S({0: -1, 2: 1}, 10)
        assert series_to_dict(a + b) == {1: 1, 2: 1}
        assert (a + b).precision == 10

    def test_zero_plus_term_takes_min_precision(self):
        out = QSeries.zero(5) + S({3: 1}, 8)
        assert out.precision == 5
        assert series_to_dict(out) == {3: 1}

    def test_like_half_integer_terms(self):
        h = S({Fraction(1, 2): 1}, 3)
        out = h + h
        assert series_to_dict(out) == {Fraction(1, 2): 2}
        assert out.precision == 3


class TestMul:
    def test_difference_of_squares(self):
        out = S({0: 1, 1: 1}) * S({0: 1, 1: -1})
        assert series_to_dict(out) == {0: 1, 2: -1}

    def test_exponent_addition(self):
        out = QSeries.from_monomial(qpow(Fraction(1, 2))) * QSeries.from_monomial(
            qpow(Fraction(1, 2))
        )
        assert series_to_dict(out) == {1: 1}

    def test_truncating_convolution(self):
        # (1-q)(1+q+q^2+q^3) = 1 - q^4: everything except the constant is gone
        out = S({0: 1, 1: -1}, 4) * S({0: 1, 1: 1, 2: 1, 3: 1}, 4)
        assert series_to_dict(out) == {0: 1}
        assert out.precision == 4

    def test_precision_rule_uses_low_degrees(self):
        a = S({2: 1}, 10)   # lowdeg 2
        b = S({0: 1}, 5)    # lowdeg 0
        out = a * b
        assert out.precision == min(10 + 0, 5 + 2)

    def test_exact_zero_annihilates(self):
        out = QSeries.zero(None) * S({0: 1, 1: 1}, 7)
        assert out.is_zero() and out.precision is None


class TestInvert:
    def test_geometric(self):
        out = S({0: 1, 1: -1}, 5).invert()
        assert series_to_dict(out) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_monomial(self):
        out = S({2: 1}).invert()
        assert series_to_dict(out) == {-2: 1}
        assert out.precision is None

    def test_monomial_inverse_stays_exact_past_order(self):
        out = QSeries.from_monomial(qpow(-7)).invert(order=6)
        assert out.precision is None
        assert series_to_dict(out) == {7: 1}

    def test_against_long_division(self):
        d = {Fraction(0): Fraction(2), Fraction(1): Fraction(2)}
        want = long_division_invert(d, 6)
        got = series_to_dict(S({0: 2, 1: 2}, 6).invert())
        assert_dict_eq(got, want, 6)

    def test_zero_series_raises(self):
        with pytest.raises(ZeroSeries):
            QSeries.zero(5).invert()

    def test_random_round_trips(self):
        rnd = random.Random(20240811)
        for _ in range(100):
            prec = rnd.randint(4, 12)
            terms = {0: 1}
            for _ in range(rnd.randint(1, 6)):
                e = Fraction(rnd.randint(1, 3 * prec), rnd.choice([1, 2, 3]))
                terms[e] = rnd.choice([1, -1, 2, Fraction(1, 2), -3])
            a = S(terms, prec)
            prod = a * a.invert()
            assert prod.precision == prec
            assert series_to_dict(prod) == {0: 1}


_DENS = [1, 2, 3, 7, 9, 12]


def _fuzz_factor(rnd, den):
    """Random term dict for the kernel fuzz: one term, a dense run on the
    1/den grid, a wide sparse span on a 1/1000 grid, or scattered terms with
    mixed exponent denominators; some numerators and denominators above
    2^100; some imaginary parts."""
    shape = rnd.choice(["one", "dense", "dense", "dense", "dense", "wide", "scattered"])
    if shape == "one":
        exps = [Fraction(rnd.randint(-20, 20), rnd.choice(_DENS))]
    elif shape == "dense":
        lo = rnd.randint(-12, 6)
        exps = [Fraction(lo + k, den) for k in range(rnd.randint(4, 28))]
    elif shape == "wide":
        exps = [Fraction(0), Fraction(100), Fraction(rnd.randint(1, 999), 1000)]
    else:
        exps = [Fraction(rnd.randint(-24, 36), rnd.choice(_DENS))
                for _ in range(rnd.randint(2, 10))]
    huge = rnd.random() < 0.25
    gaussian = rnd.random() < 0.3

    def part(size):
        num = rnd.randint(-(2 ** 130), 2 ** 130) if huge else rnd.randint(-size, size)
        den = rnd.randint(1, 2 ** 110) if huge else rnd.choice([1, 2, 3, 5])
        return Fraction(num, den)

    out = {}
    for e in exps:
        c = GaussianRational(part(9), part(3) if gaussian else 0)
        if not c.is_zero():
            out[e] = c
    return out


def _parts(terms, name):
    return {Fraction(e): Fraction(getattr(c, name)) for e, c in terms.items()
            if getattr(c, name)}


def _sub(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) - c
    return {e: c for e, c in out.items() if c}


def _assert_ground_types(s):
    for e, c in s.terms.items():
        assert type(e) is RAT and type(c.re) is RAT and type(c.im) is RAT


class TestKernelAgainstOracle:
    """The lattice kernel against the Fraction dict oracles of tests/oracles.py,
    which see real and imaginary parts as separate real series."""

    def test_products(self, monkeypatch):
        paths = {"_kronecker": 0, "_convolve": 0}
        for name in paths:
            inner = getattr(series, name)

            def counted(*args, _inner=inner, _name=name):
                paths[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(series, name, counted)
        rnd = random.Random(31)
        for _ in range(600):
            den = rnd.choice(_DENS)
            ta = _fuzz_factor(rnd, den)
            tb = _fuzz_factor(rnd, rnd.choice([den, den, rnd.choice(_DENS)]))
            if not ta or not tb:
                continue
            lows = min(ta) + min(tb)
            bound = rnd.choice([
                None,
                lows + Fraction(rnd.randint(1, 60), rnd.choice([1, 2, 3, 7, 12])),
                lows - Fraction(rnd.randint(0, 3), rnd.choice([1, 9])),
            ])
            got = S(ta) * S(tb) if bound is None else S(ta, bound - min(tb)) * S(tb)
            assert got.precision == bound
            _assert_ground_types(got)
            ar, ai, br, bi = (_parts(ta, "re"), _parts(ta, "im"),
                              _parts(tb, "re"), _parts(tb, "im"))
            want_re = _sub(poly_mul(ar, br, bound), poly_mul(ai, bi, bound))
            want_im = _sub(poly_mul(ar, bi, bound),
                           {e: -c for e, c in poly_mul(ai, br, bound).items()})
            assert _parts(got.terms, "re") == want_re
            assert _parts(got.terms, "im") == want_im
        assert paths["_kronecker"] > 40 and paths["_convolve"] > 40

    def test_slots_at_their_widest(self):
        # every coefficient at its bit size's maximum, one sign: the middle
        # of the product is as large as the packed slot width allows, and
        # for 15 terms of 2, 6, 10 or 14 bits that width is a whole number
        # of bytes
        for n in (7, 15):
            for bits in range(1, 17):
                top = 2 ** bits - 1
                for ca, cb in (((top, 0), (-top, 0)), ((top, top), (-top, top))):
                    ta = {Fraction(k, 3): GaussianRational(*ca) for k in range(n)}
                    tb = {Fraction(k, 3): GaussianRational(*cb) for k in range(n)}
                    got = (S(ta) * S(tb)).terms
                    want_re = _sub(poly_mul(_parts(ta, "re"), _parts(tb, "re")),
                                   poly_mul(_parts(ta, "im"), _parts(tb, "im")))
                    assert _parts(got, "re") == want_re
                    assert _parts(got, "im") == _sub(
                        poly_mul(_parts(ta, "re"), _parts(tb, "im")),
                        {e: -c for e, c in poly_mul(_parts(ta, "im"), _parts(tb, "re")).items()})

    def test_inverses(self):
        rnd = random.Random(32)
        for _ in range(120):
            den = rnd.choice(_DENS)
            low = rnd.randint(-6, 4)
            huge = rnd.random() < 0.2
            terms = {}
            for k in range(rnd.randint(1, 7)):
                num = rnd.randint(-(2 ** 110), 2 ** 110) if huge else rnd.randint(-4, 4)
                terms[Fraction(low + rnd.randint(0, 12) * (k > 0), den)] = Fraction(
                    num or 1, rnd.randint(1, 2 ** 105) if huge else rnd.choice([1, 2, 3]))
            prec = Fraction(low + rnd.randint(1, 14), den)
            a = S(terms, prec)
            got = a.invert()
            _assert_ground_types(got)
            # the oracle steps through integer exponents: scale q -> q^den
            scaled = {e * den: c for e, c in series_to_dict(a).items()}
            want = long_division_invert(scaled, got.precision * den)
            have = {e * den: c for e, c in series_to_dict(got).items()}
            assert_dict_eq(have, want, got.precision * den)
            assert set(have) <= set(want)


def _frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _ref_of(s):
    """A series as a reference series, read through its .terms view, which
    must hold no zero coefficient and only ground-type rationals."""
    terms = {}
    for e, c in s.terms.items():
        assert type(e) is RAT and type(c.re) is RAT and type(c.im) is RAT
        assert c, f"zero coefficient stored at q^{e}"
        terms[_frac(e)] = (_frac(c.re), _frac(c.im))
    return terms, s.precision


def _random_coefficient(rnd):
    if rnd.random() < 0.2:
        return GaussianRational(Fraction(rnd.randint(1, 2 ** 120), rnd.randint(1, 2 ** 105)),
                                Fraction(rnd.randint(-2 ** 110, 2 ** 110), 3))
    return GaussianRational(Fraction(rnd.choice([-3, -1, 1, 2, 5]), rnd.choice([1, 2, 3])),
                            rnd.choice([0, 0, 1, Fraction(-1, 2)]))


class TestOperationsAgainstReference:
    """Sums, shifts, cuts, substitutions and the queries against the
    Fraction dict reference of tests/oracles.py, on chains of operations so
    that each one also sees the lattices the others leave behind."""

    def _fresh(self, rnd, dens, wide):
        if rnd.random() < 0.1:
            return QSeries.zero(rnd.choice([None, Fraction(rnd.randint(-5, 30), rnd.choice(dens))]))
        if wide and rnd.random() < 0.7:
            terms = {Fraction(0): 1, Fraction(100): rnd.choice([1, -2]),
                     Fraction(rnd.randint(1, 999), 1000): _random_coefficient(rnd)}
            return QSeries(terms, rnd.choice([None, Fraction(rnd.randint(101, 130), rnd.choice(dens))]))
        terms = _fuzz_factor(rnd, rnd.choice(dens))
        terms = {e: c for e, c in terms.items() if e.denominator in dens}
        low = min(terms, default=Fraction(0))
        precision = rnd.choice([None, low + Fraction(rnd.randint(-2, 40), rnd.choice(dens))])
        return QSeries(terms, precision)

    def _check_queries(self, rnd, s, ref, other, other_ref):
        assert s.is_zero() == (not ref[0])
        assert s.low_degree() == oracles.ref_low_degree(ref)
        probes = list(ref[0])[:4] + [Fraction(rnd.randint(-30, 60), rnd.choice(_DENS + [1000]))
                                     for _ in range(3)]
        for e in probes:
            if ref[1] is not None and e >= ref[1]:
                with pytest.raises(BeyondPrecision):
                    s.coeff(e)
            else:
                c = s.coeff(e)
                assert (c.re, c.im) == oracles.ref_coeff(ref, e)
        assert s.agrees_with(other) == oracles.ref_agrees(ref, other_ref)
        assert s.agrees_with(s) and s == s
        assert (s == other) == (ref == other_ref)
        same = QSeries(dict(s.terms), s.precision)
        k = Fraction(rnd.randint(1, 4), rnd.randint(1, 4))
        for t in (same, s.substitute_power(k).substitute_power(1 / k)):
            assert t == s and hash(t) == hash(s)
        with pytest.raises(TypeError):
            s.terms[Fraction(0)] = GaussianRational(1)

    def _step(self, rnd, pool, dens, counts):
        (a, ra), (b, rb) = rnd.choice(pool), rnd.choice(pool)
        op = rnd.choice(["add", "sub", "neg", "shift", "shift", "truncate",
                         "power", "monomial", "negate"])
        if op == "add":
            return a + b, oracles.ref_add(ra, rb)
        if op == "sub":
            return a - b, oracles.ref_sub(ra, rb)
        if op == "neg":
            return -a, oracles.ref_neg(ra)
        if op == "shift":
            c = _random_coefficient(rnd)
            e = Fraction(rnd.randint(-20, 20), rnd.choice(dens))
            return a.mul_monomial(mono(c, e)), oracles.ref_mul_monomial(
                ra, (_frac(c.re), _frac(c.im)), e)
        if op == "truncate":
            order = Fraction(rnd.randint(-10, 40), rnd.choice(dens))
            return a.truncate(order), oracles.ref_truncate(ra, order)
        if op == "power":
            k = Fraction(rnd.randint(1, 3), rnd.choice([1, 1, 2, 3]))
            return a.substitute_power(k), oracles.ref_substitute_power(ra, k)
        if op == "monomial":
            c = rnd.choice([GaussianRational(-1), GaussianRational(0, 1),
                            GaussianRational(Fraction(2, 3), 1), _random_coefficient(rnd)])
            e = Fraction(rnd.randint(1, 4), rnd.choice([1, 1, 2, 7]))
            m = QMonomial(c, e)
        else:
            m = QMonomial(GaussianRational(-1), 1)
        try:
            want = oracles.ref_substitute_monomial(
                ra, (_frac(m.coeff.re), _frac(m.coeff.im)), _frac(m.exp))
        except ValueError:
            with pytest.raises(FractionalExponent):
                a.negate_base() if op == "negate" else a.substitute_monomial(m)
            return None
        counts[op] += 1
        return (a.negate_base() if op == "negate" else a.substitute_monomial(m)), want

    def test_random_chains(self):
        rnd = random.Random(41)
        counts = {"monomial": 0, "negate": 0}
        # mixed denominators; then the wide 1/1000 grid, which only meets
        # grids dividing its own so that sums stay a few 100000 slots long
        for dens, wide, chains in ((_DENS, False, 150), ([1, 2], True, 8)):
            for _ in range(chains):
                pool = [(s, _ref_of(s)) for s in (self._fresh(rnd, dens, wide) for _ in range(3))]
                for _ in range(10):
                    out = self._step(rnd, pool, dens, counts)
                    if out is None:
                        continue
                    s, want = out
                    assert _ref_of(s) == want
                    other, other_ref = rnd.choice(pool)
                    self._check_queries(rnd, s, want, other, other_ref)
                    pool.append((s, want))
        assert counts["monomial"] > 50 and counts["negate"] > 50

    def test_lattice_too_large(self):
        # three terms on grids 1/1000 and 1/999 span 10^8 slots
        with pytest.raises(LatticeTooLarge):
            QSeries({Fraction(1, 1000): 1, Fraction(1, 999): 1, 100: 1})
        a = QSeries({Fraction(1, 1000): 1, 100: 1})
        with pytest.raises(LatticeTooLarge):
            a + QSeries.from_monomial(qpow(Fraction(1, 999)))


class TestCoeff:
    def test_lookup(self):
        a = S({0: 1, 1: 2}, 3)
        assert a.coeff(1) == 2
        assert a.coeff(Fraction(1, 2)) == 0

    def test_beyond_precision(self):
        with pytest.raises(BeyondPrecision):
            S({0: 1}, 3).coeff(5)


class TestSubstitutePower:
    def test_simple(self):
        out = S({0: 1, 1: 1}, 10).substitute_power(2)
        assert series_to_dict(out) == {0: 1, 2: 1}
        assert out.precision == 20

    def test_fractional(self):
        out = QSeries.from_monomial(qpow(Fraction(1, 2))).substitute_power(Fraction(1, 2))
        assert series_to_dict(out) == {Fraction(1, 4): 1}

    def test_nonpositive_power(self):
        with pytest.raises(NonPositivePower):
            S({0: 1}, 3).substitute_power(0)

    def test_is_ring_homomorphism(self):
        rnd = random.Random(7)
        for _ in range(100):
            k = Fraction(rnd.randint(1, 5), rnd.choice([1, 2]))
            a = _random_series(rnd)
            b = _random_series(rnd)
            lhs = (a * b).substitute_power(k)
            rhs = a.substitute_power(k) * b.substitute_power(k)
            assert lhs.agrees_with(rhs)
            lhs = (a + b).substitute_power(k)
            rhs = a.substitute_power(k) + b.substitute_power(k)
            assert lhs.agrees_with(rhs)


class TestUnitFractionExpand:
    def test_geometric(self):
        out = unit_fraction_expand(1, 1, 4)
        assert series_to_dict(out) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_negative_power_rewrite(self):
        out = unit_fraction_expand(1, -1, 3)
        assert series_to_dict(out) == {1: -1, 2: -1}
        # multiplying back by (1 - q^(-1)) recovers 1 below the precision
        back = out * S({0: 1, -1: -1})
        assert series_to_dict(back.truncate(2)) == {0: 1}

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            unit_fraction_expand(1, 0, 5)

    def test_constant(self):
        out = unit_fraction_expand(3, 0, 5)
        assert series_to_dict(out) == {0: Fraction(-1, 2)}

    def test_zero_coefficient_is_one(self):
        # 1/(1 - 0*q^k) = 1 for every k, with no zero terms stored
        for k in (1, 3, Fraction(1, 2), 0, -1, Fraction(-5, 3)):
            out = unit_fraction_expand(0, k, 5)
            assert series_to_dict(out) == {0: 1}
            assert out.precision == 5
            assert str(out) == "1"
            assert (out - 1).is_zero()


def _random_series(rnd, max_prec=14):
    prec = rnd.randint(3, max_prec)
    terms = {}
    for _ in range(rnd.randint(0, 7)):
        e = Fraction(rnd.randint(-4, 2 * max_prec), rnd.choice([1, 2, 3]))
        c = GaussianRational(
            Fraction(rnd.randint(-4, 4), rnd.choice([1, 2, 3])),
            Fraction(rnd.randint(-2, 2)),
        )
        if not c.is_zero():
            terms[e] = c
    return QSeries(terms, prec)


class TestRingAxioms:
    def test_randomized(self):
        rnd = random.Random(99)
        for _ in range(100):
            a, b, c = (_random_series(rnd) for _ in range(3))
            assert (a + b).agrees_with(b + a)
            assert ((a + b) + c).agrees_with(a + (b + c))
            assert (a * b).agrees_with(b * a)
            assert ((a * b) * c).agrees_with(a * (b * c))
            assert (a * (b + c)).agrees_with(a * b + a * c)


class TestPrecisionSoundness:
    def test_higher_precision_refines(self):
        rnd = random.Random(5)
        for _ in range(100):
            a = _random_series(rnd)
            b = _random_series(rnd)
            lo = a * b
            hi = a.truncate(a.precision) * b  # same inputs, second path
            assert lo.agrees_with(hi)

    def test_unit_fraction_orders_agree(self):
        rnd = random.Random(6)
        for _ in range(100):
            k = Fraction(rnd.randint(-4, 5), rnd.choice([1, 2, 3]))
            c = rnd.choice([1, -1, 2, Fraction(1, 2)])
            if k == 0 and c == 1:
                continue
            lo = unit_fraction_expand(c, k, 6)
            hi = unit_fraction_expand(c, k, 14)
            assert lo.agrees_with(hi)


class TestFormatting:
    def test_str_sorted_ascending(self):
        s = S({2: 1, 0: -1, 1: GaussianRational(0, 1)})
        assert str(s) == "-1 + i*q + q^2"

    def test_negative_and_fractional_exponents(self):
        s = S({Fraction(-11, 2): 1, Fraction(1, 2): -2})
        assert str(s) == "q^(-11/2) - 2*q^(1/2)"
