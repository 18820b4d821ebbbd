"""Kernel tests: exact arithmetic, precision bookkeeping, ring properties."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from qmock import series
from qmock._rational import RAT, as_pair, qlt
from qmock.series import (
    BeyondPrecision,
    FractionalExponent,
    GaussianRational,
    LatticeTooLarge,
    NonPositivePower,
    PoleAtOne,
    PowerTooLarge,
    QMonomial,
    QuotientTooLarge,
    QSeries,
    ZeroSeries,
    mono,
    qpow,
)

from qmock.appell import universal_g_eulerian
from qmock.theta import jacobi_theta

import oracles
from oracles import (
    assert_dict_eq,
    long_division_invert,
    poly_mul,
    series_to_dict,
    unit_fraction_expand,
)


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


class TestPower:
    def test_integer_exponents(self):
        a = S({0: 1, 1: 1})
        assert a ** 3 == a ** Fraction(3) == S({0: 1, 1: 3, 2: 3, 3: 1})
        assert a ** 0 == QSeries.one()
        assert S(a.terms, 3) ** -2 == S({0: 1, 1: -2, 2: 3}, 3)

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(-3, 2), 2.7, 2.0])
    def test_non_integral_exponent_raises(self, k):
        with pytest.raises(FractionalExponent):
            S({0: 1, 1: 1}) ** k

    def test_oversized_power_is_refused_before_it_is_formed(self):
        start = time.perf_counter()
        with pytest.raises(PowerTooLarge, match="coefficient bits"):
            S({-1: 1, 0: 1}) ** 100000
        with pytest.raises(PowerTooLarge):
            S({0: 1, 1: 1}) ** 100000
        assert time.perf_counter() - start < 1
        out = S({0: 1, 1: 1}, 200) ** 1000000
        assert out.terms == {k: math.comb(1000000, k) for k in range(200)}

    def test_the_power_bound_holds_what_is_formed(self, monkeypatch):
        # with the bound one bit under what s^n holds, s^n is refused: the
        # check never lets through more than its bound
        rng = random.Random(18)
        for _ in range(300):
            terms = {}
            for e in rng.sample(range(-3, 12), rng.randint(1, 5)):
                re, im = rng.randint(-40, 40) or 1, rng.choice([0, 0, rng.randint(-9, 9)])
                terms[Fraction(e, rng.choice([1, 2]))] = GaussianRational(re, im) / rng.randint(1, 4)
            base = S(terms, rng.choice([None, 4, Fraction(15, 2)]))
            n = rng.randint(2, 40)
            out = base ** n
            held = sum(x.bit_length() for v in (out._re, out._im or []) for x in v)
            if not held:   # a base zero to its precision
                continue
            monkeypatch.setattr(series, "_MAX_POWER_BITS", held - 1)
            with pytest.raises(PowerTooLarge):
                base ** n
            monkeypatch.undo()


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
        # of the product reaches the bound the packed slot width is worked
        # out from, which for 15 terms of 2, 6, 10 or 14 bits is a whole
        # number of bytes before it is widened to an array item size
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

    def test_exact_one_term_factors(self, monkeypatch):
        # an exact one-term factor shifts and scales the other's lattice;
        # given a precision past every term of the product, the same factor
        # is shifted and cut there, which must leave the same terms
        shifts = []
        inner = QSeries._times_term
        monkeypatch.setattr(QSeries, "_times_term",
                            lambda *args: shifts.append(1) or inner(*args))
        rnd = random.Random(33)
        for trial in range(400):
            ta = _fuzz_factor(rnd, rnd.choice(_DENS))
            low = min(ta, default=Fraction(0))
            a = S(ta, rnd.choice([None, low + Fraction(rnd.randint(-2, 30), rnd.choice([1, 2, 3]))]))
            c = _random_coefficient(rnd)
            e = Fraction(rnd.randint(-20, 20), rnd.choice(_DENS))
            t = S({e: c})
            before = len(shifts)
            got = a * t if trial % 2 else t * a
            assert len(shifts) == before + 1
            assert got.precision == (None if a.precision is None else a.precision + e)
            _assert_ground_types(got)
            far = e + max(ta, default=low) - low + 1
            convolved = a * S({e: c}, far)
            assert len(shifts) == before + 2
            assert got.terms == convolved.terms
            assert _ref_of(got) == oracles.ref_mul_monomial(_ref_of(a), (_frac(c.re), _frac(c.im)), e)


class TestPackedKernel:
    """Kronecker packing at each slot width, on the machine-array codec and
    on the per-slot one, and division by 1 -+ q^k in both of its loop
    shapes, against the pair loop, tests/oracles.py and the general pass."""

    WIDTHS = [1, 2, 4, 8, 9, 16, 33]

    @pytest.fixture(params=["array", "per-slot"])
    def codec(self, request, monkeypatch):
        if request.param == "per-slot":
            monkeypatch.setattr(series, "_CODES", {})
        elif sys.byteorder == "little":
            assert sorted(series._CODES) == [1, 2, 4, 8]
        return request.param

    @staticmethod
    def _check(a, b, count, wb):
        got = series._kronecker(a, b, count, wb)
        assert got == series._convolve(a, b, count)
        (ra, xa), (rb, xb) = a, b
        as_map = lambda v: {Fraction(i): Fraction(x) for i, x in enumerate(v or []) if x}
        want_re = _sub(poly_mul(as_map(ra), as_map(rb), count), poly_mul(as_map(xa), as_map(xb), count))
        want_im = poly_mul(as_map(ra), as_map(xb), count)
        for e, x in poly_mul(as_map(xa), as_map(rb), count).items():
            want_im[e] = want_im.get(e, 0) + x
        assert as_map(got[0]) == want_re
        assert as_map(got[1]) == {e: x for e, x in want_im.items() if x}

    def test_slots_at_the_widths_bounds(self, codec):
        # every input and every product slot at +-(2^(8*wb - 1) - 1), the
        # largest magnitude a slot of wb bytes holds
        rnd = random.Random(35)
        for wb in self.WIDTHS:
            top = 2 ** (8 * wb - 1) - 1
            half = top // 2
            for _ in range(6):
                v = [rnd.choice([top, -top, rnd.randint(-top, top), 0]) for _ in range(rnd.randint(1, 12))]
                v[0] = v[0] or top
                n = len(v) + 2
                w = [rnd.choice([top, -top, 1, -1]) for _ in range(len(v))]
                self._check((v, None), ([1], None), n, wb)
                self._check(([0, -1], None), (v, None), n, wb)
                self._check(([half + 1, half], None), ([1, 1], None), 3, wb)
                self._check(([-half - 1, -half], None), ([1, 1], None), 3, wb)
                self._check((v, w), ([0], [1]), n, wb)
                self._check((v, w), ([-1], None), n, wb)
                self._check(([1], None), (w, v), n, wb)
                cut = max(1, len(v) - 3)
                self._check(([0, -1], None), series._cut((v, w), cut), cut, wb)

    def test_random_products_at_each_width(self, codec):
        rnd = random.Random(36)
        for wb in self.WIDTHS:
            for _ in range(30):
                la, lb = rnd.randint(1, 20), rnd.randint(1, 20)
                count = rnd.randint(1, la + lb)
                # every product slot, at most 2*min(la, lb)*|a|*|b|, below 2^(8*wb - 2)
                bits = 8 * wb - 3 - min(la, lb).bit_length()
                big = 2 ** rnd.randint(0, bits)
                small = 2 ** (bits - big.bit_length() + 1)
                gauss_a, gauss_b = rnd.random() < 0.4, rnd.random() < 0.4

                def vec(size, m):
                    return [rnd.choice([0, rnd.randint(-m, m), m, -m]) for _ in range(size)]

                a = (vec(la, big), vec(la, big) if gauss_a else None)
                b = (vec(lb, small), vec(lb, small) if gauss_b else None)
                self._check(a, b, count, wb)

    @pytest.mark.parametrize("c", [1, -1])
    @pytest.mark.parametrize("gaussian", [False, True])
    def test_division_by_one_minus_unit(self, c, gaussian):
        rnd = random.Random(37 + c + 2 * gaussian)
        for _ in range(200):
            stride = rnd.randint(1, 12)
            n = rnd.randint(1, 80)
            re = [rnd.choice([0, rnd.randint(-2 ** 70, 2 ** 70), rnd.randint(-9, 9)]) for _ in range(n)]
            im = [rnd.randint(-9, 9) for _ in range(n)] if gaussian else None
            got_re, got_im = series._divide_pass(re, im, stride, c, 0, 1)
            # the same c written as 2c/2 gives the quotient over 2^J, J
            # the last block
            scale = 2 ** ((n - 1) // stride)
            gen_re, gen_im = series._divide_pass(re, im, stride, 2 * c, 0, 2)
            assert gen_re == [scale * x for x in got_re]
            assert (gen_im is None) == (got_im is None) == (not gaussian)
            for v, got in ((re, got_re), (im, got_im)):
                if v is not None:
                    want = list(v)
                    for i in range(stride, n):
                        want[i] += c * want[i - stride]
                    assert got == want
            if gaussian:
                assert gen_im == [scale * x for x in got_im]


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
        # so do a shifted add, a theta sum and g's Eulerian loop there, each
        # before it allocates the lattice
        with pytest.raises(LatticeTooLarge):
            QSeries({Fraction(1, 1000): 1, Fraction(1, 999): 1}).times_one_minus(qpow(100))
        with pytest.raises(LatticeTooLarge):
            jacobi_theta(qpow(Fraction(1, 999)), qpow(Fraction(1, 1000)), 30)
        with pytest.raises(LatticeTooLarge):
            universal_g_eulerian(qpow(Fraction(1, 1000)), qpow(Fraction(1, 999)), 30)


class TestOnePassFactors:
    """Division by 1 - c*q^k in one lattice pass, multiplication by it as one
    shifted add, and the n-ary sum, against the Fraction dict oracles of
    tests/oracles.py and against the products with the expanded factor that
    they replace."""

    COEFFS = [GaussianRational(1), GaussianRational(-1), GaussianRational(2),
              GaussianRational(-3), GaussianRational(Fraction(1, 2)),
              GaussianRational(Fraction(-3, 2)), GaussianRational(Fraction(5, 7)),
              GaussianRational(0, 1), GaussianRational(1, 1),
              GaussianRational(Fraction(2, 3), Fraction(-1, 3))]
    KS = [Fraction(1), Fraction(2), Fraction(5), Fraction(1, 2), Fraction(1, 3), Fraction(4, 9),
          Fraction(5, 7), Fraction(3, 2), Fraction(0), Fraction(-1), Fraction(-1, 2),
          Fraction(-4, 3)]

    def _series(self, rnd):
        if rnd.random() < 0.1:
            return QSeries.zero(rnd.choice([None, Fraction(rnd.randint(-5, 20), rnd.choice(_DENS))]))
        terms = _fuzz_factor(rnd, rnd.choice([1, 2, 3, 7]))
        while any(e.denominator == 1000 for e in terms):
            terms = _fuzz_factor(rnd, rnd.choice([1, 2, 3, 7]))
        low = min(terms, default=Fraction(0))
        return QSeries(terms, rnd.choice([None, low + Fraction(rnd.randint(-2, 30), rnd.choice([1, 2, 3]))]))

    def _factor(self, rnd):
        return rnd.choice(self.COEFFS), rnd.choice(self.KS)

    @staticmethod
    def _over_one_minus(s, m, order):
        """s / (1 - m) below ``order`` by one division step of the Eulerian
        loop's running product, on the grid of s and m."""
        return s._over_one_minus(*m.pair, m.triple, as_pair(order))

    @staticmethod
    def _operand(s):
        """What a step must leave of its operand s as it was: its lattice
        key, its precision and the contents of its numerator vectors."""
        return s._key(), s.prec, list(s._re), None if s._im is None else list(s._im)

    def test_division(self):
        rnd = random.Random(71)
        seen = dict.fromkeys(["integer", "rational", "gaussian", "k<0", "k=0", "off grid",
                              "exact", "zero", "starts past the order", "long division"], 0)
        for _ in range(600):
            s = self._series(rnd)
            c, k = self._factor(rnd)
            m = QMonomial(c, k)
            w = rnd.choice([Fraction(rnd.randint(-4, 24), rnd.choice([1, 2, 3])),
                            (s.low_degree() or 0) + Fraction(rnd.randint(-3, 20), rnd.choice([1, 2]))])
            if not k and c == 1:
                with pytest.raises(PoleAtOne):
                    self._over_one_minus(s, m, w)
                continue
            before = self._operand(s)
            got = self._over_one_minus(s, m, w)
            assert self._operand(s) == before, (s, c, k, w)
            old = (s * unit_fraction_expand(c, k, w)).truncate(w)
            assert got == old and got.precision == old.precision, (s, c, k, w)
            _assert_ground_types(got)
            terms, _ = _ref_of(s)
            cpair = (_frac(c.re), _frac(c.im))
            low = min(terms, default=Fraction(0))
            want = oracles.ref_mul(terms, oracles.geometric_expansion(cpair, k, got.precision - low),
                                   got.precision)
            assert _ref_of(got)[0] == want
            assert got.times_one_minus(m).agrees_with(s)
            if not c.im and k > 0 and k.denominator == 1 and terms:
                inv = long_division_invert({Fraction(0): Fraction(1), k: -cpair[0]},
                                           got.precision - low)
                for part in ("re", "im"):
                    assert _parts(got.terms, part) == poly_mul(_parts(s.terms, part), inv, got.precision)
                seen["long division"] += 1
            seen["gaussian" if c.im else "rational" if c.re.denominator > 1 else "integer"] += 1
            seen["k<0"] += k < 0
            seen["k=0"] += k == 0
            seen["off grid"] += k != 0 and (k / s._step * s._L).denominator > 1
            seen["exact"] += s.precision is None
            seen["zero"] += s.is_zero()
            seen["starts past the order"] += got.is_zero() and not s.is_zero()
        assert min(seen.values()) >= 15, seen

    def test_shifted_add(self):
        rnd = random.Random(72)
        for _ in range(600):
            s = self._series(rnd)
            c, k = self._factor(rnd)
            before = self._operand(s)
            got = s.times_one_minus(QMonomial(c, k))
            assert self._operand(s) == before, (s, c, k)
            binomial = QSeries.constant(1 - c) if not k else QSeries({0: 1, k: -c})
            old = s * binomial
            assert got == old and got.precision == old.precision, (s, c, k)
            _assert_ground_types(got)
            terms, _ = _ref_of(s)
            cpair = (_frac(c.re), _frac(c.im))
            factor = ({Fraction(0): (Fraction(1), Fraction(0)), k: (-cpair[0], -cpair[1])} if k
                      else {Fraction(0): (1 - cpair[0], -cpair[1])})
            assert _ref_of(got)[0] == oracles.ref_mul(terms, factor, got.precision)

    def test_sum_series(self):
        rnd = random.Random(73)
        for _ in range(300):
            parts = [self._series(rnd) for _ in range(rnd.randint(0, 5))]
            precision = rnd.choice([None, Fraction(rnd.randint(-5, 30), rnd.choice([1, 2, 3]))])
            want = ({}, precision)
            for s in parts:
                want = oracles.ref_add(want, _ref_of(s))
            got = series.sum_series(parts, precision)
            _assert_ground_types(got)
            assert _ref_of(got) == want


class TestQuotient:
    """QSeries.divide, one exact recurrence past ``invert``'s two cases:
    equal in value and precision to the inverse times the numerator, and
    in value to the schoolbook long division of tests/oracles.py followed
    by its pair product."""

    LEADS = [GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
             GaussianRational(0, -1), GaussianRational(2), GaussianRational(Fraction(1, 2))]

    def test_oversized_quotient_is_refused_before_it_runs(self, monkeypatch):
        # below q^20000, 1/(1 + q + ... + q^20000) takes 20000 slots of up
        # to 19999 divisor taps each, more than 2^28 recurrence steps
        start = time.perf_counter()
        with pytest.raises(QuotientTooLarge, match="20000 slots by 19999 divisor taps"):
            S({0: 1}).divide(S({k: 1 for k in range(20001)}), 20000)
        assert time.perf_counter() - start < 1
        # below q^10, 1/(1 + q - 2q^3 + q^12) takes 10 slots of 2 taps: the
        # bound counts slots times taps, not the divisor's own slots
        divisor = S({0: 1, 1: 1, 3: -2, 12: 1})
        want = S({0: 1}).divide(divisor, 10)
        monkeypatch.setattr(series, "_MAX_RECURRENCE_STEPS", 20)
        assert S({0: 1}).divide(divisor, 10) == want
        monkeypatch.setattr(series, "_MAX_RECURRENCE_STEPS", 19)
        with pytest.raises(QuotientTooLarge):
            S({0: 1}).divide(divisor, 10)

    def _coefficient(self, rnd, gaussian, unit):
        """+-1 (and +-i, 1 + i for a Gaussian series) for a unit one, else a
        small rational part or two."""
        if unit:
            units = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1), (1, 1)] if gaussian else [])
            return GaussianRational(*rnd.choice(units + [(3, 0)]))
        re = Fraction(rnd.randint(-9, 9), rnd.choice([1, 1, 2, 3]))
        return GaussianRational(re, rnd.randint(-4, 4) if gaussian else 0)

    def _series(self, rnd, lead=None):
        """A random series from a random start on a grid of step 1, 1/2 or
        1/3: real or Gaussian, dense or sparse (mostly unit coefficients),
        exact or known below a random precision."""
        den = rnd.choice([1, 2, 3])
        lo = Fraction(rnd.randint(-6, 6), den)
        dense = rnd.random() < 0.5
        gaussian = rnd.random() < 0.35
        terms = {}
        for k in range(rnd.randint(1, 24)):
            if k and not dense and rnd.random() < 0.7:
                continue
            c = self._coefficient(rnd, gaussian, not dense)
            if c:
                terms[lo + Fraction(k, den)] = c
        if lead is not None:
            terms[lo] = lead
        precision = None if rnd.random() < 0.3 else lo + Fraction(rnd.randint(0, 30), den)
        return S(terms, precision), gaussian, dense

    def _oracle(self, a, b, got):
        """a/b by the oracles below got's precision: on the integer grid
        q -> q^L, b's inverse by long division and the pair product."""
        la = a.low_degree()
        p = got.precision
        exps = [*a.terms, *b.terms, la] + ([] if p is None else [p])
        L = 1
        for e in exps:
            L = L * e.denominator // math.gcd(L, e.denominator)
        scaled_a = {e * L: c for e, c in a.terms.items()}
        scaled_b = {e * L: c for e, c in b.terms.items()}
        if p is None:   # an exact quotient by an exact one-term divisor
            return poly_mul(scaled_a, long_division_invert(scaled_b, -min(scaled_b) + 1)), L
        return poly_mul(scaled_a, long_division_invert(scaled_b, (p - la) * L), p * L), L

    def test_against_the_inverse_and_long_division(self, monkeypatch):
        ran = []
        inner = series._recurrence
        monkeypatch.setattr(series, "_recurrence", lambda *args: ran.append(1) or inner(*args))
        rnd = random.Random(91)
        seen = dict.fromkeys(["recurrence", "no recurrence", "gaussian",
                              "dense divisor", "sparse divisor", "exact", "zero divisor",
                              *map(str, self.LEADS)], 0)
        for _ in range(400):
            a, _, _ = self._series(rnd)
            if rnd.random() < 0.1:
                a = QSeries.zero(a.precision)
            lead = rnd.choice(self.LEADS)
            b, gaussian, dense = self._series(rnd, lead)
            if rnd.random() < 0.05:
                b = QSeries.zero(b.precision)
            order = rnd.choice([None, Fraction(rnd.randint(-8, 30), rnd.choice([1, 2, 3]))])
            try:
                want = a * b.invert(order)
            except (ValueError, ZeroSeries) as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    a.divide(b, order)
                seen["zero divisor"] += isinstance(exc, ZeroSeries)
                continue
            got, took = self._divide(ran, a, b, order, want)
            seen["recurrence" if took else "no recurrence"] += 1
            if got.is_zero():
                continue
            want_terms, L = self._oracle(a, b, got)
            assert {e * L: c for e, c in got.terms.items()} == want_terms
            seen["gaussian"] += gaussian or a._im is not None
            seen["dense divisor" if dense else "sparse divisor"] += 1
            seen["exact"] += a.precision is None or b.precision is None
            seen[str(lead)] += 1
        assert min(seen.values()) >= 10 and seen["recurrence"] >= 40, seen
        # a divisor that is its lead u times a series of Gaussian-integer
        # numerators with lead 1
        i = GaussianRational(0, 1)
        divisors = [S({0: 2, 1: -2, 3: -2}), jacobi_theta(qpow(1), qpow(2), 30) * (1 + i)]
        for _ in range(40):
            lo = Fraction(rnd.randint(-4, 4), rnd.choice([1, 2]))
            terms = {lo + Fraction(k, 2): GaussianRational(rnd.randint(-3, 3), rnd.randint(-2, 2))
                     for k in range(1, rnd.randint(2, 30)) if rnd.random() < 0.4}
            terms[lo] = rnd.choice([1, -1, i])
            u = rnd.choice([2, -3, 1 + i, 2 * i, GaussianRational(1, -2)])
            precision = None if rnd.random() < 0.3 else lo + rnd.randint(1, 30)
            divisors.append(S(terms, precision) * u)
        # a lead that does not divide the divisor: 2 + q, 3 - q^2,
        # (1 + i) - q, j(2*q^(4/9); q), and 2^k over 2^k, 1 plus taps
        # +-2^e as in the theta quotients of the corpus
        divisors += [S({0: 2, 1: 1}), S({0: 3, 2: -1}), S({0: 1 + i, 1: -1}),
                     jacobi_theta(mono(2, Fraction(4, 9)), qpow(1), 5)]
        for _ in range(40):
            den = rnd.choice([1, 2, 9])
            lo = Fraction(rnd.randint(-4, 4), den)
            terms = {lo + Fraction(k, den): rnd.choice([1, -1]) * Fraction(2) ** rnd.randint(-5, 5)
                     for k in range(1, rnd.randint(2, 40)) if rnd.random() < 0.3}
            terms[lo] = 1
            terms.setdefault(lo + Fraction(rnd.randint(1, 9), den), Fraction(1, 2))
            precision = None if rnd.random() < 0.3 else lo + rnd.randint(1, 20)
            divisors.append(S(terms, precision))
        for b in divisors:
            a, _, _ = self._series(rnd)
            order = rnd.choice([None, Fraction(rnd.randint(1, 30), rnd.choice([1, 2]))])
            if b.precision is None and order is None:
                order = 12
            got, took = self._divide(ran, a, b, order, a * b.invert(order))
            assert took or got.is_zero(), (a, b, order)
            if not got.is_zero():
                want_terms, L = self._oracle(a, b, got)
                assert {e * L: c for e, c in got.terms.items()} == want_terms
        # 1/(2 - q): the common denominator doubles at every slot
        a, b = S({0: 1}), S({0: 2, 1: -1})
        got, took = self._divide(ran, a, b, 40, a * b.invert(40))
        assert took and got == S({k: Fraction(1, 2 ** (k + 1)) for k in range(40)}, 40)
        # a dense divisor of 300 slots: about 150 taps per quotient slot
        a, b = S({0: 1, 1: 3, 2: -1}), S({k: 1 + (k == 0) for k in range(300)}, 300)
        got, took = self._divide(ran, a, b, 300, a * b.invert(300))
        assert took and got.precision == 300
        want_terms, L = self._oracle(a, b, got)
        assert {e * L: c for e, c in got.terms.items()} == want_terms

    @staticmethod
    def _divide(ran, a, b, order, want):
        """a.divide(b, order), asserted equal to want in value and in
        precision, and whether it ran the recurrence: exactly once past
        ``invert``'s two cases (an exact one-term divisor, an inverse that
        starts at or past the order) unless the quotient is zero, and never
        in them."""
        before = len(ran)
        got = a.divide(b, order)
        assert got == want and got.precision == want.precision, (a, b, order)
        _assert_ground_types(got)
        took = len(ran) - before
        inverse_prec = b.inverse_prec(order)
        special = inverse_prec is None or not qlt(b.inverse_low(order), inverse_prec)
        assert took == (not special and not got.is_zero()), (a, b, order, took)
        return got, took == 1

    def test_inverse_start_and_precision_without_inverting(self):
        # what the DSL plan reads of a divisor it has not inverted
        rnd = random.Random(17)
        kinds = {"exact one-term": 0, "starts past the order": 0, "inexact": 0}
        for _ in range(200):
            lead = rnd.choice(self.LEADS)
            b, _, _ = self._series(rnd, lead)
            if rnd.random() < 0.1:
                b = S({Fraction(rnd.randint(-6, 6), 3): lead})
            order = rnd.choice([None, Fraction(rnd.randint(-8, 30), rnd.choice([1, 2, 3]))])
            try:
                inv = b.invert(order)
            except (ValueError, ZeroSeries) as exc:
                for helper in (b.inverse_low, b.inverse_prec):
                    with pytest.raises(type(exc), match=str(exc)):
                        helper(order)
                continue
            assert b.inverse_low(order) == inv.low()
            assert b.inverse_prec(order) == inv.prec
            if inv.precision is None:
                kinds["exact one-term"] += 1
            else:
                kinds["starts past the order" if inv.is_zero() else "inexact"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_lead_and_denominator_of_the_recurrence(self, monkeypatch):
        # the recurrence gets the divisor over its numerators' gcd, times
        # its lead's conjugate when that is not real, so its lead is an
        # integer u > 0; the quotient's denominator grows only where u does
        # not divide a slot
        seen = []
        inner = series._recurrence
        monkeypatch.setattr(series, "_recurrence",
                            lambda a, b, n: seen.append((b, inner(a, b, n))) or seen[-1][1])
        i = GaussianRational(0, 1)
        for b, lead in ((S({0: 2, 1: -2, 3: -2}), 1), (S({0: -6, 1: 3}), 2),
                        (jacobi_theta(qpow(1), qpow(2), 20) * (1 + i), 1), (S({0: 1 + i, 1: -1}), 2)):
            S({0: 1}).divide(b, 20)
            assert seen[-1][0][0][0] == lead, b
        # 2/(4 - q) = sum q^k/(2*4^k): slot k needs 2^(2k+1), so 20 slots
        # need 2^39, not 4^20
        S({0: 2}).divide(S({0: 4, 1: -1}), 20)
        assert seen[-1][1][2] == 2 ** 39

    def test_zero_divisor(self):
        with pytest.raises(ZeroSeries, match="cannot invert a series that is zero to its precision"):
            S({0: 1, 1: 1}, 5).divide(QSeries.zero(5), 3)

    def test_scaled_lead_equals_the_rescaling_loop(self, monkeypatch):
        # a lead other than 1 (2^k up to 2^64, odd, composite) takes
        # _scaled_recurrence, with the (q, D) of rescaling every slot where
        # D grows: dividends with zero, negative and wide slots, taps of
        # +-1, +-2^e and others, and divisors that leave D at 1
        scaled = []
        inner = series._scaled_recurrence
        monkeypatch.setattr(series, "_scaled_recurrence", lambda *args: scaled.append(1) or inner(*args))
        rnd = random.Random(1807)
        grew = 0
        for case in range(300):
            if case % 3:
                u = 1 << (rnd.choice([1, 2, 3, 28, 40, 64]) if case % 10 else rnd.randint(1, 8))
            else:
                u = rnd.choice([3, 6, 9, 10, 12, 35, 3 ** 30 * 2 ** 5])
            n = rnd.randint(1, 40)
            a = [rnd.choice([0, 0, 1, -1, rnd.randint(-9, 9), rnd.randint(-2 ** 70, 2 ** 70)])
                 for _ in range(n)]
            b = [u] + [rnd.choice([0, 0, 1, -1, 2, -(2 ** rnd.randint(1, 70)), rnd.randint(-9, 9)])
                       for _ in range(rnd.randint(0, 12))]
            if case % 7 == 0:   # a divisor that is the lead times one with lead 1
                b = [x * u for x in [1] + b[1:]]
            want = oracles.rescaled_recurrence(a, b)
            assert series._real_recurrence(list(a), b) == want, (a, b)
            grew += want[1] > 1
        assert len(scaled) == 300 and grew >= 100

    def test_gaussian_recurrence_is_the_long_division(self):
        # a Gaussian divisor with an integer lead u: the quotient's slots
        # over the least common denominator of them all
        rnd = random.Random(1809)
        for case in range(200):
            u = rnd.choice([1, 1, 2, 3, 4, 6, 2 ** 30])
            n = rnd.randint(1, 25)
            ar = [rnd.choice([0, 1, -1, rnd.randint(-9, 9), rnd.randint(-2 ** 40, 2 ** 40)]) for _ in range(n)]
            ai = None if case % 4 == 0 else [rnd.randint(-5, 5) for _ in ar]
            m = rnd.randint(1, 10)
            br = [u] + [rnd.choice([0, 1, -1, rnd.randint(-9, 9)]) for _ in range(m)]
            bi = [0] + [rnd.choice([0, 1, -1, rnd.randint(-9, 9)]) for _ in range(m)]
            qr, qi, D = series._recurrence((ar, ai), (br, bi), n)
            want = oracles.quotient_slots(ar, ai, br, bi, n)
            assert [(Fraction(x, D), Fraction(y, D)) for x, y in zip(qr, qi)] == want
            assert D == math.lcm(*[c.denominator for pair in want for c in pair])

    def test_power_of_two_denominator_reduction(self):
        # the lowest set bit of the denominator and every numerator, against
        # their gcd, for dyadic and other denominators, negative numerators
        # and zero slots, real and Gaussian
        rnd = random.Random(1808)
        for case in range(1000):
            den = 1 << rnd.randint(0, 80) if case % 3 else rnd.randint(1, 10 ** 6)
            scale = 1 << rnd.randint(0, 90)
            re = [scale * rnd.choice([0, 0, 1, -1, 3, rnd.randint(-10 ** 9, 10 ** 9)])
                  for _ in range(rnd.randint(1, 30))]
            im = None if rnd.random() < 0.5 else [scale * rnd.randint(-5, 5) for _ in re]
            if not any(re) and not any(im or ()):
                re[0] = scale
            assert series._reduce(re, im, den) == oracles.reduced_by_gcd(re, im, den), (re, im, den)


class TestEulerianSum:
    @staticmethod
    def _outcome(fn, *args):
        try:
            out = fn(*args)
        except PoleAtOne:
            return PoleAtOne
        return out, out.precision

    @staticmethod
    def _on_sixths(weight, factors, order, divide):
        """``series.eulerian_sum`` of monomials whose exponents lie on
        the grid 1/6."""
        def term(m):
            return m.pair[0] * (6 // m.pair[1]), m.triple

        return series.eulerian_sum(
            6, lambda n: term(weight(n)), lambda n: [term(m) for m in factors(n)], order, divide)

    def test_against_every_product_formed(self):
        # factors that start below zero, products that are zero to their
        # precision, and orders <= 0, where the loop must form the product
        # of the term that stops it
        rnd = random.Random(75)
        coeffs = TestOnePassFactors.COEFFS
        outcomes = {"value": 0, "zero": 0, "order <= 0": 0, "PoleAtOne": 0}
        for _ in range(300):
            steps = [(rnd.choice(coeffs), Fraction(rnd.randint(-6, 3), rnd.choice([1, 2, 3])),
                      Fraction(rnd.randint(1, 4), rnd.choice([1, 2])))
                     for _ in range(rnd.randint(1, 2))]
            cw = rnd.choice(coeffs)
            w0, w1, w2 = (Fraction(rnd.randint(-4, 4), rnd.choice([1, 2])),
                          Fraction(rnd.randint(0, 3), 2), Fraction(rnd.randint(1, 2), 2))

            def factors(n):
                return [QMonomial(c, a + s * n) for c, a, s in steps]

            def weight(n):
                return QMonomial(cw, w0 + w1 * n + w2 * n * n)

            order = Fraction(rnd.randint(-6, 14), rnd.choice([1, 2, 3]))
            divide = rnd.random() < 0.6
            got, want = (self._outcome(f, weight, factors, order, divide)
                         for f in (self._on_sixths, oracles.eulerian_sum_stepwise))
            assert got == want, (steps, cw, (w0, w1, w2), order, divide)
            if got is PoleAtOne:
                outcomes["PoleAtOne"] += 1
                continue
            outcomes["zero" if got[0].is_zero() else "value"] += 1
            outcomes["order <= 0"] += order <= 0
        assert min(outcomes.values()) >= 10, outcomes


class TestPackedEulerianLoop:
    """Unit sums of ``series.eulerian_sum`` (every coefficient 1 or -1,
    integer exponents, positive factors, weights from 0 up that do not
    fall) run on packed integers.  Each is checked against the same sum on
    the vector path, forced by making ``series._unit_steps`` find no unit
    sum, and against ``oracles.eulerian_sum_stepwise``, in value and in
    precision; every other shape must take the vector path."""

    ONE, MINUS = (1, 0, 1), (-1, 0, 1)

    @staticmethod
    def _sum(L, weight, factors, order, divide, vector=False):
        """The sum and the calls (name, n) it made, on the vector path when
        ``vector``."""
        calls = []

        def w(n):
            calls.append(("weight", n))
            return weight(n)

        def f(n):
            calls.append(("factors", n))
            return factors(n)

        with pytest.MonkeyPatch.context() as mp:
            if vector:
                mp.setattr(series, "_unit_steps", lambda *args: False)
            return series.eulerian_sum(L, w, f, order, divide), calls

    @staticmethod
    def _oracle(L, weight, factors, order, divide):
        def mono_of(e, c):
            return QMonomial(GaussianRational(Fraction(c[0], c[2]), Fraction(c[1], c[2])), Fraction(e, L))

        return oracles.eulerian_sum_stepwise(
            lambda n: mono_of(*weight(n)), lambda n: [mono_of(k, c) for k, c in factors(n)],
            order, divide)

    def _check(self, L, weight, factors, order, divide, oracle=True):
        """The packed sum, after checking it against the vector path and,
        if ``oracle``, the stepwise oracle."""
        got, calls = self._sum(L, weight, factors, order, divide)
        want, want_calls = self._sum(L, weight, factors, order, divide, vector=True)
        assert (got, got.prec) == (want, want.prec)
        # factors(n) and weight(n) once each, n = 0, 1, ... in turn
        assert calls == want_calls
        assert calls == [("factors", 0)] + [(name, n + (name == "factors"))
                                            for n in range(len(calls) // 2) for name in ("weight", "factors")]
        if oracle:
            assert got == self._oracle(L, weight, factors, order, divide)
        return got

    def _random_sum(self, rnd):
        L = rnd.choice([1, 1, 2, 3, 5])
        w0, w1, w2 = rnd.randint(0, 4), rnd.randint(0, 3), rnd.randint(0, 2)
        w1 += not (w1 or w2)
        rep = rnd.choice([1, 1, 2])    # 2: equal consecutive weights
        signs = rnd.choice([(self.ONE,), (self.MINUS,), (self.ONE, self.MINUS)])
        steps = [(rnd.randint(1, 6), rnd.randint(0, 4), rnd.choice([self.ONE, self.MINUS]),
                  rnd.choice([True, False]))
                 for _ in range(rnd.randint(1, 3))]

        def weight(n):
            j = n // rep
            return w0 + w1 * j + w2 * j * j, signs[n % len(signs)]

        def factors(n):
            # a factor may start at n = 1, as the catalog's do
            return [(a + s * n, c) for a, s, c, first in steps if n or first]

        return L, weight, factors, Fraction(rnd.randint(1, 24), rnd.choice([1, 2, 3])), rnd.random() < 0.6

    def test_against_vector_path_and_oracle(self, monkeypatch):
        ran = []
        inner = series._packed_terms
        monkeypatch.setattr(series, "_packed_terms", lambda *a: ran.append(a) or inner(*a))
        rnd = random.Random(1511)
        seen = dict.fromkeys(["divide", "multiply", "equal weights", "stop at the order"], 0)
        for _ in range(300):
            L, weight, factors, order, divide = self._random_sum(rnd)
            ran.clear()
            self._check(L, weight, factors, order, divide)
            if not ran:
                continue    # the sum stops at its first weight
            weights = ran[0][0]
            seen["divide" if divide else "multiply"] += 1
            seen["equal weights"] += any(a[0] == b[0] for a, b in zip(weights, weights[1:-1]))
            seen["stop at the order"] += Fraction(weights[-1][0], L) == order
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("codec", ["native", "per-slot"])
    def test_every_slot_width(self, monkeypatch, codec):
        # P_n = 1/(1 - q)^(n + 1) or (1 + q)^(n + 1) over many slowly
        # weighted terms: the coefficients cross 2^7, 2^15, 2^31 and 2^63
        # as the order grows, so the slots widen 1 -> 2 -> 4 -> 8 bytes and
        # on one byte at a time
        if codec == "per-slot":
            monkeypatch.setattr(series, "_CODES", {})
        widened, final = set(), set()
        respace, unpack = series._respace, series._unpack
        monkeypatch.setattr(series, "_respace",
                            lambda x, count, w, R, wide, Rw: widened.add((w, wide)) or respace(x, count, w, R, wide, Rw))
        monkeypatch.setattr(series, "_unpack",
                            lambda packed, count, wb, off: final.add(wb) or unpack(packed, count, wb, off))
        for order, divide, c in [(3, True, self.ONE), (12, True, self.ONE), (20, True, self.MINUS),
                                 (30, True, self.ONE), (45, True, self.ONE), (70, True, self.MINUS),
                                 (90, False, self.MINUS), (150, False, self.MINUS), (120, True, self.ONE)]:
            got = self._check(1, lambda n: (n // 3, self.ONE), lambda n: [(1, c)], Fraction(order),
                              divide, oracle=order <= 45)
            assert got.prec == (order, 1)
        assert {(1, 2), (2, 4), (4, 8), (8, 9), (9, 10), (10, 11)} <= widened
        assert {1, 2, 4, 8, 9} <= final
        assert max(map(abs, got._re)).bit_length() > 64

    def test_other_shapes_take_the_vector_path(self, monkeypatch):
        ran = []
        inner = series._packed_terms
        monkeypatch.setattr(series, "_packed_terms", lambda *a: ran.append(a) or inner(*a))
        ONE, MINUS = self.ONE, self.MINUS

        def weights(*changed):
            return lambda n: dict(changed).get(n, (n * n, ONE if n % 3 else MINUS))

        def factors(*changed):
            return lambda n: dict(changed).get(n, [(2 * n + 1, MINUS), (n + 2, ONE)])

        order = Fraction(17, 2)
        shapes = {
            "order 0": (weights(), factors(), Fraction(0)),
            "order < 0": (weights(), factors(), Fraction(-5, 2)),
            "factor coefficient 2": (weights(), factors((2, [(5, (2, 0, 1))])), order),
            "factor coefficient 1/2": (weights(), factors((1, [(3, (1, 0, 2))])), order),
            "factor coefficient i": (weights(), factors((3, [(7, (0, 1, 1))])), order),
            "weight coefficient 3": (weights((2, (4, (3, 0, 1)))), factors(), order),
            "negative weight": (weights((0, (-1, ONE))), factors(), order),
            "falling weight": (weights((1, (3, ONE)), (2, (2, MINUS))), factors(), order),
            "factor exponent 0": (weights(), factors((2, [(0, MINUS)])), order),
            "negative factor exponent": (weights(), factors((1, [(-2, ONE)])), order),
            # weight 9 reaches the order, but the factor after it does not start above 0
            "negative factor after the stopping weight": (weights(), factors((4, [(-2, ONE)])), order),
        }
        for name, (weight, factor, o) in shapes.items():
            for divide in (True, False):
                ran.clear()
                got, _ = self._sum(1, weight, factor, o, divide)
                assert not ran, name
                assert got == self._oracle(1, weight, factor, o, divide), name
        # the same sum with none of the changes is packed
        self._sum(1, weights(), factors(), order, True)
        assert ran


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
