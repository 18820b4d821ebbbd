"""Small self-contained reference implementations used as test oracles.

Everything here but the retry evaluator at the end works on plain
{exponent: Fraction} dicts and stays deliberately independent of the
package's series engine, so agreement is a two-sided check.
"""

from fractions import Fraction

from qmock import catalog, dsl
from qmock._rational import rat
from qmock.series import InsufficientPrecision, NonPositivePower, QSeries, qpow


def poly_mul(a, b, bound=None):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if bound is not None and e >= bound:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_one():
    return {Fraction(0): Fraction(1)}


def product_side_pochhammer(x_coeff, x_exp, base_exp, order):
    """(x; q^base)_inf by multiplying factors (1 - x q^(i*base)) directly."""
    out = poly_one()
    i = 0
    while x_exp + i * base_exp < order:
        factor = {Fraction(0): Fraction(1), Fraction(x_exp + i * base_exp): -Fraction(x_coeff)}
        out = poly_mul(out, factor, bound=order)
        i += 1
    return out


def bilateral_theta(x_coeff, x_exp, base_exp, order, span=200):
    """j(x; q^base) by brute bilateral summation over a wide window."""
    out = {}
    for n in range(-span, span + 1):
        e = Fraction(base_exp) * n * (n - 1) / 2 + Fraction(x_exp) * n
        if e >= order:
            continue
        c = Fraction(x_coeff) ** n * (-1) ** (n & 1)
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def long_division_invert(series, order):
    """1/series by schoolbook long division; integer exponents, unit constant
    term not required (leading coefficient may be any nonzero rational)."""
    d = min(series)
    lead = series[d]
    shifted = {e - d: c for e, c in series.items()}
    out = {}
    rem = {Fraction(0): Fraction(1)}
    k = Fraction(0)
    while k < order + d:
        c = rem.get(k, Fraction(0)) / lead
        if c:
            out[k] = c
            for e, ce in shifted.items():
                rem[k + e] = rem.get(k + e, Fraction(0)) - c * ce
        k += 1
    return {e - d: c for e, c in out.items() if c}


def series_to_dict(s):
    """Package series -> plain Fraction dict (requires real coefficients)."""
    out = {}
    for e, c in s.terms.items():
        assert c.im == 0, f"unexpected imaginary part at q^{e}"
        out[Fraction(int(e.numerator), int(e.denominator))] = Fraction(
            int(c.re.numerator), int(c.re.denominator)
        )
    return out


def assert_dict_eq(got, want, bound):
    for e in set(got) | set(want):
        if e < bound:
            assert got.get(e, 0) == want.get(e, 0), (
                f"coefficient mismatch at q^{e}: {got.get(e, 0)} != {want.get(e, 0)}"
            )


# -- reference for the operations other than products ------------------------
#
# A reference series is a pair (terms, precision): terms maps Fraction
# exponents to (re, im) pairs of Fractions, none of them (0, 0) and all
# below the precision, a Fraction or None for an exact series.


def ref_series(terms, precision):
    """The reference series of a map, zero and past-precision terms dropped."""
    return {e: c for e, c in terms.items()
            if c != (0, 0) and (precision is None or e < precision)}, precision


def _ref_pmin(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


def gauss_mul(c, d):
    return c[0] * d[0] - c[1] * d[1], c[0] * d[1] + c[1] * d[0]


def gauss_pow(c, n):
    if n < 0:
        norm = c[0] * c[0] + c[1] * c[1]
        c, n = (c[0] / norm, -c[1] / norm), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = gauss_mul(out, c)
    return out


def ref_add(a, b):
    out = dict(a[0])
    for e, (r, i) in b[0].items():
        r0, i0 = out.get(e, (0, 0))
        out[e] = (r0 + r, i0 + i)
    return ref_series(out, _ref_pmin(a[1], b[1]))


def ref_neg(a):
    return {e: (-r, -i) for e, (r, i) in a[0].items()}, a[1]


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_mul_monomial(a, c, e):
    """a times c*q^e for a coefficient pair c."""
    return ({x + e: gauss_mul(v, c) for x, v in a[0].items()},
            None if a[1] is None else a[1] + e)


def ref_truncate(a, order):
    return ref_series(a[0], order if a[1] is None else min(a[1], order))


def ref_substitute_power(a, k):
    return {e * k: c for e, c in a[0].items()}, None if a[1] is None else a[1] * k


def ref_substitute_monomial(a, c, e):
    """q -> c*q^e; ValueError when a has a fractional exponent."""
    if any(x.denominator != 1 for x in a[0]):
        raise ValueError("fractional exponent")
    return ({x * e: gauss_mul(v, gauss_pow(c, int(x))) for x, v in a[0].items()},
            None if a[1] is None else a[1] * e)


def ref_low_degree(a):
    return min(a[0]) if a[0] else a[1]


def ref_coeff(a, e):
    return a[0].get(e, (Fraction(0), Fraction(0)))


def ref_agrees(a, b):
    p = _ref_pmin(a[1], b[1])
    return all(ref_coeff(a, e) == ref_coeff(b, e)
               for e in set(a[0]) | set(b[0]) if p is None or e < p)


# -- the retry evaluator ---------------------------------------------------------
#
# The DSL's evaluator before it planned its working orders: every node is
# evaluated at one global working order, a divisor that is zero to its
# precision is evaluated again at 2w + 1 (three times at most), and a result
# short of the order is thrown away and the whole expression evaluated again
# at the order inflated by the shortfall plus one, four passes at most.  It
# uses the package's series engine and special functions, and checks only
# the planning of the evaluator that replaced it.


def retry_evaluate(node, order):
    """``node`` evaluated to precision ``order`` by whole-expression retries."""
    order = rat(order)
    work = order
    for _ in range(4):
        out = _retry_eval(node, work)
        if out.precision is None or out.precision >= order:
            return out.truncate(order)
        work = work + (order - out.precision) + 1
    raise InsufficientPrecision(f"could not reach precision {order} after 3 retries")


def _retry_eval(node, w):
    if isinstance(node, dsl.Literal):
        return QSeries.constant(node.value)
    if isinstance(node, dsl.QPow):
        return QSeries.from_monomial(qpow(node.exponent))
    if isinstance(node, dsl.Add):
        return _retry_eval(node.left, w) + _retry_eval(node.right, w)
    if isinstance(node, dsl.Sub):
        return _retry_eval(node.left, w) - _retry_eval(node.right, w)
    if isinstance(node, dsl.Neg):
        return -_retry_eval(node.operand, w)
    if isinstance(node, dsl.Mul):
        return _retry_eval(node.left, w) * _retry_eval(node.right, w)
    if isinstance(node, dsl.Div):
        num = _retry_eval(node.left, w)
        return num * _retry_divisor(node.right, w).invert(order=w)
    if isinstance(node, dsl.Pow):
        if node.exponent < 0:
            return _retry_divisor(node.base, w).invert(order=w) ** (-node.exponent)
        return _retry_eval(node.base, w) ** node.exponent
    if isinstance(node, dsl.Call):
        return _retry_call(node, w)
    raise TypeError(f"not an AST node: {node!r}")


def _retry_divisor(node, w):
    den = _retry_eval(node, w)
    for _ in range(3):
        if not den.is_zero() or den.precision is None:
            break
        w = 2 * w + 1
        den = _retry_eval(node, w)
    return den


def _retry_call(node, w):
    name, args = node.name, node.args
    if name == "subq":
        k = dsl._fold_rational(args[1])
        if k <= 0:
            raise NonPositivePower(f"subq power must be positive, got {k}")
        return _retry_eval(args[0], w / k).substitute_power(k)
    if name == "negq":
        return _retry_eval(args[0], w).negate_base()
    kinds, module, attr = dsl.FUNCTIONS[name]
    values = [dsl._FOLD[kind](arg) for kind, arg in zip(kinds, args)]
    if module is None:
        (u,) = values
        return catalog.CATALOG[name].eulerian(w / u.exp).substitute_monomial(u)
    return getattr(module, attr)(*values, w)
