"""Small self-contained reference implementations used as test oracles.

Everything here but the pairwise Appell-Lerch and universal-g loops and the
retry evaluator at the end works on plain {exponent: Fraction} dicts and
stays deliberately independent of the package's series engine, so
agreement is a two-sided check.
"""

from fractions import Fraction

from qmock import catalog, dsl
from qmock._rational import rat
from qmock.series import (
    DegenerateX,
    DegenerateZ,
    InsufficientPrecision,
    NonPositivePower,
    PoleAtOne,
    QMonomial,
    QSeries,
    qpow,
    unit_fraction_expand,
)
from qmock.theta import as_base, jacobi_theta, theta_valuation


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


# -- factors 1 - c*q^k ---------------------------------------------------------


def ref_mul(a, b, bound=None):
    """The product of two reference term maps below ``bound``, through
    ``poly_mul`` on the real and imaginary parts."""
    parts = [{e: c[j] for e, c in t.items() if c[j]} for t in (a, b) for j in (0, 1)]
    ar, ai, br, bi = parts
    out = {}
    for x, y, sign, j in ((ar, br, 1, 0), (ai, bi, -1, 0), (ar, bi, 1, 1), (ai, br, 1, 1)):
        for e, c in poly_mul(x, y, bound).items():
            r, i = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (r + sign * c, i) if j == 0 else (r, i + c)
    return {e: c for e, c in out.items() if c != (0, 0)}


def geometric_expansion(c, k, bound):
    """1/(1 - c*q^k) as a reference term map below ``bound``, c an (re, im)
    pair: c^j q^(jk), j >= 0, for k > 0; -c^(-j) q^(-jk), j >= 1, for k < 0
    (the expansion inside the unit disk); 1/(1 - c) for k = 0."""
    if k == 0:
        one_minus = (1 - c[0], -c[1])
        return {Fraction(0): gauss_pow(one_minus, -1)} if Fraction(0) < bound else {}
    out = {}
    j = 0 if k > 0 else 1
    while abs(k) * j < bound:
        r, i = gauss_pow(c, j if k > 0 else -j)
        out[abs(k) * j] = (r, i) if k > 0 else (-r, -i)
        j += 1
    return out


# -- the pairwise Appell-Lerch and universal-g loops -----------------------------
#
# appell_m and universal_g_eulerian as they were before they summed on one
# lattice: every summand's denominator of the bilateral sum, and every
# Pochhammer factor of g, is expanded by unit_fraction_expand, multiplied in
# and added pairwise, with the exponent bookkeeping in rationals.  They use
# the package's series engine and theta functions, and check the lattice
# passes that replaced them.


def _summand_exps(x, base, z, r):
    eb = base.exp
    return eb * (r * (r - 1)) / 2 + z.exp * r, eb * (r - 1) + x.exp + z.exp


def _least_exp(x, base, z, r):
    e, k = _summand_exps(x, base, z, r)
    return e - k if k < 0 else e


def bilateral_sum_pairwise(x, base, z, work):
    """sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z) below ``work``."""
    cb, cx, cz = base.coeff, x.coeff, z.coeff
    c = z.exp / base.exp
    v_limit_lo, v_limit_hi = -Fraction(1, 2) - c, Fraction(5, 2) - c
    total = QSeries.zero(work)

    def summand(r):
        e, k = _summand_exps(x, base, z, r)
        c = (cb ** (r * (r - 1) // 2)) * (cz ** r)
        if r & 1:
            c = -c
        try:
            expand = unit_fraction_expand(cb ** (r - 1) * cx * cz, k, work - e)
        except PoleAtOne:
            raise DegenerateZ(f"x*z hits an integral power of the base at bilateral index r={r}")
        return expand.mul_monomial(QMonomial(c, e))

    r = 0
    while _least_exp(x, base, z, r) < work or r <= v_limit_hi:
        if _least_exp(x, base, z, r) < work:
            total = total + summand(r)
        r += 1
    r = -1
    while _least_exp(x, base, z, r) < work or r >= v_limit_lo:
        if _least_exp(x, base, z, r) < work:
            total = total + summand(r)
        r -= 1
    return total.truncate(work)


def appell_m_pairwise(x, base, z, order):
    """m(x, b, z) below ``order`` through ``bilateral_sum_pairwise``."""
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise ValueError(f"Appell-Lerch base must have positive exponent, got {base}")
    for m in (z, x * z):
        k = m.exp / base.exp
        if k.denominator == 1 and m.coeff == base.coeff ** int(k):
            raise DegenerateZ(f"{m} is an integral power of the base {base}")
    d = theta_valuation(z, base)
    work = order + max(d, 0)
    total = bilateral_sum_pairwise(x, base, z, work)
    ls = total.low_degree()
    if ls is None:
        ls = work
    need = max(order + 2 * d - min(ls, 0), d + 1)
    result = total * jacobi_theta(z, base, need).invert()
    if result.precision is not None and result.precision < order:
        raise InsufficientPrecision("internal precision accounting failed in appell_m")
    return result.truncate(order)


def universal_g_pairwise(x, base, order):
    """g(x, b) = x^(-1) (-1 + sum_n b^(n^2) / ((x;b)_(n+1) (b/x;b)_n)) below
    ``order``, each Pochhammer factor expanded and multiplied in."""
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise ValueError(f"base must have positive exponent, got {base}")
    eb, cb = base.exp, base.coeff
    ex, cx = x.exp, x.coeff
    cx_inv = cx.inverse()
    work = order + max(ex, 0)

    def ufe(c, k):
        try:
            return unit_fraction_expand(c, k, work)
        except PoleAtOne:
            raise DegenerateX(f"Pochhammer factor of g({x}, {base}) vanishes")

    inv_den = ufe(cx, ex)
    total = QSeries.zero(work)
    n = 0
    while True:
        low = inv_den.low_degree()
        low = low if low is not None else 0
        future_positive = (ex + (n + 1) * eb > 0) and ((n + 1) * eb - ex > 0)
        if eb * n * n + low >= work and future_positive:
            break
        step = QMonomial(cb ** (n * n), eb * n * n)
        total = total + inv_den.mul_monomial(step).truncate(work)
        n += 1
        inv_den = inv_den * ufe(cx * cb ** n, ex + n * eb)
        inv_den = (inv_den * ufe(cx_inv * cb ** n, n * eb - ex)).truncate(work)
    return (total - 1).mul_monomial(x.inverse()).truncate(order)


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
