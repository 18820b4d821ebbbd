"""Small self-contained reference implementations used as test oracles.

Everything here but the pairwise Appell-Lerch and universal-g loops, the
three cross-check forms after them (the triple product, the quadrant sum
and g through m), the retry evaluator and the hand-coded block sums at the
end works on plain
{exponent: Fraction} dicts and stays deliberately independent of the
package's series engine, so agreement is a two-sided check.
"""

from fractions import Fraction
from math import gcd

from qmock import appell, catalog, dsl, hecke, theta
from qmock._rational import as_int, qrat, qsub, rat
from qmock.series import (
    DegenerateDenominator,
    DegenerateX,
    DegenerateZ,
    DivisibilityViolation,
    InsufficientPrecision,
    NonPositivePower,
    PoleAtOne,
    GaussianRational,
    QMonomial,
    QSeries,
    qpow,
)
from qmock.theta import as_base, jacobi_theta, theta_start


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


def pochhammer_pairwise(x_coeff, x_exp, base_exp, order):
    """(x; q^base)_inf below ``order`` for any exponent of x: the factors
    are multiplied in one at a time, the product truncated at the order
    once the factors' exponents are nonnegative, and a factor that starts
    at or past the order less the product's least exponent ends it."""
    out = poly_one()
    k = Fraction(x_exp)
    while out and k < order - min(out):
        factor = {Fraction(0): Fraction(1)}
        factor[k] = factor.get(k, 0) - Fraction(x_coeff)
        out = poly_mul(out, factor, bound=order if k >= 0 else None)
        k += base_exp
    return {e: c for e, c in out.items() if e < order}


def bilateral_theta(x_coeff, x_exp, base_exp, order, span=200, base_coeff=1):
    """j(x_coeff*q^x_exp; base_coeff*q^base_exp) by brute bilateral summation
    over a wide window.  A coefficient is a rational or an (re, im) pair of
    them; the map's values are pairs when either coefficient is one."""
    pairs = isinstance(x_coeff, tuple) or isinstance(base_coeff, tuple)
    cx, cb = ((Fraction(c[0]), Fraction(c[1])) if isinstance(c, tuple) else (Fraction(c), Fraction(0))
              for c in (x_coeff, base_coeff))
    out = {}
    for n in range(-span, span + 1):
        e = Fraction(base_exp) * n * (n - 1) / 2 + Fraction(x_exp) * n
        if e >= order:
            continue
        r, i = gauss_mul(gauss_pow(cx, n), gauss_pow(cb, n * (n - 1) // 2))
        if n & 1:
            r, i = -r, -i
        r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (r0 + r, i0 + i)
    out = {e: c for e, c in out.items() if c != (0, 0)}
    return out if pairs else {e: r for e, (r, _) in out.items()}


def unit_fraction_expand(c, k, order):
    """1/(1 - c*q^k) below ``order``, term by term: the constant 1 for
    c = 0, the geometric series for k > 0, the constant 1/(1 - c) for
    k = 0, and for k < 0 the rewrite -q^(-k)/c / (1 - q^(-k)/c) expanded
    geometrically, the ascending-power expansion inside the unit disk."""
    c = c if isinstance(c, GaussianRational) else GaussianRational(c)
    k, order = rat(k), rat(order)
    if not c:
        return QSeries.one(order)
    if not k:
        if c == 1:
            raise PoleAtOne("1/(1 - q^0) is excluded: argument hit a power of q")
        return QSeries.constant((1 - c).inverse(), order)
    # lead * c^n at the exponents first + k*n, n >= 0
    term, first = GaussianRational(1), Fraction(0)
    if k < 0:
        c, k = c.inverse(), -k
        term, first = -c, k
    terms = {}
    while first < order:
        terms[first] = term
        term, first = term * c, first + k
    return QSeries(terms, order)


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


def rescaled_recurrence(a, b):
    """(q, D) with q_i*u = a_i*D - sum_j b_j*q_(i-j) for integer vectors a
    and b, u = b[0] > 0: where u does not divide a slot, D, the quotient so
    far and the rest of a are multiplied by u/gcd(u, t), one slot at a
    time over every tap."""
    a, q, u, D = list(a), [], b[0], 1
    for i in range(len(a)):
        t = a[i] - sum(b[j] * q[i - j] for j in range(1, min(i, len(b) - 1) + 1))
        g = u // gcd(t, u)
        q, a[i + 1:] = [g * x for x in q], [g * x for x in a[i + 1:]]
        D *= g
        q.append(t * g // u)
    return q, D


def quotient_slots(ar, ai, br, bi, n):
    """The first n slots of (ar + ai*i)/(br + bi*i) as (re, im) pairs of
    Fractions, by long division, for a divisor with a nonzero lead."""
    ai, bi = ai or [0] * len(ar), bi or [0] * len(br)
    a = [(Fraction(x), Fraction(y)) for x, y in zip(ar, ai)] + [(Fraction(0), Fraction(0))] * n
    norm = br[0] * br[0] + bi[0] * bi[0]
    q = []
    for i in range(n):
        tr, ti = a[i]
        for j in range(1, min(i, len(br) - 1) + 1):
            sr, si = q[i - j]
            tr, ti = tr - br[j] * sr + bi[j] * si, ti - br[j] * si - bi[j] * sr
        q.append(((tr * br[0] + ti * bi[0]) / norm, (ti * br[0] - tr * bi[0]) / norm))
    return q


def reduced_by_gcd(re, im, den):
    """Numerators and denominator over their greatest common divisor."""
    g = gcd(den, *re, *(im or ()))
    return [x // g for x in re], None if im is None else [x // g for x in im], den // g


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


# -- the Eulerian catalog series, term by term -------------------------------------
#
# name -> (first n, exponent of term n, c, k0, step, length(n), divide): term n
# is q^exponent(n) divided by, or if not divide multiplied by, the product
# (c*q^k0; q^step)_length(n).

CATALOG_SERIES = {
    "psi": (1, lambda n: n * n, 1, 1, 2, lambda n: n, True),
    "nu": (0, lambda n: n * (n + 1), -1, 1, 2, lambda n: n + 1, True),
    "phi": (0, lambda n: n * n, -1, 2, 2, lambda n: n, True),
    "psibar0": (0, lambda n: 2 * n * n, -1, 1, 1, lambda n: 2 * n, True),
    "psibar1": (0, lambda n: 2 * n * n + 2 * n, -1, 1, 1, lambda n: 2 * n + 1, True),
    "phibar0": (0, lambda n: n, -1, 1, 1, lambda n: 2 * n + 1, False),
    "phibar1": (0, lambda n: n, -1, 1, 1, lambda n: 2 * n, False),
}


def catalog_pairwise(name, order):
    """The catalog series ``name`` below ``order``: each term's product
    multiplied out factor by factor, inverted by long division where it
    divides, and the terms added one at a time."""
    first, exponent, c, k0, step, length, divide = CATALOG_SERIES[name]
    out = {}
    n = first
    while exponent(n) < order:
        bound = order - exponent(n)
        prod = poly_one()
        for i in range(length(n)):
            prod = poly_mul(prod, {Fraction(0): Fraction(1), Fraction(k0 + i * step): -Fraction(c)},
                            bound=bound)
        if divide:
            prod = long_division_invert(prod, bound)
        for e, v in prod.items():
            if e < bound:
                out[e + exponent(n)] = out.get(e + exponent(n), Fraction(0)) + v
        n += 1
    return {e: v for e, v in out.items() if v}


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
    while n:
        if n & 1:
            out = gauss_mul(out, c)
        n >>= 1
        if n:
            c = gauss_mul(c, c)
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
    d = qrat(theta_start(z, base))
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


def appell_m_start(x, base, z):
    """A v, a pair, such that m(x, b, z) starts at q^v or later: where its
    bilateral sum starts less where j(z; b) starts, the two bounds the plan
    reads for the quotient that m expands to.  None when j(z; b)
    vanishes."""
    base = as_base(base)
    d = theta_start(z, base)
    return None if d is None else qsub(appell.bilateral_start(x, base, z), d)


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


# Three more cross-check forms built on the package's own functions: the
# theta function as its triple product, f_{a,b,c} summed over both quadrants
# of a bounded rectangle, and g through its two Appell-Lerch sums.


def jacobi_theta_product(x, base, order):
    """The triple-product form (x)_inf (b/x)_inf (b)_inf of j(x; b)."""
    base = as_base(base)
    order = rat(order)
    a1 = theta.pochhammer_infinite(x, base, order)
    a2 = theta.pochhammer_infinite(base * x.inverse(), base, order)
    a3 = theta.pochhammer_infinite(base, base, order)
    l1 = a1.low_degree() or 0
    l2 = a2.low_degree() or 0
    pad = -min(l1 + l2, 0)
    if pad > 0:
        work = order + pad
        a1 = theta.pochhammer_infinite(x, base, work)
        a2 = theta.pochhammer_infinite(base * x.inverse(), base, work)
        a3 = theta.pochhammer_infinite(base, base, work)
    return (a1 * a2 * a3).truncate(order)


def f_abc_via_quadrants(a, b, c, x, y, base, order):
    """f_{a,b,c}(x, y, b): bound |r| and |s| from the order, then sum the
    full rectangle in the opposite iteration order (columns outer)."""
    hecke._check_params(a, b, c)
    base = as_base(base)
    order = rat(order)
    eb, cb = base.exp, base.coeff
    ex, cx = x.exp, x.coeff
    ey, cy = y.exp, y.coeff

    def u_part(r):
        return eb * a * (r * (r - 1)) / 2 + ex * r

    def w_part(s):
        return eb * c * (s * (s - 1)) / 2 + ey * s

    def global_min(f, vertex):
        vf = vertex // 1
        return min(f(vf), f(vf + 1))

    u_min = global_min(u_part, Fraction(1, 2) - ex / (eb * a))
    w_min = global_min(w_part, Fraction(1, 2) - ey / (eb * c))

    def span(f, bound):
        lo = 0
        while f(lo - 1) < bound:
            lo -= 1
        hi = 0
        while f(hi + 1) < bound:
            hi += 1
        return lo, hi

    r_lo, r_hi = span(u_part, order - w_min)
    s_lo, s_hi = span(w_part, order - u_min)

    out = {}
    for s in range(s_lo, s_hi + 1):
        for r in range(r_lo, r_hi + 1):
            if (r >= 0) != (s >= 0):
                continue
            ie = a * (r * (r - 1)) // 2 + b * r * s + c * (s * (s - 1)) // 2
            e = eb * ie + ex * r + ey * s
            if e >= order:
                continue
            val = (cx ** r) * (cy ** s) * (cb ** ie)
            if (r + s) & 1:
                val = -val
            if r < 0:
                val = -val
            out[e] = out.get(e, 0) + val
    return QSeries(out, order)


def universal_g_via_m(x, base, order):
    """g via its two-term Appell-Lerch representation
    g(x,b) = -x^(-1) m(b^2 x^(-3), b^3, x^2) - x^(-2) m(b x^(-3), b^3, x^2).
    """
    base = as_base(base)
    order = rat(order)
    x3 = x ** (-3)
    b3 = base ** 3
    z = x ** 2
    ex = x.exp
    t1 = appell.appell_m((base ** 2) * x3, b3, z, order + max(ex, 0))
    t2 = appell.appell_m(base * x3, b3, z, order + max(2 * ex, 0))
    out = t1.mul_monomial(-(x ** (-1))) + t2.mul_monomial(-(x ** (-2)))
    return out.truncate(order)


def eulerian_sum_stepwise(weight, factors, order, divide=True):
    """sum_n weight(n) * P_n below ``order`` as ``series.eulerian_terms``
    defines it, forming every P_n, the one of the term that stops the sum
    included, with each factor 1 - m expanded and multiplied in."""
    order = rat(order)
    prod = QSeries.one()
    total = QSeries.zero(order)
    n = 0
    while True:
        for m in factors(n):
            if divide:
                prod = (prod * unit_fraction_expand(m.coeff, m.exp, order)).truncate(order)
            elif m.exp:
                prod = prod.truncate(order) * QSeries({0: 1, m.exp: -m.coeff})
            else:
                prod = prod.truncate(order) * QSeries.constant(1 - m.coeff)
        low = prod.low_degree()
        if weight(n).exp + (low if low is not None else 0) >= order \
                and all(m.exp > 0 for m in factors(n + 1)):
            return total
        total = total + prod.mul_monomial(weight(n))
        n += 1


# -- the retry evaluator ---------------------------------------------------------
#
# The DSL's evaluator before it planned its working orders: every node is
# evaluated at one global working order, a divisor that is zero to its
# precision is evaluated again at 2w + 1 (three times at most), and a result
# short of the order is thrown away and the whole expression evaluated again
# at the order inflated by the shortfall plus one, four passes at most.  It
# uses the package's series engine and special functions, and the
# hand-coded block sums below, and checks only the planning of the
# evaluator that replaced it.


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
        k = rat(*dsl._fold_rational(args[1]))    # a (num, den) pair
        if k <= 0:
            raise NonPositivePower(f"subq power must be positive, got {k}")
        return _retry_eval(args[0], w / k).substitute_power(k)
    if name == "negq":
        return _retry_eval(args[0], w).negate_base()
    values = [dsl._FOLD[kind](arg) for kind, arg in zip(dsl.FUNCTIONS[name][0], args)]
    if name in BLOCKS:
        return BLOCKS[name](*values, w)
    return _ENGINES[name](*values, w)


def _catalog_at(name):
    return lambda u, w: catalog.CATALOG[name].eulerian(w / u.exp).substitute_monomial(u)


# the retry evaluator's own map from a DSL name to the function it calls
# with the folded arguments and the working order, blocks, subq and negq
# aside
_ENGINES = {
    "poch_inf": theta.pochhammer_infinite,
    "poch_fin": theta.pochhammer_finite,
    "j": jacobi_theta,
    "J": theta.J,
    "JB": theta.Jbar,
    "Jm": theta.Jm,
    "m": appell_m_pairwise,
    "f": hecke.f_abc,
    "g": appell.universal_g_eulerian,
    **{name: _catalog_at(name) for name in catalog.CATALOG},
}


# -- the hand-coded block sums -------------------------------------------------
#
# g_abc, h_abc, theta_np, theta_abc and msplit_rhs as they were before they
# became DSL templates: each builds its theta-times-m or theta-quotient sum
# at a hand-kept working order and runs it through the retry loop
# appell.eval_with_retry.  They use the package's series engine, theta
# functions and Appell-Lerch sums, and check the planning of the templates
# that replaced them.


def binom2(t):
    """t*(t-1)/2 for a rational t."""
    return t * (t - 1) / 2


def _jm(m, base, order):
    """J_m at the base: j(b^m; b^(3m))."""
    return jacobi_theta(base ** m, base ** (3 * m), order)


def _theta_or_degenerate(x, base, order, exc=DegenerateZ):
    s = jacobi_theta(x, base, order)
    if s.is_zero():
        raise exc(f"theta function j({x}; {base}) vanishes to precision {order}")
    return s


def g_abc(a, b, c, x, y, base, z1, z0, order):
    base = as_base(base)
    order = rat(order)
    if b * b <= a * c:
        raise ValueError(f"need b^2 > a*c for positive Appell-Lerch bases, got {(a, b, c)}")
    D = b * b - a * c

    def build(work):
        total = QSeries.zero(work)
        for first in (True, False):
            aa, cc = (a, c) if first else (c, a)
            u, v = (x, y) if first else (y, x)
            zz = z0 if first else z1
            m_base = base ** (aa * D)
            for t in range(aa):
                shift = (-v) ** t * base ** (cc * (t * (t - 1)) // 2)
                theta_part = jacobi_theta((base ** (b * t)) * u, base ** aa, work - min(shift.exp, 0))
                m_exp = aa * binom2(rat(b + 1)) - cc * binom2(rat(aa + 1)) - t * D
                m_arg = -(base ** as_int(m_exp)) * ((-v) ** aa) * ((-u) ** (-b))
                m_part = appell.appell_m(m_arg, m_base, zz, work - min(shift.exp, 0))
                total = total + (theta_part * m_part).mul_monomial(shift).truncate(work)
        return total

    return appell.eval_with_retry(build, order)


def h_abc(a, b, c, x, y, base, z1, z0, order):
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    base = as_base(base)
    order = rat(order)
    ba, bc = b // a, b // c
    d1 = b * b // a - c
    d2 = b * b // c - a
    if d1 <= 0 or d2 <= 0:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")

    def build(work):
        e1 = a * binom2(rat(ba + 1)) - c
        arg1 = -(base ** as_int(e1)) * (-y) * ((-x) ** (-ba))
        t1 = jacobi_theta(x, base ** a, work) * appell.appell_m(arg1, base ** d1, z1, work)
        e2 = c * binom2(rat(bc + 1)) - a
        arg2 = -(base ** as_int(e2)) * (-x) * ((-y) ** (-bc))
        t2 = jacobi_theta(y, base ** c, work) * appell.appell_m(arg2, base ** d2, z0, work)
        return t1 + t2

    return appell.eval_with_retry(build, order)


def theta_np(n, p, x, y, base, order):
    if gcd(n, p) != 1:
        raise ValueError(f"need gcd(n, p) = 1, got {(n, p)}")
    base = as_base(base)
    order = rat(order)
    fr = rat(n - 1, 2) % 1
    half_n_minus = rat(n - 1, 2)
    half_n_plus = rat(n + 1, 2)
    N_big = p * p * (2 * n + p)
    N_bar = n * p * (2 * n + p)
    N_mid = n * p * p

    def build(work):
        j_big3 = _jm(N_big, base, work) ** 3
        jbar0 = _theta_or_degenerate(-(base ** 0), base ** N_bar, work, exc=DegenerateDenominator)
        total = QSeries.zero(work)
        for rs in range(p):
            for ss in range(p):
                r = rs + fr
                s = ss + fr
                A = r - half_n_minus
                B = s + half_n_plus
                Ai, Bi = as_int(A), as_int(B)
                q_exp = n * binom2(A) + (n + p) * A * B + n * binom2(B)
                lead = (base ** q_exp) * ((-x) ** Ai) * ((-y) ** Bi)
                j1 = jacobi_theta(
                    -(base ** (n * p * (ss - rs))) * (x ** n) * (y ** (-n)), base ** N_mid, work)
                j2 = jacobi_theta(
                    (base ** (p * (2 * n + p) * (r + s) + p * (n + p))) * (x ** p) * (y ** p),
                    base ** N_big, work)
                den1 = jacobi_theta(
                    (base ** (p * (2 * n + p) * r + rat(p * (n + p), 2)))
                    * ((-y) ** (n + p)) * ((-x) ** (-n)),
                    base ** N_big, work)
                den2 = jacobi_theta(
                    (base ** (p * (2 * n + p) * s + rat(p * (n + p), 2)))
                    * ((-x) ** (n + p)) * ((-y) ** (-n)),
                    base ** N_big, work)
                den = den1 * den2
                if den.is_zero():
                    raise DegenerateDenominator(f"theta denominator vanished at block ({rs},{ss})")
                term = (j1 * j2 * den.invert()).mul_monomial(lead)
                total = total + term.truncate(work)
        return ((total * j_big3) * jbar0.invert()).truncate(work)

    return appell.eval_with_retry(build, order)


def theta_abc(a, b, c, x, y, base, order):
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    if a * c >= b * b:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")
    base = as_base(base)
    order = rat(order)
    ba, bc = b // a, b // c
    d1 = rat(b * b, a) - c
    d2 = rat(b * b, c) - a
    ratio = rat(b * b, a * c) - 1
    M = b * ratio
    base_mid = rat(b * b, a) * ratio
    off_mid = rat(b ** 3 * (b - a), 2 * a * a * c)
    cb1 = c * binom2(rat(bc))
    cb2 = a * binom2(rat(ba))

    def build(work):
        jM3 = _jm(M, base, work) ** 3
        total = QSeries.zero(work)
        for d in range(bc):
            for e in range(ba):
                for f in range(ba):
                    q_exp = d1 * binom2(rat(d + 1)) + d2 * binom2(rat(e + f + 1)) + a * binom2(rat(f))
                    lead = (base ** q_exp) * ((-x) ** f)
                    j1 = jacobi_theta(
                        (base ** (d1 * (d + 1) + b * f)) * y, base ** rat(b * b, a), work)
                    j2 = jacobi_theta(
                        (base ** (M * (e + f + 1) - d1 * (d + 1) + off_mid))
                        * ((-x) ** ba) * (y ** (-1)),
                        base ** base_mid, work)
                    j3 = jacobi_theta(
                        (base ** (d2 * (e + 1) + d1 * (d + 1) - cb1 - cb2))
                        * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)),
                        base ** M, work)
                    den1 = jacobi_theta(
                        (base ** (d2 * (e + 1) - cb1)) * (-x) * ((-y) ** (-bc)), base ** M, work)
                    den2 = jacobi_theta(
                        (base ** (d1 * (d + 1) - cb2)) * ((-x) ** (-ba)) * (-y), base ** M, work)
                    den = den1 * den2
                    if den.is_zero():
                        raise DegenerateDenominator(
                            f"theta denominator vanished at block ({d},{e},{f})")
                    term = (j1 * j2 * j3 * den.invert()).mul_monomial(lead)
                    total = total + term.truncate(work)
        return (total * jM3).truncate(work)

    return appell.eval_with_retry(build, order)


def msplit_rhs(n, x, base, z, zp, order):
    if n < 1:
        raise ValueError(f"split order must be positive, got {n}")
    base = as_base(base)
    order = rat(order)
    bn = base ** (n * (n - 1) // 2)
    base_n2 = base ** (n * n)

    def build(work):
        total = QSeries.zero(work)
        for r in range(n):
            shift = (base ** (-as_int(binom2(rat(r + 1))))) * ((-x) ** r)
            m_arg = -bn * (base ** (-n * r)) * ((-x) ** n)
            part = appell.appell_m(m_arg, base_n2, zp, work - min(shift.exp, 0))
            total = total + part.mul_monomial(shift).truncate(work)
        jn3 = _jm(n, base, work) ** 3
        jxz = _theta_or_degenerate(x * z, base, work, exc=DegenerateDenominator)
        jzp = _theta_or_degenerate(zp, base_n2, work, exc=DegenerateDenominator)
        corr = QSeries.zero(work)
        for r in range(n):
            lead = (base ** as_int(binom2(rat(r)))) * ((-(x * z)) ** r)
            j1 = jacobi_theta(-bn * (base ** r) * ((-x) ** n) * z * zp, base ** n, work)
            j2 = jacobi_theta((base ** (n * r)) * (z ** n) * zp.inverse(), base_n2, work)
            den1 = jacobi_theta(-bn * ((-x) ** n) * zp, base ** n, work)
            den2 = jacobi_theta((base ** r) * z, base ** n, work)
            den = den1 * den2
            if den.is_zero():
                raise DegenerateDenominator(f"split correction denominator vanished at r={r}")
            corr = corr + (j1 * j2 * den.invert()).mul_monomial(lead).truncate(work)
        corr = corr * jn3 * (jxz * jzp).invert()
        return total + corr.mul_monomial(zp).truncate(work)

    return appell.eval_with_retry(build, order)


BLOCKS = {
    "g_abc": g_abc,
    "h_abc": h_abc,
    "theta_np": theta_np,
    "theta_abc": theta_abc,
    "msplit_rhs": msplit_rhs,
}


# -- monomials and precisions in the ground types ---------------------------------
#
# The engine keeps exponents and precisions as integer pairs and monomials
# as integer triples and pairs; these references redo the same operations
# on a coefficient (re, im) of Fractions and a Fraction exponent.


def ref_monomial_mul(a, b):
    """(c, e) * (c', e') for coefficient pairs c, c' and Fractions e, e'."""
    return gauss_mul(a[0], b[0]), a[1] + b[1]


def ref_monomial_pow(a, k):
    return gauss_pow(a[0], k), a[1] * k


def ref_product_precision(pa, la, pb, lb):
    """min(pa + lb, pb + la) on Fractions, None for unbounded."""
    p = None if pa is None or lb is None else pa + lb
    return p if pb is None or la is None else _ref_pmin(p, pb + la)


def ref_target(w, other, own):
    """The working order of a factor: w less the other factor's start, at
    least the factor's own bound."""
    t = w if other is None else w - other
    return t if own is None else max(t, own)
