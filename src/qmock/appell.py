"""Appell-Lerch sums, the universal mock theta function, and the structured
theta-times-m correction expressions.

The level-one Appell-Lerch sum

    m(x, b, z) = 1/j(z;b) * sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z)

is evaluated by expanding each denominator geometrically and bounding the
bilateral r-range exactly: the summand's least possible exponent grows
quadratically in |r|, including the most-negative contribution of the
expanded denominator, so the truncation is provably conservative.  The
exponents are integers on one grid, and every summand's geometric run is
written into one lattice.  The universal mock theta function g divides by
its Pochhammer factors one lattice pass each, never expanding them.
"""

from __future__ import annotations

from math import gcd

from ._rational import RAT, rat, is_integer, as_int
from .series import (
    DegenerateDenominator,
    DegenerateX,
    DegenerateZ,
    DivisibilityViolation,
    GaussianRational,
    InsufficientPrecision,
    PoleAtOne,
    QMonomial,
    QSeries,
    as_triple,
    exponent_grid,
    geometric_runs,
    sum_series,
    triple_mul,
    triple_pow,
)
from .theta import Jm, as_base, jacobi_theta, theta_valuation

__all__ = [
    "appell_m",
    "appell_m_valuation",
    "universal_g_eulerian",
    "universal_g_valuation",
    "universal_g_via_m",
    "g_abc",
    "h_abc",
    "theta_np",
    "theta_abc",
    "msplit_rhs",
    "eval_with_retry",
]

_R0 = RAT(0)
_GR_M1 = GaussianRational(-1)
_MINUS_ONE = QMonomial(_GR_M1, _R0)


def eval_with_retry(build, order):
    """Run ``build(working_order)`` until the result precision reaches ``order``,
    retrying at most three times before ``InsufficientPrecision``.

    Division by series with nonzero leading exponents consumes precision by a
    structural, order-independent amount, so the shortfall of one pass is the
    inflation needed for the next.  The block functions below use this loop;
    ``dsl.evaluate`` plans its working orders instead and makes one pass.
    """
    order = rat(order)
    work = order
    for _ in range(4):
        out = build(work)
        if out.precision is None or out.precision >= order:
            return out.truncate(order)
        work = work + (order - out.precision) + 1
    raise InsufficientPrecision(
        f"could not reach precision {order} after 3 retries"
    )


def binom2(t):
    """t*(t-1)/2 for a rational t."""
    return t * (t - 1) / 2


def _is_base_power(m, base):
    """True when m equals an integral power of the base monomial."""
    k = m.exp / base.exp
    if not is_integer(k):
        return False
    return m.coeff == base.coeff ** as_int(k)


def _theta_or_degenerate(x, base, order, exc=DegenerateZ):
    s = jacobi_theta(x, base, order)
    if s.is_zero():
        raise exc(f"theta function j({x}; {base}) vanishes to precision {order}")
    return s


def appell_m(x, base, z, order):
    """The Appell-Lerch sum m(x, b, z), truncated below ``order``.

    Neither z nor x*z may be an integral power of the base.
    """
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise ValueError(f"Appell-Lerch base must have positive exponent, got {base}")
    if _is_base_power(z, base):
        raise DegenerateZ(f"z = {z} is an integral power of the base {base}")
    if _is_base_power(x * z, base):
        raise DegenerateZ(f"x*z = {x * z} is an integral power of the base {base}")

    # z is structurally generic, so j(z; b) is nonzero from q^d on
    d = theta_valuation(z, base)

    work = order + max(d, _R0)
    total = _bilateral_sum(x, base, z, work)

    ls = total.low_degree()
    if ls is None:
        ls = work
    need = order + 2 * d - min(ls, _R0)
    need = max(need, d + 1)
    result = total * jacobi_theta(z, base, need).invert()
    if result.precision is not None and result.precision < order:
        raise InsufficientPrecision("internal precision accounting failed in appell_m")
    return result.truncate(order)


def _summand_exps(B, X, Z, r):
    """(E, K): summand r of the bilateral sum is c*q^(E/L) / (1 - c'*q^(K/L))."""
    return B * (r * (r - 1) // 2) + Z * r, B * (r - 1) + X + Z


def _least_exp(B, X, Z, r):
    """L times the least exponent of summand r once its denominator is
    expanded."""
    e, k = _summand_exps(B, X, Z, r)
    return e - k if k < 0 else e


def _vertex_limits(B, Z):
    """(lo, hi): the least exponent of summand r increases as r goes up
    from hi or down from lo, where 2*B*lo = -B - 2*Z and 2*B*hi = 5*B - 2*Z;
    returned as 2*B*lo and 2*B*hi."""
    return -B - 2 * Z, 5 * B - 2 * Z


def appell_m_valuation(x, base, z):
    """A v such that m(x, b, z) starts at q^v or later: the least exponent
    of the bilateral sum's summands less the exponent where j(z; b) starts.
    None when j(z; b) vanishes."""
    base = as_base(base)
    d = theta_valuation(z, base)
    if d is None:
        return None
    L, B, X, Z = exponent_grid(base, x, z)
    lo, hi = _vertex_limits(B, Z)
    r_range = range(lo // (2 * B), -(-hi // (2 * B)) + 1)
    return RAT(min(_least_exp(B, X, Z, r) for r in r_range), L) - d


def _bilateral_sum(x, base, z, work):
    """sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z) below ``work``.

    Summand r is a geometric run: c*c'^j at the exponents E + j*K for
    K > 0, -c*c'^(-j-1) at E - (j+1)*K for K < 0 (the expansion inside the
    unit disk), one term c/(1 - c') for K = 0.  All runs of the summands
    that reach below ``work`` go into one lattice."""
    L, B, X, Z = exponent_grid(base, x, z)
    top, wd = int(work.numerator) * L, int(work.denominator)
    cb, cx, cz = as_triple(base.coeff), as_triple(x.coeff), as_triple(z.coeff)
    cxz = triple_mul(cx, cz)
    lo, hi = _vertex_limits(B, Z)
    runs = []
    for r, direction, limit in ((0, 1, hi), (-1, -1, -lo)):
        while True:
            below = _least_exp(B, X, Z, r) * wd < top
            if not below and 2 * B * r * direction > limit:
                break
            if below:
                runs.append(_summand_run(B, X, Z, r, cb, cz, cxz))
            r += direction
    return geometric_runs(L, runs, work)


def _summand_run(B, X, Z, r, cb, cz, cxz):
    """Summand r of the bilateral sum as a run (x, s, lead, ratio) of
    ``geometric_runs``."""
    e, k = _summand_exps(B, X, Z, r)
    binom = r * (r - 1) // 2
    lr, li, ld = triple_mul(triple_pow(cb, binom), triple_pow(cz, r))
    lead = (-lr, -li, ld) if r & 1 else (lr, li, ld)
    ratio = triple_mul(triple_pow(cb, r - 1), cxz)
    if k > 0:
        return e, k, lead, ratio
    if k < 0:
        inv = triple_pow(ratio, -1)
        lr, li, ld = triple_mul(lead, inv)
        return e - k, -k, (-lr, -li, ld), inv
    cr, ci, cd = ratio
    if cr == cd and not ci:
        raise DegenerateZ(f"x*z hits an integral power of the base at bilateral index r={r}")
    return e, 1, triple_mul(lead, triple_pow((cd - cr, -ci, cd), -1)), (0, 0, 1)


def universal_g_valuation(x, base):
    """A v such that g(x, b) starts at q^v or later.

    In x^(-1) (-1 + sum_n b^(n^2) / ((x;b)_(n+1) (b/x;b)_n)), the n = 0 term
    less 1 is x/(1 - x), and each later term starts no lower than the n = 1
    term: a factor 1/(1 - c*q^k) starts at q^max(0, -k)."""
    base = as_base(base)
    eb, ex = base.exp, x.exp
    first = max(ex, _R0)
    later = eb + max(_R0, -ex) + max(_R0, -ex - eb) + max(_R0, ex - eb)
    return min(first, later) - ex


def universal_g_eulerian(x, base, order):
    """g(x, b) = x^(-1) (-1 + sum_n b^(n^2) / ((x;b)_(n+1) (b/x;b)_n)),

    computed with incrementally extended inverse Pochhammer denominators:
    each step divides by its two factors 1 - x*b^n and 1 - b^n/x, one
    lattice pass each (``QSeries.over_one_minus``), and the terms are
    summed once at the end.
    """
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise ValueError(f"base must have positive exponent, got {base}")
    eb, cb = base.exp, base.coeff
    ex, cx = x.exp, x.coeff
    cx_inv = cx.inverse()
    work = order + max(ex, _R0)

    def over(s, c, k):
        try:
            return s.over_one_minus(QMonomial(c, k), work)
        except PoleAtOne:
            raise DegenerateX(f"Pochhammer factor of g({x}, {base}) vanishes")

    inv_den = over(QSeries.one(), cx, ex)  # 1 / (1 - x)
    terms = []
    n = 0
    while True:
        low = inv_den.low_degree()
        low = low if low is not None else _R0
        future_positive = (ex + (n + 1) * eb > 0) and ((n + 1) * eb - ex > 0)
        if eb * n * n + low >= work and future_positive:
            break
        terms.append(inv_den.mul_monomial(QMonomial(cb ** (n * n), eb * n * n)))
        n += 1
        inv_den = over(over(inv_den, cx * cb ** n, ex + n * eb), cx_inv * cb ** n, n * eb - ex)
    g = (sum_series(terms, work) - 1).mul_monomial(x.inverse())
    return g.truncate(order)


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
    t1 = appell_m((base ** 2) * x3, b3, z, order + max(ex, _R0))
    t2 = appell_m(base * x3, b3, z, order + max(2 * ex, _R0))
    out = t1.mul_monomial(-(x ** (-1))) + t2.mul_monomial(-(x ** (-2)))
    return out.truncate(order)


def g_abc(a, b, c, x, y, base, z1, z0, order):
    """The double sum of theta-times-m products attached to f_{a,b,c}."""
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
                theta_part = jacobi_theta((base ** (b * t)) * u, base ** aa, work - min(shift.exp, _R0))
                m_exp = aa * binom2(rat(b + 1)) - cc * binom2(rat(aa + 1)) - t * D
                m_arg = -(base ** as_int(m_exp)) * ((-v) ** aa) * ((-u) ** (-b))
                m_part = appell_m(m_arg, m_base, zz, work - min(shift.exp, _R0))
                total = total + (theta_part * m_part).mul_monomial(shift).truncate(work)
        return total

    return eval_with_retry(build, order)


def h_abc(a, b, c, x, y, base, z1, z0, order):
    """The two-term theta-times-m combination for b divisible by a and c."""
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
        t1 = jacobi_theta(x, base ** a, work) * appell_m(arg1, base ** d1, z1, work)
        e2 = c * binom2(rat(bc + 1)) - a
        arg2 = -(base ** as_int(e2)) * (-x) * ((-y) ** (-bc))
        t2 = jacobi_theta(y, base ** c, work) * appell_m(arg2, base ** d2, z0, work)
        return t1 + t2

    return eval_with_retry(build, order)


def theta_np(n, p, x, y, base, order):
    """The p-by-p block of theta quotients completing f_{n,n+p,n}."""
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
        j_big3 = Jm(N_big, work, base=base) ** 3
        jbar0 = _theta_or_degenerate(
            _MINUS_ONE * (base ** 0), base ** N_bar, work, exc=DegenerateDenominator
        )
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
                    -(base ** (n * p * (ss - rs))) * (x ** n) * (y ** (-n)),
                    base ** N_mid,
                    work,
                )
                j2 = jacobi_theta(
                    (base ** (p * (2 * n + p) * (r + s) + p * (n + p))) * (x ** p) * (y ** p),
                    base ** N_big,
                    work,
                )
                den1 = jacobi_theta(
                    (base ** (p * (2 * n + p) * r + rat(p * (n + p), 2)))
                    * ((-y) ** (n + p)) * ((-x) ** (-n)),
                    base ** N_big,
                    work,
                )
                den2 = jacobi_theta(
                    (base ** (p * (2 * n + p) * s + rat(p * (n + p), 2)))
                    * ((-x) ** (n + p)) * ((-y) ** (-n)),
                    base ** N_big,
                    work,
                )
                den = den1 * den2
                if den.is_zero():
                    raise DegenerateDenominator(
                        f"theta denominator vanished at block ({rs},{ss})"
                    )
                term = (j1 * j2 * den.invert()).mul_monomial(lead)
                total = total + term.truncate(work)
        return ((total * j_big3) * jbar0.invert()).truncate(work)

    return eval_with_retry(build, order)


def theta_abc(a, b, c, x, y, base, order):
    """The triple finite sum of theta quotients for b divisible by a and c."""
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    if a * c >= b * b:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")
    base = as_base(base)
    order = rat(order)
    ba, bc = b // a, b // c
    d1 = rat(b * b, a) - c
    d2 = rat(b * b, c) - a
    ratio = rat(b * b, a * c) - 1        # b^2/(ac) - 1
    M = b * ratio                        # modulus of the quotient thetas
    base_mid = rat(b * b, a) * ratio
    off_mid = rat(b ** 3 * (b - a), 2 * a * a * c)
    cb1 = c * binom2(rat(bc))
    cb2 = a * binom2(rat(ba))

    def build(work):
        jM3 = Jm(M, work, base=base) ** 3
        total = QSeries.zero(work)
        for d in range(bc):
            for e in range(ba):
                for f in range(ba):
                    q_exp = d1 * binom2(rat(d + 1)) + d2 * binom2(rat(e + f + 1)) + a * binom2(rat(f))
                    lead = (base ** q_exp) * ((-x) ** f)
                    j1 = jacobi_theta(
                        (base ** (d1 * (d + 1) + b * f)) * y,
                        base ** rat(b * b, a),
                        work,
                    )
                    j2 = jacobi_theta(
                        (base ** (M * (e + f + 1) - d1 * (d + 1) + off_mid))
                        * ((-x) ** ba) * (y ** (-1)),
                        base ** base_mid,
                        work,
                    )
                    j3 = jacobi_theta(
                        (base ** (d2 * (e + 1) + d1 * (d + 1) - cb1 - cb2))
                        * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)),
                        base ** M,
                        work,
                    )
                    den1 = jacobi_theta(
                        (base ** (d2 * (e + 1) - cb1)) * (-x) * ((-y) ** (-bc)),
                        base ** M,
                        work,
                    )
                    den2 = jacobi_theta(
                        (base ** (d1 * (d + 1) - cb2)) * ((-x) ** (-ba)) * (-y),
                        base ** M,
                        work,
                    )
                    den = den1 * den2
                    if den.is_zero():
                        raise DegenerateDenominator(
                            f"theta denominator vanished at block ({d},{e},{f})"
                        )
                    term = (j1 * j2 * j3 * den.invert()).mul_monomial(lead)
                    total = total + term.truncate(work)
        return (total * jM3).truncate(work)

    return eval_with_retry(build, order)


def msplit_rhs(n, x, base, z, zp, order):
    """The n-term split of m(x, b, z) into level-n^2 Appell-Lerch sums plus
    an n-term theta-quotient correction in an auxiliary generic z'."""
    if n < 1:
        raise ValueError(f"split order must be positive, got {n}")
    base = as_base(base)
    order = rat(order)
    bn = base ** (n * (n - 1) // 2)      # b^binom(n,2)
    base_n2 = base ** (n * n)

    def build(work):
        total = QSeries.zero(work)
        for r in range(n):
            shift = (base ** (-as_int(binom2(rat(r + 1))))) * ((-x) ** r)
            m_arg = -bn * (base ** (-n * r)) * ((-x) ** n)
            part = appell_m(m_arg, base_n2, zp, work - min(shift.exp, _R0))
            total = total + part.mul_monomial(shift).truncate(work)
        jn3 = Jm(n, work, base=base) ** 3
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

    return eval_with_retry(build, order)
