"""Pochhammer products and the theta function j with its named specializations.

The base of every function here is a monomial b = c*q^e with e > 0, so that
specializations such as q -> q^8 or q -> -q^3 are uniform: powers of the base
twist the coefficient by c^k and scale the exponent by e*k.

The finite and the infinite Pochhammer products come from one loop that
multiplies in their factors 1 - c*q^k, one shifted add each on one running
lattice.  j is computed from its bilateral sum (quadratic exponent growth
gives O(sqrt(order)) terms), written term by term into one lattice vector;
the triple-product form is kept as an independent cross-check.
"""

from __future__ import annotations

from math import gcd, lcm

from ._rational import RAT, rat
from .series import (
    DivergentProduct,
    GR_ONE,
    QMonomial,
    QSeries,
    as_triple,
    exponent_grid,
    vector_series,
    qpow,
    triple_mul,
    triple_pow,
    _slots,
)

__all__ = [
    "as_base",
    "pochhammer_finite",
    "pochhammer_infinite",
    "jacobi_theta",
    "theta_valuation",
    "J",
    "Jbar",
    "Jm",
]

_R0 = RAT(0)


def as_base(b):
    """Coerce a rational e (meaning q^e) or a monomial to a base monomial."""
    if isinstance(b, QMonomial):
        return b
    return qpow(rat(b))


def _product(factors, order):
    """The product of 1 - m over the monomials ``factors``: exact for
    ``order`` None, else formed below the order raised by the factors'
    negative exponents, which is what they erode, and truncated to it."""
    if order is None:
        out = QSeries.one()
    else:
        out = QSeries.one(order - sum([m.exp for m in factors if m.exp < 0], _R0))
    out = out.times_one_minus(*factors)
    return out if order is None else out.truncate(order)


def pochhammer_finite(x, base, n, order=None):
    """(x; b)_n: the exact finite product of (1 - x*b^i), i < n.

    With ``order`` given the product is truncated there; otherwise it is an
    exact Laurent polynomial.
    """
    if n < 0:
        raise ValueError(f"pochhammer length must be nonnegative, got {n}")
    base = as_base(base)
    return _product([x * base ** i for i in range(n)], None if order is None else rat(order))


def pochhammer_infinite(x, base, order):
    """(x; b)_inf truncated below ``order``.  The factors with negative
    exponents lower the product's start by their sum, so the factors from
    the order raised by that sum on are 1 there."""
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise DivergentProduct(
            f"infinite product needs a base with positive exponent, got {base}"
        )
    top, e = order, x.exp
    while e < 0:
        top -= e
        e += base.exp
    factors, f = [], x
    while f.exp < top:
        factors.append(f)
        f = f * base
    return _product(factors, order)


def theta_valuation(x, base):
    """The exponent where j(x; b) starts; None when x is an integral power of
    b, where j(x; b) vanishes.

    Term n of the bilateral sum lies at E(n)/L (see ``jacobi_theta``), least
    at n = floor(1/2 - X/B) or at the n after it.  When the two tie,
    X = -n*B, and their coefficients cancel only for x = b^-n."""
    base = as_base(base)
    if base.exp <= 0:
        raise DivergentProduct(
            f"theta sum needs a base with positive exponent, got {base}"
        )
    L, B, X = exponent_grid(base, x)
    n = (B - 2 * X) // (2 * B)
    e0, e1 = B * (n * (n - 1) // 2) + X * n, B * (n * (n + 1) // 2) + X * (n + 1)
    if e0 == e1 and x.coeff * base.coeff ** n == GR_ONE:
        return None
    return RAT(min(e0, e1), L)


def jacobi_theta(x, base, order):
    """j(x; b) as the bilateral sum of (-1)^n b^binom(n,2) x^n below ``order``.

    Term n sits at the exponent E(n)/L, E(n) = B*binom(n, 2) + X*n, and
    the terms below the order are the n of one interval around the vertex
    of E.  Each coefficient is its neighbour's times -x*b^n going up, or
    -b^(1-n)/x going down, walking away from the n of that interval
    nearest 0, so every power of b's coefficient is a positive one; for x
    and b's coefficients 1 or -1 each coefficient is a sign.  The terms are
    written into one lattice vector of step gcd(B, X)."""
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise DivergentProduct(
            f"theta sum needs a base with positive exponent, got {base}"
        )
    L, B, X = exponent_grid(base, x)
    # E(n) lies below the order when E(n) < top
    top = -((-int(order.numerator) * L) // int(order.denominator))
    # E(n + 1) = E(n) + B*n + X, and E is least at floor(1/2 - X/B) or at
    # the n after it
    low = (B - 2 * X) // (2 * B)
    e_low = B * (low * (low - 1) // 2) + X * low
    if B * low + X < 0:
        low, e_low = low + 1, e_low + B * low + X
    if e_low >= top:
        return QSeries.zero(order)
    # the terms below the order are the n of [first, last]
    first, last, e_first, e_last = low, low, e_low, e_low
    while e_last + B * last + X < top:
        e_last += B * last + X
        last += 1
    while e_first - B * (first - 1) - X < top:
        first -= 1
        e_first -= B * first + X
    h = gcd(B, X)
    Bh, Xh = B // h, X // h
    origin = e_low // h
    size = _slots((max(e_first, e_last) - e_low) // h + 1)
    cx, cb = as_triple(x.coeff), as_triple(base.coeff)
    if cx[1:] == cb[1:] == (0, 1) and abs(cx[0]) == abs(cb[0]) == 1:
        # term n is (-x)^n * b^binom(n, 2), a sign
        flip_n, flip_binom = int(cx[0] == 1), int(cb[0] == -1)
        re = [0] * size
        for n in range(first, last + 1):
            binom = n * (n - 1) // 2
            i = Bh * binom + Xh * n - origin
            if ((flip_n & n) ^ (flip_binom & binom)) & 1:
                re[i] -= 1
            else:
                re[i] += 1
        return vector_series(L, e_low, h, re, None, 1, order)
    start = min(max(first, 0), last)
    binom = start * (start - 1) // 2
    t = triple_mul(triple_pow(cx, start), triple_pow(cb, binom))
    t0 = (-t[0], -t[1], t[2]) if start & 1 else t
    terms = [(Bh * binom + Xh * start - origin, t0)]
    for ns, ratio in ((range(start + 1, last + 1), triple_mul(cx, triple_pow(cb, start))),
                      (range(start - 1, first - 1, -1),
                       triple_mul(triple_pow(cx, -1), triple_pow(cb, 1 - start)))):
        t = t0
        ratio = (-ratio[0], -ratio[1], ratio[2])
        for n in ns:
            t = triple_mul(t, ratio)
            ratio = triple_mul(ratio, cb)
            terms.append((Bh * (n * (n - 1) // 2) + Xh * n - origin, t))
    den = lcm(*[d for _, (_, _, d) in terms])
    re = [0] * size
    im = [0] * size if any([c[1] for _, c in terms]) else None
    for i, (r, j, d) in terms:
        f = den // d
        re[i] += r * f
        if im is not None:
            im[i] += j * f
    return vector_series(L, e_low, h, re, im, den, order)


def J(a, m, order):
    """J_{a,m} = j(q^a; q^m)."""
    return jacobi_theta(qpow(a), as_base(m), order)


def Jbar(a, m, order):
    """J-bar_{a,m} = j(-q^a; q^m)."""
    return jacobi_theta(-qpow(a), as_base(m), order)


def Jm(m, order):
    """J_m = (q^m; q^m)_inf, computed as J_{m,3m} (Euler pentagonal series)."""
    m = rat(m)
    return J(m, 3 * m, order)
