"""Pochhammer products and the theta function j with its named specializations.

The base of every function here is a monomial b = c*q^e with e > 0, so that
specializations such as q -> q^8 or q -> -q^3 are uniform: powers of the base
twist the coefficient by c^k and scale the exponent by e*k.

The finite and the infinite Pochhammer products come from one loop that
multiplies in their factors 1 - c*q^k, one shifted add each.  j is
computed from its bilateral sum (quadratic exponent growth gives
O(sqrt(order)) terms); the triple-product form is kept as an independent
cross-check.
"""

from __future__ import annotations

from ._rational import RAT, rat
from .series import (
    DivergentProduct,
    GR_ONE,
    QMonomial,
    QSeries,
    as_triple,
    exponent_grid,
    lattice_series,
    qpow,
    triple_mul,
    triple_pow,
)

__all__ = [
    "as_base",
    "pochhammer_finite",
    "pochhammer_infinite",
    "jacobi_theta",
    "jacobi_theta_product",
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
    for m in factors:
        out = out.times_one_minus(m)
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
    """j(x; b) as the bilateral sum of (-1)^n b^binom(n,2) x^n below ``order``."""
    base = as_base(base)
    order = rat(order)
    if base.exp <= 0:
        raise DivergentProduct(
            f"theta sum needs a base with positive exponent, got {base}"
        )
    # term n sits at the exponent E(n)/L, E(n) = B*binom(n, 2) + X*n, which
    # lies below the order on/od when E(n)*od < on*L = top
    L, B, X = exponent_grid(base, x)
    top, od = int(order.numerator) * L, int(order.denominator)
    cx, cb = as_triple(x.coeff), as_triple(base.coeff)
    points = []
    vertex = (B - 2 * X) // (2 * B)  # floor(1/2 - X/B), where E is least
    for n, direction in ((vertex, -1), (vertex + 1, 1)):
        while True:
            binom = n * (n - 1) // 2
            e = B * binom + X * n
            if e * od >= top:
                break
            r, i, d = triple_mul(triple_pow(cx, n), triple_pow(cb, binom))
            points.append((e, (-r, -i, d) if n & 1 else (r, i, d)))
            n += direction
    return lattice_series(L, points, order)


def jacobi_theta_product(x, base, order):
    """The triple-product form (x)_inf (b/x)_inf (b)_inf, as a cross-check."""
    base = as_base(base)
    order = rat(order)
    a1 = pochhammer_infinite(x, base, order)
    a2 = pochhammer_infinite(base * x.inverse(), base, order)
    a3 = pochhammer_infinite(base, base, order)
    l1 = a1.low_degree() or _R0
    l2 = a2.low_degree() or _R0
    pad = -min(l1 + l2, _R0)
    if pad > 0:
        work = order + pad
        a1 = pochhammer_infinite(x, base, work)
        a2 = pochhammer_infinite(base * x.inverse(), base, work)
        a3 = pochhammer_infinite(base, base, work)
    return (a1 * a2 * a3).truncate(order)


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
