"""Pochhammer products and the theta function j with its named specializations.

The base of every function here is a monomial b = c*q^e with e > 0, so that
specializations such as q -> q^8 or q -> -q^3 are uniform: powers of the base
twist the coefficient by c^k and scale the exponent by e*k.

The finite and the infinite Pochhammer products come from one loop that
multiplies in their factors 1 - c*q^k, one shifted add each on one running
lattice; below an order, only the factors below the order raised by the
negative exponents among them are taken.  j is computed from its bilateral
sum (quadratic exponent growth gives O(sqrt(order)) terms), written term
by term into one lattice vector; its terms below the order, like those of
each row of a Hecke-type sum, are one window solved in closed form
(``theta_window``), so a sum too long to allocate fails before any term is
formed.  The coefficient (-x)^n * b^binom(n, 2) of a theta term is formed
in one place, ``theta_terms``, for j, for the rows of a Hecke-type sum and
for the summands of an Appell-Lerch sum.  Exponents, orders and
coefficients are integer pairs and triples throughout (``qmock._rational``).
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from ._rational import QMonomial, as_pair, qmul, qpair, qpow, qsub
from .series import (
    DivergentProduct,
    QSeries,
    exponent_grid,
    triple_mul,
    triple_pow,
    _first_slot,
    _make,
    _slots,
)

__all__ = [
    "as_base",
    "pochhammer_finite",
    "pochhammer_infinite",
    "jacobi_theta",
    "theta_terms",
    "theta_window",
    "J",
    "Jbar",
    "Jm",
]


def as_base(b):
    """Coerce a rational e (meaning q^e; a ground rational or a pair) or a
    monomial to a base monomial."""
    if isinstance(b, QMonomial):
        return b
    return qpow(b)


def _factors(x, base, order, n=None):
    """x*b^i for i < n, or for every i >= 0 if n is None: all of them for
    ``order`` None or a base whose exponent is not positive, else those
    below the order raised by the negative exponents among them.  The
    others are 1 below the order, in value and in precision, in the
    product of all of them.

    The count is solved in closed form first: the factors lie at distinct
    slots of the product's lattice, so more of them than it can hold fail
    before any is formed."""
    count = n
    if order is not None and base.pair[0] > 0:
        L, B, X = exponent_grid(base, x)
        # the first j factors have negative exponents and raise the order
        j = max(0, -(X // B))
        if n is not None:
            j = min(j, n)
        tn, td = qsub(order, qpair(j * X + B * (j * (j - 1) // 2), L))
        # factor i lies below it when (X + B*i)*td < tn*L
        below = max(0, -((X * td - tn * L) // (B * td)))
        count = _slots(below if n is None else min(n, below))
    factors, f = [], x
    for _ in range(count):
        factors.append(f)
        f = f * base
    return factors


def _product(factors, order):
    """The product of 1 - m over the monomials ``factors``: exact for
    ``order`` None, else formed below the order raised by the factors'
    negative exponents, which is what they erode, and truncated to it."""
    if order is None:
        return QSeries.one().times_one_minus(*factors)
    top = order
    for m in factors:
        if m.pair[0] < 0:
            top = qsub(top, m.pair)
    return QSeries.one(top).times_one_minus(*factors).truncate(order)


def pochhammer_finite(x, base, n, order=None):
    """(x; b)_n: the exact finite product of (1 - x*b^i), i < n.

    With ``order`` given the product is truncated there; otherwise it is an
    exact Laurent polynomial.
    """
    if n < 0:
        raise ValueError(f"pochhammer length must be nonnegative, got {n}")
    order = None if order is None else as_pair(order)
    return _product(_factors(x, as_base(base), order, n), order)


def pochhammer_infinite(x, base, order):
    """(x; b)_inf truncated below ``order``."""
    base = as_base(base)
    order = as_pair(order)
    if base.pair[0] <= 0:
        raise DivergentProduct(
            f"infinite product needs a base with positive exponent, got {base}"
        )
    return _product(_factors(x, base, order), order)


def theta_exponent(B, X, n):
    """E(n) = B*binom(n, 2) + X*n: term n of j(x; b) lies at E(n)/L."""
    return B * (n * (n - 1) // 2) + X * n


def theta_window(B, X, top=None):
    """For E = theta_exponent(B, X, .), B > 0: the vertex v = floor((B - 2X)/(2B)),
    E being least at v or v + 1, and for an integer ``top`` the range of the
    n with E(n) < top (else None).  With b = B - 2X, 2*E(n) = B*n^2 - b*n is at
    most 2*top - 1 between the roots (b -+ sqrt(D))/(2B), D = b^2 + 4B(2*top - 1),
    which for integers round as (b -+ isqrt(D))/(2B); for D < 0, nowhere."""
    b = B - 2 * X
    vertex = b // (2 * B)
    if top is None:
        return vertex, None
    D = b * b + 4 * B * (2 * top - 1)
    if D < 0:
        return vertex, range(0)
    root = isqrt(D)
    return vertex, range(-((root - b) // (2 * B)), (b + root) // (2 * B) + 1)


def window_ends(vertex, ns):
    """The n of the range ns at its ends and at the vertex v or v + 1 of
    ``theta_window``: E on ns is least at one of them and greatest at an end."""
    return [n for n in (ns[0], vertex, vertex + 1, ns[-1]) if n in ns] if ns else []


def theta_start(x, base):
    """The exponent where j(x; b) starts, as a pair; None when x is an
    integral power of b, where j(x; b) vanishes.

    Term n of the bilateral sum lies at E(n)/L (see ``jacobi_theta``), least
    at the vertex n of ``theta_window`` or at the n after it.  When the two tie,
    X = -n*B, and their coefficients cancel only for x = b^-n."""
    base = as_base(base)
    if base.pair[0] <= 0:
        raise DivergentProduct(
            f"theta sum needs a base with positive exponent, got {base}"
        )
    L, B, X = exponent_grid(base, x)
    n, _ = theta_window(B, X)
    e0, e1 = theta_exponent(B, X, n), theta_exponent(B, X, n + 1)
    if e0 == e1:
        r, i, d = triple_mul(x.triple, triple_pow(base.triple, n))
        if r == d and not i:
            return None
    return qpair(min(e0, e1), L)


def theta_terms(cx, cb, ns):
    """The coefficients (-x)^n * b^binom(n, 2) of the theta terms n of
    ``ns``, for the coefficient triples cx of x and cb of b: one (re, im,
    den) triple each.  For cx and cb 1 or -1 each is a sign, of the
    parities of n and binom(n, 2)."""
    if cx[1:] == cb[1:] == (0, 1) and cx[0] in (1, -1) and cb[0] in (1, -1):
        flip_n, flip_binom, signs = int(cx[0] == 1), int(cb[0] == -1), ((1, 0, 1), (-1, 0, 1))
        return [signs[((flip_n & n) ^ (flip_binom & (n * (n - 1) // 2))) & 1] for n in ns]
    nx = (-cx[0], -cx[1], cx[2])
    return [triple_mul(triple_pow(nx, n), triple_pow(cb, n * (n - 1) // 2)) for n in ns]


def jacobi_theta(x, base, order):
    """j(x; b) as the bilateral sum of (-1)^n b^binom(n,2) x^n below ``order``.

    Term n sits at the exponent E(n)/L, E(n) = B*binom(n, 2) + X*n, and
    the terms below the order are the n of one interval around the vertex
    of E.  Each coefficient is its closed form (-x)^n * b^binom(n, 2) in
    x's and b's coefficients (``theta_terms``), a function of n alone.  The
    terms are written into one lattice vector of step gcd(B, X)."""
    base = as_base(base)
    order = as_pair(order)
    if base.pair[0] <= 0:
        raise DivergentProduct(
            f"theta sum needs a base with positive exponent, got {base}"
        )
    L, B, X = exponent_grid(base, x)
    low, window = theta_window(B, X, _first_slot(order, L))
    if not window:
        return QSeries.zero(order)
    e_low = min(theta_exponent(B, X, low), theta_exponent(B, X, low + 1))
    h = gcd(B, X)
    Bh, Xh = B // h, X // h
    first = theta_exponent(B, X, window[0])
    size = _slots((max(first, theta_exponent(B, X, window[-1])) - e_low) // h + 1)
    coeffs = theta_terms(x.triple, base.triple, window)
    den = lcm(*[d for _, _, d in coeffs])
    re = [0] * size
    im = [0] * size if any([c[1] for c in coeffs]) else None
    # term n + 1 lies E(n + 1) - E(n) = B*n + X past term n
    i = (first - e_low) // h
    for n, (r, j, d) in zip(window, coeffs):
        f = den // d
        re[i] += r * f
        if im is not None:
            im[i] += j * f
        i += Bh * n + Xh
    return _make(L, e_low, h, re, im, den, order)


def J(a, m, order):
    """J_{a,m} = j(q^a; q^m)."""
    return jacobi_theta(qpow(a), as_base(m), order)


def Jbar(a, m, order):
    """J-bar_{a,m} = j(-q^a; q^m)."""
    return jacobi_theta(-qpow(a), as_base(m), order)


def Jm(m, order):
    """J_m = (q^m; q^m)_inf, computed as J_{m,3m} (Euler pentagonal series)."""
    m = as_pair(m)
    return J(m, qmul(m, 3), order)
