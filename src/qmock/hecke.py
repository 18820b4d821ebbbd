"""Direct enumeration of the Hecke-type double sum f_{a,b,c}(x, y, b).

The sum runs over {r,s >= 0} (weight +1) and {r,s < 0} (weight -1) with
term (-1)^(r+s) x^r y^s b^(a*binom(r,2) + b*r*s + c*binom(s,2)).  By the
flip identity f(x, y) = -b^(a+b+c)/(xy) f(b^(2a+b)/x, b^(2c+b)/y)
(Hickerson-Mortenson, Proc. LMS 109, 2014) the second quadrant is the
first at the flipped arguments, shifted and scaled.  Row r of the first is
the theta term r of (x; b^a), (-x)^r b^(a*binom(r,2)), times the partial
theta sum of (y*b^(b*r); b^c), whose terms below the order are one window of
s >= 0 (``theta_window``); both come from ``theta.theta_terms``, so term s
is the lead times (-y)^s b^(b*r*s + c*binom(s,2)), its coefficient a
function of (r, s) alone.  Past the vertex of column 0 the exponent grows
with r in every column, so the rows stop at the first empty one there and
no term is dropped.  The terms at the ends and the vertex of column 0 and
of row 0, and the corner r + s <= 2, bound the lattice before any row is
formed.
"""

from __future__ import annotations

from itertools import count

from ._rational import as_pair
from .series import _first_slot, exponent_grid, lattice_series, span_slots, triple_mul, triple_pow
from .theta import as_base, theta_exponent, theta_terms, theta_window, window_ends

__all__ = ["f_abc"]

def _check_params(a, b, c):
    if a <= 0 or c <= 0:
        raise ValueError(f"need a > 0 and c > 0 for quadrant convergence, got {(a, b, c)}")
    if b < 0:
        raise ValueError(f"need b >= 0 so the cross term helps convergence, got {(a, b, c)}")


def f_abc(a, b, c, x, y, base, order):
    """Signed lattice sum of all terms with exponent below ``order``."""
    _check_params(a, b, c)
    base = as_base(base)
    order = as_pair(order)
    L, eb, ex, ey = exponent_grid(base, x, y)
    cb, cx, cy = base.triple, x.triple, y.triple
    top = _first_slot(order, L)
    points = _quadrant(a, b, c, (eb, ex, ey), (cb, cx, cy), top)
    # r, s < 0: the first quadrant at x' = b^(2a+b)/x and y' = b^(2c+b)/y,
    # times the flip monomial -b^(a+b+c)/(xy) = scale*q^(shift/L)
    shift = (a + b + c) * eb - ex - ey
    sr, si, sd = triple_mul(triple_pow(cb, a + b + c), triple_pow(triple_mul(cx, cy), -1))
    flipped = _quadrant(a, b, c, (eb, (2 * a + b) * eb - ex, (2 * c + b) * eb - ey),
                        (cb, triple_mul(triple_pow(cb, 2 * a + b), triple_pow(cx, -1)),
                         triple_mul(triple_pow(cb, 2 * c + b), triple_pow(cy, -1))),
                        top - shift)
    points += [(e + shift, triple_mul(v, (-sr, -si, sd))) for e, v in flipped]
    return lattice_series(L, points, order)


def _quadrant(a, b, c, grid, coeffs, top):
    """(E, coefficient) for the terms with r, s >= 0 whose exponent E is
    below top, for the exponents grid = (eb, ex, ey) of the base, x
    and y times L and their coefficients (re, im, den)."""
    eb, ex, ey = grid
    cb, cx, cy = coeffs
    A, C = a * eb, c * eb
    ca, cc = triple_pow(cb, a), triple_pow(cb, c)

    def row(r):
        """Row r's exponents e + C*binom(s, 2) + X*s as (e, X, its s >= 0 below top)."""
        e, X = theta_exponent(A, ex, r), b * eb * r + ey
        window = theta_window(C, X, top - e)[1]
        return e, X, range(max(window.start, 0), window.stop)

    row_limit, column = theta_window(A, ex, top)
    vertex, row0 = theta_window(C, ey, top)
    # the lattice holds the terms below the order at the ends and the vertex
    # of column 0 and of row 0, and in the corner r + s <= 2, whose
    # differences fix the step
    near = [theta_exponent(B, X, n)
            for B, X, v, ns in ((A, ex, row_limit, column), (C, ey, vertex, row0))
            for n in window_ends(v, range(max(ns.start, 0), ns.stop))]
    span_slots([t for t in near + [0, ex, ey, A + 2 * ex, ex + ey + b * eb, C + 2 * ey] if t < top])
    points = []
    for r in count():
        e, X, ss = row(r)
        if not ss:
            if r > row_limit:
                return points
            continue
        lead, = theta_terms(cx, ca, (r,))
        terms = theta_terms(triple_mul(cy, triple_pow(cb, b * r)), cc, ss)
        points += [(e + C * (s * (s - 1) // 2) + X * s, triple_mul(lead, t)) for s, t in zip(ss, terms)]
