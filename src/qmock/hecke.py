"""Direct enumeration of the Hecke-type double sum f_{a,b,c}(x, y, b).

The sum runs over the two quadrants {r,s >= 0} (weight +1) and {r,s < 0}
(weight -1) with term (-1)^(r+s) x^r y^s b^(a*binom(r,2) + b*r*s + c*binom(s,2)).
The negative quadrant is enumerated through (r,s) = (-1-u, -1-v) so both
code paths iterate over nonnegative indices.  For each row the admissible
column window is solved exactly from the convex exponent function, giving an
output-sensitive enumeration that provably drops no term.
"""

from __future__ import annotations

from math import lcm

from ._rational import RAT, rat, floor
from .series import QSeries, as_triple, lattice_series, triple_mul, triple_pow
from .theta import as_base

__all__ = ["f_abc", "f_abc_via_quadrants"]

_HALF = RAT(1, 2)


def _check_params(a, b, c):
    if a <= 0 or c <= 0:
        raise ValueError(f"need a > 0 and c > 0 for quadrant convergence, got {(a, b, c)}")
    if b < 0:
        raise ValueError(f"need b >= 0 so the cross term helps convergence, got {(a, b, c)}")


def f_abc(a, b, c, x, y, base, order):
    """Signed lattice sum of all terms with exponent below ``order``."""
    _check_params(a, b, c)
    base = as_base(base)
    order = rat(order)
    exps = (base.exp, x.exp, y.exp)
    L = lcm(*[int(e.denominator) for e in exps])
    grid = [int(e.numerator) * (L // int(e.denominator)) for e in exps]
    # an exponent E/L lies below the order when E*od < on*L
    bound = (int(order.numerator) * L, int(order.denominator))
    coeffs = [as_triple(m.coeff) for m in (base, x, y)]
    points = []
    for negative in (False, True):
        _accumulate_quadrant(points, a, b, c, grid, coeffs, bound, negative)
    return lattice_series(L, points, order)


def _accumulate_quadrant(points, a, b, c, grid, coeffs, bound, negative):
    """Append (exponent times L, coefficient) for the quadrant's terms below
    the bound; exponents are integers on the grid of f_abc."""
    eb, ex, ey = grid
    cb, cx, cy = coeffs
    top, od = bound

    def rs(u, v):
        return (-1 - u, -1 - v) if negative else (u, v)

    def int_exp(u, v):
        r, s = rs(u, v)
        return a * (r * (r - 1)) // 2 + b * r * s + c * (s * (s - 1)) // 2

    def exponent(u, v):
        r, s = rs(u, v)
        return eb * int_exp(u, v) + ex * r + ey * s

    def coeff(u, v):
        r, s = rs(u, v)
        val = triple_mul(triple_mul(triple_pow(cx, r), triple_pow(cy, s)),
                         triple_pow(cb, int_exp(u, v)))
        if ((r + s) & 1) != negative:
            val = (-val[0], -val[1], val[2])
        return val

    # floor of the column vertex for fixed row u, and the row index beyond
    # which the exponent increases in u for every column
    if negative:
        def col_vertex(u):  # (ey - eb*b*(u+1)) / (eb*c) - 3/2
            return (2 * (ey - eb * b * (u + 1)) - 3 * eb * c) // (2 * eb * c)
        row_limit = (2 * ex - 3 * eb * a) // (2 * eb * a)  # ex/(eb*a) - 3/2
    else:
        def col_vertex(u):  # 1/2 - (eb*b*u + ey)/(eb*c)
            return (eb * c - 2 * (eb * b * u + ey)) // (2 * eb * c)
        row_limit = (eb * a - 2 * ex) // (2 * eb * a)  # 1/2 - ex/(eb*a)

    def row_below(u):
        vf = max(0, col_vertex(u))
        return min(exponent(u, vf), exponent(u, vf + 1)) * od < top

    u = 0
    while row_below(u) or u <= row_limit:
        if row_below(u):
            v0 = max(0, col_vertex(u))
            v = v0
            while v >= 0 and exponent(u, v) * od < top:
                points.append((exponent(u, v), coeff(u, v)))
                v -= 1
            v = v0 + 1
            while exponent(u, v) * od < top:
                points.append((exponent(u, v), coeff(u, v)))
                v += 1
        u += 1


def f_abc_via_quadrants(a, b, c, x, y, base, order):
    """Independent oracle: bound |r| and |s| from the order, then re-sum the
    full rectangle in the opposite iteration order (columns outer)."""
    _check_params(a, b, c)
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
        vf = floor(vertex)
        return min(f(vf), f(vf + 1))

    u_min = global_min(u_part, _HALF - ex / (eb * a))
    w_min = global_min(w_part, _HALF - ey / (eb * c))

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
