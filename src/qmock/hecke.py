"""Direct enumeration of the Hecke-type double sum f_{a,b,c}(x, y, b).

The sum runs over the two quadrants {r,s >= 0} (weight +1) and {r,s < 0}
(weight -1) with term (-1)^(r+s) x^r y^s b^(a*binom(r,2) + b*r*s + c*binom(s,2)).
Only the first quadrant is enumerated: by the flip identity
f(x, y) = -b^(a+b+c)/(xy) f(b^(2a+b)/x, b^(2c+b)/y) (Hickerson-Mortenson,
Proc. LMS 109, 2014) the second is the first at the flipped arguments,
shifted and scaled.  For each row the admissible column window is solved
exactly from the convex exponent function, giving an output-sensitive
enumeration that provably drops no term.
"""

from __future__ import annotations

from math import isqrt

from ._rational import as_pair
from .series import exponent_grid, lattice_series, span_slots, triple_mul, triple_pow
from .theta import as_base

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
    # an exponent E/L lies below the order when E*od < on*L
    top, od = order[0] * L, order[1]
    points = _quadrant(a, b, c, (eb, ex, ey), (cb, cx, cy), top, od)
    # r, s < 0: the first quadrant at x' = b^(2a+b)/x and y' = b^(2c+b)/y,
    # times the flip monomial -b^(a+b+c)/(xy) = scale*q^(shift/L)
    shift = (a + b + c) * eb - ex - ey
    sr, si, sd = triple_mul(triple_pow(cb, a + b + c), triple_pow(triple_mul(cx, cy), -1))
    flipped = _quadrant(a, b, c, (eb, (2 * a + b) * eb - ex, (2 * c + b) * eb - ey),
                        (cb, triple_mul(triple_pow(cb, 2 * a + b), triple_pow(cx, -1)),
                         triple_mul(triple_pow(cb, 2 * c + b), triple_pow(cy, -1))),
                        top - shift * od, od)
    points += [(e + shift, triple_mul(v, (-sr, -si, sd))) for e, v in flipped]
    return lattice_series(L, points, order)


def _quadrant(a, b, c, grid, coeffs, top, od):
    """(E, coefficient) for the terms with r, s >= 0 whose exponent E/L lies
    below top/(od*L), for the exponents grid = (eb, ex, ey) of the base, x
    and y times L and their coefficients (re, im, den)."""
    eb, ex, ey = grid
    cb, cx, cy = coeffs

    def int_exp(r, s):
        return a * (r * (r - 1)) // 2 + b * r * s + c * (s * (s - 1)) // 2

    def exponent(r, s):
        return eb * int_exp(r, s) + ex * r + ey * s

    def coeff(r, s):
        val = triple_mul(triple_mul(triple_pow(cx, r), triple_pow(cy, s)),
                         triple_pow(cb, int_exp(r, s)))
        return (-val[0], -val[1], val[2]) if (r + s) & 1 else val

    def col_vertex(r):  # floor(1/2 - (eb*b*r + ey)/(eb*c)), where row r is least
        return (eb * c - 2 * (eb * b * r + ey)) // (2 * eb * c)

    # past this row the exponent increases in r for every column
    row_limit = (eb * a - 2 * ex) // (2 * eb * a)  # floor(1/2 - ex/(eb*a))

    def row_below(r):
        vf = max(0, col_vertex(r))
        return min(exponent(r, vf), exponent(r, vf + 1)) * od < top

    def last(B, X):
        # the greatest n with B*binom(n, 2) + X*n <= M, the last exponent
        # below the order: n <= (beta + sqrt(D))/(2B) with beta = B - 2X,
        # which for integers rounds as (beta + isqrt(D))/(2B), as in
        # jacobi_theta; 0 when no n has it
        beta, M = B - 2 * X, (top - 1) // od
        D = beta * beta + 8 * B * M
        return max(0, (beta + isqrt(D)) // (2 * B)) if D >= 0 else 0

    # the lattice holds the terms of the first three rows and columns, and
    # the last ones of row 0 and of column 0, that lie below the order, so
    # a quadrant that they alone make too long fails before it is walked
    far = [exponent(0, last(eb * c, ey)), exponent(last(eb * a, ex), 0)]
    span_slots([e for e in (*far, *(exponent(r, s) for r in range(3) for s in range(3)))
                if e * od < top])
    points = []
    r = 0
    while row_below(r) or r <= row_limit:
        if row_below(r):
            s0 = max(0, col_vertex(r))
            s = s0
            while s >= 0 and exponent(r, s) * od < top:
                points.append((exponent(r, s), coeff(r, s)))
                s -= 1
            s = s0 + 1
            while exponent(r, s) * od < top:
                points.append((exponent(r, s), coeff(r, s)))
                s += 1
        r += 1
    return points
