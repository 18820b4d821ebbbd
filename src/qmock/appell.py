"""Appell-Lerch sums, the universal mock theta function, and the structured
theta-times-m correction expressions.

The level-one Appell-Lerch sum

    m(x, b, z) = 1/j(z;b) * sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z)

is evaluated by expanding each denominator geometrically and bounding the
bilateral r-range exactly: the summand's least possible exponent grows
quadratically in |r|, including the most-negative contribution of the
expanded denominator, so the truncation is provably conservative.  The
exponents are integers on one grid, and every summand's geometric run is
written into one lattice.  The division by j(z; b) is not made here: the
DSL plan expands a call of m into its bilateral sum over j(z; b), so that
the m's of one sum that share a theta, and the theta quotients beside
them, are divided by it once (``dsl._Plan``).  The universal mock theta
function g is summed by the Eulerian loop of the catalog series,
``series.eulerian_terms``, on the integer grid of x and b.  For x = ±q^a
and b's coefficient ±1 every coefficient is a unit, and the loop divides
by each Pochhammer factor with a few shift-adds of one packed integer;
otherwise with one pass over one pair of numerator vectors.

The block sums ``g_abc`` ... ``msplit_rhs`` are templates in ``qmock.blocks``,
evaluated here by ``dsl.evaluate`` like any DSL expression.
"""

from __future__ import annotations

from ._rational import Q0, as_pair, qadd, qdiv, qmax, qpair, qrat, rat
from .blocks import BLOCKS
from .nodes import Call
from .series import (
    DegenerateX,
    DegenerateZ,
    InsufficientPrecision,
    PoleAtOne,
    eulerian_terms,
    exponent_grid,
    geometric_runs,
    span_slots,
    sum_lattices,
    triple_mul,
    triple_pow,
)
from .theta import as_base
# Unused here, but perfbench/tracer.py's check_bindings probes this name in
# this module to confirm its wrappers reach every binding.
from .theta import jacobi_theta  # noqa: F401

__all__ = [
    "appell_m",
    "universal_g_eulerian",
    "g_abc",
    "h_abc",
    "theta_np",
    "theta_abc",
    "msplit_rhs",
    "eval_with_retry",
]

def eval_with_retry(build, order):
    """Run ``build(working_order)`` until the result precision reaches ``order``,
    retrying at most three times before ``InsufficientPrecision``.

    Division by series with nonzero leading exponents consumes precision by a
    structural, order-independent amount, so the shortfall of one pass is the
    inflation needed for the next.  Nothing in the package calls it: the
    plan of ``dsl.evaluate`` covers the block sums too.  It stays for the
    test oracles and for the benchmark's tracer, which wraps it by name,
    until the next change to the benchmark.
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


def reduced_z(x, base, z):
    """The z of m(x, b, z) times the power of the base that moves its
    exponent into [0, e_b): m(x, b, z) = m(x, b, b*z), and the bilateral sum
    of the reduced z reaches a given order with the fewest summands.  Neither
    z nor x*z may be an integral power of the base."""
    for name, m in (("z", z), ("x*z", x * z)):
        k = qdiv(m.pair, base.pair)
        if k[1] == 1 and m == base ** k[0]:
            raise DegenerateZ(f"{name} = {m} is an integral power of the base {base}")
    (zn, zd), (bn, bd) = z.pair, base.pair
    k = (zn * bd) // (zd * bn)
    return z * base ** -k if k else z


def appell_m(x, base, z, order):
    """The Appell-Lerch sum m(x, b, z), truncated below ``order``: the DSL
    call m(x, b, z), which ``dsl.evaluate`` plans as the bilateral sum of
    the reduced z (``reduced_z``) over j(z; b), so that the division is the
    plan's.

    Neither z nor x*z may be an integral power of the base.
    """
    base = as_base(base)
    if base.pair[0] <= 0:
        raise ValueError(f"Appell-Lerch base must have positive exponent, got {base}")
    from .dsl import evaluate  # dsl imports this module
    return evaluate(Call("m", (x, base, z)), qrat(as_pair(order)))


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


def bilateral_start(x, base, z):
    """A v, a pair, such that the bilateral sum of m(x, b, z) starts at q^v
    or later: the least exponent of its summands."""
    L, B, X, Z = exponent_grid(as_base(base), x, z)
    lo, hi = _vertex_limits(B, Z)
    r_range = range(lo // (2 * B), -(-hi // (2 * B)) + 1)
    return qpair(min(_least_exp(B, X, Z, r) for r in r_range), L)


def _bilateral_sum(x, base, z, work):
    """sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z) below ``work``.

    Summand r is a geometric run: c*c'^j at the exponents E + j*K for
    K > 0, -c*c'^(-j-1) at E - (j+1)*K for K < 0 (the expansion inside the
    unit disk), one term c/(1 - c') for K = 0.  All runs of the summands
    that reach below ``work`` go into one lattice."""
    work = as_pair(work)
    L, B, X, Z = exponent_grid(base, x, z)
    top, wd = work[0] * L, work[1]
    cb, cx, cz = base.triple, x.triple, z.triple
    cxz = triple_mul(cx, cz)
    lo, hi = _vertex_limits(B, Z)
    # the lattice holds the first two terms of the summands at the vertex,
    # so a sum that they alone make too long fails before it is walked
    near = []
    for r in range(lo // (2 * B), -(-hi // (2 * B)) + 1):
        first, k = _least_exp(B, X, Z, r), _summand_exps(B, X, Z, r)[1]
        near += [t for t in (first, first + abs(k)) if t * wd < top]
    span_slots(near)
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


def universal_g_start(x, base):
    """A v, a pair, such that g(x, b) starts at q^v or later.

    In x^(-1) (-1 + sum_n b^(n^2) / ((x;b)_(n+1) (b/x;b)_n)), the n = 0 term
    less 1 is x/(1 - x), and each later term starts no lower than the n = 1
    term: a factor 1/(1 - c*q^k) starts at q^max(0, -k)."""
    L, B, X = exponent_grid(as_base(base), x)
    later = B + max(0, -X) + max(0, -X - B) + max(0, X - B)
    return qpair(min(max(X, 0), later) - X, L)


def universal_g_eulerian(x, base, order):
    """g(x, b) = x^(-1) (-1 + sum_n b^(n^2) / ((x;b)_(n+1) (b/x;b)_n)),

    through ``series.eulerian_terms`` on the grid of x and b: step 0
    divides by 1 - x, and step n by 1 - x*b^n and 1 - b^n/x, on one packed
    integer when x's and b's coefficients are 1 or -1 and on the vectors
    otherwise, and the sum less 1 is divided by x on its lattice.
    """
    base = as_base(base)
    order = as_pair(order)
    if base.pair[0] <= 0:
        raise ValueError(f"base must have positive exponent, got {base}")
    L, B, X = exponent_grid(base, x)
    cb, cx = base.triple, x.triple
    cx_inv = triple_pow(cx, -1)
    # eulerian_terms asks for n = 0, 1, 2, ... in turn, so each coefficient
    # is the last one times one power of the base's: x*b^n, b^n/x, and
    # b^(n^2) = b^((n-1)^2) * b^(2n-1)
    up, down, square, odd = cx, cx_inv, (1, 0, 1), cb
    cb2 = triple_mul(cb, cb)

    def factors(n):
        nonlocal up, down
        if not n:
            return [(X, cx)]
        up, down = triple_mul(up, cb), triple_mul(down, cb)
        return [(X + n * B, up), (n * B - X, down)]

    def weight(n):
        nonlocal square, odd
        if n:
            square, odd = triple_mul(square, odd), triple_mul(odd, cb2)
        return B * n * n, square

    try:
        parts, p = eulerian_terms(L, weight, factors, qadd(order, qmax(x.pair, Q0)))
    except PoleAtOne:
        raise DegenerateX(f"Pochhammer factor of g({x}, {base}) vanishes")
    # the sum less 1, as one more part of the lattice, over x
    total = sum_lattices(parts + [(L, 0, 1, [-1], None, 1)], p)
    return total.mul_monomial(x.inverse()).truncate(order)


def _block(name, values, order):
    """The block sum ``name`` of the folded arguments ``values`` below
    ``order``: its template in ``qmock.blocks`` in one planned pass."""
    from .dsl import evaluate  # dsl imports this module
    return evaluate(BLOCKS[name](*values), order)


def g_abc(a, b, c, x, y, base, z1, z0, order):
    """The double sum of theta-times-m products attached to f_{a,b,c}."""
    return _block("g_abc", (a, b, c, x, y, as_base(base), z1, z0), order)


def h_abc(a, b, c, x, y, base, z1, z0, order):
    """The two-term theta-times-m combination for b divisible by a and c."""
    return _block("h_abc", (a, b, c, x, y, as_base(base), z1, z0), order)


def theta_np(n, p, x, y, base, order):
    """The p-by-p block of theta quotients completing f_{n,n+p,n}."""
    return _block("theta_np", (n, p, x, y, as_base(base)), order)


def theta_abc(a, b, c, x, y, base, order):
    """The triple finite sum of theta quotients for b divisible by a and c."""
    return _block("theta_abc", (a, b, c, x, y, as_base(base)), order)


def msplit_rhs(n, x, base, z, zp, order):
    """The n-term split of m(x, b, z) into level-n^2 Appell-Lerch sums plus
    an n-term theta-quotient correction in an auxiliary generic z'."""
    return _block("msplit_rhs", (n, x, as_base(base), z, zp), order)
