"""Appell-Lerch sums, the universal mock theta function, and the structured
theta-times-m correction expressions.

The level-one Appell-Lerch sum

    m(x, b, z) = 1/j(z;b) * sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z)

is evaluated by expanding each denominator geometrically.  On the grid of
the exponents B, X, Z of b, x and z, summand r starts at
E(r) = B*binom(r, 2) + Z*r while its ratio exponent K = B*(r - 1) + X + Z
is not negative, for r >= r0 = 1 - floor((X + Z)/B), and at
E(r) - K = E(r - 1) - X below r0: the summands that start below an order
are two theta windows of E cut at r0, the sum starts at E at its vertex
clamped to either side of r0, and the terms at the ends and the vertex of
each window bound the lattice of their geometric runs.  Summand r is led
by the theta term r of (z; b), ``theta.theta_terms``, a sign for b's and
z's coefficients 1 or -1, and its run goes into one lattice with the others
by ``series.geometric_runs``, which twists a run of ratio 1 or -1 without a
multiply.  The division by j(z; b) is not made here: the DSL plan expands a
call of m into its bilateral sum over j(z; b), so that the m's of one sum
that share a theta, and the theta quotients beside them, are divided by it
once (``dsl._Plan``).  The universal mock theta function g is summed by the
Eulerian loop of the catalog series, ``series.eulerian_sum``, on the
integer grid of x and b, its steps the paper's closed forms in n: step n
divides by 1 - x*b^n and 1 - b^n/x.  For x = ±q^a and b's coefficient ±1
every coefficient is a unit, and the loop divides by each Pochhammer factor
with a few shift-adds of one packed integer; otherwise with one pass over
the lattice of the running product, a series, that gives the next one.

The block sums ``g_abc`` ... ``msplit_rhs`` are templates in ``qmock.blocks``,
evaluated here by ``dsl.evaluate`` like any DSL expression.
"""

from __future__ import annotations

from ._rational import Q0, as_pair, qadd, qdiv, qmax, qpair, qrat, rat
from .blocks import BLOCKS
from .nodes import Call
from .series import (DegenerateX, DegenerateZ, InsufficientPrecision, PoleAtOne, _first_slot,
                     eulerian_sum, exponent_grid, geometric_runs, span_slots, triple_mul, triple_pow)
from .theta import as_base, theta_exponent, theta_terms, theta_window, window_ends
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


def _summands(B, X, Z, top=None):
    """(r0, v, upper, lower): r0 and the vertex v of E of the module
    docstring, and for an integer ``top`` the windows of the r >= r0 and
    of the r < r0 whose summands start below it, else None."""
    r0 = 1 - (X + Z) // B
    v, upper = theta_window(B, Z, top)
    if top is None:
        return r0, v, None, None
    lower = theta_window(B, Z, top + X)[1]
    return (r0, v, range(max(upper.start, r0), upper.stop),
            range(lower.start + 1, min(lower.stop + 1, r0)))


def bilateral_start(x, base, z):
    """A v, a pair, such that the bilateral sum of m(x, b, z) starts at q^v
    or later: E at its vertex clamped to r >= r0, or E(r - 1) - X at it
    clamped to r < r0, whichever is less."""
    L, B, X, Z = exponent_grid(as_base(base), x, z)
    r0, v, _, _ = _summands(B, X, Z)
    starts = [theta_exponent(B, Z, max(n, r0)) for n in (v, v + 1)]
    return qpair(min(starts + [theta_exponent(B, Z, min(n, r0 - 2)) - X for n in (v, v + 1)]), L)


def _bilateral_sum(x, base, z, work):
    """sum_r (-1)^r b^binom(r,2) z^r / (1 - b^(r-1) x z) below ``work``.

    Summand r is a geometric run: c*c'^j at the exponents E + j*K for
    K > 0, -c*c'^(-j-1) at E - (j+1)*K for K < 0 (the expansion inside the
    unit disk), one term c/(1 - c') for K = 0.  The runs of the summands
    that start below ``work``, the r of the two windows of ``_summands``,
    go into one lattice by ``geometric_runs``."""
    work = as_pair(work)
    L, B, X, Z = exponent_grid(base, x, z)
    top = _first_slot(work, L)
    r0, v, upper, lower = _summands(B, X, Z, top)
    # the lattice holds the first two terms of the summands at the ends and
    # the vertex of each window: a sum they make too long fails at once
    ends = window_ends(v, upper) + window_ends(v + 1, lower)
    ks = [B * (r - 1) + X + Z for r in ends]
    starts = [theta_exponent(B, Z, r) - min(k, 0) for r, k in zip(ends, ks)]
    span_slots([t for e, k in zip(starts, ks) for t in (e, e + abs(k)) if t < top])
    rs, cb, cxz = (*lower, *upper), base.triple, triple_mul(x.triple, z.triple)
    leads = theta_terms(z.triple, cb, rs)
    return geometric_runs(L, [_summand_run(B, X, Z, r, lead, cb, cxz) for r, lead in zip(rs, leads)], work)


def _summand_run(B, X, Z, r, lead, cb, cxz):
    """Summand r of the bilateral sum, led by the theta term r of (z; b),
    as a run (x, s, lead, ratio) of ``geometric_runs``."""
    e, k = theta_exponent(B, Z, r), B * (r - 1) + X + Z
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

    through ``series.eulerian_sum`` on the grid of x and b: step 0
    divides by 1 - x, and step n by 1 - x*b^n and 1 - b^n/x, on one packed
    integer when x's and b's coefficients are 1 or -1 and on the vectors
    otherwise, and the sum less 1 is divided by x.  Each step and weight is
    a function of n alone, by one power of b.
    """
    base = as_base(base)
    order = as_pair(order)
    if base.pair[0] <= 0:
        raise ValueError(f"base must have positive exponent, got {base}")
    L, B, X = exponent_grid(base, x)
    cb, cx = base.triple, x.triple
    cx_inv = triple_pow(cx, -1)

    def factors(n):
        if not n:
            return [(X, cx)]
        bn = triple_pow(cb, n)
        return [(X + n * B, triple_mul(cx, bn)), (n * B - X, triple_mul(bn, cx_inv))]

    def weight(n):
        return B * n * n, triple_pow(cb, n * n)

    try:
        S = eulerian_sum(L, weight, factors, qadd(order, qmax(x.pair, Q0)))
    except PoleAtOne:
        raise DegenerateX(f"Pochhammer factor of g({x}, {base}) vanishes")
    return (S - 1).mul_monomial(x.inverse()).truncate(order)


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
