"""The theta-times-m and theta-quotient blocks of the f_{a,b,c} theorems
(Hickerson-Mortenson, Proc. LMS 109, 2014) as DSL templates: each takes its
folded arguments and returns an AST of j and m calls, monomials and
arithmetic, which ``dsl.evaluate`` plans like any other expression.  A theta
denominator that vanishes identically is refused while the AST is built."""

from math import gcd

from . import theta
from ._rational import as_int, rat
from .nodes import Add, Call, Div, Literal, Mul, Pow, QPow
from .series import DegenerateDenominator, DegenerateZ, DivisibilityViolation


def _mono(x):
    """The AST of the monomial x = c*q^e."""
    return Mul(Literal(x.coeff), QPow(x.exp))


def _j(x, b):
    return Call("j", (_mono(x), _mono(b)))


def _m(x, b, z):
    return Call("m", (_mono(x), _mono(b), _mono(z)))


def _den(x, b, exc=DegenerateDenominator):
    """j(x; b) for a divisor; ``exc`` when it vanishes identically."""
    if theta.theta_valuation(x, b) is None:
        raise exc(f"theta denominator j({x}; {b}) vanishes")
    return _j(x, b)


def _total(terms):
    """The sum of the nodes ``terms``, as a balanced tree so that a long
    block nests no deeper than its logarithm."""
    while len(terms) > 1:
        terms = [Add(*terms[i:i + 2]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def _g_abc(a, b, c, x, y, base, z1, z0):
    """The double sum of theta-times-m products attached to f_{a,b,c}."""
    if b * b <= a * c:
        raise ValueError(f"need b^2 > a*c for positive Appell-Lerch bases, got {(a, b, c)}")
    D = b * b - a * c
    terms = []
    for aa, cc, u, v, zz in ((a, c, x, y, z0), (c, a, y, x, z1)):
        for t in range(aa):
            shift = (-v) ** t * base ** (cc * t * (t - 1) // 2)
            m_exp = aa * b * (b + 1) // 2 - cc * aa * (aa + 1) // 2 - t * D
            m_arg = -(base ** m_exp) * ((-v) ** aa) * ((-u) ** (-b))
            terms.append(Mul(_mono(shift), Mul(_j(base ** (b * t) * u, base ** aa),
                                               _m(m_arg, base ** (aa * D), zz))))
    return _total(terms)


def _h_abc(a, b, c, x, y, base, z1, z0):
    """The two-term theta-times-m combination for b divisible by a and c."""
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    ba, bc = b // a, b // c
    d1 = b * b // a - c
    d2 = b * b // c - a
    if d1 <= 0 or d2 <= 0:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")
    arg1 = -(base ** (a * ba * (ba + 1) // 2 - c)) * (-y) * ((-x) ** (-ba))
    arg2 = -(base ** (c * bc * (bc + 1) // 2 - a)) * (-x) * ((-y) ** (-bc))
    return Add(Mul(_j(x, base ** a), _m(arg1, base ** d1, z1)),
               Mul(_j(y, base ** c), _m(arg2, base ** d2, z0)))


def _theta_np(n, p, x, y, base):
    """The p-by-p block of theta quotients completing f_{n,n+p,n}."""
    if gcd(n, p) != 1:
        raise ValueError(f"need gcd(n, p) = 1, got {(n, p)}")
    fr = rat(n - 1, 2) % 1
    N_big = p * p * (2 * n + p)
    b_big = base ** N_big
    terms = []
    for rs in range(p):
        for ss in range(p):
            r, s = rs + fr, ss + fr
            A, B = as_int(r - rat(n - 1, 2)), as_int(s + rat(n + 1, 2))
            q_exp = n * A * (A - 1) // 2 + (n + p) * A * B + n * B * (B - 1) // 2
            lead = (base ** q_exp) * ((-x) ** A) * ((-y) ** B)
            j1 = _j(-(base ** (n * p * (ss - rs))) * (x ** n) * (y ** (-n)), base ** (n * p * p))
            j2 = _j((base ** (p * (2 * n + p) * (r + s) + p * (n + p))) * (x ** p) * (y ** p), b_big)
            den1 = _den((base ** (p * (2 * n + p) * r + rat(p * (n + p), 2)))
                        * ((-y) ** (n + p)) * ((-x) ** (-n)), b_big)
            den2 = _den((base ** (p * (2 * n + p) * s + rat(p * (n + p), 2)))
                        * ((-x) ** (n + p)) * ((-y) ** (-n)), b_big)
            terms.append(Div(Mul(_mono(lead), Mul(j1, j2)), Mul(den1, den2)))
    jm3 = Pow(_j(b_big, base ** (3 * N_big)), 3)  # J_{N}^3, N = p^2 (2n + p)
    return Div(Mul(_total(terms), jm3), _den(-(base ** 0), base ** (n * p * (2 * n + p))))


def _theta_abc(a, b, c, x, y, base):
    """The triple finite sum of theta quotients for b divisible by a and c."""
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    if a * c >= b * b:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")
    ba, bc = b // a, b // c
    d1 = rat(b * b, a) - c
    d2 = rat(b * b, c) - a
    ratio = rat(b * b, a * c) - 1        # b^2/(ac) - 1
    M = b * ratio                        # modulus of the quotient thetas
    b_mid = base ** (rat(b * b, a) * ratio)
    off_mid = rat(b ** 3 * (b - a), 2 * a * a * c)
    cb1 = c * bc * (bc - 1) // 2
    cb2 = a * ba * (ba - 1) // 2
    b_M = base ** M
    terms = []
    for d in range(bc):
        for e in range(ba):
            for f in range(ba):
                q_exp = d1 * (d * (d + 1) // 2) + d2 * ((e + f) * (e + f + 1) // 2) + a * f * (f - 1) // 2
                lead = (base ** q_exp) * ((-x) ** f)
                j1 = _j((base ** (d1 * (d + 1) + b * f)) * y, base ** rat(b * b, a))
                j2 = _j((base ** (M * (e + f + 1) - d1 * (d + 1) + off_mid))
                        * ((-x) ** ba) * (y ** (-1)), b_mid)
                j3 = _j((base ** (d2 * (e + 1) + d1 * (d + 1) - cb1 - cb2))
                        * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)), b_M)
                den1 = _den((base ** (d2 * (e + 1) - cb1)) * (-x) * ((-y) ** (-bc)), b_M)
                den2 = _den((base ** (d1 * (d + 1) - cb2)) * ((-x) ** (-ba)) * (-y), b_M)
                terms.append(Div(Mul(_mono(lead), Mul(Mul(j1, j2), j3)), Mul(den1, den2)))
    return Mul(_total(terms), Pow(_j(b_M, base ** (3 * M)), 3))


def _msplit_rhs(n, x, base, z, zp):
    """The n-term split of m(x, b, z) into level-n^2 Appell-Lerch sums plus
    an n-term theta-quotient correction in an auxiliary generic z'."""
    if n < 1:
        raise ValueError(f"split order must be positive, got {n}")
    bn = base ** (n * (n - 1) // 2)      # b^binom(n,2)
    b_n, b_n2 = base ** n, base ** (n * n)
    # j(zp; b^(n^2)) or j(-bn (-x)^n zp; b^n) vanishes exactly when one of
    # the m terms has a degenerate z, which those report first
    den1 = _den(-bn * ((-x) ** n) * zp, b_n, exc=DegenerateZ)
    jzp = _den(zp, b_n2, exc=DegenerateZ)
    jxz = _den(x * z, base)
    split = [Mul(_mono((base ** (-(r * (r + 1) // 2))) * ((-x) ** r)),
                 _m(-bn * (base ** (-n * r)) * ((-x) ** n), b_n2, zp)) for r in range(n)]
    corr = []
    for r in range(n):
        lead = (base ** (r * (r - 1) // 2)) * ((-(x * z)) ** r)
        j1 = _j(-bn * (base ** r) * ((-x) ** n) * z * zp, b_n)
        j2 = _j((base ** (n * r)) * (z ** n) * zp.inverse(), b_n2)
        den2 = _den((base ** r) * z, b_n)
        corr.append(Div(Mul(_mono(lead), Mul(j1, j2)), Mul(den1, den2)))
    jn3 = Pow(_j(b_n, base ** (3 * n)), 3)
    return Add(_total(split),
               Mul(_mono(zp), Div(Mul(_total(corr), jn3), Mul(jxz, jzp))))


# name -> block template; msplit_rhs is not a DSL function
BLOCKS = {
    "g_abc": _g_abc,
    "h_abc": _h_abc,
    "theta_np": _theta_np,
    "theta_abc": _theta_abc,
    "msplit_rhs": _msplit_rhs,
}
