"""The theta-times-m and theta-quotient blocks of the f_{a,b,c} theorems
(Hickerson-Mortenson, Proc. LMS 109, 2014) as DSL templates: each takes its
folded arguments and returns an AST of j and m calls, monomials and
arithmetic, which ``dsl.evaluate`` plans like any other expression.  A
block's terms are a plain chain of ``Add`` nodes, which the plan opens
into one sum of signed terms however long it is.  The monomials are
computed in integers (``qmock._rational.QMonomial``) and stand in the AST
as they are, as call arguments and as factors.  A theta denominator that
vanishes identically is refused while the AST is built."""

from functools import reduce
from math import gcd

from . import theta
from ._rational import qpair
from .nodes import Add, Call, Div, Mul, Pow
from .series import DegenerateDenominator, DegenerateZ, DivisibilityViolation


def _j(x, b):
    return Call("j", (x, b))


def _m(x, b, z):
    return Call("m", (x, b, z))


def _den(x, b, exc=DegenerateDenominator):
    """j(x; b) for a divisor; ``exc`` when it vanishes identically."""
    if theta.theta_start(x, b) is None:
        raise exc(f"theta denominator j({x}; {b}) vanishes")
    return _j(x, b)


def _check_diagonal(a, b, c):
    if a < 1 or c < 1:
        raise ValueError(f"need a > 0 and c > 0, got {(a, b, c)}")


def _g_abc(a, b, c, x, y, base, z1, z0):
    """The double sum of theta-times-m products attached to f_{a,b,c}."""
    _check_diagonal(a, b, c)
    if b * b <= a * c:
        raise ValueError(f"need b^2 > a*c for positive Appell-Lerch bases, got {(a, b, c)}")
    D = b * b - a * c
    terms = []
    for aa, cc, u, v, zz in ((a, c, x, y, z0), (c, a, y, x, z1)):
        for t in range(aa):
            shift = (-v) ** t * base ** (cc * t * (t - 1) // 2)
            m_exp = aa * b * (b + 1) // 2 - cc * aa * (aa + 1) // 2 - t * D
            m_arg = -(base ** m_exp) * ((-v) ** aa) * ((-u) ** (-b))
            terms.append(Mul(shift, Mul(_j(base ** (b * t) * u, base ** aa),
                                        _m(m_arg, base ** (aa * D), zz))))
    return reduce(Add, terms)


def _h_abc(a, b, c, x, y, base, z1, z0):
    """The two-term theta-times-m combination for b divisible by a and c."""
    _check_diagonal(a, b, c)
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
    if n < 1 or p < 1:
        raise ValueError(f"need n > 0 and p > 0, got {(n, p)}")
    if gcd(n, p) != 1:
        raise ValueError(f"need gcd(n, p) = 1, got {(n, p)}")
    # r = rs + h/2 and s = ss + h/2 run over the integers plus (n - 1)/2
    h = (n - 1) % 2
    N_big = p * p * (2 * n + p)
    b_big = base ** N_big
    terms = []
    for rs in range(p):
        for ss in range(p):
            A, B = rs - (n - 1) // 2, ss + (n + 1 + h) // 2     # r - (n-1)/2, s + (n+1)/2
            q_exp = n * A * (A - 1) // 2 + (n + p) * A * B + n * B * (B - 1) // 2
            lead = (base ** q_exp) * ((-x) ** A) * ((-y) ** B)
            j1 = _j(-(base ** (n * p * (ss - rs))) * (x ** n) * (y ** (-n)), base ** (n * p * p))
            j2 = _j((base ** (p * (2 * n + p) * (rs + ss + h) + p * (n + p))) * (x ** p) * (y ** p), b_big)
            # b^(p(2n + p)r + p(n + p)/2), and the same in s
            den1 = _den((base ** qpair(p * (2 * n + p) * (2 * rs + h) + p * (n + p), 2))
                        * ((-y) ** (n + p)) * ((-x) ** (-n)), b_big)
            den2 = _den((base ** qpair(p * (2 * n + p) * (2 * ss + h) + p * (n + p), 2))
                        * ((-x) ** (n + p)) * ((-y) ** (-n)), b_big)
            terms.append(Div(Mul(lead, Mul(j1, j2)), Mul(den1, den2)))
    jm3 = Pow(_j(b_big, base ** (3 * N_big)), 3)  # J_{N}^3, N = p^2 (2n + p)
    return Div(Mul(reduce(Add, terms), jm3), _den(-(base ** 0), base ** (n * p * (2 * n + p))))


def _theta_abc(a, b, c, x, y, base):
    """The triple finite sum of theta quotients for b divisible by a and c."""
    _check_diagonal(a, b, c)
    if b % a or b % c:
        raise DivisibilityViolation(f"need a | b and c | b, got {(a, b, c)}")
    if a * c >= b * b:
        raise ValueError(f"need a*c < b^2, got {(a, b, c)}")
    ba, bc = b // a, b // c
    d1 = b * ba - c                      # b^2/a - c
    d2 = b * bc - a                      # b^2/c - a
    ratio = ba * bc - 1                  # b^2/(ac) - 1
    M = b * ratio                        # modulus of the quotient thetas
    b_mid = base ** (b * ba * ratio)
    off_mid2 = ba * ba * bc * (b - a)    # twice b^3 (b - a)/(2 a^2 c)
    cb1 = c * bc * (bc - 1) // 2
    cb2 = a * ba * (ba - 1) // 2
    b_M = base ** M
    terms = []
    for d in range(bc):
        for e in range(ba):
            for f in range(ba):
                q_exp = d1 * (d * (d + 1) // 2) + d2 * ((e + f) * (e + f + 1) // 2) + a * f * (f - 1) // 2
                lead = (base ** q_exp) * ((-x) ** f)
                j1 = _j((base ** (d1 * (d + 1) + b * f)) * y, base ** (b * ba))
                j2 = _j((base ** qpair(2 * (M * (e + f + 1) - d1 * (d + 1)) + off_mid2, 2))
                        * ((-x) ** ba) * (y ** (-1)), b_mid)
                j3 = _j((base ** (d2 * (e + 1) + d1 * (d + 1) - cb1 - cb2))
                        * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)), b_M)
                den1 = _den((base ** (d2 * (e + 1) - cb1)) * (-x) * ((-y) ** (-bc)), b_M)
                den2 = _den((base ** (d1 * (d + 1) - cb2)) * ((-x) ** (-ba)) * (-y), b_M)
                terms.append(Div(Mul(lead, Mul(Mul(j1, j2), j3)), Mul(den1, den2)))
    return Mul(reduce(Add, terms), Pow(_j(b_M, base ** (3 * M)), 3))


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
    split = [Mul((base ** (-(r * (r + 1) // 2))) * ((-x) ** r),
                 _m(-bn * (base ** (-n * r)) * ((-x) ** n), b_n2, zp)) for r in range(n)]
    corr = []
    for r in range(n):
        lead = (base ** (r * (r - 1) // 2)) * ((-(x * z)) ** r)
        j1 = _j(-bn * (base ** r) * ((-x) ** n) * z * zp, b_n)
        j2 = _j((base ** (n * r)) * (z ** n) * zp.inverse(), b_n2)
        den2 = _den((base ** r) * z, b_n)
        corr.append(Div(Mul(lead, Mul(j1, j2)), Mul(den1, den2)))
    jn3 = Pow(_j(b_n, base ** (3 * n)), 3)
    return Add(reduce(Add, split),
               Mul(zp, Div(Mul(reduce(Add, corr), jn3), Mul(jxz, jzp))))


# name -> block template; msplit_rhs is not a DSL function
BLOCKS = {
    "g_abc": _g_abc,
    "h_abc": _h_abc,
    "theta_np": _theta_np,
    "theta_abc": _theta_abc,
    "msplit_rhs": _msplit_rhs,
}
