"""Ground types: the rationals, the Gaussian rationals over them, and the
integer forms that the engine computes with.

The ground rational type is the stdlib ``fractions.Fraction``, and a
coefficient is a ``GaussianRational``; both are built only at the edges of
the package: the parser, the public accessors and the reports.  Below the
parser an exponent, an order, a valuation or a precision is a *pair*
(num, den) of integers in lowest terms with den > 0, added, compared and
minimized by ``qadd``, ``qlt``, ``qmin`` and their kin, and a coefficient
is an (re, im, den) *triple* of integers over a positive denominator.  A
``QMonomial`` c*q^e holds one reduced triple and one pair, so its
products, powers, equality and hash are integer operations.

Integers of any length go to and from decimal text through
``decimal_int`` and ``decimal_text``, in parts below CPython's limit on
int<->str conversion, which they leave as it is; ``json_pair`` writes a
number past that limit to a JSON report as its decimal string.
"""

from fractions import Fraction
from math import gcd, lcm

RAT = Fraction

ZERO = RAT(0)


def rat(value, den=None):
    """Coerce ints, Fractions, strings or (num, den) pairs to the ground type."""
    if den is not None:
        return RAT(value, den)
    if isinstance(value, (int, Fraction, str)):
        return RAT(value)
    return RAT(value.numerator, value.denominator)


def is_integer(value):
    return value.denominator == 1


# -- integers of any length as decimal text ------------------------------------
#
# CPython (3.11 on, and 3.10.7 on) refuses int(text) and str(n) past a number
# of digits, 4300 by default and never below 640, set for the whole process
# (sys.set_int_max_str_digits), which a library must leave alone.  So a
# longer integer is read and written in parts of at most 640 digits.

_LIMB = 640
_LIMB_BITS = 2126  # 2^2126 < 10^640: an int this wide has at most 640 digits
_LOG10_2 = 0.30102999566398


def decimal_int(digits):
    """The int that a string of ASCII digits writes, of any length."""
    n = len(digits)
    if n <= _LIMB:
        return int(digits)
    h = n // 2
    return decimal_int(digits[:h]) * 10 ** (n - h) + decimal_int(digits[h:])


def decimal_text(x):
    """str(x) for an int or a ground rational (``p`` or ``p/r``) of any size."""
    if type(x) is not int:
        if x.denominator != 1:
            return f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"
        x = x.numerator
    bits = x.bit_length()
    if bits <= _LIMB_BITS:
        return str(x)
    if x < 0:
        return "-" + decimal_text(-x)
    low = int((bits - 1) * _LOG10_2) // 2  # x has more than 2*low digits
    high, rest = divmod(x, 10 ** low)
    return decimal_text(high) + decimal_text(rest).zfill(low)


_JSON_DIGITS = 10 ** 4300  # CPython's default limit


def json_pair(value):
    """A ground rational as the [numerator, denominator] of a JSON report.
    Each is a number, or past 4300 digits, which json.dumps cannot write at
    CPython's default limit, its decimal string."""
    return [n if -_JSON_DIGITS < n < _JSON_DIGITS else decimal_text(n)
            for n in (value.numerator, value.denominator)]


# -- pairs: rationals as (num, den) in lowest terms, den > 0 -------------------

def as_pair(value):
    """An int, a ground rational, a numeric string or a pair, as a pair."""
    if type(value) is tuple:
        return value
    if type(value) is int:
        return value, 1
    if type(value) is not RAT:
        value = rat(value)
    return int(value.numerator), int(value.denominator)


def qpair(num, den):
    """num/den, den > 0, as a pair."""
    g = gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def qrat(p):
    """The pair p in the ground type; None stays None."""
    return None if p is None else RAT(p[0], p[1])


def qadd(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return (an + bn, 1) if ad == 1 else qpair(an + bn, ad)
    return qpair(an * bd + bn * ad, ad * bd)


def qsub(a, b):
    return qadd(a, (-b[0], b[1]))


def qmul(a, k):
    """a times an int or a pair k."""
    if type(k) is int:
        return (a[0] * k, 1) if a[1] == 1 else qpair(a[0] * k, a[1])
    return qpair(a[0] * k[0], a[1] * k[1])


def qdiv(a, b):
    n, d = a[0] * b[1], a[1] * b[0]
    if not d:
        raise ZeroDivisionError("division by a zero exponent")
    return qpair(n, d) if d > 0 else qpair(-n, -d)


def qlt(a, b):
    return a[0] * b[1] < b[0] * a[1]


def qle(a, b):
    return a[0] * b[1] <= b[0] * a[1]


def qmin(a, b):
    return a if a[0] * b[1] <= b[0] * a[1] else b


def qmax(a, b):
    return b if a[0] * b[1] <= b[0] * a[1] else a


Q0 = (0, 1)
Q1 = (1, 1)


class GaussianRational:
    """Exact complex number re + im*i with arbitrary-precision rational parts.

    Stored in lowest terms (the ground rational type is canonical), so
    equality is structural and hashing is consistent.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is RAT else rat(re)
        self.im = im if type(im) is RAT else rat(im)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero")
            return GaussianRational(1 / self.re)
        n = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * as_gaussian(other).inverse()

    def __rtruediv__(self, other):
        return as_gaussian(other) * self.inverse()

    def __pow__(self, k):
        """Integer power; a non-integral k raises FractionalExponent."""
        if not isinstance(k, int):
            k = rat(k)
            if not is_integer(k):
                from .series import FractionalExponent  # series imports this module
                raise FractionalExponent(f"({self})^({decimal_text(k)}) needs an integer exponent")
        k = int(k)
        if not self.im:
            if not self.re and k < 0:
                raise ZeroDivisionError("inverse of zero")
            return GaussianRational(self.re ** k)
        if k == 0:
            return GaussianRational(1)
        base = self if k > 0 else self.inverse()
        out = GaussianRational(1)
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, RAT)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real value hashes as its real part, which it compares equal to
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return decimal_text(self.re)
        im = _scalar_i(self.im)
        if not self.re:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{decimal_text(self.re)}{sign}{_scalar_i(abs(self.im))}"


def _scalar_i(v):
    if v == 1:
        return "i"
    if v == -1:
        return "-i"
    return f"{decimal_text(v)}*i"


def as_gaussian(x):
    """x as a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(rat(x))


def as_triple(c):
    """(re, im, den): a GaussianRational as integers over one positive
    denominator."""
    dr, di = int(c.re.denominator), int(c.im.denominator)
    d = dr if dr == di else lcm(dr, di)
    return int(c.re.numerator) * (d // dr), int(c.im.numerator) * (d // di), d


def triple_pow(t, n):
    """t^n for a nonzero triple t = (re, im, den) and any integer n: a real
    t takes (re^n, 0, den^n), of its reciprocal for n < 0, and only a
    Gaussian one ``_gaussian_pow``."""
    r, i, d = t
    if i:
        return _gaussian_pow(r, i, d, n)
    if n < 0:
        if not r:
            raise ZeroDivisionError("inverse of zero")
        r, d, n = (d, r, -n) if r > 0 else (-d, -r, -n)
    return r ** n, 0, d ** n


def _gaussian_pow(r, i, d, n):
    """(r + i*i)/d to the n-th power by squaring, for any nonzero triple."""
    if n < 0:
        if not r and not i:
            raise ZeroDivisionError("inverse of zero")
        r, i, d = r * d, -i * d, r * r + i * i
        n = -n
    dn = d ** n
    pr, pi = 1, 0
    while n:
        if n & 1:
            pr, pi = pr * r - pi * i, pr * i + pi * r
        n >>= 1
        if n:
            r, i = r * r - i * i, 2 * r * i
    return pr, pi, dn


def triple_mul(s, t):
    return s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0], s[2] * t[2]


def triple_reduce(t):
    """The triple t with its three integers divided by their gcd."""
    r, i, d = t
    if d == 1:
        return t
    g = gcd(r, i, d)
    return t if g == 1 else (r // g, i // g, d // g)


def gaussian(t):
    """The triple t as a GaussianRational."""
    r, i, d = t
    return GaussianRational(RAT(r) if d == 1 else RAT(r, d), RAT(i, d) if i else ZERO)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


# -- monomials ---------------------------------------------------------------

class QMonomial:
    """A single term c*q^e with c != 0; the argument form for x, y, z slots.

    ``triple`` is c as a reduced (re, im, den) triple and ``pair`` is e as
    a pair, so that products, powers, equality and the hash are integer
    work; ``coeff`` and ``exp`` give c and e in the ground types."""

    __slots__ = ("triple", "pair")

    def __init__(self, coeff, exp):
        t = (coeff, 0, 1) if type(coeff) is int else as_triple(as_gaussian(coeff))
        if not t[0] and not t[1]:
            raise ValueError("monomial coefficient must be nonzero")
        self.triple, self.pair = t, as_pair(exp)

    @property
    def coeff(self):
        return gaussian(self.triple)

    @property
    def exp(self):
        return qrat(self.pair)

    def __mul__(self, other):
        return monomial(triple_reduce(triple_mul(self.triple, other.triple)), qadd(self.pair, other.pair))

    def inverse(self):
        return monomial(triple_reduce(triple_pow(self.triple, -1)), (-self.pair[0], self.pair[1]))

    def __neg__(self):
        r, i, d = self.triple
        return monomial((-r, -i, d), self.pair)

    def __pow__(self, k):
        """Integer power; a rational k (a ground rational or a pair) is
        allowed only for the coefficient 1."""
        if type(k) is not int:
            k = as_pair(k)
            if k[1] != 1:
                if self.triple != (1, 0, 1):
                    from .series import FractionalExponent  # series imports this module
                    raise FractionalExponent(f"({self})^({decimal_text(qrat(k))}) needs an integer "
                                             "exponent unless the coefficient is 1")
                return monomial(self.triple, qmul(self.pair, k))
            k = k[0]
        return monomial(triple_reduce(triple_pow(self.triple, k)), qmul(self.pair, k))

    def __eq__(self, other):
        return isinstance(other, QMonomial) and self.triple == other.triple and self.pair == other.pair

    def __hash__(self):
        return hash((self.triple, self.pair))

    def __repr__(self):
        return f"QMonomial({self.coeff!r}, {self.exp!r})"

    def __str__(self):
        return format_term(self.coeff, self.exp)


def monomial(t, p):
    """The monomial of a reduced nonzero triple t and a pair p."""
    m = object.__new__(QMonomial)
    m.triple, m.pair = t, p
    return m


def qpow(e):
    """The monomial q^e."""
    return monomial((1, 0, 1), as_pair(e))


def mono(c, e=0):
    """The monomial c*q^e."""
    return QMonomial(c, e)


def format_exp(e):
    if is_integer(e) and e >= 0:
        return f"q^{decimal_text(e)}" if e != 1 else "q"
    return f"q^({decimal_text(e)})"


def format_term(c, e):
    """c*q^e as the series printer writes a term."""
    if e == 0:
        return str(c)
    qs = format_exp(e)
    if c == GR_ONE:
        return qs
    if c == GaussianRational(-1):
        return f"-{qs}"
    cs = str(c)
    if c.im and c.re:
        cs = f"({cs})"
    return f"{cs}*{qs}"
