"""Ground types: the rationals and the Gaussian rationals over them.

All exponents and coefficient parts are exact rationals, the stdlib
``fractions.Fraction``; a coefficient is a ``GaussianRational``, and in the
hot loops an (re, im, den) triple of integers over a positive denominator.
"""

from fractions import Fraction
from math import lcm

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


def as_int(value):
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {value}")
    return int(value.numerator)


def floor(value):
    return int(value // 1)


def num_den(value):
    """(numerator, denominator) as plain ints, e.g. for JSON output."""
    return int(value.numerator), int(value.denominator)


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
                raise FractionalExponent(f"({self})^({k}) needs an integer exponent")
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
            return str(self.re)
        im = _scalar_i(self.im)
        if not self.re:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_scalar_i(abs(self.im))}"


def _scalar_i(v):
    if v == 1:
        return "i"
    if v == -1:
        return "-i"
    return f"{v}*i"


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
    """t^n for a nonzero triple t = (re, im, den) and any integer n."""
    r, i, d = t
    if n < 0:
        if i:
            r, i, d = r * d, -i * d, r * r + i * i
        else:
            r, d = (d, r) if r > 0 else (-d, -r)
        n = -n
    if not i:
        return r ** n, 0, d ** n
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


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
