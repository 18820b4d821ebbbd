"""Exact arithmetic on truncated sparse Puiseux series in q.

A series is a finite map {exponent -> coefficient} together with a precision
bound: coefficients are fully determined for every exponent strictly below
``precision``.  Exponents are arbitrary rationals, coefficients are Gaussian
rationals, and no operation ever rounds.  ``precision is None`` means the
series is exact (a Laurent polynomial known at every order).

The zero series carries an explicit precision: cancellation must not
silently promote knowledge.

Products, and through them Newton inversion, run on an integer lattice
(``_mul_terms``): the exponents of both factors become integer indices on
one grid and the coefficients integer numerators over a common
denominator, and the convolution is a big-int product of the
Kronecker-packed numerator vectors, so no rational arithmetic happens per
term pair.  The dict of rationals stays the public view of a series.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._rational import RAT, rat, is_integer, as_int

__all__ = [
    "GaussianRational",
    "QMonomial",
    "QSeries",
    "unit_fraction_expand",
    "qpow",
    "mono",
    "QSeriesError",
    "ZeroSeries",
    "PoleAtOne",
    "BeyondPrecision",
    "NonPositivePower",
    "FractionalExponent",
    "DivergentProduct",
    "DegenerateZ",
    "DegenerateX",
    "DegenerateDenominator",
    "DivisibilityViolation",
    "InsufficientPrecision",
]


class QSeriesError(Exception):
    """Base class for all engine errors."""


class ZeroSeries(QSeriesError):
    """Inversion of a series that is zero to its precision."""


class PoleAtOne(QSeriesError):
    """1/(1-c*q^k) with k=0 and c=1: the excluded degenerate case."""


class BeyondPrecision(QSeriesError):
    """Coefficient requested at an exponent >= the series precision."""


class NonPositivePower(QSeriesError):
    """Power substitution q -> q^k requires k > 0."""


class FractionalExponent(QSeriesError):
    """Operation defined only for integer exponents hit a fractional one."""


class DivergentProduct(QSeriesError):
    """Infinite product whose factor exponents do not grow."""


class DegenerateZ(QSeriesError):
    """z or x*z in an Appell-Lerch sum hit an integral power of the base."""


class DegenerateX(QSeriesError):
    """A Pochhammer factor in a universal-mock-theta sum vanished."""


class DegenerateDenominator(QSeriesError):
    """A theta-quotient denominator vanished to working precision."""


class DivisibilityViolation(QSeriesError):
    """Parameters of a two-term theta decomposition violate a | b or c | b."""


class InsufficientPrecision(QSeriesError):
    """Requested precision could not be achieved after retries."""


_R0 = RAT(0)
_R1 = RAT(1)


class GaussianRational:
    """Exact complex number re + im*i with arbitrary-precision rational parts.

    Stored in lowest terms (the ground rational type is canonical), so
    equality is structural and hashing is consistent.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is type(_R0) else rat(re)
        self.im = im if type(im) is type(_R0) else rat(im)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
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
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k):
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
        if isinstance(other, (int, Fraction, type(_R0))):
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


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(rat(x))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class QMonomial:
    """A single term c*q^e with c != 0; the argument form for x, y, z slots."""

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff, exp):
        coeff = _coerce(coeff)
        if coeff.is_zero():
            raise ValueError("monomial coefficient must be nonzero")
        self.coeff = coeff
        self.exp = exp if type(exp) is type(_R0) else rat(exp)

    def __mul__(self, other):
        return QMonomial(self.coeff * other.coeff, self.exp + other.exp)

    def inverse(self):
        return QMonomial(self.coeff.inverse(), -self.exp)

    def __neg__(self):
        return QMonomial(-self.coeff, self.exp)

    def __pow__(self, k):
        """Integer power; rational k is allowed only for coefficient 1."""
        if isinstance(k, int) or is_integer(rat(k)):
            k = int(k)
            return QMonomial(self.coeff ** k, self.exp * k)
        k = rat(k)
        if self.coeff != GR_ONE:
            raise FractionalExponent(
                f"({self})^({k}) needs an integer exponent unless the coefficient is 1"
            )
        return QMonomial(GR_ONE, self.exp * k)

    def is_one(self):
        return self.coeff == GR_ONE and not self.exp

    def __eq__(self, other):
        return (
            isinstance(other, QMonomial)
            and self.coeff == other.coeff
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.coeff, self.exp))

    def __repr__(self):
        return f"QMonomial({self.coeff!r}, {self.exp!r})"

    def __str__(self):
        return _format_term(self.coeff, self.exp)


def qpow(e):
    """The monomial q^e."""
    return QMonomial(GR_ONE, rat(e))


def mono(c, e=0):
    """The monomial c*q^e."""
    return QMonomial(c, rat(e))


def _pmin(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


class QSeries:
    """Truncated sparse Puiseux series: term map plus a strict precision bound."""

    __slots__ = ("terms", "precision")

    def __init__(self, terms=None, precision=None, _clean=False):
        if precision is not None and type(precision) is not type(_R0):
            precision = rat(precision)
        if terms is None:
            terms = {}
        if not _clean:
            cleaned = {}
            for e, c in terms.items():
                if type(e) is not type(_R0):
                    e = rat(e)
                c = _coerce(c)
                if c.is_zero():
                    continue
                if precision is not None and e >= precision:
                    continue
                cleaned[e] = c
            terms = cleaned
        self.terms = terms
        self.precision = precision

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(precision=None):
        return QSeries({}, precision, _clean=True)

    @staticmethod
    def one(precision=None):
        return QSeries({_R0: GR_ONE}, precision)

    @staticmethod
    def constant(c, precision=None):
        return QSeries({_R0: _coerce(c)}, precision)

    @staticmethod
    def from_monomial(m, precision=None):
        return QSeries({m.exp: m.coeff}, precision)

    # -- inspection ----------------------------------------------------------

    def is_zero(self):
        """True when no coefficient below the precision is nonzero."""
        return not self.terms

    def low_degree(self):
        """Least stored exponent; for a zero series, its precision (None = exact 0)."""
        if self.terms:
            return min(self.terms)
        return self.precision

    def coeff(self, e):
        e = rat(e)
        if self.precision is not None and e >= self.precision:
            raise BeyondPrecision(
                f"coefficient at q^{e} requested, series known only below q^{self.precision}"
            )
        return self.terms.get(e, GR_ZERO)

    def items_sorted(self):
        return sorted(self.terms.items())

    def agrees_with(self, other):
        """Equality on every exponent below the smaller precision."""
        p = _pmin(self.precision, other.precision)
        for e, c in self.terms.items():
            if (p is None or e < p) and other.terms.get(e, GR_ZERO) != c:
                return False
        for e, c in other.terms.items():
            if (p is None or e < p) and self.terms.get(e, GR_ZERO) != c:
                return False
        return True

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other)
        p = _pmin(self.precision, other.precision)
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_term(out, e, c)
        if p is not None:
            out = {e: c for e, c in out.items() if e < p}
        return QSeries(out, p, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({e: -c for e, c in self.terms.items()}, self.precision, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QMonomial):
            return self.mul_monomial(other)
        if not isinstance(other, QSeries):
            other = QSeries.constant(other)
        la = self.low_degree()
        lb = other.low_degree()
        # min(a.prec + lowdeg(b), b.prec + lowdeg(a)); None means unbounded
        p = None
        if self.precision is not None and lb is not None:
            p = self.precision + lb
        if other.precision is not None and la is not None:
            q = other.precision + la
            p = q if p is None else min(p, q)
        out = _mul_terms(self.terms, other.terms, p)
        return QSeries(out, p, _clean=True)

    __rmul__ = __mul__

    def mul_monomial(self, m):
        p = None if self.precision is None else self.precision + m.exp
        c0, e0 = m.coeff, m.exp
        return QSeries({e + e0: c * c0 for e, c in self.terms.items()}, p, _clean=True)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.invert() ** (-k)
        out = QSeries.one(None)
        base = self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return out

    def invert(self, order=None):
        """Multiplicative inverse by Newton iteration.

        The result is correct below ``a.precision - 2*lowdeg(a)``; for an
        exact (polynomial) input, ``order`` fixes the target precision
        instead and is mandatory unless the input is a single monomial.
        """
        if not self.terms:
            raise ZeroSeries("cannot invert a series that is zero to its precision")
        d = min(self.terms)
        lead = self.terms[d]
        if self.precision is None and len(self.terms) == 1:
            inv = QSeries({-d: lead.inverse()}, None, _clean=True)
            return inv if order is None else inv.truncate(order)
        # relative precision of the unit part
        if self.precision is not None:
            relative = self.precision - d
            if order is not None:
                relative = min(relative, rat(order) + d)
        else:
            if order is None:
                raise ValueError("order is required to invert an exact multi-term series")
            relative = rat(order) + d
        if relative <= 0:  # the inverse starts at q^-d, at or past the order
            return QSeries.zero(relative - d)
        lead_inv = lead.inverse()
        unit = {e - d: c * lead_inv for e, c in self.terms.items() if e - d < relative}
        del unit[_R0]
        if not unit:
            v = {_R0: GR_ONE}
        else:
            gap = min(unit)
            unit[_R0] = GR_ONE
            v = {_R0: GR_ONE}
            p = gap
            two = GaussianRational(2)
            while p < relative:
                p = min(p * 2, relative)
                uv = _mul_terms(unit, v, p)
                t = {e: -c for e, c in uv.items()}
                t[_R0] = t.get(_R0, GR_ZERO) + two
                v = _mul_terms(v, t, p)
        out = {e - d: c * lead_inv for e, c in v.items()}
        return QSeries(out, relative - d, _clean=True)

    # -- reshaping -----------------------------------------------------------

    def truncate(self, order):
        order = rat(order)
        p = order if self.precision is None else min(self.precision, order)
        return QSeries({e: c for e, c in self.terms.items() if e < p}, p, _clean=True)

    def substitute_power(self, k):
        """q -> q^k termwise; exponents and the precision scale by k."""
        k = rat(k)
        if k <= 0:
            raise NonPositivePower(f"substitute_power requires k > 0, got {k}")
        p = None if self.precision is None else self.precision * k
        return QSeries({e * k: c for e, c in self.terms.items()}, p, _clean=True)

    def substitute_monomial(self, m):
        """q -> c*q^e on an integer-exponent series (e > 0)."""
        if m.exp <= 0:
            raise NonPositivePower(f"substitution base must have positive exponent, got {m}")
        out = {}
        c0 = m.coeff
        for e, c in self.terms.items():
            if not is_integer(e):
                raise FractionalExponent(
                    f"q -> {m} substitution requires integer exponents, found q^{e}"
                )
            out[e * m.exp] = c * (c0 ** as_int(e))
        p = None if self.precision is None else self.precision * m.exp
        return QSeries(out, p, _clean=True)

    def negate_base(self):
        """q -> -q (integer exponents only)."""
        return self.substitute_monomial(QMonomial(GaussianRational(-1), _R1))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.precision == other.precision
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.precision))

    def __repr__(self):
        return f"QSeries({self.terms!r}, precision={self.precision!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.items_sorted():
            t = _format_term(c, e)
            if not parts:
                parts.append(t)
            elif t.startswith("-"):
                parts.append(f"- {t[1:]}")
            else:
                parts.append(f"+ {t}")
        return " ".join(parts)


def _wrap(re, im):
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


def add_term(out, e, c):
    """Add c into out[e], dropping the entry when the sum is zero."""
    acc = out.get(e)
    s = c if acc is None else acc + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def _mul_terms(ta, tb, bound):
    """Convolution of two term dicts, dropping exponents >= bound.

    Runs on an integer lattice.  Terms that cannot reach ``bound`` are
    dropped; the exponents of both factors go onto one grid (the lcm L of
    their denominators, each factor's least exponent as its offset, the gcd
    of all index differences as the step), and each factor's coefficients
    over one common denominator, leaving integer numerators at integer
    indices.  Their convolution is a big-int product of the Kronecker-packed
    vectors (one for real factors, up to three for Gaussian ones), or, for a
    tiny product or a lattice much longer than its terms, a plain loop over
    the term pairs.  Only the surviving coefficients are boxed as rationals.
    """
    if not ta or not tb:
        return {}
    L = lcm(*{e.denominator for e in ta}, *{e.denominator for e in tb})
    pa = _grid_points(ta, L)
    pb = _grid_points(tb, L)
    lo_a, lo_b = pa[0][0], pb[0][0]
    top = None  # grid exponents x with x < top are below the bound
    if bound is not None:
        top = -(-int(bound.numerator) * L // int(bound.denominator))
        pa = [p for p in pa if p[0] + lo_b < top]
        pb = [p for p in pb if p[0] + lo_a < top]
        if not pa or not pb:
            return {}
    step = gcd(*[x - lo_a for x, _ in pa], *[x - lo_b for x, _ in pb]) or 1
    count = (pa[-1][0] - lo_a + pb[-1][0] - lo_b) // step + 1
    if top is not None:
        count = min(count, -((lo_a + lo_b - top) // step))
    a, da = _numerators(pa, lo_a, step)
    b, db = _numerators(pb, lo_b, step)
    if len(pa) * len(pb) <= _TINY_PAIRS + _PAIRS_PER_SLOT * count:
        slots = _convolve(a, b, count)
    else:
        slots = _kronecker(a, b, count)
    base, den = lo_a + lo_b, da * db
    return {
        _ratio(base + n * step, L): _wrap(_ratio(re, den), _ratio(im, den) if im else _R0)
        for n, re, im in slots
    }


def _ratio(num, den):
    """num/den in the ground type; for den == 1 without the gcd."""
    return RAT(num) if den == 1 else RAT(num, den)


# The pair loop costs about one unit per term pair; the big-int product
# about two per lattice slot, which it visits even when the slot is empty,
# plus a fixed set-up.  So a tiny product, or one whose lattice is much
# longer than its terms, takes the pair loop.
_TINY_PAIRS = 64
_PAIRS_PER_SLOT = 2


def _grid_points(terms, L):
    """(integer exponent on the 1/L grid, coefficient), ascending."""
    return sorted(
        (int(e.numerator) * (L // int(e.denominator)), c) for e, c in terms.items()
    )


def _numerators(points, lo, step):
    """Lattice indices and integer numerators over one common denominator:
    ((indices, real numerators, imaginary numerators or None), denominator)."""
    coeffs = [c for _, c in points]
    real = not any(c.im for c in coeffs)
    dens = {c.re.denominator for c in coeffs}
    if not real:
        dens.update(c.im.denominator for c in coeffs)
    den = lcm(*map(int, dens))
    idx = [(x - lo) // step for x, _ in points]
    re = [int(c.re.numerator) * (den // int(c.re.denominator)) for c in coeffs]
    im = None if real else [
        int(c.im.numerator) * (den // int(c.im.denominator)) for c in coeffs
    ]
    return (idx, re, im), den


def _convolve(a, b, count):
    """Nonzero (slot, re, im) of the pair-by-pair convolution below ``count``."""
    ia, ra, xa = a
    ib, rb, xb = b
    acc = {}
    get = acc.get
    if xa is None and xb is None:
        for i, r in zip(ia, ra):
            for j, s in zip(ib, rb):
                n = i + j
                if n >= count:
                    break
                acc[n] = get(n, 0) + r * s
        return [(n, v, 0) for n, v in acc.items() if v]
    xa = xa or [0] * len(ia)
    xb = xb or [0] * len(ib)
    for i, r, x in zip(ia, ra, xa):
        for j, s, y in zip(ib, rb, xb):
            n = i + j
            if n >= count:
                break
            re, im = get(n, (0, 0))
            acc[n] = (re + r * s - x * y, im + r * y + x * s)
    return [(n, re, im) for n, (re, im) in acc.items() if re or im]


def _kronecker(a, b, count):
    """Nonzero (slot, re, im) of the convolution below ``count``, by
    Kronecker substitution: each numerator vector becomes one integer with
    a signed value per slot of w bits, and slot n of the product of two
    such integers is the n-th convolution coefficient."""
    ia, ra, xa = a
    ib, rb, xb = b
    big_a = max(map(abs, ra + (xa or []))).bit_length()
    big_b = max(map(abs, rb + (xb or []))).bit_length()
    # |coefficient| <= 2 * min(len) * max|a| * max|b| < 2^(w - 1)
    wb = (big_a + big_b + min(len(ia), len(ib)).bit_length() + 2 + 7) // 8
    ar, br = _pack(ia, ra, wb), _pack(ib, rb, wb)
    if xa is None and xb is None:
        return [(n, v, 0) for n, v in enumerate(_unpack(ar * br, count, wb)) if v]
    # Karatsuba's three products; a real factor has ai or bi = 0, which
    # leaves two
    ai = 0 if xa is None else _pack(ia, xa, wb)
    bi = 0 if xb is None else _pack(ib, xb, wb)
    rr, ii = ar * br, ai * bi
    re, im = rr - ii, (ar + ai) * (br + bi) - rr - ii
    return [
        (n, r, x)
        for n, (r, x) in enumerate(zip(_unpack(re, count, wb), _unpack(im, count, wb)))
        if r or x
    ]


def _pack(idx, vals, wb):
    """sum(v * 2^(8*wb*i)) over the values v at lattice indices i.

    Every slot is written as v + 2^(8*wb - 1), which is nonnegative, and
    the same offset in every slot is subtracted at the end."""
    half = 1 << (8 * wb - 1)
    zero = half.to_bytes(wb, "little")
    size = idx[-1] + 1
    slots = [zero] * size
    for i, v in zip(idx, vals):
        slots[i] = (v + half).to_bytes(wb, "little")
    return int.from_bytes(b"".join(slots), "little") - int.from_bytes(zero * size, "little")


def _unpack(packed, count, wb):
    """The first ``count`` signed slots of a packed integer.

    A negative slot borrows one from the slot above it.  Adding 2^(8*wb - 1)
    to every slot first makes each slot nonnegative, so no borrow crosses a
    slot and each reads off its own bytes."""
    half = 1 << (8 * wb - 1)
    size = count * wb
    offset = int.from_bytes(half.to_bytes(wb, "little") * count, "little")
    buf = ((packed + offset) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    from_bytes = int.from_bytes
    return [from_bytes(buf[k:k + wb], "little") - half for k in range(0, size, wb)]


def unit_fraction_expand(c, k, order):
    """Expansion of 1/(1 - c*q^k) to precision ``order``.

    k > 0 gives the geometric series; k = 0 the constant 1/(1-c); k < 0 is
    rewritten as -q^(-k)/c / (1 - q^(-k)/c) and expanded geometrically, which
    is the ascending-power expansion valid inside the unit disk.
    """
    c = _coerce(c)
    k = rat(k)
    order = rat(order)
    if k == 0:
        if c == GR_ONE:
            raise PoleAtOne("1/(1 - q^0) is excluded: argument hit a power of q")
        return QSeries.constant((GR_ONE - c).inverse(), order)
    out = {}
    if k > 0:
        n = 0
        acc = GR_ONE
        e = _R0
        while e < order:
            out[e] = acc
            n += 1
            acc = acc * c
            e = k * n
    else:
        cinv = c.inverse()
        n = 1
        acc = -cinv
        e = -k
        while e < order:
            out[e] = acc
            n += 1
            acc = acc * cinv
            e = -k * n
    return QSeries(out, order, _clean=True)


def _format_exp(e):
    if is_integer(e) and e >= 0:
        return f"q^{e}" if e != 1 else "q"
    return f"q^({e})"


def _format_term(c, e):
    if e == 0:
        return str(c)
    qs = _format_exp(e)
    if c == GR_ONE:
        return qs
    if c == GaussianRational(-1):
        return f"-{qs}"
    cs = str(c)
    if c.im and c.re:
        cs = f"({cs})"
    return f"{cs}*{qs}"


def format_series(s, order=None):
    """Render a series for CLI output, ascending exponents."""
    if not s.terms:
        o = order if order is not None else s.precision
        return f"0 (+O(q^{o}))" if o is not None else "0"
    return str(s)
