"""Exact arithmetic on truncated sparse Puiseux series in q.

A series is a finite map {exponent -> coefficient} together with a precision
bound: coefficients are fully determined for every exponent strictly below
``precision``.  Exponents are arbitrary rationals, coefficients are Gaussian
rationals, and no operation ever rounds.  ``precision is None`` means the
series is exact (a Laurent polynomial known at every order).

The zero series carries an explicit precision: cancellation must not
silently promote knowledge.

A series is stored on an integer lattice: slot i stands for the exponent
(lo + step*i)/L, and holds the coefficient (re[i] + im[i]*i)/den, with
integer numerator vectors re and im (im is None for a real series) over one
common positive denominator.  Neither end of the vectors is zero, den shares
no factor with all the numerators, and no slot lies at or past the
precision.  So sums place all their terms on one grid and add the vectors,
shifts and substitutions move the grid and scale the vectors, truncation
slices, and products (with Newton inversion through them) convolve the
vectors: one big-int product of their Kronecker-packed forms, or a loop over
the term pairs when the product is tiny or its lattice much longer than its
terms.  A factor 1 - c*q^k is never expanded: multiplying by it is one
shifted add, and dividing by it one pass over the lattice.  No rational
number is built per term.  ``QSeries.terms`` is a read-only view
{exponent: GaussianRational} of the same series, boxed when first read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, neg, or_, sub
from types import MappingProxyType

from ._rational import RAT, rat, is_integer

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
    "LatticeTooLarge",
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
    """Requested precision could not be achieved, or an internal precision
    check failed."""


class LatticeTooLarge(QSeriesError):
    """A series would need more lattice slots than are allocated at once."""


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
        """Integer power; a non-integral k raises FractionalExponent."""
        if not isinstance(k, int):
            k = rat(k)
            if not is_integer(k):
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


def _prec(p):
    return p if p is None or type(p) is type(_R0) else rat(p)


class QSeries:
    """Truncated sparse Puiseux series on an integer lattice (see the module
    docstring) with a strict precision bound."""

    __slots__ = ("_L", "_lo", "_step", "_re", "_im", "_den", "precision", "_view")

    def __new__(cls, terms=None, precision=None):
        """The series of a map {exponent: coefficient}; zero coefficients and
        exponents at or past ``precision`` are dropped."""
        points = []
        dens = []
        for e, c in (terms or {}).items():
            e = rat(e)
            c = as_triple(_coerce(c))
            points.append((e, c))
            dens.append(int(e.denominator))
        L = lcm(*dens)
        return lattice_series(
            L, [(int(e.numerator) * (L // int(e.denominator)), c) for e, c in points],
            _prec(precision))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(precision=None):
        return _make(1, 0, 1, [], None, 1, _prec(precision))

    @staticmethod
    def one(precision=None):
        return _make(1, 0, 1, [1], None, 1, _prec(precision))

    @staticmethod
    def constant(c, precision=None):
        return lattice_series(1, [(0, as_triple(_coerce(c)))], _prec(precision))

    @staticmethod
    def from_monomial(m, precision=None):
        e = m.exp
        return lattice_series(int(e.denominator), [(int(e.numerator), as_triple(m.coeff))],
                              _prec(precision))

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self):
        """Read-only map {exponent: GaussianRational} of the nonzero terms."""
        view = self._view
        if view is None:
            L, lo, step, den, re, im = (self._L, self._lo, self._step, self._den,
                                        self._re, self._im)
            view = self._view = MappingProxyType({
                _ratio(lo + step * i, L): _box(re[i], 0 if im is None else im[i], den)
                for i in _occupied(re, im)
            })
        return view

    def is_zero(self):
        """True when no coefficient below the precision is nonzero."""
        return not self._re

    def low_degree(self):
        """Least stored exponent; for a zero series, its precision (None = exact 0)."""
        if self._re:
            return _ratio(self._lo, self._L)
        return self.precision

    def coeff(self, e):
        e = rat(e)
        if self.precision is not None and e >= self.precision:
            raise BeyondPrecision(
                f"coefficient at q^{e} requested, series known only below q^{self.precision}"
            )
        x, r = divmod(int(e.numerator) * self._L, int(e.denominator))
        i, r2 = divmod(x - self._lo, self._step)
        if r or r2 or not 0 <= i < len(self._re):
            return GR_ZERO
        return _box(self._re[i], 0 if self._im is None else self._im[i], self._den)

    def items_sorted(self):
        return sorted(self.terms.items())

    def agrees_with(self, other):
        """Equality on every exponent below the smaller precision."""
        return (self - other).is_zero()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other)
        return sum_series((self, other))

    __radd__ = __add__

    def __neg__(self):
        im = None if self._im is None else list(map(neg, self._im))
        return _make(self._L, self._lo, self._step, list(map(neg, self._re)), im,
                     self._den, self.precision)

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
        if not self._re or not other._re:
            return QSeries.zero(p)
        L = lcm(self._L, other._L)
        lo_a, step_a = _on_grid(self, L)
        lo_b, step_b = _on_grid(other, L)
        step = gcd(step_a, step_b)
        lo = lo_a + lo_b
        count = ((len(self._re) - 1) * step_a + (len(other._re) - 1) * step_b) // step + 1
        if p is not None:
            count = min(count, _slots_below(p, L, lo, step))
            if count <= 0:
                return QSeries.zero(p)
        count = _slots(count)
        re, im = _convolution(_spread(self, step_a // step, count),
                              _spread(other, step_b // step, count), count)
        return _make(L, lo, step, re, im, self._den * other._den, p)

    __rmul__ = __mul__

    def mul_monomial(self, m):
        p = None if self.precision is None else self.precision + m.exp
        if not self._re:
            return QSeries.zero(p)
        en, ed = int(m.exp.numerator), int(m.exp.denominator)
        L = lcm(self._L, ed)
        lo, step = _on_grid(self, L)
        cr, ci, cd = as_triple(m.coeff)
        re, im = _scale(self._re, self._im, cr, ci)
        return _make(L, lo + en * (L // ed), step, re, im, self._den * cd, p)

    def times_one_minus(self, m):
        """self * (1 - m) for a monomial m = c*q^k: one shifted add, with
        the precision of the product by the exact binomial."""
        c, k = m.coeff, m.exp
        if not k and c == GR_ONE:
            return QSeries.zero(None)   # times an exact zero
        p = None if self.precision is None else self.precision + min(k, _R0)
        if not self._re:
            return QSeries.zero(p)
        kn, kd = int(k.numerator), int(k.denominator)
        L = lcm(self._L, kd)
        lo, step = _on_grid(self, L)
        cr, ci, cd = as_triple(c)
        re, im = _scale(self._re, self._im, -cr, -ci)
        return _sum_lattices(((L, lo, step, self._re, self._im, self._den),
                              (L, lo + kn * (L // kd), step, re, im, self._den * cd)), p)

    def over_one_minus(self, m, order):
        """self / (1 - m) for a monomial m = c*q^k, below ``order``.

        Equal in value and precision to
        ``(self * unit_fraction_expand(c, k, order)).truncate(order)``.  For
        k > 0 it is one pass over the lattice: slot i of the quotient is
        t_i = a_i + c*t_(i-s), s being k in slots, so with c = cn/cd each
        block of s slots is a_j*cd^j + cn*t_(j-1) over the denominator
        cd^j, and every block is then scaled to the last one's.  k < 0 is
        the reflected form -q^(-k)/c / (1 - q^(-k)/c), and k = 0 the
        constant 1/(1 - c).
        """
        order = _prec(order)
        c, k = m.coeff, m.exp
        ld = self.low_degree()
        if k < 0:
            c = c.inverse()
            out = self.mul_monomial(QMonomial(-c, -k)).over_one_minus(QMonomial(c, -k), order)
            return out if ld is None else out.truncate(order + ld)
        p = order if ld is None else min(order, order + ld)
        if self.precision is not None:
            p = min(p, self.precision)
        if not k:
            if c == GR_ONE:
                raise PoleAtOne("1/(1 - q^0) is excluded: argument hit a power of q")
            return self.mul_monomial(QMonomial((GR_ONE - c).inverse(), _R0)).truncate(p)
        if not self._re or ld >= p:
            return QSeries.zero(p)
        kn, kd = int(k.numerator), int(k.denominator)
        L = lcm(self._L, kd)
        lo, step = _on_grid(self, L)
        K = kn * (L // kd)
        g = gcd(step, K)
        n = _slots(_slots_below(p, L, lo, g))
        re, im = _spread(self, step // g, n)
        pad = [0] * (n - len(re))
        cr, ci, cd = as_triple(c)
        if im is not None or ci:
            im = [0] * n if im is None else im + pad
        stride = K // g
        re, im = _divide_pass(re + pad, im, stride, cr, ci, cd)
        return _make(L, lo, g, re, im, self._den * cd ** ((n - 1) // stride), p)

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
        instead and is mandatory unless the input is a single monomial,
        whose inverse is returned exact whatever ``order`` is.
        """
        if not self._re:
            raise ZeroSeries("cannot invert a series that is zero to its precision")
        d = self.low_degree()
        r0 = self._re[0]
        x0 = 0 if self._im is None else self._im[0]
        norm = r0 * r0 + x0 * x0
        # 1/lead = den * (r0 - x0*i) / norm
        inv_r, inv_i = self._den * r0, -self._den * x0
        if self.precision is None and len(self._re) == 1:
            return _make(self._L, -self._lo, 1, [inv_r], [inv_i], norm, None)
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
        # the unit part self/lead on slots 0 .. n-1, from the exponent d on
        n = _slots(_slots_below(relative, self._L, 0, self._step))
        unit_r, unit_i = _scale(self._re[:n], None if self._im is None else self._im[:n], r0, -x0)
        unit_r, unit_i, unit_den = _reduce(unit_r, unit_i, norm)
        v_r, v_i, v_den = [1], None, 1
        gap = next(_occupied(unit_r[1:], None if unit_i is None else unit_i[1:]), None)
        if gap is not None:
            # Newton: v <- v (2 - unit v), correct below twice as many slots
            p = gap + 1
            while p < n:
                p = min(p * 2, n)
                uv_r, uv_i = _convolution((unit_r, unit_i), (v_r, v_i), p)
                uv_den = unit_den * v_den
                t_r = list(map(neg, uv_r))
                t_r[0] += 2 * uv_den
                t_i = None if uv_i is None else list(map(neg, uv_i))
                v_r, v_i = _convolution((v_r, v_i), (t_r, t_i), p)
                v_r, v_i, v_den = _reduce(v_r, v_i, v_den * uv_den)
        out_r, out_i = _scale(v_r, v_i, inv_r, inv_i)
        return _make(self._L, -self._lo, self._step, out_r, out_i, v_den * norm, relative - d)

    # -- reshaping -----------------------------------------------------------

    def truncate(self, order):
        order = _prec(order)
        if self.precision is not None and self.precision <= order:
            return self
        return _make(self._L, self._lo, self._step, self._re, self._im, self._den, order)

    def substitute_power(self, k):
        """q -> q^k termwise; exponents and the precision scale by k."""
        k = rat(k)
        if k <= 0:
            raise NonPositivePower(f"substitute_power requires k > 0, got {k}")
        p = None if self.precision is None else self.precision * k
        kn, kd = int(k.numerator), int(k.denominator)
        return _make(self._L * kd, self._lo * kn, self._step * kn,
                     self._re, self._im, self._den, p)

    def substitute_monomial(self, m):
        """q -> c*q^e on an integer-exponent series (e > 0)."""
        if m.exp <= 0:
            raise NonPositivePower(f"substitution base must have positive exponent, got {m}")
        p = None if self.precision is None else self.precision * m.exp
        if not self._re:
            return QSeries.zero(p)
        L, lo, step, re, im = self._L, self._lo, self._step, self._re, self._im
        # exponents are integers at the slots lo/L + (multiples of stride)
        stride = L // gcd(L, step)
        bad = 0 if lo % L else next(
            (i for i in range(len(re))
             if i % stride and (re[i] or (im is not None and im[i]))), None)
        if bad is not None:
            raise FractionalExponent(
                f"q -> {m} substitution requires integer exponents, "
                f"found q^{_ratio(lo + step * bad, L)}"
            )
        if stride > 1:
            re = re[::stride]
            im = None if im is None else im[::stride]
        # slot i holds the integer exponent e0 + s*i; it goes to e*(e0 + s*i)
        # with its coefficient times c^(e0 + s*i)
        e0, s = lo // L, step * stride // L
        den = self._den
        if m.coeff != GR_ONE:
            cr, ci, cd = as_triple(m.coeff ** e0)
            re, im = _scale(re, im, cr, ci)
            re, im, twist_den = _twist(re, im, as_triple(m.coeff ** s))
            den *= cd * twist_den
        en, ed = int(m.exp.numerator), int(m.exp.denominator)
        return _make(ed, e0 * en, s * en, re, im, den, p)

    def negate_base(self):
        """q -> -q (integer exponents only)."""
        return self.substitute_monomial(QMonomial(GaussianRational(-1), _R1))

    # -- comparison / display --------------------------------------------------

    def _key(self):
        """The lattice data in one form for equal series: the grid spacing
        widened to the gcd of the occupied slots, then reduced with L."""
        re, im = self._re, self._im
        g = gcd(*_occupied(re, im)) or 1
        h = gcd(self._L, self._lo, self._step * g)
        return (self._L // h, self._lo // h, self._step * g // h, tuple(re[::g]),
                None if im is None else tuple(im[::g]), self._den)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.precision == other.precision
            and (self is other or self._key() == other._key())
        )

    def __hash__(self):
        return hash((self._key(), self.precision))

    def __repr__(self):
        return f"QSeries({dict(self.terms)!r}, precision={self.precision!r})"

    def __str__(self):
        if not self._re:
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


# -- the lattice ----------------------------------------------------------------

def _make(L, lo, step, re, im, den, precision):
    """The series with slot i at exponent (lo + step*i)/L holding
    (re[i] + im[i]*i)/den, den > 0: slots at or past the precision are
    dropped, zeros at both ends trimmed, and the denominator and the grid
    reduced."""
    n = len(re)
    if precision is not None:
        n = min(n, _slots_below(precision, L, lo, step))
    k = 0
    if im is None:
        while n and not re[n - 1]:
            n -= 1
        while k < n and not re[k]:
            k += 1
    else:
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        while k < n and not re[k] and not im[k]:
            k += 1
    if k or n < len(re):
        re = re[k:n]
        im = None if im is None else im[k:n]
        lo += step * k
    s = object.__new__(QSeries)
    s.precision = precision
    s._view = None
    if not re:
        s._L, s._lo, s._step, s._re, s._im, s._den = 1, 0, 1, [], None, 1
        return s
    if im is not None and not any(im):
        im = None
    re, im, den = _reduce(re, im, den)
    if len(re) == 1:
        step = g = gcd(L, lo)
    else:
        g = gcd(L, lo, step)
    if g != 1:
        L, lo, step = L // g, lo // g, step // g
    s._L, s._lo, s._step, s._re, s._im, s._den = L, lo, step, re, im, den
    return s


def lattice_series(L, points, precision):
    """The sum of c*q^(x/L) over ``points``, pairs of an integer x and a
    coefficient c = (re, im, den) of integers with den > 0; points at the
    same x add up."""
    if precision is not None:
        top, pd = int(precision.numerator) * L, int(precision.denominator)
        points = [pt for pt in points if pt[0] * pd < top]
    if not points:
        return QSeries.zero(precision)
    xs = [x for x, _ in points]
    lo = min(xs)
    step = gcd(*[x - lo for x in xs]) or 1
    den = lcm(*[c[2] for _, c in points])
    re = [0] * _slots((max(xs) - lo) // step + 1)
    im = [0] * len(re) if any(c[1] for _, c in points) else None
    for x, (r, i, d) in points:
        k = (x - lo) // step
        f = den // d
        re[k] += r * f
        if im is not None:
            im[k] += i * f
    return _make(L, lo, step, re, im, den, precision)


def sum_series(parts, precision=None):
    """The sum of the series ``parts`` below ``precision`` and below each
    part's own precision, all parts placed on one grid at once."""
    p = precision
    for s in parts:
        p = _pmin(p, s.precision)
    live = [s for s in parts if s._re]
    if len(live) == 1:
        s = live[0]
        return s if p is None else s.truncate(p)
    return _sum_lattices([(s._L, s._lo, s._step, s._re, s._im, s._den) for s in live], p)


def geometric_runs(L, runs, precision):
    """The sum of lead*ratio^j*q^((x + s*j)/L) over j >= 0 and the ``runs``
    (x, s, lead, ratio), s > 0, below ``precision``; lead and ratio are
    (re, im, den) triples of integers with den > 0, and a zero ratio makes
    a run of one term."""
    parts = []
    for x, s, (lr, li, ld), ratio in runs:
        n = _slots(_slots_below(precision, L, x, s))
        if not ratio[0] and not ratio[1]:
            n = min(n, 1)
        if n > 0:
            re, im, den = _twist([lr] * n, [li] * n if li else None, ratio)
            parts.append((L, x, s, re, im, ld * den))
    return _sum_lattices(parts, precision)


def _sum_lattices(parts, precision):
    """The sum of lattice parts (L, lo, step, re, im, den), none of them
    empty, below ``precision``: one vector on the common grid, one _make."""
    if not parts:
        return QSeries.zero(precision)
    L = lcm(*[part[0] for part in parts])
    grids = [(part[1] * (L // part[0]), part[2] * (L // part[0])) for part in parts]
    lo = min([x for x, _ in grids])
    step = gcd(*[s for _, s in grids], *[x - lo for x, _ in grids])
    den = lcm(*[part[5] for part in parts])
    n = (max([x + (len(part[3]) - 1) * s for part, (x, s) in zip(parts, grids)]) - lo) // step + 1
    if precision is not None:
        n = min(n, _slots_below(precision, L, lo, step))
    n = _slots(n)
    re = [0] * n
    im = None if all([part[4] is None for part in parts]) else [0] * n
    fresh = True    # re and im still all zero
    for (_, _, _, vr, vi, d), (x, s) in zip(parts, grids):
        o, k, f = (x - lo) // step, s // step, den // d
        if o >= n:
            continue
        cnt = min(len(vr), -(-(n - o) // k))
        cut = slice(o, o + (cnt - 1) * k + 1, k)
        for out, v in ((re, vr), (im, vi)):
            if v is not None:
                v = v[:cnt] if f == 1 else list(map(f.__mul__, v[:cnt]))
                out[cut] = v if fresh else map(add, out[cut], v)
        fresh = False
    return _make(L, lo, step, re, im, den, precision)


def _divide_pass(re, im, stride, cr, ci, cd):
    """The numerators of t_i = v_i + c*t_(i - stride), c = (cr + ci*i)/cd,
    for the numerator vectors v = (re, im), im None only when v and c are
    real.  Block j of ``stride`` slots is v_j*cd^j + (cr + ci*i)*t_(j-1)
    over cd^j; the blocks come back as vectors over cd^J, J the last."""
    tr, ti = re[:stride], None if im is None else im[:stride]
    blocks_r, blocks_i = [tr], [ti]
    scale = 1
    for j0 in range(stride, len(re), stride):
        scale *= cd
        tr, ti = _scale(tr, ti, cr, ci)
        tr = list(map(add, map(scale.__mul__, re[j0:j0 + stride]), tr))
        if ti is not None:
            ti = list(map(add, map(scale.__mul__, im[j0:j0 + stride]), ti))
        blocks_r.append(tr)
        blocks_i.append(ti)
    return (_rescale(blocks_r, len(re), stride, cd),
            None if ti is None else _rescale(blocks_i, len(re), stride, cd))


def _rescale(blocks, n, stride, cd):
    """The blocks, block j over cd^j, as one vector over cd^J."""
    if cd == 1:
        return list(chain.from_iterable(blocks))
    out = [0] * n
    scale = 1
    for j in range(len(blocks) - 1, -1, -1):
        out[j * stride:(j + 1) * stride] = map(scale.__mul__, blocks[j])
        scale *= cd
    return out


def exponent_grid(*monomials):
    """(L, E1, E2, ...): the exponents of the monomials are E1/L, E2/L, ...
    with L the least common denominator."""
    L = lcm(*[int(m.exp.denominator) for m in monomials])
    return (L, *[int(m.exp.numerator) * (L // int(m.exp.denominator)) for m in monomials])


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
        r, i, d, n = r * d, -i * d, r * r + i * i, -n
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


def _ratio(num, den):
    """num/den in the ground type; for den == 1 without the gcd."""
    return RAT(num) if den == 1 else RAT(num, den)


def _box(r, x, den):
    return GaussianRational(_ratio(r, den), _ratio(x, den) if x else _R0)


# Longer lattices are refused rather than allocated: a few terms on grids
# with coprime denominators can span hundreds of millions of slots.
_MAX_SLOTS = 1 << 24


def _slots(n):
    """n, unless a lattice of n slots is too long to allocate."""
    if n > _MAX_SLOTS:
        raise LatticeTooLarge(f"the series needs {n} lattice slots, more than {_MAX_SLOTS}")
    return n


def _slots_below(p, L, lo, step):
    """How many slots i >= 0 have (lo + step*i)/L < p."""
    pn, pd = int(p.numerator), int(p.denominator)
    return max(0, -((lo * pd - pn * L) // (step * pd)))


def _on_grid(s, L):
    """(lo, step) of s on the grid 1/L, a refinement of its own."""
    f = L // s._L
    return s._lo * f, s._step * f


def _spread(s, stride, count):
    """s's numerator vectors on a grid ``stride`` times finer, cut to the
    slots below ``count``."""
    keep = -(-count // stride)
    vecs = [s._re[:keep], None if s._im is None else s._im[:keep]]
    if stride != 1:
        for i, v in enumerate(vecs):
            if v is not None:
                vecs[i] = [0] * ((len(v) - 1) * stride + 1)
                vecs[i][::stride] = v
    return vecs


def _reduce(re, im, den):
    """Numerators and denominator divided by their greatest common factor."""
    if den == 1:
        return re, im, den
    g = gcd(den, *filter(None, re))
    if im is not None and g != 1:
        g = gcd(g, *filter(None, im))
    if g == 1:
        return re, im, den
    div = g.__rfloordiv__
    return list(map(div, re)), None if im is None else list(map(div, im)), den // g


def _scale(re, im, cr, ci):
    """The numerator vectors times the Gaussian integer cr + ci*i."""
    if not ci:
        if cr == 1:
            return re, im
        mul = cr.__mul__
        return list(map(mul, re)), None if im is None else list(map(mul, im))
    out_re = list(map(cr.__mul__, re))
    out_im = list(map(ci.__mul__, re))
    if im is not None:
        out_re = list(map(sub, out_re, map(ci.__mul__, im)))
        out_im = list(map(add, out_im, map(cr.__mul__, im)))
    return out_re, out_im


def _twist(re, im, w):
    """Slot i times w^i for w = (wr + wi*i)/wd: the new numerator vectors
    and the factor wd^(len - 1) of the denominator."""
    wr, wi, wd = w
    if wd == 1 and not wi and wr in (1, -1):
        if wr == -1:
            re = list(re)
            re[1::2] = map(neg, re[1::2])
            if im is not None:
                im = list(im)
                im[1::2] = map(neg, im[1::2])
        return re, im, 1
    n = len(re)
    # slot i takes (wr + wi*i)^i * wd^(n - 1 - i)
    dens = [1] * n
    for i in range(n - 2, -1, -1):
        dens[i] = dens[i + 1] * wd
    pr, pi = 1, 0
    fr, fi = [], []
    for d in dens:
        fr.append(pr * d)
        fi.append(pi * d)
        pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
    from_re = list(map(int.__mul__, re, fr))
    if not wi and im is None:
        return from_re, None, dens[0]
    out_re = from_re if im is None else list(map(sub, from_re, map(int.__mul__, im, fi)))
    out_im = list(map(int.__mul__, re, fi))
    if im is not None:
        out_im = list(map(add, out_im, map(int.__mul__, im, fr)))
    return out_re, out_im, dens[0]


def _convolution(a, b, count):
    """The first ``count`` slots of the convolution of two numerator vector
    pairs (re, im or None): a loop over the term pairs when they are few
    against the slots, else one Kronecker product."""
    a, b = _cut(a, count), _cut(b, count)
    if _nonzero(a) * _nonzero(b) <= _TINY_PAIRS + _PAIRS_PER_SLOT * count:
        return _convolve(a, b, count)
    return _kronecker(a, b, count)


# The pair loop costs about one unit per term pair; the big-int product
# about two per lattice slot, which it visits even when the slot is empty,
# plus a fixed set-up.  So a tiny product, or one whose lattice is much
# longer than its terms, takes the pair loop.
_TINY_PAIRS = 64
_PAIRS_PER_SLOT = 2


def _cut(v, count):
    re, im = v
    if len(re) <= count:
        return v
    return re[:count], None if im is None else im[:count]


def _occupied(re, im):
    """The indices of the nonzero slots, ascending."""
    return compress(range(len(re)), re if im is None else map(or_, re, im))


def _nonzero(v):
    re, im = v
    if im is None:
        return len(re) - re.count(0)
    return sum(map(bool, map(or_, re, im)))


def _convolve(a, b, count):
    """The first ``count`` slots of the convolution, pair by pair."""
    (ra, xa), (rb, xb) = a, b
    out_re = [0] * count
    if xa is None and xb is None:
        pb = [(j, rb[j]) for j in _occupied(rb, None)]
        for i in _occupied(ra, None):
            r = ra[i]
            for j, s in pb:
                n = i + j
                if n >= count:
                    break
                out_re[n] += r * s
        return out_re, None
    out_im = [0] * count
    pb = [(j, rb[j], 0 if xb is None else xb[j]) for j in _occupied(rb, xb)]
    for i in _occupied(ra, xa):
        r, x = ra[i], 0 if xa is None else xa[i]
        for j, s, y in pb:
            n = i + j
            if n >= count:
                break
            out_re[n] += r * s - x * y
            out_im[n] += r * y + x * s
    return out_re, out_im


def _kronecker(a, b, count):
    """The first ``count`` slots of the convolution, by Kronecker
    substitution: each numerator vector becomes one integer with a signed
    value per slot of w bits, and slot n of the product of two such
    integers is the n-th convolution coefficient."""
    (ra, xa), (rb, xb) = a, b
    big_a = max(map(abs, ra if xa is None else ra + xa)).bit_length()
    big_b = max(map(abs, rb if xb is None else rb + xb)).bit_length()
    # |coefficient| <= 2 * min(len) * max|a| * max|b| < 2^(w - 1)
    wb = (big_a + big_b + min(len(ra), len(rb)).bit_length() + 2 + 7) // 8
    ar, br = _pack(ra, wb), _pack(rb, wb)
    if xa is None and xb is None:
        return _unpack(ar * br, count, wb), None
    # Karatsuba's three products; a real factor has ai or bi = 0, which
    # leaves two
    ai = 0 if xa is None else _pack(xa, wb)
    bi = 0 if xb is None else _pack(xb, wb)
    rr, ii = ar * br, ai * bi
    return _unpack(rr - ii, count, wb), _unpack((ar + ai) * (br + bi) - rr - ii, count, wb)


def _pack(vals, wb):
    """sum(v * 2^(8*wb*i)) over the values v at slots i.

    Every slot is written as v + 2^(8*wb - 1), which is nonnegative, and
    the same offset in every slot is subtracted at the end."""
    half = 1 << (8 * wb - 1)
    slots = map(int.to_bytes, map(half.__add__, vals), repeat(wb), repeat("little"))
    return (int.from_bytes(b"".join(slots), "little")
            - int.from_bytes(half.to_bytes(wb, "little") * len(vals), "little"))


def _unpack(packed, count, wb):
    """The first ``count`` signed slots of a packed integer.

    A negative slot borrows one from the slot above it.  Adding 2^(8*wb - 1)
    to every slot first makes each slot nonnegative, so no borrow crosses a
    slot and each reads off its own bytes."""
    half = 1 << (8 * wb - 1)
    size = count * wb
    offset = int.from_bytes(half.to_bytes(wb, "little") * count, "little")
    buf = ((packed + offset) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    chunks = map(buf.__getitem__, map(slice, range(0, size, wb), range(wb, size + wb, wb)))
    return list(map(half.__rsub__, map(int.from_bytes, chunks, repeat("little"))))


def unit_fraction_expand(c, k, order):
    """Expansion of 1/(1 - c*q^k) to precision ``order``.

    c = 0 gives the constant 1; k > 0 the geometric series; k = 0 the
    constant 1/(1-c); k < 0 is rewritten as -q^(-k)/c / (1 - q^(-k)/c) and
    expanded geometrically, which is the ascending-power expansion valid
    inside the unit disk.
    """
    c = _coerce(c)
    k = rat(k)
    order = rat(order)
    if not c:
        return QSeries.one(order)
    if k == 0:
        if c == GR_ONE:
            raise PoleAtOne("1/(1 - q^0) is excluded: argument hit a power of q")
        return QSeries.constant((GR_ONE - c).inverse(), order)
    # lead * c^n at the exponents first + k*n, n >= 0
    lead = GR_ONE
    first = 0
    if k < 0:
        c = c.inverse()
        lead = -c
        k = -k
        first = int(k.numerator)
    kn, kd = int(k.numerator), int(k.denominator)
    n = _slots(_slots_below(order, kd, first, kn))
    if not n:
        return QSeries.zero(order)
    lr, li, ld = as_triple(lead)
    re, im, den = _twist(*_scale([1] * n, None, lr, li), as_triple(c))
    return _make(kd, first, kn, re, im, den * ld, order)


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
    if s.is_zero():
        o = order if order is not None else s.precision
        return f"0 (+O(q^{o}))" if o is not None else "0"
    return str(s)
