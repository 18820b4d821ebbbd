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
slices, and products convolve the vectors; an exact one-term factor only
shifts and scales the other.  A quotient, and so an inverse, is one exact
recurrence over the divisor's nonzero slots, whatever its lead.  A
convolution is either a loop over the term pairs or one big-int product of
the Kronecker-packed vectors, whichever a fixed cost rule, weighing the term
pairs and their bits against the packed bytes, finds cheaper.  A slot of at
most 8 bytes is widened to 1, 2, 4 or 8 bytes and packed and unpacked in
two's complement through a machine ``array``, with no Python work per slot;
wider slots, and every slot on a big-endian machine, go through a per-slot
codec with the same offset arithmetic.  A factor 1 - c*q^k is never
expanded: multiplying by it is one shifted add, and dividing by it one pass
over the lattice, a few list maps per block of k slots.  The Eulerian sums
sum_n weight(n) * P_n of the universal mock theta function and the catalog
are one call of ``eulerian_sum`` each, on one integer grid, with integer
exponents and (re, im, den) coefficient triples throughout.  When every
coefficient is 1 or -1, P_n and the sum are one packed integer each, in
the slots of the Kronecker products: a factor is a few big-int shift-adds
and a term one, and the sum is unpacked once.  Otherwise P_n is a series
like any other, each factor one such pass or shifted add and one
``_make``, and the weighted terms go into one vector at the end, the
series ``eulerian_sum`` returns.  No rational number is built per term,
nor for the precision bookkeeping: ``prec``, ``low()`` and every order a
method takes or passes on are (num, den) pairs of ``qmock._rational``,
and ``precision`` and ``low_degree()`` give them in the ground type.  ``QSeries.terms`` is a
read-only view {exponent: GaussianRational} of the same series, boxed
when first read.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, neg, or_, sub
from types import MappingProxyType

# the coefficient type and its constants are part of this module's interface too
from ._rational import (GR_I, GR_ZERO, Q0, RAT, GaussianRational, QMonomial, as_gaussian, as_pair,
                        as_triple, decimal_text, format_exp, format_term, gaussian, mono, qadd, qlt, qle,
                        qmin, qmul, qpair, qpow, qrat, qsub, rat, triple_mul, triple_pow)

__all__ = [
    "GaussianRational",
    "QMonomial",
    "QSeries",
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
    "PowerTooLarge",
    "QuotientTooLarge",
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


class PowerTooLarge(QSeriesError):
    """A power's terms could need more coefficient bits than are formed at
    once."""


class QuotientTooLarge(QSeriesError):
    """A quotient's recurrence would take more steps than are run at once."""


def product_precision(pa, la, pb, lb):
    """min(pa + lb, pb + la): the precision of a product of two series
    with precisions pa, pb and low degrees la, lb, all pairs; None means
    unbounded."""
    p = None if pa is None or lb is None else qadd(pa, lb)
    return p if pb is None or la is None else _pmin(p, qadd(pb, la))


def _pmin(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return qmin(p1, p2)


def _prec(p):
    return None if p is None else as_pair(p)


class QSeries:
    """Truncated sparse Puiseux series on an integer lattice (see the module
    docstring) with a strict precision bound: ``prec`` and ``low()`` are
    ``precision`` and ``low_degree()`` as pairs."""

    __slots__ = ("_L", "_lo", "_step", "_re", "_im", "_den", "prec", "_view")

    def __new__(cls, terms=None, precision=None):
        """The series of a map {exponent: coefficient}; zero coefficients and
        exponents at or past ``precision`` are dropped."""
        points = []
        dens = []
        for e, c in (terms or {}).items():
            e = rat(e)
            c = as_triple(as_gaussian(c))
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
        return lattice_series(1, [(0, as_triple(as_gaussian(c)))], _prec(precision))

    @staticmethod
    def from_monomial(m, precision=None):
        return lattice_series(m.pair[1], [(m.pair[0], m.triple)], _prec(precision))

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self):
        """Read-only map {exponent: GaussianRational} of the nonzero terms."""
        view = self._view
        if view is None:
            L, lo, step, den, re, im = (self._L, self._lo, self._step, self._den,
                                        self._re, self._im)
            view = self._view = MappingProxyType({
                RAT(lo + step * i, L): gaussian((re[i], 0 if im is None else im[i], den))
                for i in _occupied(re, im)
            })
        return view

    def is_zero(self):
        """True when no coefficient below the precision is nonzero."""
        return not self._re

    @property
    def precision(self):
        return qrat(self.prec)

    def low_degree(self):
        """Least stored exponent; for a zero series, its precision (None = exact 0)."""
        return qrat(self.low())

    def low(self):
        """``low_degree()`` as a pair."""
        return qpair(self._lo, self._L) if self._re else self.prec

    def coeff(self, e):
        e = as_pair(e)
        if self.prec is not None and not qlt(e, self.prec):
            raise BeyondPrecision(
                f"coefficient at q^{qrat(e)} requested, series known only below q^{self.precision}"
            )
        x, r = divmod(e[0] * self._L, e[1])
        i, r2 = divmod(x - self._lo, self._step)
        if r or r2 or not 0 <= i < len(self._re):
            return GR_ZERO
        return gaussian((self._re[i], 0 if self._im is None else self._im[i], self._den))

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
                     self._den, self.prec)

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
        p = product_precision(self.prec, self.low(), other.prec, other.low())
        # a one-term factor shifts and scales the other's lattice, which an
        # inexact one then cuts at the product's precision
        for a, t in ((self, other), (other, self)):
            if len(t._re) == 1:
                out = a._times_term(t._lo, t._L, t._re[0], 0 if t._im is None else t._im[0], t._den)
                return out if t.prec is None else out.truncate(p)
        if not self._re or not other._re:
            return QSeries.zero(p)
        L, (lo_a, step_a), (lo_b, step_b), step = _common_grid(self, other)
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
        return self._times_term(*m.pair, *m.triple)

    def _times_term(self, en, ed, cr, ci, cd):
        """self * (cr + ci*i)/cd * q^(en/ed): the lattice shifted and
        scaled, with the precision of the product by the exact term."""
        p = None if self.prec is None else qadd(self.prec, qpair(en, ed))
        if not self._re:
            return QSeries.zero(p)
        L = lcm(self._L, ed)
        lo, step = _on_grid(self, L)
        re, im = _scale(self._re, self._im, cr, ci)
        return _make(L, lo + en * (L // ed), step, re, im, self._den * cd, p)

    def times_one_minus(self, *ms):
        """self * (1 - m) for each monomial m = c*q^k in turn, one shifted
        add each (``_times_one_minus``), with the precision of the product
        by the exact binomials."""
        s = self
        for m in ms:
            s = s._times_one_minus(*m.pair, m.triple)
        return s

    def _times_one_minus(self, kn, kd, c):
        """self * (1 - c*q^(kn/kd)), c an (re, im, den) triple: one shifted
        add on the lattice whose step holds the exponent too, with the
        precision of the product by the exact binomial."""
        cr, ci, cd = c
        if not kn:
            if cr == cd and not ci:
                return QSeries.zero(None)    # times an exact zero
            return self._times_term(0, 1, cd - cr, -ci, cd)
        p = self.prec if kn > 0 or self.prec is None else qadd(self.prec, qpair(kn, kd))
        if not self._re:
            return self if p is self.prec else QSeries.zero(p)
        L = lcm(self._L, kd)
        lo, step = _on_grid(self, L)
        k = kn * (L // kd)
        if len(self._re) == 1:
            step = abs(k)
        g = gcd(step, k)
        s = k // g
        if s < 0:
            lo += k
        n = (len(self._re) - 1) * (step // g) + 1 + abs(s)
        if p is not None:
            n = min(n, _slots_below(p, L, lo, g))
        re, im = _spread(self, step // g, _slots(n))
        # cd*P - c*P shifted up s slots, a negative real c added as -c so that
        # no unit c scales a copy of P; for s < 0, -c*P + cd*P shifted up -s
        if s < 0:
            a, b, op, s = _scale(re, im, -cr, -ci), _scale(re, im, cd, 0), add, -s
        else:
            op, m = (add, (-cr, 0)) if cr < 0 and not ci else (sub, (cr, ci))
            a, b = _scale(re, im, cd, 0), _scale(re, im, *m)
        return _make(L, lo, g, _shifted_sum(a[0], b[0], s, n, op), _shifted_sum(a[1], b[1], s, n, op),
                     self._den * cd, p)

    def _over_one_minus(self, k, L, c, order):
        """self / (1 - c*q^(k/L)) below ``order``, for an integer k and an
        (re, im, den) triple c, equal in value and precision to self times
        the expansion of 1/(1 - c*q^(k/L)) there, truncated: for k > 0 one
        pass over the lattice whose step holds k too (``_divide_pass``), for
        k < 0 the reflected form -q^(-k)/c / (1 - q^(-k)/c), for k = 0 the
        constant 1/(1 - c)."""
        ld = self.low()
        if k < 0:
            # truncated at the order raised by where self starts
            inv = triple_pow(c, -1)
            s = self._times_term(-k, L, -inv[0], -inv[1], inv[2])._over_one_minus(-k, L, inv, order)
            return s if ld is None else s.truncate(qadd(order, ld))
        p = order if ld is None or ld[0] >= 0 else qadd(order, ld)
        if self.prec is not None:
            p = qmin(p, self.prec)
        cr, ci, cd = c
        if not k:
            if cr == cd and not ci:
                raise PoleAtOne("1/(1 - q^0) is excluded: argument hit a power of q")
            return self._times_term(0, 1, *triple_pow((cd - cr, -ci, cd), -1)).truncate(p)
        if not self._re:
            return QSeries.zero(p)
        G = lcm(self._L, L)
        lo, step = _on_grid(self, G)
        k *= G // L
        if len(self._re) == 1:
            step = k
        g = gcd(step, k)
        n = _slots(_slots_below(p, G, lo, g))
        if not n:
            return QSeries.zero(p)
        re, im = _spread(self, step // g, n)
        if len(re) < n:
            pad = [0] * (n - len(re))
            re, im = re + pad, None if im is None else im + pad
        if im is None and ci:
            im = [0] * n
        stride = k // g
        re, im = _divide_pass(re, im, stride, cr, ci, cd)
        return _make(G, lo, g, re, im, self._den * cd ** ((n - 1) // stride), p)

    def __pow__(self, k):
        if not isinstance(k, int):
            if type(k) is not RAT or k.denominator != 1:
                raise FractionalExponent(f"a series to the power {k} needs an integer exponent")
            k = int(k)
        if k < 0:
            return self.invert() ** (-k)
        _check_power(self, k)
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
        """Multiplicative inverse, ``QSeries.one().divide(self, order)``.

        The result is correct below ``a.precision - 2*lowdeg(a)``; for an
        exact (polynomial) input, ``order`` fixes the target precision
        instead and is mandatory unless the input is a single monomial,
        whose inverse is returned exact whatever ``order`` is.  An inverse
        that starts at or past that precision is zero to it.
        """
        d, relative = self._unit_precision(order)
        if relative is None:
            r0 = self._re[0]
            x0 = 0 if self._im is None else self._im[0]
            # 1/lead = den * (r0 - x0*i) / (r0^2 + x0^2)
            return _make(self._L, -self._lo, 1, [self._den * r0], [-self._den * x0],
                         r0 * r0 + x0 * x0, None)
        if relative[0] <= 0:  # the inverse starts at q^-d, at or past the order
            return QSeries.zero(qsub(relative, d))
        return QSeries.one().divide(self, order)

    def _unit_precision(self, order):
        """(d, relative), pairs: where self starts, and the precision of
        its unit part self/(lead*q^d) below which ``invert(order)`` takes
        it; relative is None for an exact single term, whose inverse is
        exact."""
        if not self._re:
            raise ZeroSeries("cannot invert a series that is zero to its precision")
        d = self.low()
        if self.prec is None:
            if len(self._re) == 1:
                return d, None
            if order is None:
                raise ValueError("order is required to invert an exact multi-term series")
            return d, qadd(as_pair(order), d)
        relative = qsub(self.prec, d)
        return d, relative if order is None else qmin(relative, qadd(as_pair(order), d))

    def inverse_low(self, order=None):
        """``self.invert(order).low()``, without inverting."""
        d, relative = self._unit_precision(order)
        return (-d[0], d[1]) if relative is None or relative[0] > 0 else qsub(relative, d)

    def inverse_prec(self, order=None):
        """``self.invert(order).prec``, without inverting."""
        d, relative = self._unit_precision(order)
        return None if relative is None else qsub(relative, d)

    def divide(self, other, order=None):
        """self / other, equal in value and in precision to
        ``self * other.invert(order)``.

        Both sides' numerators on the common lattice are multiplied by the
        conjugate of the divisor's lead when that is not real, and the
        divisor's are divided by their greatest common factor, so that
        they start with an integer u > 0.  The quotient's numerators then
        solve one exact recurrence, q_i*u = a_i - sum_j b_j*q_(i-j) over
        the divisor's nonzero slots j > 0, over a denominator that grows
        only where a slot needs it (``_recurrence``).  An exact one-term
        divisor, and one whose inverse starts at or past the order, take
        ``invert``'s own two cases."""
        d, relative = other._unit_precision(order)
        if relative is None or relative[0] <= 0:
            return self * other.invert(order)
        # the product by the inverse, which starts at q^-d on other's
        # lattice reflected and is known below relative - d
        p = product_precision(self.prec, self.low(), qsub(relative, d), (-d[0], d[1]))
        if not self._re:
            return QSeries.zero(p)
        L, (lo_a, step_a), (lo_b, step_b), step = _common_grid(self, other)
        lo = lo_a - lo_b
        n = _slots_below(p, L, lo, step)
        if n <= 0:
            return QSeries.zero(p)
        br, bi = _spread(other, step_b // step, n)
        ur, ui = br[0], 0 if bi is None else bi[0]
        if ui:
            br, bi = _scale(br, bi, ur, -ui)
            if not any(bi):
                bi = None
        g = gcd(*br, *bi or ()) if br[0] > 0 else -gcd(*br, *bi or ())
        if g != 1:
            div = g.__rfloordiv__
            br, bi = list(map(div, br)), None if bi is None else list(map(div, bi))
        a = _spread(self, step_a // step, _slots(n))
        taps = _nonzero((br, bi)) - 1
        if n * taps > _MAX_RECURRENCE_STEPS:
            raise QuotientTooLarge(f"the quotient needs {n} slots by {taps} divisor taps, "
                                   f"more than {_MAX_RECURRENCE_STEPS} recurrence steps")
        re, im, den = _recurrence(_scale(*a, ur, -ui) if ui else a, (br, bi), n)
        re, im = _scale(re, im, other._den if g > 0 else -other._den, 0)
        return _make(L, lo, step, re, im, self._den * abs(g) * den, p)

    # -- reshaping -----------------------------------------------------------

    def truncate(self, order):
        order = _prec(order)
        if self.prec is not None and qle(self.prec, order):
            return self
        return _make(self._L, self._lo, self._step, self._re, self._im, self._den, order)

    def substitute_power(self, k):
        """q -> q^k termwise; exponents and the precision scale by k."""
        kn, kd = k = as_pair(k)
        if kn <= 0:
            raise NonPositivePower(f"substitute_power requires k > 0, got {qrat(k)}")
        p = None if self.prec is None else qmul(self.prec, k)
        return _make(self._L * kd, self._lo * kn, self._step * kn,
                     self._re, self._im, self._den, p)

    def substitute_monomial(self, m):
        """q -> c*q^e on an integer-exponent series (e > 0)."""
        if m.pair[0] <= 0:
            raise NonPositivePower(f"substitution base must have positive exponent, got {m}")
        p = None if self.prec is None else qmul(self.prec, m.pair)
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
                f"found {format_exp(RAT(lo + step * bad, L))}"
            )
        if stride > 1:
            re = re[::stride]
            im = None if im is None else im[::stride]
        # slot i holds the integer exponent e0 + s*i; it goes to e*(e0 + s*i)
        # with its coefficient times c^(e0 + s*i)
        e0, s = lo // L, step * stride // L
        den = self._den
        if m.triple != (1, 0, 1):
            cr, ci, cd = triple_pow(m.triple, e0)
            re, im = _scale(re, im, cr, ci)
            re, im, twist_den = _twist(re, im, triple_pow(m.triple, s))
            den *= cd * twist_den
        en, ed = m.pair
        return _make(ed, e0 * en, s * en, re, im, den, p)

    def negate_base(self):
        """q -> -q (integer exponents only)."""
        return self.substitute_monomial(mono(-1, 1))

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
            and self.prec == other.prec
            and (self is other or self._key() == other._key())
        )

    def __hash__(self):
        return hash((self._key(), self.prec))

    def __repr__(self):
        return f"QSeries({dict(self.terms)!r}, precision={self.precision!r})"

    def __str__(self):
        if not self._re:
            return "0"
        parts = []
        for e, c in self.items_sorted():
            t = format_term(c, e)
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
    s.prec = precision
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
        top, pd = precision[0] * L, precision[1]
        points = [pt for pt in points if pt[0] * pd < top]
    if not points:
        return QSeries.zero(precision)
    lo, step, n = span_slots([x for x, _ in points])
    den = lcm(*[c[2] for _, c in points])
    re = [0] * n
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
    p = _prec(precision)
    for s in parts:
        p = _pmin(p, s.prec)
    live = [s for s in parts if s._re]
    if len(live) == 1:
        s = live[0]
        return s if p is None else s.truncate(p)
    return sum_lattices([(s._L, s._lo, s._step, s._re, s._im, s._den) for s in live], p)


def eulerian_sum(L, weight, factors, order, divide=True):
    """sum_{n >= 0} weight(n) * P_n below ``order``, at the precision its
    terms are known to.

    P_n is P_(n-1) (the exact 1 for n = 0) divided by, or if not
    ``divide`` multiplied by, 1 - c*q^(k/L) for each pair (k, c) of
    factors(n), and kept below the order; weight(n) is a pair (e, c) for
    c*q^(e/L).  Each c is an (re, im, den) triple and each exponent an
    integer.  Both must be functions of n alone: the sum may call them
    more than once for one n, as a sum that leaves the packed path below
    starts again from n = 0 on the vector path.  The sum stops at the
    first term that starts at or past the order while every later factor
    has a positive exponent, which requires the exponents of the weights
    and of the factors not to fall as n grows.  For a positive order and
    positive factors of step n, P_n starts where P_(n-1) does, which lies
    below the order (or P_n is zero to the same precision), so a term that
    stops the sum is then found without forming its P_n; for an order
    <= 0, P_n can be zero to a lower precision, which the sum's precision
    follows.

    A sum whose steps are all unit steps (``_unit_steps``) runs on packed
    integers (``_packed_terms``) into one lattice part.  Any other holds P_n
    as a series, stepped by ``QSeries._over_one_minus`` or
    ``_times_one_minus`` per factor, and each weighted term is one part on
    the grid of P_n and 1/L; the parts are summed in one vector."""
    order = as_pair(order)
    top = _first_slot(order, L)
    parts, precision = [], order
    unit = order[0] > 0 and top <= _MAX_SLOTS and _unit_steps(weight, factors, top)
    if unit:
        if len(unit[0]) > 1:
            parts.append(_packed_terms(*unit, L, top, divide))
        return sum_lattices(parts, precision)

    def reaches(P, e):
        """True when q^(e/L) * P starts at or past the order (an exact zero
        P taken to start at 0)."""
        return qle(order, qadd(qpair(e, L), P.low() or Q0))

    P, n, step = QSeries.one(), 0, factors(0)
    while True:
        e, cw = weight(n)
        after = factors(n + 1)
        stops = all([k > 0 for k, _ in after])
        if stops and order[0] > 0 and reaches(P, e) and all([k > 0 for k, _ in step]):
            break
        for k, c in step:
            P = P._over_one_minus(k, L, c, order) if divide else P.truncate(order)._times_one_minus(k, L, c)
        if stops and reaches(P, e):
            break
        # the term is known below P_n's precision plus e, which is past the
        # order when that precision is the order and e >= 0
        if P.prec is not None and (e < 0 or P.prec != order):
            precision = qmin(precision, qadd(P.prec, qpair(e, L)))
        if P._re:
            # P's own grid is reduced, so the term goes on the grid of both
            G = lcm(P._L, L)
            f = G // P._L
            re, im = _scale(P._re, P._im, cw[0], cw[1])
            parts.append((G, P._lo * f + e * (G // L), P._step * f, re, im, P._den * cw[2]))
        n, step = n + 1, after
    return sum_lattices(parts, precision)


_UNITS = ((1, 0, 1), (-1, 0, 1))


def _unit_steps(weight, factors, top):
    """(weights, steps): weight(n) and factors(n) for n = 0, 1, ..., the
    steps one further, fetched in turn while the sum is a unit sum: every
    weight c*q^e and every factor 1 - c*q^k of the steps so far has c = 1
    or -1, k > 0 and e >= 0 not falling as n grows.  The lists end where
    the sum stops at the last weight: e reaches the slot ``top`` while the
    factors after it have positive exponents; None when the sum is no unit
    sum."""
    weights, steps, last = [], [factors(0)], 0
    while True:
        n = len(weights)
        weights.append(weight(n))
        steps.append(factors(n + 1))
        e, c = weights[n]
        if not (last <= e and c in _UNITS and all([k > 0 and c in _UNITS for k, c in steps[n]])):
            return None
        if e >= top and all([k > 0 for k, _ in steps[n + 1]]):
            return weights, steps
        last = e


def _packed_terms(weights, steps, L, top, divide):
    """The terms of a unit sum (``_unit_steps``) before its last weight, on
    the grid 1/L below the slot ``top``, as one lattice part.

    P_n and the sum are integers of w bytes per slot, signed slots as
    ``_pack`` writes them, on the slots of step g, the gcd of the
    exponents; P_n only below the m slots its term has below the order.
    Dividing by 1 - c*Y, Y = q^k, multiplies by (1 + c*Y)(1 + Y^2)(1 + Y^4)
    ... to the last of the T factors that starts below slot m, one
    shift-add each; multiplying is one shift-add (T = 1); either is then
    cut to its residue mod 2^(8w*m), which keeps the slots below m and
    leaves a borrow from slot m - 1 as a 1 in slot m, past every slot that
    P_n's term needs.  Before each, one mask test checks that every slot
    lies below 2^(8w - 2 - T), so that none can reach 2^(8w - 1), or below
    2^(8w - 2) for the sum before a term is added; the slots of both are
    widened in place until it holds, doubling to 8 bytes and then one byte
    at a time."""
    N = len(weights) - 1
    e0 = weights[0][0]
    g = gcd(*[k for step in steps[:N] for k, _ in step], *[e - e0 for e, _ in weights[:N]]) or 1
    count = -((e0 - top) // g)
    w, R, tests = 1, int.from_bytes(b"\1" * count, "little"), {}
    v, total = 1, 0

    def fits(x, b):
        if b < 0:
            return False
        t = tests.get(b)
        if t is None:
            t = tests[b] = (R << b, R * ((1 << 8 * w) - (2 << b)))
        return not (x + t[0]) & t[1]

    def widen():
        nonlocal w, R, tests, v, total
        wide = 2 * w if w < 8 else w + 1
        R_wide = int.from_bytes((b"\1" + bytes(wide - 1)) * count, "little")
        v, total = [_respace(x, count, w, R, wide, R_wide) for x in (v, total)]
        w, R, tests = wide, R_wide, {}

    for n in range(N):
        e, cw = weights[n]
        m = -((e - top) // g)
        for k, c in steps[n]:
            k //= g
            T = ((m - 1) // k).bit_length() if divide else int(k < m)
            if not T:
                continue
            while not fits(v, 8 * w - 2 - T):
                widen()
            s = 8 * w * k
            v = v + (v << s) if (c[0] > 0) == divide else v - (v << s)
            for _ in range(1, T):
                s <<= 1
                v += v << s
            v &= (1 << 8 * w * m) - 1
        while not fits(total, 8 * w - 2):
            widen()
        t = v << (8 * w * ((e - e0) // g))
        total = total + t if cw[0] > 0 else total - t
    return L, e0, g, _unpack(total, count, w, R << (8 * w - 1)), None, 1


def _respace(x, count, w, R, wide, R_wide):
    """The first ``count`` slots of the packed integer x, w bytes per slot
    and R the sum of their units, in slots of ``wide`` bytes: each slot
    offset by 2^(8w - 1) to be nonnegative, its bytes moved, and the
    offset taken off again."""
    size = count * w
    raw = ((x + (R << (8 * w - 1))) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    out = bytearray(count * wide)
    for t in range(w):
        out[t::wide] = raw[t::w]
    return int.from_bytes(out, "little") - (R_wide << (8 * w - 1))


def _shifted_sum(u, v, s, n, op):
    """The first n slots of u op v shifted up s slots, for op add or sub;
    None for two None."""
    if u is None and v is None:
        return None
    out = [] if u is None else u[:n]
    out += [0] * (n - len(out))
    if v is not None and s < n:
        v = v[:n - s]
        out[s:s + len(v)] = map(op, out[s:s + len(v)], v)
    return out


def _first_slot(p, L):
    """The first slot of the grid 1/L at or past the exponent p, a pair."""
    return -((-p[0] * L) // p[1])


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
    return sum_lattices(parts, precision)


def sum_lattices(parts, precision):
    """The sum of lattice parts (L, lo, step, re, im, den), none of them
    empty, below ``precision``: one vector on the common grid, whose step a
    single slot does not narrow, and one _make."""
    if not parts:
        return QSeries.zero(precision)
    L = lcm(*[part[0] for part in parts])
    grids = [(part[1] * (L // part[0]), part[2] * (L // part[0])) for part in parts]
    lo = min([x for x, _ in grids])
    step = gcd(*[s for part, (_, s) in zip(parts, grids) if len(part[3]) > 1],
               *[x - lo for x, _ in grids]) or 1
    den = lcm(*[part[5] for part in parts])
    n = (max([x + (len(part[3]) - 1) * s for part, (x, s) in zip(parts, grids)]) - lo) // step + 1
    if precision is not None:
        n = min(n, _slots_below(precision, L, lo, step))
    n = _slots(n)
    re = [0] * n
    im = None if all([part[4] is None for part in parts]) else [0] * n
    fresh = True    # re and im still all zero
    for (_, _, _, vr, vi, d), (x, s) in zip(parts, grids):
        o, k, f = (x - lo) // step, s // step or 1, den // d
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
    L = lcm(*[m.pair[1] for m in monomials])
    return (L, *[m.pair[0] * (L // m.pair[1]) for m in monomials])


# Longer lattices are refused rather than allocated: a few terms on grids
# with coprime denominators can span hundreds of millions of slots.
_MAX_SLOTS = 1 << 24


def _slots(n):
    """n, unless a lattice of n slots is too long to allocate."""
    if n > _MAX_SLOTS:
        raise LatticeTooLarge(f"the series needs {decimal_text(n)} lattice slots, more than {_MAX_SLOTS}")
    return n


def span_slots(xs):
    """(lo, step, n): the least of the integer exponents xs, and the step and
    the slots of the least lattice that holds them, refused when too many:
    no lattice that holds them and more is shorter, so a few terms refuse it."""
    lo = min(xs, default=0)
    step = gcd(*[x - lo for x in xs]) or 1
    return lo, step, _slots((max(xs, default=lo) - lo) // step + 1)


# A power whose numerators could hold more bits than this in all is
# refused before it is formed: (q^(-1) + 1)^100000 below q^3 has about
# 10^5 terms of up to 10^5 bits each.
_MAX_POWER_BITS = 1 << 28
# Or a quotient whose recurrence takes more steps, slots times divisor taps:
# the corpus at order 800 takes at most 7200 x 532.
_MAX_RECURRENCE_STEPS = 1 << 28


def _check_power(s, n):
    """Refuse s^n, n > 1, before its squarings when its numerators could
    hold more than _MAX_POWER_BITS bits.  s^n lies on s's lattice, in at
    most n*(len - 1) + 1 slots and, for an s known below p from q^l on,
    known below p + (n - 1)*l, which leaves it s's slots below p.  With
    c the size of s's first numerator, M the largest and S their sum, its
    j-th slot is at most c^n (2nM)^j and at most S^n, so it takes at most
    the bits of the lesser, at most min(n*lg c + j*lg 2nM, n*lg S) + 1 with
    lg x = (x - 1).bit_length() >= log2 x."""
    if n < 2 or not s._re:
        return
    sizes = list(map(abs, s._re)) if s._im is None else list(map(add, map(abs, s._re), map(abs, s._im)))
    first = n * (sizes[0] - 1).bit_length()
    step = (2 * n * max(sizes) - 1).bit_length()
    cap = n * (sum(sizes) - 1).bit_length()
    slots = n * (len(sizes) - 1) + 1
    if s.prec is not None:
        slots = min(slots, _slots_below(s.prec, s._L, s._lo, s._step))
    rising = min(slots, max(0, -((first - cap) // step)))  # the slots j with first + j*step < cap
    bits = (first + 1) * rising + step * rising * (rising - 1) // 2 + (cap + 1) * (slots - rising)
    if s._im is not None:
        bits *= 2
    if bits > _MAX_POWER_BITS:
        raise PowerTooLarge(
            f"the power {n} of a series of {len(sizes)} slots could need {bits} "
            f"coefficient bits, more than {_MAX_POWER_BITS}")


def _slots_below(p, L, lo, step):
    """How many slots i >= 0 have (lo + step*i)/L < p, a pair."""
    pn, pd = p
    return max(0, -((lo * pd - pn * L) // (step * pd)))


def _common_grid(a, b):
    """The common lattice of a and b: its denominator L, each one's
    (lo, step) on it, and the gcd of their steps."""
    L = lcm(a._L, b._L)
    grid_a, grid_b = _on_grid(a, L), _on_grid(b, L)
    return L, grid_a, grid_b, gcd(grid_a[1], grid_b[1])


def _on_grid(s, L):
    """(lo, step) of s on the grid 1/L, a refinement of its own."""
    f = L // s._L
    return s._lo * f, s._step * f


def _spread(s, stride, count):
    """s's numerator vectors on a grid ``stride`` times finer, cut to the
    slots below ``count``: s's own vectors when that changes neither."""
    keep = -(-count // stride)
    vecs = [s._re, s._im]
    if keep < len(s._re):
        vecs = [s._re[:keep], None if s._im is None else s._im[:keep]]
    if stride != 1:
        for i, v in enumerate(vecs):
            if v is not None:
                vecs[i] = [0] * ((len(v) - 1) * stride + 1)
                vecs[i][::stride] = v
    return vecs


def _reduce(re, im, den):
    """Numerators and denominator divided by their greatest common factor.
    For a power of two den wider than 64 bits, that is the lowest bit set
    in den or any numerator, which the OR of them all shows.  On the 94
    such calls of universal-g-base4-split-3 at order 400 this took 0.19 s
    where the gcd took 2.6 s (2 vCPUs, CPython 3.11); at the corpus's own
    orders dens are narrower (5 of the 3394 calls of a toolkit pass take
    this path, none of appell-heavy's), and there the gcd is the faster."""
    if den == 1:
        return re, im, den
    if den.bit_length() > 64 and not den & (den - 1):
        bits = reduce(or_, re, den) if im is None else reduce(or_, im, reduce(or_, re, den))
        k = (bits & -bits).bit_length() - 1
        if not k:
            return re, im, den
        shift = k.__rrshift__
        return list(map(shift, re)), None if im is None else list(map(shift, im)), den >> k
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


def _recurrence(a, b, n):
    """(qr, qi, D): the first n slots of the quotient of two numerator
    vector pairs (re, im or None), over D, for a divisor b with an integer
    lead u > 0: q_i*u = a_i*D - sum_j b_j*q_(i-j) over b's nonzero slots
    0 < j < n.  While it runs, D is a power of u, raised by one factor u
    where u does not divide q_i*u; each q_i is kept over the power it was
    found at and read scaled to the power of the moment, so that nothing
    found is rescaled where D grows (``_over_last``).  A real divisor runs
    the real recurrence on each part of a, the second scaled by the first
    one's D."""
    (ar, ai), (br, bi) = a, b
    pad = [0] * (n - len(ar))
    if bi is None:
        qr, dr = _real_recurrence(ar + pad, br)
        if ai is None:
            return qr, None, dr
        qi, di = _real_recurrence(list(map(dr.__mul__, ai)) + pad, br)
        return list(map(di.__mul__, qr)), qi, dr * di
    taps = [(j, br[j], bi[j]) for j in _occupied(br, bi) if j]
    ai = [0] * len(ar) if ai is None else ai
    u, E, power = br[0], 0, [1]
    qr, qi, e = [], [], []
    for i, tr, ti in zip(range(n), ar + pad, ai + pad):
        tr, ti = tr * power[E], ti * power[E]
        for j, cr, ci in taps:
            if j > i:
                break
            f = power[E - e[i - j]]
            sr, si = qr[i - j] * f, qi[i - j] * f
            tr -= cr * sr - ci * si
            ti -= cr * si + ci * sr
        if tr % u or ti % u:
            tr, ti, E = tr * u, ti * u, E + 1
            power.append(power[-1] * u)
        qr.append(tr // u)
        qi.append(ti // u)
        e.append(E)
    return _over_last(qr, qi, e, power)


def _real_recurrence(a, b):
    """(q, D) as in ``_recurrence`` for real vectors, one slot of a at a
    time: the slots j > 0 of b that hold 1 or -1 subtract or add q_(i-j),
    and the others multiply it.  On the 73 real recurrences of one
    verification of the shipped appell stanzas (2 vCPUs, CPython 3.11),
    this split took 25 ms in the median of 40 rounds against 31 ms for one
    loop of ``t -= c*q[i-j]`` over all taps, and was faster in 36 of the
    40.  A lead other than 1 takes ``_scaled_recurrence``."""
    taps = [j for j in _occupied(b, None) if j]
    if b[0] != 1:
        return _scaled_recurrence(a, [(j, b[j]) for j in taps], b[0])
    plus = [j for j in taps if b[j] == 1]
    minus = [j for j in taps if b[j] == -1]
    rest = [(j, b[j]) for j in taps if b[j] not in (1, -1)]
    q = []
    for i, t in enumerate(a):
        for j in plus:
            if j > i:
                break
            t -= q[i - j]
        for j in minus:
            if j > i:
                break
            t += q[i - j]
        for j, c in rest:
            if j > i:
                break
            t -= c * q[i - j]
        q.append(t)
    return q, 1


def _scaled_recurrence(a, taps, u):
    """(q, D) of ``_real_recurrence`` for the lead u > 1: each q_i is kept
    over the power u^e_i that D was when it was found, and read times
    u^(E - e_i), so that where D grows nothing already found is rescaled.
    On the 35 such recurrences of a toolkit pass, whose leads are powers of
    two, this took 7.5 ms against 9.8 ms for rescaling the quotient and the
    rest of a wherever D grows, and 7.2 ms for a loop of shifts that only
    leads 2^k could take (best of 7); on the two of appell-split-2-minus1-3
    at order 400 (leads 2^28 and 2^40, 3602 slots) 0.21 s against 0.14 s
    for the shifts, where the stanza took 3.9 s in all with the rescaling
    (2 vCPUs, CPython 3.11, a shared host)."""
    E, q, e, power = 0, [], [], [1]
    for i, t in enumerate(a):
        t *= power[E]
        for j, c in taps:
            if j > i:
                break
            t -= c * q[i - j] * power[E - e[i - j]]
        if t % u:
            t *= u
            E += 1
            power.append(power[-1] * u)
        q.append(t // u)
        e.append(E)
    q, _, D = _over_last(q, None, e, power)
    return q, D


def _over_last(qr, qi, e, power):
    """(qr, qi, D): the q_i, each kept over power[e_i], brought over the
    last power and reduced with it, which leaves D the least common
    denominator of the q_i, the one that rescaling at each slot only by
    what that slot needs would reach."""
    last = len(power) - 1

    def scaled(v):
        return [x * power[last - f] for x, f in zip(v, e)]
    return _reduce(scaled(qr), None if qi is None else scaled(qi), power[last])


def _convolution(a, b, count):
    """The first ``count`` slots of the convolution of two numerator vector
    pairs (re, im or None): a loop over the term pairs when they cost less
    than the packed big-int product, else one Kronecker product."""
    a, b = _cut(a, count), _cut(b, count)
    pairs = _nonzero(a) * _nonzero(b)
    # the rule below takes the pair loop whenever this holds, as 4*wb is
    # more than the narrower factor's bits: a long sparse lattice skips
    # the scans for the widths
    if 4 * _PAIR_COST * pairs <= _BYTE_COST * count:
        return _convolve(a, b, count)
    (ra, xa), (rb, xb) = a, b
    big_a = max(map(abs, ra if xa is None else ra + xa)).bit_length()
    big_b = max(map(abs, rb if xb is None else rb + xb)).bit_length()
    # |coefficient| <= 2 * min(len) * max|a| * max|b| < 2^(8*wb - 1)
    wb = (big_a + big_b + min(len(ra), len(rb)).bit_length() + 2 + 7) // 8
    if wb < len(_NATIVE_WIDTH):
        wb = _NATIVE_WIDTH[wb]
    packed = count * wb
    if pairs * (_PAIR_COST + min(big_a, big_b)) <= _KRONECKER_COST + (
            _BYTE_COST * packed * (_KARATSUBA_BYTES + packed) // _KARATSUBA_BYTES):
        return _convolve(a, b, count)
    return _kronecker(a, b, count, wb)


# Costs in about nanoseconds, fitted by timing both paths on the 3732
# products of one pass of each benchmark workload (2 vCPUs, CPython 3.11):
# a term pair costs a loop step and a multiply that grows with the bits of
# the narrower factor; a packed product a fixed set-up and a cost per byte
# of the packed lattice, empty slots included, that grows with the length
# as Karatsuba's product does, which a linear growth fits over the sizes
# measured.
_PAIR_COST = 160
_KRONECKER_COST = 1000
_BYTE_COST = 120
_KARATSUBA_BYTES = 4000


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


def _kronecker(a, b, count, wb):
    """The first ``count`` slots of the convolution, by Kronecker
    substitution: each numerator vector becomes one integer with a signed
    value per slot of ``wb`` bytes, wide enough for every coefficient of the
    product, and slot n of the product of two such integers is the n-th
    convolution coefficient."""
    (ra, xa), (rb, xb) = a, b
    # the top bit of every slot below count, which _cut made the longest
    # length of the factors too
    off = int.from_bytes((b"\0" * (wb - 1) + b"\x80") * count, "little")
    ar, br = _pack(ra, wb, off), _pack(rb, wb, off)
    if xa is None and xb is None:
        return _unpack(ar * br, count, wb, off), None
    # Karatsuba's three products; a real factor has ai or bi = 0, which
    # leaves two
    ai = 0 if xa is None else _pack(xa, wb, off)
    bi = 0 if xb is None else _pack(xb, wb, off)
    rr, ii = ar * br, ai * bi
    return (_unpack(rr - ii, count, wb, off),
            _unpack((ar + ai) * (br + bi) - rr - ii, count, wb, off))


# Typecodes of the machine arrays by item size in bytes.  An array's bytes
# are the two's complement of its items, in the machine's order, which is
# the packed order only on a little-endian machine; elsewhere the table is
# empty and every width takes the per-slot codec.
_CODES = {}
if sys.byteorder == "little":
    for _code in "bhilq":
        _CODES.setdefault(array(_code).itemsize, _code)

# A slot of up to 8 bytes is widened to the next item size the table holds.
_NATIVE_WIDTH = [next((size for size in sorted(_CODES) if size >= wb), wb) for wb in range(9)]


def _pack(vals, wb, off):
    """sum(v * 2^(8*wb*i)) over the values v at slots i, |v| < 2^(8*wb - 1).

    The slots are written in two's complement, which reads each negative
    v as v + 2^(8*wb); ``off`` has the top bit of every slot set, so
    u & off marks the negative slots, and twice that is what they
    overcount."""
    code = _CODES.get(wb)
    if code:
        raw = array(code, vals).tobytes()
    else:
        mask = (1 << (8 * wb)) - 1
        raw = b"".join(map(int.to_bytes, map(mask.__and__, vals), repeat(wb), repeat("little")))
    u = int.from_bytes(raw, "little")
    return u - ((u & off) << 1)


def _unpack(packed, count, wb, off):
    """The first ``count`` signed slots of a packed integer, whose slots lie
    below 2^(8*wb - 1) in magnitude.

    A negative slot borrows one from the slot above it.  Adding ``off``
    (the top bit of every slot) makes each slot v + 2^(8*wb - 1), which is
    nonnegative, so no borrow crosses a slot; flipping the top bits back
    leaves each slot's own two's complement."""
    size = count * wb
    raw = (((packed + off) ^ off) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    code = _CODES.get(wb)
    if code:
        return array(code, raw).tolist()
    half = 1 << (8 * wb - 1)
    chunks = map(raw.__getitem__, map(slice, range(0, size, wb), range(wb, size + wb, wb)))
    return list(map(half.__rsub__, map(half.__xor__, map(int.from_bytes, chunks, repeat("little")))))


def format_series(s, order=None):
    """Render a series for CLI output, ascending exponents."""
    if s.is_zero():
        o = order if order is not None else s.precision
        return f"0 (+O(q^{o}))" if o is not None else "0"
    return str(s)
