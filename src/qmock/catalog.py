"""Eulerian q-series for the seven named mock theta functions, with their
documented alternate forms as a callable catalog.

Every generator takes a truncation order and returns the exact expansion
below it.  Denominator Pochhammer products are inverted incrementally, one
geometric factor per summation step, so each function costs O(order) sparse
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ._rational import rat
from .appell import appell_m, eval_with_retry, universal_g_eulerian
from .series import (
    GaussianRational,
    GR_I,
    QSeries,
    lattice_series,
    mono,
    qpow,
    unit_fraction_expand,
)
from .theta import J, Jbar, Jm

__all__ = [
    "psi3",
    "nu3",
    "phi3",
    "psibar0",
    "psibar1",
    "phibar0",
    "phibar1",
    "CatalogEntry",
    "CATALOG",
]

_M1 = mono(-1, 0)
_ONE = (1, 0, 1)


def _eulerian(order, exponent, first, factors):
    """sum_{n >= first} q^exponent(n) * P_n, where P_n is P_(n-1) (1 for
    n = first) times the series ``factors(n, order)``."""
    order = rat(order)
    prod = QSeries.one(order)
    total = QSeries.zero(order)
    n = first
    while exponent(n) < order:
        for factor in factors(n, order):
            prod = (prod * factor).truncate(order)
        total = total + prod.mul_monomial(qpow(exponent(n))).truncate(order)
        n += 1
    return total


def _over(sign, ks, order):
    """The factors 1/(1 - sign*q^k) for the positive k in ks."""
    return [unit_fraction_expand(sign, k, order) for k in ks if k > 0]


def _times(ks):
    """The factors 1 + q^k for the positive integers k in ks."""
    return [lattice_series(1, [(0, _ONE), (k, _ONE)], None) for k in ks if k > 0]


def psi3(order):
    """psi(q) = sum_{n >= 1} q^(n^2) / (q; q^2)_n."""
    return _eulerian(order, lambda n: n * n, 1, lambda n, w: _over(1, [2 * n - 1], w))


def nu3(order):
    """nu(q) = sum_{n >= 0} q^(n(n+1)) / (-q; q^2)_(n+1)."""
    return _eulerian(order, lambda n: n * (n + 1), 0, lambda n, w: _over(-1, [2 * n + 1], w))


def phi3(order):
    """phi(q) = sum_{n >= 0} q^(n^2) / (-q^2; q^2)_n."""
    return _eulerian(order, lambda n: n * n, 0, lambda n, w: _over(-1, [2 * n], w))


def psibar0(order):
    """psibar0(q) = sum_{n >= 0} q^(2n^2) / (-q; q)_(2n)."""
    return _eulerian(order, lambda n: 2 * n * n, 0,
                     lambda n, w: _over(-1, [2 * n - 1, 2 * n], w))


def psibar1(order):
    """psibar1(q) = sum_{n >= 0} q^(2n^2 + 2n) / (-q; q)_(2n+1)."""
    return _eulerian(order, lambda n: 2 * n * n + 2 * n, 0,
                     lambda n, w: _over(-1, [2 * n, 2 * n + 1], w))


def phibar0(order):
    """phibar0(q) = sum_{n >= 0} q^n (-q; q)_(2n+1)."""
    return _eulerian(order, lambda n: n, 0, lambda n, w: _times([2 * n, 2 * n + 1]))


def phibar1(order):
    """phibar1(q) = sum_{n >= 0} q^n (-q; q)_(2n)."""
    return _eulerian(order, lambda n: n, 0, lambda n, w: _times([2 * n - 1, 2 * n]))


def _quot(order, build_num, build_den):
    """numerator series times inverted denominator, precision-safe."""

    def build(work):
        num = build_num(work)
        den = build_den(work)
        return num * den.invert()

    return eval_with_retry(build, order)


def _psi_alt_m12(order):
    def build(w):
        return appell_m(qpow(1), qpow(12), qpow(2), w + 1).mul_monomial(mono(-1, -1)) \
            - appell_m(qpow(5), qpow(12), qpow(2), w)
    return eval_with_retry(build, order)


def _psi_alt_g(order):
    return universal_g_eulerian(qpow(1), qpow(4), rat(order) - 1).mul_monomial(qpow(1)).truncate(order)


def _psi_alt_m3(order):
    def build(w):
        head = -appell_m(qpow(1), mono(-1, 3), mono(-1, 1), w)
        tail = (Jm(12, w) ** 3) * (Jm(4, w) * J(3, 12, w)).invert()
        return head + tail.mul_monomial(qpow(1)).truncate(w)
    return eval_with_retry(build, order)


def _nu_alt_g(order):
    return universal_g_eulerian(mono(GR_I, rat(1, 2)), qpow(1), order)


def _nu_alt_m12a(order):
    def build(w):
        s = appell_m(qpow(2), qpow(12), mono(-1, 3), w + 1) \
            + appell_m(qpow(2), qpow(12), mono(-1, 9), w + 1)
        return s.mul_monomial(mono(1, -1))
    return eval_with_retry(build, order)


def _nu_alt_m12b(order):
    def build(w):
        head = appell_m(qpow(2), qpow(12), mono(-1, 3), w + 1).mul_monomial(mono(2, -1))
        tail = (Jm(1, w) * J(3, 12, w)) * Jm(2, w).invert()
        return head + tail
    return eval_with_retry(build, order)


def _phi_alt_g(order):
    def build(w):
        g = universal_g_eulerian(mono(GR_I, 0), qpow(1), w)
        return (QSeries.one(w) + g * GR_I) * GaussianRational(1, -1)
    return eval_with_retry(build, order)


def _phi_alt_m12(order):
    def build(w):
        s = appell_m(qpow(5), qpow(12), qpow(4), w) + appell_m(qpow(5), qpow(12), qpow(8), w)
        t = appell_m(qpow(1), qpow(12), qpow(4), w + 1) + appell_m(qpow(1), qpow(12), qpow(8), w + 1)
        return s + t.mul_monomial(mono(1, -1))
    return eval_with_retry(build, order)


def _phi_alt_m3(order):
    def build(w):
        head = appell_m(qpow(1), mono(-1, 3), _M1, w) * 2
        tail = (Jm(12, w) ** 3) * (Jm(4, w) * J(3, 12, w)).invert()
        return head + tail.mul_monomial(mono(2, 1)).truncate(w)
    return eval_with_retry(build, order)


def _psibar0_alt_g(order):
    def build(w):
        g = universal_g_eulerian(mono(-1, 1), qpow(8), w).mul_monomial(mono(-2, 1))
        quot = (J(1, 2, w) * Jbar(3, 8, w)) * Jm(2, w).invert()
        return QSeries.constant(2, w) + g - quot
    return eval_with_retry(build, order)


def _psibar1_alt_g(order):
    def build(w):
        g = universal_g_eulerian(mono(-1, 3), qpow(8), w).mul_monomial(mono(2, 2))
        quot = (J(1, 2, w) * Jbar(1, 8, w)) * Jm(2, w).invert()
        return g + quot
    return eval_with_retry(build, order)


def _phibar0_alt_g(order):
    # q*phibar0(q) = -1 + q g(-q, q^8) + Jbar_{2,4} Jbar_{3,8} / J_2
    def build(w):
        g = universal_g_eulerian(mono(-1, 1), qpow(8), w).mul_monomial(qpow(1))
        quot = (Jbar(2, 4, w) * Jbar(3, 8, w)) * Jm(2, w).invert()
        return (QSeries.constant(-1, w) + g + quot).mul_monomial(mono(1, -1))
    return eval_with_retry(build, order)


def _phibar1_alt_g(order):
    def build(w):
        g = universal_g_eulerian(mono(-1, 3), qpow(8), w).mul_monomial(mono(-1, 2))
        quot = (Jbar(2, 4, w) * Jbar(1, 8, w)) * Jm(2, w).invert()
        return g + quot
    return eval_with_retry(build, order)


@dataclass
class CatalogEntry:
    """A named series with its Eulerian generator and verified alternates."""

    name: str
    eulerian: Callable
    alternates: list = field(default_factory=list)


CATALOG = {
    "psi": CatalogEntry("psi", psi3, [
        ("universal-g", _psi_alt_g),
        ("appell-base12", _psi_alt_m12),
        ("appell-negated-base", _psi_alt_m3),
    ]),
    "nu": CatalogEntry("nu", nu3, [
        ("universal-g", _nu_alt_g),
        ("appell-base12-pair", _nu_alt_m12a),
        ("appell-base12-single", _nu_alt_m12b),
    ]),
    "phi": CatalogEntry("phi", phi3, [
        ("universal-g", _phi_alt_g),
        ("appell-base12", _phi_alt_m12),
        ("appell-negated-base", _phi_alt_m3),
    ]),
    "psibar0": CatalogEntry("psibar0", psibar0, [("universal-g", _psibar0_alt_g)]),
    "psibar1": CatalogEntry("psibar1", psibar1, [("universal-g", _psibar1_alt_g)]),
    "phibar0": CatalogEntry("phibar0", phibar0, [("universal-g", _phibar0_alt_g)]),
    "phibar1": CatalogEntry("phibar1", phibar1, [("universal-g", _phibar1_alt_g)]),
}
