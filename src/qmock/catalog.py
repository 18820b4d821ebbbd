"""Eulerian q-series for the seven named mock theta functions, as a catalog
keyed by their DSL names.  Their alternate forms (through g and m) are
stanzas of the shipped corpus.

Every generator takes a truncation order and returns the exact expansion
below it.  Denominator Pochhammer products are inverted incrementally, one
geometric factor per summation step, so each function costs O(order) sparse
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ._rational import rat
# Unused here, but perfbench/tracer.py's check_bindings probes these three
# names in this module to confirm its wrappers reach every binding.
from .appell import appell_m, eval_with_retry, universal_g_eulerian  # noqa: F401
from .series import QSeries, lattice_series, qpow, unit_fraction_expand

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


@dataclass
class CatalogEntry:
    """A named series with its Eulerian generator; the series starts at
    q^valuation."""

    name: str
    eulerian: Callable
    valuation: int


CATALOG = {
    name: CatalogEntry(name, generator, valuation)
    for name, generator, valuation in [
        ("psi", psi3, 1),
        ("nu", nu3, 0),
        ("phi", phi3, 0),
        ("psibar0", psibar0, 0),
        ("psibar1", psibar1, 0),
        ("phibar0", phibar0, 0),
        ("phibar1", phibar1, 0),
    ]
}
