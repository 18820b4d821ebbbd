"""Eulerian q-series for the seven named mock theta functions, as a catalog
keyed by their DSL names.  Their alternate forms (through g and m) are
stanzas of the shipped corpus.

Every generator takes a truncation order and returns the exact expansion
below it.  The Pochhammer product is extended incrementally, one factor
1 - c*q^k at a time: dividing by it is one pass over the lattice and
multiplying by it one shifted add, so no factor is ever expanded, and the
terms are summed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ._rational import rat
# Unused here, but perfbench/tracer.py's check_bindings probes these three
# names in this module to confirm its wrappers reach every binding.
from .appell import appell_m, eval_with_retry, universal_g_eulerian  # noqa: F401
from .series import QMonomial, QSeries, qpow, sum_series

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


def _eulerian(order, exponent, first, ks, c, divide=True):
    """sum_{n >= first} q^exponent(n) * P_n, where P_n is P_(n-1) (1 for
    n = first) divided by, or if not ``divide`` multiplied by, 1 - c*q^k
    for each positive k in ks(n)."""
    order = rat(order)
    prod = QSeries.one(order)
    terms = []
    n = first
    while exponent(n) < order:
        for k in ks(n):
            if k > 0:
                m = QMonomial(c, k)
                prod = prod.over_one_minus(m, order) if divide else prod.times_one_minus(m)
        terms.append(prod.mul_monomial(qpow(exponent(n))))
        n += 1
    return sum_series(terms, order)


def psi3(order):
    """psi(q) = sum_{n >= 1} q^(n^2) / (q; q^2)_n."""
    return _eulerian(order, lambda n: n * n, 1, lambda n: [2 * n - 1], 1)


def nu3(order):
    """nu(q) = sum_{n >= 0} q^(n(n+1)) / (-q; q^2)_(n+1)."""
    return _eulerian(order, lambda n: n * (n + 1), 0, lambda n: [2 * n + 1], -1)


def phi3(order):
    """phi(q) = sum_{n >= 0} q^(n^2) / (-q^2; q^2)_n."""
    return _eulerian(order, lambda n: n * n, 0, lambda n: [2 * n], -1)


def psibar0(order):
    """psibar0(q) = sum_{n >= 0} q^(2n^2) / (-q; q)_(2n)."""
    return _eulerian(order, lambda n: 2 * n * n, 0, lambda n: [2 * n - 1, 2 * n], -1)


def psibar1(order):
    """psibar1(q) = sum_{n >= 0} q^(2n^2 + 2n) / (-q; q)_(2n+1)."""
    return _eulerian(order, lambda n: 2 * n * n + 2 * n, 0, lambda n: [2 * n, 2 * n + 1], -1)


def phibar0(order):
    """phibar0(q) = sum_{n >= 0} q^n (-q; q)_(2n+1)."""
    return _eulerian(order, lambda n: n, 0, lambda n: [2 * n, 2 * n + 1], -1, divide=False)


def phibar1(order):
    """phibar1(q) = sum_{n >= 0} q^n (-q; q)_(2n)."""
    return _eulerian(order, lambda n: n, 0, lambda n: [2 * n - 1, 2 * n], -1, divide=False)


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
