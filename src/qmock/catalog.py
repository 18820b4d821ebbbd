"""Eulerian q-series for the seven named mock theta functions, as a catalog
keyed by their DSL names.  Their alternate forms (through g and m) are
stanzas of the shipped corpus.

Every generator takes a truncation order and returns the exact expansion
below it from one call of the Eulerian loop ``series.eulerian_sum``, the
loop of the universal mock theta function g too, on the integer grid.  Every
coefficient is 1 or -1, so the loop runs on packed integers: the
Pochhammer product is one integer, extended one factor 1 + q^k or 1 - q^k
at a time, dividing by it a few shift-adds and multiplying by it one, and
each term is one shifted add into the sum, which is unpacked once at the
end.  The DSL calls a series through ``CatalogEntry.at``.
"""

from __future__ import annotations

# Unused here, but perfbench/tracer.py's check_bindings probes these three
# names in this module to confirm its wrappers reach every binding.
from .appell import appell_m, eval_with_retry, universal_g_eulerian  # noqa: F401
from ._rational import as_pair, qdiv, qmul
from .series import eulerian_sum

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
_MINUS_ONE = (-1, 0, 1)


def _sum(weight, factors, order, divide=True):
    """sum_n q^weight(n) P_n below ``order``, P_n the product of the factors
    1 - c*q^k for the pairs (k, c) of factors(n) so far, divided or
    multiplied in (``series.eulerian_sum``)."""
    return eulerian_sum(1, lambda n: (weight(n), _ONE), factors, order, divide)


def _plus(*ks):
    """The pairs (k, -1) of the factors 1 + q^k, k > 0."""
    return [(k, _MINUS_ONE) for k in ks if k > 0]


def psi3(order):
    """psi(q) = sum_{n >= 1} q^(n^2) / (q; q^2)_n."""
    return _sum(lambda n: (n + 1) ** 2, lambda n: [(2 * n + 1, _ONE)], order)


def nu3(order):
    """nu(q) = sum_{n >= 0} q^(n(n+1)) / (-q; q^2)_(n+1)."""
    return _sum(lambda n: n * (n + 1), lambda n: _plus(2 * n + 1), order)


def phi3(order):
    """phi(q) = sum_{n >= 0} q^(n^2) / (-q^2; q^2)_n."""
    return _sum(lambda n: n * n, lambda n: _plus(2 * n), order)


def psibar0(order):
    """psibar0(q) = sum_{n >= 0} q^(2n^2) / (-q; q)_(2n)."""
    return _sum(lambda n: 2 * n * n, lambda n: _plus(2 * n - 1, 2 * n), order)


def psibar1(order):
    """psibar1(q) = sum_{n >= 0} q^(2n^2 + 2n) / (-q; q)_(2n+1)."""
    return _sum(lambda n: 2 * n * n + 2 * n, lambda n: _plus(2 * n, 2 * n + 1), order)


def phibar0(order):
    """phibar0(q) = sum_{n >= 0} q^n (-q; q)_(2n+1)."""
    return _sum(lambda n: n, lambda n: _plus(2 * n, 2 * n + 1), order, divide=False)


def phibar1(order):
    """phibar1(q) = sum_{n >= 0} q^n (-q; q)_(2n)."""
    return _sum(lambda n: n, lambda n: _plus(2 * n - 1, 2 * n), order, divide=False)


class CatalogEntry:
    """A named series with its Eulerian generator; the series starts at
    q^valuation."""

    def __init__(self, name, eulerian, valuation):
        self.name, self.eulerian, self.valuation = name, eulerian, valuation

    def at(self, u, order):
        """The series at the base monomial u (q -> u) below ``order``."""
        return self.eulerian(qdiv(as_pair(order), u.pair)).substitute_monomial(u)

    def start(self, u):
        """The exponent where the series at the base monomial u starts, as
        a pair."""
        return qmul(u.pair, self.valuation)


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
