"""The named mock theta functions, and the corpus stanzas that equate each
with its alternate forms through g and m."""

import dataclasses
from fractions import Fraction

import pytest

from qmock.catalog import (
    CATALOG,
    nu3,
    phi3,
    phibar0,
    phibar1,
    psi3,
    psibar0,
    psibar1,
)
from qmock.cli import shipped_corpus_path
from qmock.dsl import parse_corpus, verify_identity
from qmock.series import FractionalExponent, QSeries, mono

from oracles import poly_mul, poly_one, series_to_dict


def _eulerian_psi_reference(order):
    """Brute-force psi: expand each summand's denominator by long division."""
    from oracles import long_division_invert

    out = {}
    n = 1
    while n * n < order:
        den = poly_one()
        for i in range(n):
            den = poly_mul(den, {Fraction(0): Fraction(1), Fraction(2 * i + 1): Fraction(-1)})
        inv = long_division_invert(den, order)
        for e, c in inv.items():
            ee = e + n * n
            if ee < order:
                out[ee] = out.get(ee, Fraction(0)) + c
        n += 1
    return {e: c for e, c in out.items() if c}


class TestLeadingTerms:
    def test_psi(self):
        assert series_to_dict(psi3(8)) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3}

    def test_psi_against_long_division_reference(self):
        assert series_to_dict(psi3(24)) == _eulerian_psi_reference(24)

    def test_nu(self):
        assert series_to_dict(nu3(6)) == {0: 1, 1: -1, 2: 2, 3: -2, 4: 2, 5: -3}

    def test_phi(self):
        # 1 + q - q^3 + q^4 + ... from the alternating denominators
        d = series_to_dict(phi3(5))
        assert d[0] == 1 and d[1] == 1 and d.get(2, 0) == 0 and d[3] == -1

    def test_phibar0(self):
        assert series_to_dict(phibar0(4)) == {0: 1, 1: 2, 2: 2, 3: 3}

    def test_psibar0(self):
        assert series_to_dict(psibar0(7)) == {0: 1, 2: 1, 3: -1, 6: 1}


ALTERNATE_STANZAS = {
    "psi": ["psi-universal-g", "psi-appell-12", "psi-appell-negated"],
    "nu": ["nu-universal-g", "nu-appell-12-pair", "nu-appell-12-single"],
    "phi": ["phi-universal-g", "phi-appell-12", "phi-appell-negated"],
    **{name: [f"{name}-universal-g"] for name in ("psibar0", "psibar1", "phibar0", "phibar1")},
}


@pytest.fixture(scope="module")
def corpus_records():
    text = shipped_corpus_path().read_text(encoding="utf-8")
    return {r.id: r for r in parse_corpus(text)}


class TestAlternates:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_alternates_agree_to_order_60(self, name, corpus_records):
        # lhs is the Eulerian generator, so a PASS is agreement with it
        for ident in ALTERNATE_STANZAS[name]:
            record = dataclasses.replace(corpus_records[ident], order=60)
            assert f"{name}(q)" in record.lhs_text, ident
            report = verify_identity(record)
            assert report.status == "PASS", f"{ident}: {report.status} {report.detail}"
            assert report.achieved_precision == 60, ident


class TestNegatedBase:
    def test_twist_matches_reinstantiated_sum(self):
        # nu(-q) recomputed from scratch with alternating signs
        order = 40
        twisted = nu3(order).negate_base()
        from qmock.series import unit_fraction_expand

        # under q -> -q the factors 1 + (-q)^(2i+1) become 1 - q^(2i+1),
        # and every numerator exponent n(n+1) is even
        inv = unit_fraction_expand(1, 1, order)
        total = QSeries.zero(order)
        n = 0
        while n * (n + 1) < order:
            if n == 0:
                inv = unit_fraction_expand(1, 1, order)
            else:
                inv = (inv * unit_fraction_expand(1, 2 * n + 1, order)).truncate(order)
            sign = 1 if (n * (n + 1)) % 2 == 0 else -1
            total = total + inv.mul_monomial(mono(sign, n * (n + 1))).truncate(order)
            n += 1
        assert twisted.agrees_with(total)

    def test_parity_pairs(self):
        order = 50
        psi = psi3(order)
        phi = phi3(order)
        half = order // 2
        assert phibar0(half).substitute_power(2).mul_monomial(mono(2, 2)).agrees_with(
            psi + psi.negate_base()
        )
        assert phibar1(half).substitute_power(2).mul_monomial(mono(2, 1)).agrees_with(
            psi - psi.negate_base()
        )
        assert (psibar0(half).substitute_power(2) * 2).agrees_with(
            phi + phi.negate_base()
        )
        assert psibar1(half).substitute_power(2).mul_monomial(mono(2, 1)).agrees_with(
            phi - phi.negate_base()
        )

    def test_fractional_exponent_rejected(self):
        s = QSeries({Fraction(1, 2): 1}, 3)
        with pytest.raises(FractionalExponent):
            s.negate_base()
