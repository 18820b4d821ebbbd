"""Acceptance suite: every exit criterion at its stated truncation order.

Each test prints one PASS/FAIL line (run with -s to see them inline).
All comparisons are exact coefficient equality; the only tolerances are
wall-clock budgets, asserted where stated.
"""

import random
import time
from fractions import Fraction

import pytest

from qmock._rational import rat
from qmock.catalog import (
    nu3,
    phi3,
    phibar0,
    phibar1,
    psi3,
    psibar0,
    psibar1,
)
from qmock.cli import run_corpus, shipped_corpus_path
from qmock.dsl import parse_corpus, verify_identity
from qmock.hecke import f_abc, f_abc_via_quadrants
from qmock.appell import appell_m, msplit_rhs
from qmock.series import (
    GaussianRational,
    QSeries,
    mono,
    qpow,
    unit_fraction_expand,
)
from qmock.theta import J, Jbar, Jm, jacobi_theta

R = Fraction


def _report(number, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}  {label} {extra}".rstrip())
    assert ok, f"criterion {number}: {label} {extra}"


@pytest.fixture(scope="module")
def corpus_records():
    text = shipped_corpus_path().read_text(encoding="utf-8")
    return {r.id: r for r in parse_corpus(text)}


def _verify_ids(records, ids):
    failures = []
    for ident in ids:
        rep = verify_identity(records[ident])
        if rep.status != "PASS":
            failures.append(f"{ident}: {rep.status} {rep.detail}")
    return failures


def _ids_with_prefix(records, *prefixes):
    out = [i for i in records if any(i.startswith(p) for p in prefixes)]
    assert out, f"no corpus ids with prefixes {prefixes}"
    return sorted(out)


def _nj_sum(order, row_min, rows):
    """Direct double loop: rows(n) yields (exponent, rational coeff) pairs."""
    order = R(order)
    out = {}
    n = 0
    while R(row_min(n)) < order:
        for e, c in rows(n):
            e = R(e)
            if e < order:
                out[e] = out.get(e, R(0)) + c
        n += 1
    return QSeries({k: v for k, v in out.items() if v}, order)


def _series(dict_series):
    return dict_series


# ---------------------------------------------------------------------------

def test_criterion_01_hecke_forms_for_psi_and_negated_nu():
    order = 100

    def psi_rows(n):
        base = 2 * n * n + n
        for j in range(-n, n + 1):
            e = base - R((j + 1) * j, 2)
            sign = -1 if n & 1 else 1
            yield e, sign
            yield e + 2 * n + 1, sign

    t0 = time.perf_counter()
    raw = _nj_sum(order, lambda n: R(3 * n * n + n, 2), psi_rows)
    lhs = raw * Jm(1, order).invert()
    want = QSeries.one(order) + psi3(order) * 2
    assert lhs.precision >= order
    ok1 = lhs.agrees_with(want)
    t1 = time.perf_counter() - t0

    def nu_rows(n):
        base = 2 * n * n + 2 * n
        for j in range(-n, n + 1):
            e = base - R((j + 1) * j, 2)
            yield e, (-1 if n & 1 else 1)

    t0 = time.perf_counter()
    raw = _nj_sum(order, lambda n: R(3 * n * n + 3 * n, 2), nu_rows)
    lhs = raw * Jm(1, order).invert()
    want = nu3(order).negate_base()
    assert lhs.precision >= order
    ok2 = lhs.agrees_with(want)
    t2 = time.perf_counter() - t0

    _report(1, "Hecke double sums for 1+2psi and nu(-q), order 100",
            ok1 and ok2 and t1 < 5 and t2 < 5, f"[{t1:.2f}s, {t2:.2f}s]")


def test_criterion_02_hecke_forms_for_psibar():
    order = 100

    def rows_0(n):
        base = 4 * n * n + n
        for j in range(-n, n + 1):
            sign = -1 if j & 1 else 1
            yield base - j * j, sign
            yield base + 6 * n + 3 - j * j, -sign

    def rows_1(n):
        base = 4 * n * n + 3 * n
        for j in range(-n, n + 1):
            sign = -1 if j & 1 else 1
            yield base - j * j, sign
            yield base + 2 * n + 1 - j * j, -sign

    j2inv = Jm(2, order).invert()
    got0 = _nj_sum(order, lambda n: 3 * n * n + n, rows_0) * j2inv
    got1 = _nj_sum(order, lambda n: 3 * n * n + 3 * n, rows_1) * j2inv
    assert got0.precision >= order and got1.precision >= order
    ok = got0.agrees_with(psibar0(order)) and got1.agrees_with(psibar1(order))
    _report(2, "Hecke double sums for psibar0 and psibar1, order 100", ok)


def test_criterion_03_new_mock_theta_identities(corpus_records):
    failures = _verify_ids(corpus_records, ["psibar0-universal-g", "psibar1-universal-g"])
    _report(3, "psibar0/psibar1 in terms of the universal mock theta, order 100",
            not failures, "; ".join(failures))


def test_criterion_04_four_new_hecke_identities():
    order = 100

    def phi_rows(n):
        base = 2 * n * n + n
        nsign = -1 if n & 1 else 1
        for j in range(-n, n + 1):
            sign = nsign * (-1 if j & 1 else 1)
            e = base - R(3 * j * j, 2) + R(j, 2)
            yield e, sign
            yield e + 2 * n + 1, sign

    def nu_rows(n):
        base = 2 * n * n + 2 * n
        nsign = -1 if n & 1 else 1
        for j in range(-n, n + 1):
            sign = nsign * (-1 if j & 1 else 1)
            yield base - R(3 * j * j, 2) + R(j, 2), sign

    def phibar0_rows(n):
        base = 4 * n * n + n
        for j in range(-n, n + 1):
            sign = -1 if j & 1 else 1
            e = base - 3 * j * j - j
            yield e, sign
            yield e + 6 * n + 3, -sign

    def phibar1_rows(n):
        base = 4 * n * n + 3 * n
        for j in range(-n, n + 1):
            sign = -1 if j & 1 else 1
            e = base - 3 * j * j - j
            yield e, sign
            yield e + 2 * n + 1, -sign

    w = order + 2
    checks = {
        "theta*phi": (
            _nj_sum(order, lambda n: R(n * n + n, 2), phi_rows),
            Jbar(1, 4, w) * phi3(w),
        ),
        "theta*nu": (
            _nj_sum(order, lambda n: R(n * n + 3 * n, 2), nu_rows),
            Jbar(1, 4, w) * nu3(w),
        ),
        "theta*(q phibar0 + 1)": (
            _nj_sum(order, lambda n: n * n - 2 * n, phibar0_rows),
            J(1, 2, w) * (phibar0(w).mul_monomial(qpow(1)) + 1),
        ),
        "theta*phibar1": (
            _nj_sum(order, lambda n: n * n - n, phibar1_rows),
            J(1, 2, w) * phibar1(w),
        ),
    }
    bad = [k for k, (got, want) in checks.items() if not got.agrees_with(want)]
    _report(4, "four Hecke double sums against catalog-times-theta, order 100",
            not bad, "; ".join(bad))


def test_criterion_05_phibar_identities_and_pair_relations(corpus_records):
    failures = _verify_ids(corpus_records, [
        "phibar0-universal-g", "phibar1-universal-g", "mock-pair-even", "mock-pair-odd",
    ])
    _report(5, "phibar identities and the mock pair relations, order 100",
            not failures, "; ".join(failures))


def test_criterion_06_parity_relations(corpus_records):
    failures = _verify_ids(corpus_records, [
        "phi-parity-even", "phi-parity-odd", "psi-parity-even", "psi-parity-odd",
    ])
    _report(6, "parity decompositions of psi and phi, order 100",
            not failures, "; ".join(failures))


def test_criterion_07_catalog_alternate_forms(corpus_records):
    failures = _verify_ids(corpus_records, [
        "psi-universal-g", "psi-appell-12", "psi-appell-negated",
        "nu-universal-g", "nu-appell-12-pair", "nu-appell-12-single",
        "phi-universal-g", "phi-appell-12", "phi-appell-negated",
    ])
    _report(7, "psi, nu, phi match all displayed Appell-Lerch forms, order 80",
            not failures, "; ".join(failures))


def test_criterion_08_theta_toolkit(corpus_records):
    ids = _ids_with_prefix(
        corpus_records,
        "theta-shift-", "theta-reflect-", "theta-negate-argument",
        "theta-base-split-", "theta-negated-base", "theta-argument-split-",
        "theta-power-", "riemann-relation", "quintuple-product-",
        "theta-product-doubling", "theta-parity-",
    )
    failures = _verify_ids(corpus_records, ids)

    # partial-fraction reciprocal of the theta product: direct bilateral loop
    order = R(60)
    for z in (qpow(R(2, 7)), mono(-1, R(3, 5)), mono(2, R(4, 9))):
        total = QSeries.zero(order)

        def add_term(n):
            nonlocal total
            e = R(n * (n + 1), 2)
            k = n + z.exp
            low = e if k > 0 else e - k
            if low >= order:
                return False
            expand = unit_fraction_expand(z.coeff, k, order - e)
            sign = -1 if n & 1 else 1
            total = total + expand.mul_monomial(mono(sign, e))
            return True

        n = 0
        while add_term(n) or n < 3:
            n += 1
        n = -1
        while add_term(n) or n > -4:
            n -= 1
        rhs = (Jm(1, order + 2) ** 3) * jacobi_theta(z, qpow(1), order + 2).invert()
        if not total.agrees_with(rhs.truncate(order)):
            failures.append(f"reciprocal at z={z}")
    _report(8, "theta toolkit identities at 3 generic points each, order 60",
            not failures, "; ".join(failures))


def test_criterion_09_new_theta_identities(corpus_records):
    ids = _ids_with_prefix(
        corpus_records,
        "theta-triple-balance-", "theta-lattice-", "theta-eval-", "theta-halves-",
    )
    failures = _verify_ids(corpus_records, ids)
    _report(9, "new theta product identities (3 specializations / order 100)",
            not failures, "; ".join(failures))


def test_criterion_10_appell_lerch_laws(corpus_records):
    ids = _ids_with_prefix(corpus_records, "appell-", "universal-g-")
    failures = _verify_ids(corpus_records, ids)

    # the n-term splitting theorem itself at n = 2, 3
    for n in (2, 3):
        for x, z, zp in (
            (qpow(R(1, 7)), qpow(R(2, 7)), qpow(R(3, 7))),
            (qpow(R(2, 5)), mono(-1, R(1, 5)), qpow(R(4, 5))),
            (mono(2, R(2, 9)), qpow(R(4, 9)), mono(-1, R(7, 9))),
        ):
            ref = appell_m(x, qpow(1), z, 40)
            if not msplit_rhs(n, x, qpow(1), z, zp, 40).agrees_with(ref):
                failures.append(f"split n={n} at x={x}")
    _report(10, "Appell-Lerch laws and splitting theorem, 3 points each, order 40",
            not failures, "; ".join(failures))


def test_criterion_11_structure_theorems(corpus_records):
    ids = _ids_with_prefix(
        corpus_records, "double-sum-block-", "double-sum-twoterm-", "theta-block-3-2-halves-"
    )
    failures = []
    slow = []
    for ident in ids:
        t0 = time.perf_counter()
        rep = verify_identity(corpus_records[ident])
        dt = time.perf_counter() - t0
        if rep.status != "PASS":
            failures.append(f"{ident}: {rep.status}")
        if dt >= 30:
            slow.append(f"{ident}: {dt:.1f}s")
    _report(11, "block decompositions of the double sums, order 25, <30s each",
            not failures and not slow, "; ".join(failures + slow))


def test_criterion_12_double_sum_recurrences():
    rnd = random.Random(20120118)
    failures = []

    def random_spec():
        a = rnd.randint(1, 4)
        c = rnd.randint(1, 4)
        b = rnd.randint(0, 6)
        x = mono(rnd.choice([1, -1, 2]), R(rnd.randint(-3, 5), rnd.choice([1, 2, 5, 7])))
        y = mono(rnd.choice([1, -1]), R(rnd.randint(-3, 5), rnd.choice([1, 2, 5, 7])))
        base = mono(rnd.choice([1, 1, -1]), R(rnd.choice([1, 1, 2, 3]), rnd.choice([1, 2])))
        return a, b, c, x, y, base

    for _ in range(10):
        a, b, c, x, y, base = random_spec()
        lhs = f_abc(a, b, c, x, y, base, 30)
        sh1 = f_abc(a, b, c, (base ** b) * x, (base ** c) * y, base, 36)
        if not lhs.agrees_with((sh1.mul_monomial(-y) + jacobi_theta(x, base ** a, 30)).truncate(30)):
            failures.append(f"y-shift {(a, b, c, x, y)}")
        sh2 = f_abc(a, b, c, (base ** a) * x, (base ** b) * y, base, 36)
        if not lhs.agrees_with((sh2.mul_monomial(-x) + jacobi_theta(y, base ** c, 30)).truncate(30)):
            failures.append(f"x-shift {(a, b, c, x, y)}")
        flipped = f_abc(a, b, c, (base ** (2 * a + b)) * x.inverse(),
                        (base ** (2 * c + b)) * y.inverse(), base, 45)
        rhs = flipped.mul_monomial(-((base ** (a + b + c)) * (x * y).inverse()))
        if not lhs.agrees_with(rhs.truncate(30)):
            failures.append(f"flip {(a, b, c, x, y)}")
    for _ in range(5):
        a, b, c, x, y, base = random_spec()
        b4 = base ** 4
        lhs = f_abc(a, b, c, x, y, base, 30)
        t1 = f_abc(a, b, c, -(x ** 2) * base ** a, -(y ** 2) * base ** c, b4, 40)
        t2 = f_abc(a, b, c, -(x ** 2) * base ** (3 * a), -(y ** 2) * base ** (c + 2 * b), b4, 40)
        t3 = f_abc(a, b, c, -(x ** 2) * base ** (a + 2 * b), -(y ** 2) * base ** (3 * c), b4, 40)
        t4 = f_abc(a, b, c, -(x ** 2) * base ** (3 * a + 2 * b),
                   -(y ** 2) * base ** (3 * c + 2 * b), b4, 40)
        rhs = t1 - t2.mul_monomial(x) - t3.mul_monomial(y) + t4.mul_monomial((x * y) * (base ** b))
        if not lhs.agrees_with(rhs.truncate(30)):
            failures.append(f"base-change {(a, b, c, x, y)}")
    for _ in range(20):
        a, b, c, x, y, base = random_spec()
        if not f_abc(a, b, c, x, y, base, 30).agrees_with(
            f_abc_via_quadrants(a, b, c, x, y, base, 30)
        ):
            failures.append(f"quadrant oracle {(a, b, c, x, y)}")
    _report(12, "double sum recurrences and quadrant oracle on random parameters",
            not failures, "; ".join(failures))


def test_criterion_13_theta_square_identity(corpus_records):
    failures = _verify_ids(corpus_records, ["theta-square-hecke"])
    _report(13, "theta square as difference of double sums, order 100",
            not failures, "; ".join(failures))


def test_criterion_14_kernel_properties():
    rnd = random.Random(8128)
    failures = []

    def random_series(max_prec=14):
        prec = rnd.randint(3, max_prec)
        terms = {}
        for _ in range(rnd.randint(0, 7)):
            e = R(rnd.randint(-4, 2 * max_prec), rnd.choice([1, 2, 3]))
            c = GaussianRational(R(rnd.randint(-4, 4), rnd.choice([1, 2, 3])),
                                 R(rnd.randint(-2, 2)))
            if not c.is_zero():
                terms[e] = c
        return QSeries(terms, prec)

    for _ in range(100):
        a, b, c = random_series(), random_series(), random_series()
        if not ((a + b).agrees_with(b + a) and (a * b).agrees_with(b * a)
                and ((a + b) + c).agrees_with(a + (b + c))
                and ((a * b) * c).agrees_with(a * (b * c))
                and (a * (b + c)).agrees_with(a * b + a * c)):
            failures.append("ring axiom")
            break
    for _ in range(100):
        prec = rnd.randint(4, 12)
        terms = {R(0): 1}
        for _ in range(rnd.randint(1, 6)):
            terms[R(rnd.randint(1, 3 * prec), rnd.choice([1, 2, 3]))] = rnd.choice(
                [1, -1, 2, R(1, 2)]
            )
        s = QSeries(terms, prec)
        prod = s * s.invert()
        if not (prod.precision == prec and list(prod.terms) == [R(0)]):
            failures.append("invert round trip")
            break
    for _ in range(100):
        a, b = random_series(), random_series()
        hi = a * b
        lo = a.truncate(rnd.randint(1, 3)) * b
        if not lo.agrees_with(hi):
            failures.append("precision monotonicity")
            break
    for _ in range(100):
        k = R(rnd.randint(1, 5), rnd.choice([1, 2]))
        a, b = random_series(), random_series()
        if not ((a * b).substitute_power(k).agrees_with(
                a.substitute_power(k) * b.substitute_power(k))
                and (a + b).substitute_power(k).agrees_with(
                a.substitute_power(k) + b.substitute_power(k))):
            failures.append("substitution homomorphism")
            break
    _report(14, "kernel ring/inversion/precision/substitution properties, 100 cases each",
            not failures, "; ".join(failures))


def test_criterion_15_full_corpus():
    text = shipped_corpus_path().read_text(encoding="utf-8")
    records = parse_corpus(text)
    t0 = time.perf_counter()
    reports = run_corpus(records, jobs=1)
    dt = time.perf_counter() - t0
    by_id = {r.id: r for r in records}
    not_passing = [r.id for r in reports
                   if r.status != "PASS" or r.achieved_precision != by_id[r.id].order]
    _report(15, f"full shipped corpus ({len(records)} stanzas) all-pass",
            not not_passing and dt < 600, f"[{dt:.1f}s] {'; '.join(not_passing)}")
