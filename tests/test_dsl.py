"""Expression language: parsing, printing, evaluation, verification, corpus."""

import math
import pickle
import random
import time
from fractions import Fraction

import pytest

import importlib.util
import pathlib

from qmock import appell, catalog, dsl, hecke, series, theta
from qmock._rational import rat
from qmock.dsl import (
    FUNCTIONS,
    Add,
    ArityError,
    Call,
    CorpusSyntaxError,
    Div,
    EvaluationError,
    ExpressionSyntaxError,
    IdentityRecord,
    Literal,
    Mul,
    Neg,
    Pow,
    QPow,
    Sub,
    UnknownFunction,
    evaluate,
    parse,
    parse_corpus,
    to_text,
    verify_identity,
)
from qmock.series import (
    GaussianRational,
    GR_I,
    InsufficientPrecision,
    PowerTooLarge,
    QSeries,
    QSeriesError,
    mono,
    qpow,
)

import oracles
from oracles import retry_evaluate, series_to_dict


class TestParse:
    def test_call_tree_shape(self):
        ast = parse("J(1,2)*JB(3,8)/Jm(2)")
        assert isinstance(ast, Div)
        assert isinstance(ast.left, Mul)
        assert ast.left.left == Call("J", (Literal(GaussianRational(1)), Literal(GaussianRational(2))))
        assert ast.right == Call("Jm", (Literal(GaussianRational(2)),))

    def test_monomial_arguments(self):
        ast = parse("m(-q^26, q^48, -1)")
        assert ast == Call(
            "m",
            (Neg(QPow(rat(26))), QPow(rat(48)), Neg(Literal(GaussianRational(1)))),
        )

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("q^(1/2")
        assert err.value.col == 7

    @pytest.mark.parametrize("text, col", [("q^\u00b2", 3), ("\u00b2 * q", 1), ("J(1, 2\u0663)", 7)])
    def test_only_ascii_digits(self, text, col):
        # str.isdigit takes these; int() refuses the first two and reads
        # the Arabic-Indic 3 as 3
        with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("zeta(3)")

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            parse("J(1)")
        with pytest.raises(ArityError):
            parse("m(q,q)")

    def test_juxtaposition_is_multiplication(self):
        assert parse("2q") == Mul(Literal(GaussianRational(2)), QPow(rat(1)))
        assert parse("2 q^2 Jm(1)") == Mul(
            Mul(Literal(GaussianRational(2)), QPow(rat(2))),
            Call("Jm", (Literal(GaussianRational(1)),)),
        )

    def test_fractional_power_only_on_q(self):
        assert parse("q^(3/2)") == QPow(rat(3, 2))
        with pytest.raises(ExpressionSyntaxError):
            parse("Jm(1)^(1/2)")

    def test_imaginary_unit(self):
        assert parse("i") == Literal(GR_I)

    def test_deep_nesting_is_a_syntax_error(self):
        deep = "(" * 600 + "q" + ")" * 600
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            parse(deep)
        with pytest.raises(CorpusSyntaxError, match="nested too deeply"):
            parse_corpus(f'[identity a]\nanchor = "x"\norder = 5\nlhs = {deep}\nrhs = q\n')

    def test_precedence(self):
        assert parse("1+2*3") == Add(
            Literal(GaussianRational(1)),
            Mul(Literal(GaussianRational(2)), Literal(GaussianRational(3))),
        )
        assert parse("-q^2") == Neg(QPow(rat(2)))


def _random_ast(rnd, depth=0, dens=(1, 2, 7)):
    """Random AST in the parser's canonical shape; the q-power literals have
    exponent denominators drawn from ``dens``."""
    if depth > 3 or rnd.random() < 0.3:
        choice = rnd.randrange(3)
        if choice == 0:
            return Literal(GaussianRational(rnd.randint(0, 9)))
        if choice == 1:
            return Literal(GR_I)
        e = rat(rnd.randint(-12, 12), rnd.choice(dens))
        return QPow(e)
    kind = rnd.randrange(6)
    if kind == 0:
        return Add(_random_ast(rnd, depth + 1, dens), _random_ast(rnd, depth + 1, dens))
    if kind == 1:
        return Sub(_random_ast(rnd, depth + 1, dens), _random_ast(rnd, depth + 1, dens))
    if kind == 2:
        return Mul(_random_ast(rnd, depth + 1, dens), _random_ast(rnd, depth + 1, dens))
    if kind == 3:
        return Div(_random_ast(rnd, depth + 1, dens), _random_ast(rnd, depth + 1, dens))
    if kind == 4:
        return Neg(_random_ast(rnd, depth + 1, dens))
    name = rnd.choice(["Jm", "J", "m", "psi", "negq"])
    if name == "Jm":
        return Call("Jm", (Literal(GaussianRational(rnd.randint(1, 6))),))
    if name == "J":
        return Call("J", (Literal(GaussianRational(rnd.randint(1, 4))),
                          Literal(GaussianRational(rnd.randint(5, 9)))))
    if name == "m":
        return Call("m", (Neg(QPow(rat(rnd.randint(1, 9)))), QPow(rat(12)),
                          Neg(Literal(GaussianRational(1)))))
    if name == "psi":
        return Call("psi", (QPow(rat(1)),))
    return Call("negq", (_random_ast(rnd, depth + 1, dens),))


class TestPrintRoundTrip:
    def test_200_random_asts(self):
        rnd = random.Random(616)
        for _ in range(200):
            ast = _random_ast(rnd)
            assert parse(to_text(ast)) == ast


class TestEvaluate:
    def test_pentagonal(self):
        out = evaluate(parse("Jm(1)"), 13)
        assert series_to_dict(out) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}

    def test_geometric(self):
        out = evaluate(parse("1/(1-q)"), 5)
        assert series_to_dict(out) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_phi_from_negated_base_appell(self):
        out = evaluate(parse("phi(q)-2*m(q,-q^3,-1)-2*q*Jm(12)^3/(J(4,12)*J(3,12))"), 40)
        assert out.is_zero()
        assert out.precision == 40

    def test_order_monotone(self):
        expr = parse("psi(q)*Jm(1)/J(1,2) + m(q,q^12,q^2)")
        lo = evaluate(expr, 15)
        hi = evaluate(expr, 40)
        assert lo.agrees_with(hi)

    def test_division_precision_recovered(self):
        # 1/J_{1,2} consumes precision; the plan asks its parts for more
        out = evaluate(parse("Jm(2)/J(1,2)"), 30)
        assert out.precision == 30

    def test_divisor_led_at_or_past_the_order(self):
        # psi(q) is zero below q^1; 1/(i - q^-1) = -q/(1 - iq) starts at q^1
        out = evaluate(parse("1/psi(q)"), 1)
        assert series_to_dict(out) == {-1: 1, 0: -1}
        out = evaluate(parse("1/(i - q^-1)"), 1)
        assert out.is_zero() and out.precision == 1

    def test_constant_sums_fold_in_argument_slots(self):
        # a Gaussian coefficient written as a sum, in a monomial slot and
        # in the constant slots of J and m
        got = evaluate(parse("j((1+i)*q^(1/3), q)"), 2)
        assert got == theta.jacobi_theta(mono(GaussianRational(1, 1), Fraction(1, 3)), qpow(1), 2)
        assert evaluate(parse("J(1/2+1/2, 5)"), 10) == theta.J(1, 5, 10)
        got = evaluate(parse("m(q, q^2, 1/2-3/2*i)"), 6)
        assert got == appell.appell_m(qpow(1), qpow(2), mono(GaussianRational(Fraction(1, 2), Fraction(-3, 2))), 6)
        for bad in ("j(1-1, q)", "j(0*q, q)", "j(q+1, q)", "j((1+q)*q, q)", "J(1+i, 5)"):
            with pytest.raises(EvaluationError):
                evaluate(parse(bad), 4)

    @pytest.mark.parametrize("text, base, n", [
        pytest.param(text, base, n, id=text) for text, base, n in (
            ("(1+q)^100000", {0: 1, 1: 1}, 100000), ("(1+q+q^2)^50000", {0: 1, 1: 1, 2: 1}, 50000),
            ("(q^(-1)+1)^5", {-1: 1, 0: 1}, 5), ("(q^(-1)+1+0)^5", {-1: 1, 0: 1}, 5))])
    def test_exact_base_to_a_large_power(self, text, base, n, monkeypatch):
        # the base is cut at the order it is asked for, on the second ask
        # too (a base whose valuation is unknown, as "+0" makes it), so the
        # power never holds the base's full degree; the binomial and
        # trinomial coefficients by convolving the oracle's dicts
        raised = []
        inner = QSeries.__pow__
        monkeypatch.setattr(QSeries, "__pow__", lambda s, k: raised.append(s.precision) or inner(s, k))
        start = time.perf_counter()
        out = evaluate(parse(text), 3)
        assert time.perf_counter() - start < 5
        assert raised and None not in raised
        cut = 3 - n * min(0, min(base))   # past it, no term comes back below 3
        want = {0: 1}
        for bit in bin(n)[2:]:
            want = oracles.poly_mul(want, want, cut)
            if bit == "1":
                want = oracles.poly_mul(want, base, cut)
        assert series_to_dict(out) == {e: c for e, c in want.items() if e < 3}
        assert out.precision == 3

    def test_oversized_power_is_refused_before_it_is_formed(self):
        # below q^3, (q^(-1) + 1)^100000 has 100001 terms of up to 10^5
        # bits: refused at once, while ^2000 expands to its binomials
        start = time.perf_counter()
        with pytest.raises(PowerTooLarge, match="coefficient bits"):
            evaluate(parse("(q^(-1)+1)^100000"), 3)
        assert time.perf_counter() - start < 1
        out = evaluate(parse("(q^(-1)+1)^2000"), 3)
        assert series_to_dict(out) == {-k: math.comb(2000, k) for k in range(2001)}
        assert out.precision == 3

    @pytest.mark.parametrize("n, order", [(1000000, 200), (50000000, 3)])
    def test_huge_powers_of_a_cut_base_are_formed(self, n, order):
        # the base is cut below the order, so the answer is a few binomials
        # of at most order*log2(n) bits however large n is
        out = evaluate(parse(f"(1+q)^{n}"), order)
        assert series_to_dict(out) == {k: math.comb(n, k) for k in range(order)}
        assert out.precision == order

    def test_no_shipped_power_comes_near_the_bound(self, monkeypatch):
        # every stanza passes at its own order with the bound 2^10 times
        # lower, and every power written in the corpus, on its own at
        # orders 200 and 400, with the bound 2^4 times lower
        from qmock.cli import run_corpus, shipped_corpus_path

        records = parse_corpus(shipped_corpus_path().read_text(encoding="utf-8"))
        bound = series._MAX_POWER_BITS
        monkeypatch.setattr(series, "_MAX_POWER_BITS", bound >> 10)
        assert {r.status for r in run_corpus(records, jobs=1)} == {"PASS"}
        monkeypatch.setattr(series, "_MAX_POWER_BITS", bound >> 4)
        powers = {}
        stack = [node for rec in records for node in (rec.lhs, rec.rhs)]
        while stack:
            node = stack.pop()
            if isinstance(node, (Add, Sub, Mul, Div)):
                stack += [node.left, node.right]
            elif isinstance(node, Neg):
                stack.append(node.operand)
            elif isinstance(node, Pow):
                powers[to_text(node)] = node
                stack.append(node.base)
            elif isinstance(node, Call):
                stack += node.args
        assert len(powers) >= 40
        for node in powers.values():
            for order in (200, 400):
                assert evaluate(node, order).precision == order

    def test_negq(self):
        out = evaluate(parse("negq(psi(q)) + psi(q)"), 30)
        want = evaluate(parse("2*q^2*phibar0(q^2)"), 30)
        assert out.agrees_with(want)

    def test_subq(self):
        out = evaluate(parse("subq(Jm(1), 3)"), 30)
        assert out.agrees_with(evaluate(parse("Jm(3)"), 30))
        half = evaluate(parse("subq(1/(1-q), 1/2)"), 2)
        assert series_to_dict(half) == {0: 1, Fraction(1, 2): 1, 1: 1, Fraction(3, 2): 1}
        for text, order in (("subq(Jm(1), 3)", 30), ("subq(1/(1-q), 1/2)", 2), ("negq(subq(J(1,3), 2))", 7)):
            assert evaluate(parse(text), order) == retry_evaluate(parse(text), order)


class TestRetryCap:
    """The retry loop the hand-coded block sums of tests/oracles.py keep."""

    def test_always_short_raises_after_four_passes(self):
        passes = []

        def short_by_one(w):
            passes.append(w)
            return QSeries.zero(9)

        with pytest.raises(InsufficientPrecision):
            appell.eval_with_retry(short_by_one, 10)
        assert len(passes) == 4  # the first pass and three retries

    def test_short_once_recovers_on_the_second_pass(self):
        passes = []

        def short_once(w):
            passes.append(w)
            if len(passes) == 1:
                return QSeries.zero(w - 1)
            return theta.Jm(1, w)

        out = appell.eval_with_retry(short_once, 10)
        assert passes == [10, 12]
        assert out.precision == 10
        assert series_to_dict(out) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}


class TestPlannedPass:
    def test_short_pass_is_an_internal_error(self, monkeypatch):
        passes = []

        def short_by_one(node, w):
            passes.append(w)
            return QSeries.zero(w - 1)

        monkeypatch.setattr(dsl, "_eval", short_by_one)
        with pytest.raises(InsufficientPrecision, match="internal error"):
            evaluate(parse("q"), 10)
        assert passes == [10]  # no second pass

    @pytest.mark.parametrize("text", [
        # the valuations only bound where m starts, so 1/m has none; it
        # starts at q^-2, so the first factor (or the base) is asked again
        # once the second shows where it starts
        "(1/m(q^5,q^12,q^2))*(1/m(q^5,q^12,q^2))",
        "(1/m(q^5,q^12,q^2))^3",
    ])
    def test_factors_without_valuations_match_the_retry_oracle(self, text):
        for order in (3, 8):
            assert evaluate(parse(text), order) == retry_evaluate(parse(text), order)

    def test_random_asts_match_the_retry_oracle(self):
        # the draws of TestOrderAgreement
        rnd = random.Random(2012)
        for _ in range(1000):
            ast = _random_ast(rnd)
            n = rnd.randint(1, 8)
            k = rnd.randint(1, 6)
            for order in (n, n + k):
                try:
                    want = retry_evaluate(ast, order)
                except QSeriesError:
                    continue
                got = evaluate(ast, order)
                assert got == want, (to_text(ast), order)

    @pytest.mark.parametrize("text", [
        "1/h_abc(1,2,1,-q^(2/5),2q^(4/5),q,-1,-1)",
        "q^2/(theta_np(1,2,-q^(2/5),2q^(4/5),q)*g_abc(1,3,1,q^(1/7),q^(3/7),q,-1,-1))",
    ])
    def test_block_divisor_takes_one_pass(self, text, monkeypatch):
        # a block is expanded inside the plan: one pass, and the retry loop
        # of the hand-coded sums is never entered
        passes, retries = [], []
        planned, retry = dsl._eval, appell.eval_with_retry

        def counted(node, w):
            passes.append(w)
            return planned(node, w)

        def counted_retry(build, order):
            retries.append(order)
            return retry(build, order)

        monkeypatch.setattr(dsl, "_eval", counted)
        monkeypatch.setattr(appell, "eval_with_retry", counted_retry)
        got = evaluate(parse(text), 8)
        assert passes == [8] and retries == []
        monkeypatch.undo()
        assert got == retry_evaluate(parse(text), 8)

    def test_shipped_stanzas_take_one_pass_and_match_the_retry_oracle(self, monkeypatch):
        from qmock.cli import shipped_corpus_path

        passes = []
        planned = dsl._eval

        def counted(node, w):
            passes.append(w)
            return planned(node, w)

        monkeypatch.setattr(dsl, "_eval", counted)
        for rec in parse_corpus(shipped_corpus_path().read_text(encoding="utf-8")):
            diff = Sub(rec.lhs, rec.rhs)
            passes.clear()
            got = evaluate(diff, rec.order)
            assert passes == [rec.order], rec.id
            assert got == retry_evaluate(diff, rec.order), rec.id


class TestThetaMemo:
    @pytest.mark.parametrize("text", ["j(-q^(1/3), 2*q^(2/5))", "J(1, 7/2)", "JB(2/3, 3)", "Jm(1/2)",
                                      "j((1+i)*q^(-1/2), -q)"])
    def test_lower_order_is_the_earlier_result_truncated(self, text, monkeypatch):
        node = parse(text)
        orders = [(40, 3), (7, 2), (40, 3), (-3, 4), (50, 1)]
        want = [dsl._Plan().series(node, w) for w in orders]
        calls = []
        inner = theta.jacobi_theta
        monkeypatch.setattr(theta, "jacobi_theta", lambda *args: calls.append(args) or inner(*args))
        plan = dsl._Plan()
        got = [plan.series(node, w) for w in orders]
        assert got == want and [s.precision for s in got] == [s.precision for s in want]
        # the last order is higher than any asked before it
        assert [args[2] for args in calls] == [(40, 3), (50, 1)]

    def test_equal_calls_in_different_nodes(self, monkeypatch):
        calls = []
        inner = theta.jacobi_theta
        monkeypatch.setattr(theta, "jacobi_theta", lambda *args: calls.append(args) or inner(*args))
        node = parse("j(q, q^3) + q^2*j(q, q^3) - J(1, 3) + J(1, 3)*q - Jm(1)")
        got = evaluate(node, 12)
        assert len(calls) == 1     # j, J and Jm name the same j(q; q^3)
        monkeypatch.undo()
        assert got == retry_evaluate(node, 12)

    def test_block_makes_fewer_theta_calls(self, monkeypatch):
        node = parse("theta_np(3, 2, q^(2/7), q^(3/7), q)")
        asked, made = [], []
        inner, call = theta.jacobi_theta, dsl._Plan._call
        monkeypatch.setattr(theta, "jacobi_theta", lambda *args: made.append(1) or inner(*args))
        monkeypatch.setattr(dsl._Plan, "_call", lambda plan, n, w: (
            n.name in ("j", "J", "JB", "Jm") and asked.append(1)) or call(plan, n, w))
        got = evaluate(node, 25)
        assert 0 < len(made) < len(asked)
        monkeypatch.undo()
        assert got == retry_evaluate(node, 25)


class TestDivisionByFactors:
    """a/(b*c*...) is divided by each factor in turn, and a/(b/c) is
    (a*c)/b: equal in value and precision to a times the inverse of the
    divisor, with one ``QSeries.divide`` per factor."""

    M_CALLS = ["m(q^5,q^12,q^2)", "m(-q^(1/3), q, q^(1/2))", "m(q^(1/2), q^2, (1+i)*q)"]

    def _factor(self, rnd):
        kind = rnd.choice(["j", "j", "Jm", "JB", "gaussian", "monomial", "m"])
        if kind == "j":
            c = rnd.choice(["", "-", "2*", "(1/2)*", "(1+i)*"])
            e = Fraction(rnd.randint(-5, 5), rnd.choice([1, 2, 3]))
            return kind, f"j({c}q^({e}), q^{rnd.randint(1, 3)})"
        if kind == "Jm":
            return kind, f"Jm({rnd.randint(1, 4)})"
        if kind == "JB":
            m = rnd.randint(2, 6)
            return kind, f"JB({rnd.randint(1, m - 1)},{m})"
        if kind == "gaussian":
            return kind, rnd.choice(["(2+i)", "(1-2*i)", "i"])
        if kind == "monomial":
            return kind, f"{rnd.choice([1, 3])}*q^({Fraction(rnd.randint(-4, 4), rnd.choice([1, 3]))})"
        return kind, rnd.choice(self.M_CALLS)

    def test_equals_the_inverse_of_the_product(self):
        rnd = random.Random(1213)
        seen = dict.fromkeys(["j", "Jm", "JB", "gaussian", "monomial", "m"], 0)
        for _ in range(40):
            kinds, factors = zip(*[self._factor(rnd) for _ in range(rnd.randint(2, 4))])
            num = rnd.choice(["1", "Jm(1)", "q^(-2)*j(q^(1/2), q)", "psi(q) + q"])
            divisor = "*".join(factors)
            for order in (5, Fraction(7, 3), 0, Fraction(-3, 2)):
                got = evaluate(parse(f"{num}/({divisor})"), order)
                want = evaluate(parse(f"{num}*({divisor})^(-1)"), order)
                assert got == want and got.precision == want.precision, (num, divisor, order)
            for k in kinds:
                seen[k] += 1
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("text, divides", [
        ("Jm(1)/(j(q^(1/2),q)*JB(1,3)*q^(1/3)*Jm(2))", 4),
        ("Jm(1)/((2+i)*j(-2*q^(-1/2),q^2))", 2),
        ("Jm(1)/(Jm(2)/JB(1,3))", 1),
        ("Jm(1)/(Jm(2)/(JB(1,3)*Jm(3)))", 1),
        ("Jm(1)/(Jm(2)*Jm(3)/(JB(1,3)*Jm(4)))", 2),
    ])
    def test_one_divide_per_factor(self, text, divides, monkeypatch):
        inner = QSeries.divide
        calls = []
        monkeypatch.setattr(QSeries, "divide", lambda a, b, order=None: calls.append(b) or inner(a, b, order))
        got = evaluate(parse(text), 6)
        assert len(calls) == divides
        monkeypatch.undo()
        assert got == retry_evaluate(parse(text), 6)

    # terms of sums that share a theta divisor once the plan has rewritten
    # them: m's with the same base and reduced z, the z -> b*z and the
    # x -> 1/x pairs of m, j(x; b) beside j(b/x; b), and constant or
    # monomial factors that move into a numerator
    BASES = ["q", "q^2", "-q", "q^(1/2)"]
    FACTORS = ["", "2*", "(1-2*i)*", "q^(-1)*", "-q^(1/3)*", "(2+i)*q^(2/3)*"]
    NUMERATORS = ["1", "Jm(1)", "q^(-1)*j(q^(1/2),q)", "(2+i)*q^(2/3)", "Jm(2)^3"]

    def _monomial(self, rnd):
        c = rnd.choice(["", "-", "2*", "(1+i)*", "(1/2)*"])
        return f"{c}q^({Fraction(rnd.randint(-6, 6), rnd.choice([1, 3, 5]))})"

    def _shared_terms(self, rnd, kind):
        b, x, z = rnd.choice(self.BASES), self._monomial(rnd), self._monomial(rnd)
        f, g = rnd.choice(self.FACTORS), rnd.choice(self.FACTORS)
        if kind == "m pair":
            s, t = rnd.choice([-1, 1, 2]), rnd.choice([0, 1])
            return [f"{f}m({x},{b},{z})", f"{g}m(({x})*({b})^({t}),{b},({z})*({b})^({s}))"]
        if kind == "z-shift":
            return [f"m({x},{b},{z})", f"(-1)*m({x},{b},({b})*({z}))"]
        if kind == "inversion":
            return [f"{f}m({x},q,{z})", f"(-1)*{f}({x})^(-1)*m(({x})^(-1),q,({z})^(-1))"]
        num, other = rnd.choice(self.NUMERATORS), rnd.choice(self.NUMERATORS)
        if kind == "theta pair":
            return [f"{f}{num}/j({z},{b})", f"{g}{other}/j(({b})/({z}),{b})"]
        if kind == "m over theta":
            w = self._monomial(rnd)
            return [f"{f}m({x},{b},{z})", f"{g}{num}/(j({w},q^3)*j(({b})/({z}),{b}))"]
        # a quotient by a divisor that keeps its place: one that starts
        # above q^0, whose leading terms may cancel, or without a valuation
        den = rnd.choice(["(q+q^2)", "q^(1/2)*j(q,q^3)", "(j(q,q^3) - 1)", "m(q,q^12,q^2)",
                          "f(1,2,1,q^(1/5),q^(2/5),q)"])
        return [f"({num}/{den})*{other}", f"{f}{other}/{den}"]

    KINDS = ["m pair", "z-shift", "inversion", "theta pair", "m over theta", "kept"]

    def test_rewritten_sums_match_the_retry_oracle(self, monkeypatch):
        rnd = random.Random(1809)
        seen = dict.fromkeys(self.KINDS + ["fewer divisions", "error"], 0)
        inner = series._recurrence
        ran = []
        monkeypatch.setattr(series, "_recurrence", lambda *args: ran.append(1) or inner(*args))
        for case in range(120):
            kinds = [self.KINDS[case % len(self.KINDS)]] + rnd.sample(self.KINDS, rnd.randint(0, 2))
            terms = [t for kind in kinds for t in self._shared_terms(rnd, kind)]
            rnd.shuffle(terms)
            text = " + ".join(f"({t})" if rnd.random() < 0.5 else f"-({t})" for t in terms)
            for order in (6, Fraction(7, 2)):
                try:
                    want = retry_evaluate(parse(text), order)
                except QSeriesError as exc:
                    with pytest.raises(type(exc)):
                        evaluate(parse(text), order)
                    seen["error"] += 1
                    continue
                ran.clear()
                got = evaluate(parse(text), order)
                assert got == want and got.precision == want.precision, (text, order)
                whole = len(ran)
                for t in terms:
                    ran.clear()
                    evaluate(parse(t), order)
                    whole -= len(ran)
                seen["fewer divisions"] += whole < 0
            for kind in kinds:
                seen[kind] += 1
        assert min(seen.values()) >= 5 and seen["fewer divisions"] >= 60, seen

    @pytest.mark.parametrize("text", [
        "(Jm(1)/(q+q^2))*Jm(2)", "(Jm(1)/(j(q,q^3)*q^(1/2)))*Jm(2)",
        "(Jm(1)/(j(q,q^3) - 1))*Jm(2)", "(Jm(1)/m(q,q^12,q^2))*Jm(2)",
        "(Jm(1)/f(1,2,1,q^(1/5),q^(2/5),q))*Jm(2)",
        "Jm(1)/(q+q^2) + Jm(2)/(q+q^2)", "Jm(1)/(j(q,q^3) - 1) - Jm(2)/(j(q,q^3) - 1)",
    ])
    def test_divisors_that_keep_their_place(self, text):
        # a divisor that starts above q^0, whose leading terms may cancel
        # or without a valuation is not moved: the product keeps its
        # quotient factor, and a sum its quotients
        node = parse(text)
        form = dsl._Plan()._form(node)
        if isinstance(node, Mul):
            assert isinstance(form, Mul) and isinstance(dsl._Plan()._form(node.left), Div)
        else:
            assert form is node
        assert evaluate(node, 6) == retry_evaluate(node, 6)

    def test_recurrences_of_the_shipped_stanzas(self, monkeypatch):
        # the second specialization of each Appell-Lerch and universal-g
        # family ran 50 recurrences, dividing by one theta once per term,
        # and the 134 other stanzas 349
        from qmock.cli import shipped_corpus_path

        records = parse_corpus(shipped_corpus_path().read_text(encoding="utf-8"))
        families, toolkit = {}, []
        for rec in records:
            if rec.id.startswith(("appell-", "universal-g-")):
                families.setdefault(rec.id.rsplit("-", 1)[0], []).append(rec)
            else:
                toolkit.append(rec)
        second = [members[1] for members in families.values()]
        assert len(second) == 15 and len(toolkit) == 134
        inner = series._recurrence
        ran = []
        monkeypatch.setattr(series, "_recurrence", lambda *args: ran.append(1) or inner(*args))
        for stanzas, most in ((second, 40), (toolkit, 349)):
            ran.clear()
            assert {verify_identity(rec).status for rec in stanzas} == {"PASS"}
            assert len(ran) <= most

    @pytest.mark.parametrize("text, divides", [
        # the z -> q*z pair: an exact zero over j(z; q), with no recurrence
        ("m(q^(1/7),q,q^(3/7)) - m(q^(1/7),q,q*q^(3/7))", 0),
        ("m(-q^(2/5),q,q^(4/5)) - (-q^(2/5))^(-1)*m((-q^(2/5))^(-1),q,(q^(4/5))^(-1))", 0),
        # j(q; q^3) and j(q^2; q^3) are one divisor
        ("Jm(1)/j(q,q^3) + Jm(2)/j(q^2,q^3)", 1),
        ("m(q^(1/7),q,q^(3/7)) + 2*q*m(q^(8/7),q,q^(3/7))", 1),
        # a/(d*e) + b/(d*f): d goes last, once
        ("Jm(1)/(j(q,q^2)*j(q,q^5)) - Jm(2)/(j(q,q^5)*JB(1,2))", 3),
        # (a/b)*(c/d) and a monomial times m: the quotients of one sum
        ("(Jm(1)/j(q,q^5))*(Jm(2)/j(q^2,q^3)) + q^(-1)*Jm(3)/j(q,q^3)", 2),
    ])
    def test_one_recurrence_per_shared_divisor(self, text, divides, monkeypatch):
        inner = series._recurrence
        ran = []
        monkeypatch.setattr(series, "_recurrence", lambda *args: ran.append(1) or inner(*args))
        got = evaluate(parse(text), 10)
        assert len(ran) == divides
        monkeypatch.undo()
        assert got == retry_evaluate(parse(text), 10)


class TestOrderAgreement:
    def test_random_asts_agree_across_orders(self):
        rnd = random.Random(2012)
        for _ in range(1000):
            ast = _random_ast(rnd)
            n = rnd.randint(1, 8)
            k = rnd.randint(1, 6)
            results = []
            for order in (n, n + k):
                try:
                    results.append(evaluate(ast, order))
                except QSeriesError as exc:
                    results.append(type(exc))
            lo, hi = results
            if isinstance(lo, type) or isinstance(hi, type):
                assert lo == hi, to_text(ast)
            else:
                assert lo.precision == n and hi.precision == n + k, to_text(ast)
                assert lo.agrees_with(hi), to_text(ast)


class TestSubqNegqCommute:
    def test_random_integer_exponent_asts(self):
        # f((-q)^k) is f(-q^k) for odd k and f(q^k) for even k
        rnd = random.Random(2013)
        for _ in range(500):
            f = to_text(_random_ast(rnd, dens=(1,)))
            k = rnd.randint(1, 4)
            order = rnd.randint(1, 12)
            want = f"subq(negq({f}), {k})" if k & 1 else f"subq({f}, {k})"
            results = []
            for text in (f"negq(subq({f}, {k}))", want):
                try:
                    results.append(evaluate(parse(text), order))
                except QSeriesError as exc:
                    results.append(type(exc))
            lhs, rhs = results
            if isinstance(lhs, type) or isinstance(rhs, type):
                assert lhs == rhs, (f, k)
            else:
                assert lhs.precision == rhs.precision == order, (f, k)
                assert lhs.agrees_with(rhs), (f, k)


R = Fraction
X, Y = mono(-1, R(2, 5)), mono(2, R(4, 5))

# every DSL function: the arguments of a sample call, and the direct engine
# call that it must equal at order w
DIRECT = {
    "poch_inf": ("-q^(1/2), q^2", lambda w: theta.pochhammer_infinite(mono(-1, R(1, 2)), qpow(2), w)),
    "poch_fin": ("q^-1, -q, 4", lambda w: theta.pochhammer_finite(qpow(-1), mono(-1, 1), 4, order=w)),
    "j": ("-q, q^3", lambda w: theta.jacobi_theta(mono(-1, 1), qpow(3), w)),
    "J": ("1, 5", lambda w: theta.J(1, 5, w)),
    "JB": ("2, 7", lambda w: theta.Jbar(2, 7, w)),
    "Jm": ("3/2", lambda w: theta.Jm(R(3, 2), w)),
    # appell.appell_m is itself an evaluation of this call, so m is held
    # against the pairwise bilateral sum over j(z; b) of tests/oracles.py
    "m": ("q, q^12, q^2", lambda w: oracles.appell_m_pairwise(qpow(1), qpow(12), qpow(2), w)),
    # the bilateral sum that m expands to, under a name the parser never reads
    dsl._BILATERAL: ("q, q^12, q^2", lambda w: appell._bilateral_sum(qpow(1), qpow(12), qpow(2), w)),
    "f": ("1, 2, 1, -q^(2/5), 2q^(4/5), q",
          lambda w: hecke.f_abc(1, 2, 1, X, Y, qpow(1), w)),
    "g": ("-q, q^8", lambda w: appell.universal_g_eulerian(mono(-1, 1), qpow(8), w)),
    # the block sums against their hand-coded sums in tests/oracles.py
    "g_abc": ("1, 3, 1, -q^(2/5), 2q^(4/5), q, -1, -1",
              lambda w: oracles.g_abc(1, 3, 1, X, Y, qpow(1), mono(-1), mono(-1), w)),
    "h_abc": ("1, 2, 1, -q^(2/5), 2q^(4/5), q, -1, -1",
              lambda w: oracles.h_abc(1, 2, 1, X, Y, qpow(1), mono(-1), mono(-1), w)),
    "theta_np": ("1, 2, -q^(2/5), 2q^(4/5), q",
                 lambda w: oracles.theta_np(1, 2, X, Y, qpow(1), w)),
    "theta_abc": ("1, 2, 1, -q^(2/5), 2q^(4/5), q",
                  lambda w: oracles.theta_abc(1, 2, 1, X, Y, qpow(1), w)),
    "psi": ("q", catalog.psi3),
    "nu": ("q", catalog.nu3),
    "phi": ("q", catalog.phi3),
    "psibar0": ("q", catalog.psibar0),
    "psibar1": ("q", catalog.psibar1),
    "phibar0": ("q", catalog.phibar0),
    "phibar1": ("-q^2", lambda w: catalog.phibar1(R(w, 2)).substitute_monomial(mono(-1, 2))),
    "subq": ("Jm(1), 2", lambda w: theta.Jm(2, w)),
    "negq": ("psi(q)", lambda w: catalog.psi3(w).negate_base()),
}


def _call(name, args):
    """The call of ``name`` on the comma-separated ``args``: parsed, or for
    a name that the language does not have, built from the parsed
    arguments."""
    if name.isidentifier():
        return parse(f"{name}({args})")
    return Call(name, tuple(parse(a) for a in args.split(",")))


class TestDispatchTable:
    def test_every_function_sampled(self):
        assert set(DIRECT) == set(FUNCTIONS)

    def test_hidden_rows_do_not_parse(self):
        hidden = [name for name in FUNCTIONS if not name.isidentifier()]
        assert hidden == [dsl._BILATERAL]
        for name in hidden:
            with pytest.raises(ExpressionSyntaxError):
                parse(f"{name}({DIRECT[name][0]})")

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_call_equals_engine(self, name):
        args, direct = DIRECT[name]
        order = 6
        got = evaluate(_call(name, args), order)
        want = direct(order)
        assert want.precision >= order
        assert got.precision == order
        assert got.terms == want.truncate(order).terms

    @pytest.mark.parametrize("name", sorted(n for n, row in FUNCTIONS.items() if "b" in row[0]))
    def test_base_slots_need_positive_exponent(self, name):
        args = [a.strip() for a in DIRECT[name][0].split(",")]
        for i, kind in enumerate(FUNCTIONS[name][0]):
            if kind != "b":
                continue
            for bad in ("q^0", "q^-1"):
                call = _call(name, ", ".join(args[:i] + [bad] + args[i + 1:]))
                with pytest.raises(EvaluationError, match="positive exponent"):
                    evaluate(call, 6)


class TestVerify:
    def _record(self, lhs, rhs, order=20, ident="t"):
        return IdentityRecord(
            id=ident, anchor="", order=rat(order), lhs=parse(lhs), rhs=parse(rhs),
            lhs_text=lhs, rhs_text=rhs,
        )

    def test_pass(self):
        rep = verify_identity(self._record("2*q^2*phibar0(q^2)", "psi(q)+negq(psi(q))", 50))
        assert rep.status == "PASS"
        assert rep.achieved_precision == 50
        assert rep.first_mismatch is None

    def test_fail_reports_first_mismatch(self):
        rep = verify_identity(self._record("Jm(1)", "Jm(1)+q^5", 10))
        assert rep.status == "FAIL"
        e, c = rep.first_mismatch
        assert e == 5 and c == GaussianRational(-1)

    def test_error_on_degenerate_z(self):
        rep = verify_identity(self._record("m(1,q,1)", "0", 10))
        assert rep.status == "ERROR"
        assert "DegenerateZ" in rep.detail

    def test_symmetry(self):
        a = verify_identity(self._record("Jm(1)", "Jm(2)", 10))
        b = verify_identity(self._record("Jm(2)", "Jm(1)", 10))
        assert a.status == b.status == "FAIL"
        assert a.first_mismatch[0] == b.first_mismatch[0]


CORPUS_TEXT = """
# comment line
[identity pentagonal-self]
anchor = "self comparison"
order = 15
lhs = Jm(1)
rhs = subq(Jm(1), 1)

[identity planted-failure]
anchor = "off by one planted term"
order = 10
lhs = Jm(1)
rhs = Jm(1) + q^5
"""


class TestCorpusFormat:
    def test_parse_and_verify(self):
        records = parse_corpus(CORPUS_TEXT)
        assert [r.id for r in records] == ["pentagonal-self", "planted-failure"]
        assert records[0].order == 15
        reports = [verify_identity(r) for r in records]
        assert [r.status for r in reports] == ["PASS", "FAIL"]

    def test_duplicate_id_rejected(self):
        text = CORPUS_TEXT + "\n[identity planted-failure]\nanchor = \"x\"\norder = 5\nlhs = q\nrhs = q\n"
        with pytest.raises(CorpusSyntaxError):
            parse_corpus(text)

    def test_missing_key_rejected(self):
        with pytest.raises(CorpusSyntaxError):
            parse_corpus("[identity a]\nanchor = \"x\"\nlhs = q\nrhs = q\n")

    def test_bad_expression_rejected(self):
        with pytest.raises(CorpusSyntaxError):
            parse_corpus('[identity a]\nanchor = "x"\norder = 5\nlhs = q^(\nrhs = q\n')

    def test_fractional_order(self):
        recs = parse_corpus('[identity a]\nanchor = "x"\norder = 5/2\nlhs = q\nrhs = q\n')
        assert recs[0].order == Fraction(5, 2)


class TestShippedCorpus:
    def test_parses_and_ids_unique(self):
        from qmock.cli import shipped_corpus_path

        records = parse_corpus(shipped_corpus_path().read_text(encoding="utf-8"))
        assert len(records) >= 150
        assert len({r.id for r in records}) == len(records)
        assert pickle.loads(pickle.dumps(records)) == records

    def test_generator_renders_the_shipped_file(self):
        from qmock.cli import shipped_corpus_path

        path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "generate_corpus.py"
        spec = importlib.util.spec_from_file_location("generate_corpus", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert generator.render().encode("utf-8") == shipped_corpus_path().read_bytes()
