"""Command-line interface: output formats, exit codes, determinism."""

import concurrent.futures
import dataclasses
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from qmock import cli, hecke
from qmock.cli import main
from qmock.dsl import Neg, parse, parse_corpus

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_CORPUS = """
[identity pass-1]
anchor = "pentagonal equals itself"
order = 12
lhs = Jm(1)
rhs = subq(Jm(1), 1)

[identity pass-2]
anchor = "geometric series"
order = 12
lhs = 1/(1-q)
rhs = poch_inf(q^2, q)/Jm(1)
"""

DEEP = "(" * 600 + "q" + ")" * 600
BAD_ORDERS = ["abc", "0", "-2", "1/0", "1_0", "\u0663"]


def long_sum(n):
    return "+".join(["q"] * n)


def long_product(n):
    return "*".join(["q"] * n)


FAILING_CORPUS = SMALL_CORPUS + """
[identity planted]
anchor = "off by q^5"
order = 10
lhs = Jm(1)
rhs = Jm(1) + q^5
"""


class TestExpand:
    def test_psi_text(self, capsys):
        code, out, _ = run(capsys, "expand", "psi(q)", "--order", "5")
        assert code == 0
        assert out.strip() == "q + q^2 + q^3 + 2*q^4"

    def test_zero_with_tail_marker(self, capsys):
        code, out, _ = run(capsys, "expand", "j(q,q)", "--order", "10")
        assert code == 0
        assert out.strip() == "0 (+O(q^10))"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "q^(1/", "--order", "5")
        assert code == 2
        assert "syntax" in err

    def test_non_ascii_digit_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "q^\u00b2", "--order", "5")
        assert code == 2
        assert "line 1, column 3: unexpected character '\u00b2'" in err

    def test_eval_error_exit_3(self, capsys):
        code, _, err = run(capsys, "expand", "m(1,q,1)", "--order", "5")
        assert code == 3
        assert "DegenerateZ" in err

    def test_deep_nesting_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", DEEP, "--order", "5")
        assert code == 2
        assert "nested too deeply" in err

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_bad_order_exit_2(self, capsys, order):
        code, _, err = run(capsys, "expand", "psi(q)", "--order", order)
        assert code == 2
        assert err.startswith("syntax error")

    def test_too_long_lattice_exit_3(self, capsys):
        # three terms on the grids 1/1000 and 1/999 span 10^8 lattice slots
        code, _, err = run(capsys, "expand", "q^(1/1000)+q^(1/999)+q^100", "--order", "5")
        assert code == 3
        assert "LatticeTooLarge" in err

    def test_long_sum_exit_0(self, capsys):
        # a sum is one node of the plan however many terms it has
        code, out, _ = run(capsys, "expand", long_sum(3000), "--order", "5")
        assert code == 0
        assert out.strip() == "3000*q"

    def test_too_long_product_exit_3(self, capsys):
        code, _, err = run(capsys, "expand", long_product(1200), "--order", "5")
        assert code == 3
        assert "RecursionError" in err

    def test_zero_divisor_exit_3(self, capsys):
        # the divisor cancels at every order it is evaluated at
        code, out, err = run(capsys, "expand", "1/(m(q,q^12,q^2)-m(q,q^12,q^2))", "--order", "100")
        assert code == 3 and not out
        assert err == ("evaluation error: ZeroSeries: "
                       "cannot invert a series that is zero to its precision\n")

    @pytest.mark.parametrize("arg, exp", [("q^(1/2)", "q^(1/2)"), ("q^(-1/2)", "q^(-1/2)")])
    def test_fractional_exponent_message(self, capsys, arg, exp):
        code, _, err = run(capsys, "expand", f"negq({arg})", "--order", "3")
        assert code == 3
        assert err.strip() == ("evaluation error: FractionalExponent: q -> -q substitution "
                               f"requires integer exponents, found {exp}")

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "expand", "1/(2-2*q)", "--order", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["precision"] == [3, 1]
        assert data["terms"] == [[0, 1, 1, 2, 0, 1], [1, 1, 1, 2, 0, 1], [2, 1, 1, 2, 0, 1]]

    def test_fractional_exponent_json(self, capsys):
        code, out, _ = run(capsys, "expand", "q^(1/2)", "--order", "1", "--json")
        data = json.loads(out)
        assert data["terms"] == [[1, 2, 1, 1, 0, 1]]


class TestVerify:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "2*q^2*phibar0(q^2)", "psi(q)+negq(psi(q))", "--order", "50"
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_fail_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "Jm(1)", "Jm(2)", "--order", "10")
        assert code == 1
        assert "q^1" in out

    def test_error_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify", "m(1,q,1)", "0", "--order", "10")
        assert code == 3

    def test_syntax_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "Jm(1", "Jm(1)", "--order", "10")
        assert code == 2

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_bad_order_exit_2(self, capsys, order):
        code, _, err = run(capsys, "verify", "Jm(1)", "Jm(1)", "--order", order)
        assert code == 2
        assert err.startswith("syntax error")

    def test_env_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv("QMOCK_DEFAULT_ORDER", "4")
        code, out, _ = run(capsys, "expand", "psi(q)")
        assert code == 0
        assert out.strip() == "q + q^2 + q^3"


class TestCorpus:
    def test_all_pass_exit_0(self, capsys, tmp_path):
        path = tmp_path / "small.qid"
        path.write_text(SMALL_CORPUS)
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 0
        assert "PASS 2 / FAIL 0 / ERROR 0" in out

    def test_planted_failure_exit_1(self, capsys, tmp_path):
        path = tmp_path / "fail.qid"
        path.write_text(FAILING_CORPUS)
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 1
        assert "PASS 2 / FAIL 1 / ERROR 0" in out

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.qid"
        path.write_text("[identity x]\nanchor = broken\n")
        code, _, err = run(capsys, "corpus", str(path))
        assert code == 2

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        path = tmp_path / "bom.qid"
        path.write_text(SMALL_CORPUS.lstrip(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 0
        assert "PASS 2 / FAIL 0 / ERROR 0" in out

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        path = tmp_path / "twice.qid"
        path.write_text('[identity a]\nanchor = "x"\norder = 5\nlhs = q\nlhs = q^2\nrhs = q^2\n')
        code, out, err = run(capsys, "corpus", str(path))
        assert code == 2
        assert "PASS" not in out and "sets 'lhs' twice" in err

    def test_deep_stanza_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.qid"
        path.write_text(SMALL_CORPUS + f'\n[identity deep]\nanchor = "x"\norder = 5\nlhs = {DEEP}\nrhs = q\n')
        code, _, err = run(capsys, "corpus", str(path))
        assert code == 2
        assert "'deep'" in err and "nested too deeply" in err

    def test_too_long_stanza_errors_alone(self, capsys, tmp_path):
        # sums of 400 and 1200 terms evaluate, a product of 1200 factors is
        # too deep to; a worker process gets their text, which it parses,
        # not their AST, which is too deep to pickle
        stanzas = "".join(
            f'\n[identity sum-{n}]\nanchor = "x"\norder = 5\nlhs = {long_sum(n)}\nrhs = {n}q\n'
            for n in (400, 1200)
        ) + f'\n[identity product-1200]\nanchor = "x"\norder = 5\nlhs = {long_product(1200)}\nrhs = 0\n'
        path = tmp_path / "long.qid"
        path.write_text(FAILING_CORPUS + stanzas)
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", jobs)
            assert code == 1
            reports = {r["id"]: r for r in json.loads(out)}
            assert {i: r["status"] for i, r in reports.items()} == {
                "pass-1": "PASS", "pass-2": "PASS", "planted": "FAIL",
                "sum-400": "PASS", "sum-1200": "PASS", "product-1200": "ERROR",
            }
            assert reports["product-1200"]["detail"].startswith("RecursionError")

    def test_bad_block_stanza_errors_alone(self, capsys, tmp_path):
        # theta_np with p = 0 has no cells to sum
        stanza = ('\n[identity bad-block]\nanchor = "x"\norder = 5\n'
                  'lhs = theta_np(1,0,q^(1/3),q^(1/5),q)\nrhs = 1\n')
        path = tmp_path / "block.qid"
        path.write_text(FAILING_CORPUS + stanza)
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", jobs)
            assert code == 1
            reports = {r["id"]: r for r in json.loads(out)}
            assert {i: r["status"] for i, r in reports.items()} == {
                "pass-1": "PASS", "pass-2": "PASS", "planted": "FAIL", "bad-block": "ERROR",
            }
            assert reports["bad-block"]["detail"] == "ValueError: need n > 0 and p > 0, got (1, 0)"

    def test_out_of_memory_stanza_errors_alone(self, capsys, tmp_path, monkeypatch):
        # an engine that runs out of memory fails its own stanza and the run
        # goes on; at --jobs 1 only, where the patched engine runs
        def exhausted(*args):
            raise MemoryError("no room for the lattice")

        monkeypatch.setattr(hecke, "f_abc", exhausted)
        path = tmp_path / "oom.qid"
        path.write_text(FAILING_CORPUS + '\n[identity big-f]\nanchor = "x"\norder = 5\n'
                        'lhs = f(2,1,3,q,q,q)\nrhs = 1\n')
        code, out, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", "1")
        assert code == 1
        reports = {r["id"]: r for r in json.loads(out)}
        assert {i: r["status"] for i, r in reports.items()} == {
            "pass-1": "PASS", "pass-2": "PASS", "planted": "FAIL", "big-f": "ERROR",
        }
        assert reports["big-f"]["detail"] == "MemoryError: no room for the lattice"
        code, _, err = run(capsys, "expand", "f(2,1,3,q,q,q)", "--order", "5")
        assert code == 3 and "MemoryError: no room for the lattice" in err

    def test_records_without_text_reach_workers(self):
        # a record built from its ASTs alone goes to a worker as their
        # printed text, and gets the report it gets in this process
        records = [dataclasses.replace(r, lhs_text="", rhs_text="")
                   for r in parse_corpus(FAILING_CORPUS)]
        reports = [[r.to_dict(stable=True) for r in cli.run_corpus(records, jobs=jobs)]
                   for jobs in (1, 2)]
        assert reports[0] == reports[1]
        assert [r["status"] for r in reports[1]] == ["PASS", "PASS", "FAIL"]

    def test_long_records_without_text_reach_workers(self):
        # a long sum built in code prints as one flat chain, which a worker
        # parses and this process prints at any length
        records = [dataclasses.replace(r, lhs=parse(long_sum(n)), rhs=parse(f"{n}q"),
                                       id=f"sum-{n}", lhs_text="", rhs_text="")
                   for r in parse_corpus(SMALL_CORPUS)[:1] for n in (300, 1200)]
        reports = [[r.to_dict(stable=True) for r in cli.run_corpus(records, jobs=jobs)]
                   for jobs in (1, 2)]
        assert reports[0] == reports[1]
        assert [r["status"] for r in reports[1]] == ["PASS", "PASS"]

    def test_text_that_does_not_parse_errs_alone(self):
        # 300 signs built in code print as 300 nested parentheses, past
        # the parser's depth: the worker reports that stanza an ERROR, and
        # the others keep their verdicts
        lhs = parse("q")
        for _ in range(300):
            lhs = Neg(lhs)
        first, second, planted = parse_corpus(FAILING_CORPUS)
        deep = dataclasses.replace(first, id="deep", lhs=lhs, lhs_text="", rhs_text="")
        reports = {r.id: r for r in cli.run_corpus([first, deep, second, planted], jobs=2)}
        assert {i: r.status for i, r in reports.items()} == {
            "pass-1": "PASS", "pass-2": "PASS", "planted": "FAIL", "deep": "ERROR",
        }
        assert reports["deep"].detail == ("ExpressionSyntaxError: line 1, column 201: "
                                          "expression nested too deeply")
        assert reports["deep"].anchor == "pentagonal equals itself"

    def test_crashed_worker_errs_pending_stanzas(self, monkeypatch):
        # a stub pool: the planted stanza's worker "dies", which breaks the
        # pool for every stanza submitted after it, as a process pool does;
        # those before it run here, so no process is started or killed
        class Pool:
            def __init__(self, max_workers):
                self.broken = None

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, record):
                future = concurrent.futures.Future()
                if record.id == "planted":
                    self.broken = BrokenProcessPool("worker killed")
                if self.broken is None:
                    future.set_result(fn(record))
                else:
                    future.set_exception(self.broken)
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        first, second, planted = parse_corpus(FAILING_CORPUS)
        reports = {r.id: r for r in cli.run_corpus([first, planted, second], jobs=2)}
        assert {i: r.status for i, r in reports.items()} == {
            "pass-1": "PASS", "pass-2": "ERROR", "planted": "ERROR",
        }
        for i in ("planted", "pass-2"):
            assert reports[i].detail == "BrokenProcessPool: worker killed"
        assert reports["planted"].anchor == "off by q^5"

    def test_pool_has_no_more_workers_than_stanzas(self, monkeypatch):
        # a fork pool starts every worker it may have at the first submit:
        # a stub pool records its size and runs each stanza here, so no
        # process is started
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, record):
                future = concurrent.futures.Future()
                future.set_result(fn(record))
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        records = parse_corpus(FAILING_CORPUS)
        for jobs in (5000, 3, 2):
            assert [r.status for r in cli.run_corpus(records, jobs=jobs)] == ["PASS", "PASS", "FAIL"]
        assert sizes == [3, 3, 2]

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "latin.qid"
        path.write_bytes(SMALL_CORPUS.encode("ascii") + b"# \xff\n")
        code, out, err = run(capsys, "corpus", str(path))
        assert code == 2 and not out
        assert err.startswith("cannot read corpus: ") and "0xff" in err
        assert "Traceback" not in err

    def test_non_ascii_digit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "digit.qid"
        path.write_text(SMALL_CORPUS
                        + '\n[identity sup]\nanchor = "x"\norder = 5\nlhs = \u00b2 * q\nrhs = q\n')
        code, out, err = run(capsys, "corpus", str(path))
        assert code == 2 and not out
        assert "'sup'" in err and "line 1, column 1: unexpected character '\u00b2'" in err

    @pytest.mark.parametrize("order", BAD_ORDERS)
    def test_bad_order_exit_2(self, capsys, order):
        code, out, err = run(capsys, "corpus", "--order", order)
        assert code == 2
        assert err.startswith("syntax error") and not out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "corpus", "--jobs", jobs)
        assert code == 2
        assert err.startswith("syntax error") and "--jobs" in err and not out

    def test_order_override(self, capsys, tmp_path):
        path = tmp_path / "fail.qid"
        path.write_text(FAILING_CORPUS)
        # below the planted defect the failing stanza passes
        code, out, _ = run(capsys, "corpus", str(path), "--order", "4")
        assert code == 0

    def test_json_stable_deterministic(self, capsys, tmp_path):
        path = tmp_path / "small.qid"
        path.write_text(SMALL_CORPUS)
        code1, out1, _ = run(capsys, "corpus", str(path), "--json", "--stable")
        code2, out2, _ = run(capsys, "corpus", str(path), "--json", "--stable")
        assert code1 == code2 == 0
        assert out1 == out2
        reports = json.loads(out1)
        assert [r["id"] for r in reports] == ["pass-1", "pass-2"]
        assert all("elapsed_ms" not in r for r in reports)

    def test_jobs_do_not_change_reports(self, capsys, tmp_path):
        path = tmp_path / "small.qid"
        path.write_text(FAILING_CORPUS)
        code1, out1, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", "1")
        code2, out2, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", "2")
        assert (code1, out1) == (code2, out2)


BIG = 7 * 10 ** 4999 + 123  # 5000 digits: past CPython's 4300-digit int<->str limit
BIG_CORPUS = f"""
[identity big-literal]
anchor = "a 5000-digit literal"
order = 3
lhs = {oracles.decimal_digits(BIG)}
rhs = 0

[identity big-power]
anchor = "2^16610, 5001 digits"
order = 3
lhs = 1 + 2^16610*q
rhs = 1
"""


class TestBigIntegers:
    """Integers past CPython's int<->str limit are read, printed and
    written to JSON exactly, with the documented exit codes."""

    def test_expand(self, capsys):
        digits = oracles.decimal_digits(BIG)
        assert run(capsys, "expand", digits, "--order", "3") == (0, digits + "\n", "")
        code, out, _ = run(capsys, "expand", "2^16610", "--order", "3")
        assert (code, out.strip()) == (0, oracles.decimal_digits(2 ** 16610))

    @pytest.mark.parametrize("template, message", [
        ("subq(q, -{})", "NonPositivePower: subq power must be positive, got -{}\n"),
        ("J({}, 2)", "LatticeTooLarge: the series needs "),
    ])
    def test_errors_name_their_cause(self, capsys, template, message):
        digits = oracles.decimal_digits(BIG)
        code, out, err = run(capsys, "expand", template.format(digits), "--order", "3")
        assert (code, out) == (3, "")
        assert err.startswith("evaluation error: " + message.format(digits))

    def test_expand_json(self, capsys):
        code, out, _ = run(capsys, "expand", f"{oracles.decimal_digits(BIG)}*q - q^2", "--order", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"terms": [[1, 1, oracles.decimal_digits(BIG), 1, 0, 1], [2, 1, -1, 1, 0, 1]],
                        "precision": [3, 1]}

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "2^16610", "0", "--order", "3")
        assert code == 1
        assert f"first mismatch at q^0: coefficient {oracles.decimal_digits(2 ** 16610)}  [" in out

    def test_corpus(self, capsys, tmp_path):
        path = tmp_path / "big.qid"
        path.write_text(BIG_CORPUS)
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 1
        assert f"coefficient {oracles.decimal_digits(BIG)}  [" in out
        assert f"first mismatch at q^1: coefficient {oracles.decimal_digits(2 ** 16610)}  [" in out

    def test_corpus_json(self, capsys, tmp_path):
        path = tmp_path / "big.qid"
        path.write_text(BIG_CORPUS)
        code1, out1, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", "1")
        code2, out2, _ = run(capsys, "corpus", str(path), "--json", "--stable", "--jobs", "2")
        assert (code1, out1) == (code2, out2)
        assert code1 == 1
        reports = {r["id"]: r for r in json.loads(out1)}
        assert reports["big-literal"]["first_mismatch"] == {
            "exponent": [0, 1], "coefficient": [oracles.decimal_digits(BIG), 1, 0, 1]}
        assert reports["big-power"]["first_mismatch"] == {
            "exponent": [1, 1], "coefficient": [oracles.decimal_digits(2 ** 16610), 1, 0, 1]}
        assert reports["big-power"]["achieved_precision"] == [3, 1]
