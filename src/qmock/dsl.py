"""Expression language for identities-as-data.

Grammar (standard precedence, tightest last):

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor | factor)*        # juxtaposition = *
    factor  :=  '-' factor | power
    power   :=  atom ['^' exponent]
    atom    :=  INT | 'i' | 'q' | NAME '(' expr (',' expr)* ')' | '(' expr ')'
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'

Rationals are written p/r, the imaginary unit is ``i``, and fractional
powers are restricted to the formal variable: q^(p/r).  Implicit
multiplication by juxtaposition (``2q^2 J(1,2)``) matches mathematical
habit in corpus files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ._rational import rat, is_integer, as_int, num_den
from . import appell, catalog, hecke, theta
from .series import (
    GaussianRational,
    GR_I,
    NonPositivePower,
    QMonomial,
    QSeries,
    QSeriesError,
    qpow,
)

__all__ = [
    "parse",
    "to_text",
    "evaluate",
    "verify_identity",
    "parse_corpus",
    "parse_order",
    "IdentityRecord",
    "VerificationReport",
    "ExpressionSyntaxError",
    "UnknownFunction",
    "ArityError",
    "EvaluationError",
    "CorpusSyntaxError",
    "EVALUATION_ERRORS",
    "Literal",
    "QPow",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Call",
]


# --------------------------------------------------------------------------
# errors

class ExpressionSyntaxError(QSeriesError):
    def __init__(self, message, line=1, col=1, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {col}: {message}{hint}")


class UnknownFunction(ExpressionSyntaxError):
    pass


class ArityError(ExpressionSyntaxError):
    pass


class EvaluationError(QSeriesError):
    """An expression is structurally valid but not evaluable (bad argument kind)."""


# What evaluating an expression raises on bad input; RecursionError for
# expressions too deep to walk.
EVALUATION_ERRORS = (QSeriesError, ValueError, ZeroDivisionError, OverflowError, RecursionError)


class CorpusSyntaxError(QSeriesError):
    def __init__(self, message, line):
        self.line = line
        super().__init__(f"corpus line {line}: {message}")


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Literal:
    value: GaussianRational


@dataclass(frozen=True)
class QPow:
    exponent: object  # rational


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# name -> (argument slot kinds, module, engine function name).  Slot kinds:
# m = monomial, b = base (a monomial with positive exponent), r = rational,
# n = integer, e = expression.  The engine function is looked up in its
# module when the call is made, so a rebound module attribute takes effect.
# Rows without a module (the catalog series, subq, negq) have their own
# paths in _eval_call.
FUNCTIONS = {
    "poch_inf": ("mb", theta, "pochhammer_infinite"),
    "poch_fin": ("mmn", theta, "pochhammer_finite"),
    "j": ("mb", theta, "jacobi_theta"),
    "J": ("rr", theta, "J"),
    "JB": ("rr", theta, "Jbar"),
    "Jm": ("r", theta, "Jm"),
    "m": ("mbm", appell, "appell_m"),
    "f": ("nnnmmb", hecke, "f_abc"),
    "g": ("mb", appell, "universal_g_eulerian"),
    "g_abc": ("nnnmmbmm", appell, "g_abc"),
    "h_abc": ("nnnmmbmm", appell, "h_abc"),
    "theta_np": ("nnmmb", appell, "theta_np"),
    "theta_abc": ("nnnmmb", appell, "theta_abc"),
    **{name: ("b", None, None) for name in catalog.CATALOG},
    "subq": ("er", None, None),
    "negq": ("e", None, None),
}


# --------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, NAME, one of _SYMBOLS, EOF
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# parser

_ATOM_START = ("NUM", "NAME", "(")


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.next()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExpressionSyntaxError(
                f"trailing input {tok.text!r}", tok.line, tok.col, expected=("EOF",)
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.next()
                node = Mul(node, self.factor())
            elif kind == "/":
                self.next()
                node = Div(node, self.factor())
            elif kind in _ATOM_START:
                node = Mul(node, self.factor())  # juxtaposition
            else:
                return node

    def factor(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.next()
        k = self.exponent()
        if isinstance(base, QPow):
            return QPow(base.exponent * k)
        if not is_integer(k):
            raise ExpressionSyntaxError(
                "fractional powers are allowed only on q",
                caret.line,
                caret.col,
            )
        return Pow(base, as_int(k))

    def exponent(self):
        if self.peek().kind == "(":
            self.next()
            value = self.signed_rational()
            self.expect(")")
            return value
        return self.signed_rational(paren=False)

    def signed_rational(self, paren=True):
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        num = self.expect("NUM")
        value = rat(int(num.text))
        if paren and self.peek().kind == "/":
            self.next()
            den = self.expect("NUM")
            if int(den.text) == 0:
                raise ExpressionSyntaxError("zero denominator", den.line, den.col)
            value = value / int(den.text)
        return sign * value

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            return Literal(GaussianRational(int(tok.text)))
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "NAME":
            self.next()
            if tok.text == "q":
                return QPow(rat(1))
            if tok.text == "i":
                return Literal(GR_I)
            if tok.text in FUNCTIONS:
                if self.peek().kind != "(":
                    raise ExpressionSyntaxError(
                        f"function {tok.text!r} needs an argument list",
                        tok.line,
                        tok.col,
                        expected=("(",),
                    )
                self.next()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                want = len(FUNCTIONS[tok.text][0])
                if len(args) != want:
                    raise ArityError(
                        f"{tok.text} takes {want} arguments, got {len(args)}",
                        tok.line,
                        tok.col,
                    )
                return Call(tok.text, tuple(args))
            raise UnknownFunction(f"unknown name {tok.text!r}", tok.line, tok.col)
        raise ExpressionSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=_ATOM_START,
        )


def parse(text):
    """Parse an expression into its AST."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ExpressionSyntaxError("expression nested too deeply", tok.line, tok.col) from None


# --------------------------------------------------------------------------
# printer (canonical, reparseable)

def _rat_text(value):
    if is_integer(value):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def _literal_text(value):
    """A parseable rendering of any constant; Literal-shaped only for the
    constants the parser itself can produce (nonnegative integers and i)."""
    if not value.im:
        r = value.re
        if r >= 0:
            return _rat_text(r) if is_integer(r) else f"({_rat_text(r)})"
        return f"(-{_literal_text(GaussianRational(-r))})"
    if value == GR_I:
        return "i"
    re_part = _literal_text(GaussianRational(value.re)) if value.re else ""
    im_unit = _literal_text(GaussianRational(abs(value.im)))
    im_part = "i" if abs(value.im) == 1 else f"{im_unit}*i"
    sign = "-" if value.im < 0 else ("+" if re_part else "")
    return f"({re_part} {sign} {im_part})" if re_part else f"({sign}{im_part})"


def to_text(node):
    """Canonical text for an AST; parse(to_text(x)) is structurally x for
    every AST the parser itself can produce."""
    if isinstance(node, Literal):
        return _literal_text(node.value)
    if isinstance(node, QPow):
        e = node.exponent
        if e == 1:
            return "q"
        if is_integer(e) and e >= 0:
            return f"q^{e}"
        return f"q^({_rat_text(e)})"
    if isinstance(node, Add):
        return f"({to_text(node.left)} + {to_text(node.right)})"
    if isinstance(node, Sub):
        return f"({to_text(node.left)} - {to_text(node.right)})"
    if isinstance(node, Mul):
        return f"({to_text(node.left)}*{to_text(node.right)})"
    if isinstance(node, Div):
        return f"({to_text(node.left)}/{to_text(node.right)})"
    if isinstance(node, Neg):
        return f"(-{to_text(node.operand)})"
    if isinstance(node, Pow):
        k = node.exponent
        suffix = f"^{k}" if k >= 0 else f"^(-{-k})"
        return f"{to_text(node.base)}{suffix}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# --------------------------------------------------------------------------
# constant folding for argument slots

def _fold_monomial(node):
    if isinstance(node, Literal):
        if node.value.is_zero():
            raise EvaluationError("monomial argument must be nonzero")
        return QMonomial(node.value, 0)
    if isinstance(node, QPow):
        return qpow(node.exponent)
    if isinstance(node, Neg):
        return -_fold_monomial(node.operand)
    if isinstance(node, Mul):
        return _fold_monomial(node.left) * _fold_monomial(node.right)
    if isinstance(node, Div):
        return _fold_monomial(node.left) * _fold_monomial(node.right).inverse()
    if isinstance(node, Pow):
        return _fold_monomial(node.base) ** node.exponent
    raise EvaluationError(
        f"expected a constant monomial (c*q^e), got expression {to_text(node)!r}"
    )


def _fold_base(node):
    m = _fold_monomial(node)
    if m.exp <= 0:
        raise EvaluationError(f"base argument must have positive exponent, got {m}")
    return m


def _fold_const(node):
    """Constant value of a q-free subexpression (zero allowed)."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Neg):
        return -_fold_const(node.operand)
    if isinstance(node, Mul):
        return _fold_const(node.left) * _fold_const(node.right)
    if isinstance(node, Div):
        return _fold_const(node.left) / _fold_const(node.right)
    if isinstance(node, Pow):
        return _fold_const(node.base) ** node.exponent
    raise EvaluationError(f"expected a constant, got expression {to_text(node)!r}")


def _fold_rational(node):
    value = _fold_const(node)
    if value.im:
        raise EvaluationError(f"expected a rational constant, got {to_text(node)!r}")
    return value.re


def _fold_int(node):
    value = _fold_rational(node)
    if not is_integer(value):
        raise EvaluationError(f"expected an integer, got {to_text(node)!r}")
    return as_int(value)


# --------------------------------------------------------------------------
# evaluation

def _eval(node, w):
    if isinstance(node, Literal):
        return QSeries.constant(node.value)
    if isinstance(node, QPow):
        return QSeries.from_monomial(qpow(node.exponent))
    if isinstance(node, Add):
        return _eval(node.left, w) + _eval(node.right, w)
    if isinstance(node, Sub):
        return _eval(node.left, w) - _eval(node.right, w)
    if isinstance(node, Neg):
        return -_eval(node.operand, w)
    if isinstance(node, Mul):
        return _eval(node.left, w) * _eval(node.right, w)
    if isinstance(node, Div):
        num = _eval(node.left, w)
        return num * _eval_divisor(node.right, w).invert(order=w)
    if isinstance(node, Pow):
        if node.exponent < 0:
            return _eval_divisor(node.base, w).invert(order=w) ** (-node.exponent)
        return _eval(node.base, w) ** node.exponent
    if isinstance(node, Call):
        return _eval_call(node, w)
    raise TypeError(f"not an AST node: {node!r}")


def _eval_divisor(node, w):
    """A series to be inverted.  While it is zero to its precision, its
    leading term lies at or past that precision, so it is evaluated again at
    the working order 2w + 1, three times at most, before inverting it fails
    with ZeroSeries."""
    den = _eval(node, w)
    for _ in range(3):
        if not den.is_zero() or den.precision is None:
            break
        w = 2 * w + 1
        den = _eval(node, w)
    return den


_FOLD = {"m": _fold_monomial, "b": _fold_base, "r": _fold_rational, "n": _fold_int}


def _eval_call(node, w):
    name, args = node.name, node.args
    if name == "subq":
        k = _fold_rational(args[1])
        if k <= 0:
            raise NonPositivePower(f"subq power must be positive, got {k}")
        return _eval(args[0], w / k).substitute_power(k)
    if name == "negq":
        return _eval(args[0], w).negate_base()
    if name not in FUNCTIONS:
        raise EvaluationError(f"no evaluator for function {name!r}")
    kinds, module, attr = FUNCTIONS[name]
    values = [_FOLD[kind](arg) for kind, arg in zip(kinds, args)]
    if module is None:  # a catalog series at the base monomial u
        (u,) = values
        return catalog.CATALOG[name].eulerian(w / u.exp).substitute_monomial(u)
    return getattr(module, attr)(*values, w)


def evaluate(node, order):
    """Evaluate to a series with precision >= order, retrying with an
    inflated working order when division or monomial shifts consume some."""
    return appell.eval_with_retry(lambda w: _eval(node, w), order)


# --------------------------------------------------------------------------
# identity records and verification

@dataclass
class IdentityRecord:
    id: str
    anchor: str
    order: object  # rational
    lhs: object  # AST
    rhs: object  # AST
    lhs_text: str = ""
    rhs_text: str = ""


@dataclass
class VerificationReport:
    id: str
    status: str  # PASS | FAIL | ERROR
    achieved_precision: Optional[object] = None
    first_mismatch: Optional[tuple] = None  # (exponent, coefficient)
    elapsed_ms: float = 0.0
    anchor: str = ""
    detail: str = ""

    def to_dict(self, stable=False):
        d = {
            "id": self.id,
            "status": self.status,
            "achieved_precision": (
                None if self.achieved_precision is None else list(num_den(self.achieved_precision))
            ),
            "first_mismatch": None,
            "anchor": self.anchor,
            "detail": self.detail,
        }
        if self.first_mismatch is not None:
            e, c = self.first_mismatch
            d["first_mismatch"] = {
                "exponent": list(num_den(e)),
                "coefficient": list(num_den(c.re) + num_den(c.im)),
            }
        if not stable:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d


def verify_identity(record):
    """Evaluate lhs - rhs; PASS iff every coefficient below the achieved
    precision is exactly zero.  Domain errors become ERROR reports."""
    start = time.perf_counter()
    try:
        diff = evaluate(Sub(record.lhs, record.rhs), record.order)
    except EVALUATION_ERRORS as exc:
        return VerificationReport(
            id=record.id,
            status="ERROR",
            anchor=record.anchor,
            detail=f"{type(exc).__name__}: {exc}",
            elapsed_ms=(time.perf_counter() - start) * 1000,
        )
    elapsed = (time.perf_counter() - start) * 1000
    if diff.is_zero():
        return VerificationReport(
            id=record.id,
            status="PASS",
            achieved_precision=diff.precision,
            anchor=record.anchor,
            elapsed_ms=elapsed,
        )
    e = diff.low_degree()
    return VerificationReport(
        id=record.id,
        status="FAIL",
        achieved_precision=diff.precision,
        first_mismatch=(e, diff.coeff(e)),
        anchor=record.anchor,
        elapsed_ms=elapsed,
    )


# --------------------------------------------------------------------------
# corpus file format

def parse_order(text):
    """A positive rational order written n or p/r; ValueError otherwise."""
    try:
        if "/" in text:
            p, _, r = text.partition("/")
            value = rat(int(p), int(r))
        else:
            value = rat(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad order {text!r}") from None
    if value <= 0:
        raise ValueError("order must be positive")
    return value


def parse_corpus(text):
    """Parse a corpus file: blank-line separated stanzas of

        [identity <id>]
        anchor = "<citation>"
        order = <rational>
        lhs = <expression>
        rhs = <expression>

    Lines beginning with ``#`` are comments."""
    records = []
    seen = set()
    current = None
    current_line = 0

    def finish():
        nonlocal current
        if current is None:
            return
        for key in ("anchor", "order", "lhs", "rhs"):
            if key not in current:
                raise CorpusSyntaxError(
                    f"identity {current['id']!r} is missing {key!r}", current_line
                )
        try:
            lhs = parse(current["lhs"])
            rhs = parse(current["rhs"])
        except ExpressionSyntaxError as exc:
            raise CorpusSyntaxError(
                f"identity {current['id']!r}: {exc}", current_line
            ) from exc
        records.append(
            IdentityRecord(
                id=current["id"],
                anchor=current["anchor"],
                order=current["order"],
                lhs=lhs,
                rhs=rhs,
                lhs_text=current["lhs"],
                rhs_text=current["rhs"],
            )
        )
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        if line.startswith("[identity"):
            finish()
            if not line.endswith("]"):
                raise CorpusSyntaxError("malformed [identity ...] header", lineno)
            ident = line[len("[identity"):-1].strip()
            if not ident:
                raise CorpusSyntaxError("empty identity id", lineno)
            if ident in seen:
                raise CorpusSyntaxError(f"duplicate identity id {ident!r}", lineno)
            seen.add(ident)
            current = {"id": ident}
            current_line = lineno
            continue
        if current is None:
            raise CorpusSyntaxError(f"content outside a stanza: {line!r}", lineno)
        if "=" not in line:
            raise CorpusSyntaxError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "anchor":
            if len(value) < 2 or value[0] != '"' or value[-1] != '"':
                raise CorpusSyntaxError("anchor must be a quoted string", lineno)
            current["anchor"] = value[1:-1]
        elif key == "order":
            try:
                current["order"] = parse_order(value)
            except ValueError as exc:
                raise CorpusSyntaxError(str(exc), lineno) from exc
        elif key in ("lhs", "rhs"):
            current[key] = value
        else:
            raise CorpusSyntaxError(f"unknown key {key!r}", lineno)
    finish()
    return records
