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

from ._rational import ZERO as _R0, rat, is_integer, as_int, num_den
from . import appell, catalog, hecke, theta
from .blocks import BLOCKS
from .nodes import Add, Call, Div, Literal, Mul, Neg, Pow, QPow, Sub
from .series import (
    GaussianRational,
    GR_I,
    InsufficientPrecision,
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


# name -> (argument slot kinds, module, engine function name).  Slot kinds:
# m = monomial, b = base (a monomial with positive exponent), r = rational,
# n = integer, e = expression.  The engine function is looked up in its
# module when the call is made, so a rebound module attribute takes effect.
# Rows without a module (the block sums of qmock.blocks, the catalog series,
# subq, negq) have their own paths in _Plan.
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
    "g_abc": ("nnnmmbmm", None, None),
    "h_abc": ("nnnmmbmm", None, None),
    "theta_np": ("nnmmb", None, None),
    "theta_abc": ("nnnmmb", None, None),
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
    if isinstance(node, Mul) and isinstance(node.left, Literal) \
            and isinstance(node.right, QPow) and node.left.value:
        return QMonomial(node.left.value, node.right.exponent)  # c*q^e, as blocks writes it
    if isinstance(node, (Literal, Add, Sub)):  # a constant, such as 1+i
        value = _fold_const(node)
        if value.is_zero():
            raise EvaluationError("monomial argument must be nonzero")
        return QMonomial(value, 0)
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
    if isinstance(node, Add):
        return _fold_const(node.left) + _fold_const(node.right)
    if isinstance(node, Sub):
        return _fold_const(node.left) - _fold_const(node.right)
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
#
# One pass plans the working order of every node.  A valuation is a pair
# (v, exact): the node's series starts exactly at q^v when exact is true, at
# q^v or later otherwise; a node without a valuation (None) has no known
# lower bound.  Valuations are found bottom up without evaluating anything.
# Working orders go top down: a product a*b known below w asks a for
# w - v(b) and then b for w - low(a), where low(a) is where the evaluated a
# starts (its precision, if it is zero below it); a divisor with an exact
# valuation d is asked for its inverse's order plus 2d.  Each factor is
# asked at least for its own valuation, so even a factor that comes back
# zero starts no lower than its bound.


def _target(w, other, own):
    """The working order of a factor of a product known below w: w less
    where the other factor starts (None: unknown or nowhere), and at least
    the factor's own valuation bound."""
    t = w if other is None else w - other
    return t if own is None or own <= t else own


def _bound(val):
    return None if val is None else val[0]


def _val_sum(a, b):
    if a is None or b is None:
        return None
    if a[0] == b[0]:
        return a[0], False  # the leading terms may cancel
    return min(a, b)


def _val_product(a, b):
    if a is None or b is None:
        return None
    return a[0] + b[0], a[1] and b[1]


def _val_inverse(a):
    """1/a starts exactly where a does, negated, when a's start is exact."""
    return None if a is None or not a[1] else (-a[0], True)


def _val_power(a, k):
    if k < 0:
        a, k = _val_inverse(a), -k
    return None if a is None else (a[0] * k, a[1])


# the start of each engine function, from its folded arguments, and whether
# it is exact or a lower bound
_VALUATIONS = {
    "j": (theta.theta_valuation, True),
    "J": (lambda a, m: theta.theta_valuation(qpow(a), qpow(m)), True),
    "JB": (lambda a, m: theta.theta_valuation(-qpow(a), qpow(m)), True),
    "Jm": (lambda m: theta.theta_valuation(qpow(m), qpow(3 * m)), True),
    "m": (appell.appell_m_valuation, False),
    "g": (appell.universal_g_valuation, False),
}

_FOLD = {"m": _fold_monomial, "b": _fold_base, "r": _fold_rational, "n": _fold_int}


class _Plan:
    """One evaluation pass over an AST: valuations memoized per node, and
    each node's series at the working order its parent asks for."""

    def __init__(self):
        # id(node) -> valuation, folded call arguments, a block call's
        # expansion; the AST outlives the plan, which keeps the expansions
        self._vals = {}
        self._args = {}
        self._blocks = {}

    def valuation(self, node):
        """The valuation of ``node`` (see above), from those of its parts."""
        key = id(node)
        if key in self._vals:
            return self._vals[key]
        if isinstance(node, Literal):
            val = (_R0, True) if node.value else None  # 0 starts nowhere
        elif isinstance(node, QPow):
            val = node.exponent, True
        elif isinstance(node, Neg):
            val = self.valuation(node.operand)
        elif isinstance(node, (Add, Sub)):
            val = _val_sum(self.valuation(node.left), self.valuation(node.right))
        elif isinstance(node, Mul):
            val = _val_product(self.valuation(node.left), self.valuation(node.right))
        elif isinstance(node, Div):
            val = _val_product(self.valuation(node.left),
                               _val_inverse(self.valuation(node.right)))
        elif isinstance(node, Pow):
            val = _val_power(self.valuation(node.base), node.exponent)
        elif isinstance(node, Call):
            try:
                val = self._call_valuation(node)
            except EVALUATION_ERRORS:
                val = None  # evaluating the call raises the error
        else:
            raise TypeError(f"not an AST node: {node!r}")
        self._vals[key] = val
        return val

    def _call_valuation(self, node):
        name, args = node.name, node.args
        if name == "subq":
            k = _fold_rational(args[1])
            val = self.valuation(args[0])
            return None if val is None or k <= 0 else (val[0] * k, val[1])
        if name == "negq":
            return self.valuation(args[0])
        if name in catalog.CATALOG:
            (u,) = self._fold_args(node)
            return catalog.CATALOG[name].valuation * u.exp, True
        if name in BLOCKS:
            return self.valuation(self._expand(node))
        if name not in _VALUATIONS:
            return None
        start, exact = _VALUATIONS[name]
        v = start(*self._fold_args(node))
        return None if v is None else (v, exact)

    def series(self, node, w):
        """``node`` as a series known below w (or exact)."""
        if isinstance(node, Literal):
            return QSeries.constant(node.value)
        if isinstance(node, QPow):
            return QSeries.from_monomial(qpow(node.exponent))
        if isinstance(node, Add):
            return self.series(node.left, w) + self.series(node.right, w)
        if isinstance(node, Sub):
            return self.series(node.left, w) - self.series(node.right, w)
        if isinstance(node, Neg):
            return -self.series(node.operand, w)
        if isinstance(node, (Mul, Div)):
            # a*b or a/b known below w, in this frame so that a long product
            # nests no deeper than a long sum.  A factor without a valuation
            # is evaluated first, so that where it starts is known when its
            # partner's order is set.
            a, b = node.left, node.right
            get_a, get_b = self.series, self.series
            vb = self.valuation(b)
            if isinstance(node, Div):
                get_b, vb = self._inverse, _val_inverse(vb)
            va, vb = _bound(self.valuation(a)), _bound(vb)
            if vb is None and va is not None:
                a, va, get_a, b, vb, get_b = b, vb, get_b, a, va, get_a
            sa = get_a(a, _target(w, vb, va))
            sb = get_b(b, _target(w, sa.low_degree(), vb))
            out = sa * sb
            if vb is None and out.precision is not None and out.precision < w:
                # neither factor had a valuation: b's start now sets a's order
                out = get_a(a, _target(w, sb.low_degree(), va)) * sb
            return out
        if isinstance(node, Pow):
            return self._power(node.base, node.exponent, w)
        if isinstance(node, Call):
            return self._call(node, w)
        raise TypeError(f"not an AST node: {node!r}")

    def _power(self, base, k, w):
        """base^k known below w: the base, or its inverse for k < 0, is
        asked for w less (|k| - 1) times where it starts."""
        get = self._inverse if k < 0 else self.series
        val = self.valuation(base)
        v = _bound(_val_inverse(val) if k < 0 else val)
        n = abs(k)
        s = get(base, w if v is None else _target(w, (n - 1) * v, v))
        low = s.low_degree()
        if v is None and low is not None and s.precision is not None \
                and s.precision + (n - 1) * low < w:
            s = get(base, w - (n - 1) * low)
        return s ** n

    def _inverse(self, node, w):
        """1/node known below w."""
        val = self.valuation(node)
        if val is not None and val[1]:
            d = val[0]  # asked past d, the divisor's leading term shows
            den = self.series(node, max(w + 2 * d, d + 1))
        else:
            den = self._eval_divisor(node, w, _bound(val))
        return den.invert(order=w)

    def _eval_divisor(self, node, w, v):
        """A divisor whose valuations give no exact start: a sum whose
        leading terms may cancel, such as m(..) - m(..), or one built on m
        or g (whose start they only bound) or on f (whose start they do not
        know), a block sum's expansion included.  It is evaluated as though
        it started at its bound v, if it has one.  While it is zero to its
        precision, its start lies at or past that, so it is evaluated again
        at 2t + 1, three times at most, before inverting it fails with
        ZeroSeries; once its start d shows, it is evaluated once more if its
        precision falls short of w + 2d, which the inverse known below w
        needs."""
        t = w if v is None else max(w + 2 * v, v + 1)
        den = self.series(node, t)
        for _ in range(3):
            if not den.is_zero() or den.precision is None:
                break
            t = 2 * max(t, _R0) + 1
            den = self.series(node, t)
        if den.is_zero() or den.precision is None:
            return den
        need = w + 2 * den.low_degree()
        return den if den.precision >= need else self.series(node, need)

    def _fold_args(self, node):
        key = id(node)
        if key not in self._args:
            kinds = FUNCTIONS[node.name][0]
            self._args[key] = [_FOLD[kind](arg) for kind, arg in zip(kinds, node.args)]
        return self._args[key]

    def _expand(self, node):
        """The AST of a block call, from its template."""
        key = id(node)
        if key not in self._blocks:
            self._blocks[key] = BLOCKS[node.name](*self._fold_args(node))
        return self._blocks[key]

    def _call(self, node, w):
        name, args = node.name, node.args
        if name == "subq":
            k = _fold_rational(args[1])
            if k <= 0:
                raise NonPositivePower(f"subq power must be positive, got {k}")
            return self.series(args[0], w / k).substitute_power(k)
        if name == "negq":
            return self.series(args[0], w).negate_base()
        if name not in FUNCTIONS:
            raise EvaluationError(f"no evaluator for function {name!r}")
        if name in BLOCKS:
            return self.series(self._expand(node), w)
        _, module, attr = FUNCTIONS[name]
        values = self._fold_args(node)
        if module is None:  # a catalog series at the base monomial u
            (u,) = values
            return catalog.CATALOG[name].eulerian(w / u.exp).substitute_monomial(u)
        return getattr(module, attr)(*values, w)


def _eval(node, order):
    """One evaluation pass: ``node`` as a series known below ``order``, every
    subexpression at the working order the plan gives it."""
    return _Plan().series(node, order)


def evaluate(node, order):
    """Evaluate to a series with precision ``order``, in one planned pass.

    The valuations of the subexpressions fix, before anything is evaluated,
    how much precision each division and each shift by a negative power
    will consume, so no pass is thrown away.  The precision bookkeeping of
    ``QSeries`` checks the plan: a pass that comes back short is an internal
    error, ``InsufficientPrecision``."""
    order = rat(order)
    out = _eval(node, order)
    if out.precision is not None and out.precision < order:
        raise InsufficientPrecision(
            f"internal error: the planned pass reached precision {out.precision}, "
            f"not {order}"
        )
    return out.truncate(order)


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
