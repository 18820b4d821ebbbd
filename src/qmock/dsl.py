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

The parser's ASTs hold ground rationals; below it, the folded arguments of
a call are integer monomials, triples and pairs, and the plan's
valuations and working orders are pairs (``qmock._rational``), so an
evaluation does no rational arithmetic.  Theta calls of one evaluation
that are the same j(x; b) are evaluated once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import lcm
from typing import Optional

from ._rational import (Q0, Q1, as_int, as_pair, as_triple, is_integer, monomial, num_den, qadd, qdiv, qle,
                        qlt, qmax, qmul, qpair, qrat, qsub, rat, triple_mul, triple_pow, triple_reduce)
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
    product_precision,
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


# A theta call's folded arguments -> the (x, b) of the j(x; b) it is, which
# are the arguments its engine takes: J(1, 3), Jm(1) and j(q, q^3) are one
# series, and so are j(x; b) and j(b/x; b) (``_symmetric``).
_THETAS = {
    "j": lambda x, b: (x, b),
    "J": lambda a, m: (qpow(a), qpow(m)),
    "JB": lambda a, m: (-qpow(a), qpow(m)),
    "Jm": lambda m: (qpow(m), qpow(qmul(m, 3))),
}


def _symmetric(x, b):
    """(x, b) or (b/x, b), whichever sorts first by exponent pair, then by
    coefficient: j(x; b) = j(b/x; b) exactly, so one theta memo entry and
    one divisor serve both."""
    e = qsub(b.pair, x.pair)
    if x.pair < e:
        return x, b
    y = b * x.inverse()
    return (x, b) if x.pair == e and x.triple <= y.triple else (y, b)


# The bilateral sum of m(x, b, z) over the reduced z: the call that m
# expands to divides it by j(z; b).  The tokenizer reads no ':' in a name,
# so the language has no such function.
_BILATERAL = "m:bilateral"


# name -> (argument slot kinds, engine, start).  Slot kinds: m = monomial,
# b = base (a monomial with positive exponent), r = rational (folded to a
# pair), n = integer, e = expression.  The engine is an (owner, attribute)
# pair, looked up when the call is made, so that a rebound attribute takes
# effect; it is called with the folded arguments (for a theta call, the
# (x, b) of _THETAS) and the working order.
# The start is a pair (function of the folded arguments, exact): the
# function gives the exponent where the call's series starts if exact, a
# lower bound for it otherwise, or None where the series vanishes.  Rows
# without an engine (m and the block sums of qmock.blocks, which expand
# into other calls, subq and negq) have their own paths in _Plan.
FUNCTIONS = {
    "poch_inf": ("mb", (theta, "pochhammer_infinite"), None),
    "poch_fin": ("mmn", (theta, "pochhammer_finite"), None),
    "j": ("mb", (theta, "jacobi_theta"), (theta.theta_start, True)),
    "J": ("rr", (theta, "jacobi_theta"), (theta.theta_start, True)),
    "JB": ("rr", (theta, "jacobi_theta"), (theta.theta_start, True)),
    "Jm": ("r", (theta, "jacobi_theta"), (theta.theta_start, True)),
    "m": ("mbm", None, None),
    _BILATERAL: ("mbm", (appell, appell._bilateral_sum.__name__), (appell.bilateral_start, False)),
    "f": ("nnnmmb", (hecke, "f_abc"), None),
    "g": ("mb", (appell, "universal_g_eulerian"), (appell.universal_g_start, False)),
    "g_abc": ("nnnmmbmm", None, None),
    "h_abc": ("nnnmmbmm", None, None),
    "theta_np": ("nnmmb", None, None),
    "theta_abc": ("nnnmmb", None, None),
    **{name: ("b", (entry, "at"), (entry.start, True)) for name, entry in catalog.CATALOG.items()},
    "subq": ("er", None, None),
    "negq": ("e", None, None),
}


def _m_quotient(x, b, z):
    """m(x, b, z) as the plan evaluates it: its bilateral sum over j(z; b),
    for the reduced z (``appell.reduced_z``)."""
    z = appell.reduced_z(x, b, z)
    return Div(Call(_BILATERAL, (x, b, z)), Call("j", (z, b)))


# name -> the template of the AST that a call of it expands to
_EXPANSIONS = {**BLOCKS, "m": _m_quotient}

# the engines whose series the plan keeps, per engine and folded arguments
_MEMO = {*_THETAS, _BILATERAL}


# --------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "+-*/^(),"
_DIGITS = "0123456789"  # str.isdigit also takes digits such as '²' that int() refuses


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        # kind: NUM, NAME, one of _SYMBOLS, EOF
        self.kind, self.text, self.line, self.col = kind, text, line, col


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
    if isinstance(node, QMonomial):  # in a block template's AST
        return to_text(Mul(Literal(node.coeff), QPow(node.exp)))
    raise TypeError(f"not an AST node: {node!r}")


# --------------------------------------------------------------------------
# constant folding for argument slots

def _fold_monomial(node):
    if type(node) is QMonomial:  # as a block template writes it
        return node
    if isinstance(node, Mul) and isinstance(node.left, Literal) \
            and isinstance(node.right, QPow) and node.left.value:
        return QMonomial(node.left.value, node.right.exponent)  # c*q^e
    if isinstance(node, (Literal, Add, Sub)):  # a constant, such as 1+i
        r, i, d = _fold_const(node)
        if not r and not i:
            raise EvaluationError("monomial argument must be nonzero")
        return monomial(triple_reduce((r, i, d)), Q0)
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
    if m.pair[0] <= 0:
        raise EvaluationError(f"base argument must have positive exponent, got {m}")
    return m


def _fold_const(node):
    """Constant value of a q-free subexpression (zero allowed), as an
    (re, im, den) triple."""
    if isinstance(node, Literal):
        return as_triple(node.value)
    if isinstance(node, Neg):
        r, i, d = _fold_const(node.operand)
        return -r, -i, d
    if isinstance(node, (Add, Sub)):
        (ar, ai, ad), (br, bi, bd) = _fold_const(node.left), _fold_const(node.right)
        if isinstance(node, Sub):
            br, bi = -br, -bi
        return ar * bd + br * ad, ai * bd + bi * ad, ad * bd
    if isinstance(node, Mul):
        return triple_mul(_fold_const(node.left), _fold_const(node.right))
    if isinstance(node, Div):
        return triple_mul(_fold_const(node.left), triple_pow(_fold_const(node.right), -1))
    if isinstance(node, Pow):
        return triple_pow(_fold_const(node.base), node.exponent)
    raise EvaluationError(f"expected a constant, got expression {to_text(node)!r}")


def _fold_rational(node):
    """A real constant, as a pair."""
    r, i, d = _fold_const(node)
    if i:
        raise EvaluationError(f"expected a rational constant, got {to_text(node)!r}")
    return qpair(r, d)


def _fold_int(node):
    n, d = _fold_rational(node)
    if d != 1:
        raise EvaluationError(f"expected an integer, got {to_text(node)!r}")
    return n


# --------------------------------------------------------------------------
# evaluation
#
# One pass plans the working order of every node.  A valuation is a pair
# (v, exact): the node's series starts exactly at q^v when exact is true, at
# q^v or later otherwise; a node without a valuation (None) has no known
# lower bound.  Exponents v and working orders are (num, den) pairs.
# Valuations are found bottom up without evaluating anything.
# Working orders go top down: a product a*b known below w asks a for
# w - v(b) and then b for w - low(a), where low(a) is where the evaluated a
# starts (its precision, if it is zero below it); a divisor with an exact
# valuation d is asked for its inverse's order plus 2d.  Each factor is
# asked at least for its own valuation, so even a factor that comes back
# zero starts no lower than its bound.
# The plan evaluates each node in its form (``_Plan._form``), an equal AST
# in which division comes last: a call of m or of a block sum is its
# expansion, m's being its bilateral sum over j(z; b); a divisor that is a
# product or a quotient is split, so that each of its factors is its own
# divisor; a product with a quotient factor is one quotient; and the
# quotients of a sum that share a theta divisor are one quotient by it.
# Valuations are those of the forms.  The theta functions j, J, JB and Jm
# are evaluated once per distinct j(x; b), whatever name calls it, and the
# bilateral sums once per m(x, b, z), at the highest order asked so far,
# and a lower order is that truncated.


def _target(w, other, own):
    """The working order of a factor of a product known below w: w less
    where the other factor starts (None: unknown or nowhere), and at least
    the factor's own valuation bound."""
    t = w if other is None else qsub(w, other)
    return t if own is None or qle(own, t) else own


def _bound(val):
    return None if val is None else val[0]


def _val_sum(a, b):
    if a is None or b is None:
        return None
    if a[0] == b[0]:
        return a[0], False  # the leading terms may cancel
    return a if qlt(a[0], b[0]) else b


def _val_product(a, b):
    if a is None or b is None:
        return None
    return qadd(a[0], b[0]), a[1] and b[1]


def _val_inverse(a):
    """1/a starts exactly where a does, negated, when a's start is exact."""
    return None if a is None or not a[1] else ((-a[0][0], a[0][1]), True)


def _val_power(a, k):
    if k < 0:
        a, k = _val_inverse(a), -k
    return None if a is None else (qmul(a[0], k), a[1])


class _Reciprocal:
    """1/den known below ``order``, kept as the divisor: a product with it
    is one ``QSeries.divide``, and no inverse is formed for it."""

    __slots__ = ("den", "order")

    def __init__(self, den, order):
        self.den, self.order = den, order

    def low(self):
        return self.den.inverse_low(self.order)

    @property
    def prec(self):
        return self.den.inverse_prec(self.order)

    def inverse(self):
        return self.den.invert(order=self.order)


def _times(x, y):
    """x*y, where a _Reciprocal factor divides the other."""
    if isinstance(y, _Reciprocal):
        x, y = y, x
    if isinstance(x, _Reciprocal):
        return y.divide(x.den, x.order)
    return x * y


# the node types that _Plan._form may rewrite
_REWRITTEN = (Div, Mul, Neg, Add, Sub, Call)

_FOLD = {"m": _fold_monomial, "b": _fold_base, "r": _fold_rational, "n": _fold_int}


class _Plan:
    """One evaluation pass over an AST: the form of each node, valuations
    memoized per node, and each node's series at the working order its
    parent asks for."""

    def __init__(self):
        # id(node) -> valuation, folded call arguments, a call's expansion,
        # the node and its form, its grid; the AST outlives the plan, which
        # keeps the nodes it makes.  (engine, folded arguments) -> a theta
        # or a bilateral sum at the highest order asked.
        self._vals = {}
        self._args = {}
        self._expansions = {}
        self._forms = {}
        self._grids = {}
        self._memo = {}

    def valuation(self, node):
        """The valuation of ``node`` (see above), from those of its parts."""
        key = id(node)
        if key in self._vals:
            return self._vals[key]
        if isinstance(node, Literal):
            val = (Q0, True) if node.value else None  # 0 starts nowhere
        elif isinstance(node, QPow):
            val = as_pair(node.exponent), True
        elif type(node) is QMonomial:
            val = node.pair, True
        elif isinstance(node := self._form(node), Neg):
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
            return None if val is None or k[0] <= 0 else (qmul(val[0], k), val[1])
        if name == "negq":
            return self.valuation(args[0])
        row = FUNCTIONS.get(name)  # an unknown name fails when evaluated
        if row is None or row[2] is None:
            return None
        start, exact = row[2]
        v = start(*self._fold_args(node))
        return None if v is None else (v, exact)

    def series(self, node, w):
        """``node`` as a series known below w (or exact)."""
        if isinstance(node, Literal):
            return QSeries.constant(node.value)
        if isinstance(node, QPow):
            return QSeries.from_monomial(qpow(node.exponent))
        if type(node) is QMonomial:
            return QSeries.from_monomial(node)
        node = self._form(node)
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
                get_b, vb = self._reciprocal, _val_inverse(vb)
            va, vb = _bound(self.valuation(a)), _bound(vb)
            if vb is None and va is not None:
                a, va, get_a, b, vb, get_b = b, vb, get_b, a, va, get_a
            sa = get_a(a, _target(w, vb, va))
            sb = get_b(b, _target(w, sa.low(), vb))
            if vb is None:
                p = product_precision(sa.prec, sa.low(), sb.prec, sb.low())
                if p is not None and qlt(p, w):
                    # neither factor had a valuation: b's start now sets
                    # a's order, before the product is formed
                    sa = get_a(a, _target(w, sb.low(), va))
            return _times(sa, sb)
        if isinstance(node, Pow):
            return self._power(node.base, node.exponent, w)
        if isinstance(node, Call):
            return self._call(node, w)
        raise TypeError(f"not an AST node: {node!r}")

    def _form(self, node):
        """``node`` as the plan evaluates it (see above), each rewrite made
        once per node."""
        kind = type(node)
        if kind is Call and node.name not in _EXPANSIONS or kind not in _REWRITTEN:
            return node
        key = id(node)
        if key in self._forms:
            return self._forms[key][1]
        if kind is Div:
            form = self._split(node)
        elif kind is Mul or kind is Neg:
            form = self._product(node)
        elif kind is Add or kind is Sub:
            form = self._gather(node)
        else:  # a call of m or of a block sum
            try:
                expansion = self._expand(node)
            except EVALUATION_ERRORS:
                form = node  # evaluating the call raises the error
            else:
                form = self._form(expansion)
        # the node is kept with its form, so that no node the plan makes
        # and drops leaves its id to another
        self._forms[key] = node, form
        return form

    def _split(self, node):
        """The quotient ``node`` with a divisor that is no product or
        quotient: a/(b*c) is (a/b)/c and a/(b/c) is (a*c)/b, so that each
        factor of a divisor is divided by on its own and their product is
        never formed.  The divisor as written is split, not its form, so
        that a call of m keeps its path as a divisor."""
        a, b = node.left, node.right
        while isinstance(b, (Mul, Div)):
            a, b = (Div(a, b.left), b.right) if isinstance(b, Mul) else (Mul(a, b.right), b.left)
        return node if b is node.right else Div(a, b)

    def _last(self, den):
        """True when a quotient by ``den`` may be divided last: den's
        valuation is exact and not positive.  Any other divisor keeps its
        place."""
        val = self.valuation(den)
        return val is not None and val[1] and val[0][0] <= 0

    def _product(self, node):
        """A product with a quotient factor as one quotient: (a/b)*c and
        c*(a/b) are (a*c)/b, and -(a/b) is (-a)/b, for a divisor b that may
        go last (``_last``) and a factor c that may join it (``_joins``).
        So a constant, a monomial, a theta or the bilateral sum of an m on
        the quotient's grid joins the numerator, and (a/b)*(c/d) is
        (a*c)/(b*d): no product of two quotients is formed."""
        if type(node) is Neg:
            f = self._form(node.operand)
            return Div(Neg(f.left), f.right) if type(f) is Div and self._last(f.right) else node
        a, c = self._form(node.left), self._form(node.right)
        if type(a) is Div and self._last(a.right) and self._joins(c, a):
            return Div(Mul(a.left, c), a.right)
        if type(c) is Div and self._last(c.right) and self._joins(a, c):
            return Div(Mul(a, c.left), c.right)
        return node

    def _joins(self, c, quotient):
        """True when the factor c may join the numerator of ``quotient``:
        c lies on its grid (``_grid``), or c is a quotient or a sum with a
        quotient term, whose product with the quotient would be dense
        times dense."""
        if self._grid(quotient) % self._grid(c) == 0 or type(c) is Div:
            return True
        return type(c) in (Add, Sub) and any(type(t) is Div for _, t in self._terms(c)[0])

    def _grid(self, node):
        """The least common denominator L of the exponents that ``node`` is
        built from: its series lies on the grid 1/L or a coarser one."""
        key = id(node)
        if key not in self._grids:
            node = self._form(node)
            if isinstance(node, (Add, Sub, Mul, Div)):
                grid = lcm(self._grid(node.left), self._grid(node.right))
            elif isinstance(node, (Neg, Pow)):
                grid = self._grid(node.operand if isinstance(node, Neg) else node.base)
            elif isinstance(node, QPow):
                grid = as_pair(node.exponent)[1]
            elif type(node) is QMonomial:
                grid = node.pair[1]
            elif isinstance(node, Call):
                try:
                    if node.name in ("subq", "negq"):  # q -> q^k or -q
                        k = _fold_rational(node.args[1])[1] if node.name == "subq" else 1
                        grid = self._grid(node.args[0]) * k
                    else:
                        grid = lcm(*[a.pair[1] for a in self._fold_args(node) if type(a) is QMonomial])
                except EVALUATION_ERRORS:
                    grid = 1  # evaluating the call raises the error
            else:
                grid = 1
            self._grids[key] = grid
        return self._grids[key]

    def _gather(self, node):
        """The sum ``node`` with its quotients by one theta as one quotient:
        a/d ± b/d is (a ± b)/d, for the divisors of ``_theta_key`` keyed by
        their (x, b), so that d is divided by once.  A term's divisors are
        the thetas it is divided by last; the one that the most terms
        share goes last of all, so that a/(d*e) + b/(d*f) is
        (a/e + b/f)/d.  A sum with no shared theta is its own form, and so
        is each sum inside it."""
        terms, inner = self._terms(node)
        parts = [(sign, term, *self._divisors(term)) for sign, term in terms]
        gathered = False
        while True:
            count = {}
            for *_, dens in parts:
                for k in dict(dens):
                    count[k] = count.get(k, 0) + 1
            best = max(count, key=count.get, default=None)
            if best is None or count[best] < 2:
                break
            num, rest = [], []
            for part in parts:
                sign, _, core, dens = part
                keys = [k for k, _ in dens]
                if best in keys:
                    i = keys.index(best)
                    den = dens[i][1]
                    num.append((sign, _divided(core, dens[:i] + dens[i + 1:])))
                else:
                    rest.append(part)
            term = Div(self._form(_signed_sum(num, [])), den)
            parts = rest + [(1, term, *self._divisors(term))]
            gathered = True
        if gathered:
            inner = []
            node = _signed_sum([(sign, term) for sign, term, _, _ in parts], inner)
        for n in inner:
            self._forms[id(n)] = n, n
        return node

    def _terms(self, node):
        """The signed terms of the sum ``node``, each in its form, and the
        sums passed through on the way; a term whose form is a sum, such as
        a block call's, is passed through too."""
        terms, inner, stack = [], [], [(1, node)]
        while stack:
            sign, n = stack.pop()
            kind = type(n)
            if kind is Add or kind is Sub:
                inner.append(n)
                stack.append((-sign if kind is Sub else sign, n.right))
                stack.append((sign, n.left))
            elif kind is Neg:
                stack.append((-sign, n.operand))
            else:
                f = self._form(n)
                if f is not n and type(f) in (Add, Sub, Neg):
                    stack.append((sign, f))
                else:
                    terms.append((sign, f))
        return terms, inner

    def _divisors(self, term):
        """(core, dens): the term is core divided by the thetas of dens,
        (key, divisor) pairs from the one divided by last inwards."""
        dens = []
        while type(term) is Div:
            key = self._theta_key(term.right)
            if key is None:
                break
            dens.append((key, term.right))
            term = self._form(term.left)
        return term, dens

    def _theta_key(self, den):
        """The (x, b) of a theta divisor that a sum may gather by, or None:
        a theta call whose arguments fold and which may go last."""
        if type(den) is not Call or den.name not in _THETAS or not self._last(den):
            return None
        return self._fold_args(den)

    def _power(self, base, k, w):
        """base^k known below w: the base, or its inverse for k < 0, is
        asked for w less (|k| - 1) times where it starts, and cut there,
        so that an exact base is not raised to its full degree."""
        get = self._inverse if k < 0 else self.series
        val = self.valuation(base)
        v = _bound(_val_inverse(val) if k < 0 else val)
        n = abs(k)
        t = w if v is None else _target(w, qmul(v, n - 1), v)
        s = get(base, t).truncate(t)
        low = s.low()
        if v is None and low is not None and s.prec is not None \
                and qlt(qadd(s.prec, qmul(low, n - 1)), w):
            t = qsub(w, qmul(low, n - 1))
            s = get(base, t).truncate(t)
        return s ** n

    def _inverse(self, node, w):
        """1/node known below w."""
        return self._reciprocal(node, w).inverse()

    def _reciprocal(self, node, w):
        """1/node known below w, as the divisor that a product divides by."""
        val = self.valuation(node)
        if val is not None and val[1]:
            d = val[0]  # asked past d, the divisor's leading term shows
            den = self.series(node, qmax(qadd(w, qmul(d, 2)), qadd(d, Q1)))
        else:
            den = self._eval_divisor(node, w, _bound(val))
        return _Reciprocal(den, w)

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
        t = w if v is None else qmax(qadd(w, qmul(v, 2)), qadd(v, Q1))
        den = self.series(node, t)
        for _ in range(3):
            if not den.is_zero() or den.prec is None:
                break
            t = qadd(qmul(qmax(t, Q0), 2), Q1)
            den = self.series(node, t)
        if den.is_zero() or den.prec is None:
            return den
        need = qadd(w, qmul(den.low(), 2))
        return den if qle(need, den.prec) else self.series(node, need)

    def _fold_args(self, node):
        key = id(node)
        if key not in self._args:
            kinds = FUNCTIONS[node.name][0]
            args = [_FOLD[kind](arg) for kind, arg in zip(kinds, node.args)]
            self._args[key] = _symmetric(*_THETAS[node.name](*args)) if node.name in _THETAS else args
        return self._args[key]

    def _expand(self, node):
        """The AST that a call of m or of a block sum expands to."""
        key = id(node)
        if key not in self._expansions:
            self._expansions[key] = _EXPANSIONS[node.name](*self._fold_args(node))
        return self._expansions[key]

    def _call(self, node, w):
        name, args = node.name, node.args
        if name == "subq":
            k = _fold_rational(args[1])
            if k[0] <= 0:
                raise NonPositivePower(f"subq power must be positive, got {qrat(k)}")
            return self.series(args[0], qdiv(w, k)).substitute_power(k)
        if name == "negq":
            return self.series(args[0], w).negate_base()
        if name not in FUNCTIONS:
            raise EvaluationError(f"no evaluator for function {name!r}")
        if name in _EXPANSIONS:  # its form is the call when it fails to expand
            return self.series(self._expand(node), w)
        owner, attr = FUNCTIONS[name][1]
        args = self._fold_args(node)
        if name not in _MEMO:
            return getattr(owner, attr)(*args, w)
        key = (attr, *args)
        s = self._memo.get(key)
        if s is None or s.prec is not None and qlt(s.prec, w):
            s = self._memo[key] = getattr(owner, attr)(*args, w)
        return s.truncate(w)


def _divided(node, dens):
    """``node`` divided by the divisors of dens, (key, divisor) pairs, the
    first one last."""
    for _, den in reversed(dens):
        node = Div(node, den)
    return node


def _signed_sum(terms, inner):
    """The sum of the (sign, node) pairs ``terms``, as a balanced tree whose
    sums are appended to ``inner``."""
    while len(terms) > 1:
        paired = []
        for (s, a), (t, b) in zip(terms[::2], terms[1::2]):
            node = Add(a, b) if s == t else Sub(a, b)
            inner.append(node)
            paired.append((s, node))
        terms = paired + terms[len(paired) * 2:]
    sign, node = terms[0]
    return node if sign > 0 else Neg(node)


def _eval(node, order):
    """One evaluation pass: ``node`` as a series known below ``order``, every
    subexpression at the working order the plan gives it."""
    return _Plan().series(node, as_pair(order))


def evaluate(node, order):
    """Evaluate to a series with precision ``order``, in one planned pass.

    The valuations of the subexpressions fix, before anything is evaluated,
    how much precision each division and each shift by a negative power
    will consume, so no pass is thrown away.  The precision bookkeeping of
    ``QSeries`` checks the plan: a pass that comes back short is an internal
    error, ``InsufficientPrecision``."""
    order = rat(order)
    out = _eval(node, order)
    if out.prec is not None and qlt(out.prec, as_pair(order)):
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
    lhs: object  # AST; None on the way to a pool worker, which parses the text
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
    """A positive rational order written n or p/r in ASCII digits, each
    optionally signed; ValueError otherwise."""
    p, slash, r = text.partition("/")
    try:
        value = rat(_ascii_int(p), _ascii_int(r)) if slash else rat(_ascii_int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad order {text!r}") from None
    if value <= 0:
        raise ValueError("order must be positive")
    return value


def _ascii_int(text):
    """int(text) for an optional sign and ASCII digits only: int() also
    takes underscores, spaces and other scripts' digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


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
