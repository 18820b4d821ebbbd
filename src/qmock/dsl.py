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

The front end reads an expression in one scan of one compiled pattern,
into two lists, the tokens' kinds and texts, and one recursive descent over
them; an error's line and column are worked out from its token's offset
only when it is raised.  ``q^k`` is one ``QPow(k)``.  Parentheses, argument
lists and unary minus signs nest at most ``MAX_DEPTH`` levels, counted
together.  Integers of any length are read and printed exactly
(``_rational.decimal_int`` and ``decimal_text``).

The parser's ASTs hold ground rationals.  An evaluation plans its AST in
one walk, one step per node, a subtree of monomials being one monomial
step, and a call's arguments folded from their steps in the same walk;
the folded arguments, valuations and working orders are integer
monomials, triples and pairs (``qmock._rational``): no rational arithmetic.

Every call that has an engine (the thetas, m's bilateral sums, g, f, the
catalog series and the Pochhammer products) goes through one process memo,
``_store``: keyed by the engine and the folded arguments, it keeps each
series at the highest order asked, in any evaluation of the process, and
serves a lower order as that series truncated, which is what the call
itself gives.  It holds at most ``_STORE_BYTES`` bytes, counted from the
numerators' bit lengths and a fixed cost per slot, no series larger than
``_ENTRY_BYTES``, and drops the least recently used entries first.
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from math import lcm
from operator import itemgetter
from typing import Optional

from ._rational import (Q0, Q1, RAT, ZERO, as_pair, as_triple, decimal_int, decimal_text, is_integer,
                        json_pair, monomial, qadd, qdiv, qle, qlt, qmax, qmul, qrat, qsub, rat,
                        triple_reduce)
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
    sum_series,
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
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {col}: {message}{hint}")

    def __reduce__(self):  # rebuilt from its parts: args holds the formatted text
        return type(self), (self.message, self.line, self.col, self.expected)


class UnknownFunction(ExpressionSyntaxError):
    pass


class ArityError(ExpressionSyntaxError):
    pass


class EvaluationError(QSeriesError):
    """An expression is structurally valid but not evaluable (bad argument kind)."""


# What evaluating an expression raises on bad input; RecursionError for
# expressions too deep to walk, MemoryError for series too big to hold.
EVALUATION_ERRORS = (QSeriesError, ValueError, ZeroDivisionError, OverflowError, RecursionError,
                     MemoryError)


class CorpusSyntaxError(QSeriesError):
    def __init__(self, message, line):
        self.message = message
        self.line = line
        super().__init__(f"corpus line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.message, self.line)


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
    coefficient: j(x; b) = j(b/x; b) exactly, so one memo entry and
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


# --------------------------------------------------------------------------
# tokenizer

# One match per token: a number (ASCII digits only: int() reads other
# scripts' digits too), a word, or any other character but a blank (a
# symbol, or an unexpected character).  \w holds exactly where str.isalnum()
# does, and for '_', which is how a name goes on; that a name starts with a
# letter or '_' is checked by _tokenize.
_TOKEN = re.compile(r"[0-9]+|\w+|[^ \t\r\n]")

# the first character of a token -> its kind, for every ASCII token; any
# other token is a name if it starts with a letter, else an unexpected
# character
_KINDS = {
    **{c: c for c in "+-*/^(),"},
    **dict.fromkeys("0123456789", "NUM"),
    **dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "NAME"),
}


def _tokenize(text):
    """The kinds and the texts of the tokens of ``text``, two lists ending
    in an EOF token.  A kind is NUM, NAME, EOF or the symbol itself."""
    texts = _TOKEN.findall(text)
    kinds = list(map(_KINDS.get, map(itemgetter(0), texts)))
    if None in kinds:
        for i, t in enumerate(texts):
            if kinds[i] is None:
                if not t[0].isalpha():
                    raise _error(text, f"unexpected character {t[0]!r}", i)
                kinds[i] = "NAME"
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _error(text, message, i, expected=(), kind=ExpressionSyntaxError):
    """The error ``kind`` at the i-th token of ``text``: its line and column
    are found from the token's offset only here, when raising."""
    match = next(islice(_TOKEN.finditer(text), i, None), None)
    offset = len(text) if match is None else match.start()  # past the last token: EOF
    col = offset - text.rfind("\n", 0, offset)
    return kind(message, text.count("\n", 0, offset) + 1, col, expected)


# --------------------------------------------------------------------------
# parser

_ATOM_START = ("NUM", "NAME", "(")

# Parentheses, argument lists and unary minus signs may nest this deep, at
# most three Python frames a level, well inside the interpreter's recursion
# limit wherever a parse runs (under a test runner, in a pool worker).
MAX_DEPTH = 200

_ONE = RAT(1)


class _Parser:
    """Recursive descent over the token lists: ``pos`` indexes the next
    token, and ``depth`` counts the levels open around it."""

    def __init__(self, text):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect(self, kind):
        i = self.pos
        if self.kinds[i] != kind:
            raise _error(self.text, f"unexpected {self.texts[i] or 'end of input'!r}", i, (kind,))
        self.pos = i + 1
        return self.texts[i]

    def enter(self, i):
        """Open a level at the i-th token."""
        if self.depth == MAX_DEPTH:
            raise _error(self.text, "expression nested too deeply", i)
        self.depth += 1

    def parse(self):
        node = self.expr()
        i = self.pos
        if self.kinds[i] != "EOF":
            raise _error(self.text, f"trailing input {self.texts[i]!r}", i, ("EOF",))
        return node

    def expr(self):
        node = self.term()
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif kind == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        """term := factor (('*' | '/') factor | factor)*, with each factor
        read in this frame: factor := '-' factor | power, a run of signs at
        once, and power := atom ['^' exponent], where q^k is one QPow."""
        kinds, texts = self.kinds, self.texts
        node, op = None, None
        while True:
            pos = start = self.pos
            while kinds[pos] == "-":
                pos += 1
            signs = pos - start
            if signs:
                if self.depth + signs > MAX_DEPTH:
                    raise _error(self.text, "expression nested too deeply", start + MAX_DEPTH - self.depth)
                self.depth += signs
                self.pos = pos
            if texts[pos] == "q" and kinds[pos + 1] == "^":
                self.pos = pos + 2
                f = QPow(self.exponent())
            else:
                f = self.atom()
                if kinds[self.pos] == "^":
                    f = self.power(f)
            if signs:
                self.depth -= signs
                for _ in range(signs):
                    f = Neg(f)
            node = f if op is None else op(node, f)
            kind = kinds[self.pos]
            if kind == "*":
                self.pos += 1
                op = Mul
            elif kind == "/":
                self.pos += 1
                op = Div
            elif kind in _ATOM_START:
                op = Mul  # juxtaposition
            else:
                return node

    def power(self, base):
        """base ^ exponent, the '^' next."""
        caret = self.pos
        self.pos += 1
        k = self.exponent()
        if isinstance(base, QPow):
            return QPow(base.exponent * k)
        if k.denominator != 1:
            raise _error(self.text, "fractional powers are allowed only on q", caret)
        return Pow(base, k.numerator)

    def exponent(self):
        """exponent := ['-'] NUM | '(' ['-'] NUM ['/' NUM] ')', a rational."""
        kinds = self.kinds
        paren = kinds[self.pos] == "("
        if paren:
            self.pos += 1
        negative = kinds[self.pos] == "-"
        if negative:
            self.pos += 1
        num = decimal_int(self.expect("NUM"))
        if negative:
            num = -num
        if paren and kinds[self.pos] == "/":
            i = self.pos + 1
            self.pos = i
            den = decimal_int(self.expect("NUM"))
            if not den:
                raise _error(self.text, "zero denominator", i)
            value = RAT(num, den)
        else:
            value = RAT(num)
        if paren:
            self.expect(")")
        return value

    def atom(self):
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "NUM":
            self.pos = i + 1
            return Literal(GaussianRational(RAT(decimal_int(text)), ZERO))
        if kind == "(":
            self.enter(i)
            self.pos = i + 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "NAME":
            self.pos = i + 1
            if text == "q":
                return QPow(_ONE)
            if text == "i":
                return Literal(GR_I)
            row = FUNCTIONS.get(text)
            if row is None:
                raise _error(self.text, f"unknown name {text!r}", i, kind=UnknownFunction)
            if self.kinds[i + 1] != "(":
                raise _error(self.text, f"function {text!r} needs an argument list", i, ("(",))
            self.enter(i + 1)
            self.pos = i + 2
            args = [self.expr()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                args.append(self.expr())
            self.expect(")")
            self.depth -= 1
            want = len(row[0])
            if len(args) != want:
                raise _error(self.text, f"{text} takes {want} arguments, got {len(args)}", i, kind=ArityError)
            return Call(text, tuple(args))
        raise _error(self.text, f"unexpected {text or 'end of input'!r}", i, _ATOM_START)


def parse(text):
    """Parse an expression into its AST."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # a caller already deep in its own recursion
        raise _error(parser.text, "expression nested too deeply", parser.pos) from None


# --------------------------------------------------------------------------
# printer (canonical, reparseable)

def _literal_text(value):
    """A parseable rendering of any constant; Literal-shaped only for the
    constants the parser itself can produce (nonnegative integers and i)."""
    if not value.im:
        r = value.re
        if r >= 0:
            return decimal_text(r) if is_integer(r) else f"({decimal_text(r)})"
        return f"(-{_literal_text(GaussianRational(-r))})"
    if value == GR_I:
        return "i"
    re_part = _literal_text(GaussianRational(value.re)) if value.re else ""
    im_unit = _literal_text(GaussianRational(abs(value.im)))
    im_part = "i" if abs(value.im) == 1 else f"{im_unit}*i"
    sign = "-" if value.im < 0 else ("+" if re_part else "")
    return f"({re_part} {sign} {im_part})" if re_part else f"({sign}{im_part})"


_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


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
            return f"q^{decimal_text(e)}"
        return f"q^({decimal_text(e)})"
    if type(node) in _INFIX:
        # a chain of one precedence in one pair of parentheses, walked down
        # its left spine in this frame; a right operand keeps its own
        level = (Add, Sub) if type(node) in (Add, Sub) else (Mul, Div)
        rights = []
        while type(node) in level:
            rights.append(_INFIX[type(node)] + to_text(node.right))
            node = node.left
        return f"({to_text(node)}{''.join(reversed(rights))})"
    if isinstance(node, Neg):
        return f"(-{to_text(node.operand)})"
    if isinstance(node, Pow):
        k = node.exponent
        suffix = f"^{decimal_text(k)}" if k >= 0 else f"^(-{decimal_text(-k)})"
        return f"{to_text(node.base)}{suffix}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    if isinstance(node, QMonomial):  # in a block template's AST
        return to_text(Mul(Literal(node.coeff), QPow(node.exp)))
    raise TypeError(f"not an AST node: {node!r}")


# --------------------------------------------------------------------------
# evaluation
#
# One walk builds the plan of an AST (``_Plan.step``), one step per node:
# its kind, its parts, its valuation and its grid, all found when it is
# built.  A valuation is a pair (v, exact): the step's series starts
# exactly at q^v when exact is true, at q^v or later otherwise; None is no
# known lower bound.  Exponents v and working orders are (num, den) pairs.
# Working orders go top down: a product a*b known below w asks a for
# w - v(b) and then b for w - low(a), where low(a) is where the evaluated a
# starts (its precision, if it is zero below it); a divisor with an exact
# valuation d is asked for its inverse's order plus 2d.  Each factor is
# asked at least for its own valuation, so even a factor that comes back
# zero starts no lower than its bound.
# A step is its node's form, an equal expression in which division comes
# last: monomials, their products, quotients, negations and powers, and a
# nonzero sum of constants are one monomial, which shifts and scales the
# other factor of a product or a quotient (``QSeries.mul_monomial``), and
# a zero constant, times, over or negated by one, or a zero sum of
# constants, is zero; a call's arguments are the monomials or constants of
# their steps, by the kinds of its row's slots (``_Plan._argument``); a
# call of m or of a block sum is its expansion, m's being its bilateral sum
# over j(z; b); a divisor written as a product or a quotient (not by zero)
# is split, so that each of its factors is its own divisor; a product with
# a quotient factor is one quotient; and a sum is one step of signed
# terms, however its Add, Sub and Neg nodes and the sums of its block calls
# nest, in which the quotients that share a theta divisor are one quotient
# by it.  A call with an engine is made once per process (``_Store``): the
# theta functions j, J, JB and Jm once per distinct j(x; b), whatever name
# calls it, the bilateral sums once per m(x, b, z), and g, f, the catalog
# series and the Pochhammer products once per folded arguments, each at
# the highest order asked so far, and a lower order is that truncated.


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
    is one ``QSeries.divide`` (``_Plan._product``), and no inverse is formed
    for it."""

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


# The process memo's budget in bytes; the largest series it keeps; and
# what it counts for a numerator beside its bits, 4 bytes per 30 of them: a
# list slot and an int's header.  A large series kept pins the heap it was
# built in, so that later stanzas grow past it: at order 800 one 13 MB g
# series kept from universal-g-base4-split-3 raised the next big stanza's
# peak RSS by 51 MB, and keeping series up to 2 MiB left the corpus's peak
# 36 MB above the parent's, against 6-11 MB for series up to 256 KiB.  The
# largest series of the corpus at its own orders counts about 50 KB.
_STORE_BYTES = 16 << 20
_ENTRY_BYTES = 256 << 10
_SLOT_BYTES = 36


def _series_bytes(s):
    """The bytes the process memo counts for the series s, at least what
    its numerator vectors take."""
    return sum(_SLOT_BYTES * len(v) + sum(map(int.bit_length, v)) * 2 // 15
               for v in (s._re, s._im) if v is not None)


class _Store:
    """The process memo: every engine call's series, keyed by the engine
    (the function the call's row names, looked up when called, so that a
    rebound engine has entries of its own) and the folded arguments, at
    the highest order asked, within ``budget`` bytes (``_series_bytes``).
    A hit is the kept series truncated, which is the call itself: an
    engine's terms are exact, the same at any order, and a series is kept
    only when it reaches the order asked, as a call at a lower order then
    does too.  The least recently used entries go first; a series larger
    than ``most`` bytes, or one that an engine raised for, is not kept.
    Nothing is locked: one thread at a time may evaluate."""

    __slots__ = ("budget", "most", "entries", "bytes")

    def __init__(self, budget, most):
        self.budget, self.most = budget, most
        self.entries = OrderedDict()    # key -> (series, bytes), least recently used first
        self.bytes = 0

    def call(self, engine, args, w):
        """engine(*args, w), from the memo when it holds the call at w or higher."""
        key = (engine, *args)
        entry = self.entries.get(key)
        if entry is not None and qle(w, entry[0].prec):
            self.entries.move_to_end(key)
            return entry[0].truncate(w)
        s = engine(*args, w)
        if s.prec == w:
            self._keep(key, s)
        return s

    def _keep(self, key, s):
        size = _series_bytes(s)
        if size > self.most:
            return
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        self.entries[key] = s, size
        self.bytes += size
        while self.bytes > self.budget:
            self.bytes -= self.entries.popitem(last=False)[1][1]

    def clear(self):
        self.entries.clear()
        self.bytes = 0


_store = _Store(_STORE_BYTES, _ENTRY_BYTES)


# the kinds of plan step (``_Step``)
_MONO, _ZERO, _SCALE, _MUL, _DIV, _NEG, _POW, _SUM, _CALL, _FAIL = (
    "mono", "zero", "scale", "mul", "div", "neg", "pow", "sum", "call", "fail")
_MONO_OR_ZERO = (_MONO, _ZERO)


class _Step:
    """A node in its form (see above): its kind, valuation, grid (the least
    common denominator L of the exponents it is built from: its series lies
    on the grid 1/L or a coarser one) and parts, by kind: mono, left the
    monomial; zero, a zero constant; scale, left a step, right the monomial
    that multiplies it; mul and div, left and right the factors or numerator
    and divisor; neg, left the operand; pow, left the base, right the int
    exponent; sum, left its (sign, step) pairs; call, the name, left the
    folded arguments (a theta's (x, b)) or subq's and negq's argument, right
    subq's power (negq's 1); fail, left the error evaluating it raises."""

    __slots__ = ("kind", "val", "grid", "left", "right", "name")

    def __init__(self, kind, val, grid, left=None, right=None, name=None):
        self.kind, self.val, self.grid = kind, val, grid
        self.left, self.right, self.name = left, right, name


def _mono(m):
    return _Step(_MONO, (m.pair, True), m.pair[1], m)


# the step of a zero constant, which no step changes
_NOUGHT = _Step(_ZERO, None, 1)


def _scaled(s, m):
    """s times the monomial m, one step however many monomials scale s."""
    if s.kind is _SCALE:
        s, m = s.left, s.right * m
    val = None if s.val is None else (qadd(s.val[0], m.pair), s.val[1])
    return _Step(_SCALE, val, lcm(s.grid, m.pair[1]), s, m)


def _last(den):
    """True when a quotient by ``den`` may be divided last: den's valuation
    is exact and not positive.  Any other divisor keeps its place."""
    val = den.val
    return val is not None and val[1] and val[0][0] <= 0


def _joins(c, quotient):
    """True when the factor c may join the numerator of ``quotient``: c lies
    on its grid, or c is a quotient or a sum with a quotient term, whose
    product with the quotient would be dense times dense."""
    if quotient.grid % c.grid == 0 or c.kind is _DIV:
        return True
    return c.kind is _SUM and any(t.kind is _DIV for _, t in c.left)


def _neg(s):
    """-s: a monomial negated, zero itself, and -(a/b) is (-a)/b for a
    divisor b that may go last (``_last``)."""
    if s.kind is _MONO:
        return _mono(-s.left)
    if s.kind is _ZERO:
        return s
    if s.kind is _DIV and _last(s.right):
        return _div(_neg(s.left), s.right)
    return _Step(_NEG, s.val, s.grid, s)


def _mul(a, c):
    """a*c: a quotient factor takes the other into its numerator, (a/b)*c
    and c*(a/b) being (a*c)/b, for a divisor b that may go last (``_last``)
    and a factor c that may join it (``_joins``), and a monomial factor
    scales the other.  So a constant, a monomial, a theta or the bilateral
    sum of an m on the quotient's grid joins the numerator, and (a/b)*(c/d)
    is (a*c)/(b*d): no product of two quotients is formed.  A product of
    monomials is one, and zero times a monomial or zero is zero."""
    if a.kind is _MONO and c.kind is _MONO:
        return _mono(a.left * c.left)
    if a.kind in _MONO_OR_ZERO and c.kind in _MONO_OR_ZERO:
        return _NOUGHT
    if a.kind is _DIV and _last(a.right) and _joins(c, a):
        return _div(_mul(a.left, c), a.right)
    if c.kind is _DIV and _last(c.right) and _joins(a, c):
        return _div(_mul(a, c.left), c.right)
    if c.kind is _MONO or a.kind is _MONO:
        return _scaled(a, c.left) if c.kind is _MONO else _scaled(c, a.left)
    return _Step(_MUL, _val_product(a.val, c.val), lcm(a.grid, c.grid), a, c)


def _div(a, b):
    """a/b: by a monomial, a scaled by its inverse, zero being zero."""
    if b.kind is _MONO:
        m = b.left.inverse()
        return _mono(a.left * m) if a.kind is _MONO else a if a.kind is _ZERO else _scaled(a, m)
    return _Step(_DIV, _val_product(a.val, _val_inverse(b.val)), lcm(a.grid, b.grid), a, b)


def _pow(base, k):
    """base^k: a monomial's is one while its coefficient is a unit or keeps
    at most 2^16 bits (|k| times its base's), zero's is zero, or 1 for
    k = 0; any other keeps the path of a power, which cuts its base below
    the order."""
    if base.kind is _MONO:
        r, i, d = base.left.triple
        if d == 1 and abs(r) + abs(i) == 1 \
                or abs(k) * max((abs(r) + abs(i)).bit_length(), d.bit_length()) <= 1 << 16:
            return _mono(base.left ** k)
    if base.kind is _ZERO and k >= 0:
        return _mono(qpow(0)) if k == 0 else base
    return _Step(_POW, _val_power(base.val, k), base.grid, base, k)


def _unfolded(step, constant):
    """Why an argument's step did not fold: in a ``constant`` slot, a
    division by zero in a step built of monomials and zeros alone; else a
    power of a monomial past the bound of ``_pow`` in its arithmetic, sums
    included.  None for neither."""
    zero, bound, other, stack = False, None, False, [step]
    while stack:
        s = stack.pop()
        kind = s.kind
        if kind is _MUL or kind is _DIV:
            stack += [s.left, s.right]
            zero = zero or kind is _DIV and s.right.kind is _ZERO
        elif kind is _POW and s.left.kind is _ZERO:
            zero = True
        elif kind is _POW and s.left.kind is _MONO:
            bound = s
        elif kind is _SCALE or kind is _NEG or kind is _POW:
            stack.append(s.left)
        elif kind is _SUM:
            other = True
            stack += [t for _, t in s.left]
        elif kind not in _MONO_OR_ZERO:
            other = True
    if constant and zero and not other:
        return ZeroDivisionError("inverse of zero")
    if bound is not None:
        return EvaluationError(
            f"({bound.left.left})^{bound.right} is past the 2^16-bit bound of a folded coefficient")
    return None


def _divisors(term):
    """(core, dens): the term is core divided by the thetas of dens that may
    go last (``_last``), (key, divisor) pairs from the last inwards, each
    keyed by the integers of its (x, b)."""
    dens = []
    while term.kind is _DIV:
        den = term.right
        if den.kind is not _CALL or den.name not in _THETAS or not _last(den):
            break
        x, b = den.left
        dens.append(((x.triple, x.pair, b.triple, b.pair), den))
        term = term.left
    return term, dens


class _Plan:
    """One evaluation pass: ``step`` builds the plan of an AST in one walk,
    and ``series`` evaluates a step at the working order asked of it.  A
    plan keeps nothing: the engines' series live in ``_store``."""

    __slots__ = ()

    def step(self, node):
        """The step of ``node`` (see above), built from its parts' steps."""
        kind = type(node)
        if kind is Call:
            return self._call_step(node)
        if kind is Mul:
            a, b = node.left, node.right
            if type(a) is Literal and type(b) is QPow and a.value:  # c*q^e as the parser writes it
                return _mono(QMonomial(a.value, b.exponent))
            return _mul(self.step(a), self.step(b))
        if kind is Div:
            return self._divide(self.step(node.left), node.right)
        if kind is Add or kind is Sub:
            return self._sum(node)
        if kind is QPow:
            return _mono(qpow(node.exponent))
        if kind is Literal:
            t = as_triple(node.value)
            return _mono(monomial(triple_reduce(t), Q0)) if t[0] or t[1] else _NOUGHT
        if kind is Neg:
            return _neg(self.step(node.operand))
        if kind is Pow:
            return _pow(self.step(node.base), node.exponent)
        if kind is QMonomial:  # as a block template writes it
            return _mono(node)
        raise TypeError(f"not an AST node: {node!r}")

    def _call_step(self, node):
        """A call's step, for m and a block sum their expansion's; a call that
        does not fold, expand or name a row fails."""
        name, args = node.name, node.args
        try:
            if name not in FUNCTIONS:
                raise EvaluationError(f"no evaluator for function {name!r}")
            if name == "subq" or name == "negq":  # q -> q^k or -q in the argument
                k, folded = self._argument("r", args[1]) if name == "subq" else Q1, None
            else:
                folded = self._fold_args(node)
                expansion = name in _EXPANSIONS and _EXPANSIONS[name](*folded)
        except EVALUATION_ERRORS as exc:
            return _Step(_FAIL, None, 1, exc, name=name)
        if folded is None:
            arg = self.step(args[0])
            val = None if arg.val is None or k[0] <= 0 else (qmul(arg.val[0], k), arg.val[1])
            return _Step(_CALL, val, arg.grid * k[1], arg, k, name)
        if expansion:
            return self.step(expansion)
        start = FUNCTIONS[name][2]
        try:
            v = None if start is None else start[0](*folded)
        except EVALUATION_ERRORS:
            v = None  # evaluating the call raises the error
        grid = lcm(*[a.pair[1] for a in folded if type(a) is QMonomial])
        return _Step(_CALL, None if v is None else (v, start[1]), grid, folded, name=name)

    def _fold_args(self, node):
        """A call's arguments folded by the kinds of its row's slots; a theta
        call's are the (x, b) of the j(x; b) it is (``_THETAS``)."""
        name = node.name
        args = [self._argument(kind, arg) for kind, arg in zip(FUNCTIONS[name][0], node.args)]
        return _symmetric(*_THETAS[name](*args)) if name in _THETAS else args

    def _argument(self, kind, node):
        """The argument ``node`` of a slot of ``kind`` folded from its step:
        the monomial of a mono step (m), one of positive exponent (b), or
        its constant coefficient, real, as a pair (r) or an int (n), which a
        zero step is too.  A block template's monomial is its own step."""
        s = None if type(node) is QMonomial else self.step(node)
        step, m = (_MONO, node) if s is None else (s.kind, s.left)
        if kind == "m" or kind == "b":
            if step is _MONO and (kind == "m" or m.pair[0] > 0):
                return m
            if step is _MONO:
                raise EvaluationError(f"base argument must have positive exponent, got {m}")
            if step is _ZERO:
                raise EvaluationError("monomial argument must be nonzero")
            raise _unfolded(s, False) or EvaluationError(
                f"expected a constant monomial (c*q^e), got expression {to_text(node)!r}")
        if step is not _ZERO and (step is not _MONO or m.pair != Q0):
            raise _unfolded(s, True) or EvaluationError(f"expected a constant, got expression {to_text(node)!r}")
        r, i, d = m.triple if step is _MONO else (0, 0, 1)
        if i:
            raise EvaluationError(f"expected a rational constant, got {to_text(node)!r}")
        if kind == "n" and d != 1:
            raise EvaluationError(f"expected an integer, got {to_text(node)!r}")
        return r if kind == "n" else (r, d)

    def _divide(self, a, den):
        """a/den, the divisor as written split, a/(b*c) being (a/b)/c and
        a/(b/c) being (a*c)/b for c not zero, so that no product of divisors
        is formed.  A call of m keeps its path as a divisor: its expansion
        is not split."""
        if type(den) is Mul:
            return self._divide(self._divide(a, den.left), den.right)
        if type(den) is Div:
            c = self.step(den.right)
            if c.kind is _ZERO:  # b/0 stays a division by zero
                return _div(a, _div(self.step(den.left), c))
            return self._divide(_mul(a, c), den.left)
        return _div(a, self.step(den))

    def _sum(self, node):
        """A sum's step (``_gather``); a sum of constants is one, a zero
        step if it is zero."""
        terms = self._terms([(1, node)])
        if all(t.kind is _ZERO or t.kind is _MONO and t.left.pair == Q0 for _, t in terms):
            r, i, d = 0, 0, 1
            for sign, t in terms:
                tr, ti, td = t.left.triple if t.kind is _MONO else (0, 0, 1)
                r, i, d = r * td + sign * tr * d, i * td + sign * ti * d, d * td
            return _mono(monomial(triple_reduce((r, i, d)), Q0)) if r or i else _NOUGHT
        return self._gather(terms)

    def _terms(self, items):
        """The (sign, node or step) pairs ``items`` as (sign, step) pairs, in
        order, walked with a stack that opens every Add, Sub, Neg and sum or
        negation step (such as a block call's sum), the signs multiplied."""
        out, stack = [], items[::-1]
        while stack:
            sign, n = stack.pop()
            kind = type(n)
            if kind is Add or kind is Sub:
                stack.append((-sign if kind is Sub else sign, n.right))
                stack.append((sign, n.left))
            elif kind is Neg:
                stack.append((-sign, n.operand))
            elif (s := n if kind is _Step else self.step(n)).kind is _SUM:
                stack += [(sign * t, u) for t, u in reversed(s.left)]
            elif s.kind is _NEG:
                stack.append((-sign, s.left))
            else:
                out.append((sign, s))
        return out

    def _gather(self, terms):
        """The sum of the (sign, step) pairs ``terms`` as one step, its quotients
        by one theta (``_divisors``) as one quotient, a/d ± b/d being (a ± b)/d,
        so that d is divided by once.  The divisor that the most terms share
        goes last of all: a/(d*e) + b/(d*f) is (a/e + b/f)/d.  A sum gathered
        into one term is that term."""
        parts = [(sign, term, *_divisors(term)) for sign, term in terms]
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
                    for _, d in reversed(dens[:i] + dens[i + 1:]):  # the first one last
                        core = _div(core, d)
                    num.append((sign, core))
                else:
                    rest.append(part)
            term = _div(self._gather(self._terms(num)), den)
            parts = rest + [(1, term, *_divisors(term))]
        if len(parts) == 1:  # the terms gathered into one, added with sign 1
            return parts[0][1]
        terms = tuple([(sign, term) for sign, term, _, _ in parts])
        val = reduce(_val_sum, [t.val for _, t in terms])
        return _Step(_SUM, val, lcm(*[t.grid for _, t in terms]), terms)

    def series(self, step, w):
        """``step`` as a series known below w (or exact)."""
        kind = step.kind
        if kind is _CALL or kind is _FAIL:
            return self._call(step, w)
        if kind is _SUM:
            return sum_series([self.series(t, w) if sign > 0 else -self.series(t, w)
                               for sign, t in step.left])
        if kind is _MUL or kind is _DIV:
            return self._product(step, w)
        if kind is _SCALE:
            m = step.right
            return self.series(step.left, _target(w, m.pair, _bound(step.left.val))).mul_monomial(m)
        if kind is _MONO:
            return QSeries.from_monomial(step.left)
        if kind is _NEG:
            return -self.series(step.left, w)
        if kind is _POW:
            return self._power(step.left, step.right, w)
        return QSeries.zero()

    def _product(self, step, w):
        """a*b or a/b known below w.  A factor without a valuation is
        evaluated first, so that where it starts is known when its partner's
        order is set.  A monomial over b is b's inverse scaled."""
        a, b = step.left, step.right
        get_a, get_b = self.series, self.series
        vb = b.val
        if step.kind is _DIV:
            vb = _val_inverse(vb)
            if a.kind is _MONO:
                return self._inverse(b, _target(w, a.left.pair, _bound(vb))).mul_monomial(a.left)
            get_b = self._reciprocal
        va, vb = _bound(a.val), _bound(vb)
        if vb is None and va is not None:
            a, va, get_a, b, vb, get_b = b, vb, get_b, a, va, get_a
        sa = get_a(a, _target(w, vb, va))
        sb = get_b(b, _target(w, sa.low(), vb))
        if vb is None:
            p = product_precision(sa.prec, sa.low(), sb.prec, sb.low())
            if p is not None and qlt(p, w):
                # neither factor had a valuation: b's start now sets a's
                # order, before the product is formed
                sa = get_a(a, _target(w, sb.low(), va))
        x, y = (sb, sa) if type(sa) is _Reciprocal else (sa, sb)  # y divides x if a reciprocal
        return x.divide(y.den, y.order) if type(y) is _Reciprocal else x * y

    def _power(self, base, k, w):
        """base^k known below w: the base, or its inverse for k < 0, is
        asked for w less (|k| - 1) times where it starts, and cut there,
        so that an exact base is not raised to its full degree."""
        get = self._inverse if k < 0 else self.series
        val = base.val
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

    def _inverse(self, step, w):
        """1/step known below w."""
        return self._reciprocal(step, w).inverse()

    def _reciprocal(self, step, w):
        """1/step known below w, as the divisor that a product divides by."""
        val = step.val
        if val is not None and val[1]:
            d = val[0]  # asked past d, the divisor's leading term shows
            den = self.series(step, qmax(qadd(w, qmul(d, 2)), qadd(d, Q1)))
        else:
            den = self._eval_divisor(step, w, _bound(val))
        return _Reciprocal(den, w)

    def _eval_divisor(self, step, w, v):
        """A divisor whose valuation gives no exact start (a sum whose leading
        terms may cancel, such as m(..) - m(..), or one built on m, g or f),
        evaluated as though it started at its bound v, if it has one.  While
        it is zero to its precision it is evaluated again at 2t + 1, three
        times at most, before inverting it fails with ZeroSeries; once its
        start d shows, once more if its precision falls short of w + 2d,
        which the inverse known below w needs."""
        t = w if v is None else qmax(qadd(w, qmul(v, 2)), qadd(v, Q1))
        den = self.series(step, t)
        for _ in range(3):
            if not den.is_zero() or den.prec is None:
                break
            t = qadd(qmul(qmax(t, Q0), 2), Q1)
            den = self.series(step, t)
        if den.is_zero() or den.prec is None:
            return den
        need = qadd(w, qmul(den.low(), 2))
        return den if qle(need, den.prec) else self.series(step, need)

    def _call(self, step, w):
        """A call step's series: a fail step raises its error."""
        name = step.name
        if step.kind is _FAIL:
            raise step.left
        if name == "subq":
            k = step.right
            if k[0] <= 0:
                raise NonPositivePower(f"subq power must be positive, got {decimal_text(qrat(k))}")
            return self.series(step.left, qdiv(w, k)).substitute_power(k)
        if name == "negq":
            return self.series(step.left, w).negate_base()
        owner, attr = FUNCTIONS[name][1]
        return _store.call(getattr(owner, attr), step.left, w)


def _eval(node, order):
    """One evaluation pass: ``node`` as a series known below ``order``, every
    subexpression at the working order the plan gives it."""
    plan = _Plan()
    return plan.series(plan.step(node), as_pair(order))


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
                None if self.achieved_precision is None else json_pair(self.achieved_precision)
            ),
            "first_mismatch": None,
            "anchor": self.anchor,
            "detail": self.detail,
        }
        if self.first_mismatch is not None:
            e, c = self.first_mismatch
            d["first_mismatch"] = {
                "exponent": json_pair(e),
                "coefficient": json_pair(c.re) + json_pair(c.im),
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

    Each key appears once per stanza; lines beginning with ``#`` are comments."""
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
        if key != "id" and key in current:
            raise CorpusSyntaxError(f"identity {current['id']!r} sets {key!r} twice", lineno)
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
