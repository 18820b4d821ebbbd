"""The AST of the identity DSL (``qmock.dsl``): constants, powers of q,
arithmetic and function calls.  The ASTs of the block templates
(``qmock.blocks``) also hold monomials, ``QMonomial``, as leaves.  The
parser and the templates write a sum as binary ``Add`` and ``Sub`` nodes,
which the evaluator's plan opens into one step of signed terms.

The nodes are immutable and compare, hash, print and pickle by their
fields, as frozen dataclasses do; they are plain classes with slots, whose
definition costs far less at import than a dataclass's.  Each node's
``__init__`` stores its fields through their slot descriptors, since
assignment is closed to everyone else: the parser and the block templates
build thousands of nodes per corpus, and a generic loop over the field
names took about twice as long."""


class _Node:
    __slots__ = ()
    _names = ()  # the fields, in order

    def _fields(self):
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Literal(_Node):
    __slots__ = _names = ("value",)  # a GaussianRational

    def __init__(self, value):
        _set_value(self, value)


class QPow(_Node):
    __slots__ = _names = ("exponent",)  # rational

    def __init__(self, exponent):
        _set_q_exponent(self, exponent)


class _Binary(_Node):
    __slots__ = _names = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(_Node):
    __slots__ = _names = ("operand",)

    def __init__(self, operand):
        _set_operand(self, operand)


class Pow(_Node):
    __slots__ = _names = ("base", "exponent")  # exponent: an int

    def __init__(self, base, exponent):
        _set_base(self, base)
        _set_exponent(self, exponent)


class Call(_Node):
    __slots__ = _names = ("name", "args")  # args: a tuple of nodes

    def __init__(self, name, args):
        _set_name(self, name)
        _set_args(self, args)


_set_value = Literal.value.__set__
_set_q_exponent = QPow.exponent.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_operand = Neg.operand.__set__
_set_base, _set_exponent = Pow.base.__set__, Pow.exponent.__set__
_set_name, _set_args = Call.name.__set__, Call.args.__set__
