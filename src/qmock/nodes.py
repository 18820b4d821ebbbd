"""The AST of the identity DSL (``qmock.dsl``): constants, powers of q,
arithmetic and function calls.  The ASTs of the block templates
(``qmock.blocks``) also hold monomials, ``QMonomial``, as leaves.

The nodes are immutable and compare, hash, print and pickle by their
fields, as frozen dataclasses do; they are plain classes with slots, whose
definition costs far less at import than a dataclass's."""


class _Node:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Literal(_Node):
    __slots__ = ("value",)  # a GaussianRational


class QPow(_Node):
    __slots__ = ("exponent",)  # rational


class Add(_Node):
    __slots__ = ("left", "right")


class Sub(_Node):
    __slots__ = ("left", "right")


class Mul(_Node):
    __slots__ = ("left", "right")


class Div(_Node):
    __slots__ = ("left", "right")


class Neg(_Node):
    __slots__ = ("operand",)


class Pow(_Node):
    __slots__ = ("base", "exponent")  # exponent: an int


class Call(_Node):
    __slots__ = ("name", "args")  # args: a tuple of nodes
