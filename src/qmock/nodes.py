"""The AST of the identity DSL (``qmock.dsl``): constants, powers of q,
arithmetic and function calls."""

from dataclasses import dataclass

from .series import GaussianRational


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
