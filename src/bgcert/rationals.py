"""Exact scalars: arbitrary-precision rationals plus a +infinity sentinel.

Rationals are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator. No floating point is used anywhere in this package:
every scalar argument of a record, or of a formula on Chern vectors, slopes or
the case bounds, is exactly an `int` or a `Fraction` (checked by `exact_int`
and `exact_rational`; anything else is a TypeError naming the field). A
degree d has its own check, `geometry.check_degree`, a ValueError.
`to_jsonable`, the one JSON serializer, lives here so every module can use it.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, total_ordering
from operator import attrgetter
from typing import Callable, Union

RATIONAL_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def exact_int(value, name: str) -> int:
    """`value` itself if it is exactly an int (not a bool); TypeError naming `name` otherwise."""
    if type(value) is int:
        return value
    raise TypeError(f"{name} must be an int, got {value!r}")


def exact_rational(value, name: str) -> Fraction:
    """A Fraction `value` itself, an int as a Fraction; TypeError naming `name` otherwise."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"{name} must be an int or a Fraction, got {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact Fraction.

    The accepted grammar is ``-?[0-9]+(/[0-9]+)?``; anything else (signs on
    the denominator, whitespace inside, decimals) is rejected.
    """
    s = text.strip()
    if not RATIONAL_GRAMMAR.fullmatch(s):
        raise ValueError(f"malformed rational {text!r}: expected p or p/q")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"malformed rational {text!r}: denominator is zero")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_jsonable(value):
    """JSON form of a record tree: Fraction to "p/q", INFINITY to "+inf", Enum to
    its value, tuple or list to a list, dataclass to a dict of its fields in
    declaration order."""
    return _converter(type(value))(value)


@cache
def _converter(cls: type) -> Callable:
    """The conversion for one type, found once, so a walk does no reflection."""
    if issubclass(cls, Fraction):
        return lambda value: format_rational(value)  # looked up per call: a rebinding is seen
    if cls is _PlusInfinity:
        return lambda value: "+inf"
    if issubclass(cls, Enum):
        return attrgetter("value")
    if issubclass(cls, (tuple, list)):
        return lambda value: [to_jsonable(item) for item in value]
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
        return lambda value: {name: to_jsonable(getattr(value, name)) for name in names}
    return lambda value: value  # int, bool, str, None


@total_ordering
class _PlusInfinity:
    """Sentinel that compares greater than every rational.

    Used as the slope of torsion classes. There is a single instance,
    ``INFINITY``; never construct more.
    """

    __slots__ = ()

    def __lt__(self, other):
        if not isinstance(other, (int, Fraction, _PlusInfinity)):
            return NotImplemented
        return False

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("bgcert.INFINITY")

    def __repr__(self):
        return "+inf"


INFINITY = _PlusInfinity()

ExtendedRational = Union[Fraction, _PlusInfinity]
