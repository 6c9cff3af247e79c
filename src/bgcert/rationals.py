"""Exact scalars: arbitrary-precision rationals plus a +infinity sentinel.

Rationals are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator. No floating point is used anywhere in this package.
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
