"""Exact scalars: arbitrary-precision rationals plus a +infinity sentinel.

Rationals are `fractions.Fraction`, which already guarantees lowest terms and
a positive denominator. No floating point is used anywhere in this package:
every scalar field of `ChernVector`, `PolarizedCY3`, `CurveBound` and
`Candidate`, and every scalar argument of a formula on Chern vectors, slopes
or the case bounds, is exactly an `int` or a `Fraction` (checked by
`exact_int` and `exact_rational`; anything else is a TypeError naming the
field). The certificate's parts and the other reports do not check: only the
package builds them, from checked values. Two builders of checked records skip
the checks through `Record._trusted`, the one trusted constructor, as their
fields are exact by construction: `ChernVector` sums, differences, negatives,
multiples and duals (int and Fraction operations on checked fields), and
`enumerate_candidates` (its ranges give r >= 1, c2H >= 0 and d/2 - c2H > 0).
A degree d has its own check, `geometry.check_degree`, a ValueError.
`Record`, the base of every immutable record, and `to_jsonable`, the one JSON
serializer, live here so every module can use them. A record declares its
fields once, as `__slots__` in declaration order, and the base `__init__`
sets them; a record with checks validates its fields and then calls it.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from functools import cache, total_ordering
from operator import attrgetter
from typing import Callable, Union

from .errors import NumberTooLong

RATIONAL_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
INTEGER_GRAMMAR = re.compile(r"-?[0-9]+")


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
        raise ValueError(f"malformed rational {_shown(text)}: expected p or p/q")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"malformed rational {_shown(text)}: denominator is zero")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def parse_int(text: str) -> int:
    """Parse "p", the integer part of the rational grammar: ``-?[0-9]+``.

    Unlike `int()`, it rejects "5_0", non-ASCII digits and a leading "+".
    """
    s = text.strip()
    if not INTEGER_GRAMMAR.fullmatch(s):
        raise ValueError(f"malformed integer {_shown(text)}: expected -?[0-9]+")
    return int(s)


def _shown(value) -> str:
    """A string's repr or a number's str, or past 20 characters the first 20 and the
    length: one line on stderr."""
    try:
        text = value if isinstance(value, str) else str(value)
    except ValueError:  # an integer past str()'s digit limit
        return f"a number of {value.numerator.bit_length()} bits"
    if len(text) > 20:
        return f"{text[:20] + '…'!r} ({len(text)} characters)"
    return repr(value) if isinstance(value, str) else text


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", or just "p" when the denominator is 1. Every computed number
    is printed through here, so a part past str()'s digit limit is a NumberTooLong."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # int's str() has no other ValueError
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise NumberTooLong(f"a result of {bits} bits has more than "
                            f"{sys.get_int_max_str_digits()} digits to print") from None


def to_jsonable(value):
    """JSON form of a record tree: Fraction to "p/q", INFINITY to "+inf", Enum to
    its value, tuple or list to a list, record to a dict of its fields in
    declaration order (its `_fields`)."""
    return _converter(type(value))(value)


class Record:
    """Base of the immutable records. A record's fields are the `__slots__` of its
    bases and its own, base first and each name once. `Record.__init__` takes
    them positionally or by keyword and sets each once, through the slots'
    setters; both are found once per class when it is defined. A record with
    checks validates its fields in its own `__init__` and then calls this one.
    Records compare and hash field by field, only with records of the same class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())]
        cls._fields = tuple(dict.fromkeys(slots))  # a name declared again is one field
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):  # every field by position needs no check
            values = self._all_values(values, named)
        for setfield, value in zip(setters, values):
            setfield(self, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of values exact by construction, by position, with no field checks."""
        record = object.__new__(cls)
        for setfield, value in zip(cls._setters, values):
            setfield(record, value)
        return record

    @classmethod
    def _all_values(cls, values: tuple, named: dict) -> tuple:
        """Every field's value in declaration order, from the positional and the named
        ones; a TypeError naming the record for a missing, extra, unknown or doubled field."""
        names = cls._fields
        rest = names[len(values):]
        if len(values) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} fields "
                            f"({', '.join(names)}) but {len(values)} values were given")
        for name in named:
            if name not in rest:
                problem = "multiple values for" if name in names else "an unexpected"
                raise TypeError(f"{cls.__qualname__}() got {problem} field {name!r}")
        for name in rest:
            if name not in named:
                raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
        return values + tuple([named[name] for name in rest])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


@cache
def _converter(cls: type) -> Callable:
    """The conversion for one type, found once, so a walk does no reflection."""
    if issubclass(cls, Fraction):
        return lambda value: format_rational(value)  # looked up per call: a rebinding is seen
    if cls is _PlusInfinity:
        return lambda value: "+inf"
    if issubclass(cls, Enum):
        return attrgetter("value")
    # Containers convert their items directly, one converter lookup per node.
    if issubclass(cls, (tuple, list)):
        return lambda value: [_converter(type(item))(item) for item in value]
    if issubclass(cls, Record):
        names = cls._fields
        return lambda value: {name: _converter(type(v := getattr(value, name)))(v)
                              for name in names}
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
