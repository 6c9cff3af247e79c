"""Exact Chern-character arithmetic on a degree-d polarization with Pic = Z.H.

A class is stored through its intersection numbers against H: the rank ch0,
the integer c1 with ch1 = c1*H, the rational number ch2.H, and the degree of
ch3. Rank-zero and negative virtual classes are representable on purpose; the
constructors that model sheaves document their image, but the algebra is
total. Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import NamedTuple

from .errors import VirtualClassWarning
from .geometry import PolarizedCY3, check_degree
from .rationals import Record, exact_int, exact_rational


class ChernVector(Record):
    """Numerical Chern character (ch0, c1, ch2.H, ch3) in the H-basis."""

    __slots__ = ("ch0", "c1", "ch2H", "ch3")

    def __init__(self, ch0: int, c1: int, ch2H: Fraction, ch3: Fraction):
        super().__init__(exact_int(ch0, "ch0"), exact_int(c1, "c1"),
                         exact_rational(ch2H, "ch2H"), exact_rational(ch3, "ch3"))

    # Record._trusted: int and Fraction operations on checked fields are exact.
    def __add__(self, other: "ChernVector") -> "ChernVector":
        if not isinstance(other, ChernVector):
            return NotImplemented
        return ChernVector._trusted(self.ch0 + other.ch0, self.c1 + other.c1,
                                    self.ch2H + other.ch2H, self.ch3 + other.ch3)

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        if not isinstance(other, ChernVector):
            return NotImplemented
        return ChernVector._trusted(self.ch0 - other.ch0, self.c1 - other.c1,
                                    self.ch2H - other.ch2H, self.ch3 - other.ch3)

    def __neg__(self) -> "ChernVector":
        return ChernVector._trusted(-self.ch0, -self.c1, -self.ch2H, -self.ch3)

    def __mul__(self, k: int) -> "ChernVector":
        exact_int(k, "k")
        return ChernVector._trusted(self.ch0 * k, self.c1 * k, self.ch2H * k, self.ch3 * k)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.ch0 == 0 and self.c1 == 0 and self.ch2H == 0 and self.ch3 == 0


ZERO = ChernVector(0, 0, Fraction(0), Fraction(0))


def line_bundle_ch(d: int, n: int) -> ChernVector:
    """Chern character of O(nH) on a degree-d polarization.

    Expanding exp(nH) gives (1, n, n^2 d/2, n^3 d/6).
    """
    check_degree(d)
    exact_int(n, "n")
    return ChernVector(1, n, Fraction(n * n * d, 2), Fraction(n ** 3 * d, 6))


def ideal_twist_point_ch(d: int, length: int) -> ChernVector:
    """O(H) twisted by the ideal of a zero-dimensional subscheme of given length.

    Points do not move ch2, so the vector is (1, 1, d/2, d/6 - length).
    """
    check_degree(d)
    if exact_int(length, "length") < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return ChernVector(1, 1, Fraction(d, 2), Fraction(d, 6) - length)


def ideal_twist_curve_ch(d: int, beta: int, chi: int) -> ChernVector:
    """O(H) twisted by the ideal of a curve Z with H.Z = beta and chi(O_Z) = chi."""
    check_degree(d)
    if exact_int(beta, "beta") <= 0:
        raise ValueError(f"beta must be >= 1 (beta <= 0 is the zero-dimensional regime), got {beta}")
    exact_int(chi, "chi")
    return ChernVector(1, 1, Fraction(d, 2) - beta, Fraction(d, 6) - beta - chi)


def extend_by_trivial(ch: ChernVector, m: int) -> ChernVector:
    """Middle term of an extension of ch by m trivial summands: only ch0 moves."""
    if exact_int(m, "m") < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return ChernVector(ch.ch0 + m, ch.c1, ch.ch2H, ch.ch3)


def quotient_by_trivial(ch: ChernVector, m: int) -> ChernVector:
    """Quotient of ch by m trivial subsheaves; warns if the virtual rank goes negative."""
    if exact_int(m, "m") < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if ch.ch0 - m < 0:
        warnings.warn(
            f"quotient has virtual rank {ch.ch0 - m} < 0; not the class of a sheaf",
            VirtualClassWarning,
            stacklevel=2,
        )
    return ChernVector(ch.ch0 - m, ch.c1, ch.ch2H, ch.ch3)


def dual_ch(ch: ChernVector) -> ChernVector:
    """Derived dual: odd-degree components flip sign."""
    return ChernVector._trusted(ch.ch0, -ch.c1, ch.ch2H, -ch.ch3)


def triangle_ch(ch_sub: ChernVector, ch_quot: ChernVector) -> ChernVector:
    """Class of the middle of a triangle sub[1] -> E -> quot; the shift negates the sub."""
    return ch_quot - ch_sub


class ChernClasses(NamedTuple):
    c1: int
    c2H: Fraction
    c3: Fraction


def chern_classes_from_ch(d: int, ch: ChernVector) -> ChernClasses:
    """Convert Chern-character numbers to Chern-class numbers (c1, c2.H, c3).

    c2H = (c1^2 d - 2 ch2H) / 2 and c3 = (6 ch3 - c1^3 d + 3 c1 c2H) / 3, in
    integers: with ch2H = u/v and ch3 = x/y, c2H = k/(2 v) for
    k = c1^2 d v - 2 u, and c3 = (12 x v - 2 c1^3 d v y + 3 c1 y k) / (6 v y).
    """
    check_degree(d)
    a = ch.c1
    u, v = ch.ch2H.numerator, ch.ch2H.denominator
    x, y = ch.ch3.numerator, ch.ch3.denominator
    k = a * a * d * v - 2 * u
    c3 = Fraction(12 * x * v - 2 * a ** 3 * d * v * y + 3 * a * y * k, 6 * v * y)
    return ChernClasses(a, Fraction(k, 2 * v), c3)


def ch_from_chern_classes(d: int, ch0: int, c1: int, c2H, c3) -> ChernVector:
    """Inverse of chern_classes_from_ch at the given rank.

    ch2H = (c1^2 d - 2 c2H) / 2 and ch3 = (c1^3 d - 3 c1 c2H + 3 c3) / 6, in
    integers: with c2H = s/w and c3 = m/n, ch2H = (c1^2 d w - 2 s) / (2 w) and
    ch3 = (c1^3 d w n - 3 c1 s n + 3 m w) / (6 w n).
    """
    check_degree(d)
    exact_int(c1, "c1")
    c2H = exact_rational(c2H, "c2H")
    s, w = c2H.numerator, c2H.denominator
    c3 = exact_rational(c3, "c3")
    m, n = c3.numerator, c3.denominator
    ch2H = Fraction(c1 * c1 * d * w - 2 * s, 2 * w)
    ch3 = Fraction(c1 ** 3 * d * w * n - 3 * c1 * s * n + 3 * m * w, 6 * w * n)
    return ChernVector(ch0, c1, ch2H, ch3)


def euler_characteristic(geom: PolarizedCY3, ch: ChernVector) -> Fraction:
    """chi(E) on a Calabi-Yau threefold: ch3 + c1 * (c2(X).H) / 12.

    In integers, with ch3 = u/v: (12 u + c1 c2XH v) / (12 v).
    """
    u, v = ch.ch3.numerator, ch.ch3.denominator
    return Fraction(12 * u + ch.c1 * geom.c2XH * v, 12 * v)


def is_integral(geom: PolarizedCY3, ch: ChernVector) -> bool:
    """Whether the class sits on the sheaf lattice: c2(E).H and chi(E) are integers."""
    c2H = chern_classes_from_ch(geom.d, ch).c2H
    chi = euler_characteristic(geom, ch)
    return c2H.denominator == 1 and chi.denominator == 1
