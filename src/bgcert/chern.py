"""Exact Chern-character arithmetic on a degree-d polarization with Pic = Z.H.

A class is stored through its intersection numbers against H: the rank ch0,
the integer c1 with ch1 = c1*H, the rational number ch2.H, and the degree of
ch3. Rank-zero and negative virtual classes are representable on purpose; the
constructors that model sheaves document their image, but the algebra is
total. Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import VirtualClassWarning
from .geometry import PolarizedCY3, check_degree
from .rationals import exact_int, exact_rational


@dataclass(frozen=True)
class ChernVector:
    """Numerical Chern character (ch0, c1, ch2.H, ch3) in the H-basis."""

    ch0: int
    c1: int
    ch2H: Fraction
    ch3: Fraction

    def __post_init__(self):
        exact_int(self.ch0, "ch0")
        exact_int(self.c1, "c1")
        object.__setattr__(self, "ch2H", exact_rational(self.ch2H, "ch2H"))
        object.__setattr__(self, "ch3", exact_rational(self.ch3, "ch3"))

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(self.ch0 + other.ch0, self.c1 + other.c1,
                           self.ch2H + other.ch2H, self.ch3 + other.ch3)

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(self.ch0 - other.ch0, self.c1 - other.c1,
                           self.ch2H - other.ch2H, self.ch3 - other.ch3)

    def __neg__(self) -> "ChernVector":
        return ChernVector(-self.ch0, -self.c1, -self.ch2H, -self.ch3)

    def __mul__(self, k: int) -> "ChernVector":
        return ChernVector(self.ch0 * k, self.c1 * k, self.ch2H * k, self.ch3 * k)

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
    return ChernVector(ch.ch0, -ch.c1, ch.ch2H, -ch.ch3)


def triangle_ch(ch_sub: ChernVector, ch_quot: ChernVector) -> ChernVector:
    """Class of the middle of a triangle sub[1] -> E -> quot; the shift negates the sub."""
    return ch_quot - ch_sub


class ChernClasses(NamedTuple):
    c1: int
    c2H: Fraction
    c3: Fraction


def chern_classes_from_ch(d: int, ch: ChernVector) -> ChernClasses:
    """Convert Chern-character numbers to Chern-class numbers (c1, c2.H, c3)."""
    check_degree(d)
    a = ch.c1
    c2H = (a * a * d - 2 * ch.ch2H) / 2
    c3 = (6 * ch.ch3 - a ** 3 * d + 3 * a * c2H) / 3
    return ChernClasses(a, c2H, c3)


def ch_from_chern_classes(d: int, ch0: int, c1: int, c2H, c3) -> ChernVector:
    """Inverse of chern_classes_from_ch at the given rank."""
    check_degree(d)
    exact_int(c1, "c1")
    c2H = exact_rational(c2H, "c2H")
    ch2H = (c1 * c1 * d - 2 * c2H) / 2
    ch3 = (c1 ** 3 * d - 3 * c1 * c2H + 3 * exact_rational(c3, "c3")) / 6
    return ChernVector(ch0, c1, ch2H, ch3)


def euler_characteristic(geom: PolarizedCY3, ch: ChernVector) -> Fraction:
    """chi(E) on a Calabi-Yau threefold: ch3 + c1 * (c2(X).H) / 12."""
    return ch.ch3 + Fraction(ch.c1 * geom.c2XH, 12)


def is_integral(geom: PolarizedCY3, ch: ChernVector) -> bool:
    """Whether the class sits on the sheaf lattice: c2(E).H and chi(E) are integers."""
    c2H = chern_classes_from_ch(geom.d, ch).c2H
    chi = euler_characteristic(geom, ch)
    return c2H.denominator == 1 and chi.denominator == 1
