"""Slopes, the Bogomolov-Gieseker discriminant, the tilt slope, and the closed
forms of the slope windows behind the rank bookkeeping arguments.

Only the sign and ordering of the tilt slope are contractual; the adopted
normalization at B = 0, omega = t*H is

    nu_t(ch) = (ch2H - t^2 d ch0 / 6) / (c1 t d)

with +infinity on c1 = 0 classes (the torsion part of the tilted heart).
"""

from __future__ import annotations

from fractions import Fraction

from .chern import ChernVector
from .errors import NegativeRank, NoPositiveRoot, ZeroRank
from .rationals import INFINITY, ExtendedRational, Record, exact_int, exact_rational


def slope_mu(geom, ch: ChernVector) -> ExtendedRational:
    """Slope c1.H^2 / rank = c1 d / ch0; +inf on rank-zero (torsion) classes."""
    if ch.ch0 < 0:
        raise NegativeRank(f"slope undefined for negative rank {ch.ch0}")
    if ch.ch0 == 0:
        return INFINITY
    return Fraction(ch.c1 * geom.d, ch.ch0)


def bg_discriminant(geom, ch: ChernVector) -> Fraction:
    """(ch1^2 - 2 ch0 ch2).H = c1^2 d - 2 ch0 ch2H."""
    return ch.c1 ** 2 * geom.d - 2 * ch.ch0 * ch.ch2H


def bg_ok(geom, ch: ChernVector) -> bool:
    """Bogomolov-Gieseker predicate: the discriminant is non-negative."""
    return bg_discriminant(geom, ch) >= 0


def tilt_slope_nu(geom, ch: ChernVector, t) -> ExtendedRational:
    """Tilt slope at scale t > 0; +inf when c1 = 0, an ordinary signed rational otherwise.

    nu_t(ch) = (ch2H - t^2 d ch0 / 6) / (c1 t d), computed in integers: with
    ch2H = a/b and t = p/q it is (6 a q^2 - b p^2 d ch0) / (6 b q p c1 d),
    normalized once by Fraction.
    """
    t = exact_rational(t, "t")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if ch.c1 == 0:
        return INFINITY
    a, b = ch.ch2H.numerator, ch.ch2H.denominator
    p, q = t.numerator, t.denominator
    d = geom.d
    return Fraction(6 * a * q * q - b * p * p * d * ch.ch0, 6 * b * q * p * ch.c1 * d)


def nu_zero_tsq(geom, ch: ChernVector) -> Fraction:
    """The unique t^2 > 0 where the tilt slope vanishes: 6 ch2H / (d ch0)."""
    if ch.ch0 == 0:
        raise ZeroRank("tilt-slope root undefined at rank zero")
    value = 6 * ch.ch2H / (geom.d * ch.ch0)
    if value <= 0:
        raise NoPositiveRoot(
            f"ch2H/ch0 = {Fraction(ch.ch2H, ch.ch0)} <= 0: the tilt slope has no positive root"
        )
    return value


class SandwichReport(Record):
    __slots__ = ("ordered", "ch2H_sub", "ch2H_quot")


def sandwich_check(geom, ch_sub: ChernVector, ch_quot: ChernVector, t) -> SandwichReport:
    """Check nu(-sub) <= 0 <= nu(quot) at scale t.

    The shift on the sub-object negates its class. A zero class on either
    side constrains nothing and that side is vacuously ordered, but t is
    checked on both sides all the same. Both ch2.H numbers are reported so
    the caller can confirm positivity on ordered inputs.
    """
    # nu is homogeneous of degree 0, so nu(-sub) = nu(sub) and no negated vector is built.
    left_ok = tilt_slope_nu(geom, ch_sub, t) <= 0 or ch_sub.is_zero()
    right_ok = tilt_slope_nu(geom, ch_quot, t) >= 0 or ch_quot.is_zero()
    return SandwichReport(left_ok and right_ok, ch_sub.ch2H, ch_quot.ch2H)


def lemma1_slope_window(r: int) -> list[tuple[int, int]]:
    """All (k, s) with 1 <= s <= r and 1/(r+1) <= k/s <= 1/r: the single pair (1, r).

    s <= r and k/s <= 1/r force s >= kr >= r, so (k, s) = (1, r).
    """
    if exact_int(r, "r") < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return [(1, r)]


def lemma2_slope_window(r: int) -> list[tuple[int, int]]:
    """All (k, s) with 1 <= s < r - 1 and 1/r <= k/s <= 1/(r-1): always empty.

    k/s <= 1/(r-1) forces s >= k(r - 1) >= r - 1, above the largest s, r - 2.
    """
    if exact_int(r, "r") < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    return []
