"""Slopes, the Bogomolov-Gieseker discriminant, the tilt slope, and the closed
forms of the slope windows behind the rank bookkeeping arguments.

Only the sign and ordering of the tilt slope are contractual; the adopted
normalization at B = 0, omega = t*H is

    nu_t(ch) = (ch2H - t^2 d ch0 / 6) / (c1 t d)

with +infinity on c1 = 0 classes (the torsion part of the tilted heart). Its
sign is decided in integers; a Fraction is built only for a returned value.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import ChernVector
from .errors import NegativeRank, NoPositiveRoot, ZeroRank
from .rationals import INFINITY, ExtendedRational, Record, _shown, exact_int, exact_rational


def slope_mu(geom, ch: ChernVector) -> ExtendedRational:
    """Slope c1.H^2 / rank = c1 d / ch0; +inf on rank-zero (torsion) classes."""
    if ch.ch0 < 0:
        raise NegativeRank(f"slope undefined for negative rank {_shown(ch.ch0)}")
    if ch.ch0 == 0:
        return INFINITY
    return Fraction(ch.c1 * geom.d, ch.ch0)


def bg_discriminant(geom, ch: ChernVector) -> Fraction:
    """(ch1^2 - 2 ch0 ch2).H = c1^2 d - 2 ch0 ch2H; with ch2H = a/b, (c1^2 d b - 2 ch0 a) / b."""
    a, b = ch.ch2H.numerator, ch.ch2H.denominator
    return Fraction(ch.c1 * ch.c1 * geom.d * b - 2 * ch.ch0 * a, b)


def bg_ok(geom, ch: ChernVector) -> bool:
    """Bogomolov-Gieseker predicate: the discriminant is non-negative."""
    return bg_discriminant(geom, ch) >= 0


def _nu_pair(geom, ch: ChernVector, t) -> tuple[int, int] | None:
    """nu_t(ch) as integers (n, m) with m > 0, or None for +inf (c1 = 0); checks t.

    With ch2H = a/b and t = p/q, nu is (6 a q^2 - b p^2 d ch0) / (6 b q p c1 d).
    """
    t = exact_rational(t, "t")
    p, q = t.numerator, t.denominator
    if p <= 0:
        raise ValueError(f"t must be positive, got {_shown(t)}")
    if ch.c1 == 0:
        return None
    a, b = ch.ch2H.numerator, ch.ch2H.denominator
    n = 6 * a * q * q - b * p * p * geom.d * ch.ch0
    m = 6 * b * q * p * ch.c1 * geom.d
    return (n, m) if m > 0 else (-n, -m)


def tilt_slope_nu(geom, ch: ChernVector, t) -> ExtendedRational:
    """Tilt slope at scale t > 0: +inf when c1 = 0, else one Fraction of _nu_pair's integers."""
    nu = _nu_pair(geom, ch, t)
    return INFINITY if nu is None else Fraction(nu[0], nu[1])


def nu_zero_tsq(geom, ch: ChernVector) -> Fraction:
    """The unique t^2 > 0 where the tilt slope vanishes: 6 ch2H / (d ch0) = 6a / (b d ch0)."""
    if ch.ch0 == 0:
        raise ZeroRank("tilt-slope root undefined at rank zero")
    value = Fraction(6 * ch.ch2H.numerator, ch.ch2H.denominator * geom.d * ch.ch0)
    if value.numerator <= 0:
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
    # nu(-sub) = nu(sub) (nu is homogeneous of degree 0), and only signs are read. On c1 = 0,
    # nu = +inf: the left side fails unless sub is the zero class, and the right side holds.
    sub, quot = _nu_pair(geom, ch_sub, t), _nu_pair(geom, ch_quot, t)
    left_ok = ch_sub.is_zero() if sub is None else sub[0] <= 0
    right_ok = quot is None or quot[0] >= 0
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
