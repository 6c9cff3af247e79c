"""Slopes, the Bogomolov-Gieseker discriminant, the tilt slope, and the exact
slope-window enumerations behind the rank bookkeeping arguments.

Only the sign and ordering of the tilt slope are contractual; the adopted
normalization at B = 0, omega = t*H is

    nu_t(ch) = (ch2H - t^2 d ch0 / 6) / (c1 t d)

with +infinity on c1 = 0 classes (the torsion part of the tilted heart).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernVector
from .errors import NegativeRank, NoPositiveRoot, ZeroRank
from .rationals import INFINITY, ExtendedRational, exact_int, exact_rational


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
    """Tilt slope at scale t > 0; +inf when c1 = 0, an ordinary signed rational otherwise."""
    t = exact_rational(t, "t")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if ch.c1 == 0:
        return INFINITY
    numerator = ch.ch2H - t * t * Fraction(geom.d * ch.ch0, 6)
    return numerator / (ch.c1 * t * geom.d)


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


@dataclass(frozen=True)
class SandwichReport:
    ordered: bool
    ch2H_sub: Fraction
    ch2H_quot: Fraction


def sandwich_check(geom, ch_sub: ChernVector, ch_quot: ChernVector, t) -> SandwichReport:
    """Check nu(-sub) <= 0 <= nu(quot) at scale t.

    The shift on the sub-object negates its class. A zero class on either
    side constrains nothing and that side is vacuously ordered. Both ch2.H
    numbers are reported so the caller can confirm positivity on ordered
    inputs.
    """
    left_ok = ch_sub.is_zero() or tilt_slope_nu(geom, -ch_sub, t) <= 0
    right_ok = ch_quot.is_zero() or tilt_slope_nu(geom, ch_quot, t) >= 0
    return SandwichReport(left_ok and right_ok, ch_sub.ch2H, ch_quot.ch2H)


def _slope_window(lo: int, hi: int, s_max: int) -> list[tuple[int, int]]:
    """All (k, s) with 1 <= s <= s_max and 1/lo <= k/s <= 1/hi, lexicographic."""
    pairs = []
    for s in range(1, s_max + 1):
        # 1/lo <= k/s  <=>  k lo >= s;   k/s <= 1/hi  <=>  k hi <= s
        k_lo = max(1, -(-s // lo))
        k_hi = s // hi
        pairs.extend((k, s) for k in range(k_lo, k_hi + 1))
    return sorted(pairs)


def lemma1_slope_window(r: int) -> list[tuple[int, int]]:
    """All (k, s) with 1 <= s <= r and 1/(r+1) <= k/s <= 1/r, lexicographic.

    The window sits at or below 1, so k <= s and the scan terminates without
    assuming the answer. Cross-multiplied integer comparisons keep it exact:
    the result is forced to the single pair (1, r).
    """
    if exact_int(r, "r") < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _slope_window(r + 1, r, r)


def lemma2_slope_window(r: int) -> list[tuple[int, int]]:
    """All (k, s) with 1 <= s < r - 1 and 1/r <= k/s <= 1/(r-1); always empty."""
    if exact_int(r, "r") < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    return _slope_window(r, r - 1, r - 2)
