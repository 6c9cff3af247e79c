"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (truncated power series, brute-force
scans) and shares no code with the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

from bgcert.certifier import AffineFn, Case1Reading, Case1Trace
from bgcert.chern import ChernVector


# --- truncated power series in one variable h, coefficients exact -----------

def series_mul(a, b, deg=3):
    out = [Q(0)] * (deg + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= deg:
                out[i + j] += ai * bj
    return out


def series_inv(a, deg=3):
    assert a[0] == 1
    out = [Q(1)] + [Q(0)] * deg
    for k in range(1, deg + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1))
    return out


def ci_chern_numbers(n, degrees):
    """(H^3, c2(X).H) for a 3-dimensional complete intersection in P^n.

    Expands c(P^n) / prod(1 + deg_i h) and pairs the h^2 coefficient with H.
    """
    assert n - len(degrees) == 3
    total = [Q(1)]
    for _ in range(n + 1):
        total = series_mul(total, [Q(1), Q(1), Q(0), Q(0)])
    denom = [Q(1)]
    for dg in degrees:
        denom = series_mul(denom, [Q(1), Q(dg), Q(0), Q(0)])
    c = series_mul(total, series_inv(denom))
    d = math.prod(degrees)
    return d, c[2] * d


def exp_line_bundle(d, n):
    """ch(O(nH)) via the exponential series, as intersection numbers."""
    coeffs = [Q(n) ** k / math.factorial(k) for k in range(4)]
    return (int(coeffs[0]), int(coeffs[1]), coeffs[2] * d, coeffs[3] * d)


# --- twist rule: multiply a Chern vector by exp(n h) -------------------------

def twist(ch: ChernVector, d: int, n: int) -> ChernVector:
    return ChernVector(
        ch.ch0,
        ch.c1 + n * ch.ch0,
        ch.ch2H + n * ch.c1 * d + Q(n * n * ch.ch0 * d, 2),
        ch.ch3 + n * ch.ch2H + Q(n * n, 2) * ch.c1 * d + Q(n ** 3 * ch.ch0 * d, 6),
    )


# --- brute-force scans --------------------------------------------------------

def naive_candidates(d):
    """Literal triple-constraint scan over 1 <= r <= 2d, 0 <= c2H <= d.

    ch2H = d/2 - c2H > 0 is tested in integers as d - 2 c2H > 0, so that the
    scan of the whole box stays near a second at d = 2000 (8 million cells).
    """
    return sorted(
        (r, c2h)
        for r in range(1, 2 * d + 1)
        for c2h in range(0, d + 1)
        if d - 2 * c2h > 0 and 2 * r * c2h >= (r - 1) * d
    )


def naive_lemma1_window(r):
    return sorted(
        (k, s)
        for s in range(1, r + 1)
        for k in range(1, s + 2)
        if Q(1, r + 1) <= Q(k, s) <= Q(1, r)
    )


def naive_lemma2_window(r):
    return sorted(
        (k, s)
        for s in range(1, r - 1)
        for k in range(1, s + 2)
        if Q(1, r) <= Q(k, s) <= Q(1, r - 1)
    )


# --- Fraction-chain formulas, the references for the package's integer kernels --
# Each is the formula as first written, one Fraction operation at a time. A class
# is read only through its fields ch0, c1, ch2H and ch3.

def fraction_tilt_slope_nu(d, ch, t):
    """(ch2H - t^2 d ch0 / 6) / (c1 t d); None stands for +infinity (c1 = 0)."""
    t = Q(t)
    if ch.c1 == 0:
        return None
    numerator = ch.ch2H - t * t * Q(d * ch.ch0, 6)
    return numerator / (ch.c1 * t * d)


def fraction_chern_classes(d, ch):
    """(c1, c2.H, c3) from (ch0, c1, ch2.H, ch3)."""
    a = ch.c1
    c2H = (a * a * d - 2 * ch.ch2H) / 2
    c3 = (6 * ch.ch3 - a ** 3 * d + 3 * a * c2H) / 3
    return a, c2H, c3


def fraction_ch_from_classes(d, ch0, c1, c2H, c3):
    """(ch0, c1, ch2.H, ch3) from the rank and (c1, c2.H, c3)."""
    c2H = Q(c2H)
    ch2H = (c1 * c1 * d - 2 * c2H) / 2
    ch3 = (c1 ** 3 * d - 3 * c1 * c2H + 3 * Q(c3)) / 6
    return ch0, c1, ch2H, ch3


def fraction_euler_characteristic(c2XH, ch):
    """chi = ch3 + c1 c2(X).H / 12."""
    return ch.ch3 + Q(ch.c1 * c2XH, 12)


# --- the case analysis as first written: Fraction chains and the affine scan --------
# References for the certifier's integer and closed forms. A geometry is read
# only through its fields d and dimH.

def fraction_full_threshold(d):
    """7d/6 - 3."""
    return Q(7 * d, 6) - 3


def fraction_even_threshold(d):
    """2d/3 - 3."""
    return Q(2 * d, 3) - 3


def fraction_check_h_assumption(geom):
    return geom.dimH >= fraction_full_threshold(geom.d)


def fraction_check_h_assumption_even(geom):
    return geom.dimH >= fraction_even_threshold(geom.d)


def fraction_default_chi_min(geom, beta):
    """ceil(d/6 - beta)."""
    return math.ceil(Q(geom.d, 6) - beta)


def fraction_case2_row(geom, beta, chi):
    """(ch3 bound d/6 - beta - chi, whether it is <= 0)."""
    bound = Q(geom.d, 6) - beta - chi
    return bound, bound <= 0


def fraction_ext1_cap(geom, ch2H, ch0F):
    """d/(2 ch2H) - ch0F."""
    return Q(geom.d, 2) / ch2H - ch0F


def fraction_case3_bound(geom, ch2H, ch0F):
    """ext1_cap + d/6 - dim|H| - 1."""
    return fraction_ext1_cap(geom, ch2H, ch0F) + Q(geom.d, 6) - geom.dimH - 1


def fraction_case3_trace(geom):
    """The Case 3 trace's fields at ch0F = 2 and the smallest positive ch2H (1/2 or 1)."""
    ch2H = Q(1, 2) if geom.d % 2 else Q(1)
    cap, worst = fraction_ext1_cap(geom, ch2H, 2), fraction_case3_bound(geom, ch2H, 2)
    return ch2H, 2, cap, worst, cap < 0, cap < 0 or worst <= 0


def fraction_ch2H_by_c2H(d):
    """d/2 - c2H for c2H = 0 .. ceil(d/2) - 1, as a generator."""
    half = Q(d, 2)
    return (half - c for c in range((d + 1) // 2))


def affine_dominates(f, g):
    """f(x) <= g(x) for every x >= 0; slope and intercept comparisons are exact and sufficient."""
    return f.slope <= g.slope and f.intercept <= g.intercept


def integer_equality_points(f, g):
    """Non-negative integers where two affine functions of different slopes agree."""
    x = (g.intercept - f.intercept) / (f.slope - g.slope)
    if x >= 0 and x.denominator == 1:
        return (int(x),)
    return ()


def scan_case1_trace(d):
    """Case 1 built by comparing ch3 = d/6 - l with each reading of the right side."""
    sixth = Q(d, 6)
    lhs = AffineFn(Q(-1), sixth)
    readings = []
    for slope in (Q(0), Q(-1, 3)):
        rhs = AffineFn(slope, sixth)
        equality = integer_equality_points(lhs, rhs)
        readings.append(Case1Reading(rhs, affine_dominates(lhs, rhs), equality))
    constant, sloped = readings
    equality = constant.equality_lengths
    return Case1Trace(
        lhs=lhs,
        constant_reading=constant,
        sloped_reading=sloped,
        holds_for_all_lengths=constant.holds and sloped.holds,
        equality_lengths=equality,
        equality_value=lhs(equality[0]),
    )
