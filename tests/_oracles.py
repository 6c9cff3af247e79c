"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (truncated power series, brute-force
scans) and shares no formula with the package under test.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction as Q
from types import SimpleNamespace

from bgcert.certifier import Case1Trace, certificate_to_jsonable, certify_theorem
from bgcert.chern import ChernVector
from bgcert.errors import (
    BgcertError,
    NegativeLinearSystem,
    NonIntegralGeometry,
    NoPositiveRoot,
    ZeroRank,
)
from bgcert.geometry import PolarizedCY3, check_degree
from bgcert.rationals import exact_int


def outcome(call, *args):
    """(the value, its exact type), or (the type, the message) of the package error it raises."""
    try:
        value = call(*args)
    except BgcertError as error:
        return type(error), str(error)
    return value, type(value)


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


def ci_chern_numbers(n, degrees, weights=None):
    """(H^3, c2(X).H) for a 3-dimensional complete intersection in weighted P^n.

    Expands c = prod(1 + w_j h) / prod(1 + deg_i h) over the weights w_0 .. w_n
    (all 1 by default: ordinary P^n) and pairs the h^2 coefficient with H,
    where H^3 = prod(deg_i) / prod(w_j). The sums of weights and degrees agree,
    so c1 = 0.
    """
    weights = [1] * (n + 1) if weights is None else list(weights)
    assert n - len(degrees) == 3 and len(weights) == n + 1
    assert sum(weights) == sum(degrees)
    total = [Q(1)]
    for w in weights:
        total = series_mul(total, [Q(1), Q(w), Q(0), Q(0)])
    denom = [Q(1)]
    for dg in degrees:
        denom = series_mul(denom, [Q(1), Q(dg), Q(0), Q(0)])
    c = series_mul(total, series_inv(denom))
    assert c[1] == 0
    d = Q(math.prod(degrees), math.prod(weights))
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


def fraction_nu_zero_tsq(d, ch):
    """6 ch2H / (d ch0), the positive t^2 where nu vanishes."""
    if ch.ch0 == 0:
        raise ZeroRank("tilt-slope root undefined at rank zero")
    value = 6 * ch.ch2H / (d * ch.ch0)
    if value <= 0:
        raise NoPositiveRoot(
            f"ch2H/ch0 = {Q(ch.ch2H, ch.ch0)} <= 0: the tilt slope has no positive root"
        )
    return value


def fraction_bg_discriminant(d, ch):
    """c1^2 d - 2 ch0 ch2H."""
    return ch.c1 ** 2 * d - 2 * ch.ch0 * ch.ch2H


def fraction_sandwich_ordered(d, sub, quot, t):
    """nu(-sub) <= 0 <= nu(quot), on the negated fields of sub; +infinity (None) is
    >= 0 and not <= 0, and a zero class orders its side vacuously."""
    shifted = SimpleNamespace(ch0=-sub.ch0, c1=-sub.c1, ch2H=-sub.ch2H)
    left, right = fraction_tilt_slope_nu(d, shifted, t), fraction_tilt_slope_nu(d, quot, t)

    def zero(ch):
        return ch.ch0 == 0 and ch.c1 == 0 and ch.ch2H == 0 and ch.ch3 == 0

    left_ok = (left is not None and left <= 0) or zero(sub)
    return left_ok and (right is None or right >= 0 or zero(quot))


def fraction_check_ineq_1_2(ch):
    """(ch3, ch2H / (3 ch0), ch3 <= it, ch3 == it) for ch0 > 0."""
    if ch.ch0 <= 0:
        raise ZeroRank(f"rank must be positive, got {ch.ch0}")
    rhs = ch.ch2H / (3 * ch.ch0)
    return ch.ch3, rhs, ch.ch3 <= rhs, ch.ch3 == rhs


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


# --- Riemann-Roch as first written: a Fraction chain --------------------------------
# The reference for derive_dimH, which decides in integers on 12 chi = 2d + c2XH.

def fraction_derive_dimH(d, c2XH):
    """dim|H| = chi(O(H)) - 1 with chi(O(H)) = d/6 + c2XH/12, and the package's
    errors, in the package's order: the degree, c2XH's type, integrality, sign."""
    check_degree(d)
    chi = Q(d, 6) + Q(exact_int(c2XH, "c2XH"), 12)
    if chi.denominator != 1:
        raise NonIntegralGeometry(
            f"chi(O(H)) = {chi} is not an integer for fields d={d}, c2h={c2XH}"
        )
    if chi < 1:
        raise NegativeLinearSystem(
            f"chi(O(H)) = {chi} gives dim|H| = {chi - 1} < 0 for fields d={d}, c2h={c2XH}"
        )
    return int(chi) - 1


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
    """f(x) <= g(x) for every x >= 0, for (slope, intercept) pairs; slope and
    intercept comparisons are exact and sufficient."""
    return f[0] <= g[0] and f[1] <= g[1]


def affine_value(f, x):
    """The (slope, intercept) pair f evaluated at x."""
    return f[0] * x + f[1]


def integer_equality_points(f, g):
    """Non-negative integers where two (slope, intercept) pairs of different slopes agree."""
    x = (g[1] - f[1]) / (f[0] - g[0])
    if x >= 0 and x.denominator == 1:
        return (int(x),)
    return ()


def scan_case1_trace(d):
    """Case 1 built by comparing ch3 = d/6 - l with each reading of the right side."""
    sixth = Q(d, 6)
    lhs = (Q(-1), sixth)
    readings = [(Q(0), sixth), (Q(-1, 3), sixth)]  # constant and sloped
    equalities = [integer_equality_points(lhs, rhs) for rhs in readings]
    assert equalities[0] == equalities[1]
    equality = equalities[0]
    return Case1Trace(
        holds_for_all_lengths=all(affine_dominates(lhs, rhs) for rhs in readings),
        equality_lengths=equality,
        equality_value=affine_value(lhs, equality[0]),
    )


# --- enumerate as first written: one write call per row ----------------------------
# The reference for the CLI's block writer.

def row_by_row_render_enumerate(geom: PolarizedCY3, as_json: bool) -> None:
    """Write the candidates to stdout row by row, in the bytes of one text or
    json.dumps(indent=2) rendering of the whole list.

    The rows come from Bogomolov-Gieseker solved for the rank: at c2H = c,
    2 r c >= (r - 1) d is r (d - 2c) <= d, so the ranks 1 .. d // (d - 2c),
    then sorted by (r, c2H). Each ch2H label is `str` of a Fraction, made
    once per c2H and joined to the row's rank as it is written.
    """
    d = geom.d
    rows = sorted((r, c) for c in range((d + 1) // 2) for r in range(1, d // (d - 2 * c) + 1))
    labels = map(str, fraction_ch2H_by_c2H(d))  # Fraction prints p/q, or p when whole
    write = sys.stdout.write
    if as_json:
        tails = [f',\n    "c2H": {c},\n    "ch2H": "{s}"\n  }}' for c, s in enumerate(labels)]
        sep = "\n"
        write("[")
        for r, c in rows:
            write(f'{sep}  {{\n    "r": {r}{tails[c]}')
            sep = ",\n"
        write("]\n" if sep == "\n" else "\n]\n")
    else:
        tails = [f", {c})  ch2H = {s}\n" for c, s in enumerate(labels)]
        n = 0
        for n, (r, c) in enumerate(rows, 1):
            write(f"({r}{tails[c]}")
        write(f"{n} candidate(s)\n")


# --- certify as first written: the whole certificate held, then printed ------------
# The reference for the CLI's streamed certificate.

def held_render_certificate(report: dict) -> str:
    geom = report["geometry"]
    name = report["preset"] or "custom"
    lines = [
        f"certificate for {name}: d = {geom['d']}, c2(X).H = {geom['c2XH']}, "
        f"dim|H| = {geom['dimH']}",
        f"hypothesis mode: {report['hypothesis_mode']}",
    ]
    hyp = report["hypothesis"]
    if hyp["applicable"]:
        lines.append(
            f"linear-system hypothesis: dim|H| = {hyp['dimH']} vs threshold "
            f"{hyp['threshold']} -> {'pass' if hyp['holds'] else 'fail'}"
        )
    else:
        lines.append("linear-system hypothesis: not applicable (odd degree)")
    lines.append(f"castelnuovo status: {report['castelnuovo_status']}")
    case1 = report["case1"]
    lines.append(
        f"Case 1 (points): ch3 bound holds for all lengths: "
        f"{'yes' if case1['holds_for_all_lengths'] else 'no'}; equality at lengths "
        f"{case1['equality_lengths']} with value {case1['equality_value']}"
    )
    lines.append("Case 2 (curves):")
    for row in report["case2"]:
        lines.append(
            f"  beta = {row['beta']}: chi_min = {row['chi_min']} ({row['source']}), "
            f"ch3 bound = {row['ch3_bound']} -> {'ok' if row['ok'] else 'VIOLATED'}"
        )
    case3 = report["case3"]
    status = "impossible (vacuous)" if case3["impossible"] else ("ok" if case3["ok"] else "FAIL")
    lines.append(
        f"Case 3 (higher rank): min ch2H = {case3['min_ch2H']}, ext1 cap = "
        f"{case3['ext1_cap']}, worst ch3 bound = {case3['worst_bound']} -> {status}"
    )
    pairs = " ".join(f"({c['r']},{c['c2H']})" for c in report["candidates"])
    lines.append(f"candidates (r, c2H): {pairs}")
    if report["violated_betas"]:
        lines.append(f"curve hypothesis violated at beta = {report['violated_betas']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def held_certify_outputs(geom: PolarizedCY3, preset, curve_bounds, mode) -> tuple[str, str]:
    """The stdout of `certify`, text and --json, from the whole certificate held as a
    dict: json.dumps(indent=2) of it, or the text rendered from it, and a newline."""
    cert = certify_theorem(geom, curve_bounds, mode)
    report = {"preset": preset, **certificate_to_jsonable(cert)}
    return held_render_certificate(report) + "\n", json.dumps(report, indent=2) + "\n"
