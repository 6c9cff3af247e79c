"""Executable replay of the three-case bound analysis with exact arithmetic.

The certifier checks the two geometry hypotheses, bounds ch3 in each of the
three structural cases (points, curves, higher rank), enumerates the finite
candidate set of (rank, c2.H) pairs, and assembles everything into an
immutable, JSON-serializable certificate with a verdict. All checks are
exact; failures are verdicts, never exceptions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .chern import ChernVector
from .errors import BetaOutOfRange, NonpositiveCh2H, TooManyCandidates, ZeroRank
from .geometry import (
    CurveBound,
    PolarizedCY3,
    castelnuovo_range,
    check_degree,
    default_chi_min,
    even_threshold,
    full_threshold,
)
from .rationals import Record, exact_int, exact_rational, to_jsonable


class Verdict(str, Enum):
    CERTIFIED_STRICT = "CERTIFIED_STRICT"
    CONDITIONAL = "CONDITIONAL"
    HYPOTHESIS_FAIL = "HYPOTHESIS_FAIL"


class HypothesisMode(str, Enum):
    FULL = "full_1_3"
    EVEN = "even_variant"


class CastelnuovoStatus(str, Enum):
    ASSERTED = "asserted"
    ASSUMED = "assumed"
    UNCHECKED = "unchecked"


# ---------------------------------------------------------------------------
# Case 1: rank one, zero-dimensional subscheme of length l >= 0.


class AffineFn(Record):
    """x -> slope*x + intercept, read as a function on x >= 0."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: Fraction, intercept: Fraction):
        super().__init__(exact_rational(slope, "slope"), exact_rational(intercept, "intercept"))

    def __call__(self, x) -> Fraction:
        return self.slope * exact_rational(x, "x") + self.intercept


class Case1Reading(Record):
    __slots__ = ("rhs", "holds", "equality_lengths")


class Case1Trace(Record):
    __slots__ = ("lhs", "constant_reading", "sloped_reading", "holds_for_all_lengths",
                 "equality_lengths", "equality_value")


# The slopes in l of ch3 = d/6 - l and of the two readings of the right side.
_LHS_SLOPE, _CONSTANT_SLOPE, _SLOPED_SLOPE = Fraction(-1), Fraction(0), Fraction(-1, 3)


def case1_check(geom: PolarizedCY3) -> Case1Trace:
    """Compare ch3 = d/6 - l with the rank-one right side for every length l >= 0.

    Two readings of the right side are checked: the constant d/6 (points do
    not move ch2, the reading this package computes with) and the sloped
    alternative d/6 - l/3. All three lines start at d/6 and ch3 falls
    fastest, so both readings hold for every l, with equality exactly at
    l = 0, where the value is d/6. The trace records that closed form.
    """
    sixth = Fraction(geom.d, 6)
    at_zero = (0,)
    return Case1Trace(
        AffineFn(_LHS_SLOPE, sixth),
        Case1Reading(AffineFn(_CONSTANT_SLOPE, sixth), True, at_zero),
        Case1Reading(AffineFn(_SLOPED_SLOPE, sixth), True, at_zero),
        True,
        at_zero,
        sixth,
    )


# ---------------------------------------------------------------------------
# Case 2: rank one, one-dimensional subscheme of degree beta.


class Case2Row(Record):
    __slots__ = ("beta", "chi_min", "ch3_bound", "ok", "source")  # source: "default" or "supplied"


def case2_check(
    geom: PolarizedCY3,
    bounds: Optional[Iterable[CurveBound]] = None,
) -> list[Case2Row]:
    """One row per curve degree in range: ch3 <= d/6 - beta - chi_min.

    Degrees without a supplied bound take the weakest admissible floor
    ceil(d/6 - beta). Duplicate supplied degrees keep the smallest chi_min.
    """
    supplied: dict[int, int] = {}
    for cb in bounds or ():
        if not 1 <= cb.beta < (geom.d + 1) // 2:  # outside castelnuovo_range
            raise BetaOutOfRange(
                f"beta = {cb.beta} outside 1 <= beta < d/2 = {Fraction(geom.d, 2)}"
            )
        supplied[cb.beta] = min(cb.chi_min, supplied.get(cb.beta, cb.chi_min))
    rows = []
    for beta in castelnuovo_range(geom):
        if beta in supplied:
            chi, source = supplied[beta], "supplied"
        else:
            chi, source = default_chi_min(geom, beta), "default"
        numerator = geom.d - 6 * (beta + chi)  # 6 (d/6 - beta - chi)
        rows.append(Case2Row(beta, chi, Fraction(numerator, 6), numerator <= 0, source))
    return rows


# ---------------------------------------------------------------------------
# Case 3: higher rank, controlled through the extension-count cap.


def ext1_cap(geom: PolarizedCY3, ch2H, ch0F: int) -> Fraction:
    """Cap d/(2 ch2H) - ch0F on the extension count of F by the structure sheaf.

    A negative value means no such F exists and the configuration is
    impossible (the cap would contradict a dimension count being >= 0).
    With ch2H = p/q, the cap is (d q - 2 p ch0F)/(2 p).
    """
    ch2H = exact_rational(ch2H, "ch2H")
    if ch2H.numerator <= 0:
        raise NonpositiveCh2H(f"ch2H must be positive, got {ch2H}")
    if exact_int(ch0F, "ch0F") < 2:
        raise ValueError(f"ch0F must be >= 2, got {ch0F}")
    p, q = ch2H.numerator, ch2H.denominator
    return Fraction(geom.d * q - 2 * p * ch0F, 2 * p)


def _bound_from_cap(geom: PolarizedCY3, cap: Fraction) -> Fraction:
    """cap + d/6 - dim|H| - 1; with cap = a/b, (6a + b (d - 6 dim|H| - 6))/(6b)."""
    a, b = cap.numerator, cap.denominator
    return Fraction(6 * a + b * (geom.d - 6 * geom.dimH - 6), 6 * b)


def case3_bound(geom: PolarizedCY3, ch2H, ch0F: int) -> Fraction:
    """Exact upper bound for ch3 in the higher-rank case: ext1_cap + d/6 - dim|H| - 1."""
    return _bound_from_cap(geom, ext1_cap(geom, ch2H, ch0F))


def min_positive_ch2H(d: int) -> Fraction:
    """Smallest positive ch2.H at c1 = H with integral c2.H: 1/2 for odd d, 1 for even."""
    check_degree(d)
    return Fraction(1, 2) if d % 2 else Fraction(1)


class Case3Trace(Record):
    __slots__ = ("min_ch2H", "ch0F", "ext1_cap", "worst_bound", "impossible", "ok")


def _case3_trace(geom: PolarizedCY3) -> Case3Trace:
    mch = min_positive_ch2H(geom.d)
    cap = ext1_cap(geom, mch, 2)
    worst = _bound_from_cap(geom, cap)
    impossible = cap.numerator < 0
    return Case3Trace(mch, 2, cap, worst, impossible, impossible or worst.numerator <= 0)


# ---------------------------------------------------------------------------
# Candidate enumeration.

# Enumeration and certification refuse a degree with more candidates than
# this. Near it (d = 35,333: 199,985 candidates) `bgcert enumerate --json`
# streams in about 0.4 s and 18 MB, but `certify --json`, which holds the
# whole certificate, takes about 3.5 s and 250 MB (2-core VM, Python 3.11).
MAX_CANDIDATES = 200_000


class Candidate(Record):
    """A (rank, c2.H) pair with c1 = H surviving positivity and Bogomolov-Gieseker."""

    __slots__ = ("r", "c2H", "ch2H")

    def __init__(self, r: int, c2H: int, ch2H: Fraction):
        if exact_int(r, "r") < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        if exact_int(c2H, "c2H") < 0:
            raise ValueError(f"c2H must be >= 0, got {c2H}")
        ch2H = exact_rational(ch2H, "ch2H")
        if ch2H.numerator <= 0:
            raise ValueError(f"ch2H must be positive, got {ch2H}")
        super().__init__(r, c2H, ch2H)


def candidate_count(d: int) -> int:
    """Number of candidates at degree d, summed only until it passes MAX_CANDIDATES.

    At c2H = c the ranks 1 .. d // (d - 2c) pass Bogomolov-Gieseker, so each
    term is at least 1 and the sum stops within MAX_CANDIDATES + 1 terms.
    """
    total = 0
    for c in range((d + 1) // 2):
        total += d // (d - 2 * c)
        if total > MAX_CANDIDATES:
            break
    return total


def candidate_rows(d: int) -> Iterator[tuple[int, int]]:
    """All (r, c2H) with ch2H = d/2 - c2H > 0 and 2 r c2H >= (r-1) d, by (r, c2H).

    Raises TooManyCandidates at once, before the first row, when there are
    more than MAX_CANDIDATES. The Bogomolov-Gieseker floor ceil((r-1)d/2r)
    grows with r; the last rank is the one whose floor still reaches the
    largest admissible c2H.
    """
    if candidate_count(d) > MAX_CANDIDATES:
        raise TooManyCandidates(f"d = {d} has more than {MAX_CANDIDATES} candidates")
    c_max = (d + 1) // 2 - 1
    r_max = d // (d - 2 * c_max)
    return ((r, c) for r in range(1, r_max + 1)
            for c in range(-(-((r - 1) * d) // (2 * r)), c_max + 1))


def ch2H_by_c2H(d: int) -> Iterator[Fraction]:
    """ch2H = d/2 - c2H, built as (d - 2 c2H)/2, for c2H = 0, 1, ... up to the largest a
    candidate can have."""
    return (Fraction(d - 2 * c, 2) for c in range((d + 1) // 2))


def enumerate_candidates(geom: PolarizedCY3) -> list[Candidate]:
    """The candidates of candidate_rows as records.

    ch2H depends on c2H alone, so each value is built once per c2H and the
    same (immutable) Fraction is shared by the candidates of every rank.
    """
    rows = candidate_rows(geom.d)
    ch2H = list(ch2H_by_c2H(geom.d))
    return [Candidate(r, c, ch2H[c]) for r, c in rows]


# ---------------------------------------------------------------------------
# The target inequality as a predicate.


class IneqReport(Record):
    __slots__ = ("lhs", "rhs", "holds", "equality")


def check_ineq_1_2(ch: ChernVector) -> IneqReport:
    """ch3 <= ch2H / (3 ch0) for positive-rank classes."""
    if ch.ch0 <= 0:
        raise ZeroRank(f"rank must be positive, got {ch.ch0}")
    rhs = ch.ch2H / (3 * ch.ch0)
    return IneqReport(ch.ch3, rhs, ch.ch3 <= rhs, ch.ch3 == rhs)


# ---------------------------------------------------------------------------
# Certificate assembly.


class HypothesisCheck(Record):
    __slots__ = ("mode", "applicable", "dimH", "threshold", "holds")


class Certificate(Record):
    __slots__ = ("geometry", "hypothesis_mode", "hypothesis", "hypothesis_ok", "castelnuovo_status",
                 "case1", "case2", "case3", "candidates", "violated_betas", "verdict")


# The JSON form of a certificate: its fields in declaration order, "p/q" rationals.
certificate_to_jsonable = to_jsonable


def hypothesis_checks(geom: PolarizedCY3) -> tuple[HypothesisCheck, HypothesisCheck]:
    """The FULL and the EVEN check; the even variant applies, and can hold, only for even d.

    A check holds when dim|H| >= its threshold t, in integers t.numerator <= t.denominator dim|H|.
    """
    full, even = full_threshold(geom.d), even_threshold(geom.d)
    even_applicable = geom.d % 2 == 0
    return (
        HypothesisCheck(HypothesisMode.FULL, True, geom.dimH, full,
                        full.numerator <= full.denominator * geom.dimH),
        HypothesisCheck(HypothesisMode.EVEN, even_applicable, geom.dimH, even,
                        even_applicable and even.numerator <= even.denominator * geom.dimH),
    )


def _resolve_mode(geom: PolarizedCY3, mode) -> HypothesisCheck:
    """Check for "auto" or a HypothesisMode member or value; HypothesisMode() rejects the rest."""
    full, even = hypothesis_checks(geom)
    if mode == "auto":
        return full if full.holds or not even.applicable else even
    return full if HypothesisMode(mode) is HypothesisMode.FULL else even


def certify_theorem(
    geom: PolarizedCY3,
    curve_bounds: Optional[Sequence[CurveBound]] = None,
    mode="auto",
) -> Certificate:
    """Run every check and assemble the certificate; failures become verdicts.

    Mode "auto" picks the full hypothesis when it passes, falling back to the
    even-degree variant on even-degree geometries. Supplied curve bounds that
    violate the curve hypothesis make hypothesis_ok false (the theorem's own
    assumptions are contradicted by the input data).
    """
    hypothesis = _resolve_mode(geom, mode)
    # Before case2_check, which builds d/2 rows: this raises TooManyCandidates first.
    candidates = tuple(enumerate_candidates(geom))
    rows = case2_check(geom, curve_bounds)
    violated = tuple(row.beta for row in rows if row.source == "supplied" and not row.ok)
    hypothesis_ok = hypothesis.holds and not violated

    case1 = case1_check(geom)
    case3 = _case3_trace(geom)

    if violated:
        status = CastelnuovoStatus.UNCHECKED
    elif geom.castelnuovo_known:
        status = CastelnuovoStatus.ASSERTED
    else:
        status = CastelnuovoStatus.ASSUMED

    if not hypothesis_ok:
        verdict = Verdict.HYPOTHESIS_FAIL
    else:
        numerics_ok = case1.holds_for_all_lengths and all(r.ok for r in rows) and case3.ok
        if not numerics_ok:
            # Unreachable: the worst Case 3 bound being <= 0 is equivalent to
            # the mode hypothesis, and default Case 2 floors never violate.
            raise RuntimeError("internal: numeric case checks failed with hypotheses satisfied")
        # Passing numerics are strict: Case 1 is tight only at l = 0, and every Case 2
        # and Case 3 bound is <= 0 (Case 3 is vacuous only at d <= 2, with a bound < 0).
        asserted = status is CastelnuovoStatus.ASSERTED
        verdict = Verdict.CERTIFIED_STRICT if asserted else Verdict.CONDITIONAL

    return Certificate(
        geometry=geom,
        hypothesis_mode=hypothesis.mode,
        hypothesis=hypothesis,
        hypothesis_ok=hypothesis_ok,
        castelnuovo_status=status,
        case1=case1,
        case2=tuple(rows),
        case3=case3,
        candidates=candidates,
        violated_betas=violated,
        verdict=verdict,
    )
