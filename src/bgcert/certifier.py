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
    check_degree,
    even_threshold,
    full_threshold,
)
from .rationals import Record, _shown, exact_int, exact_rational, to_jsonable


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


class Case1Trace(Record):
    __slots__ = ("holds_for_all_lengths", "equality_lengths", "equality_value")


def case1_check(geom: PolarizedCY3) -> Case1Trace:
    """Compare ch3 = d/6 - l with the rank-one right side for every length l >= 0.

    Two readings of the right side are checked: the constant d/6 (points do
    not move ch2, the reading this package computes with) and the sloped
    alternative d/6 - l/3. All three lines start at d/6 and ch3 falls
    fastest, so both readings hold for every l, with equality exactly at
    l = 0, where the value is d/6. The trace records that closed form.
    """
    return Case1Trace(True, (0,), Fraction(geom.d, 6))


# ---------------------------------------------------------------------------
# Case 2: rank one, one-dimensional subscheme of degree beta.


class Case2Row(Record):
    __slots__ = ("beta", "chi_min", "ch3_bound", "ok", "source")  # source: "default" or "supplied"


def case2_default(d: int) -> tuple[int, Fraction]:
    """(ceil(d/6), d/6 - ceil(d/6)): the default row at beta has chi_min = ceil(d/6) - beta,
    and every default row has that one bound."""
    top = -(-d // 6)
    return top, Fraction(d - 6 * top, 6)


def supplied_case2_rows(geom: PolarizedCY3, bounds: Optional[Iterable[CurveBound]]) -> list[Case2Row]:
    """The rows of the supplied bounds alone, by beta; a degree given twice keeps its
    smallest chi_min. Raises BetaOutOfRange for a degree outside 1 <= beta < d/2."""
    chi_min: dict[int, int] = {}
    for cb in bounds or ():
        if not 1 <= cb.beta < (geom.d + 1) // 2:  # outside castelnuovo_range
            raise BetaOutOfRange(
                f"beta = {_shown(cb.beta)} outside 1 <= beta < d/2 = {_shown(Fraction(geom.d, 2))}"
            )
        chi_min[cb.beta] = min(cb.chi_min, chi_min.get(cb.beta, cb.chi_min))
    rows = []
    for beta, chi in sorted(chi_min.items()):
        numerator = geom.d - 6 * (beta + chi)  # 6 (d/6 - beta - chi)
        rows.append(Case2Row(beta, chi, Fraction(numerator, 6), numerator <= 0, "supplied"))
    return rows


def case2_check(geom: PolarizedCY3, bounds: Optional[Iterable[CurveBound]] = None) -> list[Case2Row]:
    """One row per curve degree 1 <= beta < d/2, by beta: ch3 <= d/6 - beta - chi_min.

    Degrees without a supplied bound take the weakest admissible floor
    ceil(d/6 - beta) = ceil(d/6) - beta. Their bound d/6 - beta - chi_min is then
    the one constant d/6 - ceil(d/6), 0 or -k/6 for k = 1 to 5, so a default row
    is always ok: that closed form is how the default rows are made.
    """
    supplied = {row.beta: row for row in supplied_case2_rows(geom, bounds)}
    top, bound = case2_default(geom.d)
    return [supplied.get(beta) or Case2Row(beta, top - beta, bound, True, "default")
            for beta in range(1, (geom.d + 1) // 2)]


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
# this. Near it (d = 35,333: 199,985 candidates) `bgcert enumerate --json` takes
# about 0.08 s and 14.6 MB, and `certify` about 0.08 s and 14.4 MB in text, 0.09 s and
# 14.9 MB in JSON, as both write long lists 256 rows at a time (2-core VM, Python 3.11).
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

    At c2H = c the ranks 1 .. d // (d - 2c) pass Bogomolov-Gieseker, so each of the
    (d + 1) // 2 terms is at least 1, and more terms than the limit need no sum.
    """
    if (d + 1) // 2 > MAX_CANDIDATES:  # MAX_CANDIDATES + 1 stands for the sum
        return MAX_CANDIDATES + 1
    total = 0
    for c in range((d + 1) // 2):
        total += d // (d - 2 * c)
        if total > MAX_CANDIDATES:
            break
    return total


def candidate_ranks(d: int) -> Iterator[tuple[int, int]]:
    """(r, lo) for each rank r with a candidate, by r: its candidates are (r, c2H)
    for c2H = lo, lo + 1, ... up to the largest admissible c2H, (d + 1) // 2 - 1.

    Raises TooManyCandidates at once, before the first rank, when there are
    more than MAX_CANDIDATES. lo is the Bogomolov-Gieseker floor
    ceil((r-1)d/2r), which grows with r; the last rank is the one whose floor
    still reaches the largest admissible c2H.
    """
    if candidate_count(d) > MAX_CANDIDATES:
        raise TooManyCandidates(f"d = {_shown(d)} has more than {MAX_CANDIDATES} candidates")
    c_max = (d + 1) // 2 - 1
    r_max = d // (d - 2 * c_max)
    return ((r, -(-((r - 1) * d) // (2 * r))) for r in range(1, r_max + 1))


def enumerate_candidates(geom: PolarizedCY3) -> list[Candidate]:
    """All (r, c2H) with ch2H = d/2 - c2H > 0 and 2 r c2H >= (r-1) d, by (r, c2H),
    as records: the runs of candidate_ranks. Raises TooManyCandidates as it does.

    ch2H depends on c2H alone, so each value is built once per c2H and the
    same (immutable) Fraction is shared by the candidates of every rank.
    No field is checked: the ranges give r >= 1, c2H >= 0 and c2H < (d+1)//2, so ch2H > 0.
    """
    d = geom.d
    ranks = candidate_ranks(d)
    stop = (d + 1) // 2
    ch2H = [Fraction(d - 2 * c, 2) for c in range(stop)]
    trusted = Candidate._trusted
    return [trusted(r, c, ch2H[c]) for r, lo in ranks for c in range(lo, stop)]


# ---------------------------------------------------------------------------
# The target inequality as a predicate.


class IneqReport(Record):
    __slots__ = ("lhs", "rhs", "holds", "equality")


def check_ineq_1_2(ch: ChernVector) -> IneqReport:
    """ch3 <= ch2H / (3 ch0) for positive-rank classes."""
    if ch.ch0 <= 0:
        raise ZeroRank(f"rank must be positive, got {_shown(ch.ch0)}")
    # With ch2H = a/b and ch3 = x/y, rhs = a / (3 b ch0), and ch3 <= rhs is 3 b ch0 x <= a y.
    a, b, x, y = ch.ch2H.numerator, ch.ch2H.denominator, ch.ch3.numerator, ch.ch3.denominator
    left, right = 3 * b * ch.ch0 * x, a * y
    return IneqReport(ch.ch3, Fraction(a, 3 * b * ch.ch0), left <= right, left == right)


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
    mode = mode if mode == "auto" else HypothesisMode(mode)  # refused before the limit
    candidates = enumerate_candidates(geom)  # TooManyCandidates before the d/2 Case 2 rows
    return _certify(geom, mode, case2_check(geom, curve_bounds), candidates)


def _certify(geom: PolarizedCY3, mode, rows, candidates) -> Certificate:
    """The certificate of these Case 2 rows and candidates. The CLI's holds the supplied
    rows alone and no candidates, and writes the rest in their places as it streams."""
    hypothesis = _resolve_mode(geom, mode)
    rows, candidates = tuple(rows), tuple(candidates)
    violated = tuple(row.beta for row in rows if not row.ok)  # a default row is always ok
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
        numerics_ok = case1.holds_for_all_lengths and case3.ok
        if not numerics_ok:
            # Unreachable: the worst Case 3 bound being <= 0 is equivalent to the mode
            # hypothesis. Case 2 needs no term: a supplied row that fails is a violation,
            # and a default row's bound is d/6 - ceil(d/6) <= 0 (case2_check).
            raise RuntimeError("internal: numeric case checks failed with hypotheses satisfied")
        # Passing numerics are strict: Case 1 is tight only at l = 0, and every Case 2
        # and Case 3 bound is <= 0 (Case 3 is vacuous only at d <= 2, with a bound < 0).
        asserted = status is CastelnuovoStatus.ASSERTED
        verdict = Verdict.CERTIFIED_STRICT if asserted else Verdict.CONDITIONAL

    return Certificate(geom, hypothesis.mode, hypothesis, hypothesis_ok, status,
                       case1, rows, case3, candidates, violated, verdict)
