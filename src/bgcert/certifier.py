"""Executable replay of the three-case bound analysis with exact arithmetic.

The certifier checks the two geometry hypotheses, bounds ch3 in each of the
three structural cases (points, curves, higher rank), enumerates the finite
candidate set of (rank, c2.H) pairs, and assembles everything into an
immutable, JSON-serializable certificate with a verdict. All checks are
exact; failures are verdicts, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .chern import ChernVector
from .errors import NonpositiveCh2H, TooManyCandidates, ZeroRank
from .geometry import (
    CurveBound,
    PolarizedCY3,
    castelnuovo_check,
    castelnuovo_range,
    check_h_assumption,
    check_h_assumption_even,
    default_chi_min,
    even_threshold,
    full_threshold,
)
from .rationals import exact_int, exact_rational, to_jsonable


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
# Affine comparisons (Case 1 runs over an unbounded length parameter).


@dataclass(frozen=True)
class AffineFn:
    """x -> slope*x + intercept, read as a function on x >= 0."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", exact_rational(self.slope, "slope"))
        object.__setattr__(self, "intercept", exact_rational(self.intercept, "intercept"))

    def __call__(self, x) -> Fraction:
        return self.slope * exact_rational(x, "x") + self.intercept


def affine_dominates(f: AffineFn, g: AffineFn) -> bool:
    """f(x) <= g(x) for every x >= 0; slope and intercept comparisons are exact and sufficient."""
    return f.slope <= g.slope and f.intercept <= g.intercept


def _integer_equality_points(f: AffineFn, g: AffineFn) -> tuple[int, ...]:
    """Non-negative integers where two non-identical affine functions agree."""
    if f.slope == g.slope:
        if f.intercept == g.intercept:
            raise ValueError("functions coincide everywhere")
        return ()
    x = (g.intercept - f.intercept) / (f.slope - g.slope)
    if x >= 0 and x.denominator == 1:
        return (int(x),)
    return ()


# ---------------------------------------------------------------------------
# Case 1: rank one, zero-dimensional subscheme of length l >= 0.


@dataclass(frozen=True)
class Case1Reading:
    rhs: AffineFn
    holds: bool
    equality_lengths: tuple[int, ...]


@dataclass(frozen=True)
class Case1Trace:
    lhs: AffineFn
    constant_reading: Case1Reading
    sloped_reading: Case1Reading
    holds_for_all_lengths: bool
    equality_lengths: tuple[int, ...]
    equality_value: Fraction


def case1_check(geom: PolarizedCY3) -> Case1Trace:
    """Compare ch3 = d/6 - l with the rank-one right side for every length l >= 0.

    Two readings of the right side are checked: the constant d/6 (points do
    not move ch2, the reading this package computes with) and the sloped
    alternative d/6 - l/3. Both must agree that the bound holds with
    equality exactly at l = 0, and the trace records each comparison.
    """
    sixth = Fraction(geom.d, 6)
    lhs = AffineFn(Fraction(-1), sixth)
    readings = []
    for slope in (Fraction(0), Fraction(-1, 3)):
        rhs = AffineFn(slope, sixth)
        readings.append(
            Case1Reading(rhs, affine_dominates(lhs, rhs), _integer_equality_points(lhs, rhs))
        )
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


# ---------------------------------------------------------------------------
# Case 2: rank one, one-dimensional subscheme of degree beta.


@dataclass(frozen=True)
class Case2Row:
    beta: int
    chi_min: int
    ch3_bound: Fraction
    ok: bool
    source: str  # "default" or "supplied"


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
        castelnuovo_check(geom, cb)  # BetaOutOfRange outside castelnuovo_range
        supplied[cb.beta] = min(cb.chi_min, supplied.get(cb.beta, cb.chi_min))
    rows = []
    for beta in castelnuovo_range(geom):
        if beta in supplied:
            chi, source = supplied[beta], "supplied"
        else:
            chi, source = default_chi_min(geom, beta), "default"
        bound = Fraction(geom.d, 6) - beta - chi
        rows.append(Case2Row(beta, chi, bound, bound <= 0, source))
    return rows


# ---------------------------------------------------------------------------
# Case 3: higher rank, controlled through the extension-count cap.


def ext1_cap(geom: PolarizedCY3, ch2H, ch0F: int) -> Fraction:
    """Cap d/(2 ch2H) - ch0F on the extension count of F by the structure sheaf.

    A negative value means no such F exists and the configuration is
    impossible (the cap would contradict a dimension count being >= 0).
    """
    ch2H = exact_rational(ch2H, "ch2H")
    if ch2H <= 0:
        raise NonpositiveCh2H(f"ch2H must be positive, got {ch2H}")
    if exact_int(ch0F, "ch0F") < 2:
        raise ValueError(f"ch0F must be >= 2, got {ch0F}")
    return Fraction(geom.d, 2) / ch2H - ch0F


def case3_bound(geom: PolarizedCY3, ch2H, ch0F: int) -> Fraction:
    """Exact upper bound for ch3 in the higher-rank case: ext1_cap + d/6 - dim|H| - 1."""
    return ext1_cap(geom, ch2H, ch0F) + Fraction(geom.d, 6) - geom.dimH - 1


def min_positive_ch2H(d: int) -> Fraction:
    """Smallest positive ch2.H at c1 = H with integral c2.H: 1/2 for odd d, 1 for even."""
    return Fraction(1, 2) if d % 2 else Fraction(1)


def worst_case3_bound(geom: PolarizedCY3) -> Fraction:
    """case3_bound at the extremal slot ch0F = 2, ch2H minimal positive.

    Closed form: 7d/6 - dim|H| - 3 for odd d and 2d/3 - dim|H| - 3 for even d.
    """
    return case3_bound(geom, min_positive_ch2H(geom.d), 2)


@dataclass(frozen=True)
class Case3Trace:
    min_ch2H: Fraction
    ch0F: int
    ext1_cap: Fraction
    worst_bound: Fraction
    impossible: bool
    ok: bool


def _case3_trace(geom: PolarizedCY3) -> Case3Trace:
    mch = min_positive_ch2H(geom.d)
    cap = ext1_cap(geom, mch, 2)
    worst = case3_bound(geom, mch, 2)
    impossible = cap < 0
    return Case3Trace(mch, 2, cap, worst, impossible, impossible or worst <= 0)


# ---------------------------------------------------------------------------
# Candidate enumeration.

# Enumeration and certification refuse a degree with more candidates than
# this. Near it (d = 35,333: 199,985 candidates) `bgcert enumerate --json`
# streams in about 0.4 s and 18 MB, but `certify --json`, which holds the
# whole certificate, takes about 3.5 s and 250 MB (2-core VM, Python 3.11).
MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class Candidate:
    """A (rank, c2.H) pair with c1 = H surviving positivity and Bogomolov-Gieseker."""

    r: int
    c2H: int
    ch2H: Fraction

    def __post_init__(self):
        if exact_int(self.r, "r") < 1:
            raise ValueError(f"rank must be >= 1, got {self.r}")
        if exact_int(self.c2H, "c2H") < 0:
            raise ValueError(f"c2H must be >= 0, got {self.c2H}")
        object.__setattr__(self, "ch2H", exact_rational(self.ch2H, "ch2H"))
        if self.ch2H.numerator <= 0:
            raise ValueError(f"ch2H must be positive, got {self.ch2H}")


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
    """ch2H = d/2 - c2H for c2H = 0, 1, ... up to the largest a candidate can have."""
    half = Fraction(d, 2)
    return (half - c for c in range((d + 1) // 2))


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


@dataclass(frozen=True)
class IneqReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool


def check_ineq_1_2(ch: ChernVector) -> IneqReport:
    """ch3 <= ch2H / (3 ch0) for positive-rank classes."""
    if ch.ch0 <= 0:
        raise ZeroRank(f"rank must be positive, got {ch.ch0}")
    rhs = ch.ch2H / (3 * ch.ch0)
    return IneqReport(ch.ch3, rhs, ch.ch3 <= rhs, ch.ch3 == rhs)


# ---------------------------------------------------------------------------
# Certificate assembly.


@dataclass(frozen=True)
class HypothesisCheck:
    mode: HypothesisMode
    applicable: bool
    dimH: int
    threshold: Fraction
    holds: bool


@dataclass(frozen=True)
class Certificate:
    geometry: PolarizedCY3
    hypothesis_mode: HypothesisMode
    hypothesis: HypothesisCheck
    hypothesis_ok: bool
    castelnuovo_status: CastelnuovoStatus
    case1: Case1Trace
    case2: tuple[Case2Row, ...]
    case3: Case3Trace
    candidates: tuple[Candidate, ...]
    violated_betas: tuple[int, ...]
    verdict: Verdict


# The JSON form of a certificate: its fields in declaration order, "p/q" rationals.
certificate_to_jsonable = to_jsonable


def hypothesis_checks(geom: PolarizedCY3) -> tuple[HypothesisCheck, HypothesisCheck]:
    """The FULL and the EVEN check; the even variant applies, and can hold, only for even d."""
    even_applicable = geom.d % 2 == 0
    return (
        HypothesisCheck(HypothesisMode.FULL, True, geom.dimH, full_threshold(geom.d),
                        check_h_assumption(geom)),
        HypothesisCheck(HypothesisMode.EVEN, even_applicable, geom.dimH, even_threshold(geom.d),
                        even_applicable and check_h_assumption_even(geom)),
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
