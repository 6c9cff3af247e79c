import json
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    affine_dominates,
    affine_value,
    ci_chern_numbers,
    fraction_case2_row,
    fraction_case3_bound,
    fraction_case3_trace,
    fraction_check_ineq_1_2,
    fraction_ext1_cap,
    naive_candidates,
    outcome,
    scan_case1_trace,
)
from bgcert.certifier import (
    Candidate,
    Case2Row,
    Case3Trace,
    CastelnuovoStatus,
    HypothesisMode,
    MAX_CANDIDATES,
    Verdict,
    _case3_trace,
    candidate_count,
    candidate_ranks,
    case1_check,
    case2_check,
    case3_bound,
    certificate_to_jsonable,
    certify_theorem,
    check_ineq_1_2,
    enumerate_candidates,
    ext1_cap,
    hypothesis_checks,
    min_positive_ch2H,
    supplied_case2_rows,
)
from bgcert.chern import ChernVector, euler_characteristic, ideal_twist_curve_ch, ideal_twist_point_ch
from bgcert.errors import BetaOutOfRange, NonpositiveCh2H, TooManyCandidates, ZeroRank
from bgcert.geometry import (
    CurveBound,
    PolarizedCY3,
    castelnuovo_range,
    default_chi_min,
    from_preset,
)
from bgcert.rationals import format_rational, to_jsonable

QUINTIC = from_preset("quintic")
CI24 = from_preset("ci24")
CI223 = from_preset("ci223")

geometries = st.builds(
    lambda d, chi, known: PolarizedCY3(d, 12 * chi - 2 * d, chi - 1, known),
    st.integers(1, 40),
    st.integers(1, 25),
    st.booleans(),
)


# --- affine comparisons (the scan Case 1 was first computed with) -------------------

def test_affine_dominates_examples():
    f = (Q(-1), Q(5, 6))
    g = (Q(-1, 3), Q(5, 6))
    assert affine_dominates(f, g)
    assert affine_dominates(f, f)
    assert not affine_dominates((Q(1), Q(0)), (Q(0), Q(2)))


def test_affine_evaluation():
    f = (Q(-1), Q(5, 6))
    assert affine_value(f, 3) == Q(-13, 6)


# --- Case 1 ------------------------------------------------------------------------

def test_case1_quintic():
    trace = case1_check(QUINTIC)
    assert trace.holds_for_all_lengths
    assert trace.equality_lengths == (0,)
    assert trace.equality_value == Q(5, 6)


def test_case1_degree_twelve():
    trace = case1_check(PolarizedCY3(12, 60, 6))
    assert trace.holds_for_all_lengths
    assert trace.equality_lengths == (0,)
    assert trace.equality_value == Q(2)


def test_case1_closed_form_matches_the_scan():
    # The scan compares the affine functions; the closed form states the result.
    for d in range(1, 2001):
        closed, scanned = case1_check(PolarizedCY3(d, 12 - 2 * d, 0)), scan_case1_trace(d)
        assert closed == scanned and repr(closed) == repr(scanned)  # repr: same types too


def _case1_schema(d):
    return {"holds_for_all_lengths": True, "equality_lengths": [0],
            "equality_value": format_rational(Q(d, 6))}


@given(st.integers(1, 10**12))
def test_case1_serializes_to_the_closed_form(d):
    assert to_jsonable(case1_check(PolarizedCY3(d, 12 - 2 * d, 0))) == _case1_schema(d)


@given(geometries)
def test_certificate_case1_holds_only_the_closed_form(geom):
    assert certificate_to_jsonable(certify_theorem(geom))["case1"] == _case1_schema(geom.d)


@pytest.mark.parametrize("length", range(0, 101))
def test_case1_sampled_lengths_quintic(length):
    # redundant spot checks of the symbolic comparison
    lhs = Q(5, 6) - length
    assert lhs <= Q(5, 6)
    assert lhs <= Q(5, 6) - Q(length, 3)
    assert (lhs == Q(5, 6)) == (length == 0)


# --- Case 2 ------------------------------------------------------------------------

def test_case2_quintic_defaults():
    rows = case2_check(QUINTIC)
    assert [(r.beta, r.chi_min, r.ch3_bound, r.ok, r.source) for r in rows] == [
        (1, 0, Q(-1, 6), True, "default"),
        (2, -1, Q(-1, 6), True, "default"),
    ]


def test_case2_partial_supply_merges_defaults():
    rows = case2_check(QUINTIC, [CurveBound(1, 1)])
    assert rows[0].ch3_bound == Q(-7, 6)
    assert rows[0].source == "supplied"
    assert rows[1].source == "default"
    assert rows[1].ch3_bound == Q(-1, 6)


def test_case2_violating_bound():
    rows = case2_check(QUINTIC, [CurveBound(2, -2)])
    assert rows[1].ch3_bound == Q(5, 6)
    assert not rows[1].ok


def test_case2_rejects_out_of_range_beta():
    with pytest.raises(BetaOutOfRange):
        case2_check(QUINTIC, [CurveBound(4, 0)])


def test_curve_range_error_has_one_home():
    # case2_check accepts exactly the degrees of castelnuovo_range and names the others.
    for d in range(1, 41):
        geom = PolarizedCY3(d, 12 - 2 * d, 0)
        valid = castelnuovo_range(geom)
        for beta in range(1, d + 3):
            bound = CurveBound(beta, 0)
            if beta in valid:
                case2_check(geom, [bound])
                continue
            with pytest.raises(BetaOutOfRange) as err:
                case2_check(geom, [bound])
            assert str(err.value) == f"beta = {beta} outside 1 <= beta < d/2 = {Q(d, 2)}"


def test_case2_duplicate_betas_keep_smallest_chi():
    rows = case2_check(QUINTIC, [CurveBound(1, 3), CurveBound(1, 0)])
    assert rows[0].chi_min == 0


@given(geometries)
def test_case2_default_bounds_never_positive(geom):
    assert all(row.ch3_bound <= 0 and row.ok for row in case2_check(geom))


def test_case2_default_bound_is_one_constant_per_degree():
    # chi_min = ceil(d/6 - beta) = ceil(d/6) - beta, so d/6 - beta - chi_min = d/6 - ceil(d/6).
    # The rows are made in that closed form; each must still be its degree's floor and bound.
    for d in range(1, 400):
        geom = PolarizedCY3(d, 12 - 2 * d, 0)
        bound = Q(d, 6) - math.ceil(Q(d, 6))
        rows = case2_check(geom)
        assert [row.beta for row in rows] == list(range(1, (d + 1) // 2))
        assert all((row.ch3_bound, row.ok, row.source) == (bound, True, "default") for row in rows)
        assert all(row.chi_min == default_chi_min(geom, row.beta) for row in rows)
        assert all((row.ch3_bound, row.ok) == fraction_case2_row(geom, row.beta, row.chi_min)
                   for row in rows)


def test_supplied_case2_rows_are_the_bounds_alone_by_degree():
    geom = PolarizedCY3.derive(35333, 2)
    bounds = [CurveBound(9, 4), CurveBound(2, 0), CurveBound(9, 3), CurveBound(9, 5)]
    assert supplied_case2_rows(geom, bounds) == [
        Case2Row(2, 0, Q(35333 - 12, 6), False, "supplied"),
        Case2Row(9, 3, Q(35333 - 72, 6), False, "supplied"),  # the smallest chi_min of beta = 9
    ]
    assert supplied_case2_rows(geom, None) == supplied_case2_rows(geom, ()) == []
    # A bound of exactly 0 holds: d = 12, beta = 1, chi_min = 1.
    assert supplied_case2_rows(CI223, [CurveBound(1, 1)]) == [Case2Row(1, 1, Q(0), True, "supplied")]
    with pytest.raises(BetaOutOfRange):
        supplied_case2_rows(geom, [CurveBound(1, 0), CurveBound(17667, 0)])


@st.composite
def supplied_bounds(draw):
    """A geometry with 3 <= d <= 3000 and curve bounds at some of its degrees, with any
    chi_min or one next to the default floor, where a row's verdict turns.

    case2_check builds a row for each of the d/2 degrees, which bounds d here.
    """
    d = draw(st.integers(3, 3000))
    bounds = []
    for beta in draw(st.lists(st.integers(1, (d + 1) // 2 - 1), max_size=6)):
        floor = math.ceil(Q(d, 6) - beta)  # the default chi_min
        chi = draw(st.integers(floor - 2, floor + 2) | st.integers(-d, d))
        bounds.append(CurveBound(beta, chi))
    return PolarizedCY3(d, 12 - 2 * d, 0), bounds


@given(supplied_bounds())
def test_case2_rows_match_fraction_oracle(case):
    geom, bounds = case
    for row in case2_check(geom, bounds):
        bound, ok = fraction_case2_row(geom, row.beta, row.chi_min)
        assert type(row.ch3_bound) is Q and row.ch3_bound == bound
        assert row.ok is ok


# --- Case 3 ------------------------------------------------------------------------

def test_ext1_cap_examples():
    assert ext1_cap(QUINTIC, Q(1, 2), 2) == 3
    assert ext1_cap(QUINTIC, Q(5, 2), 2) == -1  # impossible configuration
    assert ext1_cap(CI24, Q(8, 2), 2) == -1  # saturating ch2H on any geometry
    with pytest.raises(NonpositiveCh2H):
        ext1_cap(QUINTIC, Q(0), 2)
    with pytest.raises(ValueError):
        ext1_cap(QUINTIC, Q(1, 2), 1)


def test_case3_bound_examples():
    assert case3_bound(QUINTIC, Q(1, 2), 2) == Q(-7, 6)
    assert case3_bound(QUINTIC, Q(3, 2), 2) == Q(-9, 2)
    assert case3_bound(CI24, Q(1), 2) == Q(-8, 3)


def test_case3_bound_monotone_in_both_arguments():
    grid = [Q(1, 2), Q(1), Q(3, 2), Q(2), Q(5, 2)]
    for lo, hi in zip(grid, grid[1:]):
        assert case3_bound(QUINTIC, hi, 2) < case3_bound(QUINTIC, lo, 2)
    for ch0f in range(2, 8):
        assert case3_bound(QUINTIC, Q(1, 2), ch0f + 1) < case3_bound(QUINTIC, Q(1, 2), ch0f)


def test_min_positive_ch2h_parity():
    assert min_positive_ch2H(5) == Q(1, 2)
    assert min_positive_ch2H(8) == Q(1)


def test_worst_case3_bounds():
    assert certify_theorem(QUINTIC).case3.worst_bound == Q(-7, 6)
    assert certify_theorem(CI24).case3.worst_bound == Q(-8, 3)
    assert certify_theorem(CI223).case3.worst_bound == Q(-1)


positive_ch2H = st.integers(1, 10**6) | st.fractions(min_value=Q(1, 10**6), max_value=10**6)
large_geometries = st.builds(
    lambda d, chi: PolarizedCY3(d, 12 * chi - 2 * d, chi - 1),
    st.integers(1, 10**6),
    st.integers(1, 2 * 10**6),
)


@given(large_geometries, positive_ch2H, st.integers(2, 10**6))
def test_case3_forms_match_fraction_oracle(geom, ch2H, ch0F):
    for got, expected in ((ext1_cap(geom, ch2H, ch0F), fraction_ext1_cap(geom, ch2H, ch0F)),
                          (case3_bound(geom, ch2H, ch0F), fraction_case3_bound(geom, ch2H, ch0F))):
        assert type(got) is type(expected) is Q and got == expected


def _near_worst_case3(d, k):
    """The geometry of degree d whose worst Case 3 bound is closest to k from below."""
    threshold = Q(7 * d, 6) if d % 2 else Q(2 * d, 3)  # worst bound = threshold - dim|H| - 3
    dimH = max(0, math.ceil(threshold - 3 - k))
    return PolarizedCY3(d, 12 * (dimH + 1) - 2 * d, dimH)


@given(large_geometries | st.builds(_near_worst_case3, st.integers(1, 10**6), st.integers(-2, 2)))
def test_case3_trace_matches_fraction_oracle(geom):
    trace = _case3_trace(geom)
    expected = fraction_case3_trace(geom)
    fields = [getattr(trace, name) for name in trace.__slots__]
    assert tuple(fields) == expected
    assert [type(value) for value in fields] == [type(value) for value in expected]


def test_case3_trace_at_its_boundaries():
    # The cap is 0 (possible) at d = 4; the worst bound is 0, then 1/3 and 1 just above it.
    for d in range(1, 301):
        for k in (-1, 0, 1):
            geom = _near_worst_case3(d, k)
            assert _case3_trace(geom) == Case3Trace(*fraction_case3_trace(geom))
    trace = _case3_trace(PolarizedCY3.derive(4, 40))
    assert trace.ext1_cap == 0 and not trace.impossible


@given(geometries)
def test_worst_case3_closed_form(geom):
    expected = (
        Q(7 * geom.d, 6) - geom.dimH - 3
        if geom.d % 2
        else Q(2 * geom.d, 3) - geom.dimH - 3
    )
    assert _case3_trace(geom).worst_bound == expected


# --- candidate enumeration -----------------------------------------------------------

def test_enumerate_quintic_exact_list():
    assert [(c.r, c.c2H) for c in enumerate_candidates(QUINTIC)] == [
        (1, 0), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
    ]
    assert [c.ch2H for c in enumerate_candidates(QUINTIC)][:4] == [Q(5, 2), Q(3, 2), Q(1, 2), Q(1, 2)]


def test_enumerate_ci24_and_tiny():
    assert [(c.r, c.c2H) for c in enumerate_candidates(CI24)] == [
        (1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 3),
    ]
    assert [(c.r, c.c2H) for c in enumerate_candidates(PolarizedCY3(2, 8, 0))] == [(1, 0)]


@pytest.mark.parametrize("d", [*range(1, 61), 1999, 2000])
def test_enumerate_matches_naive_scan(d, monkeypatch):
    geom = PolarizedCY3(d, 12 - 2 * d, 0)
    # Through the checked constructor: the records enumerate_candidates builds unchecked
    # have fields its checks accept.
    expected = [Candidate(r, c, Q(d, 2) - c) for r, c in naive_candidates(d)]
    built = []

    def counted_fraction(*args):
        built.append(Q(*args))
        return built[-1]

    monkeypatch.setattr("bgcert.certifier.Fraction", counted_fraction)
    got = enumerate_candidates(geom)
    assert got == expected  # record equality: field for field
    assert all(type(c) is Candidate and list(map(type, c._values())) == [int, int, Q] for c in got)
    # One Fraction per admissible c2H, shared by the candidates of every rank.
    assert len(built) == (d + 1) // 2 and all(c.ch2H is built[c.c2H] for c in got)
    assert candidate_count(d) == len(got)  # the closed form the limit is checked on


@pytest.mark.parametrize("d", [*range(1, 61), 298, 311, 1999, 2000])
def test_candidate_ranks_flatten_to_the_naive_scan(d):
    # Each rank's run reaches the last admissible c2H, (d + 1) // 2 - 1.
    expected = naive_candidates(d)
    ranks = list(candidate_ranks(d))
    assert [r for r, _ in ranks] == list(range(1, len(ranks) + 1))
    assert [(r, c) for r, lo in ranks for c in range(lo, (d + 1) // 2)] == expected
    got = enumerate_candidates(PolarizedCY3.derive(d, 12 - 2 * d))
    assert [(c.r, c.c2H) for c in got] == expected


@pytest.mark.parametrize("d", [10**12 + 2, 35335, 39788])
def test_candidate_ranks_refuses_too_many_when_called(d):
    # At the call, not at the first next(): a caller writes nothing before it.
    with pytest.raises(TooManyCandidates, match=f"d = {d} has more than 200000 candidates"):
        candidate_ranks(d)
    with pytest.raises(TooManyCandidates):
        enumerate_candidates(PolarizedCY3.derive(d, 12 - 2 * d))


def test_candidate_ranks_at_the_largest_degrees_below_the_limit():
    # The last rank's floor is the last c2H: one row, and a rank more would have none.
    for d in (35333, 39786):
        *_, (r_max, lo) = candidate_ranks(d)
        assert lo == (d + 1) // 2 - 1
        assert 2 * (r_max + 1) * lo < r_max * d
        assert sum((d + 1) // 2 - lo for _, lo in candidate_ranks(d)) == candidate_count(d)


@pytest.mark.parametrize("d", range(1, 31))
def test_enumerate_output_invariants(d):
    geom = PolarizedCY3(d, 12 - 2 * d, 0)
    for c in enumerate_candidates(geom):
        assert c.ch2H == Q(d, 2) - c.c2H
        assert c.ch2H > 0
        assert 2 * c.r * c.c2H >= (c.r - 1) * d


def test_candidate_count_refuses_more_degrees_than_the_limit_unsummed():
    # Each c2H has a candidate, so (d + 1) // 2 > MAX_CANDIDATES decides: no term is summed.
    class CountedDegree(int):
        divisions = 0

        def __floordiv__(self, other):
            CountedDegree.divisions += 1
            return int(self) // other

    assert candidate_count(CountedDegree(10**12 + 2)) == MAX_CANDIDATES + 1
    assert CountedDegree.divisions <= 1
    assert candidate_count(CountedDegree(2 * MAX_CANDIDATES + 1)) == MAX_CANDIDATES + 1


def test_candidate_count_on_both_sides_of_the_limit():
    assert MAX_CANDIDATES == 200_000
    # Exact below the limit; the count is monotone in d within each parity only.
    assert candidate_count(20151) == 108_407  # the largest rung of enumerate-large
    assert candidate_count(35333) == 199_985
    assert candidate_count(37334) == 186_470
    assert candidate_count(39786) == 199_989
    # Above it the sum stops once past the limit, after at most MAX_CANDIDATES + 1 terms.
    assert MAX_CANDIDATES < candidate_count(35335) <= 200_005
    assert MAX_CANDIDATES < candidate_count(39788) <= 200_005
    assert candidate_count(50012) > MAX_CANDIDATES  # a partial sum meets the limit exactly
    assert candidate_count(10**12 + 2) == MAX_CANDIDATES + 1


def test_certify_refuses_too_many_candidates_before_case2(monkeypatch):
    # case2_check would build d/2 rows; the limit must be checked before it runs.
    def case2_must_not_run(*args):
        raise AssertionError("case2_check ran before the candidate limit")

    monkeypatch.setattr("bgcert.certifier.case2_check", case2_must_not_run)
    geom = PolarizedCY3.derive(10**12 + 2, 12)
    with pytest.raises(TooManyCandidates, match="more than 200000 candidates"):
        certify_theorem(geom)
    with pytest.raises(TooManyCandidates):
        enumerate_candidates(geom)
    with pytest.raises(TooManyCandidates):
        enumerate_candidates(PolarizedCY3.derive(35335, 10))


def test_certify_refuses_a_bad_mode_then_the_limit_then_the_bounds():
    past_the_limit, out_of_range = PolarizedCY3.derive(35335, 10), [CurveBound(10**6, 0)]
    with pytest.raises(ValueError, match="'weak'"):
        certify_theorem(past_the_limit, out_of_range, mode="weak")
    with pytest.raises(TooManyCandidates):
        certify_theorem(past_the_limit, out_of_range, mode="full_1_3")
    with pytest.raises(BetaOutOfRange):
        certify_theorem(QUINTIC, out_of_range, mode="even_variant")


def test_candidate_coerces_ch2H_to_fraction():
    cand = Candidate(1, 0, 1)
    assert type(cand.ch2H) is Q
    assert to_jsonable(cand.ch2H) == "1"
    assert to_jsonable(cand) == {"r": 1, "c2H": 0, "ch2H": "1"}


@pytest.mark.parametrize(
    "geom,mode",
    [(QUINTIC, "full_1_3"), (CI24, "even_variant"), (CI223, "even_variant")],
)
def test_candidate_case3_bounds_dominated_by_worst(geom, mode):
    assert certify_theorem(geom, mode=mode).hypothesis_ok
    worst = _case3_trace(geom).worst_bound
    assert worst <= 0
    for cand in enumerate_candidates(geom):
        if cand.r >= 2:
            assert case3_bound(geom, cand.ch2H, 2) <= worst


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(0, 1, Q(1))
    with pytest.raises(ValueError):
        Candidate(1, -1, Q(1))
    with pytest.raises(ValueError):
        Candidate(1, 1, Q(0))


# --- the target inequality -------------------------------------------------------------

def test_check_ineq_examples():
    report = check_ineq_1_2(ChernVector(1, 1, Q(5, 2), Q(5, 6)))
    assert report.holds and report.equality
    report = check_ineq_1_2(ChernVector(1, 1, Q(3, 2), Q(-7, 6)))
    assert report.holds and not report.equality
    assert report.rhs == Q(1, 2)
    with pytest.raises(ZeroRank):
        check_ineq_1_2(ChernVector(0, 1, Q(1), Q(1)))


_ineq_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48)


@given(st.one_of(
    st.builds(ChernVector, st.integers(-10, 10), st.integers(-10, 10), _ineq_rationals, _ineq_rationals),
    # ch3 at, or a twelfth off, the right side ch2H / (3 ch0)
    st.builds(lambda r, c1, ch2H, k: ChernVector(r, c1, ch2H, ch2H / (3 * r) + Q(k, 12)),
              st.integers(1, 10), st.integers(-10, 10), _ineq_rationals, st.integers(-1, 1)),
))
def test_ineq_kernel_matches_fraction_oracle(ch):
    # a rank <= 0 is ZeroRank with its message; otherwise every field and its exact type agree
    got, expected = outcome(check_ineq_1_2, ch), outcome(fraction_check_ineq_1_2, ch)
    if got[0] is ZeroRank:
        assert got == expected
    else:
        fields = (got[0].lhs, got[0].rhs, got[0].holds, got[0].equality)
        assert fields == expected[0]
        assert [type(x) for x in fields] == [type(x) for x in expected[0]] == [Q, Q, bool, bool]


@given(geometries, st.integers(0, 30))
def test_ineq_on_point_constructors(geom, length):
    report = check_ineq_1_2(ideal_twist_point_ch(geom.d, length))
    assert report.holds
    assert report.equality == (length == 0)


@given(geometries, st.integers(0, 10))
def test_ineq_on_curve_constructors_with_admissible_chi(geom, slack):
    for beta in castelnuovo_range(geom):
        chi = default_chi_min(geom, beta) + slack
        report = check_ineq_1_2(ideal_twist_curve_ch(geom.d, beta, chi))
        assert report.holds and not report.equality


# --- certification ----------------------------------------------------------------------

def test_certify_quintic_strict():
    cert = certify_theorem(QUINTIC)
    assert cert.verdict is Verdict.CERTIFIED_STRICT
    assert cert.hypothesis_mode is HypothesisMode.FULL
    assert cert.hypothesis_ok
    assert cert.castelnuovo_status is CastelnuovoStatus.ASSERTED
    assert cert.case3.worst_bound == Q(-7, 6)
    assert [row.ch3_bound for row in cert.case2] == [Q(-1, 6), Q(-1, 6)]
    assert cert.case1.equality_lengths == (0,)
    assert cert.case1.equality_value == Q(5, 6)
    assert len(cert.candidates) == 7
    assert not cert.violated_betas


def test_certify_ci24_modes():
    assert certify_theorem(CI24, mode="full_1_3").verdict is Verdict.HYPOTHESIS_FAIL
    cert = certify_theorem(CI24, mode="even_variant")
    assert cert.verdict is Verdict.CONDITIONAL
    assert cert.castelnuovo_status is CastelnuovoStatus.ASSUMED
    # auto falls back to the even variant when the full hypothesis fails
    assert certify_theorem(CI24).hypothesis_mode is HypothesisMode.EVEN
    assert certify_theorem(CI24).verdict is Verdict.CONDITIONAL


def test_certify_ci223_even_variant():
    cert = certify_theorem(CI223)
    assert cert.hypothesis_mode is HypothesisMode.EVEN
    assert cert.verdict is Verdict.CONDITIONAL
    assert cert.case3.worst_bound == Q(-1)


def test_certify_quintic_with_violating_bound():
    cert = certify_theorem(QUINTIC, [CurveBound(2, -2)])
    assert cert.verdict is Verdict.HYPOTHESIS_FAIL
    assert cert.violated_betas == (2,)
    assert cert.castelnuovo_status is CastelnuovoStatus.UNCHECKED
    assert not cert.case2[1].ok


def test_certify_quintic_with_stronger_bounds_keeps_verdict():
    cert = certify_theorem(QUINTIC, [CurveBound(1, 1), CurveBound(2, 0)])
    assert cert.verdict is Verdict.CERTIFIED_STRICT
    assert [row.ch3_bound for row in cert.case2] == [Q(-7, 6), Q(-7, 6)]


def test_certify_forced_even_mode_on_odd_degree_fails_hypothesis():
    cert = certify_theorem(QUINTIC, mode="even_variant")
    assert cert.verdict is Verdict.HYPOTHESIS_FAIL
    assert not cert.hypothesis.applicable


def test_certify_rejects_unknown_mode():
    # The CLI's names (full, even) and member names are not library modes.
    for mode in ("weak", "full", "even", "FULL_1_3", "", None):
        with pytest.raises(ValueError) as excinfo:
            certify_theorem(QUINTIC, mode=mode)
        assert repr(mode) in str(excinfo.value)


@pytest.mark.parametrize("mode", list(HypothesisMode))
def test_mode_member_and_value_agree(mode):
    for geom in [QUINTIC, CI24, CI223] + [PolarizedCY3(d, 12 - 2 * d, 0) for d in range(1, 25)]:
        by_member = certify_theorem(geom, mode=mode).hypothesis
        assert by_member == certify_theorem(geom, mode=mode.value).hypothesis
        assert by_member.mode is mode


def test_auto_mode_picks_full_then_even():
    assert certify_theorem(QUINTIC, mode="auto").hypothesis.mode is HypothesisMode.FULL
    assert certify_theorem(CI24, mode="auto").hypothesis.mode is HypothesisMode.EVEN
    assert certify_theorem(CI223, mode="auto").hypothesis.mode is HypothesisMode.EVEN


def test_certify_is_deterministic():
    a = certify_theorem(QUINTIC)
    b = certify_theorem(QUINTIC)
    assert a == b
    assert json.dumps(certificate_to_jsonable(a)) == json.dumps(certificate_to_jsonable(b))


def test_verdict_matches_hypothesis_invariant():
    for geom, mode in [(QUINTIC, "auto"), (CI24, "auto"), (CI24, "full_1_3"), (CI223, "auto")]:
        cert = certify_theorem(geom, mode=mode)
        assert (cert.verdict is Verdict.HYPOTHESIS_FAIL) == (not cert.hypothesis_ok)


# --- Riemann-Roch spine -----------------------------------------------------------------

@given(
    geometries,
    st.integers(-10, 10),
    st.fractions(min_value=-100, max_value=100, max_denominator=36),
    st.fractions(min_value=-100, max_value=100, max_denominator=36),
)
def test_riemann_roch_spine(geom, c1, ch2h, ch3):
    ch = ChernVector(1, c1, ch2h, ch3)
    via_c2 = euler_characteristic(geom, ch)
    via_dimh = ch.ch3 + c1 * (geom.dimH - Q(geom.d, 6) + 1)
    assert via_c2 == via_dimh


# --- serialization ------------------------------------------------------------------------

def _assert_rationals_are_strings(node):
    if isinstance(node, dict):
        for value in node.values():
            _assert_rationals_are_strings(value)
    elif isinstance(node, list):
        for value in node:
            _assert_rationals_are_strings(value)
    else:
        assert node is None or isinstance(node, (bool, int, str))


def test_certificate_serialization():
    report = certificate_to_jsonable(certify_theorem(QUINTIC))
    assert report["verdict"] == "CERTIFIED_STRICT"
    assert report["case3"]["worst_bound"] == "-7/6"
    assert report["case1"]["equality_value"] == "5/6"
    assert report["case2"][0]["ch3_bound"] == "-1/6"
    assert report["candidates"][0] == {"r": 1, "c2H": 0, "ch2H": "5/2"}
    _assert_rationals_are_strings(report)
    # JSON-compatible end to end
    assert json.loads(json.dumps(report)) == report


# --- a real-geometry corpus: the one-parameter complete intersections in weighted P^n ---------

# (weights, degrees) -> d, c2.H, the mode "auto" picks, the worst Case 3 bound, the verdict with
# castelnuovo_known false (true turns CONDITIONAL into CERTIFIED_STRICT and keeps HYPOTHESIS_FAIL).
_FULL, _EVEN = HypothesisMode.FULL, HypothesisMode.EVEN
_COND, _FAIL = Verdict.CONDITIONAL, Verdict.HYPOTHESIS_FAIL
WEIGHTED_CY3_FAMILIES = [
    ((1, 1, 1, 1, 1), (5,), 5, 50, _FULL, Q(-7, 6), _COND),
    ((1, 1, 1, 1, 2), (6,), 3, 42, _FULL, Q(-5, 2), _COND),
    ((1, 1, 1, 1, 4), (8,), 2, 44, _FULL, Q(-14, 3), _COND),
    ((1, 1, 1, 2, 5), (10,), 1, 34, _FULL, Q(-23, 6), _COND),
    ((1, 1, 1, 1, 1, 1), (3, 3), 9, 54, _FULL, Q(5, 2), _FAIL),
    ((1, 1, 1, 1, 1, 1), (4, 2), 8, 56, _EVEN, Q(-8, 3), _COND),
    ((1, 1, 1, 1, 1, 1, 1), (3, 2, 2), 12, 60, _EVEN, Q(-1), _COND),
    ((1, 1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2), 16, 64, _EVEN, Q(2, 3), _FAIL),
    ((1, 1, 1, 1, 1, 2), (4, 3), 6, 48, _FULL, Q(-3), _COND),  # on the full boundary 12d - 24
    ((1, 1, 1, 1, 1, 3), (6, 2), 4, 52, _FULL, Q(-13, 3), _COND),
    ((1, 1, 1, 1, 2, 2), (4, 4), 4, 40, _FULL, Q(-10, 3), _COND),
    ((1, 1, 1, 2, 2, 3), (6, 4), 2, 32, _FULL, Q(-11, 3), _COND),
    ((1, 1, 2, 2, 3, 3), (6, 6), 1, 22, _FULL, Q(-17, 6), _COND),
]


@pytest.mark.parametrize("weights, degrees, d, c2H, mode, worst, verdict", WEIGHTED_CY3_FAMILIES,
                         ids=[f"{w}-{g}" for w, g, *_ in WEIGHTED_CY3_FAMILIES])
def test_weighted_complete_intersection_corpus(weights, degrees, d, c2H, mode, worst, verdict):
    assert ci_chern_numbers(len(weights) - 1, degrees, weights) == (d, c2H)
    for known in (False, True):
        cert = certify_theorem(PolarizedCY3.derive(d, c2H, known))
        assert cert.hypothesis_mode is mode and cert.case3.worst_bound == worst
        assert cert.verdict is (Verdict.CERTIFIED_STRICT if known and verdict is _COND else verdict)
        assert cert.hypothesis_ok is (verdict is _COND)


@given(st.integers(1, 400), st.integers(1, 400))
def test_hypotheses_and_worst_bound_in_c2H(d, k):
    # chi(O(H)) = k, so c2.H = 12 k - 2 d; dim|H| = d/6 + c2.H/12 - 1
    c2H = 12 * k - 2 * d
    geom = PolarizedCY3.derive(d, c2H)
    full, even = hypothesis_checks(geom)
    assert full.holds is (c2H >= 12 * d - 24)
    assert even.holds is (d % 2 == 0 and c2H >= 6 * d - 24)
    worst = _case3_trace(geom).worst_bound
    assert worst == (d if d % 2 else Q(d, 2)) - Q(c2H, 12) - 2
    assert (worst <= 0) is (full.holds or even.holds)
