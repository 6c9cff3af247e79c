import operator
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    fraction_bg_discriminant,
    fraction_nu_zero_tsq,
    fraction_sandwich_ordered,
    fraction_tilt_slope_nu,
    naive_lemma1_window,
    naive_lemma2_window,
    outcome,
)
from bgcert.chern import ZERO, ChernVector, extend_by_trivial, line_bundle_ch, quotient_by_trivial
from bgcert.errors import NegativeRank, NoPositiveRoot, ZeroRank
from bgcert.geometry import PolarizedCY3, from_preset
from bgcert.rationals import INFINITY, format_rational, parse_int, parse_rational, to_jsonable
from bgcert.stability import (
    bg_discriminant,
    bg_ok,
    lemma1_slope_window,
    lemma2_slope_window,
    nu_zero_tsq,
    sandwich_check,
    slope_mu,
    tilt_slope_nu,
)

QUINTIC = from_preset("quintic")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48)
vectors = st.builds(
    ChernVector, st.integers(-10, 10), st.integers(-10, 10), rationals, rationals
)
positive_t = st.fractions(min_value=Q(1, 12), max_value=12, max_denominator=24)
# every degree d; c2XH = 12 k - 2 d keeps chi(O(H)) = k an integer
geometries = st.builds(lambda d, k: PolarizedCY3.derive(d, 12 * k - 2 * d),
                       st.integers(1, 60), st.integers(1, 20))
# t as an int, a small fraction or a large-denominator one
any_t = st.one_of(st.integers(1, 30), positive_t,
                  st.builds(Q, st.integers(1, 500), st.integers(1, 500)))


# --- extended rationals ---------------------------------------------------------

# operator: (INFINITY op INFINITY, INFINITY op finite, finite op INFINITY)
_INFINITY_TABLE = {
    operator.lt: (False, False, True),
    operator.le: (True, False, True),
    operator.gt: (False, True, False),
    operator.ge: (True, True, False),
    operator.eq: (True, False, False),
    operator.ne: (False, True, True),
}
_FINITE = [0, -5, 10 ** 30, Q(-3, 7), Q(10 ** 12)]


def test_infinity_ordering():
    for op, (with_itself, left, right) in _INFINITY_TABLE.items():
        assert op(INFINITY, INFINITY) is with_itself
        for x in _FINITE:
            assert op(INFINITY, x) is left
            assert op(x, INFINITY) is right


def test_infinity_order_rejects_non_rationals():
    for other in (1.5, "x", None):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(INFINITY, other)
            with pytest.raises(TypeError):
                op(other, INFINITY)


def test_rational_parse_and_format():
    assert parse_rational("5/2") == Q(5, 2)
    assert parse_rational("-7") == Q(-7)
    assert format_rational(Q(10, 4)) == "5/2"
    assert format_rational(Q(4, 2)) == "2"
    assert to_jsonable(INFINITY) == "+inf"
    for bad in ("1/-2", "+3", "1.5", "x", "1/0", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_integer_parse_is_the_integer_part_of_the_rational_grammar():
    assert parse_int("-12") == -12 and parse_int(" 7\n") == 7 and parse_int("007") == 7
    # int() takes the first four (an underscore, non-ASCII digits, a plus sign); this takes none.
    for bad in ("5_0", "\u0665", "\uff15", "+5", "1/2", "1.0", "- 5", ""):
        with pytest.raises(ValueError, match="malformed integer"):
            parse_int(bad)


def test_to_jsonable_looks_format_rational_up_per_call(monkeypatch):
    # A converter kept from the first call must not outlive a patch of the name.
    assert to_jsonable(Q(5, 2)) == "5/2"
    monkeypatch.setattr("bgcert.rationals.format_rational", lambda value: "patched")
    assert to_jsonable(Q(5, 2)) == "patched"
    monkeypatch.undo()
    assert to_jsonable(Q(5, 2)) == "5/2"


# --- slope mu -------------------------------------------------------------------

def test_slope_mu_examples():
    assert slope_mu(QUINTIC, ChernVector(1, 1, Q(0), Q(0))) == 5
    assert slope_mu(QUINTIC, ChernVector(2, 1, Q(0), Q(0))) == Q(5, 2)
    assert slope_mu(QUINTIC, ChernVector(0, 0, Q(1), Q(0))) == INFINITY
    with pytest.raises(NegativeRank):
        slope_mu(QUINTIC, ChernVector(-1, 1, Q(0), Q(0)))


# --- BG discriminant -------------------------------------------------------------

def test_bg_examples():
    assert bg_discriminant(QUINTIC, ChernVector(3, 1, Q(1, 2), Q(0))) == 2
    assert bg_discriminant(QUINTIC, ChernVector(6, 1, Q(1, 2), Q(0))) == -1
    assert not bg_ok(QUINTIC, ChernVector(6, 1, Q(1, 2), Q(0)))


@pytest.mark.parametrize("d", range(1, 31))
def test_bg_zero_on_line_bundles(d):
    geom = PolarizedCY3(d, 12 - 2 * d, 0)
    for n in range(-20, 21):
        assert bg_discriminant(geom, line_bundle_ch(d, n)) == 0
        assert bg_ok(geom, line_bundle_ch(d, n))  # on the boundary, and still ok


@given(vectors, st.integers(1, 10))
def test_bg_invariant_under_extend_quotient_round_trip(ch, m):
    import warnings

    from bgcert.errors import VirtualClassWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VirtualClassWarning)
        assert bg_discriminant(QUINTIC, quotient_by_trivial(extend_by_trivial(ch, m), m)) == (
            bg_discriminant(QUINTIC, ch)
        )


@given(vectors, st.integers(1, 10))
def test_bg_strictly_decreases_under_extension_iff_ch2h_positive(ch, m):
    before = bg_discriminant(QUINTIC, ch)
    after = bg_discriminant(QUINTIC, extend_by_trivial(ch, m))
    assert (after < before) == (ch.ch2H > 0)


# --- tilt slope -------------------------------------------------------------------

def test_nu_examples():
    oh = line_bundle_ch(5, 1)
    assert tilt_slope_nu(QUINTIC, oh, 1) == Q(1, 3)
    assert tilt_slope_nu(QUINTIC, ChernVector(0, 0, Q(1), Q(0)), Q(7, 3)) == INFINITY
    with pytest.raises(ValueError):
        tilt_slope_nu(QUINTIC, oh, 0)


def test_nu_zero_tsq_examples():
    assert nu_zero_tsq(QUINTIC, line_bundle_ch(5, 1)) == 3
    assert nu_zero_tsq(QUINTIC, ChernVector(2, 1, Q(5, 2), Q(0))) == Q(3, 2)
    with pytest.raises(NoPositiveRoot):
        nu_zero_tsq(QUINTIC, ChernVector(1, 1, Q(-1), Q(0)))
    with pytest.raises(NoPositiveRoot):  # t^2 = 0 is no positive root
        nu_zero_tsq(QUINTIC, ChernVector(1, 1, Q(0), Q(0)))
    with pytest.raises(ZeroRank):
        nu_zero_tsq(QUINTIC, ChernVector(0, 1, Q(1), Q(0)))


rank_zero = st.builds(ChernVector, st.just(0), st.integers(-3, 3), rationals, rationals)


@given(geometries, vectors | rank_zero)
def test_nu_zero_tsq_kernel_matches_fraction_oracle(geom, ch):
    # a negative rank, ch2H <= 0 (NoPositiveRoot) and rank zero (ZeroRank), messages included
    got, expected = outcome(nu_zero_tsq, geom, ch), outcome(fraction_nu_zero_tsq, geom.d, ch)
    assert got == expected
    assert got[1] is Q or got[0] in (NoPositiveRoot, ZeroRank)


def test_nu_zero_tsq_errors_match_fraction_oracle():
    no_root = "<= 0: the tilt slope has no positive root"
    for ch, expected in [
        (ChernVector(0, 1, Q(1), Q(0)), (ZeroRank, "tilt-slope root undefined at rank zero")),
        (ChernVector(-2, 1, Q(1), Q(0)), (NoPositiveRoot, f"ch2H/ch0 = -1/2 {no_root}")),
        (ChernVector(3, -1, Q(0), Q(0)), (NoPositiveRoot, f"ch2H/ch0 = 0 {no_root}")),
        (ChernVector(-2, 1, Q(-5, 2), Q(0)), (Q(3, 2), Q)),  # both negative: a positive root
    ]:
        assert outcome(nu_zero_tsq, QUINTIC, ch) == outcome(fraction_nu_zero_tsq, 5, ch) == expected


@given(geometries, vectors)
def test_bg_kernel_matches_fraction_oracle(geom, ch):
    value, expected = bg_discriminant(geom, ch), fraction_bg_discriminant(geom.d, ch)
    assert type(value) is type(expected) is Q and value == expected
    assert bg_ok(geom, ch) is (expected >= 0)


def test_nu_vanishes_exactly_at_its_root():
    # rigged so the root t^2 = 6 ch2H / (d ch0) is a perfect square
    ch = ChernVector(1, 1, Q(10, 3), Q(0))  # t^2 = 4 on the quintic
    assert nu_zero_tsq(QUINTIC, ch) == 4
    assert tilt_slope_nu(QUINTIC, ch, 2) == 0
    assert tilt_slope_nu(QUINTIC, ch, 1) > 0
    assert tilt_slope_nu(QUINTIC, ch, 3) < 0


@given(vectors, positive_t, st.integers(-8, 8).filter(bool))
def test_nu_homogeneity_degree_zero(ch, t, k):
    # k = -1 is what lets sandwich_check read nu(-sub) as nu(sub)
    assert tilt_slope_nu(QUINTIC, k * ch, t) == tilt_slope_nu(QUINTIC, ch, t)


@given(geometries, vectors, any_t)
def test_nu_kernel_matches_fraction_oracle(geom, ch, t):
    value = tilt_slope_nu(geom, ch, t)
    expected = fraction_tilt_slope_nu(geom.d, ch, t)
    if expected is None:
        assert value is INFINITY
    else:
        assert type(value) is type(expected) is Q and value == expected


@given(vectors, positive_t)
def test_nu_zero_locus_matches_root(ch, t):
    value = tilt_slope_nu(QUINTIC, ch, t)
    if ch.c1 != 0 and ch.ch0 > 0 and ch.ch2H > 0:
        assert (value == 0) == (t * t == nu_zero_tsq(QUINTIC, ch))


# --- sandwich ----------------------------------------------------------------------

def test_sandwich_example_concrete():
    oh = line_bundle_ch(5, 1)
    quot = ChernVector(1, 1, Q(5, 2), Q(0))
    # nu(-O(H)) = 1/3 > 0 at t = 1, so the left inequality fails
    assert tilt_slope_nu(QUINTIC, -oh, 1) == Q(1, 3)
    report = sandwich_check(QUINTIC, oh, quot, 1)
    assert not report.ordered
    assert report.ch2H_sub == Q(5, 2)
    assert report.ch2H_quot == Q(5, 2)


def test_sandwich_zero_sub_is_vacuous():
    report = sandwich_check(QUINTIC, ZERO, line_bundle_ch(5, 1), 1)
    assert report.ordered  # reduces to 0 <= 1/3
    for t in (0, -1):  # a zero class does not exempt t from t > 0
        with pytest.raises(ValueError, match="t must be positive"):
            sandwich_check(QUINTIC, ZERO, ZERO, t)


def test_sandwich_ordered_case():
    # sub with nu <= 0 at t = 1 and quot with nu >= 0
    sub = ChernVector(1, 1, Q(1, 2), Q(0))  # nu = (1/2 - 5/6)/5 < 0
    quot = ChernVector(1, 1, Q(5, 2), Q(0))  # nu = 1/3 > 0
    report = sandwich_check(QUINTIC, sub, quot, 1)
    assert report.ordered
    assert report.ch2H_sub > 0 and report.ch2H_quot > 0


@given(geometries, st.one_of(vectors, st.just(ZERO)), st.one_of(vectors, st.just(ZERO)), any_t)
def test_sandwich_sign_test_matches_fraction_oracle(geom, sub, quot, t):
    # negative ranks and c1, c1 = 0 (+inf) and the zero class on either side
    ordered = sandwich_check(geom, sub, quot, t).ordered
    assert type(ordered) is bool and ordered == fraction_sandwich_ordered(geom.d, sub, quot, t)


def test_sandwich_sign_test_at_its_boundary():
    # nu = 0 orders both sides; nu = -1/6 and 1/6 (numerators -1 and 1) each order only one,
    # and so does +inf
    root = ChernVector(1, 1, Q(10, 3), Q(0))
    assert tilt_slope_nu(QUINTIC, root, 2) == 0
    assert sandwich_check(QUINTIC, root, root, 2).ordered
    d1 = PolarizedCY3.derive(1, 10)
    below, above = ChernVector(1, 1, Q(0), Q(0)), ChernVector(-1, 1, Q(0), Q(0))
    assert (tilt_slope_nu(d1, below, 1), tilt_slope_nu(d1, above, 1)) == (Q(-1, 6), Q(1, 6))
    assert sandwich_check(d1, below, above, 1).ordered
    assert not sandwich_check(d1, above, above, 1).ordered
    assert not sandwich_check(d1, below, below, 1).ordered
    torsion = ChernVector(0, 0, Q(1), Q(0))  # c1 = 0 but not the zero class: nu = +inf
    assert sandwich_check(d1, below, torsion, 1).ordered
    assert not sandwich_check(d1, torsion, ZERO, 1).ordered  # +inf is not <= 0


@given(vectors, vectors, positive_t, st.integers(1, 6))
def test_sandwich_invariant_under_common_rescaling(sub, quot, t, k):
    plain = sandwich_check(QUINTIC, sub, quot, t)
    scaled = sandwich_check(QUINTIC, k * sub, k * quot, t)
    assert plain.ordered == scaled.ordered


# --- slope windows ------------------------------------------------------------------

def test_window_examples():
    assert lemma1_slope_window(1) == [(1, 1)]
    assert lemma1_slope_window(3) == [(1, 3)]
    assert lemma2_slope_window(2) == []
    assert lemma2_slope_window(3) == []
    assert lemma2_slope_window(10) == []
    with pytest.raises(ValueError):
        lemma1_slope_window(0)
    with pytest.raises(ValueError):
        lemma2_slope_window(1)


@pytest.mark.parametrize("r", list(range(1, 61)))
def test_lemma1_window_matches_bruteforce(r):
    assert lemma1_slope_window(r) == naive_lemma1_window(r) == [(1, r)]


@pytest.mark.parametrize("r", list(range(2, 61)))
def test_lemma2_window_matches_bruteforce(r):
    assert lemma2_slope_window(r) == naive_lemma2_window(r) == []


@pytest.mark.parametrize("d", [1, 7, 30])
def test_windows_are_scale_free(d):
    # cross-multiplying both slopes by d changes nothing
    for r in range(1, 25):
        scaled = sorted(
            (k, s)
            for s in range(1, r + 1)
            for k in range(1, s + 1)
            if Q(d, r + 1) <= Q(k * d, s) <= Q(d, r)
        )
        assert scaled == lemma1_slope_window(r)
