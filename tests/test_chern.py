from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    exp_line_bundle,
    fraction_ch_from_classes,
    fraction_chern_classes,
    fraction_euler_characteristic,
    twist,
)
from bgcert.chern import (
    ZERO,
    ChernVector,
    ch_from_chern_classes,
    chern_classes_from_ch,
    dual_ch,
    euler_characteristic,
    extend_by_trivial,
    ideal_twist_curve_ch,
    ideal_twist_point_ch,
    is_integral,
    line_bundle_ch,
    quotient_by_trivial,
    triangle_ch,
)
from bgcert.errors import VirtualClassWarning
from bgcert.geometry import PolarizedCY3, from_preset
from bgcert.rationals import parse_rational, to_jsonable

QUINTIC = from_preset("quintic")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48)
vectors = st.builds(
    ChernVector,
    st.integers(-12, 12),
    st.integers(-12, 12),
    rationals,
    rationals,
)
degrees = st.integers(1, 60)
# c2XH = 12 k - 2 d keeps chi(O(H)) = k an integer
geometries = st.builds(lambda d, k: PolarizedCY3.derive(d, 12 * k - 2 * d), degrees, st.integers(1, 20))


# --- constructors -------------------------------------------------------------

def test_line_bundle_examples():
    assert line_bundle_ch(5, 0) == ChernVector(1, 0, Q(0), Q(0))
    assert line_bundle_ch(5, 1) == ChernVector(1, 1, Q(5, 2), Q(5, 6))
    assert line_bundle_ch(5, 2) == ChernVector(1, 2, Q(10), Q(20, 3))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 12, 30])
@pytest.mark.parametrize("n", range(-6, 7))
def test_line_bundle_matches_exponential_series(d, n):
    ch = line_bundle_ch(d, n)
    assert (ch.ch0, ch.c1, ch.ch2H, ch.ch3) == exp_line_bundle(d, n)


def test_line_bundle_rejects_bad_degree():
    with pytest.raises(ValueError):
        line_bundle_ch(0, 1)


def test_point_twist_examples():
    assert ideal_twist_point_ch(5, 0) == line_bundle_ch(5, 1)
    assert ideal_twist_point_ch(5, 1) == ChernVector(1, 1, Q(5, 2), Q(-1, 6))
    assert ideal_twist_point_ch(5, 3) == ChernVector(1, 1, Q(5, 2), Q(-13, 6))
    with pytest.raises(ValueError):
        ideal_twist_point_ch(5, -1)


def test_curve_twist_examples():
    assert ideal_twist_curve_ch(5, 1, 1) == ChernVector(1, 1, Q(3, 2), Q(-7, 6))
    assert ideal_twist_curve_ch(5, 2, -1) == ChernVector(1, 1, Q(1, 2), Q(-1, 6))
    assert ideal_twist_curve_ch(8, 3, 0) == ChernVector(1, 1, Q(1), Q(-5, 3))


def test_curve_twist_rejects_point_regime():
    with pytest.raises(ValueError):
        ideal_twist_curve_ch(5, 0, 1)
    with pytest.raises(ValueError):
        ideal_twist_curve_ch(5, -2, 1)


@pytest.mark.parametrize("d", [2, 5, 9])
def test_constructors_agree_at_degenerate_boundary(d):
    # length-0 points and the bare line bundle give the same class
    assert ideal_twist_point_ch(d, 0) == line_bundle_ch(d, 1)


# --- sequence additivity -------------------------------------------------------

def test_extend_example():
    assert extend_by_trivial(ChernVector(1, 1, Q(5, 2), Q(5, 6)), 2) == ChernVector(
        3, 1, Q(5, 2), Q(5, 6)
    )


def test_quotient_example_and_rank_zero():
    assert quotient_by_trivial(ChernVector(3, 1, Q(5, 2), Q(5, 6)), 2) == ChernVector(
        1, 1, Q(5, 2), Q(5, 6)
    )
    # rank zero stays silent: virtual classes are allowed
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = quotient_by_trivial(ChernVector(2, 1, Q(1, 2), Q(0)), 2)
    assert out.ch0 == 0


def test_quotient_warns_on_negative_rank():
    with pytest.warns(VirtualClassWarning):
        quotient_by_trivial(ChernVector(1, 0, Q(0), Q(0)), 2)


@given(vectors, st.integers(0, 20))
def test_extend_quotient_round_trip(ch, m):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VirtualClassWarning)
        assert quotient_by_trivial(extend_by_trivial(ch, m), m) == ch


@given(vectors, st.integers(0, 20))
def test_extend_is_addition_of_trivial_summands(ch, m):
    assert extend_by_trivial(ch, m) == ch + m * ChernVector(1, 0, Q(0), Q(0))


@given(vectors)
def test_extend_zero_is_identity(ch):
    import warnings

    assert extend_by_trivial(ch, 0) == ch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VirtualClassWarning)
        assert quotient_by_trivial(ch, 0) == ch


# --- dual ----------------------------------------------------------------------

def test_dual_examples():
    assert dual_ch(ChernVector(1, 1, Q(5, 2), Q(5, 6))) == ChernVector(1, -1, Q(5, 2), Q(-5, 6))
    fixed = ChernVector(2, 0, Q(1), Q(0))
    assert dual_ch(fixed) == fixed


@given(vectors)
def test_dual_is_involution(ch):
    assert dual_ch(dual_ch(ch)) == ch


@given(vectors)
def test_dual_fixed_points_have_vanishing_odd_part(ch):
    assert (dual_ch(ch) == ch) == (ch.c1 == 0 and ch.ch3 == 0)


# --- triangle ------------------------------------------------------------------

def test_triangle_examples():
    oh = line_bundle_ch(5, 1)
    assert triangle_ch(oh, oh) == ZERO
    assert triangle_ch(ChernVector(1, 1, Q(5, 2), Q(5, 6)), ChernVector(2, -1, Q(5, 2), Q(0))) == (
        ChernVector(1, -2, Q(0), Q(-5, 6))
    )


@given(vectors)
def test_triangle_with_zero_sub_is_identity(ch):
    assert triangle_ch(ZERO, ch) == ch


@given(vectors, vectors)
def test_triangle_is_componentwise_difference(sub, quot):
    middle = triangle_ch(sub, quot)
    assert middle + sub == quot


# --- twist rule (group action; not a named operation) ---------------------------

@pytest.mark.parametrize("d", [1, 5, 8])
@pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (-3, 5), (4, -4), (-2, -1)])
def test_line_bundle_twist_multiplicativity(d, m, n):
    assert twist(line_bundle_ch(d, m), d, n) == line_bundle_ch(d, m + n)


@given(vectors, st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 5, 8, 12]))
def test_twist_is_group_action(ch, m, n, d):
    assert twist(twist(ch, d, m), d, n) == twist(ch, d, m + n)
    assert twist(ch, d, 0) == ch


# --- class/character conversion -------------------------------------------------

def test_chern_classes_examples():
    assert chern_classes_from_ch(5, ChernVector(1, 1, Q(5, 2), Q(5, 6))) == (1, Q(0), Q(0))
    assert chern_classes_from_ch(5, ChernVector(2, 1, Q(1, 2), Q(0))).c2H == Q(2)
    classes = chern_classes_from_ch(5, ChernVector(1, 1, Q(3, 2), Q(-7, 6)))
    assert classes.c2H == Q(1)
    assert classes.c3 == Q(-3)


@given(vectors, st.sampled_from([1, 2, 5, 8, 12]))
def test_conversion_round_trip(ch, d):
    c1, c2h, c3 = chern_classes_from_ch(d, ch)
    assert ch_from_chern_classes(d, ch.ch0, c1, c2h, c3) == ch


@given(degrees, vectors)
def test_chern_classes_kernel_matches_fraction_oracle(d, ch):
    got = chern_classes_from_ch(d, ch)
    expected = fraction_chern_classes(d, ch)
    assert tuple(got) == expected
    assert [type(x) for x in got] == [type(x) for x in expected] == [int, Q, Q]


@given(degrees, st.integers(-12, 12), st.integers(-12, 12),
       st.one_of(st.integers(-50, 50), rationals), st.one_of(st.integers(-50, 50), rationals))
def test_ch_from_classes_kernel_matches_fraction_oracle(d, ch0, c1, c2h, c3):
    got = ch_from_chern_classes(d, ch0, c1, c2h, c3)
    expected = fraction_ch_from_classes(d, ch0, c1, c2h, c3)
    assert (got.ch0, got.c1, got.ch2H, got.ch3) == expected
    assert [type(x) for x in (got.ch2H, got.ch3)] == [type(x) for x in expected[2:]] == [Q, Q]


# --- integrality and Euler characteristic ----------------------------------------

def test_is_integral_examples():
    assert is_integral(QUINTIC, ChernVector(1, 1, Q(5, 2), Q(5, 6)))
    assert not is_integral(QUINTIC, ChernVector(1, 1, Q(5, 2), Q(0)))
    for preset in ("quintic", "ci24", "ci223"):
        assert is_integral(from_preset(preset), ChernVector(1, 0, Q(0), Q(0)))


def test_euler_characteristic_values():
    assert euler_characteristic(QUINTIC, line_bundle_ch(5, 1)) == 5
    assert euler_characteristic(QUINTIC, ChernVector(1, 0, Q(0), Q(0))) == 0
    assert euler_characteristic(QUINTIC, ChernVector(1, 1, Q(5, 2), Q(0))) == Q(25, 6)


@given(geometries, vectors)
def test_euler_kernel_matches_fraction_oracle(geom, ch):
    value = euler_characteristic(geom, ch)
    expected = fraction_euler_characteristic(geom.c2XH, ch)
    assert type(value) is type(expected) is Q and value == expected


# --- denominators on the constructor image ---------------------------------------

def _denominator_factors_ok(value: Q) -> bool:
    den = value.denominator
    for p in (2, 3):
        while den % p == 0:
            den //= p
    return den == 1


@pytest.mark.parametrize("d", range(1, 16))
def test_constructor_image_denominators_only_2_and_3(d):
    image = [line_bundle_ch(d, n) for n in range(-5, 6)]
    image += [ideal_twist_point_ch(d, l) for l in range(0, 8)]
    image += [ideal_twist_curve_ch(d, b, chi) for b in range(1, 4) for chi in range(-3, 4)]
    derived = [extend_by_trivial(ch, 2) for ch in image]
    derived += [dual_ch(ch) for ch in image]
    derived += [triangle_ch(a, b) for a, b in zip(image, reversed(image))]
    for ch in image + derived:
        assert _denominator_factors_ok(ch.ch2H)
        assert _denominator_factors_ok(ch.ch3)


# --- serialization ----------------------------------------------------------------

def test_serialization_shape():
    ch = ChernVector(1, 1, Q(5, 2), Q(5, 6))
    assert to_jsonable(ch) == {"ch0": 1, "c1": 1, "ch2H": "5/2", "ch3": "5/6"}
    assert to_jsonable(ChernVector(2, 0, Q(3), Q(-4))) == {
        "ch0": 2,
        "c1": 0,
        "ch2H": "3",
        "ch3": "-4",
    }


@given(vectors)
def test_serialization_round_trip(ch):
    data = to_jsonable(ch)
    assert (data["ch0"], data["c1"]) == (ch.ch0, ch.c1)
    assert (parse_rational(data["ch2H"]), parse_rational(data["ch3"])) == (ch.ch2H, ch.ch3)


def test_vector_rejects_non_integer_rank():
    with pytest.raises(TypeError):
        ChernVector(Q(1, 2), 1, Q(0), Q(0))  # type: ignore[arg-type]
