from fractions import Fraction as Q

import codecs
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    ci_chern_numbers,
    fraction_check_h_assumption,
    fraction_check_h_assumption_even,
    fraction_default_chi_min,
    fraction_even_threshold,
    fraction_full_threshold,
)
from bgcert.certifier import case2_check, hypothesis_checks, min_positive_ch2H
from bgcert.chern import line_bundle_ch
from bgcert.errors import (
    BetaOutOfRange,
    ConfigError,
    InconsistentGeometry,
    NegativeLinearSystem,
    NonIntegralGeometry,
    UnknownPreset,
)
from bgcert.geometry import (
    CurveBound,
    PolarizedCY3,
    castelnuovo_range,
    default_chi_min,
    derive_dimH,
    even_threshold,
    from_preset,
    full_threshold,
    geometry_from_config,
    load_geometry_config,
)

# Geometries generated through the Riemann-Roch identity: chi(O(H)) = chi,
# c2XH = 12 chi - 2d always gives a valid record.
geometries = st.builds(
    lambda d, chi: PolarizedCY3(d, 12 * chi - 2 * d, chi - 1),
    st.integers(1, 40),
    st.integers(1, 25),
)


# --- presets against the ambient total-Chern-class oracle ------------------------

@pytest.mark.parametrize(
    "name,ambient,degrees,known",
    [
        ("quintic", 4, [5], True),
        ("ci24", 5, [2, 4], False),
        ("ci223", 6, [2, 2, 3], False),
    ],
)
def test_presets_match_complete_intersection_oracle(name, ambient, degrees, known):
    d, c2xh = ci_chern_numbers(ambient, degrees)
    geom = from_preset(name)
    assert geom.d == d
    assert geom.c2XH == c2xh
    # hyperplane sections: chi(O(1)) equals h^0(P^n, O(1)) = n + 1
    assert Q(d, 6) + Q(c2xh, 12) == ambient + 1
    assert geom.dimH == ambient
    assert geom.castelnuovo_known is known


def test_preset_values_frozen():
    assert from_preset("quintic") == PolarizedCY3(5, 50, 4, True)
    assert from_preset("ci24") == PolarizedCY3(8, 56, 5, False)
    assert from_preset("ci223") == PolarizedCY3(12, 60, 6, False)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        from_preset("sextic")


# --- derive_dimH -------------------------------------------------------------------

def test_derive_dimh_examples():
    assert derive_dimH(5, 50) == 4
    assert derive_dimH(12, 60) == 6
    with pytest.raises(NonIntegralGeometry):
        derive_dimH(5, 49)
    with pytest.raises(NegativeLinearSystem):
        derive_dimH(6, -12)  # chi(O(H)) = 0
    with pytest.raises(ValueError):
        derive_dimH(0, 50)


@given(geometries)
def test_riemann_roch_consistency_invariant(geom):
    assert derive_dimH(geom.d, geom.c2XH) == geom.dimH
    assert geom.chi_OH == geom.dimH + 1


@pytest.mark.parametrize("d", [0, True, 5.0, Q(6)])
def test_degree_check_has_one_message(d):
    # derive_dimH, the chern constructors and the formulas of d alone share one check.
    for call, args in ((derive_dimH, (d, 50)), (line_bundle_ch, (d, 1)), (full_threshold, (d,)),
                       (even_threshold, (d,)), (min_positive_ch2H, (d,))):
        with pytest.raises(ValueError) as caught:
            call(*args)
        assert str(caught.value) == f"d must be a positive integer, got {d!r}", call.__name__


@pytest.mark.parametrize("fields, bad", [
    ((5, 50, 4.0), "dimH"),
    ((5, Q(50), 4), "c2XH"),
    ((5, 50, True), "dimH"),
    ((5, 50, 4, 1), "castelnuovo_known"),
])
def test_geometry_rejects_inexact_fields(fields, bad):
    # A float or Fraction here would reach a certificate that claims to be exact.
    with pytest.raises(TypeError, match=bad):
        PolarizedCY3(*fields)


@pytest.mark.parametrize("fields, bad", [((1, 0.5), "chi_min"), ((1, True), "chi_min"), ((Q(1), 0), "beta")])
def test_curve_bound_rejects_inexact_fields(fields, bad):
    with pytest.raises(TypeError, match=bad):
        CurveBound(*fields)


def test_explicit_dimh_mismatch_is_error():
    with pytest.raises(InconsistentGeometry):
        PolarizedCY3(5, 50, 3)
    assert PolarizedCY3.derive(5, 50).dimH == 4


# --- hypothesis thresholds and checks -----------------------------------------------

def full_holds(geom):
    return hypothesis_checks(geom)[0].holds


def test_h_assumption_table():
    assert full_holds(from_preset("quintic"))  # 4 >= 17/6
    assert not full_holds(from_preset("ci24"))  # 5 < 19/3
    assert not full_holds(from_preset("ci223"))
    boundary = PolarizedCY3(6, 48, 4)  # threshold is exactly 4
    assert full_holds(boundary)


def test_h_assumption_even_table():
    assert hypothesis_checks(from_preset("ci24"))[1].holds  # 5 >= 7/3
    assert hypothesis_checks(from_preset("ci223"))[1].holds  # 6 >= 5, boundary-ish
    even = hypothesis_checks(from_preset("quintic"))[1]  # odd d: the variant does not apply
    assert even.applicable is False and even.holds is False


# Geometries up to d = 10**6, anywhere and with dim|H| next to either threshold.
large_geometries = st.builds(
    lambda d, chi: PolarizedCY3(d, 12 * chi - 2 * d, chi - 1),
    st.integers(1, 10**6),
    st.integers(1, 2 * 10**6),
)


def _near_threshold(d, k, even):
    """The geometry of degree d with dim|H| = k + the smallest dim|H| that passes a threshold."""
    threshold = fraction_even_threshold(d) if even else fraction_full_threshold(d)
    dimH = max(0, math.ceil(threshold) + k)
    return PolarizedCY3(d, 12 * (dimH + 1) - 2 * d, dimH)  # any dim|H| >= 0 has this geometry


near_thresholds = st.builds(
    _near_threshold, st.integers(1, 10**6), st.integers(-2, 2), st.booleans()
)


@given(large_geometries | near_thresholds)
def test_hypothesis_forms_match_fraction_oracle(geom):
    for got, expected in ((full_threshold(geom.d), fraction_full_threshold(geom.d)),
                          (even_threshold(geom.d), fraction_even_threshold(geom.d))):
        assert type(got) is type(expected) is Q and got == expected
    full, even = hypothesis_checks(geom)
    assert full.holds is fraction_check_h_assumption(geom)
    if geom.d % 2 == 0:
        assert even.holds is fraction_check_h_assumption_even(geom)
    else:
        assert even.applicable is False and even.holds is False


# --- castelnuovo range and the curve check (the supplied Case 2 row's ok) ------------

def test_castelnuovo_range_examples():
    assert castelnuovo_range(from_preset("quintic")) == [1, 2]
    assert castelnuovo_range(from_preset("ci24")) == [1, 2, 3]
    assert castelnuovo_range(PolarizedCY3(2, 8, 0)) == []


@given(geometries)
def test_castelnuovo_range_length_and_bounds(geom):
    betas = castelnuovo_range(geom)
    assert len(betas) == -(-geom.d // 2) - 1
    assert betas == sorted(betas)
    assert all(1 <= b and 2 * b < geom.d for b in betas)


def curve_check(geom, beta, chi_min):
    row = case2_check(geom, [CurveBound(beta, chi_min)])[beta - 1]
    assert row.source == "supplied"
    return row.ok


def test_castelnuovo_check_examples():
    quintic = from_preset("quintic")
    assert curve_check(quintic, 1, 0)
    assert curve_check(quintic, 2, -1)
    assert not curve_check(quintic, 2, -2)
    with pytest.raises(BetaOutOfRange):
        curve_check(quintic, 3, 0)


@given(geometries)
def test_default_chi_min_is_smallest_passing_integer(geom):
    for beta in castelnuovo_range(geom):
        chi = default_chi_min(geom, beta)
        assert curve_check(geom, beta, chi)
        assert not curve_check(geom, beta, chi - 1)


@given(large_geometries, st.integers(-10**6, 10**6))
def test_default_chi_min_matches_fraction_oracle(geom, beta):
    got, expected = default_chi_min(geom, beta), fraction_default_chi_min(geom, beta)
    assert type(got) is type(expected) is int and got == expected


def test_curve_bound_validation():
    with pytest.raises(ValueError):
        CurveBound(0, 1)


# --- config parsing -------------------------------------------------------------------

def test_geometry_from_config_minimal():
    geom = geometry_from_config({"d": 5, "c2h": 50})
    assert geom == PolarizedCY3(5, 50, 4, False)


def test_geometry_from_config_full():
    geom = geometry_from_config({"d": 5, "c2h": 50, "dimh": 4, "castelnuovo_known": True})
    assert geom.castelnuovo_known


def test_geometry_from_config_reports_offending_field():
    with pytest.raises(ConfigError) as err:
        geometry_from_config({"d": 5})
    assert err.value.field == "c2h"
    with pytest.raises(ConfigError) as err:
        geometry_from_config({"d": 5, "c2h": 50, "degree": 5})
    assert err.value.field == "degree"
    with pytest.raises(ConfigError, match="unknown field 'alpha'") as err:  # the first, sorted
        geometry_from_config({"d": 5, "c2h": 50, "zeta": 1, "alpha": 2})
    assert err.value.field == "alpha"
    for bad in ("five", "5_0", "\u0665", "+5"):  # int() takes the last three
        with pytest.raises(ConfigError, match="field d: expected an integer") as err:
            geometry_from_config({"d": bad, "c2h": 50})
        assert err.value.field == "d"
    with pytest.raises(ConfigError) as err:
        geometry_from_config({"d": 5, "c2h": 50, "castelnuovo_known": "maybe"})
    assert err.value.field == "castelnuovo_known"


def test_load_geometry_config_json(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"d": 5, "c2h": 50, "castelnuovo_known": true}')
    assert geometry_from_config(load_geometry_config(path)) == PolarizedCY3(5, 50, 4, True)


def test_load_geometry_config_key_value(tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_text("# the quintic\nd = 5\nc2h: 50\ncastelnuovo_known = yes\n")
    assert geometry_from_config(load_geometry_config(path)) == PolarizedCY3(5, 50, 4, True)


@pytest.mark.parametrize("text", ['{"d": 5, "c2h": 50, "castelnuovo_known": true}',
                                  "d = 5\nc2h: 50\ncastelnuovo_known = yes\n"],
                         ids=["json", "lines"])
def test_load_geometry_config_skips_a_byte_order_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert load_geometry_config(marked) == load_geometry_config(plain)
    assert geometry_from_config(load_geometry_config(marked)) == PolarizedCY3(5, 50, 4, True)


def test_load_geometry_config_bad_line(tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_text("d 5\n")
    with pytest.raises(ConfigError):
        load_geometry_config(path)
    path.write_text("d = 5\nc2h 50\n")
    with pytest.raises(ConfigError) as err:
        load_geometry_config(path)
    assert str(err.value) == f"config {path}:2: expected key = value, got 'c2h 50'"


@pytest.mark.parametrize("line,value", [("d = 5 = 5", "5 = 5"), ("d: 5: 5", "5: 5")])
def test_load_geometry_config_splits_a_line_once(tmp_path, line, value):
    # The value keeps any later separator, so it is not an integer.
    path = tmp_path / "geom.cfg"
    path.write_text(f"{line}\nc2h = 50\n")
    data = load_geometry_config(path)
    assert data == {"d": value, "c2h": "50"}
    with pytest.raises(ConfigError, match="field d: expected an integer") as err:
        geometry_from_config(data)
    assert err.value.field == "d"


@pytest.mark.parametrize("text", ["d = 5\nc2h = 50\nd = 8\n", '{"d": 5, "c2h": 50, "d": 8}'],
                         ids=["lines", "json"])
def test_load_geometry_config_refuses_a_repeated_key(tmp_path, text):
    # Keeping the last value would read d = 8 from a file whose first line says 5.
    path = tmp_path / "geom.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="field d: given more than once") as info:
        load_geometry_config(path)
    assert info.value.field == "d"
