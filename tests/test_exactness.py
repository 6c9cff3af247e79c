"""The records built from outside values, and the formulas, take exact scalars only.

`ChernVector`, `PolarizedCY3`, `CurveBound` and `Candidate` check their scalar
fields, and the formulas in the tables below (on Chern vectors, the geometry,
slopes, the slope windows and the case bounds) check their scalar arguments:
each is exactly an int or a Fraction. Anything else, including a value equal
to a valid one, is a TypeError that names the field: a float, a bool, a str,
a Decimal or a Fraction subclass would otherwise be stored or computed with
and reach a certificate. The parts of a certificate and the reports
(`Case2Row`, `Case3Trace`, `Certificate` and the like) do not check their
fields: only the package builds them, from values already checked.
"""

from decimal import Decimal
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgcert import (
    Candidate,
    ChernVector,
    CurveBound,
    PolarizedCY3,
    case3_bound,
    ch_from_chern_classes,
    derive_dimH,
    dual_ch,
    ext1_cap,
    extend_by_trivial,
    ideal_twist_curve_ch,
    ideal_twist_point_ch,
    lemma1_slope_window,
    lemma2_slope_window,
    line_bundle_ch,
    quotient_by_trivial,
    sandwich_check,
    tilt_slope_nu,
)
from bgcert.chern import ZERO
from bgcert.geometry import default_chi_min, from_preset
from bgcert.rationals import exact_rational, to_jsonable

QUINTIC = from_preset("quintic")
O_H = {"ch0": 1, "c1": 1, "ch2H": "5/2", "ch3": "5/6"}  # to_jsonable(line_bundle_ch(5, 1))


class _SubFraction(Q):
    pass


# (owner, field, call with the scalar in place, a valid value, to_jsonable of the result there)
INT_FIELDS = [
    ("ChernVector", "ch0", lambda x: ChernVector(x, 1, 0, 0), 2,
     {"ch0": 2, "c1": 1, "ch2H": "0", "ch3": "0"}),
    ("ChernVector", "c1", lambda x: ChernVector(1, x, 0, 0), -1,
     {"ch0": 1, "c1": -1, "ch2H": "0", "ch3": "0"}),
    ("Candidate", "r", lambda x: Candidate(x, 0, Q(5, 2)), 1, {"r": 1, "c2H": 0, "ch2H": "5/2"}),
    ("Candidate", "c2H", lambda x: Candidate(1, x, Q(1, 2)), 2, {"r": 1, "c2H": 2, "ch2H": "1/2"}),
    ("ext1_cap", "ch0F", lambda x: ext1_cap(QUINTIC, Q(1, 2), x), 2, "3"),
    ("case3_bound", "ch0F", lambda x: case3_bound(QUINTIC, Q(1, 2), x), 2, "-7/6"),
    ("ch_from_chern_classes", "c1", lambda x: ch_from_chern_classes(5, 1, x, 0, 0), 1, O_H),
    ("line_bundle_ch", "n", lambda x: line_bundle_ch(5, x), 1, O_H),
    ("ideal_twist_point_ch", "length", lambda x: ideal_twist_point_ch(5, x), 1,
     {**O_H, "ch3": "-1/6"}),
    ("ideal_twist_curve_ch", "beta", lambda x: ideal_twist_curve_ch(5, x, 0), 1,
     {**O_H, "ch2H": "3/2", "ch3": "-1/6"}),
    ("ideal_twist_curve_ch", "chi", lambda x: ideal_twist_curve_ch(5, 1, x), 1,
     {**O_H, "ch2H": "3/2", "ch3": "-7/6"}),
    ("extend_by_trivial", "m", lambda x: extend_by_trivial(line_bundle_ch(5, 1), x), 1,
     {**O_H, "ch0": 2}),
    ("quotient_by_trivial", "m", lambda x: quotient_by_trivial(line_bundle_ch(5, 1), x), 1,
     {**O_H, "ch0": 0}),
    ("lemma1_slope_window", "r", lemma1_slope_window, 3, [[1, 3]]),
    ("lemma2_slope_window", "r", lemma2_slope_window, 3, []),
    ("PolarizedCY3", "c2XH", lambda x: PolarizedCY3(5, x, 4), 50,
     {"d": 5, "c2XH": 50, "dimH": 4, "castelnuovo_known": False}),
    ("PolarizedCY3", "dimH", lambda x: PolarizedCY3(5, 50, x), 4,
     {"d": 5, "c2XH": 50, "dimH": 4, "castelnuovo_known": False}),
    ("derive_dimH", "c2XH", lambda x: derive_dimH(5, x), 50, 4),
    ("default_chi_min", "beta", lambda x: default_chi_min(QUINTIC, x), 1, 0),
    ("CurveBound", "beta", lambda x: CurveBound(x, 0), 1, {"beta": 1, "chi_min": 0}),
    ("CurveBound", "chi_min", lambda x: CurveBound(1, x), -1, {"beta": 1, "chi_min": -1}),
    ("ChernVector.__mul__", "k", lambda x: line_bundle_ch(5, 1) * x, 2,
     {"ch0": 2, "c1": 2, "ch2H": "5", "ch3": "5/3"}),
    ("ChernVector.__rmul__", "k", lambda x: x * line_bundle_ch(5, 1), -1,
     {"ch0": -1, "c1": -1, "ch2H": "-5/2", "ch3": "-5/6"}),
]

RATIONAL_FIELDS = [
    ("ChernVector", "ch2H", lambda x: ChernVector(1, 1, x, 0), 3,
     {"ch0": 1, "c1": 1, "ch2H": "3", "ch3": "0"}),
    ("ChernVector", "ch3", lambda x: ChernVector(1, 1, 0, x), -2,
     {"ch0": 1, "c1": 1, "ch2H": "0", "ch3": "-2"}),
    ("Candidate", "ch2H", lambda x: Candidate(1, 0, x), 2, {"r": 1, "c2H": 0, "ch2H": "2"}),
    ("ext1_cap", "ch2H", lambda x: ext1_cap(QUINTIC, x, 2), 1, "1/2"),
    ("case3_bound", "ch2H", lambda x: case3_bound(QUINTIC, x, 2), 1, "-11/3"),
    ("tilt_slope_nu", "t", lambda x: tilt_slope_nu(QUINTIC, line_bundle_ch(5, 1), x), 1, "1/3"),
    ("sandwich_check", "t",
     lambda x: sandwich_check(QUINTIC, line_bundle_ch(5, -1), line_bundle_ch(5, 1), x), 1,
     {"ordered": True, "ch2H_sub": "5/2", "ch2H_quot": "5/2"}),
    ("sandwich_check(ZERO, ZERO)", "t", lambda x: sandwich_check(QUINTIC, ZERO, ZERO, x), 1,
     {"ordered": True, "ch2H_sub": "0", "ch2H_quot": "0"}),
    ("ch_from_chern_classes", "c2H", lambda x: ch_from_chern_classes(5, 1, 1, x, 0), 0, O_H),
    ("ch_from_chern_classes", "c3", lambda x: ch_from_chern_classes(5, 1, 1, 0, x), 1,
     {**O_H, "ch3": "4/3"}),
]


def _inexact(value):
    """Values equal to `value`, or a bool, that are not exactly an int or a Fraction."""
    return [float(value), bool(value), str(value), Decimal(value), _SubFraction(value)]


CASES = [pytest.param(kind, field, call, good, expected, id=f"{owner}.{field}")
         for kind, rows in (("int", INT_FIELDS), ("rational", RATIONAL_FIELDS))
         for owner, field, call, good, expected in rows]


@pytest.mark.parametrize("kind, field, call, good, expected", CASES)
def test_scalar_arguments_are_exactly_int_or_fraction(kind, field, call, good, expected):
    # An int and a Fraction give the same result; an int field takes no Fraction.
    exact = [good, Q(good)] if kind == "rational" else [good]
    for value in exact:
        assert to_jsonable(call(value)) == expected, value
    for value in _inexact(good) + ([Q(good)] if kind == "int" else []):
        with pytest.raises(TypeError, match=rf"^{field} must be an int"):
            call(value)


def test_exact_rational_keeps_a_fraction_and_turns_an_int_into_one():
    q = Q(5, 2)
    assert exact_rational(q, "q") is q
    assert type(exact_rational(5, "q")) is Q and exact_rational(5, "q") == 5


# Built by the public constructor, which turns an int ch2H or ch3 into a Fraction.
_vectors = st.builds(ChernVector, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                     st.integers(-9, 9) | st.fractions(max_denominator=60),
                     st.integers(-9, 9) | st.fractions(max_denominator=60))


@given(_vectors, _vectors, st.integers(-10**6, 10**6))
def test_vector_arithmetic_fields_are_exact_without_a_recheck(a, b, k):
    # The arithmetic and dual_ch skip the constructor's checks: int and Fraction
    # operations on checked fields give exactly int, int, Fraction, Fraction.
    for result in (a + b, a - b, -a, a * k, k * a, dual_ch(a)):
        assert type(result) is ChernVector
        assert [type(value) for value in result._values()] == [int, int, Q, Q]
    for bad in (True, 1.0):
        for product in (lambda: a * bad, lambda: bad * a):
            with pytest.raises(TypeError, match="^k must be an int"):
                product()


@pytest.mark.parametrize("other", [SimpleNamespace(ch0=1.5, c1=0, ch2H=0, ch3=0), 1, Q(1), None],
                         ids=["vector-like", "int", "fraction", "none"])
def test_vector_sum_and_difference_refuse_a_non_vector(other):
    # Only a checked vector is added: anything else is a TypeError, never a stored 2.5 rank.
    vector = line_bundle_ch(5, 1)
    for combine in (lambda: vector + other, lambda: vector - other,
                    lambda: other + vector, lambda: other - vector):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()
