"""The record contract: a record is built from its fields positionally or by
keyword, is immutable, compares and hashes field by field with records of its
own class only, has the `Name(field=value, ...)` repr, and serializes its
fields in declaration order.
"""

import ast
import copy
import pickle
from fractions import Fraction as Q
from pathlib import Path

import pytest

import bgcert
from bgcert import certifier
from bgcert.chern import ZERO, line_bundle_ch
from bgcert.geometry import CurveBound, PolarizedCY3, from_preset
from bgcert.rationals import Record, to_jsonable
from bgcert.stability import sandwich_check

QUINTIC = from_preset("quintic")

# (a record, its repr, and the keys of its to_jsonable form in field order)
RECORDS = [
    pytest.param(
        lambda: certifier.case1_check(QUINTIC),
        "Case1Trace(holds_for_all_lengths=True, equality_lengths=(0,), "
        "equality_value=Fraction(5, 6))",
        ("holds_for_all_lengths", "equality_lengths", "equality_value"),
        id="Case1Trace",
    ),
    pytest.param(
        lambda: certifier.case2_check(QUINTIC)[1],
        "Case2Row(beta=2, chi_min=-1, ch3_bound=Fraction(-1, 6), ok=True, source='default')",
        ("beta", "chi_min", "ch3_bound", "ok", "source"),
        id="Case2Row",
    ),
    pytest.param(
        lambda: certifier._case3_trace(QUINTIC),
        "Case3Trace(min_ch2H=Fraction(1, 2), ch0F=2, ext1_cap=Fraction(3, 1), "
        "worst_bound=Fraction(-7, 6), impossible=False, ok=True)",
        ("min_ch2H", "ch0F", "ext1_cap", "worst_bound", "impossible", "ok"),
        id="Case3Trace",
    ),
    pytest.param(
        lambda: certifier.Candidate(2, 2, Q(1, 2)),
        "Candidate(r=2, c2H=2, ch2H=Fraction(1, 2))",
        ("r", "c2H", "ch2H"),
        id="Candidate",
    ),
    pytest.param(
        lambda: certifier.check_ineq_1_2(line_bundle_ch(5, 1)),
        "IneqReport(lhs=Fraction(5, 6), rhs=Fraction(5, 6), holds=True, equality=True)",
        ("lhs", "rhs", "holds", "equality"),
        id="IneqReport",
    ),
    pytest.param(
        lambda: certifier.hypothesis_checks(QUINTIC)[1],
        "HypothesisCheck(mode=<HypothesisMode.EVEN: 'even_variant'>, applicable=False, "
        "dimH=4, threshold=Fraction(1, 3), holds=False)",
        ("mode", "applicable", "dimH", "threshold", "holds"),
        id="HypothesisCheck",
    ),
    pytest.param(
        lambda: certifier.certify_theorem(PolarizedCY3.derive(2, 20)),
        "Certificate(geometry=PolarizedCY3(d=2, c2XH=20, dimH=1, castelnuovo_known=False), "
        "hypothesis_mode=<HypothesisMode.FULL: 'full_1_3'>, "
        "hypothesis=HypothesisCheck(mode=<HypothesisMode.FULL: 'full_1_3'>, applicable=True, "
        "dimH=1, threshold=Fraction(-2, 3), holds=True), hypothesis_ok=True, "
        "castelnuovo_status=<CastelnuovoStatus.ASSUMED: 'assumed'>, "
        "case1=Case1Trace(holds_for_all_lengths=True, equality_lengths=(0,), "
        "equality_value=Fraction(1, 3)), "
        "case2=(), case3=Case3Trace(min_ch2H=Fraction(1, 1), ch0F=2, ext1_cap=Fraction(-1, "
        "1), worst_bound=Fraction(-8, 3), impossible=True, ok=True), "
        "candidates=(Candidate(r=1, c2H=0, ch2H=Fraction(1, 1)),), violated_betas=(), "
        "verdict=<Verdict.CONDITIONAL: 'CONDITIONAL'>)",
        ("geometry", "hypothesis_mode", "hypothesis", "hypothesis_ok", "castelnuovo_status",
         "case1", "case2", "case3", "candidates", "violated_betas", "verdict"),
        id="Certificate",
    ),
    pytest.param(
        lambda: line_bundle_ch(5, 1),
        "ChernVector(ch0=1, c1=1, ch2H=Fraction(5, 2), ch3=Fraction(5, 6))",
        ("ch0", "c1", "ch2H", "ch3"),
        id="ChernVector",
    ),
    pytest.param(
        lambda: QUINTIC,
        "PolarizedCY3(d=5, c2XH=50, dimH=4, castelnuovo_known=True)",
        ("d", "c2XH", "dimH", "castelnuovo_known"),
        id="PolarizedCY3",
    ),
    pytest.param(
        lambda: CurveBound(2, -1),
        "CurveBound(beta=2, chi_min=-1)",
        ("beta", "chi_min"),
        id="CurveBound",
    ),
    pytest.param(
        lambda: sandwich_check(QUINTIC, ZERO, line_bundle_ch(5, 1), 1),
        "SandwichReport(ordered=True, ch2H_sub=Fraction(0, 1), ch2H_quot=Fraction(5, 2))",
        ("ordered", "ch2H_sub", "ch2H_quot"),
        id="SandwichReport",
    ),
]


@pytest.mark.parametrize("make, text, keys", RECORDS)
def test_record_contract(make, text, keys):
    record = make()
    cls = type(record)
    values = [getattr(record, name) for name in cls.__slots__]
    twin = cls(**dict(zip(cls.__slots__, values)))
    assert twin == record and hash(twin) == hash(record)
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record

    other = object.__new__(type("Other", (Record,), {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(other, name, value)
    assert other != record and record != other  # same fields and values, another class
    assert record != tuple(values)
    for name, value in zip(cls.__slots__, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in cls.__slots__] == values
    assert repr(record) == text
    assert tuple(to_jsonable(record)) == keys

    names, fields = cls.__slots__, dict(zip(cls.__slots__, values))
    too_many = _construction_error(cls, *values, values[-1])
    # Record.__init__ lists the fields; a checked record's own signature gives the count.
    assert ("positional arguments" if "__init__" in vars(cls) else f"({', '.join(names)})") in too_many
    missing = _construction_error(cls, **dict(zip(names[1:], values[1:])))
    assert f"'{names[0]}'" in missing and "missing" in missing
    unknown = _construction_error(cls, *values, colour=None)
    assert "'colour'" in unknown and "unexpected" in unknown
    twice = _construction_error(cls, values[0], **fields)
    assert f"'{names[0]}'" in twice and "multiple values" in twice


def _construction_error(cls, *values, **named) -> str:
    with pytest.raises(TypeError) as info:
        cls(*values, **named)
    message = str(info.value)
    assert message.startswith(cls.__name__), message
    return message


def test_every_record_class_is_in_the_contract():
    sampled = {param.values[0]().__class__ for param in RECORDS}
    program = {c for c in Record.__subclasses__() if c.__module__.startswith("bgcert.")}
    assert sampled == program and len(sampled) == 11


def test_only_records_with_checks_define_init():
    program = {c for c in Record.__subclasses__() if c.__module__.startswith("bgcert.")}
    own_init = {c.__name__ for c in program if "__init__" in vars(c)}
    assert own_init == {"Candidate", "ChernVector", "PolarizedCY3", "CurveBound"}


def test_only_record_init_writes_a_field():
    # Every field is set in one place, the class Record (its __init__ and its trusted
    # constructor); no module sets one by hand or through a slot's setter.
    package = Path(bgcert.__file__).parent
    writes = ("object.__setattr__", ".__set__(", "_setters")
    found = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = [n for n, line in enumerate(text.splitlines(), 1)
                 if any(write in line for write in writes)]
        if path.name == "rationals.py":
            record = next(node for node in ast.parse(text).body
                          if isinstance(node, ast.ClassDef) and node.name == "Record")
            lines = [n for n in lines if not record.lineno <= n <= record.end_lineno]
        found += [f"{path.name}:{n}" for n in lines]
    assert found == []


@pytest.mark.parametrize("make, text, keys", RECORDS)
def test_trusted_and_checked_builds_agree(make, text, keys):
    # Record._trusted skips a checked record's __init__, and builds the same record.
    record = make()
    cls = type(record)
    values = [getattr(record, name) for name in cls.__slots__]
    trusted, checked = cls._trusted(*values), cls(*values)
    assert type(trusted) is cls and trusted == checked == record
    assert hash(trusted) == hash(checked) and repr(trusted) == repr(checked) == text
    assert to_jsonable(trusted) == to_jsonable(checked)
    assert [getattr(trusted, name) for name in cls.__slots__] == values


def test_a_record_subclass_gets_its_own_setters():
    class Row(certifier.Case2Row):  # no __slots__ of its own: Case2Row's fields
        pass

    class Pair(Record):
        __slots__ = ("beta", "tag")

    class Repair(Pair):  # the same names again: new slots, which Pair's setters do not reach
        __slots__ = ("beta", "tag")

    values = (1, 0, Q(-1, 6), True, "default")
    assert Row._setters is not certifier.Case2Row._setters and len(Row._setters) == 5
    for built in (Row(*values), Row._trusted(*values)):
        assert type(built) is Row and built._values() == values
        assert built != certifier.Case2Row(*values)
        assert repr(built).endswith("Row(beta=1, chi_min=0, ch3_bound=Fraction(-1, 6), "
                                    "ok=True, source='default')")
    for built in (Repair(2, "x"), Repair._trusted(2, "x")):
        assert built._values() == (2, "x") and repr(built).endswith("Repair(beta=2, tag='x')")
        with pytest.raises(AttributeError):
            Pair.beta.__get__(built)  # the shadowed slot stays unset


def test_a_record_subclass_keeps_its_bases_fields():
    class Sub(certifier.Case2Row):  # no fields of its own
        __slots__ = ()

    class Pair(Record):
        __slots__ = ("beta", "tag")

    class Noted(Pair):  # one field more, after its base's
        __slots__ = ("note",)

    values = (1, 0, Q(-1, 6), True, "default")
    sub = Sub(*values)
    assert Sub._fields == certifier.Case2Row._fields and sub._values() == values
    assert sub == Sub(*values[:2], **dict(zip(Sub._fields[2:], values[2:])))
    assert hash(sub) == hash(Sub._trusted(*values)) and sub != certifier.Case2Row(*values)
    assert repr(sub).endswith("Sub(beta=1, chi_min=0, ch3_bound=Fraction(-1, 6), "
                              "ok=True, source='default')")
    assert to_jsonable(sub) == to_jsonable(certifier.Case2Row(*values))
    noted = Noted(2, "x", note="y")
    assert Noted._fields == ("beta", "tag", "note") and noted == Noted(2, "x", "y")
    assert repr(noted).endswith("Noted(beta=2, tag='x', note='y')")
    assert to_jsonable(noted) == {"beta": 2, "tag": "x", "note": "y"}
    with pytest.raises(TypeError, match="Noted\\(\\) missing field 'note'"):
        Noted(2, "x")


@pytest.mark.parametrize("make, text, keys", RECORDS)
def test_positional_keyword_and_mixed_builds_agree(make, text, keys):
    # All by position takes Record.__init__'s fast path; any keyword takes the checked one.
    record = make()
    cls = type(record)
    names, values = cls.__slots__, [getattr(record, name) for name in cls.__slots__]
    builds = [cls(*values[:k], **dict(zip(names[k:], values[k:]))) for k in range(len(names) + 1)]
    for built in builds:
        assert built == record and hash(built) == hash(record) and repr(built) == text


def test_record_init_messages():
    row = (1, 0, Q(-1, 6), True, "default")
    too_many = ("Case2Row() takes 5 fields (beta, chi_min, ch3_bound, ok, source) "
                "but 6 values were given")
    cases = [
        ((*row, None), {}, too_many),
        (row[:4], {}, "Case2Row() missing field 'source'"),
        ((), {}, "Case2Row() missing field 'beta'"),
        (row, {"colour": None}, "Case2Row() got an unexpected field 'colour'"),
        (row[:4], {"beta": 1}, "Case2Row() got multiple values for field 'beta'"),
        ((*row, None), {"colour": None}, too_many),
    ]
    for values, named, message in cases:
        with pytest.raises(TypeError) as info:
            certifier.Case2Row(*values, **named)
        assert str(info.value) == message
