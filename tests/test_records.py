"""The value records: construction, defaults, equality, hashing, immutability."""

from fractions import Fraction

import pytest

from hyperappell.appell import AppellPoly, AppellSequence, CoeffSequence, coefficient_sequence
from hyperappell.clifford import Paravector
from hyperappell.operators import DegreeCheck, VerifyReport

HALF = Fraction(1, 2)

# (record built by keyword, the same fields given positionally, a record differing in one field)
FROZEN = [
    (
        CoeffSequence(n=2, shift=0, values=(Fraction(1), HALF)),
        CoeffSequence(2, 0, (Fraction(1), HALF)),
        CoeffSequence(2, 1, (Fraction(1), HALF)),
    ),
    (
        Paravector(x0=1, vec=(2, HALF)),
        Paravector(Fraction(1), (Fraction(2), HALF)),
        Paravector(1, (2, 0)),
    ),
    (
        DegreeCheck(k=3, monogenic=True, ladder=False, witness=None),
        DegreeCheck(3, True, False),
        DegreeCheck(3, True, True),
    ),
    (
        VerifyReport(n=2, family="canonical", results=(DegreeCheck(0, True, True),),
                     intertwining=True, shift=0),
        VerifyReport(2, "canonical", (DegreeCheck(0, True, True),), True),
        VerifyReport(2, "canonical", (DegreeCheck(0, True, True),), False),
    ),
]


@pytest.mark.parametrize("record, same, other", FROZEN, ids=[type(f[0]).__name__ for f in FROZEN])
def test_frozen_record_value_semantics(record, same, other):
    assert record == same and not record != same
    assert record != other and not record == other
    assert hash(record) == hash(same)
    assert {record, same, other} == {record, other}
    with pytest.raises(AttributeError):
        setattr(record, next(iter(type(record).__annotations__)), None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same


def test_record_defaults():
    assert DegreeCheck(4) == DegreeCheck(4, None, None, None)
    check = DegreeCheck(4)
    assert (check.monogenic, check.ladder, check.witness, check.passed) == (None, None, None, True)
    report = VerifyReport(1, "hermite", [])
    assert (report.intertwining, report.shift, report.ok) == (None, 0, True)
    assert report.to_json() == {"n": 1, "family": "hermite", "s": 0, "ok": True, "results": []}


def test_paravector_coerces_to_fractions():
    x = Paravector(x0=3, vec=[1, "1/2"])
    assert x.x0 == 3 and type(x.x0) is Fraction
    assert x.vec == (1, HALF) and type(x.vec) is tuple
    assert all(type(v) is Fraction for v in x.vec)
    assert x.n == 2 and x.conjugate() == Paravector(3, (-1, -HALF))


def test_coeff_sequence_properties():
    cs = CoeffSequence(n=2, shift=0, values=(Fraction(1), HALF, HALF))
    assert cs.m == 2 and cs == coefficient_sequence(2, 2)
    assert cs.with_value(1, 7) == CoeffSequence(2, 0, (Fraction(1), Fraction(7), HALF))


def test_appell_sequence_is_a_mutable_value():
    coeffs = coefficient_sequence(2, 1)
    polys = [AppellPoly(0, {(0, 0): Fraction(1)}), AppellPoly(1, {(1, 0): Fraction(1)})]
    seq = AppellSequence(family="canonical", polys=polys, coeffs=coeffs)
    assert seq.lam is None
    assert seq == AppellSequence("canonical", list(polys), coeffs, None)
    assert seq != AppellSequence("bernoulli", list(polys), coeffs)
    assert seq != AppellSequence("canonical", polys[:1], coeffs)
    assert (seq.n, seq.m, seq.shift) == (2, 1, 0)
    with pytest.raises(TypeError):
        hash(seq)
    seq.family = "hermite"
    assert seq.family == "hermite"
    assert repr(seq).startswith("AppellSequence(family='hermite', polys=[")
