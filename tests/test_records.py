"""The value types are records: field-by-field equality within one field,
a hash that follows it, no attribute assignment, and copies that are equal."""

import copy
import pickle
from pathlib import Path

import pytest

from oddsig import serialize
from oddsig.descent import FamilyTriple, family_symmetries
from oddsig.exactnum import CyclotomicElement
from oddsig.plane import PlaneCurve, ProjMap
from oddsig.superell import QGonalCurve, QGonalMap, deck_map, family_curve, mirror_map, rotation_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RECORDS = (ProjMap, PlaneCurve, QGonalMap, QGonalCurve, FamilyTriple)


def fixture_values():
    values = []
    for path in sorted(FIXTURES.glob("*.json")):
        value = serialize.parse_input(path.read_text(encoding="utf-8")).value
        values.extend(value if isinstance(value, list) else [value])
    return values + [deck_map(3), rotation_map(3), mirror_map(3, 3, 3), family_curve(3, 3, 2)]


def test_records_keep_the_hash_contract_across_fields():
    values = fixture_values()
    assert {type(v) for v in values} == set(RECORDS)
    # every value and its lift into a field five times larger
    pool = [w for v in values for w in (v, v.lift_to(5 * v.order))]
    for i, v in enumerate(values):
        lifted = pool[2 * i + 1]
        assert v != lifted and len({v, lifted}) == 2
        assert lifted == v.lift_to(lifted.order) and hash(lifted) == hash(v.lift_to(lifted.order))
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b)
    # the repro: a triple and its lift are distinct keys
    t = FamilyTriple(1, 3, 5)
    assert t != t.lift_to(4) and {t: 1}.get(t.lift_to(4)) is None
    assert deck_map(3) != deck_map(3).lift_to(12)
    for record in RECORDS:
        value = next(v for v in values if type(v) is record)
        assert isinstance(value, tuple) and record._fields
        with pytest.raises(AttributeError):
            setattr(value, record._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1



def test_values_survive_copy_and_pickle():
    curve = family_curve(3, 3, 3)
    values = fixture_values() + family_symmetries() + [
        curve, deck_map(3, curve.order), rotation_map(3, curve.order), mirror_map(3, 3, 3, curve.order),
        curve.coeffs, *curve.coeffs]
    copies = [copy.copy, copy.deepcopy] + [
        lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
        for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for value in values:
        for make in copies:
            twin = make(value)
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
    for make in copies:
        with pytest.raises(AttributeError):
            make(CyclotomicElement.zeta(12, 1)).order = 4
