"""The value records: repr text, equality and hash by field, immutability,
and the construction checks with their exact exception messages."""

import pytest

from diffcolor import (BoundReport, CaterpillarShape, EvaluatedLabeling,
                       ExactResult, Labeling, MarkingState, SchemeResult,
                       SpiderShape, Tree)

LAB = Labeling((2, 1, 3))

# (class, fields by keyword in declaration order, repr text)
RECORDS = [
    (Tree, dict(n=3, edges=((0, 1), (1, 2))),
     "Tree(n=3, edges=((0, 1), (1, 2)))"),
    (CaterpillarShape,
     dict(leg_counts=(1, 0, 2), spine_vertices=(0, 1, 2), leg_vertices=((3,), (), (4, 5))),
     "CaterpillarShape(leg_counts=(1, 0, 2), spine_vertices=(0, 1, 2), "
     "leg_vertices=((3,), (), (4, 5)))"),
    (SpiderShape, dict(path_lengths=(1, 2), center=0, path_vertices=((1,), (2, 3))),
     "SpiderShape(path_lengths=(1, 2), center=0, path_vertices=((1,), (2, 3)))"),
    (Labeling, dict(labels=(2, 1, 3)), "Labeling(labels=(2, 1, 3))"),
    (EvaluatedLabeling, dict(labeling=LAB, value=1),
     "EvaluatedLabeling(labeling=Labeling(labels=(2, 1, 3)), value=1)"),
    (SchemeResult,
     dict(scheme="spider-even", labeling=EvaluatedLabeling(LAB, 1), guarantee=1,
          optimal="proved"),
     "SchemeResult(scheme='spider-even', labeling=EvaluatedLabeling("
     "labeling=Labeling(labels=(2, 1, 3)), value=1), guarantee=1, "
     "optimal='proved')"),
    (MarkingState,
     dict(low_spine=frozenset({0}), high_spine=frozenset({1}), middle=2,
          low_legs=frozenset(), high_legs=frozenset({3}), middle_low_legs=(4,),
          middle_high_legs=(5,), pseudo_leg_owner=((1, 2),)),
     "MarkingState(low_spine=frozenset({0}), high_spine=frozenset({1}), middle=2, "
     "low_legs=frozenset(), high_legs=frozenset({3}), middle_low_legs=(4,), "
     "middle_high_legs=(5,), pseudo_leg_owner=((1, 2),))"),
    (BoundReport, dict(entries=(("thm1", 2), ("thm3", 2))),
     "BoundReport(entries=(('thm1', 2), ('thm3', 2)))"),
    (ExactResult, dict(dc=2, witness=Labeling((1, 3, 2)), nodes=7, millis=0),
     "ExactResult(dc=2, witness=Labeling(labels=(1, 3, 2)), nodes=7, millis=0)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_equal_fields_equal_records(self, cls, fields, text):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_not_equal_to_a_tuple(self, cls, fields, text):
        values = tuple(fields.values())
        assert cls(**fields) != values
        assert values != cls(**fields)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_fields_cannot_be_assigned(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_spider_level_cache_stays_out_of_equality():
    # Tree's caches: tests/test_graph.py::TestDerivedCache::test_caches_stay_out_of_eq_hash_repr
    s, t = (SpiderShape((1, 2), 0, ((1,), (2, 3))) for _ in range(2))
    assert s.level_counts == (1, 2, 1) and "level_counts" in s.__dict__
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


# (class, constructor arguments, exception type name, exact message)
REJECTED = [
    (Tree, (0, ()), "ValueError", "vertex count must be positive"),
    (Tree, (2, ((1, 1),)), "_EdgeError", "self-loop at vertex 1"),
    (Tree, (2, ((0, 2),)), "_EdgeError", "endpoint out of range 0..1: (0, 2)"),
    (Tree, (3, ((0, 1), (1, 0))), "_EdgeError", "duplicate edge (0, 1)"),
    (CaterpillarShape, ((), (), ()), "ValueError",
     "caterpillar needs at least one spine vertex"),
    (CaterpillarShape, ((1,), (0, 1), ((1,),)), "ValueError",
     "spine and leg sequences must have equal length"),
    (CaterpillarShape, ((2,), (0,), ((1,),)), "ValueError",
     "leg counts must match leg vertex lists"),
    (CaterpillarShape, ((-1,), (0,), ((),)), "ValueError",
     "leg counts must match leg vertex lists"),
    (CaterpillarShape, ((0, 1), (0, 1), ((), (2,))), "ValueError",
     "spine endpoints must have at least one leg"),
    (CaterpillarShape, ((1,), (0,), ((2,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (SpiderShape, ((), 0, ()), "ValueError", "spider needs at least one path"),
    (SpiderShape, ((1,), 0, ((1,), (2,))), "ValueError",
     "path length and vertex sequences must match"),
    (SpiderShape, ((0,), 0, ((),)), "ValueError",
     "path lengths must be positive and match vertex lists"),
    (SpiderShape, ((2,), 0, ((1,),)), "ValueError",
     "path lengths must be positive and match vertex lists"),
    (SpiderShape, ((1,), 0, ((2,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (Tree, (3.0, ((0, 1), (1, 2))), "ValueError", "vertex count must be an integer, got 3.0"),
    (Tree, (True, ()), "ValueError", "vertex count must be an integer, got True"),
    (CaterpillarShape, ((1,), (0.0,), ((1,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (SpiderShape, ((1,), False, ((True,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
]


@pytest.mark.parametrize("cls, args, kind, message", REJECTED)
def test_construction_checks(cls, args, kind, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert type(info.value).__name__ == kind and str(info.value) == message


# (positional values, named values) that do not give EvaluatedLabeling's
# two fields once each
MISGIVEN = [
    ((LAB,), {}),
    ((LAB, 1), {"value": 1}),
    ((LAB,), {"labeling": LAB}),
    ((LAB,), {"value": 1, "weight": 2}),
    ((), {"labeling": LAB, "weight": 2}),
    ((LAB, 1, 2), {}),
]


@pytest.mark.parametrize("values, named", MISGIVEN, ids=[
    "missing", "repeated-last", "repeated-first", "unknown", "unknown-for-missing",
    "too-many-positional"])
def test_each_field_given_once(values, named):
    with pytest.raises(TypeError) as info:
        EvaluatedLabeling(*values, **named)
    assert str(info.value) == ("EvaluatedLabeling takes the fields (labeling, value), "
                               "each once, by position or by name")


def test_fields_by_position_and_name_mixed():
    assert EvaluatedLabeling(LAB, value=1) == EvaluatedLabeling(value=1, labeling=LAB)
