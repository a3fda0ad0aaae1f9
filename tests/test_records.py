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
    (CaterpillarShape, dict(spine_vertices=(0, 1, 2), leg_vertices=((3,), (), (4, 5))),
     "CaterpillarShape(spine_vertices=(0, 1, 2), leg_vertices=((3,), (), (4, 5)))"),
    (SpiderShape, dict(center=0, path_vertices=((1,), (2, 3))),
     "SpiderShape(center=0, path_vertices=((1,), (2, 3)))"),
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
     dict(low_spine=(0,), high_spine=(1,), middle=2, low_legs=(), high_legs=(3,),
          middle_low_legs=(4,), middle_high_legs=(5,), pseudo_leg_owner=((1, 2),)),
     "MarkingState(low_spine=(0,), high_spine=(1,), middle=2, low_legs=(), "
     "high_legs=(3,), middle_low_legs=(4,), middle_high_legs=(5,), "
     "pseudo_leg_owner=((1, 2),))"),
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
    # n_even reads the levels from path_lengths, which the constructor reads and caches
    s, t = (SpiderShape(0, ((1,), (2, 3))) for _ in range(2))
    assert s.path_lengths == (1, 2) and "path_lengths" in s.__dict__
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


@pytest.mark.parametrize("cls, args, fields", [
    (CaterpillarShape, ((1.0,), (0,), ((1,),)), "spine_vertices, leg_vertices"),
    (SpiderShape, ((1.0, 1), 0, ((1,), (2,))), "center, path_vertices"),
], ids=["caterpillar", "spider"])
def test_counts_are_not_fields(cls, args, fields):
    # a count given as a field, the old first one, is refused by Record
    with pytest.raises(TypeError) as info:
        cls(*args)
    assert str(info.value) == (f"{cls.__name__} takes the fields ({fields}), "
                               "each once, by position or by name")


def test_counts_are_read_from_the_vertex_lists():
    cat = CaterpillarShape((0, 1, 2), ((3,), (), (4, 5)))
    spider = SpiderShape(0, ((1,), (2, 3)))
    assert cat.leg_counts == (1, 0, 2) == tuple(map(len, cat.leg_vertices))
    assert spider.path_lengths == (1, 2) == tuple(map(len, spider.path_vertices))
    for shape, name in ((cat, "leg_counts"), (spider, "path_lengths")):
        bare = type(shape)(*shape._values())
        del bare.__dict__[name]  # the cached counts, as if never read
        assert name in shape.__dict__ and name not in repr(shape)
        assert shape == bare and hash(shape) == hash(bare) and repr(shape) == repr(bare)


# (class, constructor arguments, exception type name, exact message)
REJECTED = [
    (Tree, (0, ()), "ValueError", "vertex count must be positive"),
    (Tree, (2, ((1, 1),)), "_EdgeError", "self-loop at vertex 1"),
    (Tree, (2, ((0, 2),)), "_EdgeError", "endpoint out of range 0..1: (0, 2)"),
    (Tree, (3, ((0, 1), (1, 0))), "_EdgeError", "duplicate edge (0, 1)"),
    (CaterpillarShape, ((), ()), "ValueError",
     "caterpillar needs at least one spine vertex"),
    (CaterpillarShape, ((0, 1), ((1,),)), "ValueError",
     "spine and leg sequences must have equal length"),
    (CaterpillarShape, ((0, 1), ((2,), ())), "ValueError",  # legless right endpoint
     "spine endpoints must have at least one leg"),
    (CaterpillarShape, ((0,), ((0,),)), "ValueError",  # a spine vertex as its own leg
     "shape vertices must be exactly 0..n-1"),
    (CaterpillarShape, ((0, 1), ((), (2,))), "ValueError",
     "spine endpoints must have at least one leg"),
    (CaterpillarShape, ((0,), ((2,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (SpiderShape, (0, ()), "ValueError", "spider needs at least one path"),
    (SpiderShape, (0, ((1,), ())), "ValueError", "spider paths must be non-empty"),
    (SpiderShape, (0, ((),)), "ValueError", "spider paths must be non-empty"),
    (SpiderShape, (0, ((1, 2), (2,))), "ValueError",  # a vertex on two paths
     "shape vertices must be exactly 0..n-1"),
    (SpiderShape, (0, ((2,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (Tree, (3.0, ((0, 1), (1, 2))), "ValueError", "vertex count must be an integer, got 3.0"),
    (Tree, (True, ()), "ValueError", "vertex count must be an integer, got True"),
    (CaterpillarShape, ((0.0,), ((1,),)), "ValueError",
     "shape vertices must be exactly 0..n-1"),
    (SpiderShape, (False, ((True,),)), "ValueError",
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
