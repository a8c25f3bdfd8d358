"""Value semantics of every record type: those of a frozen dataclass."""

import copy
import pickle

import pytest

from wblinks import (
    BlowupVariety,
    ClassificationRun,
    DivContraction,
    Fibration,
    FlipStep,
    Link,
    Rejected,
)
from wblinks._record import Record
from reference import E, H, CyclicQuotient, DivisorClass, MoriStructure

FIB = Fibration(2, (1, 1))
LINK = Link((FlipStep(1, (-1, -1, 1, 2)),), DivContraction((1, 1, 2, 3), 0, 1))

# (record, its fields by name, its repr); the package's records, then the
# reference forms of the tests, which hold to the same contract
RECORDS = [
    (
        BlowupVariety(3, (2, 1, 1)),
        {"dim": 3, "weights": (1, 1, 2)},
        "BlowupVariety(dim=3, weights=(1, 1, 2))",
    ),
    (
        FlipStep(1, (-1, -1, 0, 1)),
        {"wall": 1, "flip_weights": (-1, -1, 0, 1)},
        "FlipStep(wall=1, flip_weights=(-1, -1, 0, 1))",
    ),
    (FIB, {"base_dim": 2, "fiber_weights": (1, 1)}, "Fibration(base_dim=2, fiber_weights=(1, 1))"),
    (
        DivContraction((1, 1, 1, 2), 0, 1),
        {"target_weights": (1, 1, 1, 2), "center_dim": 0, "center_index": 1},
        "DivContraction(target_weights=(1, 1, 1, 2), center_dim=0, center_index=1)",
    ),
    (
        LINK,
        {"steps": LINK.steps, "end": LINK.end},
        "Link(steps=(FlipStep(wall=1, flip_weights=(-1, -1, 1, 2)),), "
        "end=DivContraction(target_weights=(1, 1, 2, 3), center_dim=0, center_index=1))",
    ),
    (
        Rejected("wall_not_terminal", 2, "flip_weights=(-2, -1, 1, 2)"),
        {"stage": "wall_not_terminal", "wall": 2, "detail": "flip_weights=(-2, -1, 1, 2)"},
        "Rejected(stage='wall_not_terminal', wall=2, detail='flip_weights=(-2, -1, 1, 2)')",
    ),
    (
        ClassificationRun(3, 3, {(1, 1, 1): Link((), FIB)}, 1),
        {"dim": 3, "bound": 3, "links": {(1, 1, 1): Link((), FIB)}, "jobs": 1},
        "ClassificationRun(dim=3, bound=3, links={(1, 1, 1): Link(steps=(), "
        "end=Fibration(base_dim=2, fiber_weights=(1, 1)))}, jobs=1)",
    ),
    (DivisorClass(1, -2), {"h": 1, "e": -2}, "DivisorClass(h=1, e=-2)"),
    (
        MoriStructure(E, DivisorClass(1, -2), H, DivisorClass(1, -1), ((H, DivisorClass(1, -1)),), True),
        {
            "eff_lo": E,
            "eff_hi": DivisorClass(1, -2),
            "mov_lo": H,
            "mov_hi": DivisorClass(1, -1),
            "nef_chambers": ((H, DivisorClass(1, -1)),),
            "mov_boundary_big": True,
        },
        "MoriStructure(eff_lo=DivisorClass(h=0, e=1), eff_hi=DivisorClass(h=1, e=-2), "
        "mov_lo=DivisorClass(h=1, e=0), mov_hi=DivisorClass(h=1, e=-1), "
        "nef_chambers=((DivisorClass(h=1, e=0), DivisorClass(h=1, e=-1)),), mov_boundary_big=True)",
    ),
    (
        CyclicQuotient(5, (-1, 3, 2)),
        {"index": 5, "weights": (2, 3, 4)},
        "CyclicQuotient(index=5, weights=(2, 3, 4))",
    ),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


def test_records_cover_every_record_type_of_the_package():
    # Importing wblinks imports every module of the package.
    defined = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("wblinks.")}
    covered = {type(r) for r, _, _ in RECORDS}
    assert {cls for cls in covered if cls.__module__.startswith("wblinks.")} == defined
    assert len(defined) == 7
    assert covered - defined == {DivisorClass, MoriStructure, CyclicQuotient}


def test_record_has_no_replace():
    assert not hasattr(Record, "_replace")
    assert not any(hasattr(r, "_replace") for r, _, _ in RECORDS)


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_fields_and_repr(record, fields, text):
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_asdict_gives_the_fields_in_order(record, fields, text):
    assert record._asdict() == fields
    assert list(record._asdict()) == list(fields)


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_equality_is_per_class_and_hash_is_the_field_tuple_hash(record, fields, text):
    twin = type(record)(**fields)
    assert twin == record and not twin != record
    assert record != tuple(fields.values())
    if isinstance(record, ClassificationRun):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "call",
    [
        lambda cls, values, first: cls(*values[:-1]),
        lambda cls, values, first: cls(*values, values[0]),
        lambda cls, values, first: cls(*values, no_such_field=1),
        lambda cls, values, first: cls(values[0], **{first: values[0]}),
        lambda cls, values, first: cls(*values, **{first: values[0]}),
    ],
    ids=["missing", "extra", "unknown", "twice", "twice-all-given"],
)
def test_constructor_refuses_a_field_missing_extra_unknown_or_given_twice(record, fields, text, call):
    cls = type(record)
    with pytest.raises(TypeError, match=cls.__name__):
        call(cls, list(fields.values()), next(iter(fields)))


def test_constructor_refusal_names_the_class_its_fields_and_each_fault():
    with pytest.raises(TypeError) as info:
        FlipStep(1, wall=1)
    assert str(info.value) == "FlipStep(wall, flip_weights): field 'wall' given twice; missing field 'flip_weights'"
    with pytest.raises(TypeError) as info:
        Link((), FIB, None)
    assert str(info.value) == "Link(steps, end): 3 positional values"
    with pytest.raises(TypeError) as info:
        Rejected("wall_not_terminal", wal=2, detail="")
    assert str(info.value) == "Rejected(stage, wall, detail): unknown field 'wal'; missing field 'wall'"


def test_records_of_different_classes_with_equal_fields_differ():
    assert FlipStep(1, (1, 2)) != Fibration(1, (1, 2))
    assert Fibration(1, (1, 2)) != FlipStep(1, (1, 2))
    assert Fibration(2, (1, 2)) != BlowupVariety(2, (1, 2))
    assert FlipStep(1, (1, 2)) != FlipStep(1, (1, 3))


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, text):
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("record,fields,text", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(record, fields, text, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == text

