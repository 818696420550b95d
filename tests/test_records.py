"""The contract of the package's 13 record types.

Each is built by keyword with its defaults, prints as
``Name(field=value, ...)`` and survives ``pickle``.  The value records
compare and hash as their field tuples, the formerly frozen ones refuse
assignment to a field, and a braid word is not a tuple.
"""

import pickle
from fractions import Fraction as F

import pytest

from flipbraid.braids import (BraidLetter, BraidWord, CanonicalSetup,
                              InvariantResult, LoopGeometry, RelationInstance,
                              RelationReport, canonical_setup)
from flipbraid.delaunay import FlipEvent, apply_flip, build_delaunay
from flipbraid.fixtures import SuiteResult
from flipbraid.geometry import Configuration, LabeledPoint
from flipbraid.kinetics import Trajectory, TrajectorySet
from flipbraid.linalg import Matrix

CONFIG = canonical_setup(1).config
HOME = CONFIG.positions[4]
PATH = ((0, HOME), (F(1, 2), (F(1), F(1))), (1, HOME))
LETTER = BraidLetter(i=1, j=2, power=-1)
WORD = BraidWord(n=2, letters=(LETTER,))

# (record type, every field with its value in order, the fields left to
# their defaults)
RECORDS = [
    (LabeledPoint, dict(index=4, x=F(1), y=F(1, 100), zeta=F(4)), ()),
    (Configuration, dict(points=CONFIG.points, boundary=(1, 2, 3)), ()),
    (FlipEvent, dict(removed=(1, 3), inserted=(2, 4), t_lo=None, t_hi=None),
     ("t_lo", "t_hi")),
    (Trajectory, dict(index=4, breakpoints=PATH), ()),
    (TrajectorySet, dict(initial=CONFIG, trajectories=(Trajectory(4, PATH),)),
     ()),
    (BraidLetter, dict(i=1, j=2, power=-1), ()),
    (BraidWord, dict(n=2, letters=(LETTER,)), ()),
    (LoopGeometry, dict(height=F(1), depth=F(1, 3), offset=F(1, 4)),
     ("height", "offset")),
    (CanonicalSetup, dict(n=1, config=CONFIG), ()),
    (InvariantResult, dict(word=WORD, matrix=Matrix.identity(3),
                           basis=((1, 2, 3),), flip_log=((),)), ()),
    (RelationInstance, dict(name="inverse b(1,2)", ok=True, lhs=None,
                            rhs=None), ("lhs", "rhs")),
    (RelationReport, dict(family="inverse", n=2, instances=[]),
     ("instances",)),
    (SuiteResult, dict(name="pentagon", ok=True, detail=""), ("detail",)),
]
# the fields that a record's constructor computes from the others
DERIVED = {CanonicalSetup: dict(home=build_delaunay(CONFIG))}
IDENTITY_EQUAL = {RelationReport}
MUTABLE = {InvariantResult, RelationReport}
VALUES = [r for r in RECORDS if r[0] not in IDENTITY_EQUAL]
FROZEN = [r for r in RECORDS if r[0] not in MUTABLE]


def _build(cls, fields, defaulted):
    """The record, built by keyword from its fields less the defaulted
    ones."""
    return cls(**{name: value for name, value in fields.items()
                  if name not in defaulted})


def _all_fields(cls, fields):
    """Every field of the record with its value, the derived ones last."""
    return {**fields, **DERIVED.get(cls, {})}


def _ids(records):
    return [cls.__name__ for cls, _, _ in records]


def test_thirteen_records():
    assert len({cls for cls, _, _ in RECORDS}) == 13


@pytest.mark.parametrize("cls, fields, defaulted", RECORDS,
                         ids=_ids(RECORDS))
def test_built_by_keyword_with_defaults_and_printed_by_field(cls, fields,
                                                             defaulted):
    record = _build(cls, fields, defaulted)
    for name, value in _all_fields(cls, fields).items():
        assert getattr(record, name) == value, name
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in _all_fields(cls, fields).items()
    ) + ")"
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


@pytest.mark.parametrize("cls, fields, defaulted", VALUES, ids=_ids(VALUES))
def test_value_records_compare_and_hash_as_their_fields(cls, fields,
                                                        defaulted):
    a, b = _build(cls, fields, defaulted), _build(cls, fields, defaulted)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(_all_fields(cls, fields).values()))


@pytest.mark.parametrize("cls, fields, defaulted", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_field_assignment(cls, fields, defaulted):
    record = _build(cls, fields, defaulted)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


def test_relation_reports_do_not_share_their_instances():
    a, b = RelationReport("inverse", 2), RelationReport("inverse", 2)
    a.instances.append(RelationInstance("x", True))
    assert b.instances == [] and a.ok and a.failures() == []


def test_braid_word_is_not_a_tuple():
    assert not isinstance(WORD, tuple)
    for operation in (lambda: WORD * 2, lambda: WORD + WORD,
                      lambda: len(WORD)):
        with pytest.raises(TypeError):
            operation()


def test_inapplicable_flip_message_prints_the_event():
    """The "does not apply" message embeds the event's repr, unchanged."""
    missing = FlipEvent((2, 4), (1, 3), F(1, 3), F(1, 2))
    with pytest.raises(ValueError) as err:
        apply_flip(frozenset({(1, 2, 3), (1, 3, 4)}), missing)
    assert str(err.value) == (
        "flip FlipEvent(removed=(2, 4), inserted=(1, 3),"
        " t_lo=Fraction(1, 3), t_hi=Fraction(1, 2)) does not apply:"
        " {(2, 3, 4), (1, 2, 4)} not present")
    present = FlipEvent((1, 3), (2, 4))
    with pytest.raises(ValueError) as err:
        apply_flip(frozenset({(1, 2, 3), (1, 3, 4), (1, 2, 4)}), present)
    assert str(err.value) == (
        "flip FlipEvent(removed=(1, 3), inserted=(2, 4), t_lo=None,"
        " t_hi=None) does not apply: {(2, 3, 4), (1, 2, 4)} already present")
