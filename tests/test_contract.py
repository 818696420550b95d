"""The input contract of the record constructors in ``flipbraid.__all__``
and of ``word_from_pairs``.

Each constructor is called with valid arguments, then with each argument
in turn replaced by a hostile value: None, a string, a float, a bool and
a value of the wrong shape.  Such a call must be refused with one of the
exceptions that README's "Library API" lists for that name; the few that
are valid input are listed in ``ACCEPTED``.  ``InvariantResult`` and
``RelationReport`` are results, which the library builds and which check
nothing, so they are not called.
"""

import builtins
import re
from fractions import Fraction as F

import pytest

import flipbraid
from flipbraid import (BraidLetter, BraidWord, CanonicalSetup, Configuration,
                       FlipEvent, LabeledPoint, LoopGeometry, Matrix,
                       Trajectory, TrajectorySet, canonical_setup,
                       word_from_pairs)

from test_readme import section

CONFIG = canonical_setup(1).config
HOME = CONFIG.positions[4]
PATH = ((0, HOME), (F(1, 2), (F(1), F(1))), (1, HOME))

# name -> (callable, valid positional arguments)
CONSTRUCTORS = {
    "LabeledPoint": (LabeledPoint, (4, F(1), F(1, 100), F(4))),
    "Configuration": (Configuration, (CONFIG.points, (1, 2, 3))),
    "Trajectory": (Trajectory, (4, PATH)),
    "TrajectorySet": (TrajectorySet, (CONFIG, (Trajectory(4, PATH),))),
    "CanonicalSetup": (CanonicalSetup, (1, CONFIG)),
    "BraidLetter": (BraidLetter, (1, 2, -1)),
    "BraidWord": (BraidWord, (2, (BraidLetter(1, 2, 1),))),
    "LoopGeometry": (LoopGeometry, (F(1), F(1, 2), F(1, 4))),
    "FlipEvent": (FlipEvent, ((1, 3), (2, 4), F(1, 3), F(1, 2))),
    "Matrix": (Matrix, ([[1, 0], [0, 1]],)),
    "word_from_pairs": (word_from_pairs, (2, [(1, 2), (1, 2, -1)])),
}
UNCHECKED = {"InvariantResult", "RelationReport"}
HOSTILE = {"None": None, "str": "1/2", "float": 0.5, "bool": True,
           "shape": ((1,), (1, 2))}
# (name, argument position, hostile kind): valid input, and why
ACCEPTED = {
    **{("LabeledPoint", pos, "bool"): "a bool is an int, so exact"
       for pos in (1, 2, 3)},
    **{("LoopGeometry", pos, "bool"): "a bool is an int, so exact"
       for pos in (0, 1, 2)},
}


def listed_errors(name) -> tuple:
    """The exception classes named in README's "Library API" entry of
    ``name``."""
    entry = re.search(rf"^- `{name}` — (.*)$", section("Library API"),
                      re.M).group(1)
    names = set(re.findall(r"`(\w+Error)`", entry))
    assert names, f"README lists no exception for {name}"
    return tuple(getattr(builtins, n, None) or getattr(flipbraid, n)
                 for n in sorted(names))


def calls():
    for name, (build, args) in CONSTRUCTORS.items():
        for pos in range(len(args)):
            for kind, value in HOSTILE.items():
                hostile = args[:pos] + (value,) + args[pos + 1:]
                yield pytest.param(name, build, hostile, (name, pos, kind),
                                   id=f"{name}-{pos}-{kind}")


def test_table_covers_the_constructors_in_all():
    classes = {name for name in flipbraid.__all__
               if isinstance(getattr(flipbraid, name), type)
               and not issubclass(getattr(flipbraid, name), Exception)}
    assert classes == (CONSTRUCTORS.keys() - {"word_from_pairs"}) | UNCHECKED


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_valid_arguments_are_accepted(name):
    build, args = CONSTRUCTORS[name]
    build(*args)


@pytest.mark.parametrize("name, build, args, key", calls())
def test_hostile_argument_is_refused_with_a_listed_error(name, build, args,
                                                         key):
    if key in ACCEPTED:
        build(*args)
        return
    with pytest.raises(Exception) as err:
        build(*args)
    assert isinstance(err.value, listed_errors(name)), repr(err.value)


@pytest.mark.parametrize("build, message", [
    (lambda: LabeledPoint(None, 1, 2, 3), "point index must be int"),
    (lambda: LabeledPoint(4, 1, "2", 3), "point 4 y is not an exact"),
    (lambda: Trajectory("a", PATH), "trajectory index must be int"),
    (lambda: Trajectory(4, ((0, (1,)),)), "breakpoint 1 is not"),
    (lambda: Trajectory(4, PATH[:1] + ((0.5, HOME),) + PATH[1:]),
     "breakpoint 2 time is not an exact"),
    (lambda: TrajectorySet(None, ()), "initial must be a Configuration"),
    (lambda: TrajectorySet(CONFIG, (None,)), "trajectory 1 is not a"),
    (lambda: Configuration(((1, 2),), (1, 2, 3)), "point 1 is not a"),
    (lambda: Configuration(CONFIG.points, (1.0, 2, 3)), "boundary must be"),
    (lambda: CanonicalSetup("x", CONFIG), "strand count n must be int"),
    (lambda: CanonicalSetup(3, None), "config must be a Configuration"),
    (lambda: CanonicalSetup(3, CONFIG), "config has 1 mobile points"),
    (lambda: LoopGeometry("1", F(1, 2), F(1, 4)), "loop height is not"),
    (lambda: word_from_pairs(3, [5]), "letter 5: expected"),
    (lambda: FlipEvent(("a", "b"), ("c", "d")), "flip indices must be int"),
    (lambda: FlipEvent((True, 2), (3, 4)), "flip indices must be int"),
    (lambda: FlipEvent((1, 2), (3, 4), 0.5, 0.75), "'t_lo' and 't_hi'"),
])
def test_refusal_names_the_field(build, message):
    with pytest.raises((TypeError, ValueError), match=re.escape(message)):
        build()
