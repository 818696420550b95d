"""Pure braid words, canonical point motions, and the matrix invariant.

A word in the generators b(i,j) is realized by moving point i+3 around the
home position of point j+3 on a rectangular loop, one letter at a time.
Each letter is a closed loop, so its flip sequence starts and ends at the
home triangulation and the whole word's matrix is the product of the
per-letter matrices, later letters on the left.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .delaunay import DegenerateConfigurationError, build_delaunay
from .flips import flip_sequence_to_json, loop_product
from .geometry import Configuration, LabeledPoint
from .kinetics import (Trajectory, TrajectorySet, UnresolvedEventError,
                       exact_flip_sequence, extract_flip_sequence)
from .linalg import Matrix, as_rational, char_poly, require_rational


class WordSyntaxError(ValueError):
    """A braid word failed to parse; the message carries the position."""


class _LetterFields(NamedTuple):
    i: int
    j: int
    power: int  # +1 or -1


class BraidLetter(_LetterFields):
    """The generator b(i,j), 1 <= i < j, or its inverse; other strands, any
    other power, or a strand or power that is not an ``int``, is refused."""

    __slots__ = ()

    def __new__(cls, i, j, power):
        if {type(i), type(j), type(power)} != {int}:
            raise TypeError(f"letter {(i, j, power)!r}: strands and power"
                            " must be int")
        if not 1 <= i < j:
            raise ValueError(f"letter b({i},{j}): invalid strands, need"
                             " 1 <= i < j")
        if power not in (1, -1):
            raise ValueError(f"letter b({i},{j}): power must be +1 or -1,"
                             f" got {power!r}")
        return super().__new__(cls, i, j, power)

    def __str__(self):
        suffix = "^-1" if self.power < 0 else ""
        return f"b({self.i},{self.j}){suffix}"


class BraidWord:
    """A word in the generators on n strands: a letter b(i,j) with j > n is
    refused.  Not a tuple, so ``*`` and ``+`` do not silently repeat or join
    words; frozen, and equal by value."""

    def __init__(self, n: int, letters: tuple):
        if type(n) is not int:
            raise TypeError(f"strand count must be int, got {n!r}")
        letters = tuple(letters)
        for pos, item in enumerate(letters, start=1):
            if not isinstance(item, BraidLetter):
                raise TypeError(f"letter {pos} is not a BraidLetter: {item!r}")
            if item.j > n:
                raise ValueError(f"letter {pos}: {item} invalid for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not BraidWord:
            return NotImplemented
        return (self.n, self.letters) == (other.n, other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def __repr__(self):
        return f"BraidWord(n={self.n!r}, letters={self.letters!r})"

    def __str__(self):
        return " ".join(str(letter) for letter in self.letters)


_TOKEN = re.compile(r"^b\((\d+),(\d+)\)(\^-1)?$")


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated tokens b(i,j) or b(i,j)^-1.  A ``text``
    that is not a ``str``, or an ``n`` that is not an ``int``, raises
    ``TypeError`` naming it."""
    if not isinstance(text, str):
        raise TypeError(f"word text must be str, got {text!r}")
    if type(n) is not int:
        raise TypeError(f"strand count n must be int, got {n!r}")
    if n < 1:
        raise WordSyntaxError(f"strand count must be positive, got {n}")
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        m = _TOKEN.match(token)
        if not m:
            raise WordSyntaxError(f"token {pos}: malformed {token!r}")
        i, j = int(m.group(1)), int(m.group(2))
        if i >= j:
            raise WordSyntaxError(
                f"token {pos}: i < j required in {token!r}")
        if j > n:
            raise WordSyntaxError(
                f"token {pos}: strand {j} exceeds n={n} in {token!r}")
        if i < 1:
            raise WordSyntaxError(f"token {pos}: strands start at 1")
        letters.append(BraidLetter(i, j, -1 if m.group(3) else 1))
    return BraidWord(n, tuple(letters))


def word_from_pairs(n: int, pairs) -> BraidWord:
    """Build a word from ((i, j) | (i, j, power)) tuples; any other entry,
    or a power other than +1 or -1, raises ``ValueError``, and a strand or
    power that is not an ``int`` raises ``TypeError``."""
    letters = []
    for p in pairs:
        if not isinstance(p, (tuple, list)) or len(p) not in (2, 3):
            raise ValueError(f"letter {p!r}: expected (i, j) or"
                             " (i, j, power)")
        letters.append(BraidLetter(*p, 1) if len(p) == 2 else BraidLetter(*p))
    return BraidWord(n, tuple(letters))


class _LoopFields(NamedTuple):
    height: Fraction = Fraction(1)
    depth: Fraction = Fraction(1, 2)
    offset: Fraction = Fraction(1, 4)


class LoopGeometry(_LoopFields):
    """Shape of a generator loop: rise height, dip depth, lateral offset.

    Each must be an int or a Fraction (``TypeError`` naming the field
    otherwise); ``make`` also coerces ``'p/q'`` strings.  Hashed as its
    field tuple, but the hash is taken once, when the record is built, and
    kept in the instance dict (no ``__slots__``): every letter-cache
    lookup hashes the geometry, and a ``Fraction`` hash is slow.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_rational("loop", **self._asdict())
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(height, depth, offset) -> "LoopGeometry":
        return LoopGeometry(as_rational(height), as_rational(depth),
                            as_rational(offset))


DEFAULT_LOOP = LoopGeometry()


class _SetupFields(NamedTuple):
    n: int
    config: Configuration
    home: frozenset


class CanonicalSetup(_SetupFields):
    """Deterministic start position: boundary triangle, parabolic homes,
    labels equal to point indices.

    ``home`` is the Delaunay triangle set of the homes, where every
    letter's loop starts and ends; its triangles are the module basis.
    The constructor builds it, so a configuration that is not in general
    position raises ``DegenerateConfigurationError``.  An ``n`` that is not
    an int or a ``config`` that is not a ``Configuration`` raises
    ``TypeError``, and a ``config`` without n mobile points ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, n: int, config: Configuration):
        if type(n) is not int:
            raise TypeError(f"strand count n must be int, got {n!r}")
        if not isinstance(config, Configuration):
            raise TypeError(f"config must be a Configuration, got {config!r}")
        if config.n != n:
            raise ValueError(f"config has {config.n} mobile points, not"
                             f" n={n}")
        return super().__new__(cls, n, config, build_delaunay(config))

    def __getnewargs__(self):
        return self.n, self.config


@functools.lru_cache(maxsize=None, typed=True)
def canonical_setup(n: int) -> CanonicalSetup:
    """Canonical configuration for n strands (points 4 .. n+3 mobile).

    Interior homes sit on an upward parabola, which keeps any four of them
    off a common circle (concyclicity would force their abscissas to sum to
    zero, impossible for positive abscissas).  An attempt is accepted when
    its ``home`` builds, which rules out every cocircular 4-subset with an
    empty disk, those touching boundary vertices included; deterministic
    nudges are the fallback.  Memoized, so each n's setup and its ``home``
    are built once per process.  An ``n`` that is not an ``int`` raises
    ``TypeError``; the cache is typed, so such an ``n`` never matches the
    cached setup of an equal int (``True`` or ``1.0`` that of 1).
    """
    if type(n) is not int:
        raise TypeError(f"strand count n must be int, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    boundary = [
        LabeledPoint.make(1, Fraction(-(n + 4)), Fraction(-2), 1),
        LabeledPoint.make(2, Fraction(2 * n + 5), Fraction(-2), 2),
        LabeledPoint.make(3, Fraction(n + 1, 2), Fraction(3 * n + 9), 3),
    ]
    for attempt in range(32):
        interior = [
            LabeledPoint.make(
                k + 3, Fraction(k),
                Fraction(k * k, 100 * n * n) + Fraction(attempt * k, 10007),
                k + 3)
            for k in range(1, n + 1)
        ]
        try:
            return CanonicalSetup(
                n, Configuration(tuple(boundary + interior), (1, 2, 3)))
        except DegenerateConfigurationError:
            continue
    raise RuntimeError(
        f"canonical setup for n={n} failed to reach general position")


def generator_trajectories(setup: CanonicalSetup, letter: BraidLetter,
                           geometry: LoopGeometry = DEFAULT_LOOP
                           ) -> TrajectorySet:
    """Closed loop of point i+3 once around the home of point j+3.

    The loop rises to the geometry height, passes to the far side of the
    target, dips below all homes, returns underneath, and climbs back:
    winding number +-1 around the target home and 0 around every other.
    A reversed traversal realizes the inverse letter.

    So the geometry must make the rectangle [xj - offset, xj + offset] x
    [-depth, height] hold the target's home and no other: a ``ValueError``
    names the field of an offset that is not positive or passes another
    home's abscissa, a height not above every home, or a depth that leaves
    the target below -depth.  The flip extractors check the loop's
    clearance, so a home on the loop raises ``ClearanceError`` there.
    """
    n = setup.n
    if letter.j > n:
        raise ValueError(f"letter {letter} invalid for n={n}")
    mover = letter.i + 3
    target = letter.j + 3
    positions = setup.config.positions
    xi, yi = positions[mover]
    xj, yj = positions[target]
    h, hp, d = geometry.height, geometry.depth, geometry.offset
    left, right = xj - d, xj + d
    if d <= 0:
        raise ValueError(f"loop offset {d} must be positive")
    for index in setup.config.interior:
        x, y = positions[index]
        if y >= h:
            raise ValueError(f"loop height {h} is not above the home of"
                             f" point {index}")
        if left < x < right and index != target:
            raise ValueError(f"loop offset {d} passes the home of point"
                             f" {index}")
    if -hp >= yj:
        raise ValueError(f"loop depth {hp} does not pass below the home of"
                         f" point {target}")
    waypoints = [
        (xi, yi),
        (xi, h),
        (right, h),
        (right, -hp),
        (left, -hp),
        (left, h),
        (xi, h),
        (xi, yi),
    ]
    if letter.power < 0:
        waypoints = waypoints[::-1]
    steps = len(waypoints) - 1
    # every value is exact already, and the loop rises, so it is not
    # constant: no coercion, as ``from_motion`` makes, is needed
    return TrajectorySet(setup.config, (Trajectory(mover, tuple(
        (Fraction(k, steps), waypoints[k]) for k in range(steps + 1))),))


class InvariantResult(NamedTuple):
    """Matrix of a word together with the basis and per-letter flip logs.

    The matrix is the image of the word in the pure braid group PB_n of
    the n mobile points, not PB_{n+3}: the three boundary vertices stay
    fixed and no loop winds around them.
    """

    word: BraidWord
    matrix: Matrix
    basis: tuple
    flip_log: tuple  # one tuple of FlipEvents per letter

    @property
    def trace(self) -> Fraction:
        return self.matrix.trace()

    def charpoly(self) -> list:
        return char_poly(self.matrix)

    def to_json_dict(self, with_trace: bool = True,
                     with_charpoly: bool = False) -> dict:
        out = self._payload(with_trace, with_charpoly)
        out["flips"] = [flip_sequence_to_json(evts) for evts in out["flips"]]
        return out

    def _payload(self, with_trace: bool, with_charpoly: bool) -> dict:
        """The payload of ``flipbraid invariant``, each flip log a list of
        FlipEvents, which the command line writes with ``flip_entry_json``
        and ``to_json_dict`` makes JSON values."""
        out = {
            "n": self.word.n,
            "word": str(self.word),
            "matrix": self.matrix.to_json_dict(),
            "basis": [list(t) for t in self.basis],
            "flips": [list(evts) for evts in self.flip_log],
        }
        if with_trace:
            out["trace"] = str(self.trace)
        if with_charpoly:
            out["charpoly"] = [str(c) for c in self.charpoly()]
        return out


def _check_geometry(geometry) -> None:
    if not isinstance(geometry, LoopGeometry):
        raise TypeError(f"geometry must be a LoopGeometry, got {geometry!r}")


def _sampling_setting(name: str, value):
    """``value`` of the sampling setting ``name`` as an exact rational, or
    None when unset; a value that is not an int, Fraction or 'p/q' string
    raises ``TypeError`` naming the setting."""
    if value is None:
        return None
    try:
        return as_rational(value)
    except TypeError:
        raise TypeError(f"{name} must be an exact rational, got"
                        f" {value!r}") from None


def letter_flips(setup: CanonicalSetup, letter: BraidLetter,
                 geometry: LoopGeometry = DEFAULT_LOOP, step=None,
                 floor=None) -> tuple:
    """The trajectory set of a letter's loop and its flip events.

    With neither ``step`` nor ``floor`` the exact event engine finds the
    events.  Giving either selects the sampler, ``extract_flip_sequence``,
    which fills in the other's default.  An ``UnresolvedEventError`` names
    the letter.  A ``setup`` that is not a ``CanonicalSetup``, a ``letter``
    that is not a ``BraidLetter``, a ``geometry`` that is not a
    ``LoopGeometry``, or a ``step`` or ``floor`` that is not an exact
    rational raises ``TypeError`` naming it.
    """
    if not isinstance(setup, CanonicalSetup):
        raise TypeError(f"setup must be a CanonicalSetup, got {setup!r}")
    if not isinstance(letter, BraidLetter):
        raise TypeError(f"letter must be a BraidLetter, got {letter!r}")
    _check_geometry(geometry)
    step = _sampling_setting("step", step)
    floor = _sampling_setting("floor", floor)
    ts = generator_trajectories(setup, letter, geometry)
    try:
        if step is None and floor is None:
            events = exact_flip_sequence(ts)
        else:
            events = extract_flip_sequence(ts, step, floor)
    except UnresolvedEventError as err:
        raise UnresolvedEventError(f"{err} (letter {letter})") from err
    return ts, events


LETTER_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=LETTER_CACHE_SIZE)
def _letter_result(n: int, letter: BraidLetter, geometry: LoopGeometry,
                   step, floor):
    """Matrix and flip events of one letter's loop on ``canonical_setup(n)``.

    Every argument is frozen and hashable, so results are memoized for
    equal arguments; ``_letter_result.cache_info()`` counts the hits and
    misses.
    """
    setup = canonical_setup(n)
    _, events = letter_flips(setup, letter, geometry, step, floor)
    matrix = loop_product(events, setup.home, setup.config.zeta_map())
    return matrix, tuple(events)


def invariant(word: BraidWord, geometry: LoopGeometry = DEFAULT_LOOP,
              step=None, floor=None) -> InvariantResult:
    """The word's (2n+1) x (2n+1) matrix under the flip construction.

    Letters act left to right in time, so the matrix of L_1 ... L_k is the
    product L_k ... L_1 of the letters' matrices, later letters on the
    left; the empty word gives the identity.  The product is taken right
    to left, acc = L_k, then acc = acc * L_{k-1} down to L_1, so the right
    operand of every ``mat_mul`` is a cached letter matrix, whose nonzero
    rows are listed once.  An inverse letter is simulated on the reversed
    loop, not derived from the forward one.  ``step`` and ``floor`` select
    the flip extraction as in ``letter_flips``.  A ``word`` that is not a
    ``BraidWord``, a ``geometry`` that is not a ``LoopGeometry``, or a
    ``step`` or ``floor`` that is not an exact rational raises
    ``TypeError`` naming it.
    """
    if not isinstance(word, BraidWord):
        raise TypeError(f"word must be a BraidWord, got {word!r}")
    _check_geometry(geometry)
    step = _sampling_setting("step", step)
    floor = _sampling_setting("floor", floor)
    basis = tuple(sorted(canonical_setup(word.n).home))
    results = [_letter_result(word.n, letter, geometry, step, floor)
               for letter in word.letters]
    acc = None
    for mat, _ in reversed(results):
        acc = mat if acc is None else acc * mat
    if acc is None:
        acc = Matrix.identity(len(basis))
    if not acc.columns_sum_to_one():
        raise AssertionError("invariant matrix lost the column-sum-1"
                             " property")
    return InvariantResult(word, acc, basis,
                           tuple(events for _, events in results))


# --- relation verification ---------------------------------------------------

class RelationInstance(NamedTuple):
    name: str
    ok: bool
    lhs: Optional[Matrix] = None
    rhs: Optional[Matrix] = None


class RelationReport:
    """A family's instances, appended as they are checked."""

    def __init__(self, family: str, n: int,
                 instances: Optional[list] = None):
        self.family = family
        self.n = n
        self.instances = [] if instances is None else instances

    def __repr__(self):
        return (f"RelationReport(family={self.family!r}, n={self.n!r},"
                f" instances={self.instances!r})")

    @property
    def ok(self) -> bool:
        return all(inst.ok for inst in self.instances)

    def failures(self) -> list:
        return [inst for inst in self.instances if not inst.ok]


FAMILIES = ("inverse", "far_comm", "pentagon", "pb_all")


def _word_matrix(n, pairs, **kw) -> Matrix:
    return invariant(word_from_pairs(n, pairs), **kw).matrix


def _check(report, name, lhs: Matrix, rhs: Matrix):
    ok = lhs == rhs
    report.instances.append(RelationInstance(
        name, ok, None if ok else lhs, None if ok else rhs))


def relation_words(n: int, family: str) -> list:
    """The relations that ``family`` checks at n strands, each (names,
    words): a chain of words, each a tuple of ``word_from_pairs`` entries,
    whose braids are equal, and one instance name for each neighbouring
    pair of them; a chain of one word, under one name, is the identity.

    The words are relations of the braids that the loops perform.  Time
    runs left to right in a word, and in the projection onto the x-axis
    the strand of larger y is over; so each loop b(i,j) performs A_ij^-1,
    the inverse of Artin's generator A_ij = sigma_(j-1) ... sigma_(i+1)
    sigma_i^2 sigma_(i+1)^-1 ... sigma_(j-1)^-1.  The triple and mixed
    words are those of the pure braid group's presentation in the A_ij
    read right to left, since u(A) = v(A) exactly when the reversed words
    agree on the inverses A_ij^-1.
    """
    strands = range(1, n + 1)
    if family == "inverse":
        return [((f"inverse b({i},{j})",), (((i, j, 1), (i, j, -1)),))
                for i, j in combinations(strands, 2)]
    # b(i,j) commutes with b(k,l) when k < l < i < j (disjoint) or
    # i < k < l < j (nested)
    commuting = ([("disjoint", (i, j), (k, l))
                  for k, l, i, j in combinations(strands, 4)]
                 + [("nested", (i, j), (k, l))
                    for i, k, l, j in combinations(strands, 4)])
    chains = [((f"commute[{kind}] b({i},{j}) b({k},{l})",),
               (((i, j), (k, l)), ((k, l), (i, j))))
              for kind, (i, j), (k, l) in commuting]
    if family == "pb_all":
        for i, j, k in combinations(strands, 3):
            chains.append(((f"triple({i},{j},{k}) first=second",
                            f"triple({i},{j},{k}) second=third"),
                           (((j, k), (i, k), (i, j)),
                            ((i, k), (i, j), (j, k)),
                            ((i, j), (j, k), (i, k)))))
        for i, j, k, l in combinations(strands, 4):
            chains.append(((f"mixed({i},{j},{k},{l})",),
                           (((j, k), (i, k), (k, l), (j, l)),
                            ((j, l), (j, k), (i, k), (k, l)))))
    return chains


def verify_relations(n: int, family: str, seed: int = 0, trials: int = 100,
                     **kw) -> RelationReport:
    """Check a relation family as exact matrix equalities.

    Families: 'inverse' (each generator against its reversed loop),
    'far_comm' (commuting generator pairs), 'pentagon' (randomized
    five-flip cycles), 'pb_all' (the relations of the pure braid group's
    presentation: commuting pairs, the three cyclic triple products, and
    the mixed four-generator relation, as ``relation_words`` states them
    for the braids the loops perform).  An ``n``, ``seed`` or ``trials``
    that is not an ``int`` (``bool`` included) raises ``TypeError`` naming
    it.
    """
    if type(n) is not int:
        raise TypeError(f"strand count n must be int, got {n!r}")
    for name, value in (("seed", seed), ("trials", trials)):
        if type(value) is not int:
            raise TypeError(f"{name} must be int, got {value!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1:
        raise ValueError(f"strand count must be positive, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    report = RelationReport(family, n)

    if family == "pentagon":
        import random

        from .flips import pentagon_cycle_product
        rng = random.Random(seed)
        for trial in range(trials):
            while True:
                vals = [Fraction(rng.randint(-600, 600),
                                 rng.randint(1, 40)) for _ in range(5)]
                if len(set(vals)) == 5:
                    break
            product = pentagon_cycle_product(vals)
            report.instances.append(RelationInstance(
                f"pentagon trial {trial}", product.is_identity(),
                None if product.is_identity() else product))
        return report

    for names, words in relation_words(n, family):
        mats = [_word_matrix(n, word, **kw) for word in words]
        if len(mats) == 1:
            ok = mats[0].is_identity()
            report.instances.append(RelationInstance(
                names[0], ok, None if ok else mats[0]))
        for name, lhs, rhs in zip(names, mats, mats[1:]):
            _check(report, name, lhs, rhs)
    return report
