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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .delaunay import DegenerateConfigurationError, build_delaunay
from .flips import flip_sequence_to_json, sequence_product
from .geometry import (Configuration, LabeledPoint, _inside,
                       _integer_points, _segment_meets)
from .kinetics import (DEFAULT_FLOOR, DEFAULT_STEP, TrajectorySet,
                       UnresolvedEventError, exact_flip_sequence,
                       extract_flip_sequence)
from .linalg import Matrix, as_rational, char_poly


class WordSyntaxError(ValueError):
    """A braid word failed to parse; the message carries the position."""


@dataclass(frozen=True)
class BraidLetter:
    i: int
    j: int
    power: int  # +1 or -1

    def __str__(self):
        suffix = "^-1" if self.power < 0 else ""
        return f"b({self.i},{self.j}){suffix}"

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.i, self.j, -self.power)


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple

    def __str__(self):
        return " ".join(str(letter) for letter in self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand counts differ")
        return BraidWord(self.n, self.letters + other.letters)


_TOKEN = re.compile(r"^b\((\d+),(\d+)\)(\^-1)?$")


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated tokens b(i,j) or b(i,j)^-1."""
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
    """Build a word from ((i, j) | (i, j, power)) tuples."""
    letters = []
    for p in pairs:
        i, j = p[0], p[1]
        power = p[2] if len(p) > 2 else 1
        letters.append(BraidLetter(i, j, power))
    return BraidWord(n, tuple(letters))


@dataclass(frozen=True)
class LoopGeometry:
    """Shape of a generator loop: rise height, dip depth, lateral offset."""

    height: Fraction = Fraction(1)
    depth: Fraction = Fraction(1, 2)
    offset: Fraction = Fraction(1, 4)

    @staticmethod
    def make(height, depth, offset) -> "LoopGeometry":
        return LoopGeometry(as_rational(height), as_rational(depth),
                            as_rational(offset))


DEFAULT_LOOP = LoopGeometry()


@dataclass(frozen=True, eq=False)
class CanonicalSetup:
    """Deterministic start position: boundary triangle, parabolic homes,
    labels equal to point indices.

    Equality and hashing are by identity: ``canonical_setup`` builds one
    setup per n, so the letter cache keys on the setup without hashing its
    configuration.
    """

    n: int
    config: Configuration

    @functools.cached_property
    def home(self) -> frozenset:
        """Delaunay triangle set of the homes, where every letter's loop
        starts and ends; its triangles are the module basis."""
        return build_delaunay(self.config)


@functools.cache
def canonical_setup(n: int) -> CanonicalSetup:
    """Canonical configuration for n strands (points 4 .. n+3 mobile).

    Interior homes sit on an upward parabola, which keeps any four of them
    off a common circle (concyclicity would force their abscissas to sum to
    zero, impossible for positive abscissas).  An attempt is accepted when
    its ``home`` builds, which rules out every cocircular 4-subset with an
    empty disk, those touching boundary vertices included; deterministic
    nudges are the fallback.  Memoized, so each n's setup and its ``home``
    are built once per process.
    """
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
        setup = CanonicalSetup(
            n, Configuration(tuple(boundary + interior), (1, 2, 3)))
        try:
            setup.home
        except DegenerateConfigurationError:
            continue
        return setup
    raise RuntimeError(
        f"canonical setup for n={n} failed to reach general position")


class LoopClearanceError(ValueError):
    """A generator loop would pass exactly through another point."""


def generator_trajectories(setup: CanonicalSetup, letter: BraidLetter,
                           geometry: LoopGeometry = DEFAULT_LOOP
                           ) -> TrajectorySet:
    """Closed loop of point i+3 once around the home of point j+3.

    The loop rises to the geometry height, passes to the far side of the
    target, dips below all homes, returns underneath, and climbs back:
    winding number +-1 around the target home and 0 around every other.
    A reversed traversal realizes the inverse letter.
    """
    n = setup.n
    if not 1 <= letter.i < letter.j <= n:
        raise ValueError(f"letter {letter} invalid for n={n}")
    mover = letter.i + 3
    target = letter.j + 3
    positions = setup.config.positions
    xi, yi = positions[mover]
    xj, _ = positions[target]
    h, hp, d = geometry.height, geometry.depth, geometry.offset
    waypoints = [
        (xi, yi),
        (xi, h),
        (xj + d, h),
        (xj + d, -hp),
        (xj - d, -hp),
        (xj - d, h),
        (xi, h),
        (xi, yi),
    ]
    if letter.power < 0:
        waypoints = waypoints[::-1]
    ints = _integer_points([*positions.values(), *waypoints])
    fixed = dict(zip(positions, ints))
    loop = ints[len(positions):]
    for a, b in zip(loop, loop[1:]):
        for index, p in fixed.items():
            if index != mover and _segment_meets(a, b, p):
                raise LoopClearanceError(
                    f"loop of point {mover} passes through point {index}")
    corners = [fixed[b] for b in setup.config.boundary]
    for w, p in zip(waypoints, loop):
        if not _inside(p, *corners):
            raise LoopClearanceError(
                f"loop of point {mover} leaves the boundary triangle at {w}")
    steps = len(waypoints) - 1
    path = [(Fraction(k, steps), waypoints[k]) for k in range(steps + 1)]
    return TrajectorySet.from_motion(setup.config, {mover: path})


@dataclass
class InvariantResult:
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
        out = {
            "n": self.word.n,
            "word": str(self.word),
            "matrix": self.matrix.to_json_dict(),
            "basis": [list(t) for t in self.basis],
            "flips": [flip_sequence_to_json(evts) for evts in self.flip_log],
        }
        if with_trace:
            out["trace"] = str(self.trace)
        if with_charpoly:
            out["charpoly"] = [str(c) for c in self.charpoly()]
        return out


def letter_flips(setup: CanonicalSetup, letter: BraidLetter,
                 geometry: LoopGeometry = DEFAULT_LOOP, step=None,
                 floor=None) -> tuple:
    """The trajectory set of a letter's loop and its flip events.

    With neither ``step`` nor ``floor`` the exact event engine finds the
    events.  Giving either selects the sampler, ``extract_flip_sequence``,
    with the other at its default.  An ``UnresolvedEventError`` names the
    letter.
    """
    ts = generator_trajectories(setup, letter, geometry)
    try:
        if step is None and floor is None:
            events = exact_flip_sequence(ts)
        else:
            events = extract_flip_sequence(
                ts, step=DEFAULT_STEP if step is None else step,
                floor=DEFAULT_FLOOR if floor is None else floor)
    except UnresolvedEventError as err:
        raise UnresolvedEventError(f"{err} (letter {letter})") from err
    return ts, events


LETTER_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=LETTER_CACHE_SIZE)
def _letter_result(setup: CanonicalSetup, letter: BraidLetter,
                   geometry: LoopGeometry, step, floor):
    """Matrix and flip events of one letter's loop.

    Every argument is frozen and hashable, so results are memoized for
    equal arguments, the setup compared by identity;
    ``_letter_result.cache_info()`` counts the hits and misses.
    """
    _, events = letter_flips(setup, letter, geometry, step, floor)
    matrix, final = sequence_product(events, setup.home,
                                     setup.config.zeta_map())
    if final != setup.home:
        raise AssertionError("letter loop did not return to the home"
                             " triangulation")
    return matrix, tuple(events)


def invariant(word: BraidWord, geometry: LoopGeometry = DEFAULT_LOOP,
              step=None, floor=None) -> InvariantResult:
    """The word's (2n+1) x (2n+1) matrix under the flip construction.

    Letters act left to right in time; each letter's matrix multiplies the
    accumulated product on the left.  An inverse letter is simulated on the
    reversed loop, not derived from the forward one.  ``step`` and
    ``floor`` select the flip extraction as in ``letter_flips``.
    """
    step = None if step is None else as_rational(step)
    floor = None if floor is None else as_rational(floor)
    setup = canonical_setup(word.n)
    basis = tuple(sorted(setup.home))
    acc = Matrix.identity(len(basis))
    log = []
    for letter in word.letters:
        mat, events = _letter_result(setup, letter, geometry, step, floor)
        acc = mat * acc
        log.append(events)
    if any(s != 1 for s in acc.column_sums()):
        raise AssertionError("invariant matrix lost the column-sum-1"
                             " property")
    return InvariantResult(word, acc, basis, tuple(log))


# --- relation verification ---------------------------------------------------

@dataclass(frozen=True)
class RelationInstance:
    name: str
    ok: bool
    lhs: Optional[Matrix] = None
    rhs: Optional[Matrix] = None


@dataclass
class RelationReport:
    family: str
    n: int
    instances: list = field(default_factory=list)

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


def _commuting_pair_instances(n):
    """Index tuples of the two commuting-generator patterns."""
    out = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            for i in range(l + 1, n + 1):
                for j in range(i + 1, n + 1):
                    out.append(("disjoint", (i, j), (k, l)))
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for l in range(k + 1, n + 1):
                for j in range(l + 1, n + 1):
                    out.append(("nested", (i, j), (k, l)))
    return out


def verify_relations(n: int, family: str, seed: int = 0, trials: int = 100,
                     **kw) -> RelationReport:
    """Check a relation family as exact matrix equalities.

    Families: 'inverse' (each generator against its reversed loop),
    'far_comm' (commuting generator pairs), 'pentagon' (randomized
    five-flip cycles), 'pb_all' (the whole presentation: commuting pairs,
    the three cyclic triple products, and the mixed four-generator
    relation).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1:
        raise ValueError(f"strand count must be positive, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    report = RelationReport(family, n)

    if family == "inverse":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                mat = _word_matrix(n, [(i, j, 1), (i, j, -1)], **kw)
                report.instances.append(RelationInstance(
                    f"inverse b({i},{j})", mat.is_identity(),
                    None if mat.is_identity() else mat))
        return report

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

    if family in ("far_comm", "pb_all"):
        for kind, (i, j), (k, l) in _commuting_pair_instances(n):
            lhs = _word_matrix(n, [(i, j), (k, l)], **kw)
            rhs = _word_matrix(n, [(k, l), (i, j)], **kw)
            _check(report, f"commute[{kind}] b({i},{j}) b({k},{l})", lhs, rhs)

    if family == "pb_all":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    m1 = _word_matrix(n, [(i, j), (i, k), (j, k)], **kw)
                    m2 = _word_matrix(n, [(j, k), (i, j), (i, k)], **kw)
                    m3 = _word_matrix(n, [(i, k), (j, k), (i, j)], **kw)
                    _check(report, f"triple({i},{j},{k}) first=second",
                           m1, m2)
                    _check(report, f"triple({i},{j},{k}) second=third",
                           m2, m3)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    for l in range(k + 1, n + 1):
                        lhs = _word_matrix(
                            n, [(j, l), (k, l), (i, k), (j, k)], **kw)
                        rhs = _word_matrix(
                            n, [(k, l), (i, k), (j, k), (j, l)], **kw)
                        _check(report, f"mixed({i},{j},{k},{l})", lhs, rhs)
    return report
