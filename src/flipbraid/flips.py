"""Transition matrices of Delaunay flips.

A flip exchanging diagonal {i,k} for {j,l} inside quadrilateral ijkl maps
the old triangle basis to the new one: shared triangles map to themselves,
and the two exchanged columns carry ratios of label differences.  Columns
are indexed by the old basis, rows by the new; matrices of later flips
multiply on the left.

``build_flip_matrix`` gives one flip as a dense matrix of Fractions; it is
the reference the fixtures and tests check against.  ``sequence_product``,
the one product path (letters and the pentagon cycle alike), never builds
one, and its arithmetic is on integers.  Scaling every label by the same
number leaves each ratio of label differences unchanged, so it clears the
labels' denominators once and works on integer labels.  A flip rewrites
only the rows of its two exchanged triangles, so the product is kept as one
integer row over a denominator per triangle.  Each flip is one O(n) pass
that unpacks its triangles from ``delaunay.flip_shape``, the memo whose
tuple ``FlipEvent`` reads, and puts its two new rows over p*lcm(d1, d2),
one gcd of the old rows' denominators; a row is reduced by its content
only once its denominator reaches 2^64.  The rows go over one lcm at the
end, and the product is put in lowest terms.  The pentagon events are
built once, and the pentagon's labels are cleared once.

``flip_entry_json`` writes a flip-log entry.  Its indices, quad and gamma
are formatted once per (pair, indent), in this module's one memo,
``_entry_texts``, of at most ``ENTRY_MEMO`` keys, so each event formats
only its bracket; the quad and gamma are unpacked from the tuple of
``delaunay.flip_shape``, as ``gamma_generator_name`` unpacks its cycle.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

from .delaunay import FlipEvent, flip_shape, flip_triangles
from .linalg import (_REDUCE_AT, Matrix, _lowest_terms, as_rational,
                     clear_denominators)


_GAMMA = "d(%d %d %d %d)"


def gamma_generator_name(event: FlipEvent) -> str:
    """Canonical quadrilateral-generator name 'd(a b c d)'.

    The eight tuples obtained by the dihedral symmetries of the
    quadrilateral ijkl, with (i, k) = ``removed`` and (j, l) = ``inserted``,
    name the same generator; the lexicographically least one, the cycle
    of ``delaunay.flip_shape``, is the canonical representative.
    """
    *_, cycle = flip_shape(event.removed, event.inserted)
    return _GAMMA % cycle


class BasisMismatchError(ValueError):
    """Bases do not differ by exactly the stated flip."""


def build_flip_matrix(event: FlipEvent, from_basis, to_basis,
                      zeta) -> Matrix:
    """Matrix of the flip in the given ordered bases.

    ``from_basis`` must contain the two triangles carrying the removed
    diagonal, ``to_basis`` the two carrying the inserted one, and the
    remaining triangles must coincide.  ``zeta`` maps point index to label.
    """
    old = tuple(from_basis)
    new = tuple(to_basis)
    t_ijk, t_ikl = event.removed_triangles()
    t_ijl, t_jkl = event.inserted_triangles()
    if len(old) != len(new):
        raise BasisMismatchError("bases differ in length")
    old_set, new_set = set(old), set(new)
    if not {t_ijk, t_ikl} <= old_set:
        raise BasisMismatchError(
            f"from-basis lacks flip triangles {t_ijk}, {t_ikl}")
    if not {t_ijl, t_jkl} <= new_set:
        raise BasisMismatchError(
            f"to-basis lacks flip triangles {t_ijl}, {t_jkl}")
    if old_set - {t_ijk, t_ikl} != new_set - {t_ijl, t_jkl}:
        raise BasisMismatchError("bases do not differ by exactly this flip")

    *block, den = _flip_block(event, zeta)
    a, b, c, d = (Fraction(x) / den for x in block)
    col_of = {t: col for col, t in enumerate(old)}
    row_of = {t: row for row, t in enumerate(new)}
    size = len(old)
    zero = Fraction(0)
    grid = [[zero] * size for _ in range(size)]
    for t in old:
        if t not in (t_ijk, t_ikl):
            grid[row_of[t]][col_of[t]] = Fraction(1)
    grid[row_of[t_ijl]][col_of[t_ijk]] = a
    grid[row_of[t_ijl]][col_of[t_ikl]] = b
    grid[row_of[t_jkl]][col_of[t_ijk]] = c
    grid[row_of[t_jkl]][col_of[t_ikl]] = d
    m = Matrix(grid)
    if not m.columns_sum_to_one():
        raise AssertionError("flip matrix column sums are not all 1")
    return m


def sequence_product(events, start_triangles, zeta):
    """Multiply the flip matrices of ``events`` (in time order).

    Threads the ordered basis through every flip: the result maps
    coordinates in the starting basis to coordinates in the final one.
    Returns (matrix, final_triangles).

    The product is one integer row over a denominator per current
    triangle, keyed by it, so the keys are the triangulation.  Each flip is
    one pass: its four triangles come from ``flip_shape``, it is checked
    to apply against the keys, and the rows r1/d1, r2/d2 of its removed
    triangles become (a*r1/d1 + b*r2/d2) / p and (c*r1/d1 + d*r2/d2) / p,
    the integer block of ``_flip_block``, both over p*lcm(d1, d2), which
    takes one gcd.  A row is reduced by its content only once its
    denominator, of either sign, reaches ``_REDUCE_AT``.  At the end each
    row, in the final basis order, is scaled by the lcm of the denominators
    over its own, so all share that lcm, and the result is put in lowest
    terms: a letter matrix is the right operand of every word product, and
    its small denominator keeps the products' integers small.
    """
    ints, _ = clear_denominators(as_rational(z) for z in zeta.values())
    return _integer_product(events, start_triangles, dict(zip(zeta, ints)))


def _integer_product(events, start_triangles, labels):
    """``sequence_product`` over the integer labels ``labels``."""
    start = sorted(set(start_triangles))
    row_of = {t: ([0] * i + [1] + [0] * (len(start) - i - 1), 1)
              for i, t in enumerate(start)}
    gcd = math.gcd
    for event in events:
        _, (t_ijk, t_ikl), (t_ijl, t_jkl), _ = flip_shape(event.removed,
                                                          event.inserted)
        if (t_ijk not in row_of or t_ikl not in row_of or t_ijl in row_of
                or t_jkl in row_of):
            flip_triangles(row_of, event)  # raises its "does not apply"
        a, b, c, d, p = _flip_block(event, labels)
        v1, d1 = row_of.pop(t_ijk)
        v2, d2 = row_of.pop(t_ikl)
        g = gcd(d1, d2)
        e1, e2 = d2 // g, d1 // g  # d1*e1 == d2*e2 == lcm(d1, d2), signed
        den = p * d1 * e1
        s, t = a * e1, b * e2
        new1 = [s * x + t * y for x, y in zip(v1, v2)]
        s, t = c * e1, d * e2
        new2 = [s * x + t * y for x, y in zip(v1, v2)]
        if -_REDUCE_AT < den < _REDUCE_AT:
            row_of[t_ijl] = new1, den
            row_of[t_jkl] = new2, den
        else:
            row_of[t_ijl] = _reduced(new1, den)
            row_of[t_jkl] = _reduced(new2, den)
    final = sorted(row_of)
    den = math.lcm(*(row_of[t][1] for t in final))
    num = [[x * (den // d) for x in v] for v, d in map(row_of.get, final)]
    # every flip block's columns sum to 1, so the product's do too
    if any(sum(col) != den for col in zip(*num)):
        raise AssertionError("flip product column sums are not all 1")
    return Matrix._from_ints(*_lowest_terms(num, den)), frozenset(final)


def _reduced(row, den) -> tuple:
    """(row, den) divided by their gcd, the row's content."""
    g = math.gcd(den, *row)
    return [x // g for x in row], den // g


def loop_product(events, start, zeta) -> Matrix:
    """The matrix of a closed flip log: ``sequence_product`` from the
    triangle set ``start``, which the log must return to."""
    return _closed(sequence_product(events, start, zeta), start)


def _closed(product, start) -> Matrix:
    """The matrix of ``product``, (matrix, final triangles), which must
    end at ``start``."""
    matrix, final = product
    if final != frozenset(start):
        raise AssertionError("flip log does not return to its start")
    return matrix


def _flip_block(event: FlipEvent, zeta) -> tuple:
    """The flip's 2x2 block as (a, b, c, d, den), the block being
    (a, b; c, d) / den: differences of the labels ``zeta``, so integers
    over integer labels.

    With (i, k) = ``removed`` and (j, l) = ``inserted``: rows t_ijl, t_jkl
    of the new basis, columns t_ijk, t_ikl of the old.  Either order within
    each pair gives the same matrix.
    """
    i, k = event.removed
    j, l = event.inserted
    zi, zj, zk, zl = zeta[i], zeta[j], zeta[k], zeta[l]
    den = zi - zk
    if den == 0:
        raise ValueError(f"coincident labels for points {i} and {k}")
    return zi - zl, zi - zj, zl - zk, zj - zk, den


# --- pentagon cycle ----------------------------------------------------------

# Five cocircular points admit a cycle of five flips that returns the
# starting triangulation; the matrix product around the cycle is the
# identity for any choice of distinct labels.
PENTAGON_FLIPS = (
    ((1, 4), (3, 5)),
    ((1, 3), (2, 5)),
    ((3, 5), (2, 4)),
    ((2, 5), (1, 4)),
    ((2, 4), (1, 3)),
)
PENTAGON_START = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5)})
_PENTAGON_EVENTS = tuple(FlipEvent(*flip) for flip in PENTAGON_FLIPS)


def pentagon_cycle_product(labels) -> Matrix:
    """Product of the five cycle matrices, later flips on the left.

    ``labels`` assigns the five points 1..5 five distinct rational labels.
    They are coerced and cleared to integers once, and the distinct check
    runs on those integers, so one rational written two ways is one label.
    """
    ints, _ = clear_denominators(as_rational(z) for z in labels)
    if len(ints) != 5 or len(set(ints)) != 5:
        raise ValueError("need five distinct labels")
    return _closed(_integer_product(_PENTAGON_EVENTS, PENTAGON_START,
                                    dict(zip(range(1, 6), ints))),
                   PENTAGON_START)


# --- flip sequence JSON ------------------------------------------------------

ENTRY_MEMO = 4096


def flip_entry_json(event: FlipEvent, indent: str = "\n") -> str:
    """The flip log's entry of ``event``, written as ``json.dumps(entry,
    indent=2)`` writes it at the depth whose newline and indent is
    ``indent``: ``removed``, ``inserted``, ``quad`` and ``gamma``, then
    ``t_lo`` and ``t_hi`` when the event has a bracket.  The one definition
    of an entry, for integer indices; ``flip_sequence_to_json`` reads it
    back.  Only the bracket is formatted per event: the rest comes from
    ``_entry_texts``."""
    removed, inserted, lo, hi = event
    plain, bracketed = _entry_texts(removed, inserted, indent)
    # a FlipEvent has both ends of its bracket or neither
    return plain if lo is None else bracketed % (lo, hi)


@functools.lru_cache(maxsize=ENTRY_MEMO)
def _entry_texts(removed: tuple, inserted: tuple, indent: str) -> tuple:
    """The entry of the flip of ``removed`` for ``inserted`` at one depth
    without a bracket, and the %-template of its entry with one: memoized
    for at most ``ENTRY_MEMO`` (pair, indent) keys, so a flip's indices,
    quad and gamma are formatted once."""
    plain, bracketed = _entry_templates(indent)
    quad, _, _, cycle = flip_shape(removed, inserted)
    fields = (*removed, *inserted, *quad, _GAMMA % cycle)
    return plain % fields, bracketed % (*fields, "%s", "%s")


@functools.cache
def _entry_templates(indent: str) -> tuple:
    """The %-templates of an entry at one depth, without and with its
    bracket."""
    a, b = indent + "  ", indent + "    "

    def ints(count):
        return "[" + b + ("," + b).join(["%d"] * count) + a + "]"

    head = (f'{{{a}"removed": {ints(2)},{a}"inserted": {ints(2)},'
            f'{a}"quad": {ints(4)},{a}"gamma": "%s"')
    return (head + indent + "}",
            head + f',{a}"t_lo": "%s",{a}"t_hi": "%s"{indent}}}')


def flip_sequence_to_json(events) -> list:
    """The flip log of ``events`` as JSON values: the entries of
    ``flip_entry_json``, read back."""
    return json.loads("[" + ",".join(map(flip_entry_json, events)) + "]")


def flip_sequence_from_json(data) -> list:
    """The events that ``flip_sequence_to_json`` wrote.

    A malformed entry raises ``ValueError`` naming its 1-based position:
    one that ``FlipEvent`` refuses (a bracket half given or reversed), one
    whose bracket is outside [0, 1], or one whose ``quad`` or ``gamma`` is
    not the one its pairs give.
    """
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a list of flip entries, got {data!r}")
    events = []
    for pos, d in enumerate(data, start=1):
        try:
            if not isinstance(d, dict):
                raise ValueError(f"expected an object, got {d!r}")
            event = FlipEvent(
                _index_pair(d, "removed"), _index_pair(d, "inserted"),
                _time(d, "t_lo"), _time(d, "t_hi"))
            lo, hi = event.t_lo, event.t_hi
            # FlipEvent refuses a bracket that is half given or reversed
            if lo is not None and not (0 <= lo and hi <= 1):
                raise ValueError(f"bracket [{lo}, {hi}] is not ordered"
                                 " inside [0, 1]")
            for key, value in (("quad", list(event.quad)),
                               ("gamma", gamma_generator_name(event))):
                got = d.get(key, value)
                if (list(got) if type(got) is tuple else got) != value:
                    raise ValueError(f"{key!r} is {got!r}, but 'removed'"
                                     f" and 'inserted' give {value!r}")
        except ValueError as err:
            raise ValueError(f"flip entry {pos}: {err}") from None
        events.append(event)
    return events


def _index_pair(d: dict, key: str) -> tuple:
    pair = d.get(key)
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or any(type(v) is not int for v in pair)):
        raise ValueError(f"{key!r} must be two integers, got {pair!r}")
    return tuple(sorted(pair))


def _time(d: dict, key: str):
    if key not in d:
        return None
    value = d[key]
    try:
        if type(value) in (str, int):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{key!r} must be a rational, got {value!r}")
