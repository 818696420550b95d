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
that takes its triangles from the ``FlipEvent`` and one gcd per new row;
the rows go over one lcm at the end.  The pentagon events are built once.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

from .delaunay import FlipEvent, flip_triangles
from .linalg import Matrix, as_rational, clear_denominators


def gamma_generator_name(event: FlipEvent) -> str:
    """Canonical quadrilateral-generator name 'd(a b c d)'.

    The eight tuples obtained by the dihedral symmetries of the
    quadrilateral ijkl, with (i, k) = ``removed`` and (j, l) = ``inserted``,
    name the same generator; the lexicographically least one is the
    canonical representative.  With i < k and j < l it starts with
    min(i, j): it is (i, j, k, l) when i < j, and (j, i, l, k) otherwise.
    """
    (i, k), (j, l) = event.removed, event.inserted
    i, k = (i, k) if i < k else (k, i)
    j, l = (j, l) if j < l else (l, j)
    return f"d({i} {j} {k} {l})" if i < j else f"d({j} {i} {l} {k})"


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
    one pass: its four triangles come from the ``FlipEvent``, it is checked
    to apply against the keys, and the rows r1, r2 of its removed triangles
    become (a*r1 + b*r2) / p and (c*r1 + d*r2) / p, the integer block of
    ``_flip_block``, each reduced by one gcd to a denominator of either
    sign.  At the end each row, in the final basis order, is scaled by the
    lcm of the denominators over its own, so all share that lcm.
    """
    ints, _ = clear_denominators(as_rational(z) for z in zeta.values())
    labels = dict(zip(zeta, ints))
    start = sorted(set(start_triangles))
    row_of = {t: ([0] * i + [1] + [0] * (len(start) - i - 1), 1)
              for i, t in enumerate(start)}
    gcd = math.gcd
    for event in events:
        t_ijk, t_ikl = event.removed_triangles()
        t_ijl, t_jkl = event.inserted_triangles()
        if (t_ijk not in row_of or t_ikl not in row_of or t_ijl in row_of
                or t_jkl in row_of):
            flip_triangles(row_of, event)  # raises its "does not apply"
        a, b, c, d, p = _flip_block(event, labels)
        v1, d1 = row_of.pop(t_ijk)
        v2, d2 = row_of.pop(t_ikl)
        s, t, den = a * d2, b * d1, p * d1 * d2
        vec = [s * x + t * y for x, y in zip(v1, v2)]
        g = gcd(den, *vec)
        row_of[t_ijl] = [x // g for x in vec], den // g
        s, t = c * d2, d * d1
        vec = [s * x + t * y for x, y in zip(v1, v2)]
        g = gcd(den, *vec)
        row_of[t_jkl] = [x // g for x in vec], den // g
    final = sorted(row_of)
    den = math.lcm(*(row_of[t][1] for t in final))
    num = [[x * (den // d) for x in v] for v, d in map(row_of.get, final)]
    # every flip block's columns sum to 1, so the product's do too
    if any(sum(col) != den for col in zip(*num)):
        raise AssertionError("flip product column sums are not all 1")
    return Matrix._from_ints(num, den), frozenset(final)


def loop_product(events, start, zeta) -> Matrix:
    """The matrix of a closed flip log: ``sequence_product`` from the
    triangle set ``start``, which the log must return to."""
    matrix, final = sequence_product(events, start, zeta)
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
    """
    labels = [as_rational(z) for z in labels]
    if len(labels) != 5 or len(set(clear_denominators(labels)[0])) != 5:
        raise ValueError("need five distinct labels")
    zeta = dict(zip(range(1, 6), labels))
    return loop_product(_PENTAGON_EVENTS, PENTAGON_START, zeta)


# --- flip sequence JSON ------------------------------------------------------

def flip_entry_json(event: FlipEvent, indent: str = "\n") -> str:
    """The flip log's entry of ``event``, written as ``json.dumps(entry,
    indent=2)`` writes it at the depth whose newline and indent is
    ``indent``: ``removed``, ``inserted``, ``quad`` and ``gamma``, then
    ``t_lo`` and ``t_hi`` when both are set.  The one definition of an
    entry, for integer indices; ``flip_sequence_to_json`` reads it back."""
    plain, bracketed = _entry_templates(indent)
    (i, k), (j, l), lo, hi = event
    fields = (i, k, j, l, *sorted((i, k, j, l)),
              gamma_generator_name(event))
    if lo is None or hi is None:
        return plain % fields
    return bracketed % (*fields, lo, hi)


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
    one whose bracket is half given, reversed or outside [0, 1], or whose
    ``quad`` or ``gamma`` is not the one its pairs give.
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
            if (lo is None) != (hi is None):
                raise ValueError("'t_lo' and 't_hi' must be given together")
            if lo is not None and not 0 <= lo <= hi <= 1:
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
