"""Transition matrices of Delaunay flips.

A flip exchanging diagonal {i,k} for {j,l} inside quadrilateral ijkl maps
the old triangle basis to the new one: shared triangles map to themselves,
and the two exchanged columns carry ratios of label differences.  Columns
are indexed by the old basis, rows by the new; matrices of later flips
multiply on the left.

``build_flip_matrix`` gives one flip as a dense matrix of Fractions; it is
the reference the fixtures and tests check against.  ``sequence_product``,
the one product path (letters and the pentagon cycle alike), never builds
one and does no Fraction arithmetic.  Scaling every label by the same
number leaves each ratio of label differences unchanged, so it clears the
labels' denominators once and works on integer labels.  A flip rewrites
only the rows of its two exchanged triangles, so the product is kept as one
integer row over a positive denominator per triangle, and each flip costs
O(n).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .delaunay import FlipEvent, apply_flip
from .linalg import Matrix, as_rational


def gamma_generator_name(event: FlipEvent) -> str:
    """Canonical quadrilateral-generator name 'd(a b c d)'.

    The eight tuples obtained by the dihedral symmetries of the
    quadrilateral ijkl, with (i, k) = ``removed`` and (j, l) = ``inserted``,
    name the same generator; the lexicographically least one is the
    canonical representative.
    """
    i, k = event.removed
    j, l = event.inserted
    variants = [(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j),
                (j, k, l, i), (j, i, l, k), (l, k, j, i), (l, i, j, k)]
    a, b, c, d = min(variants)
    return f"d({a} {b} {c} {d})"


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
    if any(s != 1 for s in m.column_sums()):
        raise AssertionError("flip matrix column sums are not all 1")
    return m


def sequence_product(events, start_triangles, zeta):
    """Multiply the flip matrices of ``events`` (in time order).

    Threads the ordered basis through every flip: the result maps
    coordinates in the starting basis to coordinates in the final one.
    Returns (matrix, final_triangles).

    The product is held as one row per current triangle: an integer vector
    over a positive denominator, with no common factor.  A flip replaces
    the rows r1, r2 of its two removed triangles by (a*r1 + b*r2) / p and
    (c*r1 + d*r2) / p, the integer block of ``_flip_block``; every other
    row is unchanged.  The rows are ordered by the final basis and put over
    one denominator once, at the end.
    """
    labels = _integer_labels(zeta)
    tris = frozenset(start_triangles)
    size = len(tris)
    row_of = {t: ([int(i == j) for j in range(size)], 1)
              for i, t in enumerate(sorted(tris))}
    for event in events:
        tris = apply_flip(tris, event)
        a, b, c, d, p = _flip_block(event, labels)
        t_ijk, t_ikl = event.removed_triangles()
        t_ijl, t_jkl = event.inserted_triangles()
        r1, r2 = row_of.pop(t_ijk), row_of.pop(t_ikl)
        row_of[t_ijl] = _mix_rows(a, r1, b, r2, p)
        row_of[t_jkl] = _mix_rows(c, r1, d, r2, p)
    rows = [row_of[t] for t in sorted(tris)]
    den = math.lcm(*(q for _, q in rows))
    num = [[x * (den // q) for x in v] for v, q in rows]
    # every flip block's columns sum to 1, so the product's do too
    if any(sum(col) != den for col in zip(*num)):
        raise AssertionError("flip product column sums are not all 1")
    return Matrix._from_ints(num, den), tris


def _integer_labels(zeta) -> dict:
    """The labels ``zeta`` scaled by the least common denominator of all of
    them: integers with the same flip blocks."""
    values = {index: as_rational(z) for index, z in zeta.items()}
    scale = math.lcm(*(z.denominator for z in values.values()))
    return {index: z.numerator * (scale // z.denominator)
            for index, z in values.items()}


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


def _mix_rows(a, r1, b, r2, p) -> tuple:
    """The row (a*r1 + b*r2) / p of two rows (vector, denominator), reduced
    to a positive denominator with no common factor."""
    (v1, d1), (v2, d2) = r1, r2
    s, t = a * d2, b * d1
    vec = [s * x + t * y for x, y in zip(v1, v2)]
    den = p * d1 * d2
    g = math.gcd(den, *vec)
    if den < 0:
        g = -g
    return [x // g for x in vec], den // g


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


def pentagon_cycle_product(labels) -> Matrix:
    """Product of the five cycle matrices, later flips on the left.

    ``labels`` assigns the five points 1..5 their rational labels.
    """
    if len(labels) != 5 or len(set(labels)) != 5:
        raise ValueError("need five distinct labels")
    zeta = {i + 1: v for i, v in enumerate(labels)}
    events = [FlipEvent(removed, inserted)
              for removed, inserted in PENTAGON_FLIPS]
    product, final = sequence_product(events, PENTAGON_START, zeta)
    if final != PENTAGON_START:
        raise AssertionError("pentagon cycle did not close up")
    return product


# --- flip sequence JSON ------------------------------------------------------

def flip_sequence_to_json(events) -> list:
    out = []
    for e in events:
        d = {
            "removed": list(e.removed),
            "inserted": list(e.inserted),
            "quad": list(e.quad),
            "gamma": gamma_generator_name(e),
        }
        if e.t_lo is not None and e.t_hi is not None:
            d["t_lo"] = str(e.t_lo)
            d["t_hi"] = str(e.t_hi)
        out.append(d)
    return out


def flip_sequence_from_json(data) -> list:
    """The events that ``flip_sequence_to_json`` wrote.

    A malformed entry raises ``ValueError`` naming its 1-based position.
    """
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a list of flip entries, got {data!r}")
    events = []
    for pos, d in enumerate(data, start=1):
        try:
            if not isinstance(d, dict):
                raise ValueError(f"expected an object, got {d!r}")
            events.append(FlipEvent(
                _index_pair(d, "removed"), _index_pair(d, "inserted"),
                _time(d, "t_lo"), _time(d, "t_hi")))
        except ValueError as err:
            raise ValueError(f"flip entry {pos}: {err}") from None
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
