"""Delaunay triangulations inside the fixed boundary triangle.

A triangulation is a frozenset of triangles, each an ascending index
triple; the canonical basis order is lexicographic (``sorted``), and a diff
of two triangulations decomposes into diagonal exchanges (flips) or reports
that it cannot.  Construction folds one Bowyer-Watson insertion step,
which keeps each triangle's circle cofactors, over the points, and
verification is the local edge test with the exact integer predicates;
both read ``Configuration.int_positions``.

``flip_shape`` is the one owner of a flip's combinatorics, a memo of at
most ``FLIP_SHAPE_MEMO`` (removed, inserted) pairs.  Its plain tuple, a
flip's sorted quad, its two removed and two inserted triangles and its
quadrilateral's canonical cycle, is read through ``FlipEvent``: ``quad``,
``removed_triangles()`` and ``inserted_triangles()``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .geometry import (Configuration, DegenerateCircleError, incircle,
                       orient2d)


def triangle(*indices) -> tuple:
    if len(indices) != 3 or len(set(indices)) != 3:
        raise ValueError(f"triangle needs 3 distinct indices: {indices}")
    return tuple(sorted(indices))


class DegenerateConfigurationError(ValueError):
    """A cocircular 4-subset with empty open circumdisk was hit."""

    def __init__(self, subset):
        self.subset = tuple(sorted(subset))
        super().__init__(
            f"degenerate configuration: cocircular subset {self.subset}")


def _cofactors(a, b, c) -> tuple:
    """(alpha, beta_x, beta_y, gamma) with alpha |p|^2 + beta.p + gamma the
    lifted incircle determinant of integer points (a, b, c, p), expanded
    along the row of p: positive exactly when p is inside the circle of a
    counterclockwise (a, b, c), whose alpha is minus twice its area."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    an, bn, cn = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bax, bay, ban = bx - ax, by - ay, bn - an
    cax, cay, can = cx - ax, cy - ay, cn - an
    lifted = (an * (bx * cy - by * cx) + bn * (cx * ay - cy * ax)
              + cn * (ax * by - ay * bx))
    return (cax * bay - bax * cay, cay * ban - bay * can,
            bax * can - cax * ban, lifted)


def remove_cavity(triangles: dict, cavity) -> set:
    """Delete the ``cavity`` triangles, all counterclockwise, from
    ``triangles`` and return the boundary of their union: their directed
    edges whose reverse lies on none of them."""
    edges = set()
    for tri in cavity:
        del triangles[tri]
        a, b, c = tri
        edges.update(((a, b), (b, c), (c, a)))
    return {(u, v) for u, v in edges if (v, u) not in edges}


def insert_point(circles: dict, positions: dict, index) -> None:
    """One Bowyer-Watson step (Bowyer, Comput. J. 1981; Watson, same
    issue): add point ``index`` of ``positions``, integer points, to the
    Delaunay triangulation ``circles``, each counterclockwise triangle
    mapped to its ``_cofactors``.  Its cavity, the triangles whose circle
    polynomial is positive at the point, is star-shaped from the point, so
    each boundary edge (u, v) gives a counterclockwise fan triangle
    (u, v, index); a collinear one raises ``DegenerateCircleError``."""
    p = px, py = positions[index]
    pp = px * px + py * py
    for u, v in remove_cavity(circles, [
            tri for tri, (alpha, beta_x, beta_y, gamma) in circles.items()
            if alpha * pp + beta_x * px + beta_y * py + gamma > 0]):
        circle = circles[u, v, index] = _cofactors(positions[u],
                                                   positions[v], p)
        if not circle[0]:
            raise DegenerateCircleError(f"collinear fan {(u, v, index)}")


def delaunay_circles(positions: dict, boundary, interior) -> dict:
    """The Delaunay triangulation of the ``boundary`` triangle, made
    counterclockwise (swapping two points negates the cofactors), and the
    ``interior`` points, one ``insert_point`` step each."""
    a, b, c = boundary
    circle = _cofactors(positions[a], positions[b], positions[c])
    circles = ({(a, b, c): circle} if circle[0] <= 0
               else {(b, a, c): tuple(-x for x in circle)})
    for index in interior:
        insert_point(circles, positions, index)
    return circles


def build_delaunay(config: Configuration) -> frozenset:
    """``delaunay_circles`` as ascending triples.  The boundary triangle
    encloses every other point, so no synthetic super-triangle is needed,
    and no two points coincide, so every cavity is non-empty.  The result
    is checked by ``verify_delaunay``: a point strictly inside a circumdisk
    is an internal error, a point exactly on one is a degeneracy of the
    input (reported with the offending 4-subset)."""
    result = frozenset(triangle(*tri) for tri in delaunay_circles(
        config.int_positions, config.boundary, config.interior))
    verify_delaunay(result, config)
    return result


def verify_delaunay(triangles: frozenset, config: Configuration) -> None:
    """Check that ``triangles`` is the Delaunay triangle set of ``config``;
    raises on any violation.

    The set must have 2n+1 triangles, each boundary edge must lie on one of
    them and every other edge on exactly two, lying on opposite sides of
    it.  Such a set triangulates the boundary triangle, and it is Delaunay
    when it is locally Delaunay at every interior edge: the vertex across
    the edge lies outside the circumdisk of the triangle on this side (de
    Berg et al., Computational Geometry, 3rd ed., section 9.2).  A vertex
    strictly inside raises ``AssertionError``.  Otherwise a vertex exactly
    on the circle raises ``DegenerateConfigurationError``: every cocircular
    face with an empty open disk has an interior diagonal whose two
    triangles share that circle, so no degeneracy is missed.
    """
    positions = config.int_positions
    n = config.n
    if len(triangles) != 2 * n + 1:
        raise AssertionError(
            f"expected {2 * n + 1} triangles, got {len(triangles)}")
    across = {}  # edge -> the vertices opposite it
    for a, b, c in sorted(triangles):
        for edge, apex in (((a, b), c), ((a, c), b), ((b, c), a)):
            across.setdefault(edge, []).append(apex)
    hull = {tuple(sorted(e)) for e in combinations(config.boundary, 2)}
    degenerate = None
    for edge, apexes in across.items():
        expected = 1 if edge in hull else 2
        if len(apexes) != expected:
            raise AssertionError(
                f"edge {edge} lies on {len(apexes)} triangles, not {expected}")
        if expected == 1:
            continue
        pa, pb = positions[edge[0]], positions[edge[1]]
        c, d = apexes
        pc, pd = positions[c], positions[d]
        if orient2d(pa, pb, pc) * orient2d(pa, pb, pd) != -1:
            raise AssertionError(
                f"triangles across edge {edge} do not lie on opposite sides")
        s = incircle(pa, pb, pc, pd)
        if s > 0:
            raise AssertionError(
                f"triangle {triangle(*edge, c)} circumdisk contains point {d}")
        if s == 0 and degenerate is None:
            degenerate = edge + (c, d)
    if degenerate is not None:
        raise DegenerateConfigurationError(degenerate)


FLIP_SHAPE_MEMO = 4096


@functools.lru_cache(maxsize=FLIP_SHAPE_MEMO)
def flip_shape(removed: tuple, inserted: tuple) -> tuple:
    """(quad, (t_ijk, t_ikl), (t_ijl, t_jkl), cycle) of the flip of (i, k) =
    ``removed`` for (j, l) = ``inserted``, two pairs of int indices: the
    four indices ascending, the removed and the inserted triangles, each
    ascending, and the least of the eight dihedral orders of the
    quadrilateral i j k l (with i < k and j < l, (i, j, k, l) when i < j,
    and (j, i, l, k) otherwise).  The one place a flip's triangles are
    worked out, memoized: a few hundred distinct flips recur over all the
    letters at one n."""
    (i, k), (j, l) = removed, inserted
    a, c = (i, k) if i < k else (k, i)
    b, d = (j, l) if j < l else (l, j)
    return (tuple(sorted((i, k, j, l))),
            (tuple(sorted((i, j, k))), tuple(sorted((i, k, l)))),
            (tuple(sorted((i, j, l))), tuple(sorted((j, k, l)))),
            (a, b, c, d) if a < b else (b, a, d, c))


class _FlipFields(NamedTuple):
    removed: tuple   # pair (i, k)
    inserted: tuple  # pair (j, l)
    t_lo: Optional[Fraction] = None
    t_hi: Optional[Fraction] = None


class FlipEvent(_FlipFields):
    """One diagonal exchange: edge {i,k} replaced by {j,l} in quad ijkl,
    with the bracket (t_lo, t_hi) of its time, both ends or neither, and
    t_lo <= t_hi.  Pairs that are not four distinct indices, or a bracket
    half given or reversed, raise ``ValueError``; an index that is not an
    int, or a bracket end that is not an int or a Fraction (a bool is
    neither), ``TypeError``.

    Either order within each pair names the same flip and gives the same
    matrix; events found by ``diff_flips`` carry sorted pairs.  The pairs
    are kept as tuples, and ``quad``, ``removed_triangles()`` and
    ``inserted_triangles()`` read the tuple of ``flip_shape``.
    """

    __slots__ = ()

    def __new__(cls, removed, inserted, t_lo=None, t_hi=None):
        removed, inserted = tuple(removed), tuple(inserted)
        if (len(removed) != 2 or len(inserted) != 2
                or len({*removed, *inserted}) != 4):
            raise ValueError(
                f"flip needs four distinct indices: {removed}, {inserted}")
        (i, k), (j, l) = removed, inserted
        if (type(i) is not int or type(k) is not int or type(j) is not int
                or type(l) is not int):
            raise TypeError(
                f"flip indices must be int: {removed}, {inserted}")
        if t_lo is None or t_hi is None:
            if t_lo is not t_hi:
                raise ValueError("'t_lo' and 't_hi' must be given together")
        elif (type(t_lo) is not Fraction and type(t_lo) is not int
              or type(t_hi) is not Fraction and type(t_hi) is not int):
            raise TypeError(f"bracket [{t_lo!r}, {t_hi!r}]: 't_lo' and"
                            " 't_hi' must be ints or Fractions")
        elif t_lo > t_hi:
            raise ValueError(f"bracket [{t_lo}, {t_hi}] is not ordered inside"
                             " [0, 1]: 't_lo' is above 't_hi'")
        return super().__new__(cls, removed, inserted, t_lo, t_hi)

    @property
    def quad(self) -> tuple:
        return flip_shape(self.removed, self.inserted)[0]

    def removed_triangles(self) -> tuple:
        return flip_shape(self.removed, self.inserted)[1]

    def inserted_triangles(self) -> tuple:
        return flip_shape(self.removed, self.inserted)[2]

    def reversed(self) -> "FlipEvent":
        return FlipEvent(self.inserted, self.removed, self.t_lo, self.t_hi)

    def with_bracket(self, t_lo, t_hi) -> "FlipEvent":
        return FlipEvent(self.removed, self.inserted, t_lo, t_hi)


def diff_flips(before: frozenset, after: frozenset) -> Optional[list]:
    """Decompose the difference of two triangle sets into FlipEvents.

    Returns [] when the sets agree, a list of events when the symmetric
    difference is a disjoint union of quadrilateral diagonal exchanges, and
    None otherwise (caller must refine).
    """
    removed = sorted(before - after)
    added = after - before
    if not removed and not added:
        return []
    if len(removed) != len(added) or len(removed) % 2:
        return None
    events = []
    remaining = set(added)
    pool = list(removed)
    while pool:
        t0 = pool.pop(0)
        match = None
        for t1 in pool:
            shared = set(t0) & set(t1)
            if len(shared) != 2:
                continue
            # two triangles on one edge span four vertices
            event = FlipEvent(tuple(sorted(shared)),
                              tuple(sorted(set(t0) ^ set(t1))))
            if not remaining.issuperset(event.inserted_triangles()):
                continue
            if match is not None:
                return None  # ambiguous pairing
            match = (t1, event)
        if match is None:
            return None
        t1, event = match
        pool.remove(t1)
        remaining.difference_update(event.inserted_triangles())
        events.append(event)
    if remaining:
        return None
    events.sort(key=lambda e: e.quad)
    return events


def flip_triangles(triangles, event: FlipEvent) -> tuple:
    """The event's (removed, inserted) triangle pairs; ``ValueError`` unless
    the flip applies to ``triangles``, any container of triangles."""
    old, new = event.removed_triangles(), event.inserted_triangles()
    if old[0] not in triangles or old[1] not in triangles:
        raise ValueError(
            f"flip {event} does not apply: {set(old)} not present")
    if new[0] in triangles or new[1] in triangles:
        raise ValueError(
            f"flip {event} does not apply: {set(new)} already present")
    return old, new


def apply_flip(triangles: frozenset, event: FlipEvent) -> frozenset:
    """Replace the event's two removed triangles with its two inserted ones."""
    old, new = flip_triangles(triangles, event)
    return triangles.difference(old).union(new)


# --- SVG snapshot -----------------------------------------------------------

def render_svg(triangles: frozenset, config: Configuration) -> str:
    """Plain SVG snapshot: triangles as polygons, points labeled by index."""
    width = 480
    xs = [p.x for p in config.points]
    ys = [p.y for p in config.points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, Fraction(1))
    margin = span / 20
    scale = Fraction(width) / (span + 2 * margin)

    def sx(x):
        return float((x - x0 + margin) * scale)

    def sy(y):
        # flip y so the picture is not upside down
        return float((y1 - y + margin) * scale)

    height = float((y1 - y0 + 2 * margin) * scale)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height:.1f}" viewBox="0 0 {width} {height:.1f}">',
    ]
    positions = config.positions
    for tri in sorted(triangles):
        pts = " ".join(f"{sx(positions[i][0]):.2f},{sy(positions[i][1]):.2f}"
                       for i in tri)
        out.append(f'<polygon points="{pts}" fill="none" stroke="black" '
                   'stroke-width="1"/>')
    for index, (x, y) in positions.items():
        cx, cy = sx(x), sy(y)
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="red"/>')
        out.append(f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" '
                   f'font-size="12">{index}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
