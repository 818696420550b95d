"""Delaunay triangulations inside the fixed boundary triangle.

A triangulation is a frozenset of triangles, each an ascending index
triple; the canonical basis order is lexicographic (``sorted``), and a diff
of two triangulations decomposes into diagonal exchanges (flips) or reports
that it cannot.  Construction folds one Bowyer-Watson insertion step over
the points, and verification is the local edge test; both run the exact
integer predicates on ``Configuration.int_positions``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .geometry import Configuration, incircle, orient2d


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


def insert_point(triangles: set, positions: dict, index) -> None:
    """One Bowyer-Watson step: add point ``index`` to ``triangles`` in place.

    The triangles whose open circumdisk strictly contains the point form
    its cavity, which ``fan_cavity`` replaces by the point's fan.
    ``positions`` maps each index to an integer point, such as a
    configuration's ``int_positions``.  Inserting into a Delaunay triangle
    set gives the Delaunay triangle set of the larger point set (Bowyer,
    Comput. J. 1981; Watson, Comput. J. 1981).
    """
    p = positions[index]
    cavity = [t for t in triangles
              if incircle(positions[t[0]], positions[t[1]], positions[t[2]],
                          p) > 0]
    fan_cavity(triangles, cavity, index)


def fan_cavity(triangles: set, cavity, index) -> None:
    """Replace the ``cavity`` triangles of ``triangles``, all ascending
    triples, in place by the fan from point ``index`` to the cavity's
    boundary edges: those that lie on one cavity triangle."""
    edge_count = {}
    for a, b, c in cavity:
        for e in ((a, b), (a, c), (b, c)):
            edge_count[e] = edge_count.get(e, 0) + 1
    triangles.difference_update(cavity)
    for (a, b), count in edge_count.items():
        if count == 1:
            triangles.add(triangle(a, b, index))


def build_delaunay(config: Configuration) -> frozenset:
    """Incremental Bowyer-Watson starting from the boundary triangle.

    The three fixed vertices serve as the enclosing triangle, so no
    synthetic super-triangle is needed.  Every interior point lies strictly
    inside the boundary triangle and no two points coincide, so each point
    lies strictly inside some current triangle's circumdisk and its cavity
    is never empty.  The result is checked by ``verify_delaunay``: a point
    strictly inside a circumdisk is an internal error, a point exactly on
    one is a degeneracy of the input (reported with the offending 4-subset).
    """
    tris = {triangle(*config.boundary)}
    for index in config.interior:
        insert_point(tris, config.int_positions, index)
    result = frozenset(tris)
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


class _FlipFields(NamedTuple):
    removed: tuple   # pair (i, k)
    inserted: tuple  # pair (j, l)
    t_lo: Optional[Fraction] = None
    t_hi: Optional[Fraction] = None


class FlipEvent(_FlipFields):
    """One diagonal exchange: edge {i,k} replaced by {j,l} in quad ijkl.

    Either order within each pair names the same flip and gives the same
    matrix; events found by ``diff_flips`` carry sorted pairs.
    """

    __slots__ = ()

    def __new__(cls, removed, inserted, t_lo=None, t_hi=None):
        if (len(removed) != 2 or len(inserted) != 2
                or len({*removed, *inserted}) != 4):
            raise ValueError(
                f"flip needs four distinct indices: {removed}, {inserted}")
        return super().__new__(cls, removed, inserted, t_lo, t_hi)

    @property
    def quad(self) -> tuple:
        return tuple(sorted(self.removed + self.inserted))

    def removed_triangles(self) -> tuple:
        (i, k), (j, l) = self.removed, self.inserted
        return tuple(sorted((i, j, k))), tuple(sorted((i, k, l)))

    def inserted_triangles(self) -> tuple:
        (i, k), (j, l) = self.removed, self.inserted
        return tuple(sorted((i, j, l))), tuple(sorted((j, k, l)))

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
            shared = tuple(sorted(set(t0) & set(t1)))
            if len(shared) != 2:
                continue
            other = tuple(sorted((set(t0) | set(t1)) - set(shared)))
            if len(other) != 2:
                continue
            new_pair = {triangle(other[0], other[1], shared[0]),
                        triangle(other[0], other[1], shared[1])}
            if not new_pair <= remaining:
                continue
            if match is not None:
                return None  # ambiguous pairing
            match = (t1, shared, other, new_pair)
        if match is None:
            return None
        t1, shared, other, new_pair = match
        pool.remove(t1)
        remaining -= new_pair
        events.append(FlipEvent(removed=shared, inserted=other))
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
