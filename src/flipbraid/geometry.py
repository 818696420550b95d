"""Exact planar predicates and the labeled point configuration model.

All coordinates and labels are Fractions.  Predicate signs are computed on
integers: a configuration clears the denominators of all its coordinates
once, into ``Configuration.int_positions``, and the triangulation code
runs the integer cores ``_orient`` and ``_incircle`` on that map.  The
public ``orient2d`` and ``incircle`` clear the denominators of their own
arguments and call the same cores, so there is no epsilon anywhere.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import as_rational, json_entries

Point = tuple  # (Fraction, Fraction)


class DegenerateCircleError(ValueError):
    """incircle asked for the circumcircle of collinear points."""


def _integer_points(points) -> list:
    """The points scaled by the least common denominator of all their
    coordinates, as integer pairs.  A positive common scale keeps every
    orientation and incircle sign."""
    lcm = math.lcm(*(v.denominator for p in points for v in p))
    return [(x.numerator * (lcm // x.denominator),
             y.numerator * (lcm // y.denominator)) for x, y in points]


def _orient(a, b, c) -> int:
    """Sign of the orientation determinant of three integer points."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def _lifted_det(a, b, c, d) -> int:
    """The lifted incircle determinant of four integer points: positive
    iff d lies strictly inside the circumcircle of a counterclockwise
    triangle (a, b, c).  A polynomial of degree 2 in the coordinates of
    any one of the points."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))


def _incircle(a, b, c, d) -> int:
    """``incircle`` on integer points."""
    orient = _orient(a, b, c)
    if orient == 0:
        raise DegenerateCircleError(f"degenerate circumcircle: {a}, {b}, {c}")
    det = _lifted_det(a, b, c, d)
    return ((det > 0) - (det < 0)) * orient


def _inside(p, a, b, c) -> bool:
    """True when integer point p lies strictly inside triangle (a, b, c)."""
    if _orient(a, b, c) < 0:
        a, b = b, a
    return (_orient(a, b, p) > 0 and _orient(b, c, p) > 0
            and _orient(c, a, p) > 0)


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of twice the signed area of (a, b, c); +1 = counterclockwise."""
    return _orient(*_integer_points((a, b, c)))


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """+1 iff d is strictly inside the circumcircle of (a, b, c).

    0 means the four points are cocircular, -1 strictly outside.
    Orientation of (a, b, c) is normalized internally, so callers may pass
    the triangle vertices in any order.
    """
    if orient2d(a, b, c) == 0:
        raise DegenerateCircleError(f"degenerate circumcircle: {a}, {b}, {c}")
    return _incircle(*_integer_points((a, b, c, d)))


@dataclass(frozen=True)
class LabeledPoint:
    """A point with its configuration index and rational label."""

    index: int
    x: Fraction
    y: Fraction
    zeta: Fraction

    @staticmethod
    def make(index, x, y, zeta) -> "LabeledPoint":
        return LabeledPoint(int(index), as_rational(x), as_rational(y),
                            as_rational(zeta))

    @property
    def xy(self) -> Point:
        return (self.x, self.y)


@dataclass(frozen=True)
class Configuration:
    """All n+3 labeled points: 3 fixed triangle vertices plus n mobile ones.

    Construction checks index/label uniqueness and strict containment of the
    interior points; general position is checked separately by
    :func:`validate_general_position` (it is deliberately allowed to fail
    mid-motion, where the Delaunay builder reports the degeneracy).
    """

    points: tuple
    boundary: tuple

    def __post_init__(self):
        indices = [p.index for p in self.points]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate point indices")
        zetas = [p.zeta for p in self.points]
        if len(set(zetas)) != len(zetas):
            raise ValueError("zeta labels must be pairwise distinct")
        ints = self.int_positions
        if len(set(ints.values())) != len(self.points):
            raise ValueError("coincident points")
        if len(self.boundary) != 3 or len(set(self.boundary)) != 3:
            raise ValueError("boundary must be 3 distinct indices")
        if any(b not in ints for b in self.boundary):
            raise ValueError("boundary indices missing from points")
        a, b, c = (ints[i] for i in self.boundary)
        for index, p in ints.items():
            if index not in self.boundary and not _inside(p, a, b, c):
                raise ValueError(
                    f"point {index} is not strictly inside the boundary"
                    " triangle")

    @property
    def n(self) -> int:
        return len(self.points) - 3

    @property
    def interior(self) -> tuple:
        bset = set(self.boundary)
        return tuple(p.index for p in self.points if p.index not in bset)

    @functools.cached_property
    def positions(self) -> dict:
        """Point index -> (x, y), built once per configuration."""
        return {p.index: p.xy for p in self.points}

    @functools.cached_property
    def int_positions(self) -> dict:
        """Point index -> integer (x, y): ``positions`` scaled by the least
        common denominator of all coordinates, which keeps every predicate
        sign.  The triangulation code reads only this map."""
        return dict(zip(self.positions,
                        _integer_points(self.positions.values())))

    def zeta_map(self) -> dict:
        return {p.index: p.zeta for p in self.points}

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"index": p.index, "x": str(p.x), "y": str(p.y),
                 "zeta": str(p.zeta)}
                for p in self.points
            ],
            "boundary": list(self.boundary),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Configuration":
        """The configuration that ``to_json_dict`` wrote; malformed input
        raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"expected an object, got {data!r}")
        points = json_entries(
            data.get("points"), "point",
            lambda d: LabeledPoint.make(operator.index(d["index"]), d["x"],
                                        d["y"], d["zeta"]))
        boundary = data.get("boundary")
        if not isinstance(boundary, (list, tuple)):
            raise ValueError(f"'boundary' must be a list, got {boundary!r}")
        return Configuration(tuple(points), tuple(boundary))


def _strictly_inside_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    return _inside(*_integer_points((p, a, b, c)))


def validate_general_position(config: Configuration) -> list:
    """Return the list of offending 4-subsets (empty means ok).

    A 4-subset offends when its points are cocircular and the open
    circumdisk contains no other configuration point.  Exhaustive O(m^4);
    authoritative at desk scale.
    """
    pts = config.int_positions
    offending = []
    for quad in combinations(pts, 4):
        a, b, c, d = (pts[i] for i in quad)
        if _orient(a, b, c) == 0:
            # no circumcircle through a,b,c; try another triple of the quad
            if _orient(a, b, d) == 0:
                continue
            c, d = d, c
        if _incircle(a, b, c, d) != 0:
            continue
        empty = all(_incircle(a, b, c, xy) <= 0
                    for index, xy in pts.items() if index not in quad)
        if empty:
            offending.append(tuple(sorted(quad)))
    return offending
