"""Exact planar predicates and the labeled point configuration model.

All coordinates and labels are Fractions.  There is one predicate pair,
``orient2d`` and ``incircle``: they only add, subtract and multiply, so
their signs are exact on integer and Fraction points alike, and there is
no epsilon anywhere.  A configuration clears the denominators of all its
coordinates once, into ``Configuration.int_positions``, and the
triangulation code runs the predicates on that map, where integer
arithmetic is fastest.  ``kinetics`` tests a motion's clearance on
integer points too, with ``_inside`` and ``_segment_meets``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .linalg import as_rational, clear_denominators, require_rational

Point = tuple  # (x, y), integers or Fractions


class DegenerateCircleError(ValueError):
    """incircle asked for the circumcircle of collinear points."""


def _integer_points(points) -> list:
    """The points as integer pairs, all scaled by one common denominator."""
    ints, _ = clear_denominators(chain.from_iterable(points))
    return list(zip(ints[::2], ints[1::2]))


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of twice the signed area of (a, b, c); +1 = counterclockwise."""
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


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """+1 iff d is strictly inside the circumcircle of (a, b, c).

    0 means the four points are cocircular, -1 strictly outside.
    Orientation of (a, b, c) is normalized internally, so callers may pass
    the triangle vertices in any order.
    """
    orient = orient2d(a, b, c)
    if orient == 0:
        raise DegenerateCircleError(f"degenerate circumcircle: {a}, {b}, {c}")
    det = _lifted_det(a, b, c, d)
    return ((det > 0) - (det < 0)) * orient


def _inside(p, a, b, c) -> bool:
    """True when point p lies strictly inside triangle (a, b, c)."""
    if orient2d(a, b, c) < 0:
        a, b = b, a
    return (orient2d(a, b, p) > 0 and orient2d(b, c, p) > 0
            and orient2d(c, a, p) > 0)


def _segment_meets(a, b, p) -> bool:
    """True when the closed segment ab meets point p."""
    return (orient2d(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


class _PointFields(NamedTuple):
    index: int
    x: Fraction
    y: Fraction
    zeta: Fraction


class LabeledPoint(_PointFields):
    """A point with its configuration index and rational label.

    Coordinates and label must be ints or Fractions (``TypeError``
    otherwise); ``make`` also coerces ``'p/q'`` strings."""

    __slots__ = ()

    def __new__(cls, index, x, y, zeta):
        require_rational(x, y, zeta)
        return super().__new__(cls, index, x, y, zeta)

    @staticmethod
    def make(index, x, y, zeta) -> "LabeledPoint":
        return LabeledPoint(int(index), as_rational(x), as_rational(y),
                            as_rational(zeta))

    @property
    def xy(self) -> Point:
        return (self.x, self.y)


class _ConfigurationFields(NamedTuple):
    points: tuple
    boundary: tuple


class Configuration(_ConfigurationFields):
    """All n+3 labeled points: 3 fixed triangle vertices plus n mobile ones.

    Construction checks index/label uniqueness and strict containment of the
    interior points.  General position is not checked here: it may fail
    mid-motion, and ``build_delaunay`` reports the degeneracy it meets.
    The instance dict (no ``__slots__``) holds the cached position maps.
    """

    def __new__(cls, points, boundary):
        self = super().__new__(cls, points, boundary)
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
        return self

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
