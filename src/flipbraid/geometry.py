"""Exact planar predicates and the labeled point configuration model.

All coordinates and labels are Fractions; predicate signs are computed on
integers after clearing denominators, so there is no epsilon anywhere.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .linalg import as_rational, json_entries

Point = tuple  # (Fraction, Fraction)


class DegenerateCircleError(ValueError):
    """incircle asked for the circumcircle of collinear points."""


def _scale_to_ints(values: Sequence[Fraction]) -> list:
    lcm = 1
    for v in values:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    return [v.numerator * (lcm // v.denominator) for v in values]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of twice the signed area of (a, b, c); +1 = counterclockwise."""
    ax, ay, bx, by, cx, cy = _scale_to_ints(
        [a[0], a[1], b[0], b[1], c[0], c[1]])
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """+1 iff d is strictly inside the circumcircle of (a, b, c).

    0 means the four points are cocircular, -1 strictly outside.
    Orientation of (a, b, c) is normalized internally, so callers may pass
    the triangle vertices in any order.
    """
    orient = orient2d(a, b, c)
    if orient == 0:
        raise DegenerateCircleError(f"degenerate circumcircle: {a}, {b}, {c}")
    ax, ay, bx, by, cx, cy, dx, dy = _scale_to_ints(
        [a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]])
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    return _sign(det) * orient


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
        if len(set(self.positions.values())) != len(self.points):
            raise ValueError("coincident points")
        if len(self.boundary) != 3 or len(set(self.boundary)) != 3:
            raise ValueError("boundary must be 3 distinct indices")
        if any(b not in self.positions for b in self.boundary):
            raise ValueError("boundary indices missing from points")
        a, b, c = (self.positions[i] for i in self.boundary)
        for p in self.points:
            if p.index in self.boundary:
                continue
            if not _strictly_inside_triangle(p.xy, a, b, c):
                raise ValueError(
                    f"point {p.index} is not strictly inside the boundary"
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
    if orient2d(a, b, c) < 0:
        a, b = b, a
    return (orient2d(a, b, p) > 0 and orient2d(b, c, p) > 0
            and orient2d(c, a, p) > 0)


def validate_general_position(config: Configuration) -> list:
    """Return the list of offending 4-subsets (empty means ok).

    A 4-subset offends when its points are cocircular and the open
    circumdisk contains no other configuration point.  Exhaustive O(m^4);
    authoritative at desk scale.
    """
    pts = config.points
    offending = []
    for quad in combinations(pts, 4):
        a, b, c, d = quad
        if orient2d(a.xy, b.xy, c.xy) == 0:
            # no circumcircle through a,b,c; try another triple of the quad
            if orient2d(a.xy, b.xy, d.xy) == 0:
                continue
            a, b, c, d = a, b, d, c
        if incircle(a.xy, b.xy, c.xy, d.xy) != 0:
            continue
        quad_idx = {q.index for q in quad}
        empty = all(
            incircle(a.xy, b.xy, c.xy, other.xy) <= 0
            for other in pts if other.index not in quad_idx)
        if empty:
            offending.append(tuple(sorted(quad_idx)))
    return offending
