"""Flip extraction from piecewise-linear point motions.

Configurations are evaluated at exact rational sample times; adjacent
Delaunay triangulations are diffed, and intervals are bisected until each
one contains a single certified flip (or the width floor is reached, where
far-commuting simultaneous flips are ordered lexicographically).  Event
times are never computed, only the flip order, which is all the matrix
product needs.

Only the moving points change between samples.  A trajectory set builds
the Delaunay triangle set of its constant points once; each sample
interpolates the movers, inserts them with the Bowyer-Watson step of
``build_delaunay`` and checks the result with the O(n) local edge test.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .delaunay import (DegenerateConfigurationError, FlipEvent, apply_flip,
                       diff_flips, insert_point, triangle, verify_delaunay)
from .geometry import Configuration, LabeledPoint, _incircle
from .linalg import as_rational, json_entries

DEFAULT_STEP = Fraction(1, 64)
DEFAULT_FLOOR = Fraction(1, 2 ** 40)


class UnresolvedEventError(RuntimeError):
    """Bisection hit the floor on overlapping simultaneous flips."""


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path of one point over [0, 1]."""

    index: int
    breakpoints: tuple  # ((time, (x, y)), ...) with strictly increasing times

    def __post_init__(self):
        times = [t for t, _ in self.breakpoints]
        if not times or times[0] != 0 or times[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("breakpoint times must strictly increase")

    @staticmethod
    def piecewise(index: int, points) -> "Trajectory":
        bps = tuple((as_rational(t), (as_rational(x), as_rational(y)))
                    for t, (x, y) in points)
        return Trajectory(index, bps)

    def is_constant(self) -> bool:
        first = self.breakpoints[0][1]
        return all(pos == first for _, pos in self.breakpoints)

    def position_at(self, t: Fraction):
        times = [bt for bt, _ in self.breakpoints]
        k = bisect.bisect_right(times, t) - 1
        if k == len(times) - 1:
            return self.breakpoints[-1][1]
        (t0, (x0, y0)), (t1, (x1, y1)) = self.breakpoints[k:k + 2]
        u = (t - t0) / (t1 - t0)
        return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))


@dataclass(frozen=True)
class TrajectorySet:
    """Trajectories for every point of a configuration.

    Boundary points must be constant; labels and boundary roles come from
    the initial configuration.
    """

    initial: Configuration
    trajectories: tuple  # sorted by point index, one per point

    def __post_init__(self):
        indices = sorted(tr.index for tr in self.trajectories)
        if indices != sorted(p.index for p in self.initial.points):
            raise ValueError("trajectories must cover every point exactly once")
        by_index = {tr.index: tr for tr in self.trajectories}
        for b in self.initial.boundary:
            if not by_index[b].is_constant():
                raise ValueError(f"boundary point {b} must stay fixed")
        for p in self.initial.points:
            if by_index[p.index].breakpoints[0][1] != p.xy:
                raise ValueError(
                    f"trajectory of point {p.index} does not start at its"
                    " initial position")

    @functools.cached_property
    def movers(self) -> tuple:
        """Indices of the points whose trajectory is not constant."""
        return tuple(tr.index for tr in self.trajectories
                     if not tr.is_constant())

    @functools.cached_property
    def stationary_triangles(self) -> frozenset:
        """Delaunay triangle set of the constant points, built once.

        Every sample inserts the movers into it.  It is left unverified: a
        cocircular 4-subset of constant points is legal here when its disk
        holds a mover, and a sample that stays degenerate is caught when
        the sample is verified.
        """
        tris = {triangle(*self.initial.boundary)}
        for index in self.initial.interior:
            if index not in self.movers:
                insert_point(tris, self.initial.int_positions, index)
        return frozenset(tris)

    @staticmethod
    def from_motion(config: Configuration, paths: dict) -> "TrajectorySet":
        """Constant trajectories except for the points listed in ``paths``."""
        trs = []
        for p in sorted(config.points, key=lambda q: q.index):
            path = paths.get(p.index, [(0, p.xy), (1, p.xy)])
            trs.append(Trajectory.piecewise(p.index, path))
        return TrajectorySet(config, tuple(trs))

    def trajectory(self, index: int) -> Trajectory:
        for tr in self.trajectories:
            if tr.index == index:
                return tr
        raise KeyError(index)

    def to_json_dict(self) -> dict:
        return {
            "trajectories": [
                {"index": tr.index,
                 "breakpoints": [[str(t), str(x), str(y)]
                                 for t, (x, y) in tr.breakpoints]}
                for tr in self.trajectories
            ]
        }

    @staticmethod
    def from_json_dict(data: dict, boundary, zeta) -> "TrajectorySet":
        """Rebuild from the trajectory JSON plus labels and boundary roles
        (which live in the configuration JSON, not here); malformed JSON
        raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"expected an object, got {data!r}")
        trajectories = sorted(
            json_entries(data.get("trajectories"), "trajectory",
                         _trajectory_from_json),
            key=lambda tr: tr.index)
        points = tuple(
            LabeledPoint(tr.index, *tr.breakpoints[0][1],
                         as_rational(zeta[tr.index]))
            for tr in trajectories)
        return TrajectorySet(Configuration(points, tuple(boundary)),
                             tuple(trajectories))


def _trajectory_from_json(d: dict) -> Trajectory:
    return Trajectory.piecewise(operator.index(d["index"]),
                                [(t, (x, y)) for t, x, y in d["breakpoints"]])


def configuration_at(ts: TrajectorySet, t) -> Configuration:
    """Exact linear interpolation of every moving trajectory at time t;
    the other points keep their initial position."""
    t = as_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")
    start = {p.index: p for p in ts.initial.points}
    pts = []
    for tr in ts.trajectories:
        p = start[tr.index]
        if tr.index in ts.movers:
            p = LabeledPoint(p.index, *tr.position_at(t), p.zeta)
        pts.append(p)
    return Configuration(tuple(pts), ts.initial.boundary)


def _sample_at(ts: TrajectorySet, t: Fraction) -> tuple:
    """The sample (time, configuration, Delaunay triangle set) at t: the
    movers inserted into the stationary triangle set, then verified."""
    config = configuration_at(ts, t)
    tris = set(ts.stationary_triangles)
    for index in ts.movers:
        insert_point(tris, config.int_positions, index)
    tris = frozenset(tris)
    verify_delaunay(tris, config)
    return t, config, tris


def _sample(ts: TrajectorySet, t: Fraction, lo: Fraction, hi: Fraction,
            floor: Fraction) -> tuple:
    """The sample at t, jittering the sample time inside (lo, hi) when t
    happens to be degenerate."""
    jitter = floor / 3
    attempt_t = t
    last_error = None
    for _ in range(12):
        try:
            return _sample_at(ts, attempt_t)
        except DegenerateConfigurationError as err:
            last_error = err
            candidate = t + jitter
            if not lo < candidate < hi:
                candidate = t - jitter
            if not lo < candidate < hi:
                raise
            attempt_t = candidate
            jitter /= 3
    raise last_error


def _crossing_certified(before_config: Configuration,
                        after_config: Configuration, event: FlipEvent) -> bool:
    """True when the event's quadrilateral changes incircle sign across the
    bracket, certifying a genuine cocircularity crossing."""
    i, k = event.removed
    j, l = event.inserted
    pa, pb = before_config.int_positions, after_config.int_positions
    sa = _incircle(pa[i], pa[j], pa[k], pa[l])
    sb = _incircle(pb[i], pb[j], pb[k], pb[l])
    return sa == -1 and sb == 1


def _far_commuting(events) -> bool:
    quads = [set(e.quad) for e in events]
    return all(len(q1 & q2) <= 2
               for a, q1 in enumerate(quads) for q2 in quads[a + 1:])


def extract_flip_sequence(ts: TrajectorySet, step=DEFAULT_STEP,
                          floor=DEFAULT_FLOOR) -> list:
    """Time-ordered FlipEvents of the motion, each with a rational bracket.

    The endpoint configurations must be in general position.  Inside the
    interval, degenerate sample times are jittered (the trajectory, which
    defines the braid, is never perturbed).
    """
    step, floor = as_rational(step), as_rational(floor)
    if not 0 < floor <= step <= 1:
        raise ValueError("need 0 < floor <= step <= 1")
    start = _sample_at(ts, Fraction(0))
    end = _sample_at(ts, Fraction(1))

    grid = [start]
    t = step
    while t < 1:
        grid.append(_sample(ts, t, grid[-1][0], Fraction(1), floor))
        t += step
    grid.append(end)

    events = []
    for a, b in zip(grid, grid[1:]):
        _refine(ts, a, b, floor, events)

    replay = start[2]
    for e in events:
        replay = apply_flip(replay, e)
    if replay != end[2]:
        raise AssertionError("flip replay does not reproduce the final"
                             " triangulation")
    return events


def _refine(ts, a, b, floor, events):
    """Append the flips between samples a and b, bisecting until each
    bracket holds one certified flip or reaches the width floor."""
    (ta, config_a, tria), (tb, config_b, trib) = a, b
    diff = diff_flips(tria, trib)
    if diff == []:
        return
    width = tb - ta
    if diff is not None and len(diff) == 1:
        event = diff[0]
        if _crossing_certified(config_a, config_b, event) or width <= floor:
            events.append(event.with_bracket(ta, tb))
            return
    if width <= floor:
        if diff is None or not _far_commuting(diff):
            changed = sorted(tria ^ trib)
            raise UnresolvedEventError(
                f"unresolved codimension-2 event in [{ta}, {tb}]"
                f" changing triangles {changed}; perturb trajectories")
        # simultaneous far-commuting flips: lexicographic quad order is
        # sound because their matrices commute
        events.extend(e.with_bracket(ta, tb) for e in diff)
        return
    mid = _sample(ts, ta + width / 2, ta, tb, floor)
    _refine(ts, a, mid, floor, events)
    _refine(ts, mid, b, floor, events)
