"""Flip extraction from piecewise-linear point motions.

Two extractors return the time-ordered FlipEvents of a motion, each with a
rational bracket (t_lo, t_hi) around its time.

``exact_flip_sequence`` is the kinetic event engine for a motion of one
point, the default path of the invariant and the command line.  On each
linear segment of the mover's path, the certificate of every interior edge
whose quad holds the mover is its lifted incircle determinant, a quadratic
in time.  Each flip happens at a root of one of them; the roots lie in
Q(sqrt(D)) and are computed and ordered exactly, with integer arithmetic.
It samples nothing.

``extract_flip_sequence`` samples: configurations are evaluated at exact
rational sample times, adjacent Delaunay triangulations are diffed, and
intervals are bisected until each one contains a single certified flip (or
the width floor is reached, where far-commuting simultaneous flips are
ordered lexicographically).  It never computes an event time.  It is the
test oracle, the path that explicit sampling settings select, and the one
for motions of several points.

A trajectory set holds the paths of the moving points only; every other
point keeps its initial position.  Each sample is a validated
``Configuration`` triangulated by ``build_delaunay``.  The engine builds
the triangulation of the initial configuration once, moves it by flips and
checks the final one with the O(n) local edge test.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .delaunay import (DegenerateConfigurationError, FlipEvent, apply_flip,
                       build_delaunay, diff_flips, triangle, verify_delaunay)
from .geometry import (Configuration, LabeledPoint, _incircle,
                       _integer_points, _inside, _lifted_det, _orient,
                       _segment_meets)
from .linalg import as_rational

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
        times = self.times
        if not times or times[0] != 0 or times[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("breakpoint times must strictly increase")

    @staticmethod
    def piecewise(index: int, points) -> "Trajectory":
        bps = tuple((as_rational(t), (as_rational(x), as_rational(y)))
                    for t, (x, y) in points)
        return Trajectory(index, bps)

    @functools.cached_property
    def times(self) -> tuple:
        """The breakpoint times, collected once."""
        return tuple(t for t, _ in self.breakpoints)

    def is_constant(self) -> bool:
        first = self.breakpoints[0][1]
        return all(pos == first for _, pos in self.breakpoints)

    def position_at(self, t: Fraction):
        times = self.times
        k = bisect.bisect_right(times, t) - 1
        if k == len(times) - 1:
            return self.breakpoints[-1][1]
        (t0, (x0, y0)), (t1, (x1, y1)) = self.breakpoints[k:k + 2]
        u = (t - t0) / (t1 - t0)
        return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))


@dataclass(frozen=True)
class TrajectorySet:
    """The paths of the moving points of a configuration.

    ``trajectories`` holds one Trajectory per moving point, sorted by
    index, each starting at that point's initial position; every other
    point keeps its initial position.  Boundary points must stay fixed.
    Labels and boundary roles come from the initial configuration.
    """

    initial: Configuration
    trajectories: tuple  # the movers' trajectories, sorted by point index

    def __post_init__(self):
        if list(self.movers) != sorted(set(self.movers)):
            raise ValueError("trajectories must be sorted by distinct index")
        positions = self.initial.positions
        for tr in self.trajectories:
            if tr.index not in positions:
                raise ValueError(f"trajectory of point {tr.index}: the"
                                 " configuration has no such point")
            if tr.index in self.initial.boundary:
                raise ValueError(f"boundary point {tr.index} must stay fixed")
            if tr.breakpoints[0][1] != positions[tr.index]:
                raise ValueError(
                    f"trajectory of point {tr.index} does not start at its"
                    " initial position")

    @property
    def movers(self) -> tuple:
        """Indices of the moving points."""
        return tuple(tr.index for tr in self.trajectories)

    @staticmethod
    def from_motion(config: Configuration, paths: dict) -> "TrajectorySet":
        """The motion in which the points listed in ``paths`` (index ->
        breakpoints) follow their paths; constant paths are dropped."""
        trs = (Trajectory.piecewise(index, paths[index])
               for index in sorted(paths))
        return TrajectorySet(config, tuple(tr for tr in trs
                                           if not tr.is_constant()))


def configuration_at(ts: TrajectorySet, t) -> Configuration:
    """The configuration at time t: each mover at the exact linear
    interpolation of its path, every other point at its initial position."""
    t = as_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")
    moved = {tr.index: tr.position_at(t) for tr in ts.trajectories}
    return Configuration(
        tuple(LabeledPoint(p.index, *moved[p.index], p.zeta)
              if p.index in moved else p for p in ts.initial.points),
        ts.initial.boundary)


def _sample_at(ts: TrajectorySet, t: Fraction) -> tuple:
    """The sample (time, configuration, Delaunay triangle set) at t."""
    config = configuration_at(ts, t)
    return t, config, build_delaunay(config)


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


def _overlap(quads):
    """The first pair of quads that share more than two points (flips
    that do not far-commute), or None."""
    for a, q1 in enumerate(quads):
        for q2 in quads[a + 1:]:
            if len(set(q1) & set(q2)) > 2:
                return q1, q2
    return None


def extract_flip_sequence(ts: TrajectorySet, step=DEFAULT_STEP,
                          floor=DEFAULT_FLOOR) -> list:
    """Time-ordered FlipEvents of the motion, each with a rational bracket.

    The endpoint configurations must be in general position.  Inside the
    interval, degenerate sample times are jittered (the trajectory, which
    defines the braid, is never perturbed).

    The log can miss flips.  When a flip and its inverse both fall between
    two adjacent samples, the two triangulations agree and ``_refine``
    logs neither.  The product is still right, because the two flip
    matrices cancel, but the log is then not the full motion; the exact
    engine logs both.
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
        if diff is None or _overlap([e.quad for e in diff]):
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


# --- exact single-mover event engine -----------------------------------------
#
# A time is a tuple (u, v, d, w) of integers, the real number
# (u + v*sqrt(d)) / w with w > 0, d >= 0, and v == 0 whenever d is a perfect
# square, so a rational time has v == 0.  Every event time of one linear
# segment is a root of a quadratic with integer coefficients, so it has this
# form, and two of them are compared by the signs of integer expressions.

def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_root(a, b, d) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    sa, sb = _sign(a), _sign(b) * (d > 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa * _sign(a * a - b * b * d)


def _sign_sum(a, b, d, c, e) -> int:
    """Sign of a + b*sqrt(d) + c*sqrt(e) for integers a, b, c and d, e >= 0:
    when the two parts have opposite signs, compare their squares
    (Emiris and Tsigaridas, ESA 2004)."""
    sx, sy = _sign_root(a, b, d), _sign(c) * (e > 0)
    if sy == 0:
        return sx
    if sx == 0 or sx == sy:
        return sy
    return sx * _sign_root(a * a + b * b * d - c * c * e, 2 * a * b, d)


def _time(u, v, d, w) -> tuple:
    """The normalized time (u + v*sqrt(d)) / w, for w != 0."""
    if w < 0:
        u, v, w = -u, -v, -w
    root = math.isqrt(d)
    if root * root == d:
        u, v, d = u + v * root, 0, 0
    return (u, v, d, w)


def _rational_time(t) -> tuple:
    return (t.numerator, 0, 0, t.denominator)


def _compare(x, y) -> int:
    """Sign of x - y for two times."""
    u1, v1, d1, w1 = x
    u2, v2, d2, w2 = y
    return _sign_sum(u1 * w2 - u2 * w1, v1 * w2, d1, -v2 * w1, d2)


def _format_time(t) -> str:
    """The exact time, and for an irrational one also its first six
    decimals, truncated."""
    u, v, d, w = t
    if v == 0:
        return str(Fraction(u, w))
    sign = "+" if v > 0 else "-"
    micros = _floor_scaled(t, 10 ** 6)
    return (f"({u} {sign} {abs(v)}*sqrt({d}))/{w}"
            f" = {micros // 10 ** 6}.{micros % 10 ** 6:06d}...")


def _floor_scaled(t, scale: int) -> int:
    """floor(t * scale) for a positive integer scale."""
    u, v, d, w = t
    square = v * v * d * scale * scale
    root = math.isqrt(square)
    if v >= 0:
        whole = u * scale + root
    else:
        whole = u * scale - root - (root * root != square)
    return whole // w


def _bracket(t, before, after) -> tuple:
    """The rational bracket (t_lo, t_hi) of an event at time t, given the
    times of the previous and next events (None at either end).

    It is the coarsest dyadic cell [k/2^m, (k+1)/2^m], with 2^m at least
    64 (the sampler's default grid), that holds t in its open interior and
    no other event in its closure: the cell in which bisection from that
    grid first sees this flip alone.  Where t is a point of the level-m
    grid, no cell of that level holds it inside, and the level's candidate
    is [t - 2^-m, t + 2^-m] instead.  Either way t_lo < t < t_hi, and
    neither end is the time of another event.
    """
    scale = DEFAULT_STEP.denominator
    while True:
        k = _floor_scaled(t, scale)
        on_grid = t[1] == 0 and t[0] * scale == k * t[3]
        lo, hi = (k - on_grid, 0, 0, scale), (k + 1, 0, 0, scale)
        if (0 <= lo[0] and hi[0] <= scale
                and (before is None or _compare(before, lo) < 0)
                and (after is None or _compare(hi, after) < 0)):
            return Fraction(lo[0], scale), Fraction(hi[0], scale)
        scale *= 2


class _MoverKDS:
    """Kinetic Delaunay triangulation of one moving point among constant
    points (Basch, Guibas and Hershberger, J. Algorithms 1999).

    The triangulation is held as ``apex``: directed edge (u, v) -> w for
    every counterclockwise triangle (u, v, w).  The certificate of an
    interior edge (u, v) is the lifted incircle determinant of
    (u, v, apex[u, v], apex[v, u]), negative while the edge is locally
    Delaunay.  Only quads holding the mover change, and on a linear segment
    of its path each such certificate is a quadratic in the segment
    parameter; an edge fails at the root where it turns positive.  An
    orientation certificate never fails first: the mover enters the
    circumdisk across an edge before it can reach the edge.
    """

    def __init__(self, ts: TrajectorySet, start: frozenset):
        self.mover = ts.movers[0]
        positions = ts.initial.int_positions
        self.boundary = ts.initial.boundary
        self.stationary = {index: xy
                           for index, xy in ts.initial.positions.items()
                           if index != self.mover}
        self.apex = {}
        for a, b, c in start:
            if _orient(positions[a], positions[b], positions[c]) < 0:
                b, c = c, b
            self.apex.update({(a, b): c, (b, c): a, (c, a): b})
        self.events = []  # (time, FlipEvent) in time order

    def run_segment(self, t0: Fraction, p0, t1: Fraction, p1) -> None:
        """Advance the mover linearly from p0 at time t0 to p1 at t1,
        flipping every edge whose certificate fails in [t0, t1).  A failure
        exactly at t1 belongs to the next segment, which sees the sign the
        certificate takes after t1."""
        mover = self.mover
        p2 = (2 * p1[0] - p0[0], 2 * p1[1] - p0[1])
        ints = _integer_points([*self.stationary.values(), p0, p1, p2])
        fixed = dict(zip(self.stationary, ints))
        # the mover at segment parameters s = 0, 1, 2 fix each quadratic
        self.placements = [{**fixed, mover: m} for m in ints[-3:]]
        self._check_clearance(fixed, ints[-3], ints[-2], t0, t1)
        dt = t1 - t0
        q = math.lcm(t0.denominator, dt.denominator)
        self.segment = (t0.numerator * (q // t0.denominator),
                        dt.numerator * (q // dt.denominator), q)
        self.now, self.end = _rational_time(t0), _rational_time(t1)

        certs = {}  # sorted edge -> failure time
        live = set()
        for (a, b), c in self.apex.items():
            if a == mover:
                live.update((tuple(sorted((a, b))), tuple(sorted((b, c)))))
        for u, v in live:
            self._certify(certs, u, v)
        while certs:
            when, due = None, []
            for edge, t in certs.items():
                order = -1 if when is None else _compare(t, when)
                if order < 0:
                    when, due = t, [edge]
                elif order == 0:
                    due.append(edge)
            due.sort(key=self._quad)
            self._check_simultaneous(when, due)
            self.now = when
            for u, v in due:
                del certs[u, v]
                event = self._flip(u, v)
                self.events.append((when, event))
                i, k = event.removed
                j, l = event.inserted
                for a, b in ((i, j), (j, k), (k, l), (l, i), (j, l)):
                    self._certify(certs, a, b)

    def _check_clearance(self, fixed, m0, m1, t0, t1) -> None:
        """A typed error when the segment leaves the boundary triangle or
        meets a constant point; the boundary triangle is convex, so checking
        the segment's ends suffices for the first."""
        corners = [fixed[b] for b in self.boundary]
        for m, t in ((m0, t0), (m1, t1)):
            if not _inside(m, *corners):
                raise ValueError(f"point {self.mover} is not strictly inside"
                                 f" the boundary triangle at time {t}")
        for index, p in fixed.items():
            if _segment_meets(m0, m1, p):
                raise ValueError(f"point {self.mover} meets point {index}"
                                 f" in [{t0}, {t1}]")

    def _quad(self, edge) -> tuple:
        u, v = edge
        return tuple(sorted((u, v, self.apex[u, v], self.apex[v, u])))

    def _certify(self, certs: dict, u, v) -> None:
        """(Re)schedule the certificate of edge (u, v).  Edges of the
        boundary triangle carry none; a quad of constant points is checked
        once, when the edge gets it, and never changes."""
        edge = (u, v) if u < v else (v, u)
        certs.pop(edge, None)
        if (u, v) not in self.apex or (v, u) not in self.apex:
            return
        c, d = self.apex[u, v], self.apex[v, u]
        if self.mover not in (u, v, c, d):
            if _lifted_det(*(self.placements[0][i] for i in (u, v, c, d))):
                return
            raise DegenerateConfigurationError((u, v, c, d))
        f0, f1, f2 = (_lifted_det(p[u], p[v], p[c], p[d])
                      for p in self.placements)
        when = self._failure(f2 - 2 * f1 + f0, 4 * f1 - f2 - 3 * f0, 2 * f0,
                             (u, v, c, d))
        if when is not None:
            certs[edge] = when

    def _failure(self, a2, b2, c2, quad):
        """The time in [now, segment end) at which the certificate
        (a2 s^2 + b2 s + c2) / 2 turns positive, or None.  Valid certificates
        are negative just after ``now``, so that time is the root where the
        derivative is positive, or a double root where the certificate only
        touches zero from above, (-b2 + sqrt(b2^2 - 4 a2 c2)) / (2 a2)."""
        a0, a1, q = self.segment
        if a2 == 0:
            if b2 == 0 and c2 == 0:
                raise DegenerateConfigurationError(quad)
            if b2 <= 0:
                return None
            when = _time(a0 * b2 - a1 * c2, 0, 0, b2 * q)
        else:
            disc = b2 * b2 - 4 * a2 * c2
            if disc < 0 or (disc == 0 and a2 < 0):
                return None
            when = _time(2 * a2 * a0 - a1 * b2, a1, disc, 2 * a2 * q)
        if _compare(when, self.now) < 0 or _compare(when, self.end) >= 0:
            return None
        return when

    def _check_simultaneous(self, when, due) -> None:
        """Flips at one instant must pairwise far-commute, the later ones
        included: those run in lexicographic quad order, which is sound
        because their matrices commute.  Others cannot be ordered."""
        quads = [self._quad(edge) for edge in due]
        for t, event in reversed(self.events):
            if _compare(t, when) != 0:
                break
            quads.append(event.quad)
        pair = _overlap(quads)
        if pair:
            raise UnresolvedEventError(
                f"unresolved codimension-2 event at t = {_format_time(when)}:"
                f" flips of quads {pair[0]} and {pair[1]} overlap; perturb"
                " trajectories")

    def _flip(self, u, v) -> FlipEvent:
        """Flip interior edge (u, v) of the counterclockwise quad
        (u, d, v, c) to (c, d)."""
        c, d = self.apex[u, v], self.apex[v, u]
        del self.apex[u, v], self.apex[v, u]
        self.apex.update({(u, d): c, (d, c): u, (c, u): d,
                          (d, v): c, (v, c): d, (c, d): v})
        return FlipEvent(tuple(sorted((u, v))), tuple(sorted((c, d))))

    def triangles(self) -> frozenset:
        return frozenset(triangle(u, v, w)
                         for (u, v), w in self.apex.items())

    def bracketed_events(self) -> list:
        groups = []  # (time, [FlipEvent, ...]) with distinct times
        for t, event in self.events:
            if groups and _compare(groups[-1][0], t) == 0:
                groups[-1][1].append(event)
            else:
                groups.append((t, [event]))
        out = []
        for g, (t, events) in enumerate(groups):
            before = groups[g - 1][0] if g > 0 else None
            after = groups[g + 1][0] if g + 1 < len(groups) else None
            lo, hi = _bracket(t, before, after)
            out.extend(e.with_bracket(lo, hi) for e in events)
        return out


def exact_flip_sequence(ts: TrajectorySet) -> list:
    """Time-ordered FlipEvents of a motion with at most one moving point,
    each bracketed as by ``_bracket``.

    The exact kinetic engine: it starts from the Delaunay triangulation of
    the initial configuration, computes every flip time as a root of an
    integer quadratic and orders the flips exactly, and checks that the
    final triangulation is the Delaunay triangulation at t = 1.  It samples
    nothing.  Either end must be in general position.  Simultaneous flips
    are ordered by quad when they far-commute and raise
    ``UnresolvedEventError`` otherwise.  Motions of several points take
    ``extract_flip_sequence``.
    """
    if len(ts.movers) > 1:
        raise ValueError("the exact engine moves one point; sample motions"
                         " of several with extract_flip_sequence")
    start = build_delaunay(ts.initial)
    if not ts.movers:
        return []
    kds = _MoverKDS(ts, start)
    path = ts.trajectories[0].breakpoints
    for (t0, p0), (t1, p1) in zip(path, path[1:]):
        kds.run_segment(t0, p0, t1, p1)
    verify_delaunay(kds.triangles(), configuration_at(ts, 1))
    return kds.bracketed_events()
