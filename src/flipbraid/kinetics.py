"""Flip extraction from piecewise-linear point motions.

Two extractors return the time-ordered FlipEvents of a motion, each with a
rational bracket (t_lo, t_hi) around its time.

``exact_flip_sequence`` is the exact event engine for a motion of one
point, the default path of the invariant and the command line.  With the
other points P fixed, Bowyer-Watson insertion (Bowyer, Comput. J. 24(2),
1981; Watson, same issue) makes the triangulation the Delaunay
triangulation DT(P) less the cavity of triangles whose circumdisk holds the
mover, plus the mover's fan over it.  So each flip happens when the mover
crosses the circumcircle of a triangle of DT(P): on each linear segment of
its path, a root of that circle's polynomial, a quadratic in time.  The
roots lie in Q(sqrt(D)) and are computed exactly, with integer arithmetic,
and ordered by integer keys, each from one isqrt (see ``_MoverKDS``).  It
samples nothing.

``extract_flip_sequence`` samples: configurations are evaluated at exact
rational sample times, adjacent Delaunay triangulations are diffed, and
intervals are bisected until each one contains a single certified flip (or
the width floor is reached, where far-commuting simultaneous flips are
ordered lexicographically).  It never computes an event time.  It is the
test oracle, the path that explicit sampling settings select, and the one
for motions of several points.

A trajectory set holds the paths of the moving points only; every other
point keeps its initial position.  Both extractors first check, once, that
each mover stays inside the boundary triangle and misses every stationary
point, and that no two movers meet.  Each sample is a
validated ``Configuration`` triangulated by ``build_delaunay``.  The engine
holds the triangulation as its cavity alone: it builds DT(P) once, reads
the start's cavity off the circle polynomials and checks that start once
with the O(n) local edge test, 57 ``incircle`` calls a letter at n = 7 in
all.  Each flip moves one triangle into or out of the cavity.  The
final triangulation is checked with the same test, or, when the mover's
path returns to its start with its initial cavity, not at all: it is then
the start.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .delaunay import (DegenerateConfigurationError, FlipEvent, apply_flip,
                       build_delaunay, diff_flips, fan_cavity, insert_point,
                       triangle, verify_delaunay)
from .geometry import (Configuration, DegenerateCircleError, LabeledPoint,
                       _integer_points, _inside, _segment_meets, incircle,
                       orient2d)
from .linalg import as_rational, clear_denominators, require_rational

DEFAULT_STEP = Fraction(1, 64)
DEFAULT_FLOOR = Fraction(1, 2 ** 40)


class UnresolvedEventError(RuntimeError):
    """Bisection hit the floor on overlapping simultaneous flips."""


class ClearanceError(ValueError):
    """A mover leaves the boundary triangle or meets another point."""


class _TrajectoryFields(NamedTuple):
    index: int
    breakpoints: tuple  # ((time, (x, y)), ...) with strictly increasing times


class Trajectory(_TrajectoryFields):
    """Piecewise-linear path of one point over [0, 1].

    Times and coordinates must be ints or Fractions (``TypeError``
    otherwise); ``piecewise`` also coerces ``'p/q'`` strings.  The
    instance dict (no ``__slots__``) holds the cached ``times``."""

    def __new__(cls, index, breakpoints):
        self = super().__new__(cls, index, breakpoints)
        for t, (x, y) in self.breakpoints:
            require_rational(t, x, y)
        times = self.times
        if not times or times[0] != 0 or times[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("breakpoint times must strictly increase")
        return self

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


class _TrajectorySetFields(NamedTuple):
    initial: Configuration
    trajectories: tuple  # the movers' trajectories, sorted by point index


class TrajectorySet(_TrajectorySetFields):
    """The paths of the moving points of a configuration.

    ``trajectories`` holds one Trajectory per moving point, sorted by
    index, each starting at that point's initial position; every other
    point keeps its initial position.  Boundary points must stay fixed.
    Labels and boundary roles come from the initial configuration.
    """

    __slots__ = ()

    def __new__(cls, initial, trajectories):
        self = super().__new__(cls, initial, trajectories)
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
        return self

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


def _integer_frame(ts: TrajectorySet) -> tuple:
    """(fixed, paths), the motion scaled to integers by one common
    denominator: stationary index -> point, mover -> ((time, point), ...).
    Raises ``ClearanceError`` at the first segment, mover by mover, that
    ends outside the (convex) boundary triangle or meets a stationary
    point, then at the first interval between the merged breakpoints of
    two movers, pair by pair, in which they meet: there the two move
    linearly, so they meet when the segment of their difference meets the
    origin."""
    movers = ts.movers
    fixed = {index: xy for index, xy in ts.initial.positions.items()
             if index not in movers}
    ints = iter(_integer_points([*fixed.values(), *(
        xy for tr in ts.trajectories for _, xy in tr.breakpoints)]))
    fixed = {index: next(ints) for index in fixed}
    corners = [fixed[b] for b in ts.initial.boundary]
    paths = {}
    for tr in ts.trajectories:
        path = paths[tr.index] = tuple((t, next(ints)) for t in tr.times)
        for (t0, m0), (t1, m1) in zip(path, path[1:]):
            if not _inside(m1, *corners):
                raise ClearanceError(
                    f"point {tr.index} is not strictly inside the boundary"
                    f" triangle at time {t1}")
            for index, p in fixed.items():
                if _segment_meets(m0, m1, p):
                    raise ClearanceError(f"point {tr.index} meets point"
                                         f" {index} in [{t0}, {t1}]")
    for a, b in itertools.combinations(ts.trajectories, 2):
        times = sorted({*a.times, *b.times})
        apart = [tuple(u - v for u, v in zip(a.position_at(t),
                                              b.position_at(t)))
                 for t in times]
        for t0, t1, d0, d1 in zip(times, times[1:], apart, apart[1:]):
            if _segment_meets(d0, d1, (0, 0)):
                raise ClearanceError(f"point {a.index} meets point"
                                     f" {b.index} in [{t0}, {t1}]")
    return fixed, paths


def _sample_at(ts: TrajectorySet, t: Fraction) -> tuple:
    """The sample (time, configuration, Delaunay triangle set) at t."""
    config = configuration_at(ts, t)
    return t, config, build_delaunay(config)


def _sample(ts: TrajectorySet, t: Fraction, lo: Fraction, hi: Fraction,
            floor: Fraction) -> tuple:
    """The sample at t, jittering the sample time inside (lo, hi) when t
    happens to be degenerate."""
    jitter, attempt_t = floor / 3, t
    for attempt in range(12):
        try:
            return _sample_at(ts, attempt_t)
        except DegenerateConfigurationError:
            attempt_t = t + jitter if lo < t + jitter < hi else t - jitter
            if attempt == 11 or not lo < attempt_t < hi:
                raise
            jitter /= 3


def _crossing_certified(before_config: Configuration,
                        after_config: Configuration, event: FlipEvent) -> bool:
    """True when the event's quadrilateral changes incircle sign across the
    bracket, certifying a genuine cocircularity crossing.  Three of its
    points collinear at an end leave the bracket uncertified, so that
    ``_refine`` bisects it."""
    i, k = event.removed
    j, l = event.inserted
    pa, pb = before_config.int_positions, after_config.int_positions
    try:
        sa = incircle(pa[i], pa[j], pa[k], pa[l])
        sb = incircle(pb[i], pb[j], pb[k], pb[l])
    except DegenerateCircleError:
        return False
    return sa == -1 and sb == 1


def _overlap(quads):
    """The first pair of quads that share more than two points (flips
    that do not far-commute), or None."""
    for a, q1 in enumerate(quads):
        for q2 in quads[a + 1:]:
            if len(set(q1) & set(q2)) > 2:
                return q1, q2
    return None


def extract_flip_sequence(ts: TrajectorySet, step=None, floor=None) -> list:
    """Time-ordered FlipEvents of the motion, each with a rational bracket.

    ``step`` is the sample grid's spacing and ``floor`` the narrowest
    bracket; either one left as None takes its default, ``DEFAULT_STEP``
    or ``DEFAULT_FLOOR``.  The endpoint configurations must be in general
    position.  Inside the interval, degenerate sample times are jittered
    (the trajectory, which defines the braid, is never perturbed).

    ``_refine`` takes a cell whose ends triangulate alike to hold no flip.
    A cell over two or more corners of the paths can hold a whole closed
    cycle of flips, so it is first split at each of them.  A cell over at
    most one corner can still hide such a cycle (8 flips in one random
    loop); the matrices cancel it, but the log misses it and is not the
    full motion.  The exact engine logs every flip.
    """
    _integer_frame(ts)
    step = DEFAULT_STEP if step is None else as_rational(step)
    floor = DEFAULT_FLOOR if floor is None else as_rational(floor)
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
    # a cell over several corners of a path can hold a whole flip cycle,
    # which leaves its ends alike: split it at each of them first
    corners = sorted({t for tr in ts.trajectories for t in tr.times
                      if ta < t < tb})
    if len(corners) > 1:
        cells = [a, *(_sample(ts, t, ta, tb, floor) for t in corners), b]
        for x, y in zip(cells, cells[1:]):
            _refine(ts, x, y, floor, events)
        return
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
# A time is a tuple (u, v, d, w, key) of integers.  Its value is the real
# number (u + v*sqrt(d)) / w with w > 0, d >= 0, and v == 0 whenever d is a
# perfect square, so a rational time has v == d == 0.  Every event time of
# one linear segment is a root of a quadratic with integer coefficients, so
# it has this form.  The key is floor(time * 2^64), computed once in integers.
# Two times with different keys are ordered by their keys; two with one key
# are compared by the signs of integer expressions.  Keys are exact floors,
# so their width changes only how often that exact test runs, never a result.

_KEY_BITS = 64


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


def _floor_root(u, v, d, w, scale: int) -> int:
    """floor((u + v*sqrt(d)) / w * scale) for w > 0 and a positive integer
    scale."""
    square = v * v * d * scale * scale
    root = math.isqrt(square)
    if v >= 0:
        whole = u * scale + root
    else:
        whole = u * scale - root - (root * root != square)
    return whole // w


def _time(u, v, d, w) -> tuple:
    """The normalized time (u + v*sqrt(d)) / w, for w != 0, with its key.
    One isqrt serves both: r = isqrt(v^2 d 2^128) squares back exactly when
    d is a perfect square, where the time is rational (v == d == 0), and is
    otherwise floor(|v| sqrt(d) 2^64), the root ``_floor_root`` takes."""
    if w < 0:
        u, v, w = -u, -v, -w
    if v and d:
        square = v * v * d << 2 * _KEY_BITS
        root = math.isqrt(square)
        if root * root != square:
            whole = (u << _KEY_BITS) + (root if v > 0 else -root - 1)
            return (u, v, d, w, whole // w)
        u += _sign(v) * (root >> _KEY_BITS)
    return (u, 0, 0, w, (u << _KEY_BITS) // w)


def _dyadic_time(k, m) -> tuple:
    """The time k / 2^m, with its key from a shift."""
    key = k << (_KEY_BITS - m) if m <= _KEY_BITS else k >> (m - _KEY_BITS)
    return (k, 0, 0, 1 << m, key)


def _compare(x, y) -> int:
    """Sign of x - y for two times."""
    if x[4] != y[4]:
        return 1 if x[4] > y[4] else -1
    u1, v1, d1, w1, _ = x
    u2, v2, d2, w2, _ = y
    return _sign_sum(u1 * w2 - u2 * w1, v1 * w2, d1, -v2 * w1, d2)


def _format_time(t) -> str:
    """The exact time, and for an irrational one also its first six
    decimals, truncated.

    An irrational time is a root of its primitive minimal polynomial
    A x^2 + B x + C, with A = w^2, B = -2uw and C = u^2 - v^2 d over their
    gcd, and prints as (-B +- 1*sqrt(B^2 - 4AC))/(2A), the sign that of v:
    one form whatever integer frame the time was computed in."""
    u, v, d, w, _ = t
    if v == 0:
        return str(Fraction(u, w))
    a, b, c = w * w, -2 * u * w, u * u - v * v * d
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    sign = "+" if v > 0 else "-"
    micros = _floor_scaled(t, 10 ** 6)
    return (f"({-b} {sign} 1*sqrt({b * b - 4 * a * c}))/{2 * a}"
            f" = {micros // 10 ** 6}.{micros % 10 ** 6:06d}...")


def _floor_scaled(t, scale: int) -> int:
    """floor(t * scale) for a positive integer scale: a shift of the key
    when scale is a power of two no larger than 2^64."""
    if scale & (scale - 1) == 0 and scale.bit_length() <= _KEY_BITS + 1:
        return t[4] >> (_KEY_BITS + 1 - scale.bit_length())
    return _floor_root(*t[:4], scale)


def _bracket(t, before, after) -> tuple:
    """The rational bracket (t_lo, t_hi) of an event at time t, given the
    times of the previous and next events (None at either end), all in
    [0, 1).

    It is the coarsest dyadic cell [k/2^m, (k+1)/2^m], with 2^m at least
    64 (the sampler's default grid), that holds t in its open interior and
    no other event in its closure: the cell in which bisection from that
    grid first sees this flip alone.  Where t is a point of the level-m
    grid, no cell of that level holds it inside, and the level's candidate
    is [t - 2^-m, t + 2^-m] instead.  Either way t_lo < t < t_hi, and
    neither end is the time of another event.

    The search starts at the first level whose cells can part t from its
    neighbours: at a coarser level m <= 64, a neighbour whose key shares
    its leading 64 - m bits with the key of t lies in the cell of t.
    """
    m = DEFAULT_STEP.denominator.bit_length() - 1
    for other in (before, after):
        if other is not None:
            m = max(m, _KEY_BITS + 1 - (other[4] ^ t[4]).bit_length())
    while True:
        scale = 1 << m
        k = _floor_scaled(t, scale)
        on_grid = t[1] == 0 and t[0] * scale == k * t[3]
        lo, hi = k - on_grid, k + 1
        if (0 <= lo and hi <= scale
                and (before is None
                     or _compare(before, _dyadic_time(lo, m)) < 0)
                and (after is None
                     or _compare(_dyadic_time(hi, m), after) < 0)):
            return Fraction(lo, scale), Fraction(hi, scale)
        m += 1


def _cofactors(a, b, c) -> tuple:
    """(alpha, beta_x, beta_y, gamma) with alpha |p|^2 + beta.p + gamma the
    lifted incircle determinant of integer points (a, b, c, p): positive
    exactly when p lies inside the circumcircle of a counterclockwise
    triangle (a, b, c), where alpha < 0.

    Expanding the 4x4 lifted determinant along the row of p leaves the
    cofactors of a, b and c: their lifted 3x3 determinant, minus their
    doubled signed area and two minors of the lift.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    an, bn, cn = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bax, bay, ban = bx - ax, by - ay, bn - an
    cax, cay, can = cx - ax, cy - ay, cn - an
    lifted = (an * (bx * cy - by * cx) + bn * (cx * ay - cy * ax)
              + cn * (ax * by - ay * bx))
    return (cax * bay - bax * cay, cay * ban - bay * can,
            bax * can - cax * ban, lifted)


def _segment_quadratics(circles: dict, m0, m1):
    """(triangle, a2, b2, c2) for each entry of ``circles``, triangle ->
    cofactors: a2 s^2 + b2 s + c2 is its circle's polynomial at the point
    m0 + s delta, delta = m1 - m0, with a2 = alpha |delta|^2,
    b2 = 2 alpha m0.delta + beta.delta and c2 = alpha |m0|^2 + beta.m0 +
    gamma: seven products on terms shared by the segment."""
    x0, y0 = m0
    dx, dy = m1[0] - x0, m1[1] - y0
    dd, md = dx * dx + dy * dy, 2 * (x0 * dx + y0 * dy)
    mm = x0 * x0 + y0 * y0
    for tri, (alpha, beta_x, beta_y, gamma) in circles.items():
        yield (tri, alpha * dd, alpha * md + beta_x * dx + beta_y * dy,
               alpha * mm + beta_x * x0 + beta_y * y0 + gamma)


def _crossings(a2, b2, c2, inside: bool) -> tuple:
    """The crossings in [0, 1) of a circle whose polynomial is
    a2 s^2 + b2 s + c2 with a2 < 0, positive inside it, between its roots
    r1 <= r2 = (-b2 -+ sqrt(D)) / (2 a2), D = b2^2 - 4 a2 c2: +1 for
    entering at r1, -1 for leaving at r2, in order.  ``inside`` is whether
    the point is inside just before s = 0, so c2 >= 0 if it is and c2 <= 0
    if not.  Decided from signs, with no square root.

    g = a2 + b2 + c2 and h = 2 a2 + b2 are the value and the slope at
    s = 1, and r2 < 1 iff g < 0 and h < 0.  From inside, r2 >= 0, so the
    point leaves iff r2 < 1, at a double root at s = 0 too.  From outside
    it enters iff D > 0 and 0 <= r1 < 1: iff b2 > 0, as c2 <= 0, and
    g > 0 or h < 0.  A root at s = 1 belongs to the next segment, and a
    double root from outside only touches the circle.
    """
    g, h = a2 + b2 + c2, 2 * a2 + b2
    leaves = g < 0 and h < 0
    if inside:
        return (-1,) if leaves else ()
    if b2 <= 0 or (g <= 0 and h >= 0) or b2 * b2 <= 4 * a2 * c2:
        return ()
    return (1, -1) if leaves else (1,)


def _instants(crossings) -> list:
    """The crossings (time, quad, triangle), sorted by (key, quad), as the
    lists of those at one instant, in time order and each in quad order.
    Only neighbours with one key reach ``_compare``, and a stable exact
    sort, run only when there are any, leaves ``crossings`` in time order."""
    ties = [a[0][4] == b[0][4] for a, b in zip(crossings, crossings[1:])]
    if any(ties):
        crossings.sort(key=functools.cmp_to_key(
            lambda x, y: _compare(x[0], y[0])))
    instants = []
    for c, tie in zip(crossings, [False] + ties):
        if tie and not _compare(instants[-1][0][0], c[0]):
            instants[-1].append(c)
        else:
            instants.append([c])
    return instants


class _MoverKDS:
    """Delaunay triangulation of one moving point m among stationary points
    P, held as its cavity and moved by flips where m crosses the
    circumcircles of DT(P).

    Bowyer-Watson insertion (Bowyer, Comput. J. 24(2), 1981; Watson, same
    issue) gives DT(P + m) as DT(P) less the cavity, the triangles whose
    circumdisk holds m, plus the fan from m over the cavity's boundary.
    DT(P) stays fixed, so the cavity alone determines the triangulation,
    and it changes only when m crosses the circumcircle of a triangle T of
    DT(P): T enters or leaves the cavity, by one flip.  Unlike the per-edge
    certificates of a kinetic data structure (Basch, Guibas and
    Hershberger, J. Algorithms 1999), a segment needs one circle polynomial
    per triangle of DT(P) and one exact time per flip.

    ``circles`` maps each counterclockwise triangle of DT(P), on the
    integer frame of ``_integer_frame``, to its ``_cofactors``; ``cavity``
    holds those whose circle polynomial is positive at m, at the start read
    off the cofactors; ``owner`` maps each directed edge (u, v) of DT(P) to
    its counterclockwise triangle, so the triangle across (u, v) is
    ``owner[v, u]``. On a segment each circle is a quadratic in the segment
    parameter (``_segment_quadratics``), whose crossings are found by signs
    (``_crossings``); only they become keyed times.  A segment sorts its
    crossings by (key, quad), and ``_instants`` groups them into instants,
    comparing exact times only where two keys are equal.  Each instant is
    one entry of ``groups``: a segment's crossings lie in [t0, t1), and one
    at t1 is the next segment's, so no instant spans two segments.
    """

    def __init__(self, ts: TrajectorySet, fixed: dict, m0):
        """``fixed`` holds the stationary points and m0 is the mover's
        start, on the integer frame.  DT(P) is built once, the start's
        cavity is read off the cofactors with no ``incircle`` call, and the
        start, made by ``triangles``, is checked once by
        ``verify_delaunay``."""
        self.mover = mover = ts.movers[0]
        stationary = {triangle(*ts.initial.boundary)}
        for index in ts.initial.interior:
            if index != mover:
                insert_point(stationary, fixed, index)

        def ccw(tri):
            a, b, c = tri
            turn = orient2d(fixed[a], fixed[b], fixed[c])
            return (a, b, c) if turn > 0 else (a, c, b)

        self.circles = {tri: _cofactors(*map(fixed.__getitem__, tri))
                        for tri in map(ccw, stationary)}
        self.owner = {(u, v): tri for tri in self.circles
                      for u, v in zip(tri, tri[1:] + tri[:1])}
        self.cavity = {tri for tri, _, _, c2 in _segment_quadratics(
            self.circles, m0, m0) if c2 > 0}
        verify_delaunay(self.triangles(), ts.initial)
        # (time, [(removed, inserted), ...]) with increasing times
        self.groups = []

    def run_segment(self, t0: Fraction, m0, t1: Fraction, m1) -> None:
        """Advance the mover linearly from integer point m0 at time t0 to
        m1 at t1, flipping at every circle crossing in [t0, t1).  A
        crossing exactly at t1 belongs to the next segment, which sees the
        sign the circle's polynomial takes after t1.  The mover pausing on
        a circle is a degeneracy.  Each instant appends one group, its
        flips in quad order, which is sound only when they pairwise
        far-commute; otherwise ``UnresolvedEventError`` is raised."""
        mover = self.mover
        # t0 = a0 / q and t1 - t0 = a1 / q, integers over one denominator q
        (a0, b1), q = clear_denominators((t0, t1))
        a1 = b1 - a0
        crossings = []  # (time, quad, triangle)
        for tri, a2, b2, c2 in _segment_quadratics(self.circles, m0, m1):
            if a2 == 0:  # a pause at m0
                if c2 == 0:
                    raise DegenerateConfigurationError(tri + (mover,))
                continue
            for v in _crossings(a2, b2, c2, tri in self.cavity):
                when = _time(2 * a2 * a0 - a1 * b2, v * a1,
                             b2 * b2 - 4 * a2 * c2, 2 * a2 * q)
                crossings.append((when, tuple(sorted(tri + (mover,))), tri))
        # by key, and by quad within one key
        crossings.sort(key=lambda c: (c[0][4], c[1]))
        instants = _instants(crossings)
        # a root outside [t0, t1) is a fault that _bracket could not end on
        if crossings and (
                _compare(crossings[0][0], _time(a0, 0, 0, q)) < 0
                or _compare(crossings[-1][0], _time(b1, 0, 0, q)) >= 0):
            raise AssertionError(f"a crossing outside [{t0}, {t1})")
        for batch in instants:
            when = batch[0][0]
            pair = len(batch) > 1 and _overlap([c[1] for c in batch])
            if pair:
                raise UnresolvedEventError(
                    "unresolved codimension-2 event at t ="
                    f" {_format_time(when)}: flips of quads {pair[0]} and"
                    f" {pair[1]} overlap; perturb trajectories")
            self.groups.append((when, [self._cross(tri) for *_, tri in batch]))

    def _cross(self, tri) -> tuple:
        """Flip for the mover crossing the circumcircle of ``tri``, a
        counterclockwise triangle of DT(P), which shares exactly one edge e
        with the rest of the cavity: entering exchanges e for the spoke
        from the mover to the vertex w of ``tri`` opposite e, and leaving
        exchanges that spoke for e.  Returns the sorted pairs (removed,
        inserted)."""
        a, b, c = tri
        shared = [(u, v, w) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))
                  if self.owner.get((v, u)) in self.cavity]
        if len(shared) != 1:
            raise AssertionError(f"triangle {tri} shares {len(shared)} edges"
                                 " with the rest of the cavity, not 1")
        ((u, v, w),) = shared
        edge, spoke = tuple(sorted((u, v))), tuple(sorted((self.mover, w)))
        if tri in self.cavity:
            self.cavity.remove(tri)
            return spoke, edge
        self.cavity.add(tri)
        return edge, spoke

    def triangles(self) -> frozenset:
        """DT(P) less the cavity plus the mover's fan over it."""
        out = {triangle(*tri) for tri in self.circles}
        fan_cavity(out, [triangle(*tri) for tri in self.cavity], self.mover)
        return frozenset(out)

    def bracketed_events(self) -> list:
        """One FlipEvent per flip, in order, with its group's bracket."""
        groups, out = self.groups, []
        for g, (t, flips) in enumerate(groups):
            before = groups[g - 1][0] if g > 0 else None
            after = groups[g + 1][0] if g + 1 < len(groups) else None
            lo, hi = _bracket(t, before, after)
            out.extend(FlipEvent(removed, inserted, lo, hi)
                       for removed, inserted in flips)
        return out


def exact_flip_sequence(ts: TrajectorySet) -> list:
    """Time-ordered FlipEvents of a motion with at most one moving point,
    each bracketed as by ``_bracket``.

    The exact event engine: with the stationary points P fixed, the
    Delaunay triangulation changes exactly when the mover crosses the
    circumcircle of a triangle of DT(P), by one flip (Bowyer-Watson
    insertion; see ``_MoverKDS``).  It builds and checks the initial
    triangulation once, as DT(P) with the mover inserted, computes each
    crossing time as a root of an integer quadratic and orders the flips
    exactly, and checks that the final triangulation is the Delaunay
    triangulation at t = 1: for a path that returns to its start, that its
    final cavity is its initial one.  It samples nothing; a motion with no
    mover is checked by ``build_delaunay``.  The motion must be clear
    (``_integer_frame``) and either end in general position.  Simultaneous
    flips are ordered by quad when they far-commute and raise
    ``UnresolvedEventError`` otherwise.  Motions of several points take
    ``extract_flip_sequence``.
    """
    fixed, paths = _integer_frame(ts)
    if len(ts.movers) > 1:
        raise ValueError("the exact engine moves one point; sample motions"
                         " of several with extract_flip_sequence")
    if not ts.movers:
        build_delaunay(ts.initial)
        return []
    (path,) = paths.values()
    kds = _MoverKDS(ts, fixed, path[0][1])
    start = frozenset(kds.cavity)
    for (t0, m0), (t1, m1) in zip(path, path[1:]):
        kds.run_segment(t0, m0, t1, m1)
    # a loop back to its start with the start's cavity ends at the start,
    # which _MoverKDS has verified
    if path[-1][1] != path[0][1] or kds.cavity != start:
        verify_delaunay(kds.triangles(), configuration_at(ts, 1))
    return kds.bracketed_events()
