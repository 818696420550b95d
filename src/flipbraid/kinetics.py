"""Flip extraction from piecewise-linear point motions.

Two extractors return the time-ordered FlipEvents of a motion, each with a
rational bracket (t_lo, t_hi) around its time.

``exact_flip_sequence`` is the kinetic event engine for a motion of one
point, the default path of the invariant and the command line.  On each
linear segment of the mover's path, the certificate of every interior edge
whose quad holds the mover, its lifted incircle determinant, is a quadratic
in time, seven products from a per-motion table of cofactors.  Each flip
happens at a root of one of them; the roots lie in Q(sqrt(D)) and are
computed and ordered exactly, with integer arithmetic.  It samples nothing.

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
point; movers are not checked against each other.  Each sample is a
validated ``Configuration`` triangulated by ``build_delaunay``.  The engine
builds the triangulation of the initial configuration once and moves it by
flips.  It checks the final one with the O(n) local edge test, or, when the
mover's path returns to its start, by equality with the initial one.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .delaunay import (DegenerateConfigurationError, FlipEvent, apply_flip,
                       build_delaunay, diff_flips, triangle, verify_delaunay)
from .geometry import (Configuration, LabeledPoint, _integer_points,
                       _inside, _lifted_det, _segment_meets, incircle,
                       orient2d)
from .linalg import as_rational, clear_denominators

DEFAULT_STEP = Fraction(1, 64)
DEFAULT_FLOOR = Fraction(1, 2 ** 40)


class UnresolvedEventError(RuntimeError):
    """Bisection hit the floor on overlapping simultaneous flips."""


class ClearanceError(ValueError):
    """A mover leaves the boundary triangle or meets a stationary point."""


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


def _integer_frame(ts: TrajectorySet) -> tuple:
    """(fixed, paths), the motion scaled to integers by one common
    denominator: stationary index -> point, mover -> ((time, point), ...).
    Raises ``ClearanceError`` at the first segment, mover by mover, that
    ends outside the (convex) boundary triangle or meets a stationary
    point."""
    fixed = {index: xy for index, xy in ts.initial.positions.items()
             if index not in ts.movers}
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
    bracket, certifying a genuine cocircularity crossing."""
    i, k = event.removed
    j, l = event.inserted
    pa, pb = before_config.int_positions, after_config.int_positions
    sa = incircle(pa[i], pa[j], pa[k], pa[l])
    sb = incircle(pb[i], pb[j], pb[k], pb[l])
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

    The log can miss flips.  When a flip and its inverse both fall between
    two adjacent samples, the two triangulations agree and ``_refine``
    logs neither.  The product is still right, because the two flip
    matrices cancel, but the log is then not the full motion; the exact
    engine logs both.
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
# perfect square, so a rational time has v == 0.  Every event time of one
# linear segment is a root of a quadratic with integer coefficients, so it
# has this form.  The key is floor(time * 2^64), computed once in integers.
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
    """The normalized time (u + v*sqrt(d)) / w, for w != 0, with its key."""
    if w < 0:
        u, v, w = -u, -v, -w
    root = math.isqrt(d)
    if root * root == d:
        u, v, d = u + v * root, 0, 0
    return (u, v, d, w, _floor_root(u, v, d, w, 1 << _KEY_BITS))


def _rational_time(t) -> tuple:
    return _time(t.numerator, 0, 0, t.denominator)


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
    times of the previous and next events (None at either end).

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


def _cofactors(a, b, c, odd: int) -> tuple:
    """(alpha, beta_x, beta_y, gamma) with alpha |p|^2 + beta.p + gamma
    twice the lifted incircle determinant of a quad, when the mover at p
    holds an odd place in it if ``odd`` (an even one if not) and a, b, c
    are the other three integer points in quad order.

    Expanding the 4x4 lifted determinant along the mover's row leaves the
    cofactors of the three constant points: their lifted 3x3 determinant,
    the orientation of (a, b, c) and two minors of the lift; moving the
    mover's row from place r to the bottom gives the sign (-1)^(3-r).
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    an, bn, cn = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bax, bay, ban = bx - ax, by - ay, bn - an
    cax, cay, can = cx - ax, cy - ay, cn - an
    lifted = (an * (bx * cy - by * cx) + bn * (cx * ay - cy * ax)
              + cn * (ax * by - ay * bx))
    sign = 2 if odd else -2
    return (sign * (cax * bay - bax * cay), sign * (cay * ban - bay * can),
            sign * (bax * can - cax * ban), sign * lifted)


def _past_end(a2, b2, c2) -> bool:
    """True when the failure root of a2 s^2 + b2 s + c2, which
    ``_MoverKDS._certify`` asks about only when that root exists, lies at
    s >= 1; decided from signs, with no square root.

    g = a2 + b2 + c2 and h = 2 a2 + b2 are the value and the slope at
    s = 1.  For a2 > 0 the failure root is the larger root, at s >= 1 iff
    g <= 0 or the vertex -b2 / (2 a2) is at s >= 1 (h <= 0); for a2 < 0 it
    is the smaller root, at s >= 1 iff g <= 0 and h >= 0.  A linear
    certificate fails at -c2 / b2 with b2 > 0.
    """
    if a2 == 0:
        return b2 + c2 <= 0
    g, h = a2 + b2 + c2, 2 * a2 + b2
    if a2 > 0:
        return g <= 0 or h <= 0
    return g <= 0 and h >= 0


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

    On the integer frame of ``_integer_frame``, a certificate is
    alpha |p|^2 + beta.p + gamma in the mover's position p; the table
    ``cofactors`` holds these cofactors of each quad's constant points
    (``_cofactors``), once per motion, and a segment adds seven products.
    A root at or past the segment end is dropped by signs alone
    (``_past_end``); the others become keyed times, so finding the earliest
    one compares integers and runs the exact test only on key ties.
    """

    def __init__(self, ts: TrajectorySet, start: frozenset, fixed: dict):
        self.mover, self.fixed = ts.movers[0], fixed
        positions = ts.initial.int_positions
        self.apex = {}
        self.cofactors = {}  # quad, edge increasing -> its cofactors
        for a, b, c in start:
            if orient2d(positions[a], positions[b], positions[c]) < 0:
                b, c = c, b
            self.apex.update({(a, b): c, (b, c): a, (c, a): b})
        # (time, [(removed, inserted), ...]) with increasing times
        self.groups = []

    def run_segment(self, t0: Fraction, m0, t1: Fraction, m1) -> None:
        """Advance the mover linearly from integer point m0 at time t0 to
        m1 at t1, flipping every edge whose certificate fails in [t0, t1).
        A failure exactly at t1 belongs to the next segment, which sees the
        sign the certificate takes after t1."""
        x0, y0 = m0
        dx, dy = m1[0] - x0, m1[1] - y0
        # |delta|^2, 2 m0.delta, delta, |m0|^2 and m0: see _certify
        self.terms = (dx * dx + dy * dy, 2 * (x0 * dx + y0 * dy), dx, dy,
                      x0 * x0 + y0 * y0, x0, y0)
        # ([t0 * q, (t1 - t0) * q], q), integers over one denominator q
        self.segment = clear_denominators((t0, t1 - t0))
        self.now = _rational_time(t0)

        certs = {}  # sorted edge -> failure time
        live = set()
        mover = self.mover
        for (a, b), c in self.apex.items():
            if a == mover:
                live.update((tuple(sorted((a, b))), tuple(sorted((b, c)))))
        for u, v in live:
            self._certify(certs, u, v)
        while certs:
            # the earliest time has the least key; only ties need exact tests
            first = min(t[4] for t in certs.values())
            when, due = None, []
            for edge, t in certs.items():
                if t[4] != first:
                    continue
                order = -1 if when is None else _compare(t, when)
                if order < 0:
                    when, due = t, [edge]
                elif order == 0:
                    due.append(edge)
            if not self.groups or _compare(self.groups[-1][0], when):
                self.groups.append((when, []))
            flips = self.groups[-1][1]
            if len(due) > 1 or flips:
                # a lone flip opening its group overlaps nothing
                due.sort(key=self._quad)
                self._check_simultaneous(when, due, flips)
            self.now = when
            for u, v in due:
                del certs[u, v]
                flip = self._flip(u, v)
                flips.append(flip)
                (i, k), (j, l) = flip
                for a, b in ((i, j), (j, k), (k, l), (l, i), (j, l)):
                    self._certify(certs, a, b)

    def _quad(self, edge) -> tuple:
        u, v = edge
        return tuple(sorted((u, v, self.apex[u, v], self.apex[v, u])))

    def _certify(self, certs: dict, u, v) -> None:
        """(Re)schedule the certificate of edge (u, v).  Edges of the
        boundary triangle carry none; a quad of constant points is checked
        once, when the edge gets it, and never changes.  A quad holding the
        mover is (a2 s^2 + b2 s + c2) / 2 at m0 + s delta, where
        a2 = alpha |delta|^2, b2 = 2 alpha m0.delta + beta.delta and
        c2 = alpha |m0|^2 + beta.m0 + gamma.  Valid certificates are
        negative just after ``now``, so it fails at the root where the
        derivative is positive, or a double root where it only touches
        zero from above, (-b2 + sqrt(b2^2 - 4 a2 c2)) / (2 a2), unless
        ``_past_end`` puts that at or past the segment end."""
        if u > v:
            u, v = v, u
        certs.pop((u, v), None)
        c, d = self.apex.get((u, v)), self.apex.get((v, u))
        if c is None or d is None:
            return
        quad = (u, v, c, d)
        cofactors = self.cofactors.get(quad)
        if cofactors is None:
            if self.mover not in quad:
                if _lifted_det(*(self.fixed[i] for i in quad)):
                    return
                raise DegenerateConfigurationError(quad)
            r = quad.index(self.mover)
            cofactors = self.cofactors[quad] = _cofactors(*map(
                self.fixed.__getitem__, quad[:r] + quad[r + 1:]), r & 1)
        alpha, beta_x, beta_y, gamma = cofactors
        dd, md, dx, dy, mm, x0, y0 = self.terms
        a2 = alpha * dd
        b2 = alpha * md + beta_x * dx + beta_y * dy
        c2 = alpha * mm + beta_x * x0 + beta_y * y0 + gamma
        (a0, a1), q = self.segment
        if a2 == 0:
            if b2 == 0 and c2 == 0:
                raise DegenerateConfigurationError(quad)
            if b2 <= 0 or _past_end(a2, b2, c2):
                return
            when = _time(a0 * b2 - a1 * c2, 0, 0, b2 * q)
        else:
            disc = b2 * b2 - 4 * a2 * c2
            if disc < 0 or (disc == 0 and a2 < 0) or _past_end(a2, b2, c2):
                return
            when = _time(2 * a2 * a0 - a1 * b2, a1, disc, 2 * a2 * q)
        if _compare(when, self.now) >= 0:
            certs[u, v] = when

    def _check_simultaneous(self, when, due, earlier) -> None:
        """Flips at one instant must pairwise far-commute, the ``earlier``
        flips of its group included: those run in lexicographic quad order,
        which is sound because their matrices commute.  Others cannot be
        ordered."""
        quads = ([self._quad(edge) for edge in due]
                 + [tuple(sorted(removed + inserted))
                    for removed, inserted in reversed(earlier)])
        pair = _overlap(quads)
        if pair:
            raise UnresolvedEventError(
                f"unresolved codimension-2 event at t = {_format_time(when)}:"
                f" flips of quads {pair[0]} and {pair[1]} overlap; perturb"
                " trajectories")

    def _flip(self, u, v) -> tuple:
        """Flip interior edge (u, v) of the counterclockwise quad
        (u, d, v, c) to (c, d); returns the sorted pairs (removed,
        inserted)."""
        c, d = self.apex[u, v], self.apex[v, u]
        del self.apex[u, v], self.apex[v, u]
        self.apex.update({(u, d): c, (d, c): u, (c, u): d,
                          (d, v): c, (v, c): d, (c, d): v})
        return ((u, v) if u < v else (v, u)), ((c, d) if c < d else (d, c))

    def triangles(self) -> frozenset:
        return frozenset(triangle(u, v, w) for (u, v), w in self.apex.items()
                         if u < v and u < w)

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

    The exact kinetic engine: it starts from the Delaunay triangulation of
    the initial configuration, computes every flip time as a root of an
    integer quadratic and orders the flips exactly, and checks that the
    final triangulation is the Delaunay triangulation at t = 1: for a path
    that returns to its start, that it is the initial one.  It samples
    nothing.  The motion must be clear (``_integer_frame``) and either end
    in general position.  Simultaneous flips are ordered by quad when they
    far-commute and raise ``UnresolvedEventError`` otherwise.  Motions of
    several points take ``extract_flip_sequence``.
    """
    fixed, paths = _integer_frame(ts)
    if len(ts.movers) > 1:
        raise ValueError("the exact engine moves one point; sample motions"
                         " of several with extract_flip_sequence")
    start = build_delaunay(ts.initial)
    if not ts.movers:
        return []
    kds = _MoverKDS(ts, start, fixed)
    (path,) = paths.values()
    for (t0, m0), (t1, m1) in zip(path, path[1:]):
        kds.run_segment(t0, m0, t1, m1)
    end = kds.triangles()
    # a loop back to its start ends at the configuration whose Delaunay
    # triangulation build_delaunay has already verified: start
    if path[-1][1] != path[0][1] or end != start:
        verify_delaunay(end, configuration_at(ts, 1))
    return kds.bracketed_events()
