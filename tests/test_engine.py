"""The exact kinetic event engine against the sampler, and its edge cases."""

import collections
import functools
import hashlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import validate_general_position
from flipbraid import braids
from flipbraid.braids import (BraidLetter, canonical_setup,
                              generator_trajectories, verify_relations)
from flipbraid.delaunay import (DegenerateConfigurationError, apply_flip,
                                build_delaunay)
from flipbraid.flips import sequence_product
from flipbraid.geometry import (Configuration, LabeledPoint, _lifted_det,
                                incircle)
from flipbraid.kinetics import (DEFAULT_STEP, ClearanceError, TrajectorySet,
                                UnresolvedEventError, _bracket, _cofactors,
                                _compare, _crossings, _dyadic_time,
                                _floor_root, _floor_scaled, _format_time,
                                _instants, _integer_frame, _MoverKDS,
                                _segment_quadratics, _sign_root, _sign_sum,
                                _time, configuration_at, exact_flip_sequence,
                                extract_flip_sequence)

F = Fraction

ENGINE_EVENTS_SHA256 = (
    "dc65c9937e2beffe2c01d641c653b4173e941b56f1566d5d905bdd71194b9d1c")

# three static points on the circle x^2 + y^2 = x + y, plus movers
STATIC_TRIPLE = [(0, 0), (1, 0), (0, 1)]
# points outside and inside that circle, and one on its tangent at (1, 1)
OUTSIDE, INSIDE = (F(9, 8), F(9, 8)), (F(7, 8), F(7, 8))
TANGENT = (F(5, 4), F(3, 4))


def make_config(interior, span=200):
    pts = [
        LabeledPoint.make(1, -span, -span, 1),
        LabeledPoint.make(2, span, -span, 2),
        LabeledPoint.make(3, 0, span, 3),
    ]
    for k, (x, y) in enumerate(interior):
        pts.append(LabeledPoint.make(k + 4, x, y, k + 4))
    return Configuration(tuple(pts), (1, 2, 3))


def motion(interior, path):
    """The last interior point follows ``path``, the others stay."""
    config = make_config(interior)
    return config, TrajectorySet.from_motion(config,
                                             {len(interior) + 3: path})


def flips(events):
    return [(e.removed, e.inserted) for e in events]


def quad_incircle(ts, event, t):
    i, k = event.removed
    j, l = event.inserted
    p = configuration_at(ts, t).positions
    return incircle(p[i], p[j], p[k], p[l])


@pytest.mark.parametrize("n", range(2, 8))
def test_engine_matches_sampler_on_every_generator(n):
    """Same flips in the same order, with the same brackets."""
    setup = canonical_setup(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for power in (1, -1):
                ts = generator_trajectories(setup, BraidLetter(i, j, power))
                assert exact_flip_sequence(ts) == extract_flip_sequence(ts)


def test_relations_equal_on_both_paths(monkeypatch):
    """verify_relations(5, "pb_all") multiplies equal word matrices on the
    engine and on the sampler."""
    recorded = {}
    word_matrix = braids._word_matrix

    def recording(n, pairs, **kw):
        m = word_matrix(n, pairs, **kw)
        recorded.setdefault(tuple(pairs), []).append(m)
        return m

    monkeypatch.setattr(braids, "_word_matrix", recording)
    assert verify_relations(5, "pb_all").ok
    assert verify_relations(5, "pb_all", step=DEFAULT_STEP).ok
    assert recorded
    assert all(len(ms) == 2 and ms[0] == ms[1] for ms in recorded.values())


def test_static_motion_has_no_events():
    config = make_config(STATIC_TRIPLE + [(5, 5)])
    assert exact_flip_sequence(TrajectorySet.from_motion(config, {})) == []


def test_dyadic_event_time_bracket():
    """Point 7 crosses the circle of 4, 5, 6 at exactly t = 1/2, a point
    of every dyadic grid; the bracket is then [t - 1/64, t + 1/64]."""
    _, ts = motion(STATIC_TRIPLE + [OUTSIDE], [(0, OUTSIDE), (1, INSIDE)])
    events = exact_flip_sequence(ts)
    assert flips(events) == flips(extract_flip_sequence(ts))
    (event,) = events
    assert event.quad == (4, 5, 6, 7)
    assert (event.t_lo, event.t_hi) == (F(31, 64), F(33, 64))
    assert quad_incircle(ts, event, event.t_lo) == -1
    assert quad_incircle(ts, event, F(1, 2)) == 0
    assert quad_incircle(ts, event, event.t_hi) == 1


def test_grazing_dip_gives_two_inverse_flips():
    config, ts = motion(STATIC_TRIPLE + [OUTSIDE],
                        [(0, OUTSIDE), (F(1, 2), INSIDE), (1, OUTSIDE)])
    events = exact_flip_sequence(ts)
    first, second = events
    assert first.removed == second.inserted
    assert first.inserted == second.removed
    assert first.t_hi <= second.t_lo
    assert flips(events) == flips(extract_flip_sequence(ts))
    product, final = sequence_product(
        events, build_delaunay(config), config.zeta_map())
    assert product.is_identity()
    assert final == build_delaunay(config)


def test_tangency_gives_no_flip():
    """The path touches the circle x^2 + y^2 = x + y at (1, 1), t = 1/2,
    and stays outside it otherwise: a double root, no sign change."""
    _, ts = motion(STATIC_TRIPLE + [(F(3, 4), F(5, 4))],
                   [(0, (F(3, 4), F(5, 4))), (1, (F(5, 4), F(3, 4)))])
    p = configuration_at(ts, F(1, 2)).positions
    assert incircle(p[4], p[5], p[6], p[7]) == 0
    assert exact_flip_sequence(ts) == []
    assert extract_flip_sequence(ts) == []


@pytest.mark.parametrize("start, turn, expected", [
    (OUTSIDE, (F(7, 8), F(15, 16)), 1),  # crosses at the breakpoint
    (OUTSIDE, OUTSIDE, 0),               # touches it and returns
    (OUTSIDE, TANGENT, 0),               # touches it and stays outside
    (INSIDE, TANGENT, 1),                # leaves the disk, a double root
])
def test_event_at_a_breakpoint(start, turn, expected):
    """The path reaches the circle x^2 + y^2 = x + y exactly at its
    breakpoint (1, 1), at t = 1/3; the next segment decides whether that
    is a flip."""
    config, ts = motion(STATIC_TRIPLE + [start],
                        [(0, start), (F(1, 3), (1, 1)), (1, turn)])
    events = exact_flip_sequence(ts)
    assert events == extract_flip_sequence(ts)
    assert len(events) == expected
    for event in events:
        assert event.quad == (4, 5, 6, 7)
        assert event.t_lo < F(1, 3) < event.t_hi
        assert quad_incircle(ts, event, event.t_lo) == -1
        assert quad_incircle(ts, event, event.t_hi) == 1


def test_a_pause_crosses_no_circle():
    """The mover waits outside the circle x^2 + y^2 = x + y, crosses into
    it at t = 3/10, waits inside and leaves at t = 4/5: one flip in each
    moving segment, none while it waits, on both extractors."""
    _, ts = motion(STATIC_TRIPLE + [OUTSIDE],
                   [(0, OUTSIDE), (F(1, 5), OUTSIDE), (F(2, 5), INSIDE),
                    (F(3, 5), INSIDE), (1, OUTSIDE)])
    events = exact_flip_sequence(ts)
    assert events == extract_flip_sequence(ts)
    assert [e.quad for e in events] == [(4, 5, 6, 7)] * 2
    for event, t in zip(events, (F(3, 10), F(4, 5))):
        assert event.t_lo < t < event.t_hi
        assert quad_incircle(ts, event, event.t_lo) == -1
        assert quad_incircle(ts, event, event.t_hi) == 1


def test_a_pause_on_a_circle_is_degenerate():
    """The mover waits at (1, 1), on the circle x^2 + y^2 = x + y of the
    constant points 4, 5, 6, for a third of the motion: both extractors
    report that cocircular quad."""
    _, ts = motion(STATIC_TRIPLE + [OUTSIDE],
                   [(0, OUTSIDE), (F(1, 3), (1, 1)), (F(2, 3), (1, 1)),
                    (1, OUTSIDE)])
    for extract in (exact_flip_sequence, extract_flip_sequence):
        with pytest.raises(DegenerateConfigurationError) as info:
            extract(ts)
        assert info.value.subset == (4, 5, 6, 7), extract


@pytest.mark.parametrize("start", [(1, 1), (F(6, 5), F(2, 5)),
                                   (F(2, 5), F(-1, 5))])
def test_a_start_on_a_circle_is_degenerate(start):
    """The mover starts on the circle x^2 + y^2 = x + y of the constant
    points 4, 5, 6, on each of its three arcs: the start's cavity, read off
    the cofactors, leaves that triangle out, and the start check reports
    the cocircular quad, as the sampler does."""
    _, ts = motion(STATIC_TRIPLE + [start], [(0, start), (1, (7, 9))])
    for extract in (exact_flip_sequence, extract_flip_sequence):
        with pytest.raises(DegenerateConfigurationError) as info:
            extract(ts)
        assert info.value.subset == (4, 5, 6, 7), extract


def test_simultaneous_far_commuting_events_in_quad_order():
    """Point 10 crosses (0, 0) at t = 1/2, leaving the circle through
    points 7, 8, 9 (centre (-1, 0)) as it enters the one through 4, 5, 6
    (centre (2, 1)): two flips at one instant whose quads share only the
    mover, so they come out in lexicographic quad order."""
    interior = [(4, 0), (3, 3), (3, -1), (-2, 0), (-1, 1), (-1, -1),
                (F(-1, 2), 0)]
    _, ts = motion(interior, [(0, (F(-1, 2), 0)), (1, (F(1, 2), 0))])
    events = exact_flip_sequence(ts)
    at_half = [e for e in events if e.t_lo < F(1, 2) < e.t_hi]
    assert [e.quad for e in at_half] == [(4, 5, 6, 10), (7, 8, 9, 10)]
    assert at_half[0].t_lo == at_half[1].t_lo
    assert flips(events) == flips(extract_flip_sequence(ts))


def test_simultaneous_events_in_quad_order_among_more_points():
    """The motion above with two far points first in the configuration:
    the flips at t = 1/2 still come in quad order, whatever order the
    engine meets the two circles in."""
    interior = [(50, 60), (-70, 40), (4, 0), (3, 3), (3, -1), (-2, 0),
                (-1, 1), (-1, -1), (F(-1, 2), 0)]
    _, ts = motion(interior, [(0, (F(-1, 2), 0)), (1, (F(1, 2), 0))])
    events = exact_flip_sequence(ts)
    at_half = [e.quad for e in events if e.t_lo < F(1, 2) < e.t_hi]
    assert at_half == [(6, 7, 8, 12), (9, 10, 11, 12)]
    assert flips(events) == flips(extract_flip_sequence(ts))


def test_simultaneous_overlapping_events_unresolved():
    """Points 4..7 lie on the circle x^2 + y^2 = 25; the mover 9 leaves
    its disk, so at that instant five points are cocircular and the flips
    cannot be ordered.  The error names the time and both quads."""
    _, ts = motion([(5, 0), (0, 5), (-5, 0), (0, -5), (4, 4), (0, 0)],
                   [(0, (0, 0)), (F(1, 2), (4, -4)), (1, (0, 0))])
    with pytest.raises(UnresolvedEventError) as info:
        exact_flip_sequence(ts)
    message = str(info.value)
    match = re.search(r"at t = (.*?): flips of quads (\(.*?\)) and"
                      r" (\(.*?\)) overlap", message)
    assert match, message
    quads = [tuple(int(i) for i in q.strip("()").split(","))
             for q in match.group(2, 3)]
    assert all(9 in q for q in quads)
    assert len(set(quads[0]) & set(quads[1])) > 2


@pytest.mark.parametrize("scale", [F(1), F(3, 11)])
def test_event_time_prints_the_same_in_every_frame(scale):
    """The motion above with its interior points and path scaled: the
    integer frame changes, and the printed time does not."""
    interior = [(5, 0), (0, 5), (-5, 0), (0, -5), (4, 4), (0, 0)]
    path = [(0, (0, 0)), (F(1, 2), (4, -4)), (1, (0, 0))]
    _, ts = motion([(x * scale, y * scale) for x, y in interior],
                   [(t, (x * scale, y * scale)) for t, (x, y) in path])
    with pytest.raises(UnresolvedEventError) as info:
        exact_flip_sequence(ts)
    assert " at t = (0 + 1*sqrt(12800))/256 = 0.441941...: " \
        in str(info.value)


def test_end_check_only_where_the_path_does_not_close(monkeypatch):
    """A loop that returns to its start with its start's cavity ends at the
    start, which the engine verified; any other end is checked.  Each
    ``verify_delaunay`` call is recorded as "build" (by ``build_delaunay``,
    which a motion with a mover never calls) or "engine" (the engine's
    start and end checks)."""
    from flipbraid import delaunay, kinetics

    loop = generator_trajectories(canonical_setup(4), BraidLetter(1, 3, 1))
    _, open_path = motion(STATIC_TRIPLE + [OUTSIDE],
                          [(0, OUTSIDE), (1, INSIDE)])
    calls = []

    def counted(name, function):
        def run(*args):
            calls.append(name)
            return function(*args)
        return run

    monkeypatch.setattr(delaunay, "verify_delaunay",
                        counted("build", delaunay.verify_delaunay))
    monkeypatch.setattr(kinetics, "verify_delaunay",
                        counted("engine", kinetics.verify_delaunay))
    monkeypatch.setattr(kinetics, "configuration_at",
                        counted("configuration_at", kinetics.configuration_at))
    assert exact_flip_sequence(loop)
    assert calls == ["engine"]
    calls.clear()
    assert exact_flip_sequence(open_path)
    assert calls == ["engine", "configuration_at", "engine"]


def test_end_check_catches_a_wrong_final_triangulation(monkeypatch):
    """A closed loop whose engine ends one flip away from its start: after
    the last segment, the triangle of DT(P) of its first flip crosses the
    final cavity once more."""
    loop = generator_trajectories(canonical_setup(4), BraidLetter(1, 3, 1))
    first = exact_flip_sequence(loop)[0]
    run_segment = _MoverKDS.run_segment

    def one_flip_more(kds, t0, m0, t1, m1):
        run_segment(kds, t0, m0, t1, m1)
        if t1 == 1:
            (tri,) = (tri for tri in kds.circles
                      if {*tri, kds.mover} == set(first.quad))
            kds._cross(tri)

    monkeypatch.setattr(_MoverKDS, "run_segment", one_flip_more)
    with pytest.raises(AssertionError, match="circumdisk contains point"):
        exact_flip_sequence(loop)


def test_start_check_catches_a_wrong_initial_triangulation(monkeypatch):
    """The engine checks its start, the mover inserted into DT(P), once
    with ``verify_delaunay``: a DT(P) one flip off is refused.  Points 4..7
    bound a convex quad whose Delaunay diagonal is (5, 6), and the mover 8
    runs a loop far from it, which no end check covers."""
    from flipbraid import kinetics

    _, ts = motion(STATIC_TRIPLE + [(F(6, 5), F(6, 5)), (0, -150)],
                   [(0, (0, -150)), (F(1, 2), (10, -150)), (1, (0, -150))])
    assert exact_flip_sequence(ts) == []
    insert_point = kinetics.insert_point

    def one_flip_off(triangles, positions, index):
        insert_point(triangles, positions, index)
        if index == 7:  # the last stationary point: DT(P) is complete
            assert {(4, 5, 6), (5, 6, 7)} <= triangles
            triangles.difference_update({(4, 5, 6), (5, 6, 7)})
            triangles.update({(4, 5, 7), (4, 6, 7)})

    monkeypatch.setattr(kinetics, "insert_point", one_flip_off)
    with pytest.raises(AssertionError, match="circumdisk contains point"):
        exact_flip_sequence(ts)


@pytest.mark.parametrize("shared", [0, 2])
def test_a_crossed_triangle_shares_one_edge_with_the_cavity(shared):
    """A triangle of DT(P) that meets the rest of the cavity in no edge or
    in two cannot cross it by one flip."""
    _, ts = motion(STATIC_TRIPLE + [OUTSIDE], [(0, OUTSIDE), (1, INSIDE)])
    fixed, paths = _integer_frame(ts)
    kds = _MoverKDS(ts, fixed, paths[7][0][1])
    tried = 0
    for tri in sorted(kds.circles):
        a, b, c = tri
        neighbours = [kds.owner[v, u] for u, v in ((a, b), (b, c), (c, a))
                      if (v, u) in kds.owner]
        if len(neighbours) < 2:
            continue
        kds.cavity = set(neighbours[:shared])
        with pytest.raises(AssertionError, match=re.escape(
                f"triangle {tri} shares {shared} edges with the rest of the"
                " cavity, not 1")):
            kds._cross(tri)
        assert kds.cavity == set(neighbours[:shared])
        tried += 1
    assert tried


def test_engine_rejects_unclear_paths():
    config = make_config(STATIC_TRIPLE + [(5, 5)])
    through = TrajectorySet.from_motion(
        config, {7: [(0, (5, 5)), (F(1, 2), (-1, -1)), (1, (5, 5))]})
    with pytest.raises(ValueError, match="meets point 4"):
        exact_flip_sequence(through)
    outside = TrajectorySet.from_motion(
        config, {7: [(0, (5, 5)), (F(1, 2), (500, 5)), (1, (5, 5))]})
    with pytest.raises(ValueError, match="not strictly inside"):
        exact_flip_sequence(outside)


def test_both_extractors_refuse_an_unclear_motion():
    """A spike of mover 4 past the apex between two of the sampler's
    samples, and a straight run of mover 4 through the home of point 5 at
    time 1/6, off the sampler's dyadic grid: the engine and the sampler
    refuse each with one message, before anything else.  Unchecked, the
    sampler logs 4 flips for the first and bisects the second down to its
    floor."""
    config = canonical_setup(3).config
    home, (x5, y5) = config.positions[4], config.positions[5]
    third = F(1, 3)
    spike = [(0, home), (third - F(1, 1000), (2, 17)), (third, (2, 30)),
             (third + F(1, 1000), (2, 17)), (1, home)]
    through = [(0, home), (third, (2 * x5 - home[0], 2 * y5 - home[1])),
               (1, home)]
    for path, message in (
            (spike, "point 4 is not strictly inside the boundary triangle"
                    " at time 1/3"),
            (through, "point 4 meets point 5 in [0, 1/3]")):
        ts = TrajectorySet.from_motion(config, {4: path})
        for extract in (exact_flip_sequence, extract_flip_sequence):
            with pytest.raises(ClearanceError) as info:
                extract(ts)
            assert str(info.value) == message, extract


def test_integer_frame_of_several_movers():
    """One common denominator scales every point and breakpoint, and each
    mover is checked against the stationary points and against the other
    movers: mover 5 may cross the home that mover 4 has left, but mover 4
    may not cross the stationary point 6."""
    config = make_config([(0, 0), (10, 0), (5, 25)])
    clear = TrajectorySet.from_motion(config, {
        4: [(0, (0, 0)), (F(1, 2), (0, F(50, 3))), (1, (0, 0))],
        5: [(0, (10, 0)), (1, (-10, 0))]})
    fixed, paths = _integer_frame(clear)
    assert fixed == {1: (-600, -600), 2: (600, -600), 3: (0, 600),
                     6: (15, 75)}
    assert paths == {4: ((0, (0, 0)), (F(1, 2), (0, 50)), (1, (0, 0))),
                     5: ((0, (30, 0)), (1, (-30, 0)))}
    blocked = TrajectorySet.from_motion(config, {
        4: [(0, (0, 0)), (F(1, 2), (10, 50)), (1, (0, 0))],
        5: [(0, (10, 0)), (1, (-10, 0))]})
    with pytest.raises(ClearanceError, match=re.escape(
            "point 4 meets point 6 in [0, 1/2]")):
        extract_flip_sequence(blocked)


def test_movers_that_meet_are_refused():
    """Movers 4 and 5 both at (3/2, 1/2) at the sample time 1/2, and both
    there at t = 1/3, off the sampler's grid, with breakpoints at 1/2 and
    1/4: each extractor names the pair and the interval between the merged
    breakpoints that holds the meeting.  Unchecked, the sampler raises a
    bare "coincident points" for the first and an unresolved event that
    names neither point for the second."""
    config = canonical_setup(3).config
    h4, h5 = config.positions[4], config.positions[5]
    meet = (F(3, 2), F(1, 2))
    at_sample = {4: [(0, h4), (F(1, 2), meet), (1, h4)],
                 5: [(0, h5), (F(1, 2), meet), (1, h5)]}
    # mover 4 reaches `meet` after 2/3 of its first segment, mover 5 after
    # 1/9 of its second
    far4 = tuple(h + F(3, 2) * (m - h) for h, m in zip(h4, meet))
    far5 = tuple((9 * m - h) / 8 for h, m in zip(h5, meet))
    between = {4: [(0, h4), (F(1, 2), far4), (1, h4)],
               5: [(0, h5), (F(1, 4), far5), (1, h5)]}
    assert configuration_at(TrajectorySet.from_motion(
        config, {4: between[4]}), F(1, 3)).positions[4] == meet
    assert configuration_at(TrajectorySet.from_motion(
        config, {5: between[5]}), F(1, 3)).positions[5] == meet
    for paths, interval in ((at_sample, "[0, 1/2]"),
                            (between, "[1/4, 1/2]")):
        ts = TrajectorySet.from_motion(config, paths)
        for extract in (exact_flip_sequence, extract_flip_sequence):
            with pytest.raises(ClearanceError) as info:
                extract(ts)
            assert str(info.value) == f"point 4 meets point 5 in {interval}"


def test_engine_takes_one_mover():
    config = make_config(STATIC_TRIPLE + [(5, 5), (-5, 5)])
    ts = TrajectorySet.from_motion(config, {
        7: [(0, (5, 5)), (1, (6, 5))], 8: [(0, (-5, 5)), (1, (-6, 5))]})
    with pytest.raises(ValueError, match="one point"):
        exact_flip_sequence(ts)


COORD = st.fractions(min_value=-20, max_value=20, max_denominator=6)
# Each example of the loop tests below runs an oracle that triangulates
# many configurations, so a failing example is reported as found, not
# shrunk: on a broken engine, shrinking one took 257 s.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


@st.composite
def single_mover_loops(draw):
    """A configuration of 3 to 6 interior points in general position, the
    last of which runs a closed loop through 1 to 3 random waypoints."""
    k = draw(st.integers(3, 6))
    interior = [(draw(COORD), draw(COORD)) for _ in range(k)]
    stops = [(draw(COORD), draw(COORD))
             for _ in range(draw(st.integers(1, 3)))]
    assume(len(set(interior)) == k)
    config = make_config(interior, span=60)
    assume(not validate_general_position(config))
    home = interior[-1]
    waypoints = [home, *stops, home]
    path = [(F(s, len(waypoints) - 1), xy) for s, xy in enumerate(waypoints)]
    return config, TrajectorySet.from_motion(config, {k + 3: path})


def missed_pair_loop():
    """A loop whose flips (5, 9) -> (6, 8) and back fall in one cell of
    the default sampling grid, [42/64, 43/64]."""
    interior = [(14, 17), (F(-52, 5), F(-47, 5)), (F(-56, 3), 3),
                (20, F(-21, 4)), (-8, -10), (F(-4, 5), F(-49, 3))]
    config = make_config(interior, span=60)
    return config, TrajectorySet.from_motion(config, {9: [
        (0, interior[-1]), (F(1, 3), (10, F(-28, 3))),
        (F(2, 3), (-13, 13)), (1, interior[-1])]})


def collinear_end_loop():
    """A loop on the n = 5 canonical setup whose mover 7 is at (3, 3/625)
    at t = 15/16, on the line x = 3 through point 6 and boundary vertex 3.
    15/16 lies on every dyadic grid from 1/16 down, so a sampling cell ends
    where three points of a flip's quadrilateral are collinear."""
    config = canonical_setup(5).config
    home = (F(4), F(4, 625))
    return config, TrajectorySet.from_motion(config, {7: [
        (0, home), (F(1, 6), (1, F(-1, 2))), (F(1, 3), (6, F(7, 2))),
        (F(2, 3), (F(11, 2), F(5, 2))), (F(3, 4), (0, 0)), (1, home)]})


@settings(max_examples=60, deadline=None, derandomize=True, phases=UNSHRUNK)
@given(single_mover_loops())
@example(missed_pair_loop())
@example(collinear_end_loop())
def test_engine_matches_sampler_on_random_loops(loop):
    """Equal flips and matrices whenever the sampler resolves.  A flip and
    its inverse inside one sampling cell leave its diff empty, so it misses
    such a pair; they cancel in the product, and a finer grid sees them."""
    config, ts = loop
    try:
        sampled = extract_flip_sequence(ts)
    except (UnresolvedEventError, DegenerateConfigurationError,
            ClearanceError):
        assume(False)
    exact = exact_flip_sequence(ts)
    home = build_delaunay(config)
    zeta = config.zeta_map()
    assert (sequence_product(exact, home, zeta)
            == sequence_product(sampled, home, zeta))
    if flips(exact) != flips(sampled):
        event("a cancelling pair inside one sampling cell")
        sampled = extract_flip_sequence(ts, step=F(1, 2 ** 10))
    assert flips(exact) == flips(sampled)
    event("with flips" if exact else "without flips")
    for a, b in zip(exact, exact[1:]):
        assert a.t_hi <= b.t_lo or (a.t_lo, a.t_hi) == (b.t_lo, b.t_hi)


@pytest.mark.parametrize("step", [F(1, 64), F(1, 1024)])
def test_sampler_bisects_a_cell_that_ends_on_a_collinear_triple(step):
    """A degenerate circumcircle at a cell end leaves the cell uncertified,
    so the sampler bisects it and logs the engine's 28 flips and matrix."""
    config, ts = collinear_end_loop()
    exact = exact_flip_sequence(ts)
    sampled = extract_flip_sequence(ts, step=step)
    assert len(exact) == 28
    assert flips(sampled) == flips(exact)
    home = build_delaunay(config)
    zeta = config.zeta_map()
    assert (sequence_product(sampled, home, zeta)
            == sequence_product(exact, home, zeta))


@settings(max_examples=60, deadline=None, derandomize=True, phases=UNSHRUNK)
@given(single_mover_loops())
def test_between_flips_the_triangulation_is_the_cavity_fan(loop):
    """At a time inside each gap between flip groups, the engine's
    triangulation is ``build_delaunay`` of the configuration then, and the
    triangles of the stationary points' triangulation DT(P) that it lacks
    are exactly those whose circumdisk holds the mover: Bowyer-Watson
    insertion of the mover into DT(P)."""
    config, ts = loop
    (mover,) = ts.movers
    try:
        events = exact_flip_sequence(ts)
        stationary = build_delaunay(Configuration(
            tuple(p for p in config.points if p.index != mover),
            config.boundary))
    except (UnresolvedEventError, ValueError):
        assume(False)
    groups = []  # [bracket, events]
    for e in events:
        if not groups or groups[-1][0] != (e.t_lo, e.t_hi):
            groups.append([(e.t_lo, e.t_hi), []])
        groups[-1][1].append(e)
    ends = [F(0), *(t for bracket, _ in groups for t in bracket), F(1)]
    gaps = [(lo + hi) / 2 for lo, hi in zip(ends[::2], ends[1::2])]
    triangles = build_delaunay(config)
    for g, t in enumerate(gaps):
        now = configuration_at(ts, t)
        try:
            assert triangles == build_delaunay(now)
        except DegenerateConfigurationError:
            event("the mover touches a circle at a gap time")
        p = now.int_positions
        assert stationary - triangles == {
            (a, b, c) for a, b, c in stationary
            if incircle(p[a], p[b], p[c], p[mover]) > 0}
        for e in groups[g][1] if g < len(groups) else ():
            triangles = apply_flip(triangles, e)
    event("with flips" if events else "without flips")


def test_engine_events_are_pinned():
    """SHA-256 over the reprs of the engine's bracketed events for every
    signed generator at n = 2..9, one letter at a time in the order n, i,
    j, then power +1 before -1.  Any change to an event, its order or its
    bracket moves the digest."""
    digest, count = hashlib.sha256(), 0
    for n in range(2, 10):
        setup = canonical_setup(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for power in (1, -1):
                    events = exact_flip_sequence(generator_trajectories(
                        setup, BraidLetter(i, j, power)))
                    digest.update(repr(events).encode())
                    count += len(events)
    assert count == 8976
    assert digest.hexdigest() == ENGINE_EVENTS_SHA256


def test_engine_predicate_budget(monkeypatch, capsys):
    """``simulate`` of the 42 signed generators at n = 7, on a setup built
    beforehand, makes 2,394 ``incircle`` and 8,526 ``orient2d`` calls (57
    and 203 a letter) and logs 1,508 flips.  The predicates are counted at
    every ``flipbraid.*`` attribute bound to them, as the traced benchmark
    wraps them, so calls from inside ``geometry`` count too."""
    from flipbraid import cli, geometry

    canonical_setup(7)
    calls = collections.Counter()
    for name in ("incircle", "orient2d"):
        predicate = getattr(geometry, name)

        def counted(*points, name=name, predicate=predicate):
            calls[name] += 1
            return predicate(*points)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "flipbraid":
                for attr, value in list(vars(module).items()):
                    if value is predicate:
                        monkeypatch.setattr(module, attr, counted)
    flips = 0
    for i, j in itertools.combinations(range(1, 8), 2):
        for word in (f"b({i},{j})", f"b({i},{j})^-1"):
            assert cli.main(["simulate", "--n", "7", "--word", word]) == 0
            (log,) = json.loads(capsys.readouterr().out)
            flips += len(log)
    assert (calls["incircle"], calls["orient2d"], flips) == (2394, 8526, 1508)


BIG = st.integers(-10 ** 6, 10 ** 6)
INT_POINT = st.tuples(BIG, BIG)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(INT_POINT, min_size=3, max_size=3), INT_POINT, INT_POINT,
       st.integers(0, 3))
def test_certificate_matches_three_lifted_determinants(others, m0, delta, r):
    """The quadratic fitted through the lifted determinants with the mover,
    in place r of the quad (1, 2, 3, 4), at s = 0, 1, 2 on the segment
    m0 + s delta for s in [0, 1]: the circle cofactors of the other three
    points give those determinants, up to the sign (-1)^(3 - r) of moving
    the mover's row last, and the engine's evaluation on the segment from
    m0 to m0 + delta gives the fitted quadratic."""
    points = [(m0[0] + s * delta[0], m0[1] + s * delta[1]) for s in range(3)]
    f0, f1, f2 = (_lifted_det(*others[:r], p, *others[r:]) for p in points)
    a2, b2, c2 = f2 - 2 * f1 + f0, 4 * f1 - f2 - 3 * f0, 2 * f0
    sign = (-1) ** (3 - r)
    alpha, beta_x, beta_y, gamma = cofactors = _cofactors(*others)
    assert [alpha * (x * x + y * y) + beta_x * x + beta_y * y + gamma
            for x, y in points] == [sign * f0, sign * f1, sign * f2]
    ((tri, *quadratic),) = _segment_quadratics({"T": cofactors}, m0,
                                               points[1])
    event("degenerate" if a2 == b2 == c2 == 0 else "a circle")
    assert tri == "T"
    assert [2 * sign * x for x in quadratic] == [a2, b2, c2]


NONSQUARE = st.integers(2, 10 ** 6).filter(
    lambda d: math.isqrt(d) ** 2 != d)
SQUARE = st.one_of(st.just(0), st.integers(1, 10 ** 3).map(lambda r: r * r))
TIME_FORMS = ["non-square d"] * 3 + ["square d", "v = 0"]


@st.composite
def raw_times(draw):
    """(u, v, d, w), a time (u + v sqrt(d)) / w in about [-4, 4], rational
    or not: d a non-square, a perfect square or 0, v possibly 0, and w of
    either sign."""
    w = draw(st.integers(1, 10 ** 9))
    form = draw(st.sampled_from(TIME_FORMS))
    v = 0 if form == "v = 0" else draw(st.integers(-10 ** 3, 10 ** 3))
    d = draw(SQUARE if form == "square d" else NONSQUARE)
    u = draw(st.integers(-4 * w, 4 * w)) - v * math.isqrt(d)
    sign = draw(st.sampled_from((1, -1)))
    return sign * u, sign * v, d, sign * w


def engine_times():
    """A time of ``raw_times``, normalized by ``_time``."""
    return raw_times().map(lambda raw: _time(*raw))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_times())
def test_time_normalizes_and_keeps_the_value(raw):
    """``_time`` makes w positive, sets v and d to 0 exactly when v sqrt(d)
    is rational, keeps the value, and keys it by its floor at 2^64, all
    checked by exact signs."""
    u, v, d, w = raw
    rational = v == 0 or math.isqrt(d) ** 2 == d
    event(("rational" if rational else "irrational")
          + (", w > 0" if w > 0 else ", w < 0"))
    u2, v2, d2, w2, key = _time(*raw)
    assert w2 > 0
    assert (v2 == 0) == (d2 == 0) == rational
    assert _sign_sum(u * w2 - u2 * w, v * w2, d, -v2 * w, d2) == 0
    scale = 1 << 64
    assert _sign_root(u2 * scale - key * w2, v2 * scale, d2) >= 0
    assert _sign_root(u2 * scale - (key + 1) * w2, v2 * scale, d2) < 0


def near_time(t, draw):
    """A second time at most 2^-69 from t, so that their keys mostly agree:
    a rational on the 2^-70 grid, or t itself written differently."""
    if draw(st.booleans()):
        k = _floor_root(*t[:4], 1 << 70) + draw(st.integers(-1, 2))
        return _time(k, 0, 0, 1 << 70)
    factor = draw(st.integers(1, 10 ** 3))
    u, v, d, w, _ = t
    return _time(u * factor, v * factor, d, w * factor)


def unkeyed_compare(x, y) -> int:
    u1, v1, d1, w1, _ = x
    u2, v2, d2, w2, _ = y
    return _sign_sum(u1 * w2 - u2 * w1, v1 * w2, d1, -v2 * w1, d2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_keyed_compare_agrees_with_exact_sign(data):
    """Keys order distinct times, and only ties reach the exact sign."""
    x = data.draw(engine_times())
    y = (near_time(x, data.draw) if data.draw(st.booleans())
         else data.draw(engine_times()))
    event("one key" if x[4] == y[4] else "two keys")
    assert _compare(x, y) == unkeyed_compare(x, y) == -_compare(y, x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(engine_times(), st.integers(2, 10 ** 3))
def test_a_time_prints_one_form_however_it_is_written(t, factor):
    """(u + v sqrt(d)) / w prints from its primitive minimal polynomial,
    so scaling u, v, w, or moving a square from v into d, changes no
    character."""
    u, v, d, w, _ = t
    text = _format_time(t)
    assert _format_time(_time(u * factor, v * factor, d, w * factor)) == text
    assert _format_time(
        _time(u * factor, v, d * factor ** 2, w * factor)) == text
    if v:
        sign = "+" if v > 0 else "-"
        assert re.fullmatch(
            rf"\(-?\d+ \{sign} 1\*sqrt\(\d+\)\)/\d+ = -?\d+\.\d{{6}}\.\.\.",
            text), text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(engine_times())
def test_floor_scaled_is_the_exact_floor(t):
    """A shift of the key up to 2^64, the isqrt formula beyond; either way
    k <= t * 2^m < k + 1, checked by exact signs."""
    u, v, d, w, _ = t
    for m in range(81):
        scale = 1 << m
        k = _floor_scaled(t, scale)
        assert k == _floor_root(u, v, d, w, scale)
        assert _sign_root(u * scale - k * w, v * scale, d) >= 0
        assert _sign_root(u * scale - (k + 1) * w, v * scale, d) < 0


def exact_bracket(t, before, after) -> tuple:
    """The definition ``_bracket`` keeps: from level 6 up, the first
    dyadic cell (or, with t on its grid, the pair of cells) around t whose
    ends are compared with the neighbours by ``_compare``, strictly."""
    m = DEFAULT_STEP.denominator.bit_length() - 1
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


def unit_time(t):
    """The fractional part of a time, in [0, 1): its floor is its key's
    integer part."""
    u, v, d, w, key = t
    return _time(u - (key >> 64) * w, v, d, w)


def neighbour(draw, t, side):
    """An event time in [0, 1) on the side of t that ``side`` names (-1
    below, +1 above), or None: near t, so often with its key; a dyadic end
    of a cell at or next to t's at a level from 6 to 80; another time in
    [0, 1); or none.  A draw outside [0, 1) or on the wrong side gives
    None."""
    kind = draw(st.sampled_from(("none", "near", "dyadic", "other")))
    if kind == "none":
        event(f"none {'after' if side > 0 else 'before'}")
        return None
    if kind == "near":
        x = near_time(t, draw)
    elif kind == "dyadic":
        m = draw(st.integers(6, 80))
        k = _floor_scaled(t, 1 << m) + (side > 0) + side * draw(
            st.integers(0, 1))
        x = _dyadic_time(k, m)
    else:
        x = unit_time(draw(engine_times()))
    if _compare(x, t) != side or x[4] >> 64 != 0:
        return None
    event(f"{kind} {'after' if side > 0 else 'before'}"
          + (", one key" if x[4] == t[4] else ""))
    return x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_bracket_agrees_with_exact_comparisons(data):
    """``_bracket``, which starts at the first level whose cells can part
    t from its neighbours by their keys, against the exact comparisons
    from level 6 up, for t in (0, 1) from ``engine_times`` or on a dyadic
    grid."""
    if data.draw(st.booleans()):
        t = unit_time(data.draw(engine_times()))
    else:
        m = data.draw(st.integers(1, 80))
        t = _dyadic_time(data.draw(st.integers(1, (1 << m) - 1)), m)
        event("t on a grid")
    assume(t[0] or t[1])
    before, after = neighbour(data.draw, t, -1), neighbour(data.draw, t, 1)
    lo, hi = _bracket(t, before, after)
    assert (lo, hi) == exact_bracket(t, before, after)
    assert _compare(_time(lo.numerator, 0, 0, lo.denominator), t) < 0
    assert _compare(t, _time(hi.numerator, 0, 0, hi.denominator)) < 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_instants_are_the_exact_time_order(data):
    """``_instants`` of crossings sorted by (key, quad) against the exact
    order: sorted by ``_compare`` and quad, and grouped by equal times.
    The times lie near one another, so mostly share a key, and some are
    one time written differently."""
    t = data.draw(engine_times())
    times = [t] + [near_time(t, data.draw) if data.draw(st.booleans())
                   else data.draw(engine_times())
                   for _ in range(data.draw(st.integers(0, 6)))]
    quads = data.draw(st.lists(st.tuples(*[st.integers(1, 9)] * 4),
                               min_size=len(times), max_size=len(times),
                               unique=True))
    crossings = [(x, quad, None) for x, quad in zip(times, quads)]
    by_time = functools.cmp_to_key(_compare)
    expected = [list(group) for _, group in itertools.groupby(
        sorted(crossings, key=lambda c: (by_time(c[0]), c[1])),
        lambda c: by_time(c[0]))]
    event("an instant of several" if len(expected) < len(times)
          else "one crossing an instant")
    crossings.sort(key=lambda c: (c[0][4], c[1]))
    assert _instants(crossings) == expected


SMALL = st.integers(-12, 12)


@st.composite
def circle_quadratics(draw):
    """(a2, b2, c2, inside): a circle's polynomial a2 s^2 + b2 s + c2 on a
    segment, a2 < 0, and whether the point is inside just before s = 0, as
    the sign of c2 allows: random coefficients, or -(p s - q)(p2 s - q2),
    whose roots often sit at s = 0 or s = 1."""
    if draw(st.booleans()):
        a2, b2, c2 = draw(BIG), draw(BIG), draw(BIG)
    else:
        p, q, p2, q2 = draw(SMALL), draw(SMALL), draw(SMALL), draw(SMALL)
        a2, b2, c2 = -p * p2, p * q2 + p2 * q, -q * q2
    assume(a2 < 0)
    return a2, b2, c2, c2 > 0 or (c2 == 0 and draw(st.booleans()))


def crossings_by_the_roots(a2, b2, c2, inside):
    """The real roots in [0, 1), in increasing order, after which the sign
    of the polynomial differs from the membership before them: +1 for the
    smaller root, entering, -1 for the larger (or a double) one, leaving."""
    disc = b2 * b2 - 4 * a2 * c2
    if disc < 0:
        return []
    out = []
    for v in ((1, -1) if disc > 0 else (-1,)):
        root = _time(-b2, v, disc, 2 * a2)
        if (_compare(root, _time(0, 0, 0, 1)) >= 0
                and _compare(root, _time(1, 0, 0, 1)) < 0
                and (v == 1) != inside):
            out.append(v)
            inside = v == 1
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(circle_quadratics())
@example((-1, 1, 0, False))   # roots at s = 0 and s = 1, entering at 0
@example((-1, 1, 0, True))    # the same, already inside
@example((-1, 0, 0, True))    # a double root at s = 0, leaving
@example((-1, 2, -1, False))  # a double root at s = 1
def test_past_end_agrees_with_the_root(quadratic):
    """The sign-only window test of ``_crossings`` against the exact roots
    themselves, for the segment [0, 1], where the segment parameter is the
    time."""
    a2, b2, c2, inside = quadratic
    expected = crossings_by_the_roots(a2, b2, c2, inside)
    ends = [s for s in (0, 1) if a2 * s * s + b2 * s + c2 == 0]
    event(f"crossings {expected}, roots at {ends}")
    assert list(_crossings(a2, b2, c2, inside)) == expected
