import re
from fractions import Fraction

import pytest

from flipbraid.delaunay import (DegenerateConfigurationError, apply_flip,
                                build_delaunay)
from flipbraid.flips import sequence_product
from flipbraid.geometry import Configuration, LabeledPoint, incircle
from flipbraid.kinetics import (DEFAULT_FLOOR, DEFAULT_STEP, Trajectory,
                                TrajectorySet, UnresolvedEventError,
                                configuration_at, extract_flip_sequence)

F = Fraction


def make_config(interior, span=200):
    pts = [
        LabeledPoint.make(1, -span, -span, 1),
        LabeledPoint.make(2, span, -span, 2),
        LabeledPoint.make(3, 0, span, 3),
    ]
    for k, (x, y) in enumerate(interior):
        pts.append(LabeledPoint.make(k + 4, x, y, k + 4))
    return Configuration(tuple(pts), (1, 2, 3))


# three static points on the circle x^2 + y^2 = x + y, plus movers
STATIC_TRIPLE = [(0, 0), (1, 0), (0, 1)]


def test_trajectory_validation():
    with pytest.raises(ValueError, match="strictly increase"):
        Trajectory.piecewise(1, [(0, (0, 0)), (0, (1, 1)), (1, (0, 0))])
    with pytest.raises(ValueError, match="start at 0"):
        Trajectory.piecewise(1, [(F(1, 2), (0, 0)), (1, (1, 1))])


@pytest.mark.parametrize("build", [
    lambda: LabeledPoint(4, 0.5, F(1), F(4)),
    lambda: LabeledPoint(4, F(1), "1/2", F(4)),
    lambda: LabeledPoint(4, F(1), F(1), 4.0),
    lambda: Trajectory(4, ((F(0), (F(1), F(1))), (F(1, 2), (2.5, F(1))),
                           (F(1), (F(1), F(1))))),
    lambda: Trajectory(4, ((F(0), (F(1), F(1))), (F(1, 2), (F(2), "1")),
                           (F(1), (F(1), F(1))))),
    lambda: Trajectory(4, ((F(0), (F(1), F(1))), (0.5, (F(2), F(1))),
                           (F(1), (F(1), F(1))))),
], ids=["float-x", "str-y", "float-label", "float-coordinate",
        "str-coordinate", "float-time"])
def test_direct_construction_takes_exact_rationals_only(build):
    """The constructors that ``make`` and ``piecewise`` wrap coerce nothing,
    so a float or a string is refused there, not as an ``AttributeError``
    in whatever reads it later; the wrappers still coerce strings."""
    with pytest.raises(TypeError, match="not an exact rational"):
        build()
    assert LabeledPoint.make(4, "1/2", 1, 4).x == F(1, 2)
    assert Trajectory.piecewise(4, [(0, ("1/2", 0)), ("1", (1, 1))]).times \
        == (0, 1)


def test_trajectory_set_requires_constant_boundary():
    config = make_config([(0, 0)])
    with pytest.raises(ValueError, match="boundary point 1 must stay fixed"):
        TrajectorySet.from_motion(
            config, {1: [(0, (-200, -200)), (1, (-199, -200))]})
    with pytest.raises(ValueError, match="point 99: the configuration has"
                       " no such point"):
        TrajectorySet.from_motion(config, {99: [(0, (0, 0)), (1, (1, 1))]})
    assert TrajectorySet.from_motion(config, {}).trajectories == ()
    ts = TrajectorySet.from_motion(config, {
        1: [(0, (-200, -200)), (1, (-200, -200))],
        4: [(0, (0, 0)), (F(1, 2), (0, 0)), (1, (0, 0))]})
    assert ts.trajectories == () and ts.movers == ()
    with pytest.raises(ValueError, match="does not start at its initial"):
        TrajectorySet.from_motion(config, {4: [(0, (1, 1)), (1, (0, 0))]})
    tr = Trajectory.piecewise(4, [(0, (0, 0)), (1, (1, 1))])
    with pytest.raises(ValueError, match="sorted by distinct index"):
        TrajectorySet(config, (tr, tr))


def test_configuration_at_interpolation():
    config = make_config([(0, 0)])
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 2), (1, 2)), (1, (0, 0))]})
    assert configuration_at(ts, 0) == config
    assert configuration_at(ts, F(1, 2)).positions[4] == (F(1), F(2))
    assert configuration_at(ts, F(1, 4)).positions[4] == (F(1, 2), F(1))
    with pytest.raises(ValueError, match="outside"):
        configuration_at(ts, F(3, 2))


def test_configuration_at_checks_the_movers():
    """A mover leaving the boundary triangle, or landing on a constant
    point, is rejected at the sample time where it does."""
    config = make_config([(0, 0), (10, 10)])
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 2), (300, 0)), (1, (0, 0))]})
    assert configuration_at(ts, F(1, 8)).positions[4] == (75, 0)
    for t in (F(1, 2), F(1, 6)):  # outside, and on the edge from 2 to 3
        with pytest.raises(ValueError, match=re.escape(
                "point 4 is not strictly inside the boundary triangle")):
            configuration_at(ts, t)
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 2), (20, 20)), (1, (0, 0))]})
    configuration_at(ts, F(1, 3))
    with pytest.raises(ValueError, match="coincident points"):
        configuration_at(ts, F(1, 4))


def test_static_trajectories_no_events():
    config = make_config(STATIC_TRIPLE + [(5, 5)])
    ts = TrajectorySet.from_motion(config, {})
    assert extract_flip_sequence(ts) == []


def test_sampler_fills_in_its_defaults():
    """A step or floor left as None is ``DEFAULT_STEP`` or
    ``DEFAULT_FLOOR``."""
    from flipbraid.braids import (BraidLetter, canonical_setup,
                                  generator_trajectories)

    ts = generator_trajectories(canonical_setup(3), BraidLetter(1, 2, 1))
    floor = F(1, 2 ** 20)
    events = extract_flip_sequence(ts)
    assert events
    assert events == extract_flip_sequence(ts, DEFAULT_STEP, DEFAULT_FLOOR)
    assert extract_flip_sequence(ts, None, floor) \
        == extract_flip_sequence(ts, DEFAULT_STEP, floor)


@pytest.mark.parametrize("step, floor", [
    (2, None), (F(3, 2), F(1, 64)), (F(1, 64), F(1, 32)), (F(1, 64), 0),
    (0, 0)])
def test_sampler_refuses_a_step_or_floor_out_of_range(step, floor):
    _, ts = square_crossing_ts()
    with pytest.raises(ValueError, match=re.escape(
            "need 0 < floor <= step <= 1")):
        extract_flip_sequence(ts, step, floor)


def square_crossing_ts():
    """Point 7 moves straight through the cocircular position at t=1/2.

    The short diagonal hop keeps every other Delaunay wall uncrossed, so
    the square's diagonal swap is the only event.
    """
    config = make_config(STATIC_TRIPLE + [(F(9, 8), F(9, 8))])
    return config, TrajectorySet.from_motion(
        config, {7: [(0, (F(9, 8), F(9, 8))), (1, (F(7, 8), F(7, 8)))]})


def test_single_flip_crossing():
    config, ts = square_crossing_ts()
    events = extract_flip_sequence(ts)
    assert len(events) == 1
    event = events[0]
    assert event.quad == (4, 5, 6, 7)
    assert event.t_lo < F(1, 2) < event.t_hi
    # before: 7 outside the triangle 4,5,6 circle, diagonal misses 7
    before = build_delaunay(configuration_at(ts, 0))
    after = build_delaunay(configuration_at(ts, 1))
    assert apply_flip(before, event) == after


def test_single_flip_agrees_with_dense_oracle():
    config, ts = square_crossing_ts()
    adaptive = extract_flip_sequence(ts)
    dense = extract_flip_sequence(ts, step=F(1, 1000), floor=F(1, 1000))
    assert [(e.removed, e.inserted) for e in adaptive] \
        == [(e.removed, e.inserted) for e in dense]


def test_bracket_endpoints_change_incircle_sign():
    _, ts = square_crossing_ts()
    for event in extract_flip_sequence(ts):
        i, k = event.removed
        j, l = event.inserted
        lo = configuration_at(ts, event.t_lo)
        hi = configuration_at(ts, event.t_hi)
        assert incircle(lo.positions[i], lo.positions[j], lo.positions[k],
                        lo.positions[l]) == -1
        assert incircle(hi.positions[i], hi.positions[j], hi.positions[k],
                        hi.positions[l]) == 1


def test_grazing_dip_cancels():
    """In-and-out crossing yields two mutually inverse flips (product I)."""
    config = make_config(STATIC_TRIPLE + [(F(9, 8), F(9, 8))])
    ts = TrajectorySet.from_motion(
        config, {7: [(0, (F(9, 8), F(9, 8))), (F(1, 2), (F(7, 8), F(7, 8))),
                     (1, (F(9, 8), F(9, 8)))]})
    events = extract_flip_sequence(ts)
    assert len(events) in (0, 2)
    assert len(events) == 2  # this dip does cross the circle
    first, second = events
    assert first.removed == second.inserted
    assert first.inserted == second.removed
    product, final = sequence_product(
        events, build_delaunay(config), config.zeta_map())
    assert product.is_identity()
    assert final == build_delaunay(config)


def test_replay_reproduces_final_triangulation():
    _, ts = square_crossing_ts()
    events = extract_flip_sequence(ts)
    tris = build_delaunay(configuration_at(ts, 0))
    for e in events:
        tris = apply_flip(tris, e)
    assert tris == build_delaunay(configuration_at(ts, 1))


def test_refinement_stability():
    _, ts = square_crossing_ts()
    zeta = configuration_at(ts, 0).zeta_map()
    start = build_delaunay(configuration_at(ts, 0))
    products = []
    for step in (F(1, 64), F(1, 128), F(1, 37)):
        events = extract_flip_sequence(ts, step=step)
        products.append(sequence_product(events, start, zeta)[0])
    assert products[0] == products[1] == products[2]


def test_degenerate_endpoint_raises():
    config = make_config([(0, 0), (1, 0), (0, 1), (1, 1)])  # cocircular
    ts = TrajectorySet.from_motion(config, {})
    with pytest.raises(DegenerateConfigurationError):
        extract_flip_sequence(ts)


def two_mover_ts():
    """Points 7 and 8 cross the circle of 4, 5, 6 at the same instant."""
    config = make_config(
        STATIC_TRIPLE
        + [(F(3, 2), F(3, 2)), (F(11, 10), F(17, 10))])
    return TrajectorySet.from_motion(config, {
        7: [(0, (F(3, 2), F(3, 2))), (1, (F(1, 2), F(1, 2)))],
        8: [(0, (F(11, 10), F(17, 10))), (1, (F(1, 10), F(7, 10)))],
    })


def test_simultaneous_overlapping_events_unresolved():
    """Two movers crossing one circle at the same instant cannot be ordered."""
    ts = two_mover_ts()
    with pytest.raises(UnresolvedEventError, match="perturb") as info:
        extract_flip_sequence(ts, floor=F(1, 2 ** 20))
    # the message names triangles that change across the stuck bracket
    message = str(info.value)
    lo, hi = (F(t) for t in re.search(r"\[(\S+), (\S+)\]", message).groups())
    changed = (build_delaunay(configuration_at(ts, lo))
               ^ build_delaunay(configuration_at(ts, hi)))
    assert changed and any(str(t) in message for t in changed)


def test_cocircular_stationary_points_around_the_mover():
    """Points 4..7 lie on the circle x^2 + y^2 = 25 and its disk holds no
    other constant point, so the constant points alone are degenerate.
    The mover 9 starts at the center and its loop stays inside the disk,
    so those four points are never a degeneracy of a sample."""
    config = make_config([(5, 0), (0, 5), (-5, 0), (0, -5), (4, 4), (0, 0)])
    ts = TrajectorySet.from_motion(config, {
        9: [(0, (0, 0)), (F(1, 3), (-2, -2)), (F(2, 3), (-2, 0)),
            (1, (0, 0))]})
    stationary = Configuration(config.points[:-1], config.boundary)
    with pytest.raises(DegenerateConfigurationError) as err:
        build_delaunay(stationary)
    assert err.value.subset == (4, 5, 6, 7)
    events = extract_flip_sequence(ts)
    assert len(events) == 2


@pytest.mark.parametrize("ts", [None, (), "ts"])
def test_an_extractor_refuses_a_motion_that_is_no_trajectory_set(ts):
    from flipbraid.kinetics import exact_flip_sequence
    for extract in (exact_flip_sequence, extract_flip_sequence):
        with pytest.raises(TypeError,
                           match="^ts must be a TrajectorySet, got "):
            extract(ts)
