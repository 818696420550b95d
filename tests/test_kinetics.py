import re
from fractions import Fraction

import pytest

from flipbraid import kinetics
from flipbraid.braids import (BraidLetter, canonical_setup,
                              generator_trajectories)
from flipbraid.delaunay import (DegenerateConfigurationError, apply_flip,
                                build_delaunay)
from flipbraid.flips import sequence_product
from flipbraid.geometry import Configuration, LabeledPoint, incircle
from flipbraid.kinetics import (Trajectory, TrajectorySet,
                                UnresolvedEventError, _sample_at,
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


def test_trajectory_set_requires_constant_boundary():
    config = make_config([(0, 0)])
    with pytest.raises(ValueError, match="boundary"):
        TrajectorySet.from_motion(
            config, {1: [(0, (-200, -200)), (1, (-199, -200))]})


def test_configuration_at_interpolation():
    config = make_config([(0, 0)])
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 2), (1, 2)), (1, (0, 0))]})
    assert configuration_at(ts, 0) == config
    assert configuration_at(ts, F(1, 2)).positions[4] == (F(1), F(2))
    assert configuration_at(ts, F(1, 4)).positions[4] == (F(1, 2), F(1))
    with pytest.raises(ValueError, match="outside"):
        configuration_at(ts, F(3, 2))


def test_static_trajectories_no_events():
    config = make_config(STATIC_TRIPLE + [(5, 5)])
    ts = TrajectorySet.from_motion(config, {})
    assert extract_flip_sequence(ts) == []


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


def assert_sampler_matches_rebuild(ts, times):
    """The sampler's triangle set (movers inserted into the stationary set)
    equals the full Delaunay build at each time, degeneracies included."""
    for t in times:
        try:
            expected = build_delaunay(configuration_at(ts, t))
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError):
                _sample_at(ts, t)
            continue
        assert _sample_at(ts, t)[2] == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampler_matches_rebuild_at_every_bracket(n):
    setup = canonical_setup(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for power in (1, -1):
                ts = generator_trajectories(setup, BraidLetter(i, j, power))
                assert ts.movers == (i + 3,)
                events = extract_flip_sequence(ts)
                assert events
                assert_sampler_matches_rebuild(
                    ts, sorted({t for e in events for t in (e.t_lo, e.t_hi)}))


def test_sampler_matches_rebuild_with_two_movers():
    ts = two_mover_ts()
    assert ts.movers == (7, 8)
    with pytest.raises(UnresolvedEventError) as info:
        extract_flip_sequence(ts, floor=F(1, 2 ** 20))
    lo, hi = (F(t) for t in
              re.search(r"\[(\S+), (\S+)\]", str(info.value)).groups())
    assert_sampler_matches_rebuild(
        ts, [F(k, 64) for k in range(65)] + [lo, (lo + hi) / 2, hi])


def _rebuild_sample_at(ts, t):
    config = configuration_at(ts, t)
    return t, config, build_delaunay(config)


def test_cocircular_stationary_points_around_the_mover(monkeypatch):
    """Points 4..7 lie on the circle x^2 + y^2 = 25 and its disk holds no
    other constant point, so the stationary triangle set is degenerate.
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
    monkeypatch.setattr(kinetics, "_sample_at", _rebuild_sample_at)
    assert extract_flip_sequence(ts) == events


def test_trajectory_json_round_trip():
    config = make_config([(0, 0)])
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 3), (1, 2)), (1, (0, 0))]})
    data = ts.to_json_dict()
    moving = [tr for tr in data["trajectories"] if tr["index"] == 4][0]
    assert moving["breakpoints"] == [["0", "0", "0"], ["1/3", "1", "2"],
                                     ["1", "0", "0"]]
    rebuilt = TrajectorySet.from_json_dict(
        data, config.boundary, config.zeta_map())
    assert rebuilt == ts
    assert configuration_at(rebuilt, F(1, 6)).positions[4] == (F(1, 2), F(1))


def _trajectory_json():
    config = make_config([(0, 0)])
    ts = TrajectorySet.from_motion(
        config, {4: [(0, (0, 0)), (F(1, 3), (1, 2)), (1, (0, 0))]})
    return config, ts.to_json_dict()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["trajectories"][3].pop("index"),
     "trajectory entry 4: missing 'index'"),
    (lambda d: d["trajectories"][3].pop("breakpoints"),
     "trajectory entry 4: missing 'breakpoints'"),
    (lambda d: d["trajectories"][3]["breakpoints"][1].__setitem__(0, 0.1),
     "trajectory entry 4: not an exact rational: 0.1"),
    (lambda d: d["trajectories"][0]["breakpoints"][0].pop(),
     "trajectory entry 1: not enough values to unpack"),
    (lambda d: d["trajectories"][3]["breakpoints"].pop(),
     "trajectory entry 4: breakpoints must start at 0 and end at 1"),
    (lambda d: d["trajectories"][2].__setitem__("index", "3"),
     "trajectory entry 3: 'str' object cannot be interpreted as an integer"),
    (lambda d: d["trajectories"].__setitem__(1, 7),
     "trajectory entry 2: expected an object, got 7"),
    (lambda d: d.pop("trajectories"),
     "expected a list of trajectory entries, got None"),
])
def test_trajectory_json_rejects_malformed_input(edit, message):
    config, data = _trajectory_json()
    edit(data)
    with pytest.raises(ValueError, match=re.escape(message)):
        TrajectorySet.from_json_dict(data, config.boundary,
                                     config.zeta_map())
