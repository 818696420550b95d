import collections
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (exhaustive_delaunay_check, random_configuration,
                      validate_general_position)
from flipbraid import canonical_setup
from flipbraid.delaunay import (DegenerateConfigurationError, FlipEvent,
                                _cofactors, apply_flip, build_delaunay,
                                delaunay_circles, diff_flips, insert_point,
                                render_svg, triangle, verify_delaunay)
from flipbraid.geometry import (Configuration, DegenerateCircleError,
                                LabeledPoint, incircle, orient2d)


def test_triangle_sorted():
    assert triangle(3, 1, 2) == (1, 2, 3)
    with pytest.raises(ValueError):
        triangle(1, 1, 2)


def test_counts_small_n():
    # 1, 3, 5 triangles for n = 0, 1, 2
    for n, count in ((0, 1), (1, 3), (2, 5)):
        t = build_delaunay(canonical_setup(n).config)
        assert len(t) == count
    assert build_delaunay(canonical_setup(0).config) == {(1, 2, 3)}


def test_counts_canonical():
    for n in range(7):
        assert len(build_delaunay(canonical_setup(n).config)) == 2 * n + 1


def test_boundary_edges_present():
    t = build_delaunay(canonical_setup(4).config)
    for edge in ((1, 2), (1, 3), (2, 3)):
        holders = [tri for tri in t if set(edge) <= set(tri)]
        assert len(holders) == 1


def test_interior_edges_manifold():
    t = build_delaunay(canonical_setup(5).config)
    counts = {}
    for tri in t:
        a, b, c = tri
        for e in ((a, b), (a, c), (b, c)):
            counts[e] = counts.get(e, 0) + 1
    boundary = {(1, 2), (1, 3), (2, 3)}
    for e, k in counts.items():
        assert k == (1 if e in boundary else 2), e


def test_insertion_order_independent():
    # points are inserted in the order of Configuration.points
    config = canonical_setup(5).config
    reference = build_delaunay(config)
    rng = random.Random(31)
    points = list(config.points)
    for _ in range(6):
        rng.shuffle(points)
        shuffled = Configuration(tuple(points), config.boundary)
        assert build_delaunay(shuffled) == reference


def test_random_configurations_verify():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 5)
        config = random_configuration(rng, n)
        t = build_delaunay(config)
        assert len(t) == 2 * n + 1
        verify_delaunay(t, config)  # local edge check
        exhaustive_delaunay_check(t, config)


def test_degenerate_input_raises_with_subset():
    pts = (
        LabeledPoint.make(1, -200, -200, 1),
        LabeledPoint.make(2, 200, -200, 2),
        LabeledPoint.make(3, 0, 200, 3),
        LabeledPoint.make(4, 0, 0, 4),
        LabeledPoint.make(5, 1, 0, 5),
        LabeledPoint.make(6, 0, 1, 6),
        LabeledPoint.make(7, 1, 1, 7),
    )
    config = Configuration(pts, (1, 2, 3))
    with pytest.raises(DegenerateConfigurationError) as err:
        build_delaunay(config)
    assert err.value.subset == (4, 5, 6, 7)


def test_diff_identity():
    t = build_delaunay(canonical_setup(3).config)
    assert diff_flips(t, t) == []


def test_diff_single_flip():
    before = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5)})
    after = frozenset({(1, 2, 4), (2, 3, 4), (1, 4, 5), (2, 3, 5)})
    events = diff_flips(before, after)
    assert len(events) == 1
    assert events[0].removed == (1, 3)
    assert events[0].inserted == (2, 4)
    assert events[0].quad == (1, 2, 3, 4)


def test_diff_two_disjoint_flips():
    before = frozenset({(1, 2, 3), (1, 3, 4), (5, 6, 7), (5, 7, 8), (9, 10, 11)})
    after = frozenset({(1, 2, 4), (2, 3, 4), (5, 6, 8), (6, 7, 8), (9, 10, 11)})
    events = diff_flips(before, after)
    assert len(events) == 2
    assert [(e.removed, e.inserted) for e in events] == \
        [((1, 3), (2, 4)), ((5, 7), (6, 8))]


def test_diff_not_a_flip_set():
    before = frozenset({(1, 2, 3), (1, 3, 4)})
    after = frozenset({(1, 2, 3), (1, 3, 5)})  # vertex swap, not a flip
    assert diff_flips(before, after) is None
    # odd-sized difference
    assert diff_flips(frozenset({(1, 2, 3)}), frozenset({(1, 2, 4)})) is None


def test_apply_flip_round_trip():
    before = frozenset({(1, 2, 3), (1, 3, 4), (2, 3, 5)})
    event = FlipEvent((1, 3), (2, 4))
    after = apply_flip(before, event)
    assert after == frozenset({(1, 2, 4), (2, 3, 4), (2, 3, 5)})
    assert apply_flip(after, event.reversed()) == before
    with pytest.raises(ValueError):
        apply_flip(after, event)


def test_svg_snapshot():
    config = canonical_setup(2).config
    t = build_delaunay(config)
    svg = render_svg(t, config)
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 5
    assert svg.count("<text") == 5  # one label per point
    assert render_svg(t, config) == svg  # deterministic


def test_home_is_the_delaunay_triangle_set():
    setup = canonical_setup(4)
    assert setup.home == build_delaunay(setup.config)
    assert isinstance(setup.home, frozenset)


def test_verify_rejects_a_flipped_interior_edge():
    setup = canonical_setup(4)
    home = setup.home
    t0, t1 = next((a, b) for a in sorted(home) for b in sorted(home)
                  if a < b and len(set(a) & set(b)) == 2)
    shared = tuple(sorted(set(t0) & set(t1)))
    other = tuple(sorted(set(t0) ^ set(t1)))
    flipped = apply_flip(home, FlipEvent(shared, other))
    assert len(flipped) == len(home)
    with pytest.raises(AssertionError, match="circumdisk contains point"):
        verify_delaunay(flipped, setup.config)


def test_verify_rejects_a_missing_triangle():
    setup = canonical_setup(4)
    with pytest.raises(AssertionError, match="expected 9 triangles, got 8"):
        verify_delaunay(setup.home - {min(setup.home)}, setup.config)


def _verdict(check, triangles, config):
    try:
        check(triangles, config)
    except DegenerateConfigurationError as err:
        return "degenerate", err.subset
    except AssertionError:
        return "rejected", None
    return "accepted", None


def _triangle_sets(rng, config):
    """The triangle set that the insertion steps give for ``config`` (its
    Delaunay set, or a Delaunay set of a degenerate configuration), the set
    less one triangle and, where one exists, one random diagonal exchange
    of it (convex or not)."""
    tris = frozenset(triangle(*tri) for tri in delaunay_circles(
        config.int_positions, config.boundary, config.interior))
    out = [tris, tris - {rng.choice(sorted(tris))}]
    flips = [FlipEvent(tuple(sorted(set(t0) & set(t1))),
                       tuple(sorted(set(t0) ^ set(t1))))
             for t0 in sorted(tris) for t1 in sorted(tris)
             if t0 < t1 and len(set(t0) & set(t1)) == 2]
    flips = [f for f in flips if not set(f.inserted_triangles()) & tris]
    if flips:
        out.append(apply_flip(tris, rng.choice(flips)))
    return out


def _with_rectangle(rng, config):
    """``config`` with the corners of a random rectangle, which lie on one
    circle, added as points 4..7, so that their edges come first in the
    local check's edge order; None when a corner meets a point."""
    x0, x1 = sorted(rng.sample(range(-160, 161), 2))
    y0, y1 = sorted(rng.sample(range(-160, 161), 2))
    corners = [LabeledPoint.make(4 + k, Fraction(x, 8), Fraction(y, 8),
                                 4 + k)
               for k, (x, y) in enumerate(
                   [(x0, y0), (x1, y0), (x0, y1), (x1, y1)])]
    shifted = [LabeledPoint(p.index + 4, p.x, p.y, p.zeta + 4)
               for p in config.points[3:]]
    try:
        return Configuration(config.points[:3] + tuple(corners)
                             + tuple(shifted), config.boundary)
    except ValueError:
        return None  # a corner coincides with a point


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
def test_local_check_agrees_with_exhaustive_oracle(seed, n, cocircular):
    """verify_delaunay accepts, reports a degeneracy or rejects exactly
    when the exhaustive check does; a reported subset is a cocircular
    4-subset with an empty open disk."""
    rng = random.Random(seed)
    config = random_configuration(rng, n)
    if cocircular:
        config = _with_rectangle(rng, config)
        if config is None:
            return
    for tris in _triangle_sets(rng, config):
        verdict, subset = _verdict(verify_delaunay, tris, config)
        assert verdict == _verdict(exhaustive_delaunay_check, tris, config)[0]
        if verdict == "degenerate":
            assert subset in validate_general_position(config)


def _incircle_triangles(config) -> frozenset:
    """Bowyer-Watson with each cavity found by ``incircle`` on ascending
    triples and its boundary by counting undirected edges: the oracle of
    the cofactor insertion step."""
    positions = config.int_positions
    tris = {triangle(*config.boundary)}
    for index in config.interior:
        p = positions[index]
        cavity = [t for t in tris
                  if incircle(*(positions[i] for i in t), p) > 0]
        edges = collections.Counter(e for a, b, c in cavity
                                    for e in ((a, b), (a, c), (b, c)))
        tris.difference_update(cavity)
        tris.update(triangle(*e, index) for e, k in edges.items() if k == 1)
    return frozenset(tris)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 9), st.booleans())
def test_cofactor_step_against_the_incircle_scan(seed, n, cocircular):
    """``delaunay_circles`` keeps each triangle counterclockwise with the
    ``_cofactors`` of its points (alpha < 0), gives the triangle set of the
    ``incircle`` scan, which the exhaustive check accepts in general
    position, and ``build_delaunay`` reports the degenerate subset that
    the local check reports on the scan's set."""
    rng = random.Random(seed)
    config = random_configuration(rng, n)
    if cocircular:
        config = _with_rectangle(rng, config)
        if config is None:
            return
    positions = config.int_positions
    circles = delaunay_circles(positions, config.boundary, config.interior)
    for tri, circle in circles.items():
        points = [positions[i] for i in tri]
        assert orient2d(*points) == 1
        assert circle == _cofactors(*points) and circle[0] < 0
    tris = frozenset(triangle(*tri) for tri in circles)
    assert tris == _incircle_triangles(config)
    verdict = _verdict(exhaustive_delaunay_check, tris, config)
    event(verdict[0])
    assert verdict[0] != "rejected"
    assert cocircular or verdict[0] == "accepted"
    assert _verdict(lambda _, c: build_delaunay(c), None, config) == (
        _verdict(verify_delaunay, tris, config))


@pytest.mark.parametrize("boundary", [(1, 2, 3), (2, 1, 3), (3, 2, 1)])
def test_a_clockwise_boundary_is_stored_counterclockwise(boundary):
    """The boundary triangle may be given in either orientation; the step
    starts from it counterclockwise, with its cofactors."""
    positions = {1: (-50, -30), 2: (50, -30), 3: (0, 60), 4: (3, 1)}
    circles = delaunay_circles(positions, boundary, [4])
    assert len(circles) == 3
    for tri, circle in circles.items():
        points = [positions[i] for i in tri]
        assert orient2d(*points) == 1 and circle == _cofactors(*points)


def test_a_collinear_fan_triangle_raises_degenerate_circle_error():
    """A fan triangle collinear with the new point raises
    ``DegenerateCircleError``, as ``incircle`` does on its points.  The
    star-shaped cavity of a Delaunay triangulation makes none, so a stand-in
    circle that holds every point puts (1, 2, 3) in the cavity of point 4,
    which lies on the line of its edge (1, 2)."""
    positions = {1: (0, 0), 2: (4, 0), 3: (0, 4), 4: (8, 0)}
    with pytest.raises(DegenerateCircleError):
        incircle(positions[1], positions[2], positions[4], positions[3])
    with pytest.raises(DegenerateCircleError, match=r"\(1, 2, 4\)"):
        insert_point({(1, 2, 3): (0, 0, 0, 1)}, positions, 4)
