import random
from fractions import Fraction

import pytest

from conftest import validate_general_position
from flipbraid.geometry import (Configuration, DegenerateCircleError,
                                LabeledPoint, incircle, orient2d)

O = (Fraction(0), Fraction(0))
E1 = (Fraction(1), Fraction(0))
E2 = (Fraction(0), Fraction(1))


def frac_point(rng):
    return (Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)))


def test_orient2d_examples():
    assert orient2d(O, E1, E2) == 1
    assert orient2d(O, (Fraction(1), Fraction(1)),
                    (Fraction(2), Fraction(2))) == 0
    assert orient2d(O, E2, E1) == -1


def test_orient2d_antisymmetry():
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = frac_point(rng), frac_point(rng), frac_point(rng)
        assert orient2d(a, b, c) == -orient2d(a, c, b)


def test_incircle_examples():
    d_on = (Fraction(1), Fraction(1))
    d_in = (Fraction(1, 4), Fraction(1, 4))
    d_out = (Fraction(2), Fraction(2))
    assert incircle(O, E1, E2, d_on) == 0
    assert incircle(O, E1, E2, d_in) == 1
    assert incircle(O, E1, E2, d_out) == -1


def test_incircle_orientation_normalized():
    d_in = (Fraction(1, 4), Fraction(1, 4))
    # clockwise triangle ordering must give the same answer
    assert incircle(O, E2, E1, d_in) == 1


def test_incircle_collinear_error():
    with pytest.raises(DegenerateCircleError, match="degenerate"):
        incircle(O, (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)),
                 E1)


def test_cocircular_all_roles_zero():
    # four corners of the unit square lie on one circle; every role
    # assignment must report cocircularity
    square = [O, E1, (Fraction(1), Fraction(1)), E2]
    from itertools import permutations
    for a, b, c, d in permutations(square):
        if orient2d(a, b, c) == 0:
            continue
        assert incircle(a, b, c, d) == 0


def test_predicates_scale_invariant():
    rng = random.Random(4)
    for _ in range(60):
        pts = [frac_point(rng) for _ in range(4)]
        scale = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        scaled = [(x * scale, y * scale) for x, y in pts]
        assert orient2d(*pts[:3]) == orient2d(*scaled[:3])
        if orient2d(*pts[:3]) != 0:
            assert incircle(*pts) == incircle(*scaled)


def _config(interior, boundary_span=200):
    s = boundary_span
    pts = [
        LabeledPoint.make(1, -s, -s, 1),
        LabeledPoint.make(2, s, -s, 2),
        LabeledPoint.make(3, 0, s, 3),
    ]
    for k, (x, y) in enumerate(interior):
        pts.append(LabeledPoint.make(k + 4, x, y, k + 4))
    return Configuration(tuple(pts), (1, 2, 3))


def test_validate_no_interior():
    assert validate_general_position(_config([])) == []


def test_validate_canonical_n5():
    from flipbraid import canonical_setup
    assert validate_general_position(canonical_setup(5).config) == []


def test_validate_square_offends():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    offending = validate_general_position(_config(square))
    assert offending == [(4, 5, 6, 7)]


def test_validate_square_with_point_inside_circle_ok():
    # a fifth point inside the square's circumdisk voids the violation
    square = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 3))]
    assert validate_general_position(_config(square)) == []


def test_configuration_rejects_outside_point():
    with pytest.raises(ValueError, match="strictly inside"):
        _config([(1000, 1000)])


def test_configuration_rejects_duplicate_zeta():
    pts = (
        LabeledPoint.make(1, -10, -10, 1),
        LabeledPoint.make(2, 10, -10, 2),
        LabeledPoint.make(3, 0, 10, 2),
    )
    with pytest.raises(ValueError, match="distinct"):
        Configuration(pts, (1, 2, 3))


def test_configuration_rejects_coincident_points():
    pts = (
        LabeledPoint.make(1, -10, -10, 1),
        LabeledPoint.make(2, 10, -10, 2),
        LabeledPoint.make(3, 0, 10, 3),
        LabeledPoint.make(4, 0, 0, 4),
        LabeledPoint.make(5, 0, 0, 5),
    )
    with pytest.raises(ValueError, match="coincident"):
        Configuration(pts, (1, 2, 3))
