"""Shared helpers: random valid configurations, the exhaustive general
position and Delaunay checks and a winding-number oracle; a time limit on
every test; and the Hypothesis profile of every test."""

import signal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from flipbraid import (Configuration, DegenerateConfigurationError,
                       LabeledPoint, incircle, orient2d)

BOUNDARY = (
    (Fraction(-50), Fraction(-30)),
    (Fraction(50), Fraction(-30)),
    (Fraction(0), Fraction(60)),
)

TEST_SECONDS = 300

# A derandomized test can draw other examples in a full run than in a run
# of its own file, so a failure prints the blob that replays its example
# under ``@reproduce_failure``.  Each test's own settings are unchanged.
settings.register_profile("flipbraid", print_blob=True)
settings.load_profile("flipbraid")


class TimeLimitExceeded(BaseException):
    """A test ran past ``TEST_SECONDS``.  Not an ``Exception``, so that
    neither Hypothesis, which would shrink it, nor the command line's error
    handling takes it for a failure of the code under test."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past ``TEST_SECONDS``, from ``SIGALRM``, so
    that code which stalls fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeLimitExceeded(
            f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_configuration(rng, n) -> Configuration:
    """Rejection-sample n interior points in general position."""
    boundary_pts = [
        LabeledPoint.make(i + 1, x, y, i + 1)
        for i, (x, y) in enumerate(BOUNDARY)
    ]
    while True:
        interior = []
        for k in range(n):
            x = Fraction(rng.randint(-20 * 8, 20 * 8), 8)
            y = Fraction(rng.randint(-20 * 8, 20 * 8), 8)
            interior.append(LabeledPoint.make(k + 4, x, y, k + 4))
        try:
            config = Configuration(tuple(boundary_pts + interior), (1, 2, 3))
        except ValueError:
            continue
        if not validate_general_position(config):
            return config


def validate_general_position(config: Configuration) -> list:
    """Return the list of offending 4-subsets (empty means ok).

    A 4-subset offends when its points are cocircular and the open
    circumdisk contains no other configuration point.  Exhaustive O(m^5);
    authoritative at desk scale.
    """
    pts = config.int_positions
    offending = []
    for quad in combinations(pts, 4):
        a, b, c, d = (pts[i] for i in quad)
        if orient2d(a, b, c) == 0:
            # no circumcircle through a,b,c; try another triple of the quad
            if orient2d(a, b, d) == 0:
                continue
            c, d = d, c
        if incircle(a, b, c, d) != 0:
            continue
        empty = all(incircle(a, b, c, xy) <= 0
                    for index, xy in pts.items() if index not in quad)
        if empty:
            offending.append(tuple(sorted(quad)))
    return offending


def exhaustive_delaunay_check(triangles, config) -> None:
    """Reference for ``verify_delaunay``: every triangle against every point.

    Raises ``AssertionError`` on a wrong triangle count, a zero-area
    triangle or any point strictly inside a circumdisk; otherwise
    ``DegenerateConfigurationError`` on any point exactly on a circle.
    O(n^2) exact ``incircle`` calls on the configuration's integer map.
    """
    positions = config.int_positions
    expected = 2 * config.n + 1
    if len(triangles) != expected:
        raise AssertionError(
            f"expected {expected} triangles, got {len(triangles)}")
    degenerate = None
    for tri in sorted(triangles):
        a, b, c = (positions[i] for i in tri)
        if orient2d(a, b, c) == 0:
            raise AssertionError(f"triangle {tri} has zero area")
        for index, xy in positions.items():
            if index in tri:
                continue
            s = incircle(a, b, c, xy)
            if s > 0:
                raise AssertionError(
                    f"triangle {tri} circumdisk contains point {index}")
            if s == 0 and degenerate is None:
                degenerate = tri + (index,)
    if degenerate is not None:
        raise DegenerateConfigurationError(degenerate)


def winding_number(loop, center) -> int:
    """Signed crossings of the +x ray from center with the closed loop.

    Assumes no vertex of the loop lies exactly at the center's height,
    which holds for the loops under test.
    """
    cx, cy = center
    total = 0
    for (px, py), (qx, qy) in zip(loop, loop[1:]):
        if py == qy:
            continue
        if not (min(py, qy) < cy < max(py, qy)):
            continue
        t = (cy - py) / (qy - py)
        x_cross = px + t * (qx - px)
        if x_cross > cx:
            total += 1 if qy > py else -1
    return total
