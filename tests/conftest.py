"""Shared helpers: random valid configurations, the exhaustive general
position and Delaunay checks, a winding-number oracle and the definition
of a flip's generator name; a time limit on every test; and the Hypothesis
profile of every test."""

import signal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from flipbraid.delaunay import DegenerateConfigurationError
from flipbraid.geometry import (Configuration, LabeledPoint, incircle,
                                orient2d)

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


def dihedral_least_name(event):
    """The name from the least of the eight dihedral variants of the quad
    ijkl, with (i, k) = removed and (j, l) = inserted: the definition."""
    i, k = event.removed
    j, l = event.inserted
    variants = [(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j),
                (j, k, l, i), (j, i, l, k), (l, k, j, i), (l, i, j, k)]
    return "d({} {} {} {})".format(*min(variants))


# --- free groups and Artin's action ----------------------------------------
# A word of the free group F_n on x_1 .. x_n is a tuple of nonzero ints,
# k for x_k and -k for its inverse.

def free_reduce(word) -> tuple:
    """``word`` with every adjacent pair x x^-1 cancelled."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_inverse(word) -> tuple:
    return tuple(-letter for letter in reversed(word))


def artin_images(k: int, power: int) -> dict:
    """Artin's action of sigma_k^power on the generators it moves:
    sigma_k sends x_k to x_k x_(k+1) x_k^-1 and x_(k+1) to x_k, and its
    inverse sends x_k to x_(k+1) and x_(k+1) to x_(k+1)^-1 x_k x_(k+1)."""
    if power == 1:
        return {k: (k, k + 1, -k), k + 1: (k,)}
    return {k: (k + 1,), k + 1: (-(k + 1), k, k + 1)}


def braid_action(sigmas, n: int) -> tuple:
    """The images of x_1 .. x_n, freely reduced, under the braid whose
    sigma word is ``sigmas``, a sequence of (k, +-1) applied left to right.
    Artin's action is faithful, so two braids are equal exactly when their
    images are."""
    images = [(x,) for x in range(1, n + 1)]
    for k, power in sigmas:
        moved = artin_images(k, power)

        def substitute(letter):
            image = moved.get(abs(letter), (abs(letter),))
            return image if letter > 0 else free_inverse(image)

        images = [free_reduce([y for x in image for y in substitute(x)])
                  for image in images]
    return tuple(images)


def artin_generator(i: int, j: int, power: int) -> list:
    """Artin's pure braid generator A_ij = sigma_(j-1) ... sigma_(i+1)
    sigma_i^2 sigma_(i+1)^-1 ... sigma_(j-1)^-1, or its inverse, as a
    sigma word."""
    conjugator = [(k, 1) for k in range(j - 1, i, -1)]
    core = [(i, power)] * 2
    return conjugator + core + [(k, -p) for k, p in reversed(conjugator)]
