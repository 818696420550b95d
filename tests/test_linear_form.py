"""What the invariant measures.

Write N_g = M(g) - I for each generator g = b(i,j), and e_g(w) for the
exponent sum of g in a word w.  Every product N_g N_h is zero, so the
letters' matrices commute and M(w) = I + sum_g e_g(w) N_g: the invariant
is abelian and records the pairwise winding numbers.  The images of the
N_g span an n-dimensional space V inside their common kernel K, of
dimension n + 1.  These tests pin that linear form; the ``far_comm`` and
``pb_all`` families cannot see it, since any commuting letter matrices
pass them.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from flipbraid.braids import invariant, parse_word, word_from_pairs
from flipbraid.linalg import char_poly

STRANDS = (3, 4, 5, 6)


def generator_parts(n) -> dict:
    """(i, j) -> N = M(b(i,j)) - I, as rows of Fractions."""
    parts = {}
    for i, j in combinations(range(1, n + 1), 2):
        rows = invariant(parse_word(f"b({i},{j})", n)).matrix.entries()
        parts[i, j] = [[e - (r == c) for c, e in enumerate(row)]
                       for r, row in enumerate(rows)]
    return parts


def product(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def rank(rows) -> int:
    """Rank by exact Gaussian elimination."""
    rows = [list(row) for row in rows]
    done = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(done, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for r in range(done + 1, len(rows)):
            f = rows[r][col] / rows[done][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[done])]
        done += 1
    return done


@pytest.mark.parametrize("n", STRANDS)
def test_generator_parts_multiply_to_zero(n):
    parts = generator_parts(n)
    size = 2 * n + 1
    zero = [[0] * size for _ in range(size)]
    for g, n_g in parts.items():
        for h, n_h in parts.items():
            assert product(n_g, n_h) == zero, (g, h)


@pytest.mark.parametrize("n", STRANDS)
def test_generator_parts_have_rank_two(n):
    for g, n_g in generator_parts(n).items():
        assert rank(n_g) == 2, g


@pytest.mark.parametrize("n", STRANDS)
def test_images_span_n_dimensions_inside_the_common_kernel(n):
    """V, the span of the images of the N_g, has dimension n; K, their
    common kernel, has dimension n + 1; V lies in K; and the n(n-1)/2
    matrices N_g are linearly independent."""
    parts = generator_parts(n)
    size = 2 * n + 1
    images = [list(col) for n_g in parts.values() for col in zip(*n_g)]
    stacked = [row for n_g in parts.values() for row in n_g]
    assert rank(images) == n
    assert size - rank(stacked) == n + 1
    assert all(sum(x * y for x, y in zip(row, image)) == 0
               for row in stacked for image in images)
    flat = [[x for row in n_g for x in row] for n_g in parts.values()]
    assert rank(flat) == len(parts) == n * (n - 1) // 2


@pytest.mark.parametrize("n", STRANDS)
def test_word_matrix_is_linear_in_exponent_sums(n):
    parts = generator_parts(n)
    size = 2 * n + 1
    rng = random.Random(n)
    for _ in range(10):
        pairs = [(*rng.choice(list(parts)), rng.choice((1, -1)))
                 for _ in range(6)]
        expected = [[Fraction(r == c) for c in range(size)]
                    for r in range(size)]
        for i, j, power in pairs:
            expected = [[x + power * y for x, y in zip(row, part_row)]
                        for row, part_row in zip(expected, parts[i, j])]
        matrix = invariant(word_from_pairs(n, pairs)).matrix
        assert [list(row) for row in matrix.entries()] == expected, pairs


@pytest.mark.parametrize("n", STRANDS)
def test_commutator_is_in_the_kernel(n):
    """b(1,2) b(2,3) b(1,2)^-1 b(2,3)^-1 is a non-trivial pure braid, and
    its matrix is the identity."""
    word = parse_word("b(1,2) b(2,3) b(1,2)^-1 b(2,3)^-1", n)
    assert invariant(word).matrix.is_identity()


@pytest.mark.parametrize("n", range(2, 9))
def test_char_poly_is_a_power_of_x_minus_one(n):
    """N_g N_h = 0 gives (M(w) - I)^2 = 0, so char_poly(M(w)) is
    (x - 1)^(2n+1), up to the benchmark's n = 8: on the empty word, a
    repeated letter, a letter and its inverse, an inverse letter alone and
    seeded random words."""
    size = 2 * n + 1
    expected = [Fraction((-1) ** k * comb(size, k)) for k in range(size + 1)]
    gens = list(combinations(range(1, n + 1), 2))
    rng = random.Random(100 + n)
    words = [[], [(1, n)] * 3, [(1, 2, 1), (1, 2, -1)], [(1, n, -1)]]
    words += [[(*rng.choice(gens), rng.choice((1, -1)))
               for _ in range(rng.randint(2, 5))] for _ in range(4)]
    for pairs in words:
        coeffs = char_poly(invariant(word_from_pairs(n, pairs)).matrix)
        assert coeffs == expected, pairs
        assert all(type(c) is Fraction for c in coeffs)
