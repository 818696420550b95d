import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbraid.linalg import (DimensionError, Matrix, SingularMatrixError,
                              char_poly, mat_inverse, mat_mul)

A = Matrix([[Fraction(1, 2), Fraction(-1, 2)],
            [Fraction(1, 2), Fraction(3, 2)]])
B = Matrix([[Fraction(3, 2), Fraction(1, 2)],
            [Fraction(-1, 2), Fraction(1, 2)]])


def random_matrix(rng, rows, cols):
    return Matrix([[Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                    for _ in range(cols)] for _ in range(rows)])


def test_identity_product():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_mul(Matrix.identity(3), m) == m
    assert mat_mul(m, Matrix.identity(3)) == m


def test_two_by_two_product_is_identity():
    # the mutually inverse 2x2 flip blocks
    assert mat_mul(A, B).is_identity()
    assert (A * B).is_identity()


def test_product_dimension_mismatch():
    with pytest.raises(DimensionError) as err:
        mat_mul(Matrix.identity(3), Matrix.identity(4))
    assert "3x3" in str(err.value) and "4x4" in str(err.value)


ENTRY = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-20, max_value=20,
                               max_denominator=9))


@st.composite
def sparse_matrix(draw, rows, cols):
    """Mostly-zero matrix, some of its rows and columns zeroed outright."""
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return Matrix([[Fraction(0) if i in zero_rows or j in zero_cols
                    else draw(ENTRY) for j in range(cols)]
                   for i in range(rows)])


@st.composite
def sparse_factors(draw):
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))
    return (draw(sparse_matrix(rows, inner)),
            draw(sparse_matrix(inner, cols)))


def naive_product(a, b) -> Matrix:
    return Matrix([[sum((a[i, k] * b[k, j] for k in range(a.cols)),
                        Fraction(0)) for j in range(b.cols)]
                   for i in range(a.rows)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_factors())
def test_product_matches_triple_loop(factors):
    a, b = factors
    product = mat_mul(a, b)
    assert product == naive_product(a, b)
    assert all(type(e) is Fraction for row in product.entries() for e in row)


def test_product_non_square_mismatch():
    with pytest.raises(DimensionError, match="2x3 by 2x3"):
        mat_mul(Matrix([[0] * 3] * 2), Matrix([[0] * 3] * 2))


def test_inverse_identity():
    for k in (1, 2, 5):
        assert mat_inverse(Matrix.identity(k)) == Matrix.identity(k)


def test_inverse_flip_block():
    assert mat_inverse(B) == A


def test_inverse_singular():
    with pytest.raises(SingularMatrixError, match="singular"):
        mat_inverse(Matrix([[1, 2], [2, 4]]))


def test_inverse_non_square():
    with pytest.raises(DimensionError):
        mat_inverse(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_flip_block():
    assert char_poly(B) == [1, -2, 1]


def test_charpoly_identity_11():
    from math import comb
    coeffs = char_poly(Matrix.identity(11))
    assert coeffs == [Fraction((-1) ** k * comb(11, k)) for k in range(12)]
    assert -coeffs[1] == Matrix.identity(11).trace() == 11


def poly_eval_matrix(coeffs, m: Matrix) -> Matrix:
    """Horner evaluation of a polynomial (highest degree first) at a
    square matrix."""
    k = m.rows
    acc = Matrix([[0] * k] * k)
    for c in coeffs:
        acc = Matrix([[e + (c if i == j else 0) for j, e in enumerate(row)]
                      for i, row in enumerate(mat_mul(acc, m).entries())])
    return acc


def test_cayley_hamilton_random():
    """Ten random 4 x 4 matrices, then dense ones of every size up to
    9 x 9 with denominators up to 10: each is a root of its monic
    characteristic polynomial, whose coefficients are Fractions."""
    rng = random.Random(12)
    mats = [random_matrix(rng, 4, 4) for _ in range(10)]
    mats += [Matrix([[Fraction(rng.randint(-30, 30), rng.randint(1, 10))
                      for _ in range(k)] for _ in range(k)])
             for k in range(1, 10)]
    for m in mats:
        coeffs = char_poly(m)
        assert len(coeffs) == m.rows + 1 and coeffs[0] == 1
        assert all(type(c) is Fraction for c in coeffs)
        assert poly_eval_matrix(coeffs, m) == Matrix([[0] * m.rows] * m.rows)


def cofactor_det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * rows[0][j]
                * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j in range(len(rows)) if rows[0][j]), Fraction(0))


def structured_matrix(rng, k):
    """A random k x k matrix, some of it zeroed so that the Hessenberg
    reduction meets zero pivots (a row swap) and zero columns below the
    subdiagonal (a split into blocks)."""
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             if rng.random() < 0.6 else Fraction(0) for _ in range(k)]
            for _ in range(k)]
    for col in rng.sample(range(k), k // 2):
        for i in range(col + 1, k):
            if rng.random() < 0.7:
                rows[i][col] = Fraction(0)
    return rows


def test_char_poly_matches_cofactor_determinant():
    """char_poly(A)(x) == det(x I - A) at several rational x."""
    rng = random.Random(2024)
    swaps = splits = 0
    for trial in range(60):
        k = rng.randint(1, 6)
        rows = structured_matrix(rng, k)
        # the first column is reduced before anything else changes it
        below = [row[0] for row in rows[1:]]
        swaps += len(below) > 1 and below[0] == 0 and any(below)
        splits += len(below) > 1 and not any(below)
        coeffs = char_poly(Matrix(rows))
        assert len(coeffs) == k + 1 and coeffs[0] == 1
        for x in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5)):
            value = sum((c * x ** (k - d) for d, c in enumerate(coeffs)),
                        Fraction(0))
            shifted = [[(x if i == j else 0) - e for j, e in enumerate(row)]
                       for i, row in enumerate(rows)]
            assert value == cofactor_det(shifted)
    assert swaps and splits


def test_associativity_random():
    rng = random.Random(99)
    for _ in range(6):
        k = rng.randint(2, 12)
        a = random_matrix(rng, k, k)
        b = random_matrix(rng, k, k)
        c = random_matrix(rng, k, k)
        assert (a * b) * c == a * (b * c)


def test_double_inverse_random():
    rng = random.Random(5)
    done = 0
    while done < 8:
        m = random_matrix(rng, 5, 5)
        try:
            inv = mat_inverse(m)
        except SingularMatrixError:
            continue
        assert (m * inv).is_identity() and (inv * m).is_identity()
        assert mat_inverse(inv) == m
        done += 1


def test_exactness_addition_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        b = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        assert (a + b) - b == a


@st.composite
def rational_grid(draw):
    """A small grid of Fractions with zeros, negative entries and, often,
    a zero row."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    return grid


def rewritten(grid, scale):
    """The same rationals as unreduced 'p/q' strings and plain ints."""
    return [[int(e) if e.denominator == 1 else
             f"{e.numerator * scale}/{e.denominator * scale}" for e in row]
            for row in grid]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_grid(), rational_grid(), st.booleans(), st.integers(1, 6),
       st.fractions(min_value=-5, max_value=5, max_denominator=7)
       .filter(bool))
def test_representation_is_canonical(g1, g2, same, scale, s):
    """Equal rational grids give equal matrices with equal hashes, however
    the entries are written or reached, and only equal grids do."""
    if same:
        g2 = rewritten(g1, scale)
    m1, m2 = Matrix(g1), Matrix(g2)
    grid2 = [[Fraction(e) for e in row] for row in g2]
    assert (m1 == m2) == (g1 == grid2)
    if m1 == m2:
        assert hash(m1) == hash(m2)
    assert Matrix(m1.entries()) == m1
    assert [list(row) for row in m1.entries()] == g1
    assert all(type(e) is Fraction for row in m1.entries() for e in row)
    # scaling by s then 1/s multiplies and divides the denominator
    k = m1.cols
    scaled = Matrix([[s if i == j else 0 for j in range(k)]
                     for i in range(k)])
    unscaled = Matrix([[1 / s if i == j else 0 for j in range(k)]
                       for i in range(k)])
    round_trip = (m1 * scaled) * unscaled
    assert round_trip == m1 and hash(round_trip) == hash(m1)
    assert str(round_trip) == str(m1)


def test_matrix_rejects_inexact_and_malformed_entries():
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        Matrix([[1, 0.5]])
    with pytest.raises(DimensionError, match="at least one row"):
        Matrix([[]])
    with pytest.raises(DimensionError, match="ragged rows"):
        Matrix([[1], [1, 2]])


@pytest.mark.parametrize("n", [0, -1])
def test_identity_of_no_rows_is_a_dimension_error(n):
    with pytest.raises(DimensionError,
                       match="matrix must have at least one row and column"):
        Matrix.identity(n)


def test_json_integer_rendering():
    assert Matrix([[1]]).to_json_dict()["entries"] == [["1"]]
