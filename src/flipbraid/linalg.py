"""Exact linear algebra over the rationals.

A matrix is held as integer numerators over one positive common
denominator, reduced so that the denominator and all the numerators have
no common factor.  Equal matrices therefore have equal representations,
and ``==`` and ``hash`` are structural.  ``mat_mul`` multiplies the
numerators as plain ints, skipping zero entries, and reduces once per
product, so products of the mostly-zero flip and letter matrices stay
cheap and nothing is ever rounded.  Entries are read out as reduced
``fractions.Fraction`` values.  Matrices are immutable; all operations
return new values and are safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable


def as_rational(value) -> Fraction:
    """Coerce ints / 'p/q' strings / Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class DimensionError(ValueError):
    """Matrix dimensions do not admit the requested operation."""


class SingularMatrixError(ValueError):
    """Inverse requested for a singular matrix."""


class Matrix:
    """Immutable dense rational matrix, row-major: the integer numerators
    ``_num`` over the positive common denominator ``_den``, with
    gcd(_den, *numerators) == 1."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(as_rational(e) for e in row) for row in entries)
        if not grid or not grid[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("ragged rows")
        # the lcm of reduced denominators leaves no common factor
        den = math.lcm(*(e.denominator for row in grid for e in row))
        self.rows = len(grid)
        self.cols = width
        self._num = tuple(tuple(e.numerator * (den // e.denominator)
                                for e in row) for row in grid)
        self._den = den

    @staticmethod
    def _from_ints(num, den: int) -> "Matrix":
        """The matrix ``num / den`` for integer rows ``num`` and a positive
        integer ``den``, reduced to the normal form."""
        g = math.gcd(den, *chain.from_iterable(num))
        m = Matrix.__new__(Matrix)
        m.rows = len(num)
        m.cols = len(num[0])
        if g == 1:
            m._num = tuple(map(tuple, num))
        else:
            m._num = tuple(tuple([x // g for x in row]) for row in num)
        m._den = den // g
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_ints(
            [[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def row(self, i: int) -> tuple:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num[i])

    def entries(self) -> tuple:
        return tuple(self.row(i) for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in row)
            for row in self.entries())
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def is_identity(self) -> bool:
        return (self.rows == self.cols and self._den == 1
                and all(x == (i == j) for i, row in enumerate(self._num)
                        for j, x in enumerate(row)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError(f"trace of {self.rows}x{self.cols} matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._num)),
                        self._den)

    def column_sums(self) -> list:
        return [Fraction(sum(col), self._den) for col in zip(*self._num)]

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(e) for e in row]
                        for row in self.entries()],
        }


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product on the integer numerators, skipping zeros.

    Row i of the numerator product is the sum of a[i, k] * b.row(k) over
    the nonzero a[i, k], and only the nonzero entries of each b.row(k) are
    visited.  Its denominator is the product of the two, and the result is
    reduced once.
    """
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b._num]
    out = []
    for row in a._num:
        acc = [0] * b.cols
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return Matrix._from_ints(out, a._den * b._den)


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse by exact Gauss-Jordan elimination, first-nonzero pivoting."""
    if a.rows != a.cols:
        raise DimensionError(f"inverse of {a.rows}x{a.cols} matrix")
    n = a.rows
    work = [list(a.row(i)) + [Fraction(i == j) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        prow = work[col]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], prow)]
    return Matrix([row[n:] for row in work])


def char_poly(a: Matrix) -> list:
    """Monic characteristic polynomial coefficients, highest degree first.

    Exact Hessenberg method (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9), O(n^3): a similarity by elementary row and
    column operations brings ``a`` to upper Hessenberg form H, and the
    characteristic polynomial p_m of H's leading m x m block satisfies
    p_{m+1} = (x - h_mm) p_m - sum_{i=1..m} (h_{m,m-1} ... h_{m-i+1,m-i})
    h_{m-i,m} p_{m-i}.  For an n x n matrix returns [1, c_{n-1}, ..., c_0]
    with trace(a) == -c_{n-1}.
    """
    if a.rows != a.cols:
        raise DimensionError(f"char_poly of {a.rows}x{a.cols} matrix")
    n = a.rows
    h = [list(row) for row in a.entries()]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue  # column m-1 is already reduced
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] / h[m][m - 1]
            if u:
                h[i] = [x - u * y for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    polys = [[Fraction(1)]]  # p_0, p_1, ..., lowest degree first
    for m in range(n):
        p = [Fraction(0)] + polys[m]
        for k, c in enumerate(polys[m]):
            p[k] -= h[m][m] * c
        t = Fraction(1)
        for i in range(1, m + 1):
            t *= h[m - i + 1][m - i]
            if not t:
                break  # a zero subdiagonal splits H into blocks
            coef = t * h[m - i][m]
            for k, c in enumerate(polys[m - i]):
                p[k] -= coef * c
        polys.append(p)
    return polys[n][::-1]
