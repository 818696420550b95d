"""Exact linear algebra over the rationals.

A matrix is held as integer numerators over one positive common
denominator.  It is put in lowest terms, where the denominator and the
numerators share no factor, only once that denominator reaches 2^64
(``_REDUCE_AT``), so one value has many representations: ``==`` compares
the numerators when the two denominators are equal and the lowest-terms
forms otherwise, and ``hash`` hashes the lowest-terms form.  ``mat_mul``
multiplies the numerators as plain ints, skipping zero entries, and keeps
the product of the two denominators, so products of the mostly-zero flip
and letter matrices stay cheap and nothing is ever rounded; a matrix lists
its nonzero entries once, the first time it is a right operand, and keeps
the list.  ``char_poly`` works on the integers too: it reduces the matrix
to Hessenberg form H = R^-1 N C^-1, an integer matrix N with one positive
integer scale per row (R) and per column (C), and with T = diag(r_m c_m)
returns det(xT - N) / det T.  Entries are read out as reduced
``fractions.Fraction`` values; ``to_json_dict`` writes them as strings
straight from the integers, so every reader gives the same output for
every representation.  Matrices are immutable; all operations return new
values and are safe to share between threads (the list of nonzero entries
is derived from the numerators, so two threads that fill it at once store
equal values).
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


def require_rational(where: str, **fields) -> None:
    """``TypeError``, as from ``as_rational``, naming ``where`` and the
    field, unless every value of ``fields`` is an int or a Fraction: the
    check of a constructor that does not coerce, such as
    ``LabeledPoint(...)``."""
    for name, value in fields.items():
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{where} {name} is not an exact rational:"
                            f" {value!r}")


def clear_denominators(values) -> tuple:
    """(ints, scale): the rationals ``values`` (ints or Fractions) times
    ``scale``, their least common denominator, which keeps every sign and
    ratio; for reduced values ``scale`` and ``ints`` share no factor."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class DimensionError(ValueError):
    """Matrix dimensions do not admit the requested operation."""


_EMPTY = "matrix must have at least one row and column"


def grid_width(rows) -> int:
    """The common length of the sequences ``rows``; ``DimensionError``
    unless they are the rows of a matrix with a row and a column."""
    if not rows or not rows[0]:
        raise DimensionError(_EMPTY)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DimensionError("ragged rows")
    return width


class SingularMatrixError(ValueError):
    """Inverse requested for a singular matrix."""


# A gcd over every entry costs more than it saves while the integers fit in
# a few machine words.  The two sides of a relation are products of the same
# letters, so they share a denominator and compare without one, and the
# braid letters' flip-row denominators stay below 2^56 at n <= 8.  Past this
# bound a matrix, or a row of ``flips.sequence_product``, is put in lowest
# terms, so a long product's integers cannot grow without bound.
_REDUCE_AT = 1 << 64


def _lowest_terms(num, den) -> tuple:
    """(num, den), integer rows over a positive denominator, divided by
    their gcd: the lowest-terms form of the matrix."""
    g = math.gcd(den, *chain.from_iterable(num))
    if g == 1:
        return num, den
    return tuple(tuple([x // g for x in row]) for row in num), den // g


class Matrix:
    """Immutable dense rational matrix, row-major: the integer numerators
    ``_num`` over the positive common denominator ``_den``, put in lowest
    terms once ``_den`` reaches ``_REDUCE_AT``; two representations of one
    value are equal and hash alike.  ``_nonzero`` is None until ``mat_mul``
    first takes the matrix as its right operand, then the (j, numerator)
    pairs of each row's nonzero entries; it is derived from ``_num``, so
    ``==`` and ``hash`` ignore it."""

    __slots__ = ("rows", "cols", "_num", "_den", "_nonzero")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(as_rational(e) for e in row) for row in entries)
        width = grid_width(grid)
        num, self._den = clear_denominators(chain.from_iterable(grid))
        self.rows = len(grid)
        self.cols = width
        self._num = tuple(tuple(num[i:i + width])
                          for i in range(0, len(num), width))
        self._nonzero = None

    @staticmethod
    def _from_ints(num, den: int) -> "Matrix":
        """The matrix ``num / den`` for integer rows ``num`` and a positive
        integer ``den``, kept as given below ``_REDUCE_AT`` and put in
        lowest terms from it on."""
        if not num:
            raise DimensionError(_EMPTY)
        m = Matrix.__new__(Matrix)
        m.rows = len(num)
        m.cols = len(num[0])
        num = tuple(map(tuple, num))
        if den >= _REDUCE_AT:
            num, den = _lowest_terms(num, den)
        m._num = num
        m._den = den
        m._nonzero = None
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
        if not isinstance(other, Matrix):
            return False
        if self._den == other._den:
            return self._num == other._num
        return (_lowest_terms(self._num, self._den)
                == _lowest_terms(other._num, other._den))

    def __hash__(self) -> int:
        return hash(_lowest_terms(self._num, self._den))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in row)
            for row in self.entries())
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def is_identity(self) -> bool:
        """True when the numerators are ``_den`` times the identity."""
        den = self._den
        return self.rows == self.cols and all(
            x == (den if i == j else 0) for i, row in enumerate(self._num)
            for j, x in enumerate(row))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError(f"trace of {self.rows}x{self.cols} matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._num)),
                        self._den)

    def column_sums(self) -> list:
        return [Fraction(sum(col), self._den) for col in zip(*self._num)]

    def columns_sum_to_one(self) -> bool:
        """True when every column sums to 1: each numerator column sums to
        ``_den``."""
        den = self._den
        return all(sum(col) == den for col in zip(*self._num))

    def to_json_dict(self) -> dict:
        """Rows, columns and each entry as its reduced 'p/q' (or 'p')
        string, as ``str(Fraction)`` writes it, from one gcd per entry."""
        den = self._den
        entries = []
        for row in self._num:
            texts = []
            for x in row:
                g = math.gcd(x, den)
                texts.append(str(x // g) if g == den
                             else f"{x // g}/{den // g}")
            entries.append(texts)
        return {"rows": self.rows, "cols": self.cols, "entries": entries}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product on the integer numerators, skipping zeros.

    Row i of the numerator product is the sum of a[i, k] * b.row(k) over
    the nonzero a[i, k], and only the nonzero entries of each b.row(k) are
    visited.  Those entries are listed once per matrix and kept in its
    ``_nonzero`` slot, so a matrix that is the right operand again, such
    as a cached letter, does not list them again.  The denominator of the
    product is the product of the two, and the product is put in lowest
    terms only when that reaches ``_REDUCE_AT``.
    """
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_nonzero = b._nonzero
    if b_nonzero is None:
        b_nonzero = b._nonzero = tuple(
            [(j, y) for j, y in enumerate(row) if y] for row in b._num)
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

    Hessenberg method (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9), O(n^3), in integer arithmetic.  A similarity by
    elementary row and column operations brings ``a`` to upper Hessenberg
    form H, carried as H = R^-1 N C^-1: an integer matrix N and positive
    integer scales R = diag(r_i) and C = diag(c_j), from N = ``a._num``,
    r_i = ``a._den``, c_j = 1.  Subtracting u times row m from row i
    rewrites row i of N and r_i; the matching column operation, adding u
    times column i to column m, rewrites column m of N and c_m; each is
    then divided by its gcd.  With T = diag(r_m c_m), H is similar to
    N T^-1, so the characteristic polynomial is det(xT - N) / det T.  The
    leading minors q_m of xT - N satisfy the division-free recurrence
    q_{m+1} = (x t_m - n_mm) q_m - sum_{i=1..m} (n_{m,m-1} ... n_{m-i+1,m-i})
    n_{m-i,m} q_{m-i} on integer polynomials, and only the n + 1 final
    coefficients become Fractions.  For an n x n matrix returns
    [1, c_{n-1}, ..., c_0] with trace(a) == -c_{n-1}.
    """
    if a.rows != a.cols:
        raise DimensionError(f"char_poly of {a.rows}x{a.cols} matrix")
    n = a.rows
    num = [list(row) for row in a._num]
    r = [a._den] * n
    c = [1] * n
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if num[i][m - 1]), None)
        if pivot is None:
            continue  # column m-1 is already reduced
        if pivot != m:
            num[m], num[pivot] = num[pivot], num[m]
            r[m], r[pivot] = r[pivot], r[m]
            for row in num:
                row[m], row[pivot] = row[pivot], row[m]
            c[m], c[pivot] = c[pivot], c[m]
        p = num[m][m - 1]
        sign = 1 if p > 0 else -1
        row_m = num[m]
        for i in range(m + 1, n):
            q = num[i][m - 1]
            if not q:
                continue
            # u = h_{i,m-1} / h_{m,m-1} = (q r_m) / (p r_i)
            u_num, u_den = sign * q * r[m], sign * p * r[i]
            g = math.gcd(u_num, u_den)
            u_num, u_den = u_num // g, u_den // g
            # row i -= u row m: h_ij - u h_mj = (p n_ij - q n_mj) / (p r_i c_j)
            new_row = [sign * (p * x - q * y) for x, y in zip(num[i], row_m)]
            r_i = r[i] * sign * p
            g = math.gcd(r_i, *new_row)
            num[i] = [x // g for x in new_row]
            r[i] = r_i // g
            # column m += u column i: h_km + u h_ki
            #   = (u_den c_i n_km + u_num c_m n_ki) / (r_k c_m u_den c_i)
            s, t = u_den * c[i], u_num * c[m]
            new_col = [s * row[m] + t * row[i] for row in num]
            c_m = c[m] * s
            g = math.gcd(c_m, *new_col)
            for row, x in zip(num, new_col):
                row[m] = x // g
            c[m] = c_m // g
    polys = [[1]]  # q_0, q_1, ..., lowest degree first
    for m in range(n):
        p = [0] + [r[m] * c[m] * x for x in polys[m]]
        for k, x in enumerate(polys[m]):
            p[k] -= num[m][m] * x
        t = 1
        for i in range(1, m + 1):
            t *= num[m - i + 1][m - i]
            if not t:
                break  # a zero subdiagonal splits H into blocks
            coef = t * num[m - i][m]
            for k, x in enumerate(polys[m - i]):
                p[k] -= coef * x
        polys.append(p)
    det_t = polys[n][-1]  # the leading coefficient of det(xT - N)
    return [Fraction(x, det_t) for x in reversed(polys[n])]
