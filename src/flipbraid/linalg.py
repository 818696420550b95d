"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` throughout: always reduced, denominator
positive, so equality is plain structural equality and no rounding ever
occurs.  Matrices are stored densely, but ``mat_mul`` skips zero entries,
so products of the mostly-zero flip and letter matrices stay cheap.
Matrices are immutable; all operations return new values and are safe to
share between threads.
"""

from __future__ import annotations

from fractions import Fraction
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


def json_entries(items, what: str, parse) -> list:
    """``parse`` applied to each object of the JSON list ``items``; a
    malformed entry raises ``ValueError`` naming its 1-based position."""
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"expected a list of {what} entries, got {items!r}")
    out = []
    for pos, d in enumerate(items, start=1):
        try:
            if not isinstance(d, dict):
                raise ValueError(f"expected an object, got {d!r}")
            out.append(parse(d))
        except KeyError as err:
            raise ValueError(f"{what} entry {pos}: missing {err}") from None
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise ValueError(f"{what} entry {pos}: {err}") from None
    return out


class DimensionError(ValueError):
    """Matrix dimensions do not admit the requested operation."""


class SingularMatrixError(ValueError):
    """Inverse requested for a singular matrix."""


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(as_rational(e) for e in row) for row in entries)
        if not grid or not grid[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("ragged rows")
        self.rows = len(grid)
        self.cols = width
        self._entries = grid

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix([[one if i == j else zero for j in range(n)]
                       for i in range(n)])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._entries[i][j]

    def row(self, i: int) -> tuple:
        return self._entries[i]

    def entries(self) -> tuple:
        return self._entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in row)
            for row in self._entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self._entries[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError(f"trace of {self.rows}x{self.cols} matrix")
        return sum((self._entries[i][i] for i in range(self.rows)),
                   Fraction(0))

    def column_sums(self) -> list:
        return [sum((row[j] for row in self._entries), Fraction(0))
                for j in range(self.cols)]

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(e) for e in row]
                        for row in self._entries],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Matrix":
        """The matrix that ``to_json_dict`` wrote; malformed input raises
        ``ValueError``."""
        try:
            m = Matrix(data["entries"])
            shape = (data["rows"], data["cols"])
        except KeyError as err:
            raise ValueError(f"matrix: missing {err}") from None
        except (TypeError, ZeroDivisionError) as err:
            raise ValueError(f"matrix: {err}") from None
        if (m.rows, m.cols) != shape:
            raise DimensionError("declared shape does not match entries")
        return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product, skipping zero entries.

    Row i of the product is the sum of a[i, k] * b.row(k) over the nonzero
    a[i, k], and only the nonzero entries of each b.row(k) are visited.
    """
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y]
                 for row in b.entries()]
    zero = Fraction(0)
    out = []
    for row in a.entries():
        acc = [zero] * b.cols
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return Matrix(out)


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
