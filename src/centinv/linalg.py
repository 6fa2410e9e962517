"""Dense exact linear algebra over the rationals.

Matrices carry ``fractions.Fraction`` entries.  Rank and determinant come
from one fraction-free (Bareiss) elimination kernel on integer rows, run
after each row is cleared of its denominators; kernels and inverses go
through a rational reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``den * x`` and ``den``, the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [int(x * den) for x in values], den


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of an integer matrix; the rows are consumed.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): each column
    pivots on the first remaining row with a nonzero entry there, and every
    division is exact.  The determinant is 0 unless the matrix is square
    and of full rank.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    sign = 1
    col = 0
    while rank < nr and col < nc:
        piv = None
        for i in range(rank, nr):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        pv = rows[rank][col]
        for i in range(rank + 1, nr):
            f = rows[i][col]
            ri, rp = rows[i], rows[rank]
            for j in range(col, nc):
                ri[j] = (ri[j] * pv - f * rp[j]) // prev
        prev = pv
        rank += 1
        col += 1
    return rank, sign * prev if rank == nr == nc else 0


class RatMatrix:
    """A rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[_to_fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    def copy_rows(self) -> list[list[Fraction]]:
        return [row[:] for row in self.rows]

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "RatMatrix":
        c = _to_fraction(c)
        return RatMatrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ot = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append(
                [sum(a * b for a, b in zip(row, col) if a) for col in ot]
            )
        return RatMatrix(out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([list(col) for col in zip(*self.rows)]) if self.rows else self

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        return [sum(a * v for a, v in zip(row, vec) if a) for row in self.rows]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    # -- eliminations --------------------------------------------------

    def rank(self) -> int:
        """Exact rank; scaling a row to integers does not change it."""
        return bareiss([clear_denominators(row)[0] for row in self.rows])[0]

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form and pivot column list."""
        m = self.copy_rows()
        nr, nc = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for col in range(nc):
            piv = None
            for i in range(r, nr):
                if m[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            pv = m[r][col]
            m[r] = [x / pv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][col]:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
            if r == nr:
                break
        return RatMatrix(m), pivots

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right kernel; rank + len(kernel) == ncols."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for j in free:
            v = [Fraction(0)] * self.ncols
            v[j] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][j]
            basis.append(v)
        return basis

    def det(self) -> Fraction:
        """Determinant of the cleared rows, divided by their denominators."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = []
        scale = 1
        for row in self.rows:
            ints, den = clear_denominators(row)
            rows.append(ints)
            scale *= den
        return Fraction(bareiss(rows)[1], scale)

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = RatMatrix([row + ident for row, ident in
                         zip(self.copy_rows(), RatMatrix.identity(n).rows)])
        R, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix([row[n:] for row in R.rows])
