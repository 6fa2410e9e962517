"""Exact linear algebra over the integers and the rationals.

A dense matrix (``RatMatrix``) holds integer rows and runs no check on
them: each builder makes its entries integers (``regularity.Functional``
refuses a non-integer point, ``StructureTable.rows`` a non-integer
structure constant, and ``nullcone._component_dets`` takes integer
rows).  Ranks and determinants come from two fraction-free elimination
kernels on them.
``bareiss`` (Sylvester's identity for minors) gives determinants and the
rank of every matrix that is not marked skew.  ``pfaffian_rank`` gives the rank of a
skew-symmetric one, the bracket form B(gamma): it pivots on two rows at
a time and reads one triangle, and its entries are Pfaffians of
principal submatrices, with about half the bits of the Bareiss minors at
the same depth; every division is exact by the Pfaffian form of
Sylvester's identity.  Row spaces and inverses go through one sparse
reduced row echelon form on rows given as ``{column: value}`` dicts,
which combines only nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


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


def pfaffian_rank(rows: list[list[int]]) -> int:
    """Rank of a skew-symmetric integer matrix, read from its upper triangle.

    Fraction-free Pfaffian elimination: the first remaining row p that
    has a nonzero entry pivots on its first one, a = A_pq (a leading
    all-zero row is dropped), rows and columns p and q leave, and every
    remaining entry becomes (a A_ij - A_pi A_qj + A_pj A_qi) / prev, with
    prev the previous pivot.  The entries stay Pfaffians of principal
    submatrices, so every division is exact by the Pfaffian form of
    Sylvester's identity (Knuth, "Overlapping Pfaffians", 1996).  The
    rank is twice the number of pivots.  The rows are not changed.
    """
    tri = [row[i + 1:] for i, row in enumerate(rows)]
    pivots = 0
    prev = 1
    while tri:
        u = tri.pop(0)
        for q, a in enumerate(u):
            if a:
                break
        else:
            continue
        # u_i = A_pi and v_i = A_qi, i over the indices left once p and q go
        del u[q]
        v = [-tri[i].pop(q - i - 1) for i in range(q)] + tri.pop(q)
        tri = [[(a * x - ui * vj + uj * vi) // prev
                for x, uj, vj in zip(row, u[i + 1:], v[i + 1:])] if ui or vi
               else [a * x // prev for x in row]
               for i, (row, ui, vi) in enumerate(zip(tri, u, v))]
        prev = a
        pivots += 1
    return 2 * pivots


def sparse_rref(rows: Iterable[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows ``{column: value}``.

    Returns the nonzero rows sorted by pivot, each with pivot entry 1 and
    zeros in every other row's pivot column; this is the unique reduced
    form of the row space.  Rows are inserted one at a time: a new row is
    reduced by the stored rows at its pivot columns, its least column
    becomes its pivot, and that column is cleared from every stored row
    that holds it, found by one scan of them.  Only nonzero entries are
    combined, so a monomial matrix costs one step per row.
    """
    basis: dict[int, dict] = {}
    for row in rows:
        v = {c: x for c, x in row.items() if x}
        for q in [c for c in v if c in basis]:
            _subtract(v, v[q], basis[q])
        if not v:
            continue
        p = min(v)
        if v[p] != 1:
            inv = 1 / Fraction(v[p])
            v = {c: x * inv for c, x in v.items()}
        for stored in basis.values():
            if p in stored:
                _subtract(stored, stored[p], v)
        basis[p] = v
    return [basis[p] for p in sorted(basis)]


def _subtract(target: dict, factor, row: dict) -> None:
    """target -= factor * row, dropping zeros."""
    for c, x in row.items():
        y = target.get(c, 0) - factor * x
        if y:
            target[c] = y
        else:
            del target[c]


def sparse_inverse(rows: list[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Rows of the inverse of a square sparse matrix given by its rows.

    One ``sparse_rref`` of [A | I]; raises ValueError if A is singular.
    """
    n = len(rows)
    reduced = sparse_rref({**row, n + r: 1} for r, row in enumerate(rows))
    if [min(row) for row in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{c - n: x for c, x in row.items() if c >= n} for row in reduced]


class RatMatrix:
    """A rows x cols matrix of the integer ``rows``, of equal length,
    stored as given: no copy, and no type or shape check (the builders
    make every entry an int; see the module docstring).  ``skew=True``
    makes a skew-symmetric matrix (``regularity.bracket_form_matrix``),
    whose ``rank`` is ``pfaffian_rank`` on the upper triangle; every other
    rank and every determinant runs ``bareiss``.  Skewness is not tested.
    """

    __slots__ = ("rows", "nrows", "ncols", "skew")

    def __init__(self, rows: list[list[int]], skew: bool = False):
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.skew = skew

    def rank(self) -> int:
        """Exact rank, that of the integer rows; the rows are not changed."""
        if self.skew:
            return pfaffian_rank(self.rows)
        return bareiss([row[:] for row in self.rows])[0]

    def det(self) -> int:
        """Determinant of the integer rows."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return bareiss([row[:] for row in self.rows])[1]
