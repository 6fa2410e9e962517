"""Matrix models of centralisers of nilpotent elements.

From a partition we realise the nilpotent e in Jordan form together
with an sl2 triple (e, h, f), enumerate the standard basis xi[i,j,s] of
the centraliser g_e (the map sending w_i to e^s.w_j and the other block
generators to zero).  The trace-dual basis of g_f and the integer table
of structure constants (``StructureTable``), read off matrix commutators,
are built on first read, so a certificate that never reads them never
builds them; a constant that is not an integer is refused.  The sp model
equips the space with an invariant skew form, and its centraliser is the
sigma-fixed part of the gl one: a ``StructureTable`` of its own over the
sigma-fixed basis.

Every matrix is sparse, a ``{(row, col): value}`` dict without zeros.
The trace pairing of the xi basis with g_f is read from the entries'
positions and solved by one sparse elimination (``linalg.sparse_rref``);
on gl its Gram matrix is a scaled permutation, so this costs one step per
basis element.  The skew form J is a signed permutation, so
sigma(x) = J x^T J relabels entries with signs.  The sigma-fixed basis is
the reduced echelon form that ``sparse_rref`` returns for the rows
x + sigma(x), so a bracket there is read off at the pivot positions alone,
the same way as on gl.  The one check left at build time is ad(h)
homogeneity: a basis row of two ad(h) weights is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd

from .linalg import _subtract, sparse_inverse, sparse_rref
from .partitions import (
    ClassicalType,
    Partition,
    check_valid_for,
    dim_centralizer_so_sp,
    pairing_map,
)


@dataclass(frozen=True, order=True)
class XiIndex:
    """Basis label: block i maps into block j with shift s."""

    i: int
    j: int
    s: int

    def label(self) -> str:
        return f"xi[{self.i},{self.j},{self.s}]"


def xi_shift_range(p: Partition, i: int, j: int) -> range:
    d = p.d
    return range(max(d[j - 1] - d[i - 1], 0), d[j - 1] + 1)


def enumerate_xi(p: Partition) -> list[XiIndex]:
    """Canonical basis order: lexicographic in (i, j, s)."""
    out = []
    for i in range(1, p.k + 1):
        for j in range(1, p.k + 1):
            for s in xi_shift_range(p, i, j):
                out.append(XiIndex(i, j, s))
    return out


class JordanRealization:
    """Jordan-form nilpotent with its sl2 triple on the basis e^j.w_i."""

    def __init__(self, p: Partition):
        self.partition = p
        self.n = p.n
        self.basis_labels: list[tuple[int, int]] = []
        for i, di in enumerate(p.d, start=1):
            for j in range(di + 1):
                self.basis_labels.append((i, j))
        self.pos = {lab: t for t, lab in enumerate(self.basis_labels)}
        d = p.d
        self.e: dict[tuple[int, int], int] = {}
        self.h: dict[tuple[int, int], int] = {}
        self.f: dict[tuple[int, int], int] = {}
        for (i, j), col in self.pos.items():
            di = d[i - 1]
            if j < di:
                self.e[(self.pos[(i, j + 1)], col)] = 1
            if 2 * j != di:
                self.h[(col, col)] = 2 * j - di
            if j > 0:
                self.f[(self.pos[(i, j - 1)], col)] = j * (di - j + 1)

    def xi_matrix(self, idx: XiIndex) -> dict[tuple[int, int], int]:
        """Matrix of xi[i,j,s]: e^m.w_i -> e^(s+m).w_j."""
        d = self.partition.d
        pos = self.pos
        top = min(d[idx.i - 1], d[idx.j - 1] - idx.s)
        return {(pos[(idx.j, idx.s + t)], pos[(idx.i, t)]): 1 for t in range(top + 1)}

    def gf_matrix(self, idx: XiIndex) -> dict[tuple[int, int], Fraction]:
        """Matrix of the analogous g_f element built on f and e^{d_i}.w_i.

        It sends f^m.(e^{d_i}.w_i) to f^(s+m).(e^{d_j}.w_j); powers of f
        on the reversed chain carry the coefficients m! d! / (d-m)!.
        """
        d = self.partition.d

        def chain_coeff(block: int, m: int) -> int:
            db = d[block - 1]
            return factorial(m) * factorial(db) // factorial(db - m)

        di, dj = d[idx.i - 1], d[idx.j - 1]
        return {
            (self.pos[(idx.j, dj - idx.s - m)], self.pos[(idx.i, di - m)]):
                Fraction(chain_coeff(idx.j, idx.s + m), chain_coeff(idx.i, m))
            for m in range(min(di, dj - idx.s) + 1)
        }


def _accumulate(out: dict, key, value) -> None:
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _combination(terms) -> dict:
    """Sum of c * m over the pairs (c, m), m a sparse vector or matrix."""
    out: dict = {}
    for c, m in terms:
        for key, v in m.items():
            _accumulate(out, key, c * v)
    return out


def _sparse_product(a: dict, b: dict, sign: int = 1, out: dict | None = None) -> dict:
    """out + sign * (a @ b) for matrices given as {(row, col): value} dicts."""
    b_rows: dict[int, list] = {}
    for (k, j), v in b.items():
        b_rows.setdefault(k, []).append((j, v))
    out = {} if out is None else out
    for (i, k), va in a.items():
        for j, vb in b_rows.get(k, ()):
            _accumulate(out, (i, j), sign * va * vb)
    return out


def _sparse_commutator(a: dict, b: dict) -> dict:
    """[a, b] for matrices given as {(row, col): value} dicts."""
    return _sparse_product(b, a, -1, _sparse_product(a, b))


class StructureTable:
    """Bracket data of a Lie algebra with basis xi_1..xi_r, the sparse
    ``matrices``; xi_c has entry 1 at the position ``read_at[c]`` and 0 at
    every other ``read_at`` position, so an element's coordinate c is its
    entry there (``coords_of``).

    ``rows[a][b] = ((c, [xi_a, xi_b]_c), ...)`` for every ordered pair,
    with c increasing and every constant an integer.  The rows are
    antisymmetric, and rows[a][a] and zero brackets are empty.  Every
    bracket computation reads them; they are formed on first read.
    """

    def coords_of(self, mat: dict) -> dict:
        """Nonzero coefficients {c: x} of an element of the algebra in this
        basis, read from the entries at ``read_at``."""
        at = self._coord_at
        return {at[key]: v for key, v in mat.items() if key in at}

    @cached_property
    def _coord_at(self) -> dict[tuple[int, int], int]:
        return {rc: c for c, rc in enumerate(self.read_at)}

    @cached_property
    def rows(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """The table from the commutators of ``matrices``; ArithmeticError
        when a structure constant is not an integer."""
        mats, r = self.matrices, self.dim
        rows = [[()] * r for _ in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                w = self.coords_of(_sparse_commutator(mats[a], mats[b]))
                if not w:
                    continue
                if any(v.denominator != 1 for v in w.values()):
                    raise ArithmeticError(f"[{self.labels[a]}, {self.labels[b]}] "
                                          "has a structure constant that is not an integer")
                row = rows[a][b] = tuple([(c, w[c].numerator) for c in sorted(w)])
                rows[b][a] = tuple([(c, -x) for c, x in row])
        return tuple(map(tuple, rows))

    @cached_property
    def lie_generators(self) -> tuple[int, ...]:
        """Increasing coordinates a whose xi_a generate the algebra as a
        Lie algebra, chosen greedily in coordinate order.

        xi_a is kept when it is not in the span of the subalgebra generated
        so far.  That span is closed incrementally on integer vectors: each
        new vector is reduced once against echelon rows keyed by their
        least column, and bracketed once with each earlier vector through
        ``rows``.
        """
        rows, dim = self.rows, self.dim
        echelon: dict[int, dict] = {}
        span: list[dict] = []
        gens: list[int] = []

        def add(v: dict) -> bool:
            while v:
                c = min(v)
                if c not in echelon:
                    g = gcd(*v.values())
                    echelon[c] = {k: x // g for k, x in v.items()}
                    span.append(echelon[c])
                    return True
                row = echelon[c]
                v, q = {k: row[c] * x for k, x in v.items()}, v[c]
                _subtract(v, q, row)
            return False

        for a in range(dim):
            if len(span) < dim and add({a: 1}):
                gens.append(a)
                i = len(span) - 1
                while i < len(span) < dim:
                    for u in span[:i]:
                        br: dict[int, int] = {}
                        for b, x in span[i].items():
                            for c, y in u.items():
                                for k, z in rows[b][c]:
                                    br[k] = br.get(k, 0) + x * y * z
                        add({k: z for k, z in br.items() if z})
                    i += 1
        return tuple(gens)


def trace_dual(left: list[dict], right: list[dict]) -> list[dict]:
    """Combinations of ``right`` with tr(left[a] @ dual[b]) = delta_ab.

    The Gram matrix tr(left[a] @ right[c]) is read through an index of the
    entries of ``right`` by transposed position and inverted by one sparse
    elimination.  On gl it is a scaled permutation, so both steps are
    linear in the dimension.
    """
    at: dict[tuple[int, int], list] = {}
    for c, B in enumerate(right):
        for (i, j), v in B.items():
            at.setdefault((j, i), []).append((c, v))
    gram = []
    for A in left:
        row: dict[int, Fraction] = {}
        for key, x in A.items():
            for c, y in at.get(key, ()):
                _accumulate(row, c, x * y)
        gram.append(row)
    columns: list[list] = [[] for _ in left]
    for c, row in enumerate(sparse_inverse(gram)):
        for a, x in row.items():
            columns[a].append((x, right[c]))
    return [_combination(col) for col in columns]


class CentralizerModel(StructureTable):
    """The centraliser of e in gl_n with exact structure data.

    Structure constants come from actual matrix commutators re-read in
    the xi basis; coordinates x1..xr on the dual space match the basis
    order, and the g_f basis is trace-dual to the xi basis.
    """

    def __init__(self, p: Partition):
        self.partition = p
        self.realization = real = JordanRealization(p)
        self.xi = enumerate_xi(p)
        self.labels = [idx.label() for idx in self.xi]
        self.index = {idx: a for a, idx in enumerate(self.xi)}
        self.matrices = [real.xi_matrix(idx) for idx in self.xi]
        d = p.d
        self.h_weights = [d[x.i - 1] - d[x.j - 1] + 2 * x.s for x in self.xi]
        self.rho_weights = [x.j - x.i for x in self.xi]
        self.var_names = tuple(f"x{a + 1}" for a in range(len(self.xi)))
        # the coefficient on xi[i,j,s] is the entry sending w_i to e^s.w_j
        self.read_at = [(real.pos[(idx.j, idx.s)], real.pos[(idx.i, 0)]) for idx in self.xi]

    @cached_property
    def gf_dual(self) -> list[dict]:
        """The basis of g_f trace-dual to the xi basis."""
        real = self.realization
        return trace_dual(self.matrices, [real.gf_matrix(idx) for idx in self.xi])

    # -- basics ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.xi)

    @property
    def rank(self) -> int:
        """Index of g_e: n for gl_n."""
        return self.partition.n

    def matrix_from_coords(self, coords: dict) -> dict:
        """The matrix of the element with xi coordinates ``{a: c}``."""
        return _combination((c, self.matrices[a]) for a, c in coords.items())


def build_gl_model(p: Partition) -> CentralizerModel:
    return CentralizerModel(p)


def check_symplectic_form(J: dict, real: JordanRealization) -> None:
    """Raise ArithmeticError unless J is skew, J^2 = -Id and e, h, f are
    symplectic: x^T J + J x = 0, that is J x symmetric, J being skew."""
    if any(J.get((j, i), 0) != -v for (i, j), v in J.items()):
        raise ArithmeticError("the form is not skew")
    if _sparse_product(J, J) != {(i, i): -1 for i in range(real.n)}:
        raise ArithmeticError("the form does not square to -Id")
    for name in ("e", "h", "f"):
        Jx = _sparse_product(J, getattr(real, name))
        if any(Jx.get((j, i), 0) != v for (i, j), v in Jx.items()):
            raise ArithmeticError(f"{name} is not symplectic for the form")


class SymplecticModel(StructureTable):
    """The centraliser of e in sp_{2n}: the sigma-fixed part of the gl
    centraliser ``gl``, with the skew form J and the involution sigma.

    The form is (e^s.w_i, e^t.w_{i'}) = (-1)^t eps_i delta_{s+t, d_i}
    with eps chosen so the Gram matrix J is skew; then J^2 = -Id, the
    whole sl2 triple is symplectic and sigma(x) = J x^T J fixes exactly
    the symplectic elements.  J has one entry per row, so with J^2 = -Id
    it is a signed permutation and sigma relabels entries with signs.

    The basis u[1..r] is ``sigma_fixed_basis``, rows ``{column: value}`` of
    gl coordinates as ``sparse_rref`` returns them: row t is 1 at its pivot
    column, its least one, and 0 at every other pivot column, so ``read_at``
    holds the gl positions of the pivots.  sigma fixes h, so each row should
    have one ad(h) weight; ValueError otherwise.  ``odd_part_span`` keeps
    the rows xi_a - sigma(xi_a), one per gl coordinate: they span the
    sigma-odd part, which is all a check that a functional kills it needs.
    """

    def __init__(self, p: Partition):
        check_valid_for(p, ClassicalType.SP)
        self.partition = p
        self.gl = gl = build_gl_model(p)
        real = gl.realization
        d = p.d

        self.pairing = pairing_map(p, ClassicalType.SP)
        J: dict[tuple[int, int], int] = {}
        for (i, s), col in real.pos.items():
            ip = self.pairing[i]
            t = d[i - 1] - s
            if 0 <= t <= d[ip - 1]:
                J[(col, real.pos[(ip, t)])] = (-1) ** t * (1 if i <= ip else -1)
        check_symplectic_form(J, real)
        self.J = J
        self._row_of = {i: (j, v) for (i, j), v in J.items()}
        self._col_of = {j: (i, v) for (i, j), v in J.items()}

        fixed_rows, odd_rows = [], []
        for a, mat in enumerate(gl.matrices):
            sig = gl.coords_of(self.sigma(mat))
            fixed_rows.append(_combination(((1, {a: 1}), (1, sig))))
            odd_rows.append(_combination(((1, {a: 1}), (-1, sig))))
        self.sigma_fixed_basis = basis = sparse_rref(fixed_rows)
        self.odd_part_span = odd_rows
        expected = dim_centralizer_so_sp(p, ClassicalType.SP)
        if len(basis) != expected:
            raise ArithmeticError(f"fixed space has dim {len(basis)}, expected {expected}")

        self.dim = len(basis)
        self.rank = p.n // 2
        self.labels = [f"u[{t + 1}]" for t in range(self.dim)]
        self.var_names = tuple(f"u{t + 1}" for t in range(self.dim))
        self.matrices = [gl.matrix_from_coords(row) for row in basis]
        self.read_at = [gl.read_at[min(row)] for row in basis]
        self.h_weights = [gl.h_weights[min(row)] for row in basis]
        if any(gl.h_weights[c] != w for row, w in zip(basis, self.h_weights) for c in row):
            raise ValueError("a sigma-fixed basis row is not ad(h) homogeneous")
        self.rho_weights = None

    @cached_property
    def gf_dual(self) -> list[dict]:
        """Trace-dual basis of g_f cap sp for the symplectic slice;
        ArithmeticError unless g_f cap sp has the dimension of the fixed
        part.  The elimination pivots on (row, col) keys in row-major order."""
        gf_mats = sparse_rref(_combination(((1, mat), (1, self.sigma(mat))))
                              for mat in map(self.gl.realization.gf_matrix, self.gl.xi))
        if len(gf_mats) != self.dim:
            raise ArithmeticError("g_f fixed space has unexpected dimension")
        return trace_dual(self.matrices, gf_mats)

    def restrict_dual(self, nums) -> tuple[int, ...]:
        """Restrict a functional on the gl centraliser, the integer
        coordinates ``nums``, to this one; ArithmeticError unless every
        restricted coordinate is an integer."""
        out = []
        for row in self.sigma_fixed_basis:
            value = sum(v * nums[c] for c, v in row.items())
            if value.denominator != 1:
                raise ArithmeticError(f"restricted coordinate {value} is not an integer")
            out.append(int(value))
        return tuple(out)

    def sigma(self, mat: dict) -> dict:
        """J mat^T J: the entry (i, j) moves to (a, b) with J[a, j] and
        J[i, b] its only nonzeros in column j and row i."""
        out = {}
        for (i, j), v in mat.items():
            a, sa = self._col_of[j]
            b, sb = self._row_of[i]
            out[(a, b)] = sa * sb * v
        return out


def build_sp_model(p: Partition) -> SymplecticModel:
    return SymplecticModel(p)
