"""Matrix models of centralisers of nilpotent elements.

From a partition we realise the nilpotent e in Jordan form together
with an sl2 triple (e, h, f), enumerate the standard basis xi[i,j,s] of
the centraliser g_e (the map sending w_i to e^s.w_j and the other block
generators to zero), build the trace-dual basis of g_f, and extract
exact structure constants from matrix commutators.  A symplectic
variant equips the space with an invariant skew form and cuts the
centraliser down to its sigma-fixed part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .linalg import RatMatrix
from .partitions import (
    ClassicalType,
    InvalidPartitionError,
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
        n = self.n
        e = [[Fraction(0)] * n for _ in range(n)]
        h = [[Fraction(0)] * n for _ in range(n)]
        f = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), col in self.pos.items():
            di = d[i - 1]
            if j < di:
                e[self.pos[(i, j + 1)]][col] = Fraction(1)
            h[col][col] = Fraction(2 * j - di)
            if j > 0:
                f[self.pos[(i, j - 1)]][col] = Fraction(j * (di - j + 1))
        self.e = RatMatrix(e)
        self.h = RatMatrix(h)
        self.f = RatMatrix(f)

    def xi_matrix(self, idx: XiIndex) -> RatMatrix:
        """Matrix of xi[i,j,s]: e^m.w_i -> e^(s+m).w_j."""
        d = self.partition.d
        n = self.n
        m = [[Fraction(0)] * n for _ in range(n)]
        for t in range(d[idx.i - 1] + 1):
            if idx.s + t <= d[idx.j - 1]:
                m[self.pos[(idx.j, idx.s + t)]][self.pos[(idx.i, t)]] = Fraction(1)
        return RatMatrix(m)

    def gf_matrix(self, idx: XiIndex) -> RatMatrix:
        """Matrix of the analogous g_f element built on f and e^{d_i}.w_i.

        It sends f^m.(e^{d_i}.w_i) to f^(s+m).(e^{d_j}.w_j); powers of f
        on the reversed chain carry the coefficients m! d! / (d-m)!.
        """
        d = self.partition.d
        n = self.n

        def chain_coeff(block: int, m: int) -> int:
            db = d[block - 1]
            return factorial(m) * factorial(db) // factorial(db - m)

        mat = [[Fraction(0)] * n for _ in range(n)]
        di, dj = d[idx.i - 1], d[idx.j - 1]
        for m in range(di + 1):
            if idx.s + m > dj:
                continue
            src = self.pos[(idx.i, di - m)]
            dst = self.pos[(idx.j, dj - idx.s - m)]
            mat[dst][src] = Fraction(chain_coeff(idx.j, idx.s + m), chain_coeff(idx.i, m))
        return RatMatrix(mat)


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return a @ b - b @ a


def _sparse_commutator(a: dict, b: dict) -> dict:
    """[a, b] for matrices given as {(row, col): value} dicts."""
    b_rows: dict[int, list] = {}
    a_rows: dict[int, list] = {}
    for (i, j), v in b.items():
        b_rows.setdefault(i, []).append((j, v))
    for (i, j), v in a.items():
        a_rows.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], Fraction] = {}
    for (i, k), va in a.items():
        for j, vb in b_rows.get(k, ()):
            key = (i, j)
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    for (i, k), vb in b.items():
        for j, va in a_rows.get(k, ()):
            key = (i, j)
            s = out.get(key, 0) - vb * va
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class StructureTable:
    """Bracket data of a Lie algebra with basis xi_1..xi_r.

    ``structure`` maps basis pairs a < b to the nonzero coordinates
    ((c, [xi_a, xi_b]_c), ...).  Every computation reads the one derived
    view ``integer_rows()``; ``structure`` itself stays the exact
    ``Fraction`` record that the JSON dump and the reference brackets use.
    """

    structure: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
    _int_rows = None

    def integer_rows(self) -> tuple[tuple, int]:
        """(rows, S) with rows[a][b] = ((c, S * [xi_a, xi_b]_c), ...) for every
        ordered pair, antisymmetry applied (rows[a][a] and zero brackets are
        empty), and S > 0 the least common denominator of the constants.
        Built on first use and cached on the model."""
        if self._int_rows is None:
            S = lcm(*(v.denominator for entries in self.structure.values() for _, v in entries))
            r = len(self.var_names)
            rows = [[()] * r for _ in range(r)]
            for (a, b), entries in self.structure.items():
                rows[a][b] = tuple((c, int(v * S)) for c, v in entries)
                rows[b][a] = tuple((c, -x) for c, x in rows[a][b])
            self._int_rows = (tuple(map(tuple, rows)), S)
        return self._int_rows


def _trace_product(a: RatMatrix, b: RatMatrix) -> Fraction:
    total = Fraction(0)
    for i, row in enumerate(a.rows):
        for j, x in enumerate(row):
            if x:
                y = b.rows[j][i]
                if y:
                    total += x * y
    return total


def trace_dual(left: list[RatMatrix], right: list[RatMatrix]) -> list[RatMatrix]:
    """Combinations of ``right`` with tr(left[a] @ dual[b]) = delta_ab."""
    gram = RatMatrix([[_trace_product(A, B) for B in right] for A in left])
    ginv = gram.inverse()
    n = right[0].nrows
    duals = []
    for a in range(len(left)):
        acc = RatMatrix.zeros(n, n)
        for c, B in enumerate(right):
            coeff = ginv.rows[c][a]
            if coeff:
                acc = acc + B.scale(coeff)
        duals.append(acc)
    return duals


class CentralizerModel(StructureTable):
    """The centraliser of e in gl_n with exact structure data.

    Structure constants come from actual matrix commutators re-read in
    the xi basis; coordinates x1..xr on the dual space match the basis
    order, and the g_f basis is trace-dual to the xi basis.
    """

    def __init__(self, p: Partition):
        self.partition = p
        self.realization = JordanRealization(p)
        self.xi = enumerate_xi(p)
        self.labels = [idx.label() for idx in self.xi]
        self.index = {idx: a for a, idx in enumerate(self.xi)}
        self.matrices = [self.realization.xi_matrix(idx) for idx in self.xi]
        d = p.d
        self.h_weights = [d[x.i - 1] - d[x.j - 1] + 2 * x.s for x in self.xi]
        self.rho_weights = [x.j - x.i for x in self.xi]
        self.var_names = tuple(f"x{a + 1}" for a in range(len(self.xi)))

        naive_gf = [self.realization.gf_matrix(idx) for idx in self.xi]
        self.gf_dual = trace_dual(self.matrices, naive_gf)

        self.structure: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        r = len(self.xi)
        sparse = []
        for mat in self.matrices:
            entries = {}
            for i, row in enumerate(mat.rows):
                for j, v in enumerate(row):
                    if v:
                        entries[(i, j)] = v
            sparse.append(entries)
        pos = self.realization.pos
        read_at = [(pos[(idx.j, idx.s)], pos[(idx.i, 0)]) for idx in self.xi]
        for a in range(r):
            for b in range(a + 1, r):
                com = _sparse_commutator(sparse[a], sparse[b])
                if not com:
                    continue
                entries = tuple(
                    (c, com[rc]) for c, rc in enumerate(read_at) if rc in com and com[rc]
                )
                if entries:
                    self.structure[(a, b)] = entries

    # -- basics ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.xi)

    @property
    def rank(self) -> int:
        """Index of g_e: n for gl_n."""
        return self.partition.n

    @property
    def algebra(self) -> str:
        return "gl"

    def coords_of(self, mat: RatMatrix) -> list[Fraction]:
        """Coefficients of a centraliser element in the xi basis.

        The coefficient on xi[i,j,s] is the matrix entry sending w_i to
        e^s.w_j, read directly from column w_i.
        """
        pos = self.realization.pos
        return [
            mat.rows[pos[(idx.j, idx.s)]][pos[(idx.i, 0)]]
            for idx in self.xi
        ]

    def matrix_from_coords(self, coords) -> RatMatrix:
        acc = RatMatrix.zeros(self.partition.n, self.partition.n)
        for a, c in enumerate(coords):
            if c:
                acc = acc + self.matrices[a].scale(c)
        return acc

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "basis": self.labels,
            "h_weights": self.h_weights,
            "rho_weights": self.rho_weights,
            "structure": [
                [a, b, c, str(v)]
                for (a, b), entries in sorted(self.structure.items())
                for c, v in entries
            ],
            "e": _matrix_json(self.realization.e),
            "h": _matrix_json(self.realization.h),
            "f": _matrix_json(self.realization.f),
            "gf_dual": [_matrix_json(m) for m in self.gf_dual],
        }


def _matrix_json(m: RatMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.rows]


def build_gl_model(p: Partition) -> CentralizerModel:
    return CentralizerModel(p)


def closed_form_bracket(p: Partition, a: XiIndex, b: XiIndex) -> dict[XiIndex, int]:
    """Bracket of two basis elements by delta contraction.

    [xi_i^{j,s}, xi_p^{q,u}] = delta_{i,q} xi_p^{j,u+s} - delta_{j,p} xi_i^{q,u+s},
    where a factor whose shift exceeds the top admissible value for its
    upper block is zero.  A shift below the lower admissible bound never
    arises from valid operands; it is reported loudly if it ever does.
    """
    d = p.d
    out: dict[XiIndex, int] = {}

    def emit(low: int, up: int, shift: int, sign: int) -> None:
        if shift > d[up - 1]:
            return
        if shift < max(d[up - 1] - d[low - 1], 0):
            raise ArithmeticError(
                f"bracket produced under-range shift {shift} for xi[{low},{up},.]")
        idx = XiIndex(low, up, shift)
        out[idx] = out.get(idx, 0) + sign
        if not out[idx]:
            del out[idx]

    if a.i == b.j:
        emit(b.i, a.j, b.s + a.s, +1)
    if a.j == b.i:
        emit(a.i, b.j, b.s + a.s, -1)
    return out


class SubalgebraModel(StructureTable):
    """A Lie subalgebra presented by coordinates inside an ambient model.

    Exposes the same bracket interface as CentralizerModel so stabiliser
    and index computations run unchanged on the symplectic centraliser.
    """

    def __init__(self, ambient: CentralizerModel, coord_rows: list[list[Fraction]],
                 rank: int, algebra: str, var_prefix: str = "u"):
        self.ambient = ambient
        self.coords = RatMatrix(coord_rows)
        self.dim = len(coord_rows)
        self.rank = rank
        self.algebra = algebra
        self.labels = [f"{var_prefix}[{t + 1}]" for t in range(self.dim)]
        self.var_names = tuple(f"{var_prefix}{t + 1}" for t in range(self.dim))
        self.matrices = [ambient.matrix_from_coords(row) for row in coord_rows]
        # row-reduced rows stay ad(h) homogeneous: coordinates of distinct
        # weights have disjoint support, so eliminations never mix them
        weights = []
        for row in coord_rows:
            seen = {ambient.h_weights[c] for c, v in enumerate(row) if v}
            if len(seen) != 1:
                weights = None
                break
            weights.append(seen.pop())
        self.h_weights = weights
        self.rho_weights = None

        # pivot columns make re-expansion in this basis a square solve
        _, pivots = self.coords.rref()
        if len(pivots) != self.dim:
            raise ValueError("subalgebra coordinate rows are dependent")
        self._pivots = pivots
        pivot_cols = RatMatrix([[row[c] for c in pivots] for row in coord_rows])
        self._pivot_inv = pivot_cols.transpose().inverse()

        self.structure: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                mat = commutator(self.matrices[a], self.matrices[b])
                vec = ambient.coords_of(mat)
                w = self._pivot_inv.apply([vec[c] for c in pivots])
                entries = tuple((c, v) for c, v in enumerate(w) if v)
                if entries:
                    self.structure[(a, b)] = entries

    def restrict_dual(self, ambient_coords) -> list[Fraction]:
        """Restrict a functional on the ambient algebra to this subalgebra."""
        return [
            sum(c * g for c, g in zip(row, ambient_coords) if c)
            for row in self.coords.rows
        ]


class SymplecticModel:
    """Skew form, involution and sigma-fixed centraliser for sp_{2n}.

    The form is (e^s.w_i, e^t.w_{i'}) = (-1)^t eps_i delta_{s+t, d_i}
    with eps chosen so the Gram matrix J is skew; then J^2 = -Id, the
    whole sl2 triple is symplectic and sigma(x) = J x^T J fixes exactly
    the symplectic elements.
    """

    def __init__(self, p: Partition):
        check_valid_for(p, ClassicalType.SP)
        if p.n % 2:
            raise InvalidPartitionError("symplectic partition must have even size")
        self.partition = p
        self.gl = build_gl_model(p)
        real = self.gl.realization
        n = p.n
        d = p.d

        self.pairing = pairing_map(p, ClassicalType.SP)
        eps: dict[int, int] = {}
        for i in range(1, p.k + 1):
            ip = self.pairing[i]
            if ip == i:
                eps[i] = 1
            elif i < ip:
                eps[i] = 1
            else:
                eps[i] = -1
        self.epsilon = eps

        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, s), col in real.pos.items():
            ip = self.pairing[i]
            di = d[i - 1]
            t = di - s
            if 0 <= t <= d[ip - 1]:
                rows[col][real.pos[(ip, t)]] = Fraction((-1) ** t * eps[i])
        self.J = RatMatrix(rows)
        assert (self.J + self.J.transpose()).is_zero(), "form must be skew"
        assert (self.J @ self.J + RatMatrix.identity(n)).is_zero()
        assert (real.e.transpose() @ self.J + self.J @ real.e).is_zero()
        assert (real.f.transpose() @ self.J + self.J @ real.f).is_zero()
        assert (real.h.transpose() @ self.J + self.J @ real.h).is_zero()

        self.pairing_constants = {
            i: self.J.rows[real.pos[(i, d[i - 1])]][real.pos[(self.pairing[i], 0)]]
            for i in range(1, p.k + 1)
        }

        fixed_rows, odd_rows = [], []
        for a, mat in enumerate(self.gl.matrices):
            sig = self.sigma(mat)
            fixed_rows.append(self.gl.coords_of(_half(mat + sig)))
            odd_rows.append(self.gl.coords_of(_half(mat - sig)))
        self.sigma_fixed_basis = _independent_rows(fixed_rows)
        self.odd_part_basis = _independent_rows(odd_rows)
        expected = dim_centralizer_so_sp(p, ClassicalType.SP)
        if len(self.sigma_fixed_basis) != expected:
            raise ArithmeticError(
                f"fixed space has dim {len(self.sigma_fixed_basis)}, expected {expected}")

        self.fixed = SubalgebraModel(
            self.gl, self.sigma_fixed_basis, rank=p.n // 2, algebra="sp")

        # trace-dual basis of g_f cap sp for the symplectic slice
        naive_gf = [self.gl.realization.gf_matrix(idx) for idx in self.gl.xi]
        gf_fixed_flat = []
        for mat in naive_gf:
            sym = _half(mat + self.sigma(mat))
            gf_fixed_flat.append([x for row in sym.rows for x in row])
        gf_mats = [
            RatMatrix([row[t * n:(t + 1) * n] for t in range(n)])
            for row in _independent_rows(gf_fixed_flat)
        ]
        if len(gf_mats) != expected:
            raise ArithmeticError("g_f fixed space has unexpected dimension")
        self.gf_dual = trace_dual(self.fixed.matrices, gf_mats)

    def sigma(self, mat: RatMatrix) -> RatMatrix:
        return self.J @ mat.transpose() @ self.J

    @property
    def dim(self) -> int:
        return self.fixed.dim


def _half(mat: RatMatrix) -> RatMatrix:
    return mat.scale(Fraction(1, 2))


def _independent_rows(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row-reduce and keep the nonzero rows (a canonical spanning basis)."""
    R, pivots = RatMatrix(rows).rref()
    return [R.rows[t] for t in range(len(pivots))]


def build_sp_model(p: Partition) -> SymplecticModel:
    return SymplecticModel(p)
