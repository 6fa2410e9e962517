"""Matrix models of centralisers of nilpotent elements.

From a partition we realise the nilpotent e in Jordan form together
with an sl2 triple (e, h, f), enumerate the standard basis xi[i,j,s] of
the centraliser g_e (the map sending w_i to e^s.w_j and the other block
generators to zero), build the trace-dual basis of g_f, and read the
structure constants off matrix commutators once, into integer rows over
one denominator (``StructureTable``); on gl they are integers.  A
symplectic variant equips the space with an invariant skew form and cuts
the centraliser down to its sigma-fixed part.

Every matrix is sparse, a ``{(row, col): value}`` dict without zeros.
The trace pairing of the xi basis with g_f is read from the entries'
positions and solved by one sparse elimination (``linalg.sparse_rref``);
on gl its Gram matrix is a scaled permutation, so this costs one step per
basis element.  The skew form J is a signed permutation, so
sigma(x) = J x^T J relabels entries with signs, and a bracket in the
sigma-fixed part is re-expanded from its pivot coordinates alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .linalg import sparse_inverse, sparse_rref
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
    """Bracket data of a Lie algebra with basis xi_1..xi_r.

    ``rows[a][b] = ((c, S * [xi_a, xi_b]_c), ...)`` for every ordered pair,
    with c increasing: integer numerators over the one denominator
    ``S > 0``, the least common denominator of the constants, so
    gcd(S, numerators) = 1.  The rows are antisymmetric, and rows[a][a] and
    zero brackets are empty.  Every bracket computation reads them.
    """

    rows: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    S: int

    def _fill_rows(self, brackets) -> None:
        """Set ``rows`` and ``S`` from the pairs ((a, b), {c: value}), a < b,
        values int or Fraction; empty brackets may be left out."""
        brackets = [(a, b, sorted(w.items())) for (a, b), w in brackets if w]
        self.S = S = lcm(*(v.denominator for _, _, w in brackets for _, v in w))
        r = self.dim
        rows = [[()] * r for _ in range(r)]
        for a, b, w in brackets:
            row = rows[a][b] = tuple([(c, v.numerator * (S // v.denominator)) for c, v in w])
            rows[b][a] = tuple([(c, -x) for c, x in row])
        self.rows = tuple(map(tuple, rows))


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
        self._coord_at = {rc: a for a, rc in enumerate(self.read_at)}

        self.gf_dual = trace_dual(self.matrices, [real.gf_matrix(idx) for idx in self.xi])

        mats = self.matrices
        self._fill_rows(((a, b), self.coords_of(_sparse_commutator(mats[a], mats[b])))
                        for a in range(len(mats)) for b in range(a + 1, len(mats)))

    # -- basics ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.xi)

    @property
    def rank(self) -> int:
        """Index of g_e: n for gl_n."""
        return self.partition.n

    def coords_of(self, mat: dict) -> dict:
        """Nonzero coefficients {a: c} of a centraliser element in the xi
        basis, read from the entries at ``read_at``."""
        at = self._coord_at
        return {at[key]: v for key, v in mat.items() if key in at}

    def matrix_from_coords(self, coords: dict) -> dict:
        """The matrix of the element with xi coordinates ``{a: c}``."""
        return _combination((c, self.matrices[a]) for a, c in coords.items())

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "basis": self.labels,
            "h_weights": self.h_weights,
            "rho_weights": self.rho_weights,
            "structure": [
                [a, b, c, str(Fraction(x, self.S))]
                for a, row in enumerate(self.rows)
                for b in range(a + 1, len(row))
                for c, x in row[b]
            ],
            "e": self._matrix_json(self.realization.e),
            "h": self._matrix_json(self.realization.h),
            "f": self._matrix_json(self.realization.f),
            "gf_dual": [self._matrix_json(m) for m in self.gf_dual],
        }

    def _matrix_json(self, m: dict) -> list[list[str]]:
        n = self.partition.n
        return [[str(m.get((i, j), 0)) for j in range(n)] for i in range(n)]


def build_gl_model(p: Partition) -> CentralizerModel:
    return CentralizerModel(p)


class SubalgebraModel(StructureTable):
    """A Lie subalgebra presented by coordinates inside an ambient model.

    Exposes the same bracket interface as CentralizerModel so stabiliser
    and index computations run unchanged on the symplectic centraliser.
    The basis is given by sparse ambient coordinate rows ``{column: value}``
    without zeros.  A bracket is re-expanded in this basis from its
    ambient coordinates at the pivot columns of ``coord_rows`` only.
    """

    def __init__(self, ambient: CentralizerModel, coord_rows: list[dict], rank: int):
        self.coords = coord_rows
        self.dim = len(coord_rows)
        self.rank = rank
        self.labels = [f"u[{t + 1}]" for t in range(self.dim)]
        self.var_names = tuple(f"u{t + 1}" for t in range(self.dim))
        self.matrices = [ambient.matrix_from_coords(row) for row in coord_rows]
        # row-reduced rows stay ad(h) homogeneous: coordinates of distinct
        # weights have disjoint support, so eliminations never mix them
        weights = [{ambient.h_weights[c] for c in row} for row in coord_rows]
        self.h_weights = ([w.pop() for w in weights] if all(len(w) == 1 for w in weights)
                          else None)
        self.rho_weights = None

        # pivot columns make re-expansion in this basis a square solve:
        # w = (C^-1)^T v for C[t][k] = coord_rows[t][pivots[k]]
        pivots = [min(row) for row in sparse_rref(coord_rows)]
        if len(pivots) != self.dim:
            raise ValueError("subalgebra coordinate rows are dependent")
        solve = sparse_inverse([{k: row[c] for k, c in enumerate(pivots) if c in row}
                                for row in coord_rows])
        read = [ambient.read_at[c] for c in pivots]

        def bracket(a: int, b: int) -> dict:
            com = _sparse_commutator(self.matrices[a], self.matrices[b])
            return _combination((com[key], solve[k]) for k, key in enumerate(read) if key in com)

        self._fill_rows(((a, b), bracket(a, b))
                        for a in range(self.dim) for b in range(a + 1, self.dim))

    def restrict_dual(self, ambient_coords) -> list[Fraction]:
        """Restrict a functional on the ambient algebra to this subalgebra."""
        return [sum(v * ambient_coords[c] for c, v in row.items()) for row in self.coords]


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


_HALF = Fraction(1, 2)


class SymplecticModel:
    """Skew form, involution and sigma-fixed centraliser for sp_{2n}.

    The form is (e^s.w_i, e^t.w_{i'}) = (-1)^t eps_i delta_{s+t, d_i}
    with eps chosen so the Gram matrix J is skew; then J^2 = -Id, the
    whole sl2 triple is symplectic and sigma(x) = J x^T J fixes exactly
    the symplectic elements.  J has one entry per row, so with J^2 = -Id
    it is a signed permutation and sigma relabels entries with signs.
    """

    def __init__(self, p: Partition):
        check_valid_for(p, ClassicalType.SP)
        if p.n % 2:
            raise InvalidPartitionError("symplectic partition must have even size")
        self.partition = p
        self.gl = build_gl_model(p)
        real = self.gl.realization
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
        for a, mat in enumerate(self.gl.matrices):
            sig = self.gl.coords_of(self.sigma(mat))
            fixed_rows.append(_combination(((_HALF, {a: 1}), (_HALF, sig))))
            odd_rows.append(_combination(((_HALF, {a: 1}), (-_HALF, sig))))
        self.sigma_fixed_basis = sparse_rref(fixed_rows)
        self.odd_part_basis = sparse_rref(odd_rows)
        expected = dim_centralizer_so_sp(p, ClassicalType.SP)
        if len(self.sigma_fixed_basis) != expected:
            raise ArithmeticError(
                f"fixed space has dim {len(self.sigma_fixed_basis)}, expected {expected}")

        self.fixed = SubalgebraModel(self.gl, self.sigma_fixed_basis, rank=p.n // 2)

        # trace-dual basis of g_f cap sp for the symplectic slice; the
        # elimination pivots on (row, col) keys in row-major order
        gf_mats = sparse_rref(_combination(((_HALF, mat), (_HALF, self.sigma(mat))))
                              for mat in map(real.gf_matrix, self.gl.xi))
        if len(gf_mats) != expected:
            raise ArithmeticError("g_f fixed space has unexpected dimension")
        self.gf_dual = trace_dual(self.fixed.matrices, gf_mats)

    def sigma(self, mat: dict) -> dict:
        """J mat^T J: the entry (i, j) moves to (a, b) with J[a, j] and
        J[i, b] its only nonzeros in column j and row i."""
        out = {}
        for (i, j), v in mat.items():
            a, sa = self._col_of[j]
            b, sb = self._row_of[i]
            out[(a, b)] = sa * sb * v
        return out

    @property
    def dim(self) -> int:
        return self.fixed.dim


def build_sp_model(p: Partition) -> SymplecticModel:
    return SymplecticModel(p)
