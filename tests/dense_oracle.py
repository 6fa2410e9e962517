"""Dense reference constructions for the tests.

Matrices here are lists of ``Fraction`` rows, and the centraliser models
are built the plain way: dense basis matrices, a dense Gram matrix of the
trace pairing with a Gauss-Jordan inverse, dense commutators, and
sigma(x) = J x^T J as two matrix products.  The package builds the same
objects on sparse matrices; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from centinv.centralizer import JordanRealization, XiIndex, enumerate_xi
from centinv.partitions import ClassicalType, dim_centralizer_so_sp, pairing_map

# -- dense matrix algebra -----------------------------------------------------


def dense(m: dict, n: int) -> list[list[Fraction]]:
    """The n x n dense matrix of a sparse {(row, col): value} matrix."""
    return [[Fraction(m.get((i, j), 0)) for j in range(n)] for i in range(n)]


def zeros(nr: int, nc: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * nc for _ in range(nr)]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


_ZERO = Fraction(0)


def matmul(a, b):
    """a @ b, accumulated row by row; the nonzero entries of each row of a
    and of b are listed once."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [_ZERO] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def apply(a, vec):
    """a @ vec; the nonzero entries of vec are listed once."""
    nz = [(k, v) for k, v in enumerate(vec) if v]
    return [sum((row[k] * v for k, v in nz), _ZERO) for row in a]


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def commutator(a, b):
    return sub(matmul(a, b), matmul(b, a))


def rref(rows):
    """Reduced row echelon form (Gauss-Jordan) and the pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def det(a) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return d


def kernel(a):
    """Right kernel from the reduced row echelon form: one vector per free
    column, in increasing order, with 1 there and 0 at the other free columns."""
    reduced, pivots = rref(a)
    nc = len(a[0])
    basis = []
    for j in sorted(set(range(nc)) - set(pivots)):
        v = [Fraction(0)] * nc
        v[j] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[j]
        basis.append(v)
    return basis


def inverse(a):
    n = len(a)
    reduced, pivots = rref([list(row) + ident for row, ident in zip(a, identity(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def independent_rows(rows):
    reduced, pivots = rref(rows)
    return reduced[:len(pivots)]


def trace_product(a, b) -> Fraction:
    return sum((x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row) if x),
               Fraction(0))


def trace_dual(left, right):
    """Combinations of ``right`` with tr(left[a] @ dual[b]) = delta_ab."""
    ginv = inverse([[trace_product(A, B) for B in right] for A in left])
    n = len(right[0])
    duals = []
    for a in range(len(left)):
        acc = zeros(n, n)
        for c, B in enumerate(right):
            if ginv[c][a]:
                acc = add(acc, scale(B, ginv[c][a]))
        duals.append(acc)
    return duals


# -- the models, built densely ------------------------------------------------


def structure_of(model) -> dict:
    """A model's structure constants in this module's format,
    {(a, b): ((c, [xi_a, xi_b]_c), ...)} for a < b with nonzero bracket,
    read from its integer structure rows."""
    return {(a, b): tuple((c, Fraction(x)) for c, x in row[b])
            for a, row in enumerate(model.rows) for b in range(a + 1, len(row)) if row[b]}


def generated_subalgebra(model, gens) -> list[list[Fraction]]:
    """Reduced echelon rows spanning the subalgebra that the xi_g, g in
    ``gens``, generate, read from ``structure_of(model)``.

    It is the least subspace that holds the xi_g and is stable under
    ad xi_g for every g in ``gens`` (the right-normed brackets
    [xi_g1, [xi_g2, ... xi_gk]] span it), grown one vector at a time.
    """
    r = model.dim
    table = structure_of(model)
    basis: dict[int, list[Fraction]] = {}

    def ad(v, g):
        out = [Fraction(0)] * r
        for a, x in enumerate(v):
            key, sign = ((a, g), 1) if a < g else ((g, a), -1)
            for c, y in table.get(key, ()) if x else ():
                out[c] += sign * x * y
        return out

    todo = [[Fraction(int(a == g)) for a in range(r)] for g in gens]
    while todo:
        v = todo.pop()
        w = v
        for p, row in basis.items():
            if w[p]:
                w = [x - w[p] * y for x, y in zip(w, row)]
        p = next((c for c, x in enumerate(w) if x), None)
        if p is None:
            continue
        w = [x / w[p] for x in w]
        for q, row in basis.items():
            if row[p]:
                basis[q] = [x - row[p] * y for x, y in zip(row, w)]
        basis[p] = w
        todo += [ad(v, g) for g in gens]
    return [basis[p] for p in sorted(basis)]


def sparse_rows(rows) -> list[dict]:
    """The ``{column: value}`` rows of dense rows, zeros dropped."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def xi_matrix(real: JordanRealization, idx):
    d = real.partition.d
    m = zeros(real.n, real.n)
    for t in range(d[idx.i - 1] + 1):
        if idx.s + t <= d[idx.j - 1]:
            m[real.pos[(idx.j, idx.s + t)]][real.pos[(idx.i, t)]] = Fraction(1)
    return m


def gf_matrix(real: JordanRealization, idx):
    d = real.partition.d

    def chain_coeff(block: int, m: int) -> int:
        db = d[block - 1]
        return factorial(m) * factorial(db) // factorial(db - m)

    mat = zeros(real.n, real.n)
    di, dj = d[idx.i - 1], d[idx.j - 1]
    for m in range(di + 1):
        if idx.s + m > dj:
            continue
        src = real.pos[(idx.i, di - m)]
        dst = real.pos[(idx.j, dj - idx.s - m)]
        mat[dst][src] = Fraction(chain_coeff(idx.j, idx.s + m), chain_coeff(idx.i, m))
    return mat


def closed_form_bracket(p, a: XiIndex, b: XiIndex) -> dict[XiIndex, int]:
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


class DenseGlModel:
    """The gl centraliser model with dense matrices throughout."""

    def __init__(self, p):
        self.partition = p
        self.realization = real = JordanRealization(p)
        n, d = p.n, p.d
        self.e, self.h, self.f = zeros(n, n), zeros(n, n), zeros(n, n)
        for (i, j), col in real.pos.items():
            di = d[i - 1]
            if j < di:
                self.e[real.pos[(i, j + 1)]][col] = Fraction(1)
            self.h[col][col] = Fraction(2 * j - di)
            if j > 0:
                self.f[real.pos[(i, j - 1)]][col] = Fraction(j * (di - j + 1))
        self.xi = enumerate_xi(p)
        self.matrices = [xi_matrix(real, idx) for idx in self.xi]
        self.h_weights = [d[x.i - 1] - d[x.j - 1] + 2 * x.s for x in self.xi]
        self.rho_weights = [x.j - x.i for x in self.xi]
        self.gf_dual = trace_dual(self.matrices, [gf_matrix(real, idx) for idx in self.xi])
        self.structure = {}
        r = len(self.xi)
        for a in range(r):
            for b in range(a + 1, r):
                vec = self.coords_of(commutator(self.matrices[a], self.matrices[b]))
                entries = tuple((c, v) for c, v in enumerate(vec) if v)
                if entries:
                    self.structure[(a, b)] = entries

    def coords_of(self, mat) -> list[Fraction]:
        pos = self.realization.pos
        return [mat[pos[(idx.j, idx.s)]][pos[(idx.i, 0)]] for idx in self.xi]

    def matrix_from_coords(self, coords):
        n = self.partition.n
        acc = zeros(n, n)
        for a, c in enumerate(coords):
            if c:
                acc = add(acc, scale(self.matrices[a], c))
        return acc

    def to_json(self) -> dict:
        def js(m):
            return [[str(x) for x in row] for row in m]

        return {
            "partition": list(self.partition.parts),
            "basis": [idx.label() for idx in self.xi],
            "h_weights": self.h_weights,
            "rho_weights": self.rho_weights,
            "structure": [
                [a, b, c, str(v)]
                for (a, b), entries in sorted(self.structure.items())
                for c, v in entries
            ],
            "e": js(self.e),
            "h": js(self.h),
            "f": js(self.f),
            "gf_dual": [js(m) for m in self.gf_dual],
        }


def model_json(model) -> dict:
    """The JSON data of a sparse gl model (``centralizer.CentralizerModel``),
    in the layout of ``DenseGlModel.to_json``: basis, gradings, structure
    constants as rationals, and e, h, f and the g_f duals as dense matrices."""
    n = model.partition.n

    def js(m):
        return [[str(m.get((i, j), 0)) for j in range(n)] for i in range(n)]

    real = model.realization
    return {
        "partition": list(model.partition.parts),
        "basis": model.labels,
        "h_weights": model.h_weights,
        "rho_weights": model.rho_weights,
        "structure": [
            [a, b, c, str(x)]
            for a, row in enumerate(model.rows)
            for b in range(a + 1, len(row))
            for c, x in row[b]
        ],
        "e": js(real.e),
        "h": js(real.h),
        "f": js(real.f),
        "gf_dual": [js(m) for m in model.gf_dual],
    }


def subalgebra_structure(ambient: DenseGlModel, coord_rows):
    """Structure constants of the span of ``coord_rows`` by dense commutators
    and a dense inverse of the pivot block."""
    _, pivots = rref(coord_rows)
    if len(pivots) != len(coord_rows):
        raise ValueError("subalgebra coordinate rows are dependent")
    pivot_inv = inverse(transpose([[row[c] for c in pivots] for row in coord_rows]))
    mats = [ambient.matrix_from_coords(row) for row in coord_rows]
    structure = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            vec = ambient.coords_of(commutator(mats[a], mats[b]))
            w = apply(pivot_inv, [vec[c] for c in pivots])
            entries = tuple((c, v) for c, v in enumerate(w) if v)
            if entries:
                structure[(a, b)] = entries
    return mats, structure


class DenseSpModel:
    """The sigma-fixed part of the sp centraliser with dense matrices."""

    def __init__(self, p):
        self.partition = p
        self.gl = gl = DenseGlModel(p)
        real = gl.realization
        n, d = p.n, p.d
        self.pairing = pairing_map(p, ClassicalType.SP)
        eps = {i: 1 if i <= self.pairing[i] else -1 for i in range(1, p.k + 1)}
        J = zeros(n, n)
        for (i, s), col in real.pos.items():
            ip = self.pairing[i]
            t = d[i - 1] - s
            if 0 <= t <= d[ip - 1]:
                J[col][real.pos[(ip, t)]] = Fraction((-1) ** t * eps[i])
        self.J = J
        half = Fraction(1, 2)
        fixed_rows, odd_rows = [], []
        for mat in gl.matrices:
            sig = self.sigma(mat)
            fixed_rows.append(gl.coords_of(scale(add(mat, sig), half)))
            odd_rows.append(gl.coords_of(scale(sub(mat, sig), half)))
        self.sigma_fixed_basis = independent_rows(fixed_rows)
        self.odd_part_basis = independent_rows(odd_rows)
        assert len(self.sigma_fixed_basis) == dim_centralizer_so_sp(p, ClassicalType.SP)
        self.fixed_matrices, self.fixed_structure = subalgebra_structure(
            gl, self.sigma_fixed_basis)
        gf_flat = []
        for idx in gl.xi:
            mat = gf_matrix(real, idx)
            gf_flat.append([x for row in scale(add(mat, self.sigma(mat)), half) for x in row])
        gf_mats = [[row[t * n:(t + 1) * n] for t in range(n)]
                   for row in independent_rows(gf_flat)]
        self.gf_dual = trace_dual(self.fixed_matrices, gf_mats)

    def sigma(self, mat):
        return matmul(matmul(self.J, transpose(mat)), self.J)
