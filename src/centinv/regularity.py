"""Regular linear functions on centralisers and index certificates.

The skew form B(gamma)_{ab} = gamma([xi_a, xi_b]) drives everything:
stabiliser dimensions are exact kernel dimensions, the index is the
corank at the best sampled point, and the singular locus is probed by
polynomial gcds of maximal minors along random lines.  A point gamma is
a ``Functional``: integer numerators over one positive denominator.
Ranks come from integer rows: the model's structure rows (integer
numerators over one denominator S) and the numerators of gamma give a
positive multiple of B(gamma), which has its rank.  The Jacobian kernel
reads the same numerators (``evaluate_jacobian(polys, nums, den)``).

The line probe certifies modulo the prime p = 2^30 - 35, one 30-bit
CPython digit.  Each compression D_j(t) = det(U B(t) V) is a
Z-combination of the maximal minors (Cauchy-Binet), so their primitive
gcd g divides every D_j, and lc(g) divides the leading coefficient
det(U B_1 V).  When that is nonzero mod p for one D_j, deg(g mod p) =
deg g, and a constant gcd of the D_j mod p proves g constant: the line
misses the singular locus.  Every other line is decided over Z exactly.
The kernels mod p hold each row (solve) or column (Hessenberg) in one int
of nonnegative lanes, below rho p^2 + p and rho^2 p^3 + rho p^2 + p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, isqrt

from .centralizer import CentralizerModel, SymplecticModel, XiIndex
from .linalg import RatMatrix, bareiss, clear_denominators
from .invariants import SliceRestriction, evaluate_jacobian


@dataclass(frozen=True)
class Functional:
    """Point of the dual space in coordinates dual to the model basis:
    integer numerators ``nums`` over one denominator ``den > 0``.

    ``__post_init__`` is the one check and brings the point to lowest
    terms, gcd(den, nums) = 1, so ``==`` compares points exactly.  A
    ``den <= 0`` is a ValueError, a non-integer entry a TypeError (from
    the gcd).  The kernels read ``nums``, a positive multiple of the
    point; ``coords`` is the one rational read.
    """

    nums: tuple[int, ...]
    provenance: str = "EXPLICIT"
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError(f"denominator {self.den} is not positive")
        g = gcd(self.den, *self.nums)
        if g != 1:
            object.__setattr__(self, "nums", tuple(x // g for x in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def of(cls, values, provenance: str = "EXPLICIT") -> "Functional":
        """The point with the given rational coordinates."""
        nums, den = clear_denominators(values)
        return cls(tuple(nums), provenance, den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)


def default_alpha_coefficients(model) -> list[Fraction]:
    """Distinct nonzero block scalars; paired blocks get opposite signs."""
    p = model.partition
    if isinstance(model, SymplecticModel):
        pairing = model.pairing
        values: dict[int, Fraction] = {}
        nxt = 1
        for i in range(1, p.k + 1):
            ip = pairing[i]
            if ip == i or i < ip:
                values[i] = Fraction(nxt)
                nxt += 1
            if ip != i and i < ip:
                values[ip] = -values[i]
        return [values[i] for i in range(1, p.k + 1)]
    return [Fraction(i) for i in range(1, p.k + 1)]


def build_alpha(model: CentralizerModel, a) -> Functional:
    """Functional with coefficient a_i on the coordinate of xi[i,i,d_i]."""
    p = model.partition
    if len(a) != p.k:
        raise ValueError(f"need {p.k} block scalars, got {len(a)}")
    coords: list = [0] * model.dim
    for i in range(1, p.k + 1):
        idx = model.index[XiIndex(i, i, p.d[i - 1])]
        coords[idx] = Fraction(a[i - 1])
    tag = "ALPHA(" + ",".join(str(Fraction(x)) for x in a) + ")"
    return Functional.of(coords, tag)


def build_beta(model: CentralizerModel) -> Functional:
    """Coefficient 1 on each coordinate of xi[i+1, i, d_i]."""
    p = model.partition
    if p.k < 2:
        raise ValueError("the subdiagonal functional needs at least two blocks")
    nums = [0] * model.dim
    for i in range(1, p.k):
        nums[model.index[XiIndex(i + 1, i, p.d[i - 1])]] = 1
    return Functional(tuple(nums), "BETA")


def random_functional(model, rng: random.Random) -> Functional:
    return Functional(tuple(rng.randint(-10, 10) for _ in range(model.dim)), "RANDOM")


def _bracket_rows(model, nums) -> list[list[int]]:
    """S * B(gamma) in integer rows for integer coordinates of gamma, read
    from the structure rows ``model.rows`` over ``model.S`` (positive row
    multiple; rank only).

    The numerators of a functional give rows S * den * B(gamma).
    """
    table = model.rows
    r = len(table)
    rows = [[0] * r for _ in range(r)]
    for a, row in enumerate(table):
        for b in range(a + 1, r):
            v = 0
            for c, coeff in row[b]:
                v += coeff * nums[c]
            if v:
                rows[a][b] = v
                rows[b][a] = -v
    return rows


def _form_rank(model, gamma: Functional) -> int:
    return bareiss(_bracket_rows(model, gamma.nums))[0]


def bracket_form_matrix(model, gamma: Functional) -> RatMatrix:
    """B(gamma)_{ab} = gamma([xi_a, xi_b]); skew-symmetric."""
    den = gamma.den * model.S
    return RatMatrix([[Fraction(x, den) for x in row]
                      for row in _bracket_rows(model, gamma.nums)])


def stabilizer_dim(gamma: Functional, model) -> int:
    """Kernel dimension of the bracket form at gamma."""
    return model.dim - _form_rank(model, gamma)


@dataclass
class StabilizerSpanResult:
    passed: bool
    kernel_dim: int
    expected_dim: int
    detail: str


def alpha_stabilizer_basis_check(model: CentralizerModel, a) -> StabilizerSpanResult:
    """Kernel of B(alpha) must equal the span of the block-diagonal basis.

    Two checks suffice: the kernel has len(diag) vectors and each is
    supported on the diagonal coordinates.  The ``kernel_basis`` vectors
    are independent, so len(diag) of them inside the diagonal span
    already span all of it; no rank test of the two spans is needed.
    """
    alpha = build_alpha(model, a)
    vals = [Fraction(x) for x in a]
    if len(set(vals)) != len(vals) or any(not v for v in vals):
        raise ValueError("block scalars must be distinct and nonzero")
    B = bracket_form_matrix(model, alpha)
    kernel = B.kernel_basis()
    diag = [t for t, idx in enumerate(model.xi) if idx.i == idx.j]
    expected = len(diag)
    if len(kernel) != expected:
        return StabilizerSpanResult(False, len(kernel), expected, "kernel dimension")
    diag_set = set(diag)
    for vec in kernel:
        for c, v in enumerate(vec):
            if v and c not in diag_set:
                return StabilizerSpanResult(
                    False, len(kernel), expected,
                    f"kernel leaves the diagonal span at {model.labels[c]}")
    return StabilizerSpanResult(True, len(kernel), expected, "")


@dataclass
class IndexReport:
    sampled_max_rank: int
    index_estimate: int
    certificate_point: Functional | None
    vinberg_bound: int
    per_point: list[tuple[str, int]] = field(default_factory=list)


def index_report(model, samples: int = 10, seed: int = 0,
                 special: tuple[Functional, ...] = ()) -> IndexReport:
    """Corank of the bracket form at the best of the sampled functionals."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    r = model.dim
    points = list(special) + [random_functional(model, rng) for _ in range(samples)]
    best_rank = 0
    per_point = []
    certificate = None
    for gamma in points:
        rk = _form_rank(model, gamma)
        stab = r - rk
        per_point.append((gamma.provenance, stab))
        if rk > best_rank:
            best_rank = rk
        if certificate is None and stab == model.rank:
            certificate = gamma
    return IndexReport(
        sampled_max_rank=best_rank,
        index_estimate=r - best_rank,
        certificate_point=certificate,
        vinberg_bound=model.rank,
        per_point=per_point,
    )


@dataclass
class PlaneScanResult:
    passed: bool
    grid: int
    failures: list[tuple[str, str, int]]
    rho_eigenvector_check: bool | None


def plane_regularity_scan(model, gamma1: Functional, gamma2: Functional,
                          grid: int = 7) -> PlaneScanResult:
    """Every nonzero point of the plane grid has minimal stabiliser dim.

    On a gl model with the diagonal/subdiagonal pair this also verifies
    the weighted torus action rescales them by t and 1 respectively.
    """
    if bareiss([list(gamma1.nums), list(gamma2.nums)])[0] != 2:
        raise ValueError("plane scan needs two independent functionals")
    half = grid // 2
    coords = range(-half, grid - half)
    failures = []
    # B(c gamma) = c B(gamma): one rank per primitive direction, sign
    # normalised, at the positive multiple den1 den2 (dx gamma1 + dy gamma2)
    d1, d2 = gamma1.den, gamma2.den
    stab_of: dict[tuple[int, int], int] = {}
    for x in coords:
        for y in coords:
            if x == 0 and y == 0:
                continue
            g = gcd(x, y) if (x, y) > (0, 0) else -gcd(x, y)
            dx, dy = x // g, y // g
            if (dx, dy) not in stab_of:
                point = Functional(tuple(dx * d2 * a + dy * d1 * b
                                         for a, b in zip(gamma1.nums, gamma2.nums)))
                stab_of[dx, dy] = stabilizer_dim(point, model)
            stab = stab_of[dx, dy]
            if stab != model.rank:
                failures.append((str(x), str(y), stab))
    rho_ok = None
    weights = model.rho_weights
    if (weights is not None
            and gamma1.provenance.startswith("ALPHA") and gamma2.provenance == "BETA"):
        # rho(t) scales the coordinate of weight w by t^(1 + w): gamma1 is
        # scaled by t exactly when its support has weight 0, gamma2 fixed
        # exactly when its support has weight -1
        rho_ok = (all(weights[a] == 0 for a, x in enumerate(gamma1.nums) if x)
                  and all(weights[a] == -1 for a, x in enumerate(gamma2.nums) if x))
    return PlaneScanResult(not failures, grid, failures, rho_ok)


@dataclass
class BetaPrimeResult:
    ambient: Functional                 # beta + beta' on the full centraliser
    restricted: Functional              # its restriction to the fixed subalgebra
    gamma_terms: list[dict]
    vanishes_on_odd_part: bool
    torus_exponents_ok: bool
    nonzero: bool


def build_beta_prime_sum(sp: SymplecticModel) -> BetaPrimeResult:
    """The corrected subdiagonal functional for the symplectic centraliser.

    For every i < k whose partner is not i+1 a correction supported on
    xi[i', (i+1)', d_{i+1}] is added so the sum kills the sigma-odd part;
    the correction terms scale with torus exponent at least 2.
    """
    p = sp.partition
    if p.k < 2:
        raise ValueError("the subdiagonal functional needs at least two blocks")
    gl = sp.gl
    coords: list = list(build_beta(gl).nums)
    d = p.d
    real = gl.realization
    gamma_terms = []
    torus_ok = True
    for i in range(1, p.k):
        ip = sp.pairing[i]
        inext = sp.pairing[i + 1]
        if ip == i + 1:
            continue
        num = sp.J.get((real.pos[(i + 1, 0)], real.pos[(inext, d[i])]), 0)
        den = sp.J.get((real.pos[(i, d[i - 1])], real.pos[(ip, 0)]), 0)
        idx = XiIndex(ip, inext, d[i])
        a = gl.index[idx]
        coeff = Fraction(-num, den)
        coords[a] += coeff
        exponent = 1 + gl.rho_weights[a]
        if exponent < 2:
            torus_ok = False
        gamma_terms.append({
            "i": i, "coordinate": idx.label(), "coefficient": str(coeff),
            "torus_exponent": exponent,
        })
    ambient = Functional.of(coords, "BETA_PRIME_SUM")
    restricted = Functional.of(sp.fixed.restrict_dual(ambient.coords), "BETA_PRIME_SUM")
    return BetaPrimeResult(
        ambient=ambient,
        restricted=restricted,
        gamma_terms=gamma_terms,
        vanishes_on_odd_part=vanishes_on_odd_part(sp, ambient),
        torus_exponents_ok=torus_ok,
        nonzero=not ambient.is_zero(),
    )


def restrict_alpha_to_fixed(sp: SymplecticModel, a=None) -> Functional:
    """Block-scalar functional with a_{i'} = -a_i, restricted to the sp part."""
    if a is None:
        a = default_alpha_coefficients(sp)
    alpha = build_alpha(sp.gl, a)
    return Functional.of(sp.fixed.restrict_dual(alpha.coords), alpha.provenance)


def vanishes_on_odd_part(sp: SymplecticModel, gamma: Functional) -> bool:
    """Whether a functional on the full centraliser kills its sigma-odd part."""
    return all(sum(v * gamma.nums[c] for c, v in row.items()) == 0
               for row in sp.odd_part_basis)


# -- differential criterion ---------------------------------------------------


@dataclass
class DifferentialCriterionResult:
    provenance: str
    jacobian_rank: int
    stabilizer_dim: int
    rank_full: bool
    stabilizer_minimal: bool

    @property
    def passed(self) -> bool:
        return self.rank_full == self.stabilizer_minimal


def choose_generators(sr: SliceRestriction, model, at: Functional) -> list[int]:
    """Greedy subfamily whose gradients reach full rank at the given point."""
    all_rows = evaluate_jacobian(sr.initial, at.nums, at.den)
    chosen: list[int] = []
    rank = 0
    for ell in range(sr.count):
        new_rank = bareiss([all_rows[i][:] for i in chosen + [ell]])[0]
        if new_rank > rank:
            chosen.append(ell)
            rank = new_rank
        if rank == model.rank:
            break
    return chosen if rank == model.rank else list(range(sr.count))


def differential_criterion(sr: SliceRestriction, model, gamma: Functional,
                           generators: list[int] | None = None) -> DifferentialCriterionResult:
    """Full gradient rank at gamma must happen exactly at minimal stabiliser."""
    if 2 * sum(sr.degrees) != model.dim + model.rank:
        raise ValueError("degree sum does not certify a good system")
    gens = generators if generators is not None else list(range(sr.count))
    rows = evaluate_jacobian([sr.initial[ell] for ell in gens], gamma.nums, gamma.den)
    jac_rank = bareiss(rows)[0]
    stab = stabilizer_dim(gamma, model)
    return DifferentialCriterionResult(
        provenance=gamma.provenance,
        jacobian_rank=jac_rank,
        stabilizer_dim=stab,
        rank_full=jac_rank == model.rank,
        stabilizer_minimal=stab == model.rank,
    )


# -- singular locus line probes ----------------------------------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        c = [x // g for x in c]
    if c and c[-1] < 0:
        c = [-x for x in c]
    return c


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials via a primitive pseudo-remainder sequence.

    Content is stripped after every pseudo-division step, which keeps the
    integer coefficients from exploding.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        da, db = len(a) - 1, len(b) - 1
        lead = b[-1]
        r = list(a)
        # pseudo-remainder: scale so every elimination step stays integral
        for _ in range(da - db + 1):
            r = _trim(r)
            if len(r) - 1 < db:
                break
            top = r[-1]
            r = [lead * x for x in r]
            dr = len(r) - 1
            for t in range(db + 1):
                r[dr - db + t] -= top * b[t]
            r = _trim(r)
            if not r:
                break
        a, b = b, _primitive(_trim(r))
    return a


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b over Z; ArithmeticError if a remainder is left.

    For a primitive b that divides a over Q the quotient is integral
    (Gauss's lemma), so every step divides exactly.
    """
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q, rem = divmod(a[i], b[-1])
        if rem:
            raise ArithmeticError("divisor does not divide over the integers")
        out[i - db] = q
        if q:
            for t in range(db + 1):
                a[i - db + t] -= q * b[t]
    if any(a[:db]):
        raise ArithmeticError("division leaves a remainder")
    return out


def _interpolate(values: list[int]) -> list[int]:
    """Primitive interpolant of the values at t = 0, 1, ..., n; low degree first.

    Lagrange scaled by n!: node i weighs (-1)^(n-i) C(n, i), so
    n! f(t) = sum_i (-1)^(n-i) C(n, i) values[i] prod_{j != i} (t - j)
    has integer coefficients and the roots of f.
    """
    n = len(values) - 1
    nodes = [1]  # prod_j (t - j), divided by (t - i) once per node
    for j in range(n + 1):
        nodes = [a - j * b for a, b in zip([0] + nodes, nodes + [0])]
    coeffs = [0] * (n + 1)
    for i, y in enumerate(values):
        w = (-1) ** (n - i) * comb(n, i) * y
        for t, b in enumerate(_poly_div_exact(nodes, [-i, 1])):
            coeffs[t] += w * b
    return _primitive(_trim(coeffs))


def _rational_roots(c: list[int]) -> tuple[list[Fraction], bool]:
    """Distinct rational roots; flag says the factorisation was complete.

    Integer roots from a bounded scan are deflated while the degree exceeds
    two; the linear or quadratic (squarefree) rest is solved exactly.
    """
    roots: list[Fraction] = []
    poly = list(c)
    while len(poly) > 3:
        root = next((t for t in range(-64, 65)
                     if sum(x * t ** i for i, x in enumerate(poly)) == 0), None)
        if root is None:
            return sorted(set(roots)), False
        roots.append(Fraction(root))
        poly = _poly_div_exact(poly, [-root, 1])
    if len(poly) == 2:
        roots.append(Fraction(-poly[0], poly[1]))
    elif len(poly) == 3:
        # a negative or non-square discriminant leaves no rational root
        a0, a1, a2 = poly
        disc = a1 * a1 - 4 * a0 * a2
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            roots += [Fraction(-a1 + s, 2 * a2), Fraction(-a1 - s, 2 * a2)]
    return sorted(set(roots)), True


@dataclass
class LineProbe:
    certified: bool
    singular_values: int | None
    minors_used: int
    detail: str


@dataclass
class LineProbeReport:
    lines: list[LineProbe]
    all_clean: bool


def _lane_width(*mats: list[list[int]]) -> int:
    # |(U B V)_ij| <= 9 sum|B| for U, V drawn from [-3, 3] in _compress_line; +1 sign bit
    return (9 * sum(abs(x) for B in mats for row in B for x in row)).bit_length() + 1


def _pack(values: list[int], w: int) -> int:
    """One int holding the values in w-bit lanes, values[0] lowest."""
    acc = 0
    for x in reversed(values):
        acc = (acc << w) + x
    return acc


def _unpack(acc: int, w: int, count: int) -> list[int]:
    """The count lowest w-bit lanes of acc >= 0."""
    mask = (1 << w) - 1
    return [(acc >> (w * j)) & mask for j in range(count)]


def _compress(U: list[list[int]], B: list[list[int]], V: list[list[int]],
              w: int) -> list[list[int]]:
    """U B V exactly; each row of V, of B V and of the product is one int
    of signed w-bit lanes (w from ``_lane_width``), read with a bias."""
    packed = [_pack(row, w) for row in V]
    bv = [sum(b * packed[j] for j, b in enumerate(row) if b) for row in B]
    half, rho = 1 << (w - 1), len(V[0])
    bias = _pack([half] * rho, w)
    return [[x - half for x in _unpack(sum(u * x for u, x in zip(urow, bv) if u) + bias, w, rho)]
            for urow in U]


def _draw(bits) -> int:
    """``Random.randint(-3, 3)`` from the same ``getrandbits(3)`` calls:
    CPython draws 3 bits and rejects 7 (``_randbelow_with_getrandbits``)."""
    r = bits(3)
    while r == 7:
        r = bits(3)
    return r - 3


# -- compressions modulo a prime -----------------------------------------------

_PRIME = (1 << 30) - 35  # the largest prime below 2^30


def _solve_mod(A: list[list[int]], B: list[list[int]], prime: int):
    """(det A, A^-1 B) modulo prime by one Gauss-Jordan pass; (0, None)
    when A is singular modulo prime.  Only the pivot row is reduced; the
    others take row += (prime - f) pivot_row, below prime^2 per lane, at
    most n times in between, so lanes stay below n prime^2 + prime.
    """
    n = len(A)
    w = (n * prime * prime + prime).bit_length() + 1
    mask = (1 << w) - 1
    rows = [_pack([x % prime for x in ra + rb], w) for ra, rb in zip(A, B)]
    det = 1
    for col in range(n):
        shift = w * col
        fs = [((row >> shift) & mask) % prime for row in rows]
        piv = next((i for i in range(col, n) if fs[i]), None)
        if piv is None:
            return 0, None
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            fs[col], fs[piv] = fs[piv], fs[col]
            det = -det
        det = det * fs[col] % prime
        inv = pow(fs[col], -1, prime)
        pr = _pack([x * inv % prime for x in _unpack(rows[col] >> shift, w, 2 * n - col)], w)
        rows[col] = pr = pr << shift
        for i, f in enumerate(fs):
            if f and i != col:
                rows[i] += (prime - f) * pr
    return det % prime, [[x % prime for x in _unpack(row >> (w * n), w, n)] for row in rows]


def _charpoly_mod(H: list[list[int]], prime: int) -> list[int]:
    """det(t Id - H) modulo prime, low degree first.

    H is brought to upper Hessenberg form by similarity transforms, then
    p_0 = 1 and p_{m+1} = (t - h_mm) p_m
    - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i  (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2.9).

    H^T has the same polynomial, so the rows of H are packed as its columns,
    and so are the p_m.  Step m reduces column m - 1, then final in rows up
    to m, adds below prime^2 per lane to later columns and u_i times those
    to column m: lanes stay below n^2 prime^3 + n prime^2 + prime.
    """
    n = len(H)
    w = (n * n * prime ** 3 + n * prime * prime + prime).bit_length() + 1
    mask = (1 << w) - 1
    cols = [_pack([x % prime for x in row], w) for row in H]
    hess = []  # hess[j]: rows 0 .. j + 1 of the reduced column j
    for m in range(1, n - 1):
        lanes = [x % prime for x in _unpack(cols[m - 1], w, n)]
        piv = next((i for i in range(m, n) if lanes[i]), m)
        sm = w * m
        if piv != m:
            # rows m and piv (final in the columns before m), then the columns
            lanes[m], lanes[piv] = lanes[piv], lanes[m]
            cols[m], cols[piv] = cols[piv], cols[m]
            for j in range(m, n):
                a, b = (cols[j] >> sm) & mask, (cols[j] >> (w * piv)) & mask
                cols[j] += ((b - a) << sm) + ((a - b) << (w * piv))
        hess.append(lanes[:m + 1])
        if not lanes[m]:
            continue
        inv = pow(lanes[m], -1, prime)
        us = [(i, x * inv % prime) for i, x in enumerate(lanes) if i > m and x]
        if us:
            neg = sum((prime - u) << (w * i) for i, u in us)
            for j in range(m, n):
                s = ((cols[j] >> sm) & mask) % prime
                if s:
                    cols[j] += s * neg
            cols[m] += sum(u * cols[i] for i, u in us)
    for j in range(len(hess), n):
        hess.append([x % prime for x in _unpack(cols[j], w, min(j + 2, n))])
    polys, out = [1], [1]
    for m in range(n):
        new = (polys[m] << w) + (prime - hess[m][m]) * polys[m]
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * hess[i][i + 1] % prime
            if not prod:
                break
            coef = hess[m][i] * prod % prime
            if coef:
                new += (prime - coef) * polys[i]
        out = [x % prime for x in _unpack(new, w, m + 2)]
        polys.append(_pack(out, w))
    return out


def _pencil_mod(C0: list[list[int]], C1: list[list[int]], prime: int) -> list[int] | None:
    """det(C0 + t C1) modulo prime, low degree first, from det(C1) and the
    characteristic polynomial of X = C1^-1 C0; None when det(C1) = 0
    modulo prime."""
    det1, X = _solve_mod(C1, C0, prime)
    if X is None:
        return None
    # det(C0 + t C1) = det(C1) det(t Id + X), and [t^k] det(t Id + X) is
    # (-1)^(rho - k) [t^k] det(t Id - X)
    rho = len(X)
    return [(det1 if (rho - k) % 2 == 0 else prime - det1) * c % prime
            for k, c in enumerate(_charpoly_mod(X, prime))]


def _pencil_exact(C0: list[list[int]], C1: list[list[int]]) -> list[int]:
    """Primitive part of det(C0 + t C1) over Z, from rho + 1 Bareiss
    determinants and their interpolant."""
    return _interpolate([
        bareiss([[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(C0, C1)])[1]
        for t in range(len(C0) + 1)])


def _gcd_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """A gcd in F_prime[t] of two nonzero trimmed polynomials, low degree first."""
    while b:
        a = list(a)
        inv = pow(b[-1], -1, prime)
        db = len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % prime
            off = len(a) - db
            for t in range(db):
                a[off + t] = (a[off + t] - q * b[t]) % prime
            _trim(a)
        a, b = b, a
    return a


def _compress_line(B0: list[list[int]], B1: list[list[int]], rho: int,
                   rng: random.Random, budget: int, prime: int = _PRIME):
    """Draw compressions (U B0 V, U B1 V) until their gcd modulo prime is
    certified constant; returns (certified, the compressions drawn).

    A compression whose C1 is singular modulo prime is interpolated over
    Z and reduced.  Certification needs the gcd modulo prime to be
    constant and an anchor: a compression whose degree survives the
    reduction, which det(C1) != 0 modulo prime guarantees.
    """
    r = len(B0)
    drawn = []
    gcd_mod: list[int] | None = None
    anchored = False
    w = _lane_width(B0, B1)
    bits = rng.getrandbits
    for _ in range(budget):
        U = [[_draw(bits) for _ in range(r)] for _ in range(rho)]
        V = [[_draw(bits) for _ in range(rho)] for _ in range(r)]
        C0 = _compress(U, B0, V, w)
        C1 = _compress(U, B1, V, w)
        drawn.append((C0, C1))
        dpoly = _pencil_mod(C0, C1, prime)
        if dpoly is None:
            exact = _pencil_exact(C0, C1)
            dpoly = _trim([x % prime for x in exact])
            anchored = anchored or (bool(dpoly) and len(dpoly) == len(exact))
        else:
            anchored = True
        if dpoly:
            gcd_mod = dpoly if gcd_mod is None else _gcd_mod(gcd_mod, dpoly, prime)
            if len(gcd_mod) == 1 and anchored:
                return True, drawn
    return False, drawn


def singular_locus_probe(model, lines: int = 10, seed: int = 0) -> LineProbeReport:
    """Count singular parameter values on random lines in the dual space.

    A parameter is singular when the bracket form drops below its
    generic rank rho.  Along a line those parameters are the common
    roots of all rho x rho minors.  Each compression
    D_j(t) = det(U B(t) V) with random integer U, V is a linear
    combination of those minors (Cauchy-Binet), hence divisible by their
    gcd; driving the gcd of a few compressions to a constant therefore
    certifies that no parameter value is singular.

    Everything runs over Z.  B0 and B1 are the integer rows of the
    numerators of g0 and g1 (``_bracket_rows``), positive multiples of
    B(g0) and B(g1); at a rational t = num/d the integer matrix
    d B0 + num B1 is a positive multiple of a point of the line, so it
    has that point's rank.  (``random_functional`` draws integer points,
    den 1, so the parameter is t itself.)

    The gcd is taken modulo the prime p = 2^30 - 35; CPython stores ints
    in 30-bit digits, so every residue is one digit.  Each D_j mod p is
    det(C1) charpoly(-C1^-1 C0), one Gauss-Jordan pass and one Hessenberg
    reduction.  The pass holds each row of [C1 | C0] in one int of lanes
    below rho p^2 + p, the reduction each column in lanes below
    rho^2 p^3 + rho p^2 + p: a step is O(rho) int operations, not O(rho^2)
    on residues.  Soundness holds for every prime p (a smaller
    one only sends about 1/p of the compressions to the exact route): the
    primitive gcd g of the D_j over Z divides every D_j, so g mod p
    divides their gcd mod p; and g divides a D_j whose leading
    coefficient det(C1) is nonzero mod p, so lc(g) is nonzero mod p and
    deg(g mod p) = deg g.  A constant gcd mod p with at least one such
    D_j therefore proves g constant.  A compression with det(C1) = 0 mod
    p is interpolated exactly and reduced (its primitive part anchors the
    same way when its leading coefficient is nonzero mod p); a line whose
    gcd mod p stays nonconstant through 12 compressions recomputes them
    over Z, and the exact primitive gcd decides it.

    No generic-rank test of the line comes first.  A compression D_j
    that is not identically zero proves rank B(t) >= rho at all but
    finitely many t, and both routes to a certificate need one: the
    modular route an anchor with det(C1) != 0 mod p, the exact route a
    nonzero pencil to take the gcd over.  A line inside the singular
    locus makes every D_j vanish, so it is never certified and ends as
    "no usable compression found".
    """
    rng = random.Random(seed)
    r = model.dim
    rho = r - model.rank
    probes: list[LineProbe] = []
    for _ in range(lines):
        if rho == 0:
            # abelian bracket form: every linear function is regular
            probes.append(LineProbe(True, 0, 0, "abelian: empty singular locus"))
            continue
        g0 = random_functional(model, rng)
        for _ in range(11):
            g1 = random_functional(model, rng)
            if bareiss([list(g0.nums), list(g1.nums)])[0] == 2:
                break
        else:
            probes.append(LineProbe(False, None, 0, "degenerate direction"))
            continue
        B0 = _bracket_rows(model, g0.nums)
        B1 = _bracket_rows(model, g1.nums)

        def b_at(num: int, den: int = 1) -> list[list[int]]:
            """den * B(num / den) in integer rows."""
            return [[den * x + num * y for x, y in zip(r0, r1)] for r0, r1 in zip(B0, B1)]

        clean, drawn = _compress_line(B0, B1, rho, rng, budget=12)
        used = len(drawn)
        if clean:
            probes.append(LineProbe(True, 0, used, ""))
            continue
        gcd_poly: list[int] | None = None
        for C0, C1 in drawn:
            dpoly = _pencil_exact(C0, C1)
            if dpoly:
                gcd_poly = dpoly if gcd_poly is None else _poly_gcd(gcd_poly, dpoly)
        if gcd_poly is None:
            probes.append(LineProbe(False, None, used, "no usable compression found"))
        elif len(gcd_poly) == 1:
            probes.append(LineProbe(True, 0, used, ""))
        else:
            probes.append(_resolve_residual(gcd_poly, b_at, rho, used))
    return LineProbeReport(probes, all(pr.certified and pr.singular_values == 0
                                       for pr in probes))


def _resolve_residual(gcd_poly: list[int], b_at, rho: int, used: int) -> LineProbe:
    """Classify the roots of a stabilised nonconstant compression gcd.

    The true minor gcd divides the residual, so the singular parameters
    are among its roots; exact rank tests at the rational roots decide
    them, and a fully decided residual is an exact count.
    """
    deriv = [i * x for i, x in enumerate(gcd_poly)][1:]
    sf = _poly_div_exact(gcd_poly, _poly_gcd(gcd_poly, deriv))
    degree = len(sf) - 1
    roots, complete = _rational_roots(sf)
    if not complete or len(roots) != degree:
        return LineProbe(False, degree, used,
                         "residual has unresolved (irrational) root candidates")
    for t in roots:
        if bareiss(b_at(t.numerator, t.denominator))[0] >= rho:
            return LineProbe(False, degree, used,
                             f"spurious shared factor at t={t}; add compressions")
    return LineProbe(True, len(roots), used,
                     "singular parameters confirmed at t in "
                     + "{" + ", ".join(str(t) for t in roots) + "}")
