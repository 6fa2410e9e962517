"""Regular linear functions on centralisers and index certificates.

The skew form B(gamma)_{ab} = gamma([xi_a, xi_b]) drives everything:
stabiliser dimensions are exact kernel dimensions, the index is the
corank at the best sampled point, and the singular locus is probed by
polynomial gcds of maximal minors along random lines.  A point gamma is
a ``Functional``, an integer vector: every certificate here reads a rank
of B(gamma) or of the Jacobian of homogeneous terms, which no positive
scaling of gamma changes, so a rational point is read at an integer
multiple.  ``bracket_form_matrix`` is the one builder of B(gamma): the
model's integer structure rows and gamma give the integer rows of a
``RatMatrix`` made skew.  Ranks and the line probe read those rows.
Every rank of a bracket form, here and at the rational roots of the line
probe, is the Pfaffian elimination ``linalg.pfaffian_rank``, exact by
the Pfaffian form of Sylvester's identity; compressions and their
determinants stay on ``bareiss``.  The checks that read the rank at a
point take it from a callable, ``stab`` for the stabiliser dimension and
``jacobian_rank`` for the Jacobian of the initial terms, so
``runner.PartitionContext`` ranks each point once per partition.

The line probe certifies modulo p = 2^30 - 35, or else over Z,
building, solving and Hessenberg-reducing each compression in one w-bit
lane layout per line; ``singular_locus_probe`` derives the lane width w
and the fold bounds.

Each check returns the values its certificate reports, and
``runner`` derives the verdict: ``alpha_stabilizer_basis_check`` gives
(kernel dim, diagonal span), ``index_report`` the (gamma, stabiliser
dim) pairs, ``plane_regularity_scan`` the failing grid points,
``torus_eigenvector_check`` its bool, ``build_beta_prime_sum``
(restricted functional, correction terms, checks),
``differential_criterion`` (Jacobian rank, stabiliser dim) and
``singular_locus_probe`` one (certified, singular values, compressions
used, detail) tuple per line.  No check reads a point's ``provenance``,
the label that witnesses print.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt

from .centralizer import CentralizerModel, SymplecticModel, XiIndex
from .linalg import RatMatrix, bareiss, pfaffian_rank
from .invariants import SliceRestriction


@dataclass(frozen=True)
class Functional:
    """Point of the dual space: the integer coordinates ``nums``, dual to
    the model basis.

    ``__post_init__`` is the one check: a non-integer entry is a
    TypeError (from the gcd), under ``-O`` too.
    """

    nums: tuple[int, ...]
    provenance: str = "EXPLICIT"

    def __post_init__(self):
        gcd(*self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)


def default_alpha_coefficients(model) -> list[int]:
    """Nonzero block scalars, one per block in order: the second block of
    a sigma-pair negates the first, and every other block takes the next
    positive integer, so a gl model gets 1, 2, ..., k."""
    pairing = model.pairing if isinstance(model, SymplecticModel) else {}
    a: list[int] = []
    for i in range(1, model.partition.k + 1):
        ip = pairing.get(i, i)
        a.append(-a[ip - 1] if ip < i else max(a, default=0) + 1)
    return a


def build_alpha(model: CentralizerModel, a) -> Functional:
    """Functional with the integer coefficient a_i on the coordinate of
    xi[i,i,d_i]."""
    p = model.partition
    if len(a) != p.k:
        raise ValueError(f"need {p.k} block scalars, got {len(a)}")
    nums = [0] * model.dim
    for i in range(1, p.k + 1):
        nums[model.index[XiIndex(i, i, p.d[i - 1])]] = a[i - 1]
    return Functional(tuple(nums), "ALPHA(" + ",".join(map(str, a)) + ")")


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


def bracket_form_matrix(model, gamma: Functional) -> RatMatrix:
    """B(gamma)_{ab} = gamma([xi_a, xi_b]); skew-symmetric.

    Every B(gamma) is made here: the integer structure rows ``model.rows``
    and the integer gamma give the integer rows of B(gamma), so the
    ``RatMatrix`` needs no check of its own.  It is made ``skew``, so its
    rank is the fraction-free Pfaffian elimination
    ``linalg.pfaffian_rank``, not ``bareiss``: its entries are Pfaffians
    of principal submatrices, and each division is exact.
    """
    nums = gamma.nums
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
    return RatMatrix(rows, skew=True)


def stabilizer_dim(gamma: Functional, model) -> int:
    """Kernel dimension of the bracket form at gamma."""
    return model.dim - bracket_form_matrix(model, gamma).rank()


def alpha_stabilizer_basis_check(model, alpha: Functional, stab) -> tuple[int, bool]:
    """(kernel dim of B(alpha), whether the kernel is the span of the
    block-diagonal basis) at the point alpha; ``stab`` gives the kernel dim.

    Read from B(alpha) itself, with no kernel basis: every diagonal column
    is zero, which puts the diagonal span inside the kernel, and
    dim - rank = len(diag), which makes the two equal.  Column t holds
    alpha([xi_s, xi_t]), read off the structure rows of the upper triangle
    as ``bracket_form_matrix`` reads them.  Both answers are exact at every
    alpha, whatever its block scalars.
    """
    kernel_dim = stab(alpha)
    table, nums = model.rows, alpha.nums
    diag = [t for t, idx in enumerate(model.xi) if idx.i == idx.j]
    nonzero = any(sum(v * nums[c] for c, v in table[min(s, t)][max(s, t)])
                  for t in diag for s in range(model.dim) if s != t)
    return kernel_dim, kernel_dim == len(diag) and not nonzero


def index_report(stab, points) -> list[tuple[Functional, int]]:
    """(gamma, stab(gamma)) at each of ``points``; the index is the least
    stabiliser dimension."""
    return [(gamma, stab(gamma)) for gamma in points]


def plane_regularity_scan(model, gamma1: Functional, gamma2: Functional,
                          grid: int, stab) -> list[tuple[str, str, int]]:
    """The grid points (x, y, stab) of the plane off the minimal stabiliser
    dim."""
    if bareiss([list(gamma1.nums), list(gamma2.nums)])[0] != 2:
        raise ValueError("plane scan needs two independent functionals")
    half = grid // 2
    coords = range(-half, grid - half)
    failures = []
    # B(c gamma) = c B(gamma): each point is read at its primitive
    # direction, sign normalised, so a direction is one point of ``stab``
    # and (1, 0), (0, 1) are gamma1 and gamma2 themselves
    for x in coords:
        for y in coords:
            if x == 0 and y == 0:
                continue
            g = gcd(x, y) if (x, y) > (0, 0) else -gcd(x, y)
            dx, dy = x // g, y // g
            dim = stab(Functional(tuple(dx * a + dy * b
                                        for a, b in zip(gamma1.nums, gamma2.nums))))
            if dim != model.rank:
                failures.append((str(x), str(y), dim))
    return failures


def torus_eigenvector_check(model, alpha: Functional, beta: Functional) -> bool | None:
    """Whether the weighted torus action rho(t) of a gl model scales alpha
    by t and fixes beta; None on a model without ``rho_weights``.

    rho(t) scales the coordinate of weight w by t^(1 + w): alpha is scaled
    by t exactly when its support has weight 0, beta fixed exactly when its
    support has weight -1.
    """
    weights = model.rho_weights
    if weights is None:
        return None
    return (all(weights[a] == 0 for a, x in enumerate(alpha.nums) if x)
            and all(weights[a] == -1 for a, x in enumerate(beta.nums) if x))


def build_beta_prime_sum(sp: SymplecticModel) -> tuple[Functional, list[dict], dict[str, bool]]:
    """The corrected subdiagonal functional for the symplectic centraliser:
    (beta + beta' restricted to the fixed subalgebra, the correction terms,
    the checks keyed as the report keys them).

    For every i < k whose partner is not i+1 a correction supported on
    xi[i', (i+1)', d_{i+1}] is added so the sum kills the sigma-odd part;
    the correction terms scale with torus exponent at least 2.  J is a
    signed permutation, so each correction is an integer; a J entry read
    here other than 1 or -1 is an ArithmeticError.
    """
    p = sp.partition
    gl = sp.gl
    nums = list(build_beta(gl).nums)
    d = p.d
    real = gl.realization
    gamma_terms = []
    for i in range(1, p.k):
        ip = sp.pairing[i]
        inext = sp.pairing[i + 1]
        if ip == i + 1:
            continue
        num = sp.J.get((real.pos[(i + 1, 0)], real.pos[(inext, d[i])]), 0)
        den = sp.J.get((real.pos[(i, d[i - 1])], real.pos[(ip, 0)]), 0)
        if num not in (1, -1) or den not in (1, -1):
            raise ArithmeticError(f"J entries {num}, {den} at block {i} are not 1 or -1")
        idx = XiIndex(ip, inext, d[i])
        a = gl.index[idx]
        coeff = -num * den  # -num / den, den being 1 or -1
        nums[a] += coeff
        gamma_terms.append({
            "i": i, "coordinate": idx.label(), "coefficient": str(coeff),
            "torus_exponent": 1 + gl.rho_weights[a],
        })
    ambient = Functional(tuple(nums), "BETA_PRIME_SUM")
    checks = {
        "beta_prime_vanishes_on_odd_part": vanishes_on_odd_part(sp, ambient),
        "beta_prime_torus_exponents_ok": all(t["torus_exponent"] >= 2 for t in gamma_terms),
        "beta_prime_nonzero": not ambient.is_zero(),
    }
    return Functional(sp.restrict_dual(ambient.nums), "BETA_PRIME_SUM"), gamma_terms, checks


def restrict_alpha_to_fixed(sp: SymplecticModel) -> Functional:
    """Block-scalar functional with a_{i'} = -a_i, restricted to the sp part."""
    alpha = build_alpha(sp.gl, default_alpha_coefficients(sp))
    return Functional(sp.restrict_dual(alpha.nums), alpha.provenance)


def vanishes_on_odd_part(sp: SymplecticModel, gamma: Functional) -> bool:
    """Whether a functional on the full centraliser kills its sigma-odd
    part: zero on each row of the spanning set ``sp.odd_part_span``."""
    return all(sum(v * gamma.nums[c] for c, v in row.items()) == 0
               for row in sp.odd_part_span)


# -- differential criterion ---------------------------------------------------


def choose_generators(sr: SliceRestriction, model) -> list[int]:
    """The initial terms the differential criterion reads: all of them.

    The slice gives exactly ind g_e = ``model.rank`` of them, the family of
    the criterion; any other count is a ValueError.
    """
    count = len(sr.full)
    if count != model.rank:
        raise ValueError(f"{count} initial terms for an index of {model.rank}")
    return list(range(count))


def differential_criterion(sr: SliceRestriction, model, gamma: Functional,
                           jacobian_rank, stab) -> tuple[int, int]:
    """(jacobian_rank(gamma), stab(gamma)): the criterion holds at gamma
    when the Jacobian rank of the initial terms is full exactly when the
    stabiliser is minimal, both ``model.rank``."""
    if 2 * sum(sr.degrees) != model.dim + model.rank:
        raise ValueError("degree sum does not certify a good system")
    return jacobian_rank(gamma), stab(gamma)


# -- singular locus line probes ----------------------------------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    g = gcd(*c)
    if g > 1:
        c = [x // g for x in c]
    if c and c[-1] < 0:
        c = [-x for x in c]
    return c


def _divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of a by b over Z, low degree first;
    ArithmeticError when a quotient coefficient is not an integer."""
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
    return out, _trim(a[:db])


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials via a primitive pseudo-remainder sequence.

    Each step divides lc(b)^(deg a - deg b + 1) a by b, which leaves an
    integer quotient, and strips the content of the remainder, which keeps
    the integer coefficients from exploding.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        scale = b[-1] ** (len(a) - len(b) + 1)
        a, b = b, _primitive(_divmod([scale * x for x in a], b)[1])
    return a


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b over Z; ArithmeticError if a remainder is left.

    For a primitive b that divides a over Q the quotient is integral
    (Gauss's lemma), so every step divides exactly.
    """
    q, rem = _divmod(a, b)
    if rem:
        raise ArithmeticError("division leaves a remainder")
    return q


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


def _draw(bits) -> int:
    """``Random.randint(-3, 3)`` from the same ``getrandbits(3)`` calls:
    CPython draws 3 bits and rejects 7 (``_randbelow_with_getrandbits``)."""
    r = bits(3)
    while r == 7:
        r = bits(3)
    return r - 3


# -- compressions modulo a prime -----------------------------------------------

_PRIME = (1 << 30) - 35  # the largest prime below 2^30


class _Lanes:
    """A line's lane layout (``singular_locus_probe``) and B1, B0."""

    def __init__(self, B0, B1, rho: int, prime: int):
        p, k = prime, prime.bit_length()
        q = 2 << k
        self.rho, self.prime, self.k, self.c = rho, p, k, (1 << k) - p
        self.bias = bias = p * (9 * sum(abs(x) for B in (B0, B1) for r in B for x in r) // p + 1)
        self.nz = [[[(j, b) for j, b in enumerate(r) if b] for r in rs] for rs in zip(B1, B0)]
        solve, hess, poly = 2 * bias + rho * p * q, q + rho * p * p, q + (rho + 1) * p * q
        self.w = w = max(solve, hess + rho * p * hess, poly).bit_length() + 1
        self.lo = _pack([(1 << k) - 1] * 2 * rho, w)
        self.hi = _pack([(1 << (w - k)) - 1] * 2 * rho, w)
        self.row_folds, self.unit_folds, self.poly_folds = map(self.folds, (solve, p * q, poly))

    def folds(self, bound: int) -> int:
        """Folds taking every lane of at most bound below q."""
        n = 0
        while bound >> (self.k + 1):
            bound = (1 << self.k) - 1 + self.c * (bound >> self.k)
            n += 1
        return n

    def fold(self, x: int, times: int) -> int:
        for _ in range(times):
            x = (x & self.lo) + self.c * ((x >> self.k) & self.hi)
        return x

    def compress(self, U, V) -> list[int]:
        """The packed rows of [U B1 V | U B0 V], U and V in [-3, 3]."""
        w, rho = self.w, self.rho
        vs = [_pack(row, w) for row in V]
        bv = [sum(b * vs[j] for j, b in n1) + (sum(b * vs[j] for j, b in n0) << w * rho)
              for n1, n0 in self.nz]
        bias = _pack([self.bias] * 2 * rho, w)
        out = []
        for urow in U:
            acc = [0] * 7  # acc[u]: the rows of B V weighed by u
            for u, x in zip(urow, bv):
                acc[u] += x
            out.append(3 * (acc[3] - acc[-3]) + 2 * (acc[2] - acc[-2]) + acc[1] - acc[-1] + bias)
        return out

    def decode(self, rows: list[int]):
        """Exact (C0, C1) of packed rows."""
        n = self.rho
        lanes = [[x - self.bias for x in _unpack(row, self.w, 2 * n)] for row in rows]
        return [r[n:] for r in lanes], [r[:n] for r in lanes]


def _solve_mod(rows: list[int], lanes: _Lanes):
    """(det C1, X = C1^-1 C0) mod p by Gauss-Jordan on packed rows of
    [C1 | C0], X folded; (0, None) if C1 is singular.  Each step drops its
    pivot lane."""
    p, w = lanes.prime, lanes.w
    mask = (1 << w) - 1
    n = len(rows)
    det = 1
    for col in range(n):
        fs = [(row & mask) % p for row in rows]
        piv = next((i for i in range(col, n) if fs[i]), None)
        if piv is None:
            return 0, None
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            fs[col], fs[piv] = fs[piv], fs[col]
            det = -det
        det = det * fs[col] % p
        rows[col] = pr = lanes.fold(lanes.fold(rows[col], lanes.row_folds)
                                    * pow(fs[col], -1, p), lanes.unit_folds)
        fs[col] = 0  # the pivot row is pr
        rows = [(row + (p - f) * pr if f else row) >> w for row, f in zip(rows, fs)]
    return det % p, [lanes.fold(row, lanes.row_folds) for row in rows]


def _charpoly_mod(cols: list[int], lanes: _Lanes) -> list[int]:
    """det(t Id - X) modulo p, low degree first, for X in packed rows.

    X is brought to upper Hessenberg form by similarity transforms, then
    p_0 = 1 and p_{m+1} = (t - h_mm) p_m
    - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i  (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2.9).

    X^T has the same polynomial, so the rows of X are its columns, and
    the p_m are packed the same way.  Step m reads column m - 1, then final
    in rows up to m.
    """
    p, w = lanes.prime, lanes.w
    n = len(cols)
    mask = (1 << w) - 1
    hess = []  # hess[j]: rows 0 .. j + 1 of the reduced column j
    for m in range(1, n - 1):
        col = [x % p for x in _unpack(cols[m - 1], w, n)]
        piv = next((i for i in range(m, n) if col[i]), m)
        sm = w * m
        if piv != m:
            # rows m and piv (final in the columns before m), then the columns
            col[m], col[piv] = col[piv], col[m]
            cols[m], cols[piv] = cols[piv], cols[m]
            for j in range(m, n):
                a, b = (cols[j] >> sm) & mask, (cols[j] >> (w * piv)) & mask
                cols[j] += ((b - a) << sm) + ((a - b) << (w * piv))
        hess.append(col[:m + 1])
        if not col[m]:
            continue
        inv = pow(col[m], -1, p)
        us = [(i, x * inv % p) for i, x in enumerate(col) if i > m and x]
        if us:
            neg = sum((p - u) << (w * i) for i, u in us)
            for j in range(m, n):
                s = ((cols[j] >> sm) & mask) % p
                if s:
                    cols[j] += s * neg
            cols[m] += sum(u * cols[i] for i, u in us)
    for j in range(len(hess), n):
        hess.append([x % p for x in _unpack(cols[j], w, min(j + 2, n))])
    polys = [1]
    for m in range(n):
        new = (polys[m] << w) + (p - hess[m][m]) * polys[m]
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * hess[i][i + 1] % p
            if not prod:
                break
            coef = hess[m][i] * prod % p
            if coef:
                new += (p - coef) * polys[i]
        polys.append(lanes.fold(new, lanes.poly_folds))
    return [x % p for x in _unpack(polys[n], w, n + 1)]


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
    certified constant; returns (certified, the (lanes, packed rows) drawn).
    Certification needs an anchor: a compression whose degree survives the
    reduction, which det(C1) != 0 modulo prime guarantees.
    """
    r = len(B0)
    drawn = []
    gcd_mod: list[int] | None = None
    anchored = False
    lanes = _Lanes(B0, B1, rho, prime)
    bits = rng.getrandbits
    for _ in range(budget):
        U = [[_draw(bits) for _ in range(r)] for _ in range(rho)]
        V = [[_draw(bits) for _ in range(rho)] for _ in range(r)]
        rows = lanes.compress(U, V)
        drawn.append((lanes, rows))
        det1, X = _solve_mod(list(rows), lanes)
        if X is None:
            exact = _pencil_exact(*lanes.decode(rows))
            dpoly = _trim([x % prime for x in exact])
            anchored = anchored or (bool(dpoly) and len(dpoly) == len(exact))
        else:
            # [t^k] det(t Id + X) = (-1)^(rho - k) [t^k] det(t Id - X)
            dpoly = [(det1 if (rho - k) % 2 == 0 else prime - det1) * c % prime
                     for k, c in enumerate(_charpoly_mod(X, lanes))]
            anchored = True
        if dpoly:
            gcd_mod = dpoly if gcd_mod is None else _gcd_mod(gcd_mod, dpoly, prime)
            if len(gcd_mod) == 1 and anchored:
                return True, drawn
    return False, drawn


def singular_locus_probe(model, lines: int,
                         seed: int) -> list[tuple[bool, int | None, int, str]]:
    """Count singular parameter values on random lines in the dual space:
    one (certified, singular values, compressions used, detail) tuple per
    line, where a certified line has an integer count.

    A parameter is singular when the bracket form drops below its generic
    rank rho; along a line those are the common roots of all rho x rho
    minors.  Each compression D_j(t) = det(U B(t) V) with random integer
    U, V is a Z-combination of those minors (Cauchy-Binet), hence
    divisible by their gcd, so a constant gcd of a few compressions
    certifies that no parameter value is singular.  B0 and B1 are the
    integer rows of ``bracket_form_matrix`` at g0 and g1, and
    ``_resolve_residual`` ranks a nonconstant gcd's rational roots.

    The gcd is taken modulo p = 2^30 - 35, one 30-bit CPython digit.
    Soundness holds for every prime (a smaller one sends about 1/p of the
    compressions to the exact route): the primitive gcd g of the D_j over
    Z divides every D_j, so g mod p divides their gcd mod p; and g divides
    a D_j whose leading coefficient det(C1) is nonzero mod p, so
    deg(g mod p) = deg g.  A constant gcd mod p with one such D_j
    therefore proves g constant.  A compression with det(C1) = 0 mod p
    is interpolated over Z and reduced (it anchors the same way when its
    leading coefficient survives); a line whose gcd mod p stays
    nonconstant through 12 compressions is decided by the exact primitive
    gcd of the same compressions.

    Each D_j mod p is det(C1) charpoly(-C1^-1 C0): a Gauss-Jordan pass
    and a Hessenberg reduction on one int per row of [C1 | C0], then of X,
    so a step is O(rho) int operations.  A lane holds an entry plus a
    bias, a multiple of p above 9 sum|B| >= |C_ij|.  The fold
    x -> (x & lo) + c ((x >> k) & hi), k = p.bit_length(), c = 2^k - p,
    keeps each lane's residue; a fixed number of folds brings pivot
    rows, X and the recurrence polynomials below q = 2^(k+1).  Lanes stay
    at most 2 bias + rho p q in the solve, q + rho p^2 + rho p (q + rho p^2)
    in the Hessenberg step and q + (rho+1) p q in the recurrence; the
    width w is the bit length of the largest plus a guard bit.

    No generic-rank test of the line comes first: both routes to a
    certificate need a D_j that is not identically zero, which proves
    rank B(t) >= rho at all but finitely many t.  A line inside the
    singular locus makes every D_j vanish and ends as "no usable
    compression found".
    """
    rho = model.dim - model.rank
    if rho == 0:
        # abelian bracket form: every linear function is regular
        return [(True, 0, 0, "abelian: empty singular locus")] * lines
    rng = random.Random(seed)
    probes = []
    for _ in range(lines):
        g0 = random_functional(model, rng)
        for _ in range(11):
            g1 = random_functional(model, rng)
            if bareiss([list(g0.nums), list(g1.nums)])[0] == 2:
                break
        else:
            probes.append((False, None, 0, "degenerate direction"))
            continue
        B0 = bracket_form_matrix(model, g0).rows
        B1 = bracket_form_matrix(model, g1).rows
        clean, drawn = _compress_line(B0, B1, rho, rng, budget=12)
        used = len(drawn)
        if clean:
            probes.append((True, 0, used, ""))
            continue
        gcd_poly: list[int] | None = None
        for lanes, rows in drawn:
            dpoly = _pencil_exact(*lanes.decode(rows))
            if dpoly:
                gcd_poly = dpoly if gcd_poly is None else _poly_gcd(gcd_poly, dpoly)
        if gcd_poly is None:
            probes.append((False, None, used, "no usable compression found"))
        elif len(gcd_poly) == 1:
            probes.append((True, 0, used, ""))
        else:
            probes.append(_resolve_residual(gcd_poly, B0, B1, rho, used))
    return probes


def _resolve_residual(gcd_poly: list[int], B0: list[list[int]], B1: list[list[int]],
                      rho: int, used: int) -> tuple[bool, int, int, str]:
    """Classify the roots of a stabilised nonconstant compression gcd of
    the pencil B0 + t B1 of generic rank rho.

    The true minor gcd divides the residual, so the singular parameters
    are among its roots.  Each rational root t = num/den is ranked on
    the integer rows den B0 + num B1, a positive multiple of B(t), so of
    its rank; a root of full rank rho is a spurious shared factor, and a
    residual whose roots are all rational and all of lower rank is an
    exact count.
    """
    deriv = [i * x for i, x in enumerate(gcd_poly)][1:]
    sf = _poly_div_exact(gcd_poly, _poly_gcd(gcd_poly, deriv))
    degree = len(sf) - 1
    roots, complete = _rational_roots(sf)
    if not complete or len(roots) != degree:
        return False, degree, used, "residual has unresolved (irrational) root candidates"
    for t in roots:
        num, den = t.numerator, t.denominator
        if pfaffian_rank([[den * x + num * y for x, y in zip(r0, r1)]
                          for r0, r1 in zip(B0, B1)]) >= rho:
            return False, degree, used, f"spurious shared factor at t={t}; add compressions"
    return (True, len(roots), used,
            "singular parameters confirmed at t in {" + ", ".join(str(t) for t in roots) + "}")
