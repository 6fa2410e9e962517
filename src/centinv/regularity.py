"""Regular linear functions on centralisers and index certificates.

The skew form B(gamma)_{ab} = gamma([xi_a, xi_b]) drives everything:
stabiliser dimensions are exact kernel dimensions, the index is the
corank at the best sampled point, and the singular locus is probed by
exact polynomial gcds of maximal minors along random lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .centralizer import CentralizerModel, SymplecticModel, XiIndex
from .linalg import RatMatrix, bareiss, clear_denominators
from .invariants import SliceRestriction, evaluate_jacobian


@dataclass(frozen=True)
class Functional:
    """Point of the dual space in coordinates dual to the model basis."""

    coords: tuple[Fraction, ...]
    provenance: str = "EXPLICIT"

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def point(self, model) -> dict[str, Fraction]:
        return dict(zip(model.var_names, self.coords))

    def scale(self, c) -> "Functional":
        c = Fraction(c)
        return Functional(tuple(c * x for x in self.coords), self.provenance)

    def plus(self, other: "Functional", provenance: str = "EXPLICIT") -> "Functional":
        return Functional(
            tuple(a + b for a, b in zip(self.coords, other.coords)), provenance)


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
    coords = [Fraction(0)] * model.dim
    for i in range(1, p.k + 1):
        idx = model.index[XiIndex(i, i, p.d[i - 1])]
        coords[idx] = Fraction(a[i - 1])
    tag = "ALPHA(" + ",".join(str(Fraction(x)) for x in a) + ")"
    return Functional(tuple(coords), tag)


def build_beta(model: CentralizerModel) -> Functional:
    """Coefficient 1 on each coordinate of xi[i+1, i, d_i]."""
    p = model.partition
    if p.k < 2:
        raise ValueError("the subdiagonal functional needs at least two blocks")
    coords = [Fraction(0)] * model.dim
    for i in range(1, p.k):
        idx = model.index[XiIndex(i + 1, i, p.d[i - 1])]
        coords[idx] = Fraction(1)
    return Functional(tuple(coords), "BETA")


def random_functional(model, rng: random.Random) -> Functional:
    coords = tuple(Fraction(rng.randint(-10, 10)) for _ in range(model.dim))
    return Functional(coords, "RANDOM")


def bracket_form_matrix(model, gamma: Functional) -> RatMatrix:
    """B(gamma)_{ab} = gamma([xi_a, xi_b]); skew-symmetric."""
    r = model.dim
    rows = [[Fraction(0)] * r for _ in range(r)]
    for (a, b), entries in model.structure.items():
        v = Fraction(0)
        for c, coeff in entries:
            g = gamma.coords[c]
            if g:
                v += coeff * g
        if v:
            rows[a][b] = v
            rows[b][a] = -v
    return RatMatrix(rows)


def stabilizer_dim(gamma: Functional, model) -> int:
    """Kernel dimension of the bracket form at gamma."""
    B = bracket_form_matrix(model, gamma)
    return model.dim - B.rank()


@dataclass
class StabilizerSpanResult:
    passed: bool
    kernel_dim: int
    expected_dim: int
    detail: str


def alpha_stabilizer_basis_check(model: CentralizerModel, a) -> StabilizerSpanResult:
    """Kernel of B(alpha) must equal the span of the block-diagonal basis."""
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
    # containment the other way is now a rank statement
    indicator = []
    for t in diag:
        row = [Fraction(0)] * model.dim
        row[t] = Fraction(1)
        indicator.append(row)
    stacked = RatMatrix(kernel + indicator)
    if stacked.rank() != expected:
        return StabilizerSpanResult(False, len(kernel), expected, "span mismatch")
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
        rk = bracket_form_matrix(model, gamma).rank()
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


def rho_scale(model: CentralizerModel, gamma: Functional, t: Fraction) -> Functional:
    """The contraction action: coordinate at xi[i,j,s] scales by t^(1 + j - i)."""
    t = Fraction(t)
    if not t:
        raise ValueError("the torus parameter must be nonzero")
    coords = tuple(
        c * t ** (1 + model.rho_weights[a]) for a, c in enumerate(gamma.coords))
    return Functional(coords, f"RHO({t})*{gamma.provenance}")


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
    if RatMatrix([gamma1.coords, gamma2.coords]).rank() != 2:
        raise ValueError("plane scan needs two independent functionals")
    half = grid // 2
    coords = range(-half, grid - half)
    failures = []
    for x in coords:
        for y in coords:
            if x == 0 and y == 0:
                continue
            gamma = gamma1.scale(x).plus(gamma2.scale(y), f"({x},{y})")
            stab = stabilizer_dim(gamma, model)
            if stab != model.rank:
                failures.append((str(x), str(y), stab))
    rho_ok = None
    if (getattr(model, "rho_weights", None) is not None
            and gamma1.provenance.startswith("ALPHA") and gamma2.provenance == "BETA"):
        rho_ok = True
        for t in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            if rho_scale(model, gamma1, t).coords != gamma1.scale(t).coords:
                rho_ok = False
            if rho_scale(model, gamma2, t).coords != gamma2.coords:
                rho_ok = False
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
    beta = build_beta(gl)
    coords = list(beta.coords)
    d = p.d
    real = gl.realization
    gamma_terms = []
    torus_ok = True
    for i in range(1, p.k):
        ip = sp.pairing[i]
        inext = sp.pairing[i + 1]
        if ip == i + 1:
            continue
        num = sp.J.rows[real.pos[(i + 1, 0)]][real.pos[(inext, d[i])]]
        den = sp.J.rows[real.pos[(i, d[i - 1])]][real.pos[(ip, 0)]]
        idx = XiIndex(ip, inext, d[i])
        a = gl.index[idx]
        coeff = -num / den
        coords[a] += coeff
        exponent = 1 + gl.rho_weights[a]
        if exponent < 2:
            torus_ok = False
        gamma_terms.append({
            "i": i, "coordinate": idx.label(), "coefficient": str(coeff),
            "torus_exponent": exponent,
        })
    ambient = Functional(tuple(coords), "BETA_PRIME_SUM")
    vanish = all(
        sum(c * g for c, g in zip(row, ambient.coords) if c) == 0
        for row in sp.odd_part_basis
    )
    restricted = Functional(tuple(sp.fixed.restrict_dual(ambient.coords)),
                            "BETA_PRIME_SUM")
    return BetaPrimeResult(
        ambient=ambient,
        restricted=restricted,
        gamma_terms=gamma_terms,
        vanishes_on_odd_part=vanish,
        torus_exponents_ok=torus_ok,
        nonzero=not ambient.is_zero(),
    )


def restrict_alpha_to_fixed(sp: SymplecticModel, a=None) -> Functional:
    """Block-scalar functional with a_{i'} = -a_i, restricted to the sp part."""
    if a is None:
        a = default_alpha_coefficients(sp)
    alpha = build_alpha(sp.gl, a)
    return Functional(tuple(sp.fixed.restrict_dual(alpha.coords)), alpha.provenance)


def alpha_vanishes_on_odd_part(sp: SymplecticModel, a=None) -> bool:
    if a is None:
        a = default_alpha_coefficients(sp)
    alpha = build_alpha(sp.gl, a)
    return all(
        sum(c * g for c, g in zip(row, alpha.coords) if c) == 0
        for row in sp.odd_part_basis
    )


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
    all_rows = evaluate_jacobian(sr.initial, model.var_names, at.point(model))
    chosen: list[int] = []
    rows: list[list[Fraction]] = []
    rank = 0
    for ell in range(sr.count):
        cand = rows + [all_rows[ell]]
        new_rank = RatMatrix(cand).rank()
        if new_rank > rank:
            rows.append(all_rows[ell])
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
    rows = evaluate_jacobian([sr.initial[ell] for ell in gens],
                             model.var_names, gamma.point(model))
    jac_rank = RatMatrix(rows).rank()
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


def _to_primitive_int(c: list[Fraction]) -> list[int]:
    return _primitive(clear_denominators(c)[0])


def _poly_gcd(a_frac: list[Fraction], b_frac: list[Fraction]) -> list[Fraction]:
    """Gcd of rational polynomials via a primitive pseudo-remainder sequence.

    Content is stripped after every pseudo-division step, which keeps the
    integer coefficients from exploding.
    """
    a = _to_primitive_int(list(a_frac))
    b = _to_primitive_int(list(b_frac))
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
    return [Fraction(x) for x in a]


def _interpolate(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Lagrange interpolation; returns coefficient list, low degree first."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis[:]
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        f = yi / denom
        for t, b in enumerate(basis):
            coeffs[t] += f * b
    return _trim(coeffs)


@dataclass
class LineProbe:
    certified: bool
    singular_values: int | None
    minors_used: int
    detail: str


def _int_poly_derivative(c: list[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _int_poly_eval(c: list[int], num: int, den: int) -> int:
    """den^deg times the value at num/den; integral for integral c."""
    deg = len(c) - 1
    return sum(c[i] * num ** i * den ** (deg - i) for i in range(len(c)))


def _rational_roots(c: list[int]) -> tuple[list[Fraction], bool]:
    """Distinct rational roots; flag says the factorisation was complete.

    Linear and quadratic (squarefree) parts are solved exactly; higher
    degrees are deflated by integer roots from a bounded scan first.
    """
    from math import isqrt

    roots: list[Fraction] = []
    poly = list(c)
    # deflate integer roots found by a bounded scan
    changed = True
    while changed and len(poly) > 3:
        changed = False
        for t in range(-64, 65):
            if _int_poly_eval(poly, t, 1) == 0:
                roots.append(Fraction(t))
                poly = _deflate(poly, t)
                changed = True
                break
    if len(poly) == 1:
        return sorted(set(roots)), True
    if len(poly) == 2:
        roots.append(Fraction(-poly[0], poly[1]))
        return sorted(set(roots)), True
    if len(poly) == 3:
        a0, a1, a2 = poly
        disc = a1 * a1 - 4 * a0 * a2
        if disc < 0:
            return sorted(set(roots)), True  # conjugate pair, no real rational roots
        s = isqrt(disc)
        if s * s == disc:
            roots.append(Fraction(-a1 + s, 2 * a2))
            roots.append(Fraction(-a1 - s, 2 * a2))
            return sorted(set(roots)), True
        return sorted(set(roots)), True  # irrational pair; no rational roots
    return sorted(set(roots)), False


def _deflate(c: list[int], root: int) -> list[int]:
    """Divide by (x - root) for an integer root; the quotient is integral."""
    return [int(x) for x in _poly_div_exact(c, [Fraction(-root), Fraction(1)])]


@dataclass
class LineProbeReport:
    lines: list[LineProbe]
    all_clean: bool


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def singular_locus_probe(model, lines: int = 10, seed: int = 0,
                         minor_budget: int = 12) -> LineProbeReport:
    """Count singular parameter values on random lines in the dual space.

    A parameter is singular when the bracket form drops below its
    generic rank rho.  Along a line those parameters are the common
    roots of all rho x rho minors.  Each interpolated compression
    det(U B(t) V) with random integer U, V is a linear combination of
    those minors (Cauchy-Binet), hence divisible by their gcd; driving
    the gcd of a few compressions to a constant therefore certifies
    that no parameter value is singular.
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
        g1 = random_functional(model, rng)
        retries = 0
        while RatMatrix([g0.coords, g1.coords]).rank() != 2 and retries < 10:
            g1 = random_functional(model, rng)
            retries += 1
        if RatMatrix([g0.coords, g1.coords]).rank() != 2:
            probes.append(LineProbe(False, None, 0, "degenerate direction"))
            continue
        B0 = [[int(x) for x in row] for row in bracket_form_matrix(model, g0).rows]
        B1 = [[int(x) for x in row] for row in bracket_form_matrix(model, g1).rows]

        def b_at(t: int) -> list[list[int]]:
            return [[B0[i][j] + t * B1[i][j] for j in range(r)] for i in range(r)]

        generic_ok = any(RatMatrix(b_at(t)).rank() == rho for t in range(3))
        if not generic_ok:
            probes.append(LineProbe(False, None, 0, "line misses the regular locus"))
            continue

        gcd_poly: list[Fraction] | None = None
        used = 0
        certified = False
        for _ in range(minor_budget):
            U = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rho)]
            V = [[rng.randint(-3, 3) for _ in range(rho)] for _ in range(r)]
            C0 = _int_matmul(_int_matmul(U, B0), V)
            C1 = _int_matmul(_int_matmul(U, B1), V)
            nodes = []
            for t in range(rho + 1):
                comp = [[C0[i][j] + t * C1[i][j] for j in range(rho)] for i in range(rho)]
                nodes.append((Fraction(t), bareiss(comp)[1]))
            dpoly = _interpolate(nodes)
            used += 1
            if not dpoly:
                continue
            gcd_poly = dpoly if gcd_poly is None else _poly_gcd(gcd_poly, dpoly)
            if gcd_poly and len(gcd_poly) == 1:
                certified = True
                break
        if certified:
            probes.append(LineProbe(True, 0, used, ""))
        elif gcd_poly is None:
            probes.append(LineProbe(False, None, used, "no usable compression found"))
        else:
            probes.append(_resolve_residual(gcd_poly, B0, B1, rho, used))
    return LineProbeReport(probes, all(pr.certified and pr.singular_values == 0
                                       for pr in probes))


def _resolve_residual(gcd_poly: list[Fraction], B0, B1, rho: int,
                      used: int) -> LineProbe:
    """Classify the roots of a stabilised nonconstant compression gcd.

    The true minor gcd divides the residual, so the singular parameters
    are among its roots; exact rank tests at the rational roots decide
    them, and a fully decided residual is an exact count.
    """
    r = len(B0)
    g_int = _to_primitive_int(gcd_poly)
    deriv = _int_poly_derivative(g_int)
    sf = _to_primitive_int(_poly_div_exact(g_int, _poly_gcd(
        [Fraction(x) for x in g_int], [Fraction(x) for x in deriv])))
    degree = len(sf) - 1
    roots, complete = _rational_roots(sf)
    if not complete or len(roots) != degree:
        return LineProbe(False, degree, used,
                         "residual has unresolved (irrational) root candidates")
    for t in roots:
        mat = RatMatrix([[Fraction(B0[i][j]) + t * B1[i][j] for j in range(r)]
                         for i in range(r)])
        if mat.rank() >= rho:
            return LineProbe(False, degree, used,
                             f"spurious shared factor at t={t}; add compressions")
    return LineProbe(True, len(roots), used,
                     "singular parameters confirmed at t in "
                     + "{" + ", ".join(str(t) for t in roots) + "}")


def _poly_div_exact(a: list[int], b_frac: list[Fraction]) -> list[Fraction]:
    """Exact quotient a / b for univariate polynomials (b divides a)."""
    b = _to_primitive_int(list(b_frac))
    a_work = [Fraction(x) for x in a]
    db = len(b) - 1
    out = [Fraction(0)] * (len(a) - db)
    for i in range(len(a_work) - 1, db - 1, -1):
        coeff = a_work[i] / b[-1]
        out[i - db] = coeff
        if coeff:
            for t in range(db + 1):
                a_work[i - db + t] -= coeff * b[t]
    return out
