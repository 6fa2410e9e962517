"""Initial components of adjoint invariants on the slice e + g_f.

The sums of principal minors of a generic slice point are expanded
exactly: characteristic-polynomial coefficients via a subset dynamic
programme over columns, run on integers.  The slice entries are cleared
once by D, the lcm of their denominators, and e_l(M) = e_l(DM) / D^l is
handed to ``SparsePoly`` as integer numerators over D^l, the format every
integer kernel here reads back without clearing.  Their lowest-degree
homogeneous parts are the distinguished elements of S(g_e) whose
structural properties the rest of the toolkit certifies: Poisson
centrality, monomial support, the signed-permutation expansion, and
agreement with the top coefficient of the expansion of an invariant
along the opposite nilpotent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from .centralizer import (
    CentralizerModel,
    SymplecticModel,
    _combination,
    _sparse_commutator,
    trace_dual,
    xi_shift_range,
)
from .linalg import RatMatrix, bareiss, sparse_rref
from .partitions import vectors_with_total
from .poly import SparsePoly, _MASK, _MAX_EXP, _WIDTH, _accumulate_product, _key_degree


class BudgetExceededError(RuntimeError):
    """Symbolic stage refused: dimension above the configured budget."""

    def __init__(self, n: int, budget: int, what: str = "symbolic expansion"):
        super().__init__(f"{what} needs n={n} but the budget is {budget}")
        self.n = n
        self.budget = budget


# -- characteristic polynomial over sparse-poly entries -------------------


def char_poly_terms(entries: list[list[dict]], t_key: int) -> dict:
    """Term dict of det(t*Id - M) for a matrix of term-dict entries.

    Rows and columns are permuted symmetrically so sparse rows are
    expanded first; the expansion runs over column subsets.  The ``t``
    diagonal and the seed are ``int``, so integer entries keep every
    product on ZZ (``principal_minor_sum_polys`` clears them first).
    """
    n = len(entries)
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if entries[i][j]))
    A: list[list[dict]] = []
    for i in order:
        row = []
        for j in order:
            ent = {k: -c for k, c in entries[i][j].items()}
            if i == j:
                ent[t_key] = ent.get(t_key, 0) + 1
                if not ent[t_key]:
                    del ent[t_key]
            row.append(ent)
        A.append(row)
    level: dict[int, dict] = {0: {0: 1}}
    for j in range(1, n + 1):
        nxt: dict[int, dict] = {}
        row = A[j - 1]
        for mask, poly in level.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                ent = row[c]
                if not ent:
                    continue
                pos = (mask & (bit - 1)).bit_count() + 1
                acc = nxt.setdefault(mask | bit, {})
                _accumulate_product(acc, poly, ent, (j + pos) & 1)
        level = {m: t for m, t in nxt.items() if t}
    return level.get((1 << n) - 1, {})


def principal_minor_sum_polys(entries: list[list[dict]],
                              variables: tuple[str, ...]) -> list[SparsePoly]:
    """All n sums of principal minors of the matrix, as polynomials.

    ``variables`` lists the coordinate names; the characteristic
    variable is appended internally and eliminated again.  The expansion
    runs on D * M, D the lcm of the entry denominators, and the l-th sum
    is e_l(DM) over the denominator D^l.
    """
    n = len(entries)
    t_index = len(variables)
    t_key = 1 << (_WIDTH * t_index)
    # every product is of n entries of degree <= top (t counts as 1), so
    # the packed degrees stay below _MAX_EXP as _key_degree needs
    top = max((_key_degree(k) for row in entries for ent in row for k in ent), default=0)
    if n * max(top, 1) >= _MAX_EXP:
        raise ValueError("minor sums exceed the packed-exponent capacity")
    D = lcm(*(c.denominator for row in entries for ent in row for c in ent.values()))
    cleared = [[{k: c.numerator * (D // c.denominator) for k, c in ent.items()}
                for ent in row] for row in entries]
    char_terms = char_poly_terms(cleared, t_key)
    shift = _WIDTH * t_index
    # e_l(DM) is (-1)^l times the coefficient of t^(n - l)
    buckets: list[dict] = [dict() for _ in range(n + 1)]
    for k, c in char_terms.items():
        power = (k >> shift) & _MASK
        buckets[power][k - (power << shift)] = -c if (n - power) % 2 else c
    return [SparsePoly(variables, buckets[n - ell], D ** ell) for ell in range(1, n + 1)]


# -- slice restrictions ----------------------------------------------------


@dataclass
class SliceRestriction:
    """Minor sums restricted to the slice, with their initial terms."""

    var_names: tuple[str, ...]
    full: list[SparsePoly]
    initial: list[SparsePoly]
    degrees: list[int]
    kazhdan_homogeneous: list[bool]

    @property
    def count(self) -> int:
        return len(self.full)


def _slice_entries(e: dict, duals: list[dict], n: int) -> list[list[dict]]:
    """Term dicts of e + sum_a x_a duals[a], entry by entry, from the
    sparse matrices: the constant first, then the coordinates in order."""
    entries: list[list[dict]] = [[dict() for _ in range(n)] for _ in range(n)]
    for (i, j), c in e.items():
        entries[i][j][0] = c
    for a, mat in enumerate(duals):
        key = 1 << (_WIDTH * a)
        for (i, j), v in mat.items():
            entries[i][j][key] = v
    return entries


def _kazhdan_check(poly: SparsePoly, weights, expected: int) -> bool:
    """Every monomial satisfies sum_a m_a (wt_a + 2) = 2 * expected.

    Read straight from the packed keys: with masks[c] the lanes of the
    coordinates of weight c - 2, ``_key_degree(key & masks[c])`` is their
    degree, so each monomial costs one mask per distinct weight.
    """
    masks: dict[int, int] = {}
    for a, w in enumerate(weights):
        masks[w + 2] = masks.get(w + 2, 0) | (_MASK << (_WIDTH * a))
    target = 2 * expected
    for key in poly.terms:
        if sum(c * _key_degree(key & mask) for c, mask in masks.items()) != target:
            return False
    return True


def principal_minor_sums(model: CentralizerModel, budget: int = 8) -> SliceRestriction:
    """Expand the n minor sums on e + g_f in the trace-dual coordinates."""
    p = model.partition
    if p.n > budget:
        raise BudgetExceededError(p.n, budget, "slice expansion")
    entries = _slice_entries(model.realization.e, model.gf_dual, p.n)
    polys = principal_minor_sum_polys(entries, model.var_names)
    initial = [q.lowest_degree_component() for q in polys]
    degrees = [q.total_degree() for q in initial]
    kazh = [
        _kazhdan_check(q, model.h_weights, ell)
        for ell, q in enumerate(polys, start=1)
    ]
    return SliceRestriction(var_names=model.var_names, full=polys, initial=initial,
                            degrees=degrees, kazhdan_homogeneous=kazh)


def symplectic_minor_sums(sp: SymplecticModel, budget: int = 8) -> SliceRestriction:
    """Even minor sums on the symplectic slice e + (g_f cap sp).

    The odd minor sums must vanish identically there; this is asserted.
    """
    p = sp.partition
    if p.n > budget:
        raise BudgetExceededError(p.n, budget, "symplectic slice expansion")
    fixed = sp.fixed
    entries = _slice_entries(sp.gl.realization.e, sp.gf_dual, p.n)
    polys = principal_minor_sum_polys(entries, fixed.var_names)
    for ell in range(1, p.n + 1, 2):
        if not polys[ell - 1].is_zero():
            raise ArithmeticError(f"odd minor sum {ell} does not vanish on the sp slice")
    even = [polys[2 * i - 1] for i in range(1, p.n // 2 + 1)]
    initial = [q.lowest_degree_component() for q in even]
    degrees = [q.total_degree() for q in initial]
    weights = fixed.h_weights
    kazh = [
        weights is not None and _kazhdan_check(q, weights, 2 * i)
        for i, q in enumerate(even, start=1)
    ]
    return SliceRestriction(var_names=fixed.var_names, full=even, initial=initial,
                            degrees=degrees, kazhdan_homogeneous=kazh)


# -- Poisson structure ------------------------------------------------------


def poisson_bracket(P: SparsePoly, Q: SparsePoly, model) -> SparsePoly:
    """Linear Poisson bracket of S(g_e): {x_a, x_b} = [xi_a, xi_b] coordinates.

    The polynomial reference: it reads the structure rows ``model.rows``
    over ``model.S`` through polynomial arithmetic and shares no code with
    ``coordinate_bracket_with``.
    """
    names = model.var_names
    if P.variables != names or Q.variables != names:
        raise ValueError("polynomials are not over the model coordinates")
    dP = [P.partial_derivative(v) for v in names]
    dQ = [Q.partial_derivative(v) for v in names]
    out = SparsePoly(names)
    for a, row in enumerate(model.rows):
        for b in range(a + 1, len(row)):
            if row[b]:
                cross = dP[a] * dQ[b] - dP[b] * dQ[a]
                bracket = SparsePoly(names, {1 << (_WIDTH * c): v for c, v in row[b]}, model.S)
                out = out + cross * bracket
    return out


def coordinate_bracket_with(model, a: int, Q: SparsePoly) -> SparsePoly:
    """{x_a, Q} = sum_b dQ/dx_b * [xi_a, xi_b] in one pass over Q's terms.

    Runs on the structure rows ``model.rows`` (over ``model.S``) and Q's
    numerators (over ``Q.den``), so the integer sum is the numerator of
    {x_a, Q} over S * Q.den.
    """
    row, S = model.rows[a], model.S
    acc: dict[int, int] = {}
    for key, (factors, coeff, _) in zip(Q.terms, Q.factored_terms()):
        for b, e in factors:
            base, w = key - (1 << (_WIDTH * b)), e * coeff
            for c, v in row[b]:
                k = base + (1 << (_WIDTH * c))
                acc[k] = acc.get(k, 0) + w * v
    return SparsePoly(model.var_names, acc, S * Q.den)


def coadjoint_exp(model, a: int, gamma: list[int]) -> tuple[list[int], int]:
    """(nums, den) of exp(-ad xi_a)^T gamma, ad xi_a nilpotent, gamma integer.

    (ad xi_a)^T gamma is the functional b -> gamma([xi_a, xi_b]), so on
    the structure rows the finite series is sum_k (-1)^k v_k / (k! S^k)
    with v_0 = gamma and v_{k+1}[b] = sum_c rows[a][b]_c * v_k[c]; it is
    summed over the common denominator k! S^k as it goes, unreduced.
    """
    row, S = model.rows[a], model.S
    num, den, v, k = list(gamma), 1, gamma, 0
    while True:
        v = [sum(coeff * v[c] for c, coeff in entries) for entries in row]
        if not any(v):
            return num, den
        k += 1
        sign = -1 if k % 2 else 1
        num = [k * S * x + sign * y for x, y in zip(num, v)]
        den *= k * S


@dataclass
class CentralityResult:
    passed: bool
    failing: tuple | None          # (coordinate label, ell, bracket string)
    group_points_checked: int
    group_failures: list


def verify_centrality(sr: SliceRestriction, model, seed: int = 0) -> CentralityResult:
    """Exact {x_a, initial_ell} = 0 for all a, ell, plus a group-level probe.

    Both read the model's structure rows: the brackets through
    ``coordinate_bracket_with``, and the probe, which moves random integer
    points by exp(-ad x)^T for up to three basis elements x of positive
    ad(h) weight (nilpotent, so ``coadjoint_exp`` is a finite rational
    series), five points each, and compares the values of each initial
    term on integers: the moved point is v / L as ``coadjoint_exp``
    returns it, and ``_value_changes`` scales by L^M.
    """
    labels = getattr(model, "labels")
    for ell, F in enumerate(sr.initial, start=1):
        for a in range(len(model.var_names)):
            br = coordinate_bracket_with(model, a, F)
            if not br.is_zero():
                return CentralityResult(False, (labels[a], ell, str(br)), 0, [])

    rng = random.Random(seed)
    weights = model.h_weights
    group_failures: list = []
    checked = 0
    if weights is not None:
        positive = [a for a, w in enumerate(weights) if w > 0]
        r = len(model.var_names)
        for a in positive[:3]:
            for _ in range(5):
                gamma = [rng.randint(-10, 10) for _ in range(r)]
                moved, L = coadjoint_exp(model, a, gamma)
                checked += 1
                for ell, F in enumerate(sr.initial, start=1):
                    if _value_changes(F, gamma, moved, L):
                        group_failures.append((labels[a], ell))
    return CentralityResult(not group_failures, None, checked, group_failures)


def _cleared_value(F: SparsePoly, vals: list[int], L: int) -> int:
    """F.den * L^M * F(vals / L) in integers, from F's numerators
    (``factored_terms``): M = F.total_degree(), a degree-k term takes L^(M - k)."""
    top = F.total_degree()
    total = 0
    for factors, coeff, k in F.factored_terms():
        term = coeff * L ** (top - k)
        for i, e in factors:
            term *= vals[i] ** e
        total += term
    return total


def _value_changes(F: SparsePoly, gamma: list[int], moved: list[int], L: int) -> bool:
    """F(gamma) != F(moved / L) for integer points, decided on integers."""
    return L ** F.total_degree() * _cleared_value(F, gamma, 1) != _cleared_value(F, moved, L)


# -- monomial support -------------------------------------------------------


@dataclass
class MonomialSupportReport:
    per_ell: list[list[dict]]
    violations: list[tuple]

    @property
    def passed(self) -> bool:
        return not self.violations


def monomial_support_check(sr: SliceRestriction, model: CentralizerModel) -> MonomialSupportReport:
    """Check every monomial of every initial term is a permutation monomial.

    Each monomial must be squarefree with pairwise distinct lower block
    indices I, upper indices permuting I, and ad(h) weight 2(ell - |I|).
    """
    per_ell: list[list[dict]] = []
    violations: list[tuple] = []
    names = model.var_names
    for ell, F in enumerate(sr.initial, start=1):
        rows = []
        for key, (powers, _, _) in zip(F.terms, F.factored_terms()):
            exps = {names[a]: e for a, e in powers}
            factors = []
            for a, e in powers:
                idx = model.xi[a]
                if e != 1:
                    violations.append((ell, names[a], "repeated factor"))
                factors.extend([idx] * e)
            lowers = [ix.i for ix in factors]
            uppers = sorted(ix.j for ix in factors)
            weight = sum(model.h_weights[model.index[ix]] for ix in factors)
            ok_distinct = len(set(lowers)) == len(lowers)
            ok_perm = uppers == sorted(set(lowers))
            ok_weight = weight == 2 * (ell - len(factors))
            if not ok_distinct:
                violations.append((ell, str(exps), "lower indices repeat"))
            if not ok_perm:
                violations.append((ell, str(exps), "upper indices are not a permutation"))
            if not ok_weight:
                violations.append((ell, str(exps), f"weight {weight} != {2 * (ell - len(factors))}"))
            rows.append({
                "I": sorted(set(lowers)),
                "sigma": {ix.i: ix.j for ix in factors},
                "shifts": {ix.i: ix.s for ix in factors},
                "coeff": str(F.coefficient(key)),
            })
        per_ell.append(rows)
    return MonomialSupportReport(per_ell=per_ell, violations=violations)


# -- signed permutation expansion -------------------------------------------


def signed_permutation_sum(model: CentralizerModel, ell: int, m: int) -> SparsePoly:
    """Sum of sgn(sigma) * prod xi_i^{sigma(i), s_i} over supports of size m.

    Runs over subsets I of blocks with |I| = m, permutations sigma of I,
    and shift vectors with total ell - m, all factors admissible; the
    sign is the parity of the inversions of sigma.
    """
    p = model.partition
    blocks = range(1, p.k + 1)
    shift_range = {(i, j): xi_shift_range(p, i, j) for i in blocks for j in blocks}
    lane = {(x.i, x.j, x.s): 1 << (_WIDTH * a) for a, x in enumerate(model.xi)}
    signed = [(perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
              for perm in permutations(range(m))]
    acc: dict[int, int] = {}
    for I in combinations(blocks, m):
        for perm, sign in signed:
            pairs = [(I[t], I[perm[t]]) for t in range(m)]
            for shifts in vectors_with_total([shift_range[ij] for ij in pairs], ell - m):
                key = sum(lane[i, j, s] for (i, j), s in zip(pairs, shifts))
                acc[key] = acc.get(key, 0) + sign
    return SparsePoly(model.var_names, acc)


@dataclass
class ProportionalityResult:
    passed: bool
    ratios: list[Fraction | None]
    first_failure: int | None


def conjecture_explicit_check(sr: SliceRestriction, model: CentralizerModel) -> ProportionalityResult:
    """Is each initial term proportional (nonzero ratio) to the signed sum?"""
    ratios: list[Fraction | None] = []
    for ell, F in enumerate(sr.initial, start=1):
        m = sr.degrees[ell - 1]
        S = signed_permutation_sum(model, ell, m)
        if S.is_zero() or F.is_zero():
            return ProportionalityResult(False, ratios + [None], ell)
        key0 = next(iter(S.terms))
        if key0 not in F.terms:
            return ProportionalityResult(False, ratios + [None], ell)
        ratio = F.coefficient(key0) / S.coefficient(key0)
        if S.scalar_mul(ratio) != F:
            return ProportionalityResult(False, ratios + [None], ell)
        ratios.append(ratio)
    return ProportionalityResult(True, ratios, None)


# -- expansion along the opposite nilpotent ---------------------------------


@dataclass
class TopCoefficientResult:
    passed: bool
    scalars: dict[int, Fraction]
    detail: str


def top_coefficient_crosscheck(model: CentralizerModel, sr: SliceRestriction,
                               budget: int = 4) -> TopCoefficientResult:
    """Compare initial terms with top coefficients along the f direction.

    Expands the minor sums over all of gl_n in coordinates adapted to
    the splitting  K.f  +  g_e  +  (e-orthogonal part of [f, gl_n]);
    the leading coefficient in the f coordinate must involve only the
    centraliser coordinates and match the slice route up to a scalar.
    """
    p = model.partition
    n = p.n
    if n > budget:
        raise BudgetExceededError(n, budget, "full adjoint expansion")
    real = model.realization
    r = model.dim

    if not real.e:
        # zero nilpotent: the slice is the whole algebra and the initial
        # terms are the minor sums themselves; there is no f direction
        scalars = {}
        for ell in range(1, n + 1):
            if sr.full[ell - 1] != sr.initial[ell - 1]:
                return TopCoefficientResult(False, scalars,
                                            f"minor sum {ell} is not homogeneous")
            scalars[ell] = Fraction(1)
        return TopCoefficientResult(True, scalars, "zero nilpotent: identity check")

    basis_mats = [real.f] + list(model.matrices)
    # complement: e-orthogonal part of the image of ad f
    image = sparse_rref(_sparse_commutator(real.f, {(a, b): 1})
                        for a in range(n) for b in range(n))
    # the trace with e is a linear condition on the image of ad f
    cond = [sum(v * real.e.get((j, i), 0) for (i, j), v in row.items()) for row in image]
    basis_mats += [_combination((c, image[t]) for t, c in enumerate(vec) if c)
                   for vec in RatMatrix([cond]).kernel_basis()]
    if len(basis_mats) != n * n:
        raise ArithmeticError("adapted basis of gl_n has wrong size")

    var_names = model.var_names + ("zf",) + tuple(
        f"w{t + 1}" for t in range(n * n - 1 - r))
    # the dual of f is zf, which sits after the centraliser coordinates
    duals = trace_dual(basis_mats, basis_mats)
    entries = _slice_entries({}, duals[1:r + 1] + duals[:1] + duals[r + 1:], n)
    polys = principal_minor_sum_polys(entries, var_names)

    scalars: dict[int, Fraction] = {}
    for ell in range(1, n + 1):
        P = polys[ell - 1]
        K = P.max_exponent("zf")
        p0 = P.coefficient_of("zf", K)
        if K != ell - sr.degrees[ell - 1]:
            return TopCoefficientResult(False, scalars,
                                        f"f-degree {K} at minor sum {ell}")
        # the coefficient of zf^K has no zf (lane r), so a key with a
        # lane from r on holds a w coordinate
        if any(k >> (_WIDTH * r) for k in p0.terms):
            return TopCoefficientResult(False, scalars,
                                        f"top coefficient of {ell} leaves the centraliser")
        reduced = SparsePoly(model.var_names, p0.terms, p0.den)
        F = sr.initial[ell - 1]
        key0 = next(iter(F.terms))
        if key0 not in reduced.terms:
            return TopCoefficientResult(False, scalars, f"support mismatch at {ell}")
        ratio = reduced.coefficient(key0) / F.coefficient(key0)
        if F.scalar_mul(ratio) != reduced:
            return TopCoefficientResult(False, scalars, f"not proportional at {ell}")
        scalars[ell] = ratio
    return TopCoefficientResult(True, scalars, "")


# -- algebraic independence --------------------------------------------------


def evaluate_jacobian(polys, nums, den: int = 1) -> list[list[int]]:
    """Integer rows, one pass per polynomial: each row is a positive
    multiple of the gradient row at the point nums / den (positive row
    multiple; rank only).

    The point comes as integer numerators over one denominator D = den > 0,
    the form of a ``regularity.Functional``, and each polynomial is read
    as its numerators (``SparsePoly.factored_terms``).  A polynomial over
    a different number of coordinates is a ValueError.  Scaling a term of
    degree k by D^(M - k), M the top degree, turns the row into
    P.den * D^(M - 1) times the gradient.  Each monomial is
    evaluated once and feeds every partial it touches; variables with
    value zero are handled exactly (a monomial with two zero factors
    contributes to no partial, one zero factor of exponent one
    contributes only to that partial).
    """
    rows = []
    for P in polys:
        if len(P.variables) != len(nums):
            raise ValueError(f"polynomial in {len(P.variables)} coordinates "
                             f"at a point with {len(nums)}")
        top = P.total_degree()
        scale = [den ** (top - k) for k in range(top + 1)]
        row = [0] * len(nums)
        for factors, coeff, k in P.factored_terms():
            zeros = [(i, e) for (i, e) in factors if not nums[i]]
            if len(zeros) >= 2:
                continue
            prod = coeff * scale[k]
            if len(zeros) == 1:
                i0, e0 = zeros[0]
                if e0 == 1:
                    for i, e in factors:
                        if i != i0:
                            prod *= nums[i] ** e
                    row[i0] += prod
                continue
            for i, e in factors:
                prod *= nums[i] ** e
            for i, e in factors:
                row[i] += prod // nums[i] * e
        rows.append(row)
    return rows


def initial_algebra_rank(sr: SliceRestriction, model, seed: int = 0) -> int:
    """Generic rank of the Jacobian of the initial terms (expected: rank),
    the best of three random points."""
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        nums = [rng.randint(-10, 10) for _ in model.var_names]
        best = max(best, bareiss(evaluate_jacobian(sr.initial, nums))[0])
    return best
