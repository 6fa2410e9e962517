"""Initial components of adjoint invariants on the slice e + g_f.

The sums of principal minors of a generic slice point are expanded
exactly, on integers: det(t Id - M) by Laplace along its top half of
rows, each half's minors by a subset expansion over columns, the lower
half only on column sets that a nonzero upper minor leaves free, and each
product of two matched minors sorted by its power of t straight into
e_l(M).  The slice entries are cleared once by D, the lcm of their
denominators, and e_l(M) = e_l(DM) / D^l is handed to ``SparsePoly`` as
integer numerators over D^l, the format every integer kernel here reads
back without clearing.  Their lowest-degree
homogeneous parts (a homogeneous sum is its own, and degrees and Kazhdan
weights are read off the packed keys in C) are the distinguished elements of S(g_e) whose
structural properties the rest of the toolkit certifies: Poisson
centrality, monomial support, the signed-permutation expansion, and
agreement with the top coefficient of the expansion of an invariant
along the opposite nilpotent.  The signed sums are read off e_m(Y) for
the k x k block matrix Y of the coordinates (``signed_sums``).  The
brackets they need read the model's integer structure table ``rows``.
Each check returns what its certificate reports, and ``runner`` derives
the verdict: ``verify_centrality`` gives (failing bracket, points
probed, group failures), ``monomial_support_check`` the violations,
``conjecture_explicit_check`` the ratios, ending in None at the first
failure, ``kazhdan_homogeneous`` one flag per minor sum, and
``top_coefficient_crosscheck`` (passed, scalars, detail).  No expansion
here takes a budget: ``runner`` refuses a partition above its budget
before it asks for one.

The gradient rows of all initial terms at an integer point nums come from
``jacobian_rows(sr, nums)`` by one of two routes, picked per call
from a cost estimate of the input: ``evaluate_jacobian`` expands the
terms, and ``slice_matrix_rows`` reads them off the n x n slice matrix,
which the ``SliceRestriction`` keeps, by Faddeev-LeVerrier at
l - d_l + 1 interpolation nodes.  Both give integer rows that are positive multiples
of the gradient rows, so every rank is the same on either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import mul

from .centralizer import (
    CentralizerModel,
    SymplecticModel,
    _combination,
    _sparse_commutator,
    trace_dual,
)
from .linalg import sparse_rref
from .poly import SparsePoly, _MASK, _MAX_EXP, _WIDTH, _accumulate_product, _key_degree


# -- characteristic polynomial over sparse-poly entries -------------------


def _minors(A: list[list[dict]], rows: range, viable: set | None = None) -> dict[int, dict]:
    """{column mask: det of A[rows, mask]} over the nonzero minors.

    The rows are expanded one at a time over their nonzero cells; placing
    column c after the columns already used gives one inversion per used
    column to its right.  With ``viable`` given, a partial column set
    outside it is dropped.
    """
    level: dict[int, dict] = {0: {0: 1}}
    for i in rows:
        # -(bit << 1) masks the columns to the right of the cell's
        cells = [(1 << c, -(2 << c), ent) for c, ent in enumerate(A[i]) if ent]
        nxt: dict[int, dict] = {}
        for mask, poly in level.items():
            for bit, right, ent in cells:
                if mask & bit:
                    continue
                new = mask | bit
                if viable is not None and new not in viable:
                    continue
                acc = nxt.get(new)
                if acc is None:
                    acc = nxt[new] = {}
                _accumulate_product(acc, poly, ent, (mask & right).bit_count() & 1)
        level = {m: t for m, t in nxt.items() if t}
    return level


def _by_power(terms: dict, shift: int) -> dict[int, dict]:
    """Split a term dict by the power of its top lane, the lane from
    ``shift`` on, into {power: term dict without it}."""
    out: dict[int, dict] = {}
    for k, c in terms.items():
        power = k >> shift
        part = out.get(power)
        if part is None:
            part = out[power] = {}
        part[k - (power << shift)] = c
    return out


def char_poly_terms(entries: list[list[dict]], t_key: int) -> list[dict]:
    """Term dicts of e_0(M), ..., e_n(M) for a matrix of term-dict entries.

    e_l(M) is (-1)^l times the coefficient of t^(n - l) in det(t*Id - M),
    t the lane of ``t_key``, which no entry may carry.  Rows and columns
    are permuted symmetrically so sparse rows come first, and A = M - t*Id
    (sharing the off-diagonal entries) is expanded by Laplace along its top
    h = n // 2 rows: det A = sum_T (-1)^cross(T) top(T) * bottom(T^c), the
    minors of the top rows on the columns T and of the other rows on the
    rest, cross(T) the number of pairs u < v with v in T and u not.  The
    bottom rows expand only column sets inside the complement of some
    nonzero top minor.  Each matched pair is split by the power of t, and
    the product of the parts of powers a and b goes straight to e_l,
    l = n - a - b, with sign (-1)^(cross + a + b), which folds in
    det(t*Id - M) = (-1)^n det A.  The ``t`` diagonal and the seed are
    ``int``, so integer entries keep every product on ZZ
    (``principal_minor_sum_polys`` clears them first).
    """
    n = len(entries)
    shift = t_key.bit_length() - 1
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if entries[i][j]))
    A: list[list[dict]] = []
    for pos, i in enumerate(order):
        row = [entries[i][j] for j in order]
        row[pos] = {**entries[i][i], t_key: -1}
        A.append(row)
    h = n // 2
    full = (1 << n) - 1
    top = _minors(A, range(h))
    # every submask of every complement, so each partial bottom set is tested
    viable = set()
    for T in top:
        comp = sub = full ^ T
        while True:
            viable.add(sub)
            if not sub:
                break
            sub = (sub - 1) & comp
    bottom = _minors(A, range(h, n), viable)
    out: list[dict] = [dict() for _ in range(n + 1)]
    for T, upper in top.items():
        lower = bottom.get(full ^ T)
        if lower is None:
            continue
        cross = sum((~T & ((1 << v) - 1)).bit_count() for v in range(n) if T >> v & 1)
        lows = _by_power(lower, shift).items()
        for a, ua in _by_power(upper, shift).items():
            for b, lb in lows:
                _accumulate_product(out[n - a - b], lb, ua, (cross + a + b) & 1)
    return out


def principal_minor_sum_polys(entries: list[list[dict]],
                              variables: tuple[str, ...]) -> list[SparsePoly]:
    """All n sums of principal minors of the matrix, as polynomials.

    ``variables`` lists the coordinate names; the characteristic
    variable t takes the lane after them inside ``char_poly_terms``,
    whose output does not carry it.  The expansion runs on D * M, D
    the lcm of the entry denominators, and the l-th sum is e_l(DM) over
    the denominator D^l.
    """
    n = len(entries)
    t_key = 1 << (_WIDTH * len(variables))
    # every product is of n entries of degree <= top (t counts as 1), so
    # the packed degrees stay below _MAX_EXP as _key_degree needs
    top = max((_key_degree(k) for row in entries for ent in row for k in ent), default=0)
    if n * max(top, 1) >= _MAX_EXP:
        raise ValueError("minor sums exceed the packed-exponent capacity")
    D = lcm(*(c.denominator for row in entries for ent in row for c in ent.values()))
    cleared = [[{k: c.numerator * (D // c.denominator) for k, c in ent.items()} if ent else ent
                for ent in row] for row in entries]
    sums = char_poly_terms(cleared, t_key)
    return [SparsePoly(variables, sums[ell], D ** ell) for ell in range(1, n + 1)]


# -- slice restrictions ----------------------------------------------------


@dataclass
class SliceRestriction:
    """Minor sums restricted to the slice, with their initial terms.

    It keeps the slice it was built from: the n x n matrix
    e + sum_a x_a gf_dual[a], whose sums of principal minors of the sizes
    ``minor_sizes`` are ``full``; ``jacobian_rows`` reads them.
    """

    full: list[SparsePoly]
    initial: list[SparsePoly]
    degrees: list[int]
    e: dict
    gf_dual: list[dict]
    n: int
    minor_sizes: list[int]

    @cached_property
    def cleared_duals(self) -> tuple[int, list[dict]]:
        """(L, [L * gf_dual[a]]): L the lcm of the denominators, entries int."""
        L = lcm(*(v.denominator for mat in self.gf_dual for v in mat.values()))
        return L, [{ij: int(v * L) for ij, v in mat.items()} for mat in self.gf_dual]


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


def _kazhdan_check(poly: SparsePoly, initial: SparsePoly, weights, expected: int) -> bool:
    """Every monomial satisfies sum_a m_a (wt_a + 2) = 2 * expected.

    With masks[c] the lanes of weight c - 2, ``_key_degree(key & masks[c])``
    is their degree.  With one class the sum is c * degree, read off the
    cached degrees of ``poly`` and its ``initial`` term; otherwise the sums
    are formed in C.
    """
    masks: dict[int, int] = {}
    for a, w in enumerate(weights):
        masks[w + 2] = masks.get(w + 2, 0) | (_MASK << (_WIDTH * a))
    target = 2 * expected
    d = poly.total_degree()
    if len(masks) == 1:
        return d == initial.total_degree() and (d < 0 or next(iter(masks)) * d == target)
    sums = [map(c.__mul__, map(_MASK.__rmod__, map(mask.__and__, poly.terms)))
            for c, mask in masks.items()]
    return set(map(sum, zip(*sums))) <= {target}


def kazhdan_homogeneous(sr: SliceRestriction, model) -> list[bool]:
    """Whether each minor sum of ``sr`` is homogeneous of its size in the
    Kazhdan grading of the coordinates of ``model``."""
    return [_kazhdan_check(q, q0, model.h_weights, ell)
            for ell, q, q0 in zip(sr.minor_sizes, sr.full, sr.initial)]


def _restriction(e: dict, gf_dual: list[dict], n: int, sizes: list[int],
                 polys: list[SparsePoly]) -> SliceRestriction:
    """The minor sums ``polys`` of the sizes ``sizes`` on the slice
    e + sum_a x_a gf_dual[a], with their initial terms; each size is also
    its sum's Kazhdan degree."""
    initial = [q.lowest_degree_component() for q in polys]
    return SliceRestriction(full=polys, initial=initial,
                            degrees=[q.total_degree() for q in initial],
                            e=e, gf_dual=gf_dual, n=n, minor_sizes=sizes)


def principal_minor_sums(model: CentralizerModel) -> SliceRestriction:
    """Expand the n minor sums on e + g_f in the trace-dual coordinates."""
    n, e, gf_dual = model.partition.n, model.realization.e, model.gf_dual
    polys = principal_minor_sum_polys(_slice_entries(e, gf_dual, n), model.var_names)
    return _restriction(e, gf_dual, n, list(range(1, n + 1)), polys)


def symplectic_minor_sums(sp: SymplecticModel) -> SliceRestriction:
    """Even minor sums on the symplectic slice e + (g_f cap sp).

    The odd minor sums must vanish identically there; this is asserted.
    """
    n, e, gf_dual = sp.partition.n, sp.gl.realization.e, sp.gf_dual
    polys = principal_minor_sum_polys(_slice_entries(e, gf_dual, n), sp.var_names)
    for ell in range(1, n + 1, 2):
        if not polys[ell - 1].is_zero():
            raise ArithmeticError(f"odd minor sum {ell} does not vanish on the sp slice")
    return _restriction(e, gf_dual, n, list(range(2, n + 1, 2)), polys[1::2])


# -- Poisson structure ------------------------------------------------------


def poisson_bracket(P: SparsePoly, Q: SparsePoly, model) -> SparsePoly:
    """Linear Poisson bracket of S(g_e): {x_a, x_b} = [xi_a, xi_b] coordinates.

    The polynomial reference: it reads the integer structure rows
    ``model.rows`` through polynomial arithmetic and shares no code with
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
                bracket = SparsePoly(names, {1 << (_WIDTH * c): v for c, v in row[b]})
                out = out + cross * bracket
    return out


def term_index(Q: SparsePoly) -> dict[int, tuple[list[int], list[int]]]:
    """{b: (keys, weights)} over the variables x_b of Q: the keys of Q's
    terms that contain x_b, Q's own key objects, and for each the weight
    e * numerator, e the exponent of x_b, so that e * numerator * x^key / x_b
    is the term's part of dQ/dx_b.  Read off ``factored_terms`` once."""
    index: dict[int, tuple[list[int], list[int]]] = {}
    for key, (factors, coeff, _) in zip(Q.terms, Q.factored_terms()):
        for b, e in factors:
            entry = index.get(b)
            if entry is None:
                entry = index[b] = ([], [])
            entry[0].append(key)
            entry[1].append(coeff if e == 1 else e * coeff)
    return index


def coordinate_bracket_with(model, a: int, Q: SparsePoly,
                            index: dict[int, tuple[list[int], list[int]]]) -> SparsePoly:
    """{x_a, Q} = sum_b dQ/dx_b * [xi_a, xi_b], ``index`` being Q's
    ``term_index``.

    Only the b with a nonempty ``model.rows[a][b]`` are visited, and each
    entry (c, v) of it adds x_c / x_b, the key step 2^(16c) - 2^(16b),
    to every indexed key of x_b with weight times v.  Runs on the integer
    structure rows and Q's numerators (over ``Q.den``), so the integer sum
    is the numerator of {x_a, Q} over Q.den.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for b, entries in enumerate(model.rows[a]):
        if not entries or b not in index:
            continue
        keys, weights = index[b]
        base = 1 << (_WIDTH * b)
        for c, v in entries:
            step = (1 << (_WIDTH * c)) - base
            for key, w in zip(keys, weights):
                k = key + step
                acc[k] = get(k, 0) + w * v
    return SparsePoly(model.var_names, acc, Q.den)


def coadjoint_exp(model, a: int, gamma: list[int]) -> tuple[list[int], int]:
    """(nums, den) of exp(-ad xi_a)^T gamma, ad xi_a nilpotent, gamma integer.

    (ad xi_a)^T gamma is the functional b -> gamma([xi_a, xi_b]), so on
    the integer structure rows the finite series is sum_k (-1)^k v_k / k!
    with v_0 = gamma and v_{k+1}[b] = sum_c rows[a][b]_c * v_k[c]; it is
    summed over the common denominator k! as it goes, unreduced.
    """
    row = model.rows[a]
    num, den, v, k = list(gamma), 1, gamma, 0
    while True:
        v = [sum(coeff * v[c] for c, coeff in entries) for entries in row]
        if not any(v):
            return num, den
        k += 1
        sign = -1 if k % 2 else 1
        num = [k * x + sign * y for x, y in zip(num, v)]
        den *= k


def verify_centrality(sr: SliceRestriction, model, points) -> tuple[tuple | None, int, list]:
    """Exact {x_a, initial_ell} = 0 for all a, ell, plus a group-level probe
    at ``points``: (failing, points probed, group failures).  ``failing``
    is the first nonzero bracket as (coordinate label, ell, bracket
    string), or None, and a group failure is (coordinate label, ell).  A
    failing bracket skips the probe: 0 points, no group failures.

    F -> {x, F} is a derivation and ad [x, y] = [ad x, ad y], so the x
    with {x, F} = 0 form a Lie subalgebra, and the brackets with the
    coordinates ``model.lie_generators`` prove centrality for every
    coordinate.  Each term is indexed once (``term_index``); only a
    nonzero bracket with a generator rescans every coordinate from 0 on
    the same index.  The earlier terms commute with the generators, hence
    with every coordinate, so the failure is the first one in the order
    (ell, a).

    Both read the model's structure rows: the brackets through
    ``coordinate_bracket_with``, and the probe, which moves integer
    points by exp(-ad x)^T for up to three basis elements x of positive
    ad(h) weight (nilpotent, so ``coadjoint_exp`` is a finite rational
    series), the i-th of them points[5i:5i + 5], and compares the values
    of each initial term on integers: the moved point is v / L as
    ``coadjoint_exp`` returns it, and ``_value_changes`` scales by L^M.
    """
    for ell, F in enumerate(sr.initial, start=1):
        index = term_index(F)
        if all(coordinate_bracket_with(model, a, F, index).is_zero()
               for a in model.lie_generators):
            continue
        for a in range(len(model.var_names)):
            br = coordinate_bracket_with(model, a, F, index)
            if not br.is_zero():
                return (model.labels[a], ell, str(br)), 0, []

    group_failures: list = []
    checked = 0
    positive = [a for a, w in enumerate(model.h_weights) if w > 0]
    for i, a in enumerate(positive[:3]):
        for gamma in points[5 * i:5 * i + 5]:
            moved, L = coadjoint_exp(model, a, gamma.nums)
            checked += 1
            for ell, F in enumerate(sr.initial, start=1):
                if _value_changes(F, gamma.nums, moved, L):
                    group_failures.append((model.labels[a], ell))
    return None, checked, group_failures


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


def monomial_support_check(sr: SliceRestriction, model: CentralizerModel) -> list[tuple]:
    """The violations (ell, monomial, reason) of: every monomial of every
    initial term is a permutation monomial.

    Each monomial must be squarefree with pairwise distinct lower block
    indices I, upper indices permuting I, and ad(h) weight 2(ell - |I|).
    A monomial of degree k is read through per-coordinate tables (lower
    index i, upper index j and h-weight of xi[i,j,s]): its lower indices
    are distinct when k of them are, which also rules out a squared
    factor, and then the upper indices permute them when they sort alike.
    """
    lower = [x.i for x in model.xi]
    upper = [x.j for x in model.xi]
    weights = model.h_weights
    names = model.var_names
    violations: list[tuple] = []
    for ell, F in enumerate(sr.initial, start=1):
        for factors, _, k in F.factored_terms():
            lows = sorted({lower[a] for a, _ in factors})
            distinct = len(lows) == k
            perm = distinct and sorted(upper[a] for a, _ in factors) == lows
            weight = sum(weights[a] * e for a, e in factors)
            if perm and weight == 2 * (ell - k):
                continue
            violations += [(ell, names[a], "repeated factor") for a, e in factors if e != 1]
            exps = str({names[a]: e for a, e in factors})
            if not distinct:
                violations.append((ell, exps, "lower indices repeat"))
            if not perm:
                violations.append((ell, exps, "upper indices are not a permutation"))
            if weight != 2 * (ell - k):
                violations.append((ell, exps, f"weight {weight} != {2 * (ell - k)}"))
    return violations


# -- signed permutation expansion -------------------------------------------


def signed_sums(model: CentralizerModel) -> list[dict[int, dict]]:
    """[{power of q: term dict}] of e_0(Y), ..., e_k(Y) by one
    ``char_poly_terms`` call, Y_ij = sum_s x[i, j, s] q^s over the
    coordinates, q the lane after them and t the next.

    e_m(Y) sums sgn(sigma) prod Y_{i, sigma(i)} over m-block supports I
    and permutations sigma of I; expanding the products gives every
    admissible (I, sigma, shifts) once, so its q^(l - m) part is the signed
    sum of degree m in S^l.  A key has degree at most sum_i (1 + d_i) = n
    in the coordinates, q and t, far below ``_MAX_EXP``.
    """
    shift = _WIDTH * len(model.xi)
    k, q_key = model.partition.k, 1 << shift
    Y: list[list[dict]] = [[{} for _ in range(k)] for _ in range(k)]
    for a, x in enumerate(model.xi):
        Y[x.i - 1][x.j - 1][(1 << (_WIDTH * a)) + x.s * q_key] = 1
    return [_by_power(e, shift) for e in char_poly_terms(Y, q_key << _WIDTH)]


def conjecture_explicit_check(sr: SliceRestriction, model: CentralizerModel) -> list[Fraction | None]:
    """The ratio of each initial term to its signed sum, while both are
    nonzero and proportional; at the first term that is not, the list
    ends in None, and that term is the len(ratios)-th.  Its signed sum of
    degree m is the q^(l - m) part of e_m(Y), empty for m > k."""
    ratios: list[Fraction | None] = []
    table = signed_sums(model)
    for ell, F in enumerate(sr.initial, start=1):
        m = sr.degrees[ell - 1]
        S = SparsePoly(model.var_names, table[m].get(ell - m) if m < len(table) else None)
        key0 = next(iter(S.terms), None)
        if F.is_zero() or key0 not in F.terms:
            return ratios + [None]
        ratio = F.coefficient(key0) / S.coefficient(key0)
        if S.scalar_mul(ratio) != F:
            return ratios + [None]
        ratios.append(ratio)
    return ratios


# -- expansion along the opposite nilpotent ---------------------------------


def top_coefficient_crosscheck(model: CentralizerModel,
                               sr: SliceRestriction) -> tuple[bool, dict[int, Fraction], str]:
    """Compare initial terms with top coefficients along the f direction:
    (passed, the scalar of each term matched so far, detail).

    Expands the minor sums over all of gl_n in coordinates adapted to
    the splitting  K.f  +  g_e  +  (e-orthogonal part of [f, gl_n]);
    the leading coefficient in the f coordinate must involve only the
    centraliser coordinates and match the slice route up to a scalar.
    The detail names the first mismatch; a pass leaves it empty, except
    on the zero nilpotent, where the slice is the whole algebra and the
    check is the identity.
    """
    n = model.partition.n
    real = model.realization
    r = model.dim

    if not real.e:
        # zero nilpotent: the slice is the whole algebra and the initial
        # terms are the minor sums themselves; there is no f direction
        scalars = {}
        for ell in range(1, n + 1):
            if sr.full[ell - 1] != sr.initial[ell - 1]:
                return False, scalars, f"minor sum {ell} is not homogeneous"
            scalars[ell] = Fraction(1)
        return True, scalars, "zero nilpotent: identity check"

    basis_mats = [real.f] + list(model.matrices)
    # complement: e-orthogonal part of the image of ad f
    image = sparse_rref(_sparse_commutator(real.f, {(a, b): 1})
                        for a in range(n) for b in range(n))
    # the trace with e is a linear condition on the image of ad f
    cond = [sum(v * real.e.get((j, i), 0) for (i, j), v in row.items()) for row in image]
    # its kernel: e_j - (cond_j / cond_p) e_p for j != p, p the first nonzero
    # entry.  cond is never zero: at [f, h] it takes tr(e [f, h]) = tr(h^2) > 0.
    # A zero cond would give every e_j, and the size check below would raise
    p = next((t for t, c in enumerate(cond) if c), len(cond))
    for j, c in enumerate(cond):
        if j != p:
            pivot = [(-Fraction(c) / cond[p], image[p])] if c else []
            basis_mats.append(_combination(pivot + [(Fraction(1), image[j])]))
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
            return False, scalars, f"f-degree {K} at minor sum {ell}"
        # the coefficient of zf^K has no zf (lane r), so a key with a
        # lane from r on holds a w coordinate
        if any(k >> (_WIDTH * r) for k in p0.terms):
            return False, scalars, f"top coefficient of {ell} leaves the centraliser"
        reduced = SparsePoly(model.var_names, p0.terms, p0.den)
        F = sr.initial[ell - 1]
        key0 = next(iter(F.terms))
        if key0 not in reduced.terms:
            return False, scalars, f"support mismatch at {ell}"
        ratio = reduced.coefficient(key0) / F.coefficient(key0)
        if F.scalar_mul(ratio) != reduced:
            return False, scalars, f"not proportional at {ell}"
        scalars[ell] = ratio
    return True, scalars, ""


# -- algebraic independence --------------------------------------------------


def evaluate_jacobian(polys, nums) -> list[list[int]]:
    """Integer rows, one pass per polynomial: each row is a positive
    multiple of the gradient row at the integer point nums (positive row
    multiple; rank only).

    The point comes as the integers of a ``regularity.Functional``, and
    each polynomial is read as its numerators
    (``SparsePoly.factored_terms``), so the row is P.den times the
    gradient.  A polynomial over a different number of coordinates is a
    ValueError.  Each monomial is evaluated once and feeds every partial
    it touches; variables with value zero are handled exactly (a monomial
    with two zero factors contributes to no partial, one zero factor of
    exponent one contributes only to that partial).
    """
    rows = []
    for P in polys:
        if len(P.variables) != len(nums):
            raise ValueError(f"polynomial in {len(P.variables)} coordinates "
                             f"at a point with {len(nums)}")
        row = [0] * len(nums)
        for factors, coeff, _ in P.factored_terms():
            zeros = [(i, e) for (i, e) in factors if not nums[i]]
            if len(zeros) >= 2:
                continue
            prod = coeff
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


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def _lagrange_at_zero(m: int) -> tuple[int, ...]:
    """Weights of g(0) = sum_s w_s g(s) over the nodes s = 1..m, deg g < m:
    prod_{j != s} j / (j - s) = (-1)^(s-1) C(m, s), already integers."""
    return tuple((-1) ** (s - 1) * comb(m, s) for s in range(1, m + 1))


def _faddeev_leverrier(Z: list[list[int]], top: int) -> list[list[list[int]]]:
    """[M_1, ..., M_top] for an integer n x n matrix Z: M_1 = I and
    M_(k+1) = M_k Z - (tr(M_k Z) / k) I, so M_l = (-1)^(l-1) P_(l-1)(Z)
    and tr(M_k Z) / k = (-1)^(k-1) e_k(Z); each division is exact."""
    n = len(Z)
    columns = list(zip(*Z))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    chain = [M]
    for k in range(1, top):
        M = [[sum(map(mul, row, col)) for col in columns] for row in M]
        coeff = -_exact_div(sum(M[i][i] for i in range(n)), k)
        for i in range(n):
            M[i][i] += coeff
        chain.append(M)
    return chain


def _node_count(sr: SliceRestriction) -> int:
    """m = max (l - d_l + 1) over the minor sizes l and degrees d_l."""
    return max(ell - d + 1 for ell, d in zip(sr.minor_sizes, sr.degrees))


def _slice_matrix_cheaper(sr: SliceRestriction) -> bool:
    """The route rule: m n^4 against the terms times the degree of the
    initial terms, both read off the input."""
    if any(d < 1 for d in sr.degrees):
        return False
    work = sum(len(F.terms) * d for F, d in zip(sr.initial, sr.degrees))
    return _node_count(sr) * sr.n ** 4 < work


def slice_matrix_rows(sr: SliceRestriction, nums) -> list[list[int]]:
    """The gradients of the initial terms at the integer point nums, read
    off the n x n slice matrix; positive row multiples, as
    ``evaluate_jacobian``.

    With c_k the degree-k part of F_l = e_l(e + X), X = sum_b x_b f_b, and
    P_{l-1}(Y) = sum_j (-1)^j e_{l-1-j}(Y) Y^j, the identity
    d e_l(Y)(W) = tr(P_{l-1}(Y) W) gives
    tr(P_{l-1}(e + sX) f_a) = sum_{k = d_l}^{l} s^(k-1) D_a c_k, D_a the
    partial in x_a; the parts below d_l vanish, so
    g(s) = tr(P_{l-1}(e + sX) f_a) / s^(d_l - 1) has degree <= l - d_l
    and g(0) = D_a c_{d_l}, the gradient of the initial term.  It is
    interpolated at s = 1..m, m = ``_node_count``.  On integers, with L the
    lcm of the dual denominators, each node forms
    Z = L e + s sum_a nums_a (L f_a) = L (e + sX), and Faddeev-LeVerrier
    gives M_l = (-1)^(l-1) P_{l-1}(Z) = (-1)^(l-1) L^(l-1) P_{l-1}(e + sX)
    with exact divisions.  The trace tr(M_l L f_a) is an integer polynomial
    in s divisible by s^(d_l - 1), so row a is
    sum_s w_s (-1)^(l-1) tr(M_l L f_a) / s^(d_l - 1) = L^l D_a c_{d_l}.
    """
    L, duals = sr.cleared_duals
    if len(nums) != len(duals):
        raise ValueError(f"slice in {len(duals)} coordinates at a point with {len(nums)}")
    n = sr.n
    m = _node_count(sr)
    N = [[0] * n for _ in range(n)]
    for x, mat in zip(nums, duals):
        if x:
            for (i, j), v in mat.items():
                N[i][j] += x * v
    rows = [[0] * len(duals) for _ in sr.degrees]
    for s, w in zip(range(1, m + 1), _lagrange_at_zero(m)):
        Z = [[s * v for v in row] for row in N]
        for (i, j), v in sr.e.items():
            Z[i][j] += L * v
        chain = _faddeev_leverrier(Z, max(sr.minor_sizes))
        for row, ell, d in zip(rows, sr.minor_sizes, sr.degrees):
            M, scale, sign = chain[ell - 1], s ** (d - 1), (-1) ** (ell - 1) * w
            for a, mat in enumerate(duals):
                trace = sum(M[j][i] * v for (i, j), v in mat.items())
                row[a] += sign * _exact_div(trace, scale)
    return rows


def jacobian_rows(sr: SliceRestriction, nums) -> list[list[int]]:
    """Rows for the initial terms at the integer point nums, each a positive
    multiple of the gradient row, from ``slice_matrix_rows`` where
    ``_slice_matrix_cheaper`` says so and from the term expansion
    ``evaluate_jacobian`` elsewhere."""
    if _slice_matrix_cheaper(sr):
        return slice_matrix_rows(sr, nums)
    return evaluate_jacobian(sr.initial, nums)


def initial_algebra_rank(jacobian_rank, points) -> int:
    """Generic rank of the Jacobian of the initial terms (expected: rank),
    the best of ``jacobian_rank`` over ``points``."""
    return max(map(jacobian_rank, points), default=0)
