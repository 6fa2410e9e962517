"""Slice restrictions and their structural certificates.

The 3x3 case is checked against a hand-rolled cofactor expansion that
never touches the subset dynamic programme, and against frozen values
derived by hand for the two-block partition.
"""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest
from dense_oracle import (
    add,
    apply,
    dense,
    identity,
    is_zero,
    matmul,
    scale,
    structure_of,
    transpose,
)
from hypothesis import assume, example, given, settings, strategies as st
from poly_oracle import (
    constant,
    from_exponents,
    from_fractions,
    homogeneous_component,
    power,
    variable,
)

from centinv.centralizer import SubalgebraModel, XiIndex, build_gl_model, build_sp_model
from centinv.invariants import (
    BudgetExceededError,
    _cleared_value,
    _value_changes,
    char_poly_terms,
    coadjoint_exp,
    conjecture_explicit_check,
    coordinate_bracket_with,
    evaluate_jacobian,
    initial_algebra_rank,
    monomial_support_check,
    poisson_bracket,
    principal_minor_sum_polys,
    principal_minor_sums,
    signed_permutation_sum,
    symplectic_minor_sums,
    top_coefficient_crosscheck,
    verify_centrality,
)
from centinv.linalg import clear_denominators
from centinv.partitions import Partition, degrees_gl, partitions_of
from centinv.poly import _WIDTH, SparsePoly


def slice_entry_polys(model):
    """Matrix entries of e + generic dual element, as polynomials."""
    n = model.partition.n
    e = dense(model.realization.e, n)
    duals = [dense(mat, n) for mat in model.gf_dual]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            p = constant(model.var_names, e[i][j])
            for a, mat in enumerate(duals):
                v = mat[i][j]
                if v:
                    p = p + variable(model.var_names, model.var_names[a]) * v
            row.append(p)
        out.append(row)
    return out


def cofactor_det(entries):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = None
    for j in range(n):
        minor = [[entries[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = entries[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def principal_minor_sum_oracle(entries, ell):
    from itertools import combinations

    n = len(entries)
    total = None
    for rows in combinations(range(n), ell):
        sub = [[entries[i][j] for j in rows] for i in rows]
        d = cofactor_det(sub)
        total = d if total is None else total + d
    return total


@pytest.mark.parametrize("parts", ["2,1", "3,1", "2,2"])
def test_minor_sums_match_cofactor_oracle(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    entries = slice_entry_polys(m)
    for ell in range(1, m.partition.n + 1):
        assert sr.full[ell - 1] == principal_minor_sum_oracle(entries, ell)


def test_frozen_values_for_two_block_partition():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    names = m.var_names
    x = {lab: variable(names, lab) for lab in names}
    # coordinates: x1=xi[1,1,0], x2=xi[1,1,1], x3=xi[1,2,0], x4=xi[2,1,1], x5=xi[2,2,0]
    assert sr.full[0] == x["x1"] + x["x5"]
    assert sr.full[1] == power(x["x1"], 2) * Fraction(1, 4) + x["x1"] * x["x5"] - x["x2"]
    assert sr.full[2] == (power(x["x1"], 2) * x["x5"] * Fraction(1, 4)
                          - x["x2"] * x["x5"] + x["x3"] * x["x4"])
    assert sr.initial[0] == x["x1"] + x["x5"]
    assert sr.initial[1] == -x["x2"]
    assert sr.initial[2] == -x["x2"] * x["x5"] + x["x3"] * x["x4"]
    assert sr.degrees == [1, 1, 2]
    assert all(sr.kazhdan_homogeneous)


def test_initial_term_quadratic_coefficients_nonzero():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    top = sr.initial[2]
    a = m.index[XiIndex(1, 1, 1)]
    b = m.index[XiIndex(2, 2, 0)]
    c = m.index[XiIndex(1, 2, 0)]
    d = m.index[XiIndex(2, 1, 1)]
    mono = tuple(sorted([(a, 1), (b, 1)]))
    mono2 = tuple(sorted([(c, 1), (d, 1)]))
    coeffs = {factors: c for factors, c, _ in top.factored_terms()}
    assert coeffs[mono] != 0
    assert coeffs[mono2] != 0
    assert len(coeffs) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_symbolic_degrees_match_table(n):
    for p in partitions_of(n):
        m = build_gl_model(p)
        sr = principal_minor_sums(m)
        assert tuple(sr.degrees) == degrees_gl(p).degrees, p
        assert all(sr.kazhdan_homogeneous), p


def test_regular_case_single_coordinates():
    m = build_gl_model(Partition.parse("4"))
    sr = principal_minor_sums(m)
    for ell, F in enumerate(sr.initial, start=1):
        monos = F.factored_terms()
        assert len(monos) == 1
        factors, _, _ = monos[0]
        (a, e), = factors
        assert e == 1
        assert m.xi[a] == XiIndex(1, 1, ell - 1)


def test_budget_refusal():
    m = build_gl_model(Partition.parse("3,2"))
    with pytest.raises(BudgetExceededError) as err:
        principal_minor_sums(m, budget=4)
    assert err.value.n == 5 and err.value.budget == 4


def test_poisson_bracket_on_coordinates_is_structure_constants():
    m = build_gl_model(Partition.parse("2,1"))
    names = m.var_names
    for a in range(m.dim):
        for b in range(m.dim):
            P = variable(names, names[a])
            Q = variable(names, names[b])
            br = poisson_bracket(P, Q, m)
            expected = SparsePoly(names)
            for c, v in m.rows[a][b]:
                expected = expected + variable(names, names[c]) * Fraction(v, m.S)
            assert br == expected


def random_quadratic(model, rng):
    names = model.var_names
    entries = []
    for _ in range(rng.randint(1, 5)):
        deg = rng.randint(0, 2)
        exps: dict[str, int] = {}
        for _ in range(deg):
            v = rng.choice(names)
            exps[v] = exps.get(v, 0) + 1
        entries.append((exps, Fraction(rng.randint(-4, 4))))
    return from_exponents(names, entries)


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2"])
def test_poisson_jacobi_on_random_quadratics(parts):
    m = build_gl_model(Partition.parse(parts))
    rng = random.Random(42)
    for _ in range(200):
        P, Q, R = (random_quadratic(m, rng) for _ in range(3))
        jac = (poisson_bracket(P, poisson_bracket(Q, R, m), m)
               + poisson_bracket(Q, poisson_bracket(R, P, m), m)
               + poisson_bracket(R, poisson_bracket(P, Q, m), m))
        assert jac.is_zero()
        assert poisson_bracket(P, P, m).is_zero()


@pytest.mark.parametrize("parts", ["2,1", "4", "3,2,1", "2,2"])
def test_centrality(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    res = verify_centrality(sr, m, seed=3)
    assert res.passed and res.failing is None
    for ell, F in enumerate(sr.initial, start=1):
        for a in range(m.dim):
            P = variable(m.var_names, m.var_names[a])
            assert poisson_bracket(P, F, m).is_zero(), (parts, a, ell)


def test_centrality_detects_noninvariant():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    broken = list(sr.initial)
    broken[2] = broken[2] + variable(m.var_names, "x3")
    import dataclasses
    bad = dataclasses.replace(sr, initial=broken)
    res = verify_centrality(bad, m, seed=3)
    assert not res.passed
    assert res.failing is not None


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2,1", "5"])
def test_monomial_support(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    report = monomial_support_check(sr, m)
    assert report.passed, report.violations


def test_monomial_support_weights_example():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    report = monomial_support_check(sr, m)
    for row in report.per_ell[2]:
        assert sorted(row["I"]) == [1, 2]
        weight = sum(m.h_weights[m.index[XiIndex(i, row["sigma"][i], row["shifts"][i])]]
                     for i in row["I"])
        assert weight == 2 * (3 - 2)


@pytest.mark.parametrize("parts", ["2,1", "3", "2,2", "2,1,1", "3,2"])
def test_signed_sum_proportionality(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    res = conjecture_explicit_check(sr, m)
    assert res.passed
    assert all(r is not None and r != 0 for r in res.ratios)


def test_signed_sum_for_two_blocks_by_hand():
    m = build_gl_model(Partition.parse("2,1"))
    S = signed_permutation_sum(m, ell=3, m=2)
    names = m.var_names
    x = {lab: variable(names, lab) for lab in names}
    assert S == x["x2"] * x["x5"] - x["x3"] * x["x4"]


def _signed_sum_by_recursion(model, ell, m):
    """Reference: the signed sum built by a pruned recursion over the
    shifts, with the sign from the cycle type of sigma."""
    from itertools import combinations, permutations

    def perm_sign(perm):
        sign, seen = 1, [False] * len(perm)
        for i in range(len(perm)):
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen and clen % 2 == 0:
                sign = -sign
        return sign

    d = model.partition.d
    acc = {}
    for I in combinations(range(1, model.partition.k + 1), m):
        for perm in permutations(range(m)):
            sign = perm_sign(perm)
            ranges = [(I[t], I[perm[t]], max(d[I[perm[t]] - 1] - d[I[t] - 1], 0),
                       d[I[perm[t]] - 1]) for t in range(m)]
            lo = [sum(r[2] for r in ranges[t:]) for t in range(m + 1)]
            hi = [sum(r[3] for r in ranges[t:]) for t in range(m + 1)]

            def rec(t, remaining, key):
                if t == m:
                    c = acc.get(key, Fraction(0)) + sign
                    if c:
                        acc[key] = c
                    else:
                        acc.pop(key, None)
                    return
                i, j, low, high = ranges[t]
                for s in range(low, high + 1):
                    if lo[t + 1] <= remaining - s <= hi[t + 1]:
                        a = model.index[XiIndex(i, j, s)]
                        rec(t + 1, remaining - s, key + (1 << (_WIDTH * a)))

            if lo[0] <= ell - m <= hi[0]:
                rec(0, ell - m, 0)
    return from_fractions(model.var_names, acc)


def test_signed_sum_matches_the_recursive_reference():
    # every gl partition with n <= 6, every ell and 1 <= m <= min(ell, k);
    # the term order is compared too, since it is the report's order
    for n in range(1, 7):
        for p in partitions_of(n):
            model = build_gl_model(p)
            for ell in range(1, n + 1):
                for m in range(1, min(ell, p.k) + 1):
                    got = signed_permutation_sum(model, ell, m)
                    want = _signed_sum_by_recursion(model, ell, m)
                    assert list(got.terms.items()) == list(want.terms.items()), (p, ell, m)


@pytest.mark.parametrize("parts", ["2", "2,1", "2,2", "3,1", "2,1,1"])
def test_top_coefficient_crosscheck(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    res = top_coefficient_crosscheck(m, sr)
    assert res.passed, res.detail
    assert all(v != 0 for v in res.scalars.values())


@pytest.mark.parametrize("parts", ["2,1", "3,1", "2,1,1"])
def test_top_coefficient_leaving_the_centraliser_is_refused(parts, monkeypatch):
    """A term zf^K * w1 planted in a minor sum over gl_n puts the first
    complement coordinate into the top coefficient in zf; the crosscheck
    must refuse it.  The coefficient of zf^K never holds zf itself, so w1,
    the lane just above zf, is the nearest lane a plant can reach."""
    import centinv.invariants as inv

    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    expand = inv.principal_minor_sum_polys
    for ell in range(1, m.partition.n + 1):
        def planted(entries, variables):
            polys = expand(entries, variables)
            top = {"zf": ell - sr.degrees[ell - 1], "w1": 1}
            polys[ell - 1] = polys[ell - 1] + from_exponents(
                variables, [(top, Fraction(3, 2))])
            return polys

        monkeypatch.setattr(inv, "principal_minor_sum_polys", planted)
        res = top_coefficient_crosscheck(m, sr)
        assert not res.passed
        assert res.detail == f"top coefficient of {ell} leaves the centraliser"
        assert sorted(res.scalars) == list(range(1, ell))


def test_top_coefficient_budget():
    m = build_gl_model(Partition.parse("3,2"))
    sr = principal_minor_sums(m)
    with pytest.raises(BudgetExceededError):
        top_coefficient_crosscheck(m, sr, budget=4)


@pytest.mark.parametrize("parts,expected", [("2,1", 3), ("4", 4), ("3,1", 4)])
def test_jacobian_generic_rank(parts, expected):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    assert initial_algebra_rank(sr, m, seed=1) == expected


def test_symplectic_slice_odd_sums_vanish_and_degrees():
    from centinv.partitions import degrees_sp

    for parts in ("2", "2,1,1", "2,2", "4", "3,3"):
        p = Partition.parse(parts)
        sp = build_sp_model(p)
        sr = symplectic_minor_sums(sp)
        assert tuple(sr.degrees) == degrees_sp(p).degrees
        assert all(sr.kazhdan_homogeneous)
        res = verify_centrality(sr, sp.fixed, seed=5)
        assert res.passed


# -- the integer Jacobian rows --------------------------------------------------

JAC_VARS = ("x1", "x2", "x3", "x4")


def assert_positive_multiple(row, oracle):
    """row == lam * oracle for one rational lam > 0."""
    pivot = next((i for i, o in enumerate(oracle) if o), None)
    if pivot is None:
        assert not any(row)
        return
    lam = Fraction(row[pivot]) / oracle[pivot]
    assert lam > 0
    assert [Fraction(x) for x in row] == [lam * o for o in oracle]


def check_jacobian_rows(polys, point):
    rows = evaluate_jacobian(polys, *clear_denominators([Fraction(point[v]) for v in JAC_VARS]))
    assert all(isinstance(x, int) for row in rows for x in row)
    for P, row in zip(polys, rows):
        assert_positive_multiple(
            row, [P.partial_derivative(v).evaluate(point) for v in JAC_VARS])


def test_integer_jacobian_zero_factor_branches():
    # at x1 = x2 = 0: x1*x2*x3 has two zero factors, x1*x3 one of exponent 1,
    # x1^2*x4 one of exponent 2, and x3^2*x4 none
    P = from_exponents(JAC_VARS, [
        ({"x1": 1, "x2": 1, "x3": 1}, Fraction(2, 3)),
        ({"x1": 1, "x3": 1}, Fraction(-5, 2)),
        ({"x1": 2, "x4": 1}, Fraction(7)),
        ({"x3": 2, "x4": 1}, Fraction(1, 6)),
        ({}, Fraction(4)),
    ])
    point = {"x1": 0, "x2": 0, "x3": Fraction(2, 3), "x4": Fraction(-5, 7)}
    check_jacobian_rows([P, homogeneous_component(P, 3)], point)


def test_integer_jacobian_rejects_a_point_of_another_length():
    P = from_exponents(JAC_VARS, [({"x1": 1, "x4": 2}, Fraction(1))])
    with pytest.raises(ValueError):
        evaluate_jacobian([P], [1, 2, 3])
    with pytest.raises(ValueError):
        evaluate_jacobian([P], [1, 2, 3, 4, 5], 2)


monomials = st.dictionaries(st.sampled_from(JAC_VARS), st.integers(1, 3), max_size=4)
coefficients = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))
coordinates = st.one_of(st.just(Fraction(0)),
                        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(monomials, coefficients), max_size=8), st.booleans(),
       st.fixed_dictionaries({v: coordinates for v in JAC_VARS}))
@example([({"x1": 1, "x2": 1}, Fraction(1)), ({"x1": 1}, Fraction(3, 2))], False,
         {"x1": Fraction(0), "x2": Fraction(0), "x3": Fraction(1, 2), "x4": Fraction(3)})
def test_integer_jacobian_rows_are_positive_multiples(terms, homogeneous, point):
    P = from_exponents(JAC_VARS, terms)
    if homogeneous:
        P = homogeneous_component(P, P.total_degree())
    check_jacobian_rows([P, P * P], point)


# -- brackets and the group probe on the structure rows ------------------------


@functools.cache
def bracket_model(name: str):
    """gl models, and the sp 2,1,1 fixed part with its basis scaled by 1/5
    so that the structure constants are not integral (S > 1)."""
    if name == "sp 2,1,1 / 5":
        sp = build_sp_model(Partition.parse("2,1,1"))
        return SubalgebraModel(sp.gl, [{c: x / 5 for c, x in row.items()}
                                       for row in sp.sigma_fixed_basis], rank=2)
    return build_gl_model(Partition.parse(name.split()[1]))


def reference_coordinate_bracket(model, a: int, Q: SparsePoly) -> SparsePoly:
    """sum_b dQ/dx_b * sum_c [xi_a, xi_b]_c x_c from the Fraction constants."""
    names = model.var_names
    out = SparsePoly(names)
    for (x, y), entries in structure_of(model).items():
        if a not in (x, y):
            continue
        b, sign = (y, 1) if x == a else (x, -1)
        dQ = Q.partial_derivative(names[b])
        for c, v in entries:
            out = out + dQ * variable(names, names[c]) * (sign * v)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["gl 2,1", "gl 3,2,1", "sp 2,1,1 / 5"]), st.data())
def test_coordinate_bracket_matches_fraction_reference(name, data):
    model = bracket_model(name)
    names = model.var_names
    assert name.startswith("gl") or model.S > 1
    a = data.draw(st.integers(0, model.dim - 1), label="a")
    terms = data.draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(1, 3), min_size=1, max_size=3),
        st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(2, 12))),
        min_size=1, max_size=6), label="terms")
    Q = from_exponents(names, terms)
    expected = reference_coordinate_bracket(model, a, Q)
    assume(not expected.is_zero())
    got = coordinate_bracket_with(model, a, Q)
    assert got == expected
    assert str(got) == str(expected)


def exp_minus_ad_transpose(model, a: int) -> list[list[Fraction]]:
    """The dense oracle: exp(-A)^T with A[c][b] = [xi_a, xi_b]_c, summed
    until a power of A vanishes."""
    r = model.dim
    A = [[Fraction(0)] * r for _ in range(r)]
    for (x, y), entries in structure_of(model).items():
        for c, v in entries:
            if x == a:
                A[c][y] += v
            if y == a:
                A[c][x] -= v
    M = term = identity(r)
    step = 0
    while True:
        step += 1
        term = scale(matmul(term, A), Fraction(-1, step))
        if is_zero(term):
            return transpose(M)
        M = add(M, term)


@pytest.mark.parametrize("name", ["gl 3,2,1", "sp 2,2,1,1", "sp 2,1,1 / 5"])
def test_coadjoint_series_matches_dense_exponential(name):
    if name == "sp 2,2,1,1":
        model = build_sp_model(Partition.parse("2,2,1,1")).fixed
    else:
        model = bracket_model(name)
    positive = [a for a, w in enumerate(model.h_weights) if w > 0]
    assert positive
    rng = random.Random(13)
    for a in positive:
        Mt = exp_minus_ad_transpose(model, a)
        for _ in range(4):
            gamma = [rng.randint(-10, 10) for _ in range(model.dim)]
            nums, den = coadjoint_exp(model, a, gamma)
            assert [Fraction(x, den) for x in nums] == apply(Mt, [Fraction(g) for g in gamma])


def test_integer_group_probe_matches_fraction_evaluation():
    # a non-central F: the probe must find moved values that differ
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    F = sr.initial[2] + variable(m.var_names, "x3")
    rng = random.Random(3)
    changed = 0
    for a in [a for a, w in enumerate(m.h_weights) if w > 0]:
        for _ in range(10):
            gamma = [rng.randint(-10, 10) for _ in range(m.dim)]
            v, L = coadjoint_exp(m, a, gamma)
            before = F.evaluate(dict(zip(m.var_names, map(Fraction, gamma))))
            after = F.evaluate(dict(zip(m.var_names, (Fraction(x, L) for x in v))))
            assert _value_changes(F, gamma, v, L) == (before != after)
            changed += before != after
    assert changed


@functools.cache
def probe_invariant(name: str) -> SparsePoly:
    """A top initial term, fixed by the model's coadjoint group.  The sp
    2,1,1 one also serves that model with its basis scaled by 1/5: it is
    homogeneous, so the scaling only multiplies it by a constant."""
    if name.startswith("sp"):
        return symplectic_minor_sums(build_sp_model(Partition.parse("2,1,1"))).initial[-1]
    return principal_minor_sums(bracket_model(name)).initial[-1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["gl 3,2,1", "sp 2,1,1 / 5"]), st.data())
def test_cleared_group_probe_values(name, data):
    """den * L^M * F(v / L) on integers equals the Fraction value, for
    perturbed (non-central, possibly inhomogeneous) F at moved points; the
    unperturbed invariant never changes value (on sp, L > 1 occurs)."""
    model = bracket_model(name)
    names = model.var_names
    invariant = probe_invariant(name)
    F = invariant + from_exponents(names, data.draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(1, 3), max_size=3), coefficients),
        min_size=1, max_size=6), label="terms"))
    positive = [a for a, w in enumerate(model.h_weights) if w > 0]
    a = data.draw(st.sampled_from(positive), label="a")
    gamma = data.draw(st.lists(st.integers(-10, 10), min_size=model.dim,
                               max_size=model.dim), label="gamma")
    v, L = coadjoint_exp(model, a, gamma)
    moved = [Fraction(x, L) for x in v]
    den = F.den
    top = F.total_degree()
    before = F.evaluate(dict(zip(names, map(Fraction, gamma))))
    after = F.evaluate(dict(zip(names, moved)))
    assert _cleared_value(F, gamma, 1) == before * den
    assert _cleared_value(F, v, L) == after * den * L ** top
    assert _value_changes(F, gamma, v, L) == (before != after)
    assert not _value_changes(invariant, gamma, v, L)


# -- the integer subset expansion against Fraction references -----------------


MINOR_VARS = ("y1", "y2", "y3")


def fraction_minor_sums(entries, variables):
    """The subset expansion of det(t Id - M) with every product in Fraction,
    rows in their own order; e_l is (-1)^l times the t^(n-l) coefficient."""
    n = len(entries)
    shift = _WIDTH * len(variables)
    A = [[{k: -c for k, c in entries[i][j].items()} for j in range(n)] for i in range(n)]
    for i in range(n):
        A[i][i][1 << shift] = Fraction(1)
    level = {0: {0: Fraction(1)}}
    for i in range(n):
        nxt = {}
        for mask, poly in level.items():
            for c in range(n):
                if mask >> c & 1:
                    continue
                # choosing column c after the columns in mask adds one
                # inversion per used column to its right
                sign = -1 if (mask >> (c + 1)).bit_count() % 2 else 1
                acc = nxt.setdefault(mask | 1 << c, {})
                for ka, ca in poly.items():
                    for kb, cb in A[i][c].items():
                        acc[ka + kb] = acc.get(ka + kb, Fraction(0)) + sign * ca * cb
        level = nxt
    char = {k: c for k, c in level[(1 << n) - 1].items() if c}
    return [from_fractions(variables, {k - ((n - ell) << shift): (-1) ** ell * c
                                       for k, c in char.items() if k >> shift == n - ell})
            for ell in range(1, n + 1)]


minor_monomials = st.dictionaries(st.integers(0, len(MINOR_VARS) - 1), st.integers(1, 2),
                                  max_size=2)


def term_dict(monos):
    out = {}
    for exps, c in monos:
        key = sum(e << (_WIDTH * i) for i, e in exps.items())
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.tuples(minor_monomials, coefficients), max_size=3)
             .map(term_dict), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[{0: Fraction(1, 2)}, {}], [{1: Fraction(-3, 4)}, {1 << _WIDTH: Fraction(5, 6)}]])
def test_integer_minor_sums_match_fraction_expansion(entries):
    assume(any(c.denominator > 1 for row in entries for ent in row for c in ent.values()))
    got = principal_minor_sum_polys(entries, MINOR_VARS)
    assert got == fraction_minor_sums(entries, MINOR_VARS)
    # the integer format: every numerator and denominator is an int
    assert all(type(c) is int for P in got for c in P.terms.values())
    assert all(type(P.den) is int for P in got)
    # on cleared entries every product of the expansion stays an int
    cleared = [[{k: int(c * lcm(*range(1, 13))) for k, c in ent.items()} for ent in row]
               for row in entries]
    t_key = 1 << (_WIDTH * len(MINOR_VARS))
    assert all(type(c) is int for c in char_poly_terms(cleared, t_key).values())


numeric_entries = st.one_of(st.just(Fraction(0)), coefficients)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(numeric_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_minor_sums_match_sympy_charpoly(rows):
    sympy = pytest.importorskip("sympy")
    n = len(rows)
    entries = [[{0: c} if c else {} for c in row] for row in rows]
    got = [P.coefficient(0) for P in principal_minor_sum_polys(entries, ())]
    M = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    coeffs = M.charpoly().all_coeffs()
    assert got == [(-1) ** ell * Fraction(int(coeffs[ell].p), int(coeffs[ell].q))
                   for ell in range(1, n + 1)]
