"""Slice restrictions and their structural certificates.

The 3x3 case is checked against a hand-rolled cofactor expansion that
never touches the subset dynamic programme, and against frozen values
derived by hand for the two-block partition.
"""

import dataclasses
import functools
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from dense_oracle import (
    add,
    apply,
    dense,
    generated_subalgebra,
    identity,
    is_zero,
    matmul,
    rank,
    scale,
    structure_of,
    transpose,
)
from hypothesis import assume, example, given, settings, strategies as st
import poly_oracle
from poly_oracle import (
    constant,
    from_exponents,
    from_fractions,
    homogeneous_component,
    power,
    to_fractions,
    variable,
)

from centinv.centralizer import XiIndex, build_gl_model, build_sp_model
from centinv import invariants
from centinv.invariants import (
    _cleared_value,
    _exact_div,
    _faddeev_leverrier,
    _kazhdan_check,
    _slice_entries,
    _slice_matrix_cheaper,
    _value_changes,
    char_poly_terms,
    coadjoint_exp,
    conjecture_explicit_check,
    coordinate_bracket_with,
    evaluate_jacobian,
    initial_algebra_rank,
    jacobian_rows,
    kazhdan_homogeneous,
    monomial_support_check,
    poisson_bracket,
    principal_minor_sum_polys,
    principal_minor_sums,
    signed_sums,
    slice_matrix_rows,
    symplectic_minor_sums,
    term_index,
    top_coefficient_crosscheck,
    verify_centrality,
)
from centinv.linalg import bareiss
from centinv.partitions import ClassicalType, Partition, degrees_gl, partitions_of
from centinv.regularity import (
    build_alpha,
    default_alpha_coefficients,
    random_functional,
    restrict_alpha_to_fixed,
)
from centinv.runner import (
    BudgetExceededError,
    PartitionContext,
    RunConfig,
    build_report,
    cmd_degrees,
    cmd_p0,
)
from centinv.poly import _WIDTH, SparsePoly
from test_regularity import fresh_jacobian_rank


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
    assert all(kazhdan_homogeneous(sr, m))


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
        assert tuple(sr.degrees) == degrees_gl(p), p
        assert all(kazhdan_homogeneous(sr, m)), p


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
    ctx = PartitionContext(Partition.parse("3,2"), RunConfig(budget_n=4))
    with pytest.raises(BudgetExceededError) as err:
        ctx.slice
    assert err.value.n == 5 and err.value.budget == 4
    assert str(err.value) == "slice expansion needs n=5 but the budget is 4"
    ctx = PartitionContext(Partition.parse("2,2"), RunConfig(algebra="sp", budget_n=2))
    with pytest.raises(BudgetExceededError, match="^symplectic slice expansion needs n=4 "):
        ctx.slice


@pytest.mark.parametrize("budget_n,within", [(5, True), (4, False)])
def test_slice_and_degrees_read_one_budget_property(monkeypatch, budget_n, within):
    """``PartitionContext.slice_within_budget`` decides both whether the
    slice is expanded and whether degrees checks its table symbolically;
    turning the property over turns both."""
    for flip in (False, True):
        if flip:
            monkeypatch.setattr(PartitionContext, "slice_within_budget", not within)
        ctx = PartitionContext(Partition.parse("3,2"), RunConfig(budget_n=budget_n))
        expanded = within != flip
        assert ctx.slice_within_budget is expanded
        assert cmd_degrees(ctx)["witnesses"]["symbolic_checked"] is expanded
        if expanded:
            assert ctx.slice.degrees == list(degrees_gl(ctx.partition))
        else:
            with pytest.raises(BudgetExceededError):
                ctx.slice


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
                expected = expected + variable(names, names[c]) * Fraction(v)
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


def sample(m, seed, k):
    """The first k functionals ``random_functional`` draws from
    ``Random(seed)``, the points a run at seed reads."""
    rng = random.Random(seed)
    return [random_functional(m, rng) for _ in range(k)]


def centrality_verdict(sr, m, seed):
    """(passed, failing) of ``verify_centrality`` at the 15 points a run at
    seed probes, the verdict as ``runner.cmd_centrality`` reads it off the
    returned values."""
    failing, _, group_failures = verify_centrality(sr, m, sample(m, seed, 15))
    return failing is None and not group_failures, failing


@pytest.mark.parametrize("parts", ["2,1", "4", "3,2,1", "2,2"])
def test_centrality(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    passed, failing = centrality_verdict(sr, m, seed=3)
    assert passed and failing is None
    for ell, F in enumerate(sr.initial, start=1):
        for a in range(m.dim):
            P = variable(m.var_names, m.var_names[a])
            assert poisson_bracket(P, F, m).is_zero(), (parts, a, ell)


def test_centrality_detects_noninvariant():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    broken = list(sr.initial)
    broken[2] = broken[2] + variable(m.var_names, "x3")
    bad = dataclasses.replace(sr, initial=broken)
    passed, failing = centrality_verdict(bad, m, seed=3)
    assert not passed
    assert failing is not None


def _full_scan_failure(sr, m):
    """The first nonzero {x_a, initial_ell} over every coordinate a, ell
    outer: the witness of the scan without generators."""
    for ell, F in enumerate(sr.initial, start=1):
        index = term_index(F)
        for a in range(m.dim):
            br = coordinate_bracket_with(m, a, F, index)
            if not br.is_zero():
                return m.labels[a], ell, str(br)
    return None


def _centrality_model(name):
    kind, parts = name.split()
    if kind == "gl":
        m = build_gl_model(Partition.parse(parts))
        return m, principal_minor_sums(m)
    sp = build_sp_model(Partition.parse(parts))
    return sp, symplectic_minor_sums(sp)


def _perturbed(sr, m):
    """sr with one initial term plus one monomial, x_b or x_b x_c, for every
    term and coordinate b."""
    for i, F in enumerate(sr.initial):
        for b in range(m.dim):
            for c in (None, m.dim - 1 - b):
                key = (1 << (_WIDTH * b)) + (0 if c is None else 1 << (_WIDTH * c))
                broken = list(sr.initial)
                broken[i] = F + SparsePoly(F.variables, {key: 1})
                yield dataclasses.replace(sr, initial=broken)


def _check_against_full_scan(sr, m) -> int:
    """verify_centrality against the full scan on every perturbation; the
    number of failures that sit at a coordinate outside m.lie_generators."""
    off_generators = 0
    for bad in _perturbed(sr, m):
        expected = _full_scan_failure(bad, m)
        assert centrality_verdict(bad, m, seed=3) == (expected is None, expected)
        if expected is not None:
            off_generators += m.labels.index(expected[0]) not in m.lie_generators
    return off_generators


@pytest.mark.parametrize("name", ["gl 2,1", "gl 1,1,1", "gl 3,2,1", "gl 2,2,1,1",
                                  "sp 2,1,1", "sp 3,3", "sp 2,2,1,1"])
def test_centrality_witness_is_the_full_scan_failure(name):
    """Under the greedy coordinate order the first failing coordinate is a
    generator: the earlier coordinates stabilise F, so does the subalgebra
    they generate, and it holds every coordinate that is not kept."""
    m, sr = _centrality_model(name)
    assert _check_against_full_scan(sr, m) == 0


@pytest.mark.parametrize("name", ["gl 1,1,1", "gl 2,2,1", "sp 3,3", "sp 2,2,1,1"])
def test_centrality_rescans_for_a_generating_set_in_another_order(name):
    """Generators chosen greedily from the last coordinate down: a failure
    can sit at a coordinate outside them, and the rescan still reports the
    full scan's first failure."""
    m, sr = _centrality_model(name)
    gens: list[int] = []
    for a in reversed(range(m.dim)):
        span = generated_subalgebra(m, gens)
        if rank(span + [[Fraction(int(c == a)) for c in range(m.dim)]]) > len(span):
            gens.append(a)
    m.lie_generators = tuple(gens)
    assert len(generated_subalgebra(m, gens)) == m.dim
    assert _check_against_full_scan(sr, m) > 0


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2,1", "5"])
def test_monomial_support(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    violations = monomial_support_check(sr, m)
    assert not violations, violations


def test_monomial_support_weights_example():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    assert not monomial_support_check(sr, m)
    assert [len(F.terms) for F in sr.initial] == [2, 1, 2]
    for factors, _, _ in sr.initial[2].factored_terms():
        xis = [m.xi[a] for a, e in factors for _ in range(e)]
        I = sorted(x.i for x in xis)
        sigma = {x.i: x.j for x in xis}
        shifts = {x.i: x.s for x in xis}
        assert I == [1, 2] and sorted(sigma.values()) == I
        weight = sum(m.h_weights[m.index[XiIndex(i, sigma[i], shifts[i])]] for i in I)
        assert weight == 2 * (3 - 2)


def test_monomial_support_reports_planted_violations():
    # four monomials planted into the l = 3 term -x2*x5 + x3*x4 of 2,1, on
    # xi[1,1,0], xi[1,1,1], xi[1,2,0], xi[2,1,1], xi[2,2,0] of h-weights
    # 0, 2, 1, 1, 0; the expected list is the row-by-row check's output
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    x = {name: 1 << (_WIDTH * a) for a, name in enumerate(m.var_names)}
    planted = {
        2 * x["x1"] + x["x5"]: 1,  # a squared factor
        x["x2"] + x["x3"]: 1,      # lower index 1 twice
        x["x3"] + x["x5"]: 1,      # upper indices 2, 2
        x["x1"] + x["x5"]: 1,      # the identity permutation, of weight 0
    }
    initial = list(sr.initial)
    initial[2] = from_fractions(m.var_names, {**to_fractions(sr.initial[2]), **planted})
    violations = monomial_support_check(dataclasses.replace(sr, initial=initial), m)
    assert violations
    assert [len(F.terms) for F in initial] == [2, 1, 6]
    assert violations == [
        (3, "x1", "repeated factor"),
        (3, "{'x1': 2, 'x5': 1}", "lower indices repeat"),
        (3, "{'x1': 2, 'x5': 1}", "upper indices are not a permutation"),
        (3, "{'x2': 1, 'x3': 1}", "lower indices repeat"),
        (3, "{'x2': 1, 'x3': 1}", "upper indices are not a permutation"),
        (3, "{'x2': 1, 'x3': 1}", "weight 3 != 2"),
        (3, "{'x3': 1, 'x5': 1}", "upper indices are not a permutation"),
        (3, "{'x3': 1, 'x5': 1}", "weight 1 != 2"),
        (3, "{'x1': 1, 'x5': 1}", "weight 0 != 2"),
    ]


@pytest.mark.parametrize("parts", ["2,1", "3", "2,2", "2,1,1", "3,2"])
def test_signed_sum_proportionality(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    ratios = conjecture_explicit_check(sr, m)
    assert len(ratios) == m.rank
    assert all(r is not None and r != 0 for r in ratios)


def test_signed_sum_for_two_blocks_by_hand():
    m = build_gl_model(Partition.parse("2,1"))
    # the signed sum of degree m = 2 in S^3 is the q^1 part of e_2(Y)
    S = SparsePoly(m.var_names, signed_sums(m)[2][1])
    names = m.var_names
    x = {lab: variable(names, lab) for lab in names}
    assert S == x["x2"] * x["x5"] - x["x3"] * x["x4"]


def test_signed_sum_matches_the_recursive_reference():
    # every gl partition with n <= 6, every ell and 0 <= m <= n, m = 0 and
    # m > k included; the terms are compared as a dict, since a ratio of
    # proportional polynomials does not depend on the key it is read at
    for n in range(1, 7):
        for p in partitions_of(n):
            model = build_gl_model(p)
            table = signed_sums(model)
            for ell in range(1, n + 1):
                for m in range(n + 1):
                    got = SparsePoly(model.var_names,
                                     table[m].get(ell - m) if m < len(table) else None)
                    want = poly_oracle.signed_sum_by_recursion(model, ell, m)
                    assert (got.terms, got.den) == (want.terms, want.den), (p, ell, m)


def test_permutation_sign_is_the_inversion_parity():
    from itertools import combinations, permutations

    for m in range(9):
        for perm in permutations(range(m)):
            inversions = sum(a > b for a, b in combinations(perm, 2))
            assert poly_oracle.perm_sign(perm) == (-1) ** inversions, perm


@pytest.mark.parametrize("parts", ["2", "2,1", "2,2", "3,1", "2,1,1"])
def test_top_coefficient_crosscheck(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    passed, scalars, detail = top_coefficient_crosscheck(m, sr)
    assert passed, detail
    assert all(v != 0 for v in scalars.values())


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
        passed, scalars, detail = top_coefficient_crosscheck(m, sr)
        assert not passed
        assert detail == f"top coefficient of {ell} leaves the centraliser"
        assert sorted(scalars) == list(range(1, ell))


def test_top_coefficient_budget():
    ctx = PartitionContext(Partition.parse("3,2"), RunConfig(p0_budget=4))
    with pytest.raises(BudgetExceededError) as err:
        cmd_p0(ctx)
    assert err.value.n == 5 and err.value.budget == 4
    assert str(err.value) == "full adjoint expansion needs n=5 but the budget is 4"
    # above both budgets the slice refusal comes first
    ctx = PartitionContext(Partition.parse("3,2"), RunConfig(budget_n=4, p0_budget=4))
    with pytest.raises(BudgetExceededError, match="^slice expansion needs n=5"):
        cmd_p0(ctx)


@pytest.mark.parametrize("parts,expected", [("2,1", 3), ("4", 4), ("3,1", 4)])
def test_jacobian_generic_rank(parts, expected):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    assert initial_algebra_rank(fresh_jacobian_rank(sr), sample(m, 1, 3)) == expected


def test_symplectic_slice_odd_sums_vanish_and_degrees():
    from centinv.partitions import degrees_sp

    for parts in ("2", "2,1,1", "2,2", "4", "3,3"):
        p = Partition.parse(parts)
        sp = build_sp_model(p)
        sr = symplectic_minor_sums(sp)
        assert tuple(sr.degrees) == degrees_sp(p)
        assert all(kazhdan_homogeneous(sr, sp))
        assert centrality_verdict(sr, sp, seed=5)[0]


# -- degrees, Kazhdan check and decode against the term-by-term oracles -------

KAZHDAN_VARS = ("x1", "x2", "x3")


@pytest.mark.parametrize("weights,terms,expected,verdict", [
    # one weight class: c * degree = 2 * expected on a homogeneous polynomial
    ([0, 0, 0], [({"x1": 1, "x2": 1}, 1), ({"x3": 2}, 1)], 2, True),
    ([0, 0, 0], [({"x1": 1, "x2": 1}, 1), ({"x3": 2}, 1)], 3, False),
    ([0, 0, 0], [({"x1": 1, "x2": 1}, 1), ({"x1": 1}, 1)], 2, False),
    ([0, 0, 0], [({"x1": 1, "x2": 1}, 1), ({"x1": 1}, 1)], 1, False),
    ([2, 2, 2], [({"x1": 2}, 1)], 4, True),
    ([2, 2, 2], [({"x1": 2}, 1), ({"x2": 1}, 1)], 4, False),
    # several classes: weighted, not total, degree decides
    ([0, 2, 2], [({"x1": 2}, 1), ({"x2": 1}, 1)], 2, True),
    ([0, 2, 2], [({"x1": 2}, 1), ({"x2": 1, "x3": 1}, 1)], 2, False),
    ([0, 2, 2], [({"x1": 2}, 1), ({"x2": 1, "x3": 1}, 1)], 4, False),
    ([0, 2, 2], [({"x1": 1, "x2": 1}, 1), ({"x2": 1, "x3": 1}, 1)], 3, False),
    ([0, 2, 2], [({"x1": 1, "x2": 1}, 1), ({"x2": 1, "x3": 1}, 1)], 4, False),
    ([0, 2, 4], [({"x1": 1, "x3": 1}, 1), ({"x2": 2}, 1), ({"x1": 4}, 1)], 4, True),
    ([0, 0, 0], [], 3, True),
    ([0, 2, 2], [], 3, True),
])
def test_kazhdan_check_on_planted_polynomials(weights, terms, expected, verdict):
    P = from_exponents(KAZHDAN_VARS, terms)
    assert poly_oracle.kazhdan_check(P, weights, expected) is verdict
    for first in ("initial", "degree"):
        Q = SparsePoly(P.variables, P.terms, P.den)
        if first == "degree":
            Q.total_degree()
        assert _kazhdan_check(Q, Q.lowest_degree_component(), weights, expected) is verdict


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 4]), min_size=3, max_size=3),
       st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                          st.integers(-3, 3)), max_size=5),
       st.integers(0, 8))
def test_kazhdan_check_matches_the_oracle(weights, terms, expected):
    P = from_exponents(KAZHDAN_VARS, [(dict(zip(KAZHDAN_VARS, e)), c) for e, c in terms])
    assert (_kazhdan_check(P, P.lowest_degree_component(), weights, expected)
            == poly_oracle.kazhdan_check(P, weights, expected))


ORACLE_SLICES = ([f"gl {p}" for n in range(1, 8) for p in partitions_of(n)]
                 + [f"sp {p}" for n in (2, 4, 6, 8) for p in partitions_of(n, ClassicalType.SP)])


@pytest.mark.parametrize("name", ORACLE_SLICES)
def test_slice_degrees_kazhdan_and_decode_match_the_oracles(name):
    algebra, parts = name.split()
    p = Partition.parse(parts)
    if algebra == "sp":
        model = build_sp_model(p)
        sr, weights, sizes = symplectic_minor_sums(model), model.h_weights, range(2, p.n + 1, 2)
    else:
        model = build_gl_model(p)
        sr, weights, sizes = principal_minor_sums(model), model.h_weights, range(1, p.n + 1)
    for F, low, d, kazh, size in zip(sr.full, sr.initial, sr.degrees,
                                     kazhdan_homogeneous(sr, model), sizes, strict=True):
        want = poly_oracle.lowest_degree_component(F)
        assert low == want
        assert d == low.total_degree() == poly_oracle.total_degree(want)
        assert F.total_degree() == poly_oracle.total_degree(F)
        assert kazh is poly_oracle.kazhdan_check(F, weights, size)
        assert F.factored_terms() == poly_oracle.decode(F)
        assert low.factored_terms() == poly_oracle.decode(low)


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
    """The rows at the integer multiple lcm(denominators) * point of a
    rational point are positive multiples of the gradients there."""
    den = lcm(*(Fraction(x).denominator for x in point.values()))
    nums = {v: int(Fraction(point[v]) * den) for v in JAC_VARS}
    rows = evaluate_jacobian(polys, [nums[v] for v in JAC_VARS])
    assert all(isinstance(x, int) for row in rows for x in row)
    for P, row in zip(polys, rows):
        assert_positive_multiple(
            row, [P.partial_derivative(v).evaluate(nums) for v in JAC_VARS])


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
        evaluate_jacobian([P], [1, 2, 3, 4, 5])


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


# -- the slice-matrix route to the Jacobian rows --------------------------------

ROUTE_SLICES = ([f"gl {p}" for n in range(1, 7) for p in partitions_of(n)]
                + [f"sp {p}" for n in (2, 4, 6) for p in partitions_of(n, ClassicalType.SP)])


@functools.cache
def route_case(name: str):
    """The slice restriction of ``"gl 3,1"`` or ``"sp 2,2"`` and its ALPHA point."""
    algebra, parts = name.split()
    p = Partition.parse(parts)
    if algebra == "sp":
        sp = build_sp_model(p)
        return symplectic_minor_sums(sp), restrict_alpha_to_fixed(sp)
    model = build_gl_model(p)
    return principal_minor_sums(model), build_alpha(model, default_alpha_coefficients(model))


def route_points(name: str, randoms: int) -> list[list[int]]:
    """ALPHA, ZERO, then ``randoms`` integer points and as many with some
    zero coordinates."""
    sr, alpha = route_case(name)
    r = len(alpha.nums)
    rng = random.Random(name)
    points = [list(alpha.nums), [0] * r]
    for _ in range(randoms):
        points.append([rng.randint(-10, 10) for _ in range(r)])
        points.append([rng.choice((0, rng.randint(-9, 9))) for _ in range(r)])
    return points


def assert_routes_agree(name: str, points) -> None:
    """Every slice-matrix row is a positive multiple of the expansion row,
    with the same signs, for all initial terms."""
    sr, _ = route_case(name)
    for nums in points:
        got = slice_matrix_rows(sr, nums)
        want = evaluate_jacobian(sr.initial, nums)
        assert len(got) == len(want) == sr.count
        for row, oracle in zip(got, want):
            assert all(type(x) is int for x in row)
            assert [(x > 0) - (x < 0) for x in row] == [(o > 0) - (o < 0) for o in oracle]
            assert_positive_multiple(row, oracle)


@pytest.mark.parametrize("name", ROUTE_SLICES)
def test_slice_matrix_rows_match_the_expansion(name):
    assert_routes_agree(name, route_points(name, 3))


@pytest.mark.parametrize("name", ["gl 1,1,1,1,1,1,1", "gl 2,1,1,1,1,1"])
def test_slice_matrix_rows_match_the_expansion_at_n_7(name):
    # ALPHA, ZERO and one point with zero coordinates
    alpha, zero, _, sparse = route_points(name, 1)
    assert_routes_agree(name, [alpha, zero, sparse])


def test_route_rule_takes_the_slice_matrix_only_where_it_is_cheaper():
    # m n^4 against terms times degree: 625 < 1305 at 1^5, 1296 < 9786 at
    # 1^6 and 1296 < 2844 at sp 1^6; everywhere else up to n = 6 the expansion
    slices = {name: route_case(name)[0] for name in ROUTE_SLICES}
    chosen = {name for name, sr in slices.items() if _slice_matrix_cheaper(sr)}
    assert chosen == {"gl 1,1,1,1,1", "gl 1,1,1,1,1,1", "sp 1,1,1,1,1,1"}
    for name in ("gl 2,1,1,1,1", "gl 1,1,1,1", "gl 4", "gl 5", "gl 6", "sp 6"):
        assert name in ROUTE_SLICES and name not in chosen


def test_jacobian_rows_dispatch(monkeypatch):
    # the expansion route returns evaluate_jacobian's rows as they are
    sr, alpha = route_case("gl 2,1,1,1,1")
    assert jacobian_rows(sr, alpha.nums) == evaluate_jacobian(sr.initial, alpha.nums)
    # the slice-matrix route never expands
    sr, alpha = route_case("gl 1,1,1,1,1,1")
    expected = slice_matrix_rows(sr, alpha.nums)

    def refuse(*args):
        raise AssertionError("expanded on the slice-matrix route")

    monkeypatch.setattr(invariants, "evaluate_jacobian", refuse)
    assert jacobian_rows(sr, alpha.nums) == expected


@pytest.mark.parametrize("name", [f"gl {p}" for n in range(1, 6) for p in partitions_of(n)]
                         + [f"sp {p}" for n in (2, 4, 6) for p in partitions_of(n, ClassicalType.SP)])
def test_jacobian_rows_of_an_integer_multiple(name):
    """The initial term of degree d is homogeneous, so on both routes its
    row at c gamma is c^(d - 1) times its row at gamma, and the Jacobian
    rank at c gamma is the rank at gamma."""
    sr, _ = route_case(name)
    assert all(d >= 1 for d in sr.degrees)
    for route in (slice_matrix_rows, lambda sr, nums: evaluate_jacobian(sr.initial, nums)):
        for nums in route_points(name, 2):
            rows = route(sr, nums)
            rank = bareiss([row[:] for row in rows])[0]
            for c in (2, 3, 6):
                multiple = route(sr, [c * x for x in nums])
                assert multiple == [[c ** (d - 1) * x for x in row]
                                    for row, d in zip(rows, sr.degrees)]
                assert bareiss(multiple)[0] == rank


def test_slice_matrix_rows_reject_a_point_of_another_length():
    sr, _ = route_case("gl 2,1")
    with pytest.raises(ValueError):
        slice_matrix_rows(sr, [1, 2, 3])
    with pytest.raises(ArithmeticError):
        _exact_div(7, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_faddeev_leverrier_matches_sympy_charpoly(Z):
    sympy = pytest.importorskip("sympy")
    n = len(Z)
    A = sympy.Matrix(Z)
    # all_coeffs()[k] is the coefficient of t^(n-k), that is (-1)^k e_k(Z)
    e = [(-1) ** k * c for k, c in enumerate(A.charpoly().all_coeffs())]
    chain = _faddeev_leverrier(Z, n + 1)
    assert len(chain) == n + 1
    for ell, M in enumerate(chain, start=1):
        assert all(type(x) is int for row in M for x in row)
        P = sympy.zeros(n, n)
        for j in range(ell):
            P += (-1) ** j * e[ell - 1 - j] * A ** j
        assert sympy.Matrix(M) == (-1) ** (ell - 1) * P
    # Cayley-Hamilton: P_n(Z) = (-1)^n chi(Z) = 0
    assert not any(x for row in chain[n] for x in row)


# -- brackets and the group probe on the structure rows ------------------------


@functools.cache
def bracket_model(name: str):
    """The gl or sp model named like "gl 3,2,1" or "sp 2,1,1"."""
    kind, parts = name.split()
    if kind == "sp":
        return build_sp_model(Partition.parse(parts))
    return build_gl_model(Partition.parse(parts))


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


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["gl 2,1", "gl 3,2,1", "gl 1,1,1,1", "gl 2,2,1", "sp 2,1,1", "sp 2,2"]),
       st.data())
def test_coordinate_bracket_matches_fraction_reference(name, data):
    """The indexed bracket against the Fraction reference, with exponents
    up to 3, so that a weight e * numerator differs from the numerator."""
    model = bracket_model(name)
    names = model.var_names
    a = data.draw(st.integers(0, model.dim - 1), label="a")
    terms = data.draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(1, 3), min_size=1, max_size=3),
        st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(2, 12))),
        min_size=1, max_size=6), label="terms")
    Q = from_exponents(names, terms)
    expected = reference_coordinate_bracket(model, a, Q)
    assume(not expected.is_zero())
    got = coordinate_bracket_with(model, a, Q, term_index(Q))
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


@pytest.mark.parametrize("name", ["gl 3,2,1", "sp 2,2,1,1"])
def test_coadjoint_series_matches_dense_exponential(name):
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
    """A top initial term, fixed by the model's coadjoint group."""
    kind, parts = name.split()
    if kind == "sp":
        return symplectic_minor_sums(build_sp_model(Partition.parse(parts))).initial[-1]
    return principal_minor_sums(bracket_model(name)).initial[-1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["gl 3,2,1", "sp 2,1,1"]), st.data())
def test_cleared_group_probe_values(name, data):
    """den * L^M * F(v / L) on integers equals the Fraction value, for
    perturbed (non-central, possibly inhomogeneous) F at moved points; the
    unperturbed invariant never changes value (L = 2 occurs on both models)."""
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
    assert all(type(c) is int for bucket in char_poly_terms(cleared, t_key)
               for c in bucket.values())


@st.composite
def laplace_matrices(draw):
    """Square integer term-dict matrices, n = 1..6: sparse with some rows and
    columns zeroed, dense (every entry nonzero), or with a constant Jordan
    superdiagonal on top of sparse entries."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["sparse", "dense", "jordan"]))
    monos = st.lists(st.tuples(minor_monomials, st.integers(-3, 3).filter(bool)), max_size=2)
    if shape == "dense":
        entry = monos.map(term_dict).map(lambda ent: ent or {0: 1})
    else:
        entry = monos.map(term_dict)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "jordan":
        for i in range(n - 1):
            rows[i][i + 1] = {0: 1}
    if shape != "dense":
        index = st.integers(0, n - 1)
        for i in draw(st.sets(index, max_size=2)):
            rows[i] = [{} for _ in range(n)]
        for j in draw(st.sets(index, max_size=2)):
            for row in rows:
                row[j] = {}
    return rows


@settings(max_examples=120, deadline=None)
@given(laplace_matrices())
@example([[{}, {}, {}], [{}, {}, {}], [{}, {}, {}]])
@example([[{1: 2}, {0: 1}, {}, {}], [{}, {1: 2}, {0: 1}, {}],
          [{}, {}, {1: 2}, {0: 1}], [{1 << _WIDTH: -1}, {}, {}, {1: 2}]])
def test_laplace_expansion_matches_the_one_pass_oracle(rows):
    """Every e_l bucket of the split expansion equals the one-pass subset
    expansion's coefficient of t^(n - l) times (-1)^l, term for term."""
    t_key = 1 << (_WIDTH * len(MINOR_VARS))
    got = char_poly_terms(rows, t_key)
    assert got == poly_oracle.char_poly_buckets(rows, t_key)
    assert got[0] == {0: 1}
    assert all(type(c) is int for bucket in got for c in bucket.values())


def _slice_of(name):
    """(entries, variable names) of the slice e + g_f of a "gl"/"sp" partition."""
    algebra, parts = name.split()
    p = Partition.parse(parts)
    if algebra == "sp":
        sp = build_sp_model(p)
        return _slice_entries(sp.gl.realization.e, sp.gf_dual, p.n), sp.var_names
    m = build_gl_model(p)
    return _slice_entries(m.realization.e, m.gf_dual, p.n), m.var_names


@pytest.mark.parametrize("name", ORACLE_SLICES)
def test_slice_minor_sums_match_the_one_pass_oracle(name):
    entries, names = _slice_of(name)
    got = principal_minor_sum_polys(entries, names)
    want = poly_oracle.minor_sum_polys(entries, names)
    assert [P.terms for P in got] == [Q.terms for Q in want]
    assert [P.den for P in got] == [Q.den for Q in want]


ORDER_COMMANDS = ["degrees", "centrality", "support", "conjecture", "p0", "diffcrit", "nullcone"]


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2,1"])
def test_term_order_does_not_reach_the_certificates(parts, monkeypatch):
    """The expansion fixes the term dicts but not their insertion order: with
    every minor sum's terms reversed (so ``full``, ``initial`` and the p0
    expansion all read them backwards) the report is the same."""
    # p0 expands all of gl_n, so its budget is raised to reach n = 6
    cfg = RunConfig(algebra="gl", partitions=[parts], commands=ORDER_COMMANDS, seed=7,
                    p0_budget=6)

    def report():
        out = build_report(cfg, [Partition.parse(parts)])
        out.pop("timings")
        return json.dumps(out)

    want = report()
    expand = invariants.principal_minor_sum_polys
    monkeypatch.setattr(invariants, "principal_minor_sum_polys", lambda entries, names: [
        SparsePoly(P.variables, dict(reversed(P.terms.items())), P.den)
        for P in expand(entries, names)])
    sr = principal_minor_sums(build_gl_model(Partition.parse(parts)))
    top = expand(*_slice_of(f"gl {parts}"))[-1]
    assert list(sr.full[-1].terms) == list(reversed(top.terms)) != list(top.terms)
    assert report() == want
    assert [c["status"] for c in json.loads(want)["certificates"]] == ["PASS"] * len(ORDER_COMMANDS)


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
