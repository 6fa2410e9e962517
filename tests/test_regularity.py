"""Regular functionals, stabilisers, index and singular-locus probes."""

import copy
import functools
import random
import re
from dataclasses import fields
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

import pytest
from dense_oracle import kernel, rank, structure_of
from hypothesis import assume, example, given, settings, strategies as st

from centinv import invariants, regularity, runner
from centinv.centralizer import XiIndex, build_gl_model, build_sp_model
from centinv.invariants import jacobian_rows, principal_minor_sums, symplectic_minor_sums
from centinv.partitions import ClassicalType, Partition, partitions_of
from centinv.regularity import (
    Functional,
    alpha_stabilizer_basis_check,
    bracket_form_matrix,
    build_alpha,
    build_beta,
    build_beta_prime_sum,
    choose_generators,
    default_alpha_coefficients,
    differential_criterion,
    index_report,
    plane_regularity_scan,
    random_functional,
    restrict_alpha_to_fixed,
    singular_locus_probe,
    stabilizer_dim,
    torus_eigenvector_check,
)
from centinv.linalg import RatMatrix, bareiss
from centinv.regularity import (
    _PRIME,
    _Lanes,
    _charpoly_mod,
    _compress_line,
    _divmod,
    _draw,
    _gcd_mod,
    _interpolate,
    _pack,
    _pencil_exact,
    _poly_div_exact,
    _poly_gcd,
    _primitive,
    _rational_roots,
    _solve_mod,
    _trim,
    _unpack,
)


def zero_functional(model):
    return Functional((0,) * model.dim, "ZERO")


def fresh_stab(model):
    """``stabilizer_dim`` on model as the one-argument callable the checks
    read, ranking every point anew (a run reads
    ``PartitionContext.stabilizer_dim``)."""
    return functools.partial(stabilizer_dim, model=model)


def fresh_jacobian_rank(sr):
    """The Jacobian rank of the initial terms of sr as the callable the
    checks read, ranking every point anew (a run reads
    ``PartitionContext.jacobian_rank``)."""
    return lambda gamma: bareiss(jacobian_rows(sr, gamma.nums))[0]


def cleared(values, provenance="EXPLICIT"):
    """The integer point lcm(denominators) * values: a positive multiple of
    the rational point, which has its ranks."""
    den = lcm(*(Fraction(x).denominator for x in values))
    return Functional(tuple(int(x * den) for x in values), provenance)


def rho_coords(model, gamma, t):
    """The contraction action: coordinate at xi[i,j,s] scales by t^(1 + j - i)."""
    t = Fraction(t)
    return tuple(c * t ** (1 + w) for c, w in zip(gamma.nums, model.rho_weights))


def rho_scale(model, gamma, t):
    """rho(t) gamma, cleared to an integer point."""
    return cleared(rho_coords(model, gamma, t), f"RHO({Fraction(t)})*{gamma.provenance}")


def scaled(c, gamma):
    """The integer multiple c gamma."""
    return Functional(tuple(c * x for x in gamma.nums), gamma.provenance)


def combination(x, gamma1, y, gamma2):
    """The point x gamma1 + y gamma2."""
    return Functional(tuple(x * a + y * b for a, b in zip(gamma1.nums, gamma2.nums)))


def test_functional_is_an_integer_vector():
    g = Functional((2, -4, 0, 6), "X")
    assert (g.nums, g.provenance) == ((2, -4, 0, 6), "X")
    assert [f.name for f in fields(Functional)] == ["nums", "provenance"]
    # a point is not brought to lowest terms: a multiple is another point
    assert g != Functional((1, -2, 0, 3), "X")
    assert Functional((0, 0)).is_zero() and not g.is_zero()


def test_functional_rejects_a_bad_denominator_or_entry():
    # a rational entry fails loudly instead of being read as an integer;
    # the check is a gcd, not an assert, so it holds under python -O
    with pytest.raises(TypeError):
        Functional((Fraction(1, 2), 0))
    with pytest.raises(TypeError):
        Functional((Fraction(1, 2), Fraction(1)), "OLD")
    with pytest.raises(TypeError):
        Functional((1, 2.0))


def test_alpha_coordinates():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, [1, 2])
    nz = {m.labels[a]: c for a, c in enumerate(alpha.nums) if c}
    assert nz == {"xi[1,1,1]": 1, "xi[2,2,0]": 2}
    assert alpha.provenance == "ALPHA(1,2)"
    with pytest.raises(ValueError):
        build_alpha(m, [1])
    with pytest.raises(TypeError):
        build_alpha(m, [Fraction(1, 2), 1])


def test_beta_coordinates():
    m = build_gl_model(Partition.parse("2,1"))
    beta = build_beta(m)
    nz = {m.labels[a]: c for a, c in enumerate(beta.nums) if c}
    assert nz == {"xi[2,1,1]": 1}
    m2 = build_gl_model(Partition.parse("3,2,2"))
    beta2 = build_beta(m2)
    nz2 = {m2.labels[a]: c for a, c in enumerate(beta2.nums) if c}
    assert nz2 == {"xi[2,1,2]": 1, "xi[3,2,1]": 1}
    with pytest.raises(ValueError):
        build_beta(build_gl_model(Partition.parse("4")))


def test_bracket_matrix_for_two_blocks():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, [1, 2])
    B = bracket_form_matrix(m, alpha)
    assert B.rank() == 2 == m.dim - 3
    assert stabilizer_dim(alpha, m) == 3
    assert stabilizer_dim(zero_functional(m), m) == m.dim


@pytest.mark.parametrize("n", range(1, 9))
def test_alpha_beta_stabilizers_all_partitions(n):
    for p in partitions_of(n):
        m = build_gl_model(p)
        alpha = build_alpha(m, default_alpha_coefficients(m))
        assert stabilizer_dim(alpha, m) == n, p
        if p.k >= 2:
            assert stabilizer_dim(build_beta(m), m) == n, p


@pytest.mark.parametrize("parts", ["2,1", "5", "3,2,1", "2,2,1"])
def test_alpha_stabilizer_is_diagonal_span(parts):
    p = Partition.parse(parts)
    m = build_gl_model(p)
    alpha = build_alpha(m, default_alpha_coefficients(m))
    kernel_dim, diagonal_span = alpha_stabilizer_basis_check(m, alpha, fresh_stab(m))
    assert diagonal_span
    assert kernel_dim == p.n


def kernel_route(model, a):
    """(kernel_dim, passed) of the alpha check through an explicit kernel
    basis of B(alpha) (the dense oracle's): len(diag) vectors, each
    supported on the diagonal coordinates."""
    kern = kernel(exact_form(model, build_alpha(model, a)))
    diag = {t for t, idx in enumerate(model.xi) if idx.i == idx.j}
    inside = all(not v for vec in kern for c, v in enumerate(vec) if c not in diag)
    return len(kern), len(kern) == len(diag) and inside


@pytest.mark.parametrize("n", range(1, 7))
def test_alpha_stabilizer_check_matches_the_kernel_route(n):
    for p in partitions_of(n):
        m = build_gl_model(p)
        default = default_alpha_coefficients(m)
        for a in (default, default[1:] + default[:1]):
            assert (alpha_stabilizer_basis_check(m, build_alpha(m, a), fresh_stab(m))
                    == kernel_route(m, a) == (n, True)), (p, a)


def with_brackets(model, edits):
    """A copy of the model with [xi_a, xi_b] = sum_c x_c xi_c for each
    (a, b): {c: x_c} in edits; the rows stay antisymmetric."""
    rows = [list(row) for row in model.rows]
    for (a, b), bracket in edits.items():
        rows[a][b] = tuple(sorted(bracket.items()))
        rows[b][a] = tuple((c, -x) for c, x in rows[a][b])
    planted = copy.copy(model)
    planted.rows = tuple(map(tuple, rows))
    return planted


def test_alpha_stabilizer_check_fails_on_planted_brackets():
    # on 2,1 with alpha = (1, 2), B(alpha) is nonzero only at
    # xi[1,2,0], xi[2,1,1]: rank 2, kernel the diagonal span of dimension 3
    m = build_gl_model(Partition.parse("2,1"))
    a = [1, 2]
    t, u, v = (m.index[XiIndex(*x)] for x in ((1, 1, 0), (1, 2, 0), (2, 1, 1)))
    top = m.index[XiIndex(1, 1, 1)]  # alpha is 1 there
    assert m.rows[u][v]
    # [xi[1,1,0], xi[1,2,0]] gains xi[1,1,1]: the diagonal column t is
    # nonzero while the rank stays 2, so the kernel has the right dimension
    leaves = with_brackets(m, {(t, u): {top: 1}})
    # [xi[1,2,0], xi[2,1,1]] = 0: B(alpha) = 0 and the kernel is everything
    oversized = with_brackets(m, {(u, v): {}})
    for model, dim in ((leaves, 3), (oversized, m.dim)):
        assert (alpha_stabilizer_basis_check(model, build_alpha(model, a), fresh_stab(model))
                == kernel_route(model, a) == (dim, False))


def test_alpha_stabilizer_check_is_exact_at_equal_scalars():
    # equal scalars are no refusal: the answer is exact at every alpha. On
    # 2,1 the kernel is still the diagonal span; on 2,2, alpha = (1, 1) is
    # central, so B(alpha) = 0 and the kernel is all of g_e
    for parts, expected in (("2,1", (3, True)), ("2,2", (8, False))):
        m = build_gl_model(Partition.parse(parts))
        alpha = build_alpha(m, [1, 1])
        assert (alpha_stabilizer_basis_check(m, alpha, fresh_stab(m))
                == kernel_route(m, [1, 1]) == expected), parts


def test_alpha_with_signed_scalars():
    m = build_gl_model(Partition.parse("3,1"))
    alpha = build_alpha(m, [1, -1])
    assert stabilizer_dim(alpha, m) == 4


def test_vinberg_bound_on_samples():
    for parts in ("2,1", "3,2", "2,2,1"):
        m = build_gl_model(Partition.parse(parts))
        rng = random.Random(9)
        for _ in range(25):
            gamma = random_functional(m, rng)
            assert stabilizer_dim(gamma, m) >= m.rank


def test_rho_scaling_preserves_stabilizer_dim():
    m = build_gl_model(Partition.parse("3,2"))
    rng = random.Random(4)
    for _ in range(10):
        gamma = random_functional(m, rng)
        base = stabilizer_dim(gamma, m)
        for t in (Fraction(2), Fraction(-1, 3), Fraction(5, 2)):
            assert stabilizer_dim(rho_scale(m, gamma, t), m) == base


def test_rho_eigenvalues_of_alpha_and_beta():
    m = build_gl_model(Partition.parse("3,2"))
    alpha = build_alpha(m, default_alpha_coefficients(m))
    beta = build_beta(m)
    for t in (Fraction(2), Fraction(1, 2)):
        assert rho_coords(m, alpha, t) == tuple(t * c for c in alpha.nums)
        assert rho_coords(m, beta, t) == beta.nums


def index_of(dims):
    """The index estimate of ``index_report``'s (gamma, stab) list."""
    return min(stab for _, stab in dims)


def sample(model, seed, k):
    """The first k functionals ``random_functional`` draws from
    ``Random(seed)``, the points a run at seed reads."""
    rng = random.Random(seed)
    return [random_functional(model, rng) for _ in range(k)]


@pytest.mark.parametrize("parts", ["2,1", "4", "3,2"])
def test_index_report_gl(parts):
    p = Partition.parse(parts)
    m = build_gl_model(p)
    alpha = build_alpha(m, default_alpha_coefficients(m))
    special = [alpha] + ([build_beta(m)] if p.k >= 2 else [])
    dims = index_report(fresh_stab(m), special + sample(m, 1, 20))
    assert [gamma for gamma, _ in dims[:len(special)]] == special
    assert index_of(dims) == p.n
    certificate_point = next((gamma for gamma, stab in dims if stab == m.rank), None)
    assert certificate_point is not None
    assert certificate_point.provenance.startswith("ALPHA")
    assert index_of(dims) >= m.rank


def test_index_report_sp():
    sp = build_sp_model(Partition.parse("2,1,1"))
    alpha = restrict_alpha_to_fixed(sp)
    assert index_of(index_report(fresh_stab(sp), [alpha] + sample(sp, 1, 20))) == 2
    sp22 = build_sp_model(Partition.parse("2,2"))
    dims = index_report(fresh_stab(sp22), [restrict_alpha_to_fixed(sp22)] + sample(sp22, 1, 20))
    assert index_of(dims) == 2


def runner_draws(monkeypatch) -> list:
    """The functionals ``runner`` draws from now on; the line probe draws
    through the name in ``regularity`` and is not counted."""
    drawn = []

    def counted(model, rng):
        drawn.append(random_functional(model, rng))
        return drawn[-1]

    monkeypatch.setattr(runner, "random_functional", counted)
    return drawn


def test_context_sample_is_one_stream_drawn_once(monkeypatch):
    """``sample(k)`` is the first k draws of ``Random(seed)``; a larger
    request draws only the new points, and a smaller one draws none."""
    drawn = runner_draws(monkeypatch)
    ctx = runner.PartitionContext(Partition.parse("3,1"), runner.RunConfig(seed=4))
    first = ctx.sample(3)
    assert first == sample(ctx.model, 4, 3) and len(drawn) == 3
    longer = ctx.sample(7)
    assert longer[:3] == first and longer == sample(ctx.model, 4, 7) and len(drawn) == 7
    assert ctx.sample(2) == first[:2] and len(drawn) == 7


def test_all_commands_draw_one_sample(monkeypatch):
    """An all-commands gl run of 3,2,1 draws 50 functionals outside the line
    probe, diffcrit's: index (10), the group probe (15) and the Jacobian
    rank (3) read prefixes of them, where a stream each would draw 78."""
    drawn = runner_draws(monkeypatch)
    cfg = runner.RunConfig(all_commands=True, seed=7)
    certs, _ = runner.run_partition(Partition.parse("3,2,1"), cfg)
    assert all(c["status"] == "PASS" for c in certs)
    assert len(drawn) == cfg.diffcrit_points == 50


def ranked_run(monkeypatch, p, algebra):
    """Every command of an all-commands run on one ``PartitionContext``,
    with ``RatMatrix.rank`` and ``jacobian_rows`` (under every name a
    module holds it by) counted: (context, rank calls, Jacobian calls,
    the nums of every point read through the context's two rank
    callables)."""
    calls = {"rank": 0, "jacobian": 0}
    reads = {"stab": [], "jacobian": []}
    rank_of, rows_of = RatMatrix.rank, jacobian_rows
    stab_of, jacobian_rank_of = (runner.PartitionContext.stabilizer_dim,
                                 runner.PartitionContext.jacobian_rank)

    def counted_rank(self):
        calls["rank"] += 1
        return rank_of(self)

    def counted_rows(sr, nums):
        calls["jacobian"] += 1
        return rows_of(sr, nums)

    def read_stab(self, gamma):
        reads["stab"].append(gamma.nums)
        return stab_of(self, gamma)

    def read_jacobian(self, gamma):
        reads["jacobian"].append(gamma.nums)
        return jacobian_rank_of(self, gamma)

    monkeypatch.setattr(RatMatrix, "rank", counted_rank)
    for module in (runner, invariants, regularity):
        if hasattr(module, "jacobian_rows"):
            monkeypatch.setattr(module, "jacobian_rows", counted_rows)
    monkeypatch.setattr(runner.PartitionContext, "stabilizer_dim", read_stab)
    monkeypatch.setattr(runner.PartitionContext, "jacobian_rank", read_jacobian)
    cfg = runner.RunConfig(algebra=algebra, all_commands=True, seed=7)
    ctx = runner.PartitionContext(p, cfg)
    for name in runner.commands_for(cfg, p):
        assert runner.COMMANDS[name].check(ctx)["status"] == "PASS" or name == "lines"
    monkeypatch.undo()
    return ctx, calls["rank"], calls["jacobian"], reads


MEMO_PARTITIONS = ([("gl", p) for n in range(1, 6) for p in partitions_of(n)]
                   + [("sp", p) for n in range(1, 4)
                      for p in partitions_of(2 * n, ClassicalType.SP)])


@pytest.mark.parametrize("algebra,p", MEMO_PARTITIONS, ids=lambda x: str(x))
def test_each_point_is_ranked_once_per_context(monkeypatch, algebra, p):
    """A point read twice through ``PartitionContext`` is ranked once: the
    rank and Jacobian calls are the distinct points read, each kept value
    is the fresh rank, and a second context of the partition ranks
    everything again, so nothing outlives a context."""
    ctx, ranks, jacobians, reads = ranked_run(monkeypatch, p, algebra)
    assert ranks == len(set(reads["stab"])) == len(ctx.stabilizer_dims)
    assert jacobians == len(set(reads["jacobian"])) == len(ctx.jacobian_ranks)
    # alpha is read by stabilizers, index and diffcrit at least
    assert len(reads["stab"]) > len(set(reads["stab"]))
    # centrality's three Jacobian points are among diffcrit's
    assert len(reads["jacobian"]) >= len(set(reads["jacobian"])) + 3
    for nums, dim in ctx.stabilizer_dims.items():
        assert dim == stabilizer_dim(Functional(nums), ctx.model), nums
    for nums, rank_ in ctx.jacobian_ranks.items():
        assert rank_ == bareiss(jacobian_rows(ctx.slice, nums))[0], nums
    again = ranked_run(monkeypatch, p, algebra)
    assert again[1:] == (ranks, jacobians, reads)


def test_plane_scan_gl():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, default_alpha_coefficients(m))
    beta = build_beta(m)
    assert not plane_regularity_scan(m, alpha, beta, 5, fresh_stab(m))
    assert torus_eigenvector_check(m, alpha, beta)
    m32 = build_gl_model(Partition.parse("3,2"))
    assert not plane_regularity_scan(
        m32, build_alpha(m32, default_alpha_coefficients(m32)), build_beta(m32), 7,
        fresh_stab(m32))


def per_point_failures(model, gamma1, gamma2, grid=7):
    """The plane scan's failures with one rank per grid point (reference)."""
    half = grid // 2
    coords = range(-half, grid - half)
    failures = []
    for x in coords:
        for y in coords:
            if x or y:
                stab = stabilizer_dim(combination(x, gamma1, y, gamma2), model)
                if stab != model.rank:
                    failures.append((str(x), str(y), stab))
    return failures


def check_scan_against_per_point(model, gamma1, gamma2, rho_ok):
    """The scan's failures, checked against the per-point scan, and the
    torus check of the pair."""
    failures = plane_regularity_scan(model, gamma1, gamma2, 7, fresh_stab(model))
    assert failures == per_point_failures(model, gamma1, gamma2)
    assert torus_eigenvector_check(model, gamma1, gamma2) is rho_ok
    return failures


@pytest.mark.parametrize("n", range(2, 7))
def test_plane_scan_matches_the_per_point_scan_gl(n):
    for p in partitions_of(n):
        if p.k < 2:
            continue
        m = build_gl_model(p)
        beta = build_beta(m)
        a = default_alpha_coefficients(m)
        check_scan_against_per_point(m, build_alpha(m, a), beta, True)
        # two equal block scalars: alpha itself is singular
        check_scan_against_per_point(m, build_alpha(m, [a[0]] + a[:-1]), beta, True)


def test_plane_scan_fails_exactly_on_the_alpha_line():
    m = build_gl_model(Partition.parse("1,1,1"))
    failures = check_scan_against_per_point(m, build_alpha(m, [1, 1, 2]), build_beta(m), True)
    assert failures
    assert [(x, y) for x, y, _ in failures] == [
        ("-3", "0"), ("-2", "0"), ("-1", "0"), ("1", "0"), ("2", "0"), ("3", "0")]


def test_plane_scan_of_integer_multiples_fails_on_the_same_lines():
    # on gl_3 a diagonal point is singular where two entries agree; for
    # x diag(1, 2, 3) + y diag(0, 1, 3) that is y = -x, y = -2x/3 and
    # y = -x/2, and the scan of (c gamma1, c gamma2) fails on the same lines;
    # gamma2 is diagonal, so rho(t) scales it instead of fixing it
    m = build_gl_model(Partition.parse("1,1,1"))
    gamma1, gamma2 = build_alpha(m, [1, 2, 3]), build_alpha(m, [0, 1, 3])
    for c in (1, 2, 3, 6):
        failures = check_scan_against_per_point(m, scaled(c, gamma1), scaled(c, gamma2), False)
        assert sorted((int(x), int(y)) for x, y, _ in failures) == [
            (-3, 2), (-3, 3), (-2, 1), (-2, 2), (-1, 1),
            (1, -1), (2, -2), (2, -1), (3, -3), (3, -2)]


def rho_scale_torus_check(model, gamma1, gamma2):
    """The torus check as rho(t) comparisons at three t (reference)."""
    return all(rho_coords(model, gamma1, t) == tuple(t * c for c in gamma1.nums)
               and rho_coords(model, gamma2, t) == gamma2.nums
               for t in (Fraction(2), Fraction(-3), Fraction(1, 2)))


def test_torus_check_matches_the_rho_scale_comparison():
    rng = random.Random(5)
    verdicts = []
    for n in range(2, 7):
        for p in partitions_of(n):
            if p.k < 2:
                continue
            m = build_gl_model(p)
            alpha, beta = build_alpha(m, default_alpha_coefficients(m)), build_beta(m)
            pairs = [(alpha, beta), (alpha, random_functional(m, rng)),
                     (random_functional(m, rng), beta)]
            for gamma1, gamma2 in pairs:
                rho_ok = torus_eigenvector_check(m, gamma1, gamma2)
                assert rho_ok is rho_scale_torus_check(m, gamma1, gamma2), p
                verdicts.append(rho_ok)
    assert True in verdicts and False in verdicts


def test_plane_scan_matches_the_per_point_scan_sp():
    for n in range(1, 4):
        for p in partitions_of(2 * n, ClassicalType.SP):
            if p.k < 2:
                continue
            sp = build_sp_model(p)
            check_scan_against_per_point(
                sp, restrict_alpha_to_fixed(sp),
                build_beta_prime_sum(sp)[0], None)


def test_plane_scan_rejects_dependent_pair():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, default_alpha_coefficients(m))
    with pytest.raises(ValueError):
        plane_regularity_scan(m, alpha, Functional(tuple(2 * x for x in alpha.nums)), 5,
                              fresh_stab(m))


def test_beta_prime_sum():
    sp = build_sp_model(Partition.parse("2,1,1"))
    beta, terms, checks = build_beta_prime_sum(sp)
    assert checks["beta_prime_nonzero"]
    assert checks["beta_prime_vanishes_on_odd_part"]
    assert checks["beta_prime_torus_exponents_ok"]
    assert len(terms) == 1  # only the unpaired top block needs a correction
    assert stabilizer_dim(beta, sp) == sp.rank
    # all blocks unpaired (every d_i odd): every index below k contributes
    sp42 = build_sp_model(Partition.parse("4,2"))
    _, terms42, checks42 = build_beta_prime_sum(sp42)
    assert len(terms42) == 1
    assert checks42["beta_prime_vanishes_on_odd_part"]
    with pytest.raises(ValueError):
        build_beta_prime_sum(build_sp_model(Partition.parse("4")))


def test_sp_alpha_restriction_regular_up_to_8():
    for n in range(1, 5):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            alpha = restrict_alpha_to_fixed(sp)
            assert stabilizer_dim(alpha, sp) == n, p


def test_differential_criterion_cases():
    p = Partition.parse("2,1")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    alpha = build_alpha(m, default_alpha_coefficients(m))
    ranks = fresh_jacobian_rank(sr), fresh_stab(m)
    assert differential_criterion(sr, m, alpha, *ranks) == (m.rank, m.rank)
    jacobian_rank, stab = differential_criterion(sr, m, zero_functional(m), *ranks)
    assert jacobian_rank != m.rank and stab != m.rank
    assert jacobian_rank == p.d[0] + 1
    rng = random.Random(17)
    for _ in range(20):
        jacobian_rank, stab = differential_criterion(sr, m, random_functional(m, rng), *ranks)
        assert (jacobian_rank == m.rank) == (stab == m.rank)


def test_choose_generators_takes_rank_many_initial_terms():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    assert choose_generators(sr, m) == list(range(m.rank))
    sp = build_sp_model(Partition.parse("2,2,1,1"))
    assert choose_generators(symplectic_minor_sums(sp), sp) == [0, 1, 2]
    extra = copy.copy(sr)
    extra.full = sr.full + sr.full[-1:]
    with pytest.raises(ValueError):
        choose_generators(extra, m)


def test_differential_criterion_needs_good_degree_sum():
    import dataclasses

    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    broken = dataclasses.replace(sr, degrees=[1, 1, 1])
    with pytest.raises(ValueError):
        differential_criterion(broken, m, zero_functional(m), fresh_jacobian_rank(broken),
                               fresh_stab(m))


def all_clean(probes):
    """The verdict of ``runner.cmd_lines``: every line certified clean."""
    return all(certified and hits == 0 for certified, hits, _, _ in probes)


def test_line_probe_clean_small():
    for parts in ("2,1", "3,2", "2,2"):
        m = build_gl_model(Partition.parse(parts))
        probes = singular_locus_probe(m, lines=10, seed=0)
        assert all_clean(probes), parts
        assert all(hits == 0 for _, hits, _, _ in probes)


def test_line_probe_abelian_trivial():
    m = build_gl_model(Partition.parse("4"))
    probes = singular_locus_probe(m, lines=10, seed=0)
    assert all_clean(probes)
    assert all("abelian" in detail for _, _, _, detail in probes)


def test_line_probe_confirms_a_real_singular_hit():
    # this seeded symplectic line genuinely meets the singular locus once
    sp = build_sp_model(Partition.parse("2,2,1,1"))
    probes = singular_locus_probe(sp, lines=10, seed=7)
    assert not all_clean(probes)
    hits = [(certified, count) for certified, count, _, _ in probes if count]
    assert len(hits) == 1
    assert hits[0] == (True, 1)


def test_line_probe_sp_clean():
    sp = build_sp_model(Partition.parse("2,1,1"))
    assert all_clean(singular_locus_probe(sp, lines=10, seed=0))


@pytest.mark.parametrize("parts, scalars", [("2,2", [1, 1]), ("2,2,1", [1, 1, 2]),
                                             ("2,1,1", [1, 2, 2])])
def test_line_probe_never_certifies_a_line_in_the_singular_locus(parts, scalars, monkeypatch):
    # alpha with equal scalars on two blocks of one size is not regular, and
    # the trace form vanishes on [g_e, g_e], so B(g0 + t g1) = B(g0) has rank
    # below rho for every t and every compression of the line is zero
    import centinv.regularity as reg

    p = Partition.parse(parts)
    m = build_gl_model(p)
    g0 = build_alpha(m, scalars)
    trace = [0] * m.dim
    for i in range(1, p.k + 1):
        trace[m.index[XiIndex(i, i, 0)]] = p.parts[i - 1]
    g1 = Functional(tuple(trace), "TRACE")
    assert stabilizer_dim(g0, m) > m.rank
    assert bracket_form_matrix(m, g1).rank() == 0
    drawn = iter([g0, g1] * 2)
    monkeypatch.setattr(reg, "random_functional", lambda model, rng: next(drawn))
    probes = singular_locus_probe(m, lines=2, seed=0)
    assert not all_clean(probes)
    for certified, hits, _, detail in probes:
        assert (certified, hits, detail) == (False, None, "no usable compression found")


# -- the integer univariate helpers of the line probe ---------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_polys(min_degree=0, max_degree=5):
    """Integer coefficient lists, low degree first, with a nonzero leading term."""
    return st.builds(
        lambda low, lead: low + [lead],
        st.lists(st.integers(-30, 30), min_size=min_degree, max_size=max_degree),
        st.integers(-30, 30).filter(bool))


@settings(max_examples=150, deadline=None)
@given(int_polys(max_degree=7))
def test_interpolate_recovers_the_primitive_part(f):
    values = [sum(x * t ** i for i, x in enumerate(f)) for t in range(len(f))]
    assert _interpolate(values) == _primitive(f)
    assert _interpolate([0] * len(f)) == []


@settings(max_examples=150, deadline=None)
@given(int_polys(), int_polys(), int_polys(max_degree=3))
def test_poly_gcd_holds_the_common_factor(a, b, g):
    ag, bg = poly_mul(a, g), poly_mul(b, g)
    h = _poly_gcd(ag, bg)
    assert h == _primitive(h)
    _poly_div_exact(h, _primitive(g))
    _poly_div_exact(ag, h)
    _poly_div_exact(bg, h)


@settings(max_examples=150, deadline=None)
@given(int_polys(), int_polys(min_degree=1, max_degree=3), st.integers(-50, 50).filter(bool))
def test_poly_div_exact_rejects_a_non_divisor(q, b, r):
    b = _primitive(b)
    a = poly_mul(q, b)
    assert _poly_div_exact(a, b) == q
    a[0] += r  # remainder r of degree 0 < deg b
    assert _divmod(a, b) == (q, [r])
    with pytest.raises(ArithmeticError):
        _poly_div_exact(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-64, 64), unique=True, max_size=4),
       st.integers(-99, 99), st.integers(1, 9), st.integers(-99, 99), st.integers(1, 9))
def test_rational_roots_finds_the_planted_roots(integers, q1, p1, q2, p2):
    pair = {Fraction(q1, p1), Fraction(q2, p2)}
    planted = pair | {Fraction(t) for t in integers}
    assume(len(planted) == len(integers) + 2)
    f = [1]
    for t in integers:
        f = poly_mul(f, [-t, 1])
    for t in pair:
        f = poly_mul(f, [-t.numerator, t.denominator])
    assert _rational_roots(_primitive(f)) == (sorted(planted), True)


def test_rational_roots_flags_what_it_cannot_decide():
    assert _rational_roots([-2, 0, 1]) == ([], True)         # t^2 - 2: irrational pair
    assert _rational_roots([1, 0, 1]) == ([], True)          # t^2 + 1: no real root
    assert _rational_roots([-2, 0, 0, 1]) == ([], False)     # t^3 - 2: cubic left over
    assert _rational_roots([65, -1]) == ([Fraction(65)], True)


# -- the modular compressions of the line probe ---------------------------------


def int_matrices(rows, cols, lo=-5, hi=5):
    return st.lists(st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def pencils(draw, max_rho=16):
    """(C0, C1) of size rho <= max_rho; C1 has a zero row when asked to."""
    rho = draw(st.integers(1, max_rho))
    C0 = draw(int_matrices(rho, rho))
    C1 = draw(int_matrices(rho, rho))
    zero_row = draw(st.booleans())
    if zero_row:
        C1[draw(st.integers(0, rho - 1))] = [0] * rho
    return C0, C1, zero_row


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def packed(A, B, prime):
    """The lanes of the pencil (B, A) and the packed rows of [A | B]: the
    compression with U = V = Id."""
    lanes = _Lanes(B, A, len(A), prime)
    return lanes, lanes.compress(identity(len(A)), identity(len(A)))


def lanes_of(x, lanes):
    """Every w-bit lane of x >= 0."""
    return _unpack(x, lanes.w, max(1, -(-x.bit_length() // lanes.w)))


_fold = _Lanes.fold


def checked_fold(self, x, times):
    """``_Lanes.fold`` that checks every fold of the kernels: each lane keeps
    its residue and lands below q = 2^(k+1)."""
    y = _fold(self, x, times)
    before, after = lanes_of(x, self), lanes_of(y, self)
    after += [0] * (len(before) - len(after))
    assert len(after) == len(before)
    assert all(b < 2 << self.k and a % self.prime == b % self.prime
               for a, b in zip(before, after))
    return y


def packed_pencil(C0, C1, prime):
    """det(C0 + t C1) modulo prime, low degree first, from the packed solve
    and Hessenberg step; None when det(C1) = 0 modulo prime."""
    lanes, rows = packed(C1, C0, prime)
    det1, X = _solve_mod(rows, lanes)
    if X is None:
        return None
    rho = len(C0)
    return [(det1 if (rho - k) % 2 == 0 else prime - det1) * c % prime
            for k, c in enumerate(_charpoly_mod(X, lanes))]


@settings(max_examples=150, deadline=None)
@given(pencils())
@example(([[1, 2], [3, 4]], [[0, 0], [1, 1]], True))
@example(([[1, 2], [3, 4]], [[1, 0], [0, 1]], False))
def test_packed_pencil_matches_the_exact_determinants(pencil):
    C0, C1, zero_row = pencil
    rho = len(C0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Lanes, "fold", checked_fold)
        got = packed_pencil(C0, C1, _PRIME)
    if got is None:
        # only a C1 that is singular modulo the prime takes the exact fallback
        assert bareiss([row[:] for row in C1])[1] % _PRIME == 0
        return
    assert not zero_row
    assert len(got) == rho + 1
    for t in range(rho + 1):
        exact = bareiss([[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(C0, C1)])[1]
        assert sum(c * t ** i for i, c in enumerate(got)) % _PRIME == exact % _PRIME


def _int_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _solve_mod_reference(A, B, prime):
    """(det A, A^-1 B) modulo prime by one scalar Gauss-Jordan pass; (0, None)
    when A is singular modulo prime."""
    n = len(A)
    aug = [[x % prime for x in ra] + [x % prime for x in rb] for ra, rb in zip(A, B)]
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        pv = aug[col][col]
        det = det * pv % prime
        inv = pow(pv, -1, prime)
        pr = [x * inv % prime for x in aug[col][col:]]
        aug[col][col:] = pr
        for i in range(n):
            f = aug[i][col]
            if f and i != col:
                aug[i][col:] = [(x - f * y) % prime for x, y in zip(aug[i][col:], pr)]
    return det % prime, [row[n:] for row in aug]


def _charpoly_mod_reference(H, prime):
    """det(t Id - H) modulo prime for residues H, low degree first, by a
    scalar Hessenberg reduction; H is overwritten."""
    n = len(H)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(H[m][m - 1], -1, prime)
        pr = H[m][m - 1:]
        us = []
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % prime
            if u:
                H[i][m - 1:] = [(x - u * y) % prime for x, y in zip(H[i][m - 1:], pr)]
                us.append((i, u))
        if us:
            for row in H:
                row[m] = (row[m] + sum(u * row[i] for i, u in us)) % prime
    polys = [[1]]
    for m in range(n):
        new = [0] + polys[m]
        h = H[m][m]
        for k, c in enumerate(polys[m]):
            new[k] -= h * c
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * H[i + 1][i] % prime
            if not prod:
                break
            coef = H[i][m] * prod % prime
            if coef:
                for k, c in enumerate(polys[i]):
                    new[k] -= coef * c
        polys.append([x % prime for x in new])
    return polys[n]


def check_packed_kernels(A, B, H, prime):
    """The packed solve of [A | B] and the Hessenberg step, on X and on H,
    against the scalar references, with every fold checked."""
    rho, q = len(A), 2 << prime.bit_length()
    lanes, rows = packed(A, B, prime)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Lanes, "fold", checked_fold)
        det, X = _solve_mod(rows, lanes)
        ref_det, ref_X = _solve_mod_reference(A, B, prime)
        assert det == ref_det
        if ref_X is None:
            assert X is None
        else:
            # X is handed over folded: every lane below q
            x_lanes = [_unpack(row, lanes.w, rho) for row in X]
            assert row_lanes_below(X, lanes, rho, q)
            assert [[x % prime for x in row] for row in x_lanes] == ref_X
            assert _charpoly_mod(X, lanes) == _charpoly_mod_reference(ref_X, prime)
        residues = [[x % prime for x in row] for row in H]
        # every lane of H at its largest representative below q
        top = [[x + (q - 1 - x) // prime * prime for x in row] for row in residues]
        assert (_charpoly_mod([_pack(row, lanes.w) for row in top], lanes)
                == _charpoly_mod_reference(residues, prime))


def row_lanes_below(rows, lanes, count, bound):
    """Whether every row holds count lanes, each below bound."""
    return all(row >> (lanes.w * count) == 0 and max(_unpack(row, lanes.w, count)) < bound
               for row in rows)


@st.composite
def modular_kernel_inputs(draw):
    """(A, B, H, prime): the prime of the probe with rho <= 32, or a small
    prime, whose zero pivots force row and column swaps and empty
    eliminations; some entries are zero, the rest up to p - 1 in size."""
    prime = draw(st.sampled_from([_PRIME, 5, 7, 11, 13]))
    rho = draw(st.sampled_from(range(1, 33 if prime == _PRIME else 13)))  # uniform sizes
    hi = draw(st.sampled_from([1, 3, prime - 1]))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def matrix():
        return [[0 if rng.random() < zeros else rng.randint(-hi, hi) for _ in range(rho)]
                for _ in range(rho)]

    return matrix(), matrix(), matrix(), prime


def random_residues(rho, seed):
    rng = random.Random(seed)
    return [[rng.randrange(_PRIME) for _ in range(rho)] for _ in range(rho)]


def off_diagonal_p_minus_1(rho, diagonal):
    return [[_PRIME - 1 if i != j else diagonal for j in range(rho)] for i in range(rho)]


@settings(max_examples=150, deadline=None)
@given(modular_kernel_inputs())
# rho = 56, the pencil size of 1^8
@example((random_residues(56, 0), random_residues(56, 1), random_residues(56, 2), _PRIME))
# every residue at p - 1, the largest lanes; then A = I - J modulo p, with
# det 1 - rho != 0, so the solve runs every step on them
@example((off_diagonal_p_minus_1(56, _PRIME - 1),) * 3 + (_PRIME,))
@example((off_diagonal_p_minus_1(56, 0), off_diagonal_p_minus_1(56, _PRIME - 1),
          off_diagonal_p_minus_1(56, 0), _PRIME))
def test_packed_kernels_match_the_scalar_references(inputs):
    check_packed_kernels(*inputs)


@st.composite
def compressions(draw):
    """(U, B0, B1, V) with general B0, B1 up to 2^40 and U, V in the draw
    range [-3, 3]."""
    r = draw(st.integers(1, 8))
    rho = draw(st.integers(1, r))
    return (draw(int_matrices(rho, r, -3, 3)), draw(int_matrices(r, r, -2 ** 40, 2 ** 40)),
            draw(int_matrices(r, r, -2 ** 40, 2 ** 40)), draw(int_matrices(r, rho, -3, 3)))


ZERO_8 = [[0] * 8] * 8


@settings(max_examples=150, deadline=None)
@given(compressions())
# every entry at its maximum with one sign: C_ij = 9 sum|B|, the top lane
# below 2 bias, in C0 and in C1
@example(([[3] * 8] * 8, [[2 ** 40] * 8] * 8, ZERO_8, [[3] * 8] * 8))
@example(([[3] * 8] * 8, ZERO_8, [[2 ** 40] * 8] * 8, [[3] * 8] * 8))
# and with the other: C_ij = -9 sum|B|, the lowest lane the bias reads back
@example(([[3] * 8] * 8, [[-2 ** 40] * 8] * 8, ZERO_8, [[3] * 8] * 8))
@example(([[3] * 8] * 8, ZERO_8, [[-2 ** 40] * 8] * 8, [[3] * 8] * 8))
def test_packed_compression_is_the_plain_product(uvb):
    U, B0, B1, V = uvb
    lanes = _Lanes(B0, B1, len(U), _PRIME)
    rows = lanes.compress(U, V)
    assert row_lanes_below(rows, lanes, 2 * len(U), 2 * lanes.bias)
    assert lanes.decode(rows) == (_int_matmul(_int_matmul(U, B0), V),
                                  _int_matmul(_int_matmul(U, B1), V))


@pytest.mark.parametrize("prime", [_PRIME, 5, 7, 11, 13])
@pytest.mark.parametrize("rho", [1, 2, 8, 56])
@pytest.mark.parametrize("size", [0, 10 ** 12])
def test_every_lane_at_its_stated_bound_folds_below_q(prime, rho, size):
    """Each fold site with every lane at its stated bound: the pivot row
    before the inverse and X (2 bias + rho p q), the pivot row after it
    (p q) and the recurrence (q + (rho+1) p q).  The folds keep each
    residue and land below q, and the Hessenberg bound leaves the guard
    bit of a lane clear."""
    p, k = prime, prime.bit_length()
    q = 2 << k
    lanes = _Lanes([[size]], [[0]], rho, prime)
    assert (lanes.k, lanes.c) == (k, (1 << k) - p)
    assert lanes.bias % p == 0 and 9 * size < lanes.bias <= 9 * size + p
    solve, poly = 2 * lanes.bias + rho * p * q, q + (rho + 1) * p * q
    hess = q + rho * p * p + rho * p * (q + rho * p * p)
    assert max(solve, hess, poly) < 1 << (lanes.w - 1)
    for bound, times in ((solve, lanes.row_folds), (p * q, lanes.unit_folds),
                         (poly, lanes.poly_folds)):
        folded = _unpack(lanes.fold(_pack([bound] * 2 * rho, lanes.w), times), lanes.w, 2 * rho)
        assert all(x < q and x % p == bound % p for x in folded)


def test_prime_is_one_digit_and_prime():
    assert _PRIME < 2 ** 30
    assert all(_PRIME % q for q in range(2, isqrt(_PRIME) + 1))


def exact_gcd(drawn):
    g = None
    for lanes, rows in drawn:
        d = _pencil_exact(*lanes.decode(rows))
        if d:
            g = d if g is None else _poly_gcd(g, d)
    return g


small_primes = st.sampled_from([5, 7, 11, 13])


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.data(), small_primes, st.integers(-6, 6), st.integers(0, 2 ** 32))
def test_small_prime_never_certifies_a_planted_singular_parameter(r, data, prime, q, seed):
    # B(t) = X (Y0 + t Y1) with Y0 + (q/d) Y1 = Z of rank rho - 1: every
    # compression det(U B(t) V) vanishes at t = q/d.  When the prime
    # divides d, the factor d t - q is a constant modulo the prime and
    # only the leading-coefficient anchor keeps it from certifying.
    d = data.draw(st.sampled_from([1, 2, 3, prime, 2 * prime]))
    rho = data.draw(st.integers(1, r))
    X = data.draw(int_matrices(r, rho, -3, 3))
    W = data.draw(int_matrices(rho, r, -3, 3))
    Z = data.draw(int_matrices(rho - 1, r, -3, 3)) + [[0] * r]
    B0 = _int_matmul(X, [[z - q * w for z, w in zip(rz, rw)] for rz, rw in zip(Z, W)])
    B1 = _int_matmul(X, [[d * w for w in rw] for rw in W])
    certified, drawn = _compress_line(B0, B1, rho, random.Random(seed), 6, prime)
    assert not certified
    assert len(drawn) == 6


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.data(), small_primes, st.integers(0, 2 ** 32))
def test_small_prime_certificate_implies_a_constant_exact_gcd(r, data, prime, seed):
    rho = data.draw(st.integers(1, r))
    B0 = data.draw(int_matrices(r, r, -2, 2))
    B1 = data.draw(int_matrices(r, r, -2, 2))
    certified, drawn = _compress_line(B0, B1, rho, random.Random(seed), 6, prime)
    if certified:
        g = exact_gcd(drawn)
        assert g is not None and len(g) == 1


def test_draw_is_randint_on_the_same_generator_state():
    for seed in range(200):
        plain, packed = random.Random(seed), random.Random(seed)
        bits = packed.getrandbits
        assert [plain.randint(-3, 3) for _ in range(500)] == [_draw(bits) for _ in range(500)]
        assert plain.random() == packed.random()


def compress_line_reference(B0, B1, rho, rng, budget, prime):
    """``_compress_line`` from ``randint`` draws, plain products and the scalar kernels."""
    r = len(B0)
    drawn = []
    gcd_mod = None
    anchored = False
    for _ in range(budget):
        U = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rho)]
        V = [[rng.randint(-3, 3) for _ in range(rho)] for _ in range(r)]
        C0 = _int_matmul(_int_matmul(U, B0), V)
        C1 = _int_matmul(_int_matmul(U, B1), V)
        drawn.append((C0, C1))
        det1, X = _solve_mod_reference(C1, C0, prime)
        if X is None:
            exact = _pencil_exact(C0, C1)
            dpoly = _trim([x % prime for x in exact])
            anchored = anchored or (bool(dpoly) and len(dpoly) == len(exact))
        else:
            chi = _charpoly_mod_reference([[-x % prime for x in row] for row in X], prime)
            dpoly = [det1 * c % prime for c in chi]
            anchored = True
        if dpoly:
            gcd_mod = dpoly if gcd_mod is None else _gcd_mod(gcd_mod, dpoly, prime)
            if len(gcd_mod) == 1 and anchored:
                return True, drawn
    return False, drawn


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data(), st.sampled_from([_PRIME, 5, 7, 11, 13]),
       st.integers(0, 2 ** 32))
def test_compress_line_matches_the_reference_loop(r, data, prime, seed):
    rho = data.draw(st.integers(1, r))
    B0 = data.draw(int_matrices(r, r, -40, 40))
    B1 = data.draw(int_matrices(r, r, -40, 40))
    rng, ref = random.Random(seed), random.Random(seed)
    certified, drawn = _compress_line(B0, B1, rho, rng, 6, prime)
    assert ((certified, [lanes.decode(rows) for lanes, rows in drawn])
            == compress_line_reference(B0, B1, rho, ref, 6, prime))
    assert rng.random() == ref.random()


# -- integer bracket forms ------------------------------------------------------


def exact_form(model, gamma):
    """B(gamma) straight from the rational structure constants, in Fraction rows."""
    r = model.dim
    rows = [[Fraction(0)] * r for _ in range(r)]
    for (a, b), entries in structure_of(model).items():
        v = sum((coeff * gamma.nums[c] for c, coeff in entries), Fraction(0))
        rows[a][b], rows[b][a] = v, -v
    return rows


def rational_functionals(model, rng, count=6):
    """Random integer points, then random rational points read at their
    cleared integer multiples."""
    out = [random_functional(model, rng) for _ in range(count)]
    out += [cleared([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                     for _ in range(model.dim)], "RATIONAL")
            for _ in range(count)]
    return out


def check_integer_form(model, gammas):
    for gamma in gammas:
        exact = exact_form(model, gamma)
        B = bracket_form_matrix(model, gamma)
        assert B.rows == exact
        assert model.dim - stabilizer_dim(gamma, model) == rank(exact)


@pytest.mark.parametrize("parts", ["2", "2,1,1", "2,2", "4,2", "2,2,1,1", "3,3"])
def test_integer_form_rank_on_symplectic_fixed_parts(parts):
    sp = build_sp_model(Partition.parse(parts))
    rng = random.Random(3)
    gammas = rational_functionals(sp, rng) + [restrict_alpha_to_fixed(sp)]
    check_integer_form(sp, gammas)


@pytest.mark.parametrize("parts", ["2,1", "3,2", "2,2,1"])
def test_integer_form_rank_on_rho_scaled_functionals(parts):
    m = build_gl_model(Partition.parse(parts))
    rng = random.Random(11)
    gammas = [rho_scale(m, g, Fraction(-1, 3)) for g in rational_functionals(m, rng, 4)]
    gammas.append(rho_scale(m, build_alpha(m, default_alpha_coefficients(m)), Fraction(-1, 3)))
    check_integer_form(m, gammas)


# -- scale invariance and refusals ---------------------------------------------

SCALE_MODELS = ([f"gl {p}" for n in range(1, 6) for p in partitions_of(n)]
                + [f"sp {p}" for n in (2, 4, 6) for p in partitions_of(n, ClassicalType.SP)])


@pytest.mark.parametrize("name", SCALE_MODELS)
def test_stabilizer_dim_of_an_integer_multiple(name):
    """B(c gamma) = c B(gamma), so every integer multiple of a point has its
    stabiliser: ALPHA, BETA or BETA_PRIME_SUM, ZERO and random points."""
    algebra, parts = name.split()
    p = Partition.parse(parts)
    if algebra == "sp":
        model = build_sp_model(p)
        points = [restrict_alpha_to_fixed(model)]
        if p.k >= 2:
            points.append(build_beta_prime_sum(model)[0])
    else:
        model = build_gl_model(p)
        points = [build_alpha(model, default_alpha_coefficients(model))]
        if p.k >= 2:
            points.append(build_beta(model))
    rng = random.Random(name)
    points += [zero_functional(model)] + [random_functional(model, rng) for _ in range(3)]
    for gamma in points:
        base = stabilizer_dim(gamma, model)
        for c in (2, 3, 6):
            assert stabilizer_dim(scaled(c, gamma), model) == base, (gamma.provenance, c)


def planted_fixed_part(sp, nums):
    """A copy of sp whose first sigma-fixed row gains 1/2 at a coordinate
    where the gl point nums is odd."""
    c = next(c for c, x in enumerate(nums) if x % 2)
    planted = copy.copy(sp)
    rows = planted.sigma_fixed_basis = [dict(row) for row in sp.sigma_fixed_basis]
    rows[0][c] = rows[0].get(c, 0) + Fraction(1, 2)
    return planted


def test_restrict_dual_refuses_a_non_integer_coordinate(monkeypatch):
    import centinv.runner as runner
    from centinv.runner import RunConfig, run_partition

    p = Partition.parse("2,1,1")
    sp = build_sp_model(p)
    alpha = build_alpha(sp.gl, default_alpha_coefficients(sp))
    restricted = sp.restrict_dual(alpha.nums)
    assert type(restricted) is tuple and all(type(x) is int for x in restricted)
    planted = planted_fixed_part(sp, alpha.nums)
    with pytest.raises(ArithmeticError, match="not an integer"):
        planted.restrict_dual(alpha.nums)
    with pytest.raises(ArithmeticError, match="not an integer"):
        restrict_alpha_to_fixed(planted)
    # through the runner the refusal is an internal ERROR certificate
    monkeypatch.setattr(runner, "build_sp_model", lambda q: planted)
    certs, _ = run_partition(p, RunConfig(algebra="sp", commands=["stabilizers"]))
    [cert] = certs
    assert (cert["claim"], cert["status"], cert["error_kind"]) == (
        "stabilizers", "ERROR", "internal")
    assert re.fullmatch(r"ArithmeticError: restricted coordinate -?\d+/2 is not an integer",
                        cert["witnesses"]["reason"])


def planted_J(sp, entry, value):
    """A copy of sp whose J entry read by the first beta' correction is
    ``value`` (None: missing); ``entry`` names the numerator or divisor."""
    p, real = sp.partition, sp.gl.realization
    i = next(i for i in range(1, p.k) if sp.pairing[i] != i + 1)
    key = {"numerator": (real.pos[(i + 1, 0)], real.pos[(sp.pairing[i + 1], p.d[i])]),
           "divisor": (real.pos[(i, p.d[i - 1])], real.pos[(sp.pairing[i], 0)])}[entry]
    J = dict(sp.J)
    assert J[key] in (1, -1)
    if value is None:
        del J[key]
    else:
        J[key] = value
    planted = copy.copy(sp)
    planted.J = J
    return planted


@pytest.mark.parametrize("entry", ["numerator", "divisor"])
@pytest.mark.parametrize("value", [2, -2, None])
def test_beta_prime_sum_refuses_a_J_entry_other_than_a_sign(entry, value):
    sp = build_sp_model(Partition.parse("2,1,1"))
    assert len(build_beta_prime_sum(sp)[1]) == 1
    with pytest.raises(ArithmeticError, match="not 1 or -1"):
        build_beta_prime_sum(planted_J(sp, entry, value))
