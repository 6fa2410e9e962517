"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to watch them go by.
"""

import json
import random

from centinv.centralizer import build_gl_model, build_sp_model
from centinv.invariants import (
    conjecture_explicit_check,
    principal_minor_sums,
    symplectic_minor_sums,
    top_coefficient_crosscheck,
    verify_centrality,
)
from centinv.nullcone import (
    component_zero_locus_check,
    enumerate_components,
    top_block_support_check,
    transversality_certificate,
)
from centinv.partitions import (
    ClassicalType,
    Partition,
    degrees_gl,
    degrees_sp,
    dim_centralizer_gl,
    partitions_of,
    so_good_system_diagnostic,
)
from centinv.regularity import (
    Functional,
    alpha_stabilizer_basis_check,
    build_alpha,
    build_beta,
    build_beta_prime_sum,
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
from centinv.runner import RunConfig, build_report, sweep_partitions
from test_regularity import fresh_jacobian_rank, fresh_stab
from math import comb

SEED = 0


def sample(model, k):
    """The first k functionals ``random_functional`` draws from
    ``Random(SEED)``, the points a run at SEED reads."""
    rng = random.Random(SEED)
    return [random_functional(model, rng) for _ in range(k)]


def report(name: str, ok: bool) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_degree_formula():
    """Symbolic degrees match the Young-diagram rule for every n <= 6."""
    ok = True
    for n in range(1, 7):
        for p in partitions_of(n):
            m = build_gl_model(p)
            sr = principal_minor_sums(m)
            ok &= tuple(sr.degrees) == degrees_gl(p)
            ok &= 2 * sum(sr.degrees) == dim_centralizer_gl(p) + n
    assert report("1 (degree formula, n<=6)", ok)


def test_criterion_2_poisson_centrality_and_top_coefficient():
    """Exact centrality for n <= 5; the two routes agree up to scalars for n <= 4."""
    ok = True
    for n in range(1, 6):
        for p in partitions_of(n):
            m = build_gl_model(p)
            sr = principal_minor_sums(m)
            failing, _, group_failures = verify_centrality(sr, m, sample(m, 15))
            ok &= failing is None and not group_failures
            if n <= 4:
                passed, scalars, _ = top_coefficient_crosscheck(m, sr)
                ok &= passed and all(v != 0 for v in scalars.values())
    assert report("2 (poisson centrality + top-coefficient route)", ok)


def test_criterion_3_regular_functionals():
    """Stabiliser dims of the two distinguished functionals are exactly n, n <= 8."""
    ok = True
    for n in range(1, 9):
        for p in partitions_of(n):
            m = build_gl_model(p)
            alpha = build_alpha(m, default_alpha_coefficients(m))
            ok &= stabilizer_dim(alpha, m) == n
            _, diagonal_span = alpha_stabilizer_basis_check(m, alpha, fresh_stab(m))
            ok &= diagonal_span
            if p.k >= 2:
                ok &= stabilizer_dim(build_beta(m), m) == n
    assert report("3 (regular functionals, n<=8)", ok)


def index_certified_by_alpha(dims, rank):
    """The index of ``index_report``'s (gamma, stab) list is the rank, and
    its first point of stabiliser dim rank is alpha."""
    point = next((gamma for gamma, stab in dims if stab == rank), None)
    return (min(stab for _, stab in dims) == rank and point is not None
            and point.provenance.startswith("ALPHA"))


def test_criterion_4_index():
    """Index report returns the rank exactly, with alpha as certificate."""
    ok = True
    for n in range(1, 9):
        for p in partitions_of(n):
            m = build_gl_model(p)
            special = [build_alpha(m, default_alpha_coefficients(m))]
            if p.k >= 2:
                special.append(build_beta(m))
            dims = index_report(fresh_stab(m), special + sample(m, 5))
            ok &= index_certified_by_alpha(dims, n)
    for n in range(1, 5):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            alpha = restrict_alpha_to_fixed(sp)
            dims = index_report(fresh_stab(sp), [alpha] + sample(sp, 5))
            ok &= index_certified_by_alpha(dims, n)
    assert report("4 (index = rank, gl n<=8 and sp 2n<=8)", ok)


def test_criterion_5_differential_criterion():
    """Gradient rank is full exactly at regular points: alpha, 0, 50 random."""
    ok = True
    for n in range(1, 7):
        for p in partitions_of(n):
            m = build_gl_model(p)
            sr = principal_minor_sums(m)
            alpha = build_alpha(m, default_alpha_coefficients(m))
            zero = Functional((0,) * m.dim, "ZERO")
            points = [alpha, zero] + sample(m, 50)
            ranks = fresh_jacobian_rank(sr), fresh_stab(m)
            for gamma in points:
                jacobian_rank, stab = differential_criterion(sr, m, gamma, *ranks)
                ok &= (jacobian_rank == n) == (stab == n)
            ok &= differential_criterion(sr, m, alpha, *ranks) == (n, n)
            if p.k >= 2:
                jacobian_rank, stab = differential_criterion(sr, m, zero, *ranks)
                ok &= jacobian_rank != n and stab != n
    assert report("5 (differential criterion, n<=6)", ok)


def all_clean(probes):
    return all(certified and hits == 0 for certified, hits, _, _ in probes)


def test_criterion_6_singular_locus_codimension():
    """Plane scans on a 7x7 grid and 10 exact line probes, all clean."""
    ok = True
    for n in range(1, 7):
        for p in partitions_of(n):
            m = build_gl_model(p)
            if p.k >= 2:
                alpha = build_alpha(m, default_alpha_coefficients(m))
                beta = build_beta(m)
                ok &= not plane_regularity_scan(m, alpha, beta, 7, fresh_stab(m))
                ok &= torus_eigenvector_check(m, alpha, beta)
            ok &= all_clean(singular_locus_probe(m, lines=10, seed=SEED))
    for n in range(1, 4):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            alpha = restrict_alpha_to_fixed(sp)
            if p.k >= 2:
                beta = build_beta_prime_sum(sp)[0]
                ok &= not plane_regularity_scan(sp, alpha, beta, 7, fresh_stab(sp))
            ok &= all_clean(singular_locus_probe(sp, lines=10, seed=SEED))
    assert report("6 (singular locus codimension probes)", ok)


def test_criterion_7_symplectic_degrees():
    """Minimal-orbit degree ladder 1,3,...,2n-1 and full symbolic match 2n<=8."""
    ok = True
    for n in (2, 3, 4):
        minimal = Partition(tuple([2] + [1] * (2 * n - 2)))
        ok &= degrees_sp(minimal) == tuple(range(1, 2 * n, 2))
    for n in range(1, 5):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            sr = symplectic_minor_sums(sp)
            ok &= tuple(sr.degrees) == degrees_sp(p)
    assert report("7 (symplectic degrees, 2n<=8)", ok)


def test_criterion_8_so_diagnostic():
    """The 12-dimensional orthogonal example reproduces 18, 11 < 12 exactly."""
    diag = so_good_system_diagnostic(Partition.parse("5,3,2,2"))
    ok = (diag["dim_centralizer"] == 18
          and diag["even_degree_sum"] == 13
          and diag["pfaffian_adjusted_sum"] == 11
          and diag["bound"] == 12
          and diag["verdict"] == "NO_GOOD_SYSTEM_FROM_MINORS")
    assert report("8 (orthogonal minor-degree diagnostic)", ok)


def test_criterion_9_null_cone():
    """Support, component counts, transversal subspace, regular sequence."""
    ok = True
    for n in range(2, 7):
        for p in partitions_of(n):
            if p.k < 2:
                continue
            m = build_gl_model(p)
            sr = principal_minor_sums(m)
            ok &= not top_block_support_check(m, sr)
            ok &= len(enumerate_components(p)) == comb(p.d[-1] + p.k, p.k - 1)
            ok &= component_zero_locus_check(m, sr)
            stages, failure = transversality_certificate(m, sr, seed=SEED)
            ok &= not failure and sum(len(st["subspace_rows"]) for st in stages) == n
    assert report("9 (null-cone geometry, n<=6)", ok)


def test_criterion_10_signed_sum_conjecture():
    """Initial terms proportional to the signed permutation sums, n <= 5."""
    ok = True
    for n in range(1, 6):
        for p in partitions_of(n):
            m = build_gl_model(p)
            sr = principal_minor_sums(m)
            ratios = conjecture_explicit_check(sr, m)
            # a failure ends the list in None
            ok &= len(ratios) == n and all(r for r in ratios)
    assert report("10 (signed-sum expansion, n<=5)", ok)


def test_criterion_11_reproducibility():
    """The same sweep config yields byte-identical reports, timings aside."""
    cfg = RunConfig(algebra="gl", commands=[], all_commands=True, seed=7, max_n=6)
    parts = sweep_partitions(cfg)
    cfg.partitions = [str(p) for p in parts]
    dumps = []
    for _ in range(2):
        rep = build_report(cfg, parts)
        rep.pop("timings")
        dumps.append(json.dumps(rep, sort_keys=True, indent=2))
    ok = dumps[0] == dumps[1] and json.loads(dumps[0])["summary"]["fail"] == 0
    assert report("11 (byte-identical reports)", ok)
