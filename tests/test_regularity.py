"""Regular functionals, stabilisers, index and singular-locus probes."""

import random
from fractions import Fraction
from math import isqrt
from operator import mul

import pytest
from dense_oracle import structure_of
from hypothesis import assume, example, given, settings, strategies as st

from centinv.centralizer import SubalgebraModel, XiIndex, build_gl_model, build_sp_model
from centinv.invariants import principal_minor_sums
from centinv.partitions import ClassicalType, Partition, partitions_of
from centinv.regularity import (
    Functional,
    alpha_stabilizer_basis_check,
    bracket_form_matrix,
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
)
from centinv.linalg import RatMatrix, bareiss
from centinv.regularity import (
    _PRIME,
    _charpoly_mod,
    _compress,
    _compress_line,
    _draw,
    _gcd_mod,
    _interpolate,
    _lane_width,
    _pencil_exact,
    _pencil_mod,
    _poly_div_exact,
    _poly_gcd,
    _primitive,
    _rational_roots,
    _solve_mod,
    _trim,
)


def zero_functional(model):
    return Functional((0,) * model.dim, "ZERO")


def rho_scale(model, gamma, t):
    """The contraction action: coordinate at xi[i,j,s] scales by t^(1 + j - i)."""
    t = Fraction(t)
    return Functional.of([c * t ** (1 + w) for c, w in zip(gamma.coords, model.rho_weights)],
                         f"RHO({t})*{gamma.provenance}")


def combination(x, gamma1, y, gamma2):
    """The point x gamma1 + y gamma2."""
    return Functional.of([x * a + y * b for a, b in zip(gamma1.coords, gamma2.coords)])


def test_functional_is_stored_in_lowest_terms():
    g = Functional((2, -4, 0, 6), "X", den=4)
    assert (g.nums, g.den, g.provenance) == ((1, -2, 0, 3), 2, "X")
    assert g.coords == (Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 2))
    assert g == Functional((1, -2, 0, 3), "X", den=2)
    zero = Functional((0, 0), den=5)
    assert (zero.nums, zero.den) == ((0, 0), 1) and zero.is_zero()
    assert Functional.of([Fraction(1, 2), Fraction(1, 3)]) == Functional((3, 2), den=6)


def test_functional_rejects_a_bad_denominator_or_entry():
    for den in (0, -3):
        with pytest.raises(ValueError):
            Functional((1, 2), den=den)
    # the old rational form fails loudly instead of being read as numerators
    with pytest.raises(TypeError):
        Functional((Fraction(1, 2), Fraction(1)), "OLD")
    with pytest.raises(TypeError):
        Functional((1, 2.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(), max_size=8))
def test_functional_of_reads_back_its_coordinates(values):
    g = Functional.of(values)
    assert g.coords == tuple(values)
    assert g.den > 0 and all(isinstance(x, int) for x in g.nums)


def test_alpha_coordinates():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, [1, 2])
    nz = {m.labels[a]: c for a, c in enumerate(alpha.coords) if c}
    assert nz == {"xi[1,1,1]": 1, "xi[2,2,0]": 2}
    with pytest.raises(ValueError):
        build_alpha(m, [1])


def test_beta_coordinates():
    m = build_gl_model(Partition.parse("2,1"))
    beta = build_beta(m)
    nz = {m.labels[a]: c for a, c in enumerate(beta.coords) if c}
    assert nz == {"xi[2,1,1]": 1}
    m2 = build_gl_model(Partition.parse("3,2,2"))
    beta2 = build_beta(m2)
    nz2 = {m2.labels[a]: c for a, c in enumerate(beta2.coords) if c}
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
    res = alpha_stabilizer_basis_check(m, default_alpha_coefficients(m))
    assert res.passed
    assert res.kernel_dim == p.n


def test_alpha_stabilizer_check_needs_distinct_scalars():
    m = build_gl_model(Partition.parse("2,1"))
    with pytest.raises(ValueError):
        alpha_stabilizer_basis_check(m, [1, 1])


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
        assert rho_scale(m, alpha, t).coords == tuple(t * c for c in alpha.coords)
        assert rho_scale(m, beta, t).coords == beta.coords


@pytest.mark.parametrize("parts", ["2,1", "4", "3,2"])
def test_index_report_gl(parts):
    p = Partition.parse(parts)
    m = build_gl_model(p)
    alpha = build_alpha(m, default_alpha_coefficients(m))
    special = (alpha,) + ((build_beta(m),) if p.k >= 2 else ())
    rep = index_report(m, samples=20, seed=1, special=special)
    assert rep.index_estimate == p.n
    assert rep.certificate_point is not None
    assert rep.certificate_point.provenance.startswith("ALPHA")
    assert rep.index_estimate >= rep.vinberg_bound


def test_index_report_needs_samples():
    m = build_gl_model(Partition.parse("2,1"))
    with pytest.raises(ValueError):
        index_report(m, samples=0)


def test_index_report_sp():
    sp = build_sp_model(Partition.parse("2,1,1"))
    alpha = restrict_alpha_to_fixed(sp)
    rep = index_report(sp.fixed, samples=20, seed=1, special=(alpha,))
    assert rep.index_estimate == 2
    sp22 = build_sp_model(Partition.parse("2,2"))
    rep = index_report(sp22.fixed, samples=20, seed=1,
                       special=(restrict_alpha_to_fixed(sp22),))
    assert rep.index_estimate == 2


def test_plane_scan_gl():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, default_alpha_coefficients(m))
    beta = build_beta(m)
    scan = plane_regularity_scan(m, alpha, beta, grid=5)
    assert scan.passed and scan.rho_eigenvector_check
    m32 = build_gl_model(Partition.parse("3,2"))
    scan = plane_regularity_scan(
        m32, build_alpha(m32, default_alpha_coefficients(m32)), build_beta(m32), grid=7)
    assert scan.passed


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
    scan = plane_regularity_scan(model, gamma1, gamma2, grid=7)
    failures = per_point_failures(model, gamma1, gamma2)
    assert scan.failures == failures
    assert scan.passed == (not failures)
    assert scan.rho_eigenvector_check is rho_ok
    return scan


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
    scan = check_scan_against_per_point(m, build_alpha(m, [1, 1, 2]), build_beta(m), True)
    assert not scan.passed
    assert [(x, y) for x, y, _ in scan.failures] == [
        ("-3", "0"), ("-2", "0"), ("-1", "0"), ("1", "0"), ("2", "0"), ("3", "0")]


def test_plane_scan_of_rational_points_fails_on_their_own_lines():
    # on gl_3 a diagonal point is singular where two entries agree; for
    # x diag(1, 2, 3)/2 + y diag(0, 1, 3)/3 that is y = -x and y = -3x/2
    m = build_gl_model(Partition.parse("1,1,1"))
    gamma1 = build_alpha(m, [Fraction(1, 2), 1, Fraction(3, 2)])
    gamma2 = build_alpha(m, [0, Fraction(1, 3), 1])
    assert (gamma1.den, gamma2.den) == (2, 3)
    scan = check_scan_against_per_point(m, gamma1, gamma2, None)
    assert sorted((int(x), int(y)) for x, y, _ in scan.failures) == [
        (-3, 3), (-2, 2), (-2, 3), (-1, 1), (1, -1), (2, -3), (2, -2), (3, -3)]


def rho_scale_torus_check(model, gamma1, gamma2):
    """The torus check as rho(t) comparisons at three t (reference)."""
    return all(rho_scale(model, gamma1, t).coords == tuple(t * c for c in gamma1.coords)
               and rho_scale(model, gamma2, t).coords == gamma2.coords
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
            pairs = [(alpha, beta),
                     (alpha, Functional(random_functional(m, rng).nums, "BETA")),
                     (Functional(random_functional(m, rng).nums, alpha.provenance), beta)]
            for gamma1, gamma2 in pairs:
                # a grid of one point holds only the origin: the torus check alone
                scan = plane_regularity_scan(m, gamma1, gamma2, grid=1)
                assert scan.rho_eigenvector_check is rho_scale_torus_check(m, gamma1, gamma2), p
                verdicts.append(scan.rho_eigenvector_check)
    assert True in verdicts and False in verdicts


def test_plane_scan_matches_the_per_point_scan_sp():
    for n in range(1, 4):
        for p in partitions_of(2 * n, ClassicalType.SP):
            if p.k < 2:
                continue
            sp = build_sp_model(p)
            check_scan_against_per_point(
                sp.fixed, restrict_alpha_to_fixed(sp),
                build_beta_prime_sum(sp).restricted, None)


def test_plane_scan_rejects_dependent_pair():
    m = build_gl_model(Partition.parse("2,1"))
    alpha = build_alpha(m, default_alpha_coefficients(m))
    with pytest.raises(ValueError):
        plane_regularity_scan(m, alpha, Functional(tuple(2 * x for x in alpha.nums)), grid=5)


def test_beta_prime_sum():
    sp = build_sp_model(Partition.parse("2,1,1"))
    res = build_beta_prime_sum(sp)
    assert res.nonzero
    assert res.vanishes_on_odd_part
    assert res.torus_exponents_ok
    assert len(res.gamma_terms) == 1  # only the unpaired top block needs a correction
    assert stabilizer_dim(res.restricted, sp.fixed) == sp.fixed.rank
    # all blocks unpaired (every d_i odd): every index below k contributes
    sp42 = build_sp_model(Partition.parse("4,2"))
    res42 = build_beta_prime_sum(sp42)
    assert len(res42.gamma_terms) == 1
    assert res42.vanishes_on_odd_part
    with pytest.raises(ValueError):
        build_beta_prime_sum(build_sp_model(Partition.parse("4")))


def test_sp_alpha_restriction_regular_up_to_8():
    for n in range(1, 5):
        for p in partitions_of(2 * n, ClassicalType.SP):
            sp = build_sp_model(p)
            alpha = restrict_alpha_to_fixed(sp)
            assert stabilizer_dim(alpha, sp.fixed) == n, p


def test_differential_criterion_cases():
    p = Partition.parse("2,1")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    alpha = build_alpha(m, default_alpha_coefficients(m))
    res = differential_criterion(sr, m, alpha)
    assert res.rank_full and res.stabilizer_minimal and res.passed
    zero = zero_functional(m)
    res0 = differential_criterion(sr, m, zero)
    assert not res0.rank_full and not res0.stabilizer_minimal and res0.passed
    assert res0.jacobian_rank == p.d[0] + 1
    rng = random.Random(17)
    for _ in range(20):
        gamma = random_functional(m, rng)
        assert differential_criterion(sr, m, gamma).passed


def test_differential_criterion_needs_good_degree_sum():
    import dataclasses

    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    broken = dataclasses.replace(sr, degrees=[1, 1, 1])
    with pytest.raises(ValueError):
        differential_criterion(broken, m, zero_functional(m))


def test_line_probe_clean_small():
    for parts in ("2,1", "3,2", "2,2"):
        m = build_gl_model(Partition.parse(parts))
        rep = singular_locus_probe(m, lines=10, seed=0)
        assert rep.all_clean, parts
        assert all(pr.singular_values == 0 for pr in rep.lines)


def test_line_probe_abelian_trivial():
    m = build_gl_model(Partition.parse("4"))
    rep = singular_locus_probe(m, lines=10, seed=0)
    assert rep.all_clean
    assert all("abelian" in pr.detail for pr in rep.lines)


def test_line_probe_confirms_a_real_singular_hit():
    # this seeded symplectic line genuinely meets the singular locus once
    sp = build_sp_model(Partition.parse("2,2,1,1"))
    rep = singular_locus_probe(sp.fixed, lines=10, seed=7)
    assert not rep.all_clean
    hits = [pr for pr in rep.lines if pr.singular_values]
    assert len(hits) == 1
    assert hits[0].certified
    assert hits[0].singular_values == 1


def test_line_probe_sp_clean():
    sp = build_sp_model(Partition.parse("2,1,1"))
    rep = singular_locus_probe(sp.fixed, lines=10, seed=0)
    assert rep.all_clean


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
    rep = singular_locus_probe(m, lines=2, seed=0)
    assert not rep.all_clean
    for pr in rep.lines:
        assert (pr.certified, pr.singular_values, pr.detail) == (
            False, None, "no usable compression found")


@pytest.mark.parametrize("s", [5, 100])
def test_line_probe_ignores_the_basis_scale(s):
    # a basis scaled by 1/s scales every bracket form by 1/s: the ranks
    # and the singular parameters along each line stay the same
    sp = build_sp_model(Partition.parse("2,1,1"))
    scaled = SubalgebraModel(sp.gl, [{c: x / s for c, x in row.items()}
                                     for row in sp.sigma_fixed_basis], rank=2)

    def per_line(model):
        rep = singular_locus_probe(model, lines=10, seed=0)
        return [(pr.certified, pr.singular_values, pr.detail) for pr in rep.lines]

    assert per_line(scaled) == per_line(sp.fixed)
    assert singular_locus_probe(scaled, lines=10, seed=0).all_clean


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


@settings(max_examples=150, deadline=None)
@given(pencils())
@example(([[1, 2], [3, 4]], [[0, 0], [1, 1]], True))
@example(([[1, 2], [3, 4]], [[1, 0], [0, 1]], False))
def test_pencil_mod_matches_the_exact_determinants(pencil):
    C0, C1, zero_row = pencil
    rho = len(C0)
    got = _pencil_mod(C0, C1, _PRIME)
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
    assert _solve_mod(A, B, prime) == _solve_mod_reference(A, B, prime)
    residues = [[x % prime for x in row] for row in H]
    assert _charpoly_mod(residues, prime) == _charpoly_mod_reference(residues, prime)


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
    """(U, B, V) with general B up to 2^40 and U, V in the draw range [-3, 3]."""
    r = draw(st.integers(1, 8))
    rho = draw(st.integers(1, r))
    return (draw(int_matrices(rho, r, -3, 3)), draw(int_matrices(r, r, -2 ** 40, 2 ** 40)),
            draw(int_matrices(r, rho, -3, 3)))


@settings(max_examples=150, deadline=None)
@given(compressions())
# every entry at its maximum with one sign: C_ij = 9 sum|B|, the lane bound
@example(([[3] * 8] * 8, [[2 ** 40] * 8] * 8, [[3] * 8] * 8))
# and with the other: C_ij = -9 sum|B|, the lowest lane the bias reads back
@example(([[3] * 8] * 8, [[-2 ** 40] * 8] * 8, [[3] * 8] * 8))
def test_packed_compression_is_the_plain_product(uvb):
    U, B, V = uvb
    assert _compress(U, B, V, _lane_width(B)) == _int_matmul(_int_matmul(U, B), V)


def test_prime_is_one_digit_and_prime():
    assert _PRIME < 2 ** 30
    assert all(_PRIME % q for q in range(2, isqrt(_PRIME) + 1))


def exact_gcd(drawn):
    g = None
    for C0, C1 in drawn:
        d = _pencil_exact(C0, C1)
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
    assert (_compress_line(B0, B1, rho, rng, 6, prime)
            == compress_line_reference(B0, B1, rho, ref, 6, prime))
    assert rng.random() == ref.random()


# -- integer bracket forms ------------------------------------------------------


def exact_form(model, gamma):
    """B(gamma) straight from the rational structure constants."""
    r = model.dim
    rows = [[Fraction(0)] * r for _ in range(r)]
    for (a, b), entries in structure_of(model).items():
        v = sum((coeff * gamma.coords[c] for c, coeff in entries), Fraction(0))
        rows[a][b], rows[b][a] = v, -v
    return RatMatrix(rows)


def rational_functionals(model, rng, count=6):
    out = [random_functional(model, rng) for _ in range(count)]
    out += [Functional.of([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                           for _ in range(model.dim)], "RATIONAL")
            for _ in range(count)]
    return out


def check_integer_form(model, gammas):
    for gamma in gammas:
        B = exact_form(model, gamma)
        assert bracket_form_matrix(model, gamma).rows == B.rows
        assert model.dim - stabilizer_dim(gamma, model) == B.rank()


@pytest.mark.parametrize("parts", ["2", "2,1,1", "2,2", "4,2", "2,2,1,1", "3,3"])
def test_integer_form_rank_on_symplectic_fixed_parts(parts):
    sp = build_sp_model(Partition.parse(parts))
    rng = random.Random(3)
    gammas = rational_functionals(sp.fixed, rng) + [restrict_alpha_to_fixed(sp)]
    check_integer_form(sp.fixed, gammas)


@pytest.mark.parametrize("s", [5, 100])
def test_integer_form_rank_on_a_scaled_basis(s):
    sp = build_sp_model(Partition.parse("2,1,1"))
    scaled = SubalgebraModel(sp.gl, [{c: x / s for c, x in row.items()}
                                     for row in sp.sigma_fixed_basis], rank=2)
    assert scaled.S > 1  # the constants are not integral
    check_integer_form(scaled, rational_functionals(scaled, random.Random(s)))


@pytest.mark.parametrize("parts", ["2,1", "3,2", "2,2,1"])
def test_integer_form_rank_on_rho_scaled_functionals(parts):
    m = build_gl_model(Partition.parse(parts))
    rng = random.Random(11)
    gammas = [rho_scale(m, g, Fraction(-1, 3)) for g in rational_functionals(m, rng, 4)]
    gammas.append(rho_scale(m, build_alpha(m, default_alpha_coefficients(m)), Fraction(-1, 3)))
    check_integer_form(m, gammas)
