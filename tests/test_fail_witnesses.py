"""FAIL certificates of the runner on planted inputs, witness for witness.

Each test caches a planted slice, model or functional in a
``PartitionContext`` and compares the certificate's JSON with a literal:
every FAIL branch a command writes (the centrality ``failure``, support
violations, the conjecture's ``first_failure``, the p0 ``detail``, the
diffcrit per-point, ``ALPHA`` and ``ZERO`` entries, an index without an
ALPHA certificate point, plane grid failures and the torus check, the
null-cone ``support_detail``, the diagonal-span, the sp beta' witnesses
and the line-probe verdicts) keeps its exact shape.
"""

import dataclasses
from fractions import Fraction

from poly_oracle import from_fractions, to_fractions, variable
from test_regularity import with_brackets

from centinv import partitions, runner
from centinv.centralizer import XiIndex
from centinv.nullcone import antidiagonal_spaces
from centinv.partitions import Partition
from centinv.poly import _WIDTH
from centinv.regularity import Functional, build_alpha
from centinv.runner import PartitionContext, RunConfig


def context(parts, algebra="gl", **options):
    cfg = RunConfig(algebra=algebra, partitions=[parts], seed=7, **options)
    return PartitionContext(Partition.parse(parts), cfg)


def with_initial(ctx, ell, poly):
    """Cache the context's slice with initial term ell replaced by poly."""
    initial = list(ctx.slice.initial)
    initial[ell - 1] = poly
    ctx.slice = dataclasses.replace(ctx.slice, initial=initial)


def certificate(ctx, command):
    return runner.COMMANDS[command].check(ctx)


def fail(claim, parts, witnesses, algebra="gl"):
    return {"claim": claim, "status": "FAIL", "partition": parts, "algebra": algebra,
            "tolerance": "exact", "witnesses": witnesses}


def test_degrees_fail_the_sum_identity_on_a_planted_dimension(monkeypatch):
    # dim g_e two too large breaks 2 sum(d) = dim g_e + rk: the run reports
    # a FAIL row, under plain python as under -O, and carries on
    true_dim = partitions.dim_centralizer_gl

    def planted(p):
        return true_dim(p) + 2

    monkeypatch.setattr(partitions, "dim_centralizer_gl", planted)
    monkeypatch.setattr(runner, "dim_centralizer_gl", planted)
    cfg = RunConfig(partitions=["2,1"], commands=["degrees"], seed=7)
    certs, _ = runner.run_partition(Partition.parse("2,1"), cfg)
    assert certs == [fail("degree-table", "2,1", {
        "degrees": [1, 1, 2],
        "degree_sum": 4,
        "dim_centralizer": 7,
        "rank": 3,
        "sum_identity": False,
        "symbolic_degrees": [1, 1, 2],
        "symbolic_checked": True,
        "kazhdan_homogeneous": True,
    })]


def test_centrality_names_the_first_noncentral_bracket():
    ctx = context("2,1")
    with_initial(ctx, 3, ctx.slice.initial[2] + variable(ctx.model.var_names, "x3"))
    assert certificate(ctx, "centrality") == fail("poisson-centrality", "2,1", {
        "group_points_checked": 0,
        "jacobian_generic_rank": 3,
        "expected_rank": 3,
        "failure": {"coordinate": "xi[1,1,0]", "invariant": 3, "bracket": "-x3"},
    })


def test_support_lists_every_violation():
    ctx = context("2,1")
    m = ctx.model
    x = {name: 1 << (_WIDTH * a) for a, name in enumerate(m.var_names)}
    planted = {2 * x["x1"] + x["x5"]: 1, x["x2"] + x["x3"]: 1}
    with_initial(ctx, 3, from_fractions(
        m.var_names, {**to_fractions(ctx.slice.initial[2]), **planted}))
    assert certificate(ctx, "support") == fail("monomial-support", "2,1", {
        "violations": [
            [3, "x1", "repeated factor"],
            [3, "{'x1': 2, 'x5': 1}", "lower indices repeat"],
            [3, "{'x1': 2, 'x5': 1}", "upper indices are not a permutation"],
            [3, "{'x2': 1, 'x3': 1}", "lower indices repeat"],
            [3, "{'x2': 1, 'x3': 1}", "upper indices are not a permutation"],
            [3, "{'x2': 1, 'x3': 1}", "weight 3 != 2"],
        ],
        "monomials_per_invariant": [2, 1, 4],
    })


def test_conjecture_stops_at_the_first_failure():
    ctx = context("2,1")
    names = ctx.model.var_names
    with_initial(ctx, 2, ctx.slice.initial[1] + variable(names, "x2") * variable(names, "x4"))
    assert certificate(ctx, "conjecture") == fail("signed-sum-proportionality", "2,1", {
        "ratios": ["1", None],
        "first_failure": 2,
    })


def test_conjecture_fails_on_a_zero_initial_term():
    ctx = context("2,1")
    with_initial(ctx, 1, from_fractions(ctx.model.var_names, {}))
    assert certificate(ctx, "conjecture") == fail("signed-sum-proportionality", "2,1", {
        "ratios": [None],
        "first_failure": 1,
    })


def test_conjecture_fails_on_the_same_support_out_of_proportion():
    # -x2*x5 + x3*x4 is -1 times its signed sum; doubling one coefficient
    # keeps the support and breaks the proportion
    ctx = context("2,1")
    x = {name: variable(ctx.model.var_names, name) for name in ctx.model.var_names}
    with_initial(ctx, 3, x["x3"] * x["x4"] + x["x3"] * x["x4"] - x["x2"] * x["x5"])
    assert certificate(ctx, "conjecture") == fail("signed-sum-proportionality", "2,1", {
        "ratios": ["1", "-1", None],
        "first_failure": 3,
    })


def test_conjecture_fails_when_the_degree_exceeds_the_block_count():
    # a signed sum over m = 3 > k = 2 blocks is empty, so no cubic term matches it
    ctx = context("2,1")
    x = {name: variable(ctx.model.var_names, name) for name in ctx.model.var_names}
    initial = list(ctx.slice.initial)
    initial[2] = x["x2"] * x["x3"] * x["x5"]
    ctx.slice = dataclasses.replace(ctx.slice, initial=initial, degrees=[1, 1, 3])
    assert certificate(ctx, "conjecture") == fail("signed-sum-proportionality", "2,1", {
        "ratios": ["1", "-1", None],
        "first_failure": 3,
    })


def test_p0_names_the_first_term_out_of_proportion():
    # doubling x3*x4 in -x2*x5 + x3*x4 keeps its support, so the top
    # coefficient along f matches it term by term but not up to one scalar
    ctx = context("2,1")
    x = {name: variable(ctx.model.var_names, name) for name in ctx.model.var_names}
    with_initial(ctx, 3, x["x3"] * x["x4"] + x["x3"] * x["x4"] - x["x2"] * x["x5"])
    assert certificate(ctx, "p0") == fail("top-coefficient-crosscheck", "2,1", {
        "scalars": {"1": "1", "2": "1"},
        "detail": "not proportional at 3",
    })


def test_diffcrit_reports_per_point_alpha_and_zero_failures():
    # linear initial terms have full Jacobian rank everywhere, zero included,
    # and alpha = Id on gl_2 has the whole algebra as its stabiliser
    ctx = context("1,1", diffcrit_points=3)
    m = ctx.model
    ctx.slice = dataclasses.replace(
        ctx.slice, initial=[variable(m.var_names, "x1"), variable(m.var_names, "x4")])
    ctx.alpha = build_alpha(m, [1, 1])
    assert certificate(ctx, "diffcrit") == fail("differential-criterion", "1,1", {
        "points_checked": 5,
        "generators": [0, 1],
        "failures": [
            {"point": "ALPHA(1,1)", "jacobian_rank": 2, "stabilizer_dim": 4},
            {"point": "ALPHA", "expected": "both sides true"},
            {"point": "ZERO", "jacobian_rank": 2, "stabilizer_dim": 4},
            {"point": "ZERO", "expected": "both sides false"},
        ],
    })


def test_index_certified_by_beta_alone_fails():
    ctx = context("1,1", index_samples=2)
    ctx.alpha = build_alpha(ctx.model, [1, 1])
    assert certificate(ctx, "index") == fail("index-equals-rank", "1,1", {
        "index_estimate": 2,
        "expected": 2,
        "sampled_max_rank": 2,
        "vinberg_bound": 2,
        "certificate_point": "BETA",
        "certificate_coords": ["0", "0", "1", "0"],
        "stabilizer_dims": [["ALPHA(1,1)", 4], ["BETA", 2], ["RANDOM", 2], ["RANDOM", 2]],
    })


def test_index_without_a_certificate_point_fails():
    ctx = context("2,1", index_samples=2)
    m = ctx.model
    ctx.model = with_brackets(m, {(a, b): {} for a in range(m.dim) for b in range(a + 1, m.dim)})
    assert certificate(ctx, "index") == fail("index-equals-rank", "2,1", {
        "index_estimate": 5,
        "expected": 3,
        "sampled_max_rank": 0,
        "vinberg_bound": 3,
        "certificate_point": None,
        "certificate_coords": None,
        "stabilizer_dims": [["ALPHA(1,2)", 5], ["BETA", 5], ["RANDOM", 5], ["RANDOM", 5]],
    })


def test_plane_lists_the_singular_grid_points():
    ctx = context("1,1,1", grid=5)
    ctx.alpha = build_alpha(ctx.model, [1, 1, 2])
    assert certificate(ctx, "plane") == fail("plane-regularity", "1,1,1", {
        "grid": 5,
        "failures": [["-2", "0", 5], ["-1", "0", 5], ["1", "0", 5], ["2", "0", 5]],
        "torus_eigenvector_check": True,
    })


def test_nullcone_reports_the_support_detail():
    ctx = context("3,2")
    m, p = ctx.model, ctx.partition
    idx = antidiagonal_spaces(m)[p.k - 1][0]
    terms = {**to_fractions(ctx.slice.initial[p.n - 1]), 2 << (_WIDTH * m.index[idx]): Fraction(1)}
    with_initial(ctx, p.n, from_fractions(m.var_names, terms))
    assert certificate(ctx, "nullcone") == fail("nullcone-regular-sequence", "3,2", {
        "support_check": False,
        "support_detail": "support mismatch at q=0: 2 monomials, expected 1",
        "component_count": 3,
        "components": [[0, 2], [1, 1], [2, 0]],
        "components_kill_restrictions": False,
        "transversal_dim": 0,
        "stages": [],
        "conclusion": "support check failed at block 2",
        "codimension": 0,
        "tangent_cone_dim": 0,
    })


def test_stabilizers_fail_off_the_diagonal_span():
    # [xi[1,1,0], xi[1,2,0]] gains xi[1,1,1]: a diagonal column of B(alpha)
    # is nonzero while the kernel keeps its dimension
    ctx = context("2,1")
    m = ctx.model
    t, u = (m.index[XiIndex(*x)] for x in ((1, 1, 0), (1, 2, 0)))
    ctx.model = with_brackets(m, {(t, u): {m.index[XiIndex(1, 1, 1)]: 1}})
    assert certificate(ctx, "stabilizers") == fail("regular-functionals", "2,1", {
        "alpha_stabilizer_dim": 3,
        "expected": 3,
        "alpha_stabilizer_is_diagonal_span": False,
        "beta_stabilizer_dim": 3,
    })


def test_sp_stabilizers_report_beta_prime_beside_a_singular_beta():
    # [u[2], u[5]] = 0 drops the only entry of B(beta + beta') in its row:
    # beta' keeps its three checks while its stabiliser grows to 4
    ctx = context("2,1,1", "sp")
    ctx.model = with_brackets(ctx.model, {(1, 4): {}})
    assert certificate(ctx, "stabilizers") == fail("regular-functionals", "2,1,1", {
        "alpha_stabilizer_dim": 2,
        "expected": 2,
        "alpha_vanishes_on_odd_part": True,
        "beta_prime_terms": [{"i": 1, "coordinate": "xi[1,3,0]", "coefficient": "-1",
                              "torus_exponent": 3}],
        "beta_prime_vanishes_on_odd_part": True,
        "beta_prime_torus_exponents_ok": True,
        "beta_prime_nonzero": True,
        "beta_stabilizer_dim": 4,
    }, algebra="sp")


def test_plane_fails_the_torus_check_on_a_diagonal_beta():
    # beta on xi[1,1,1] and xi[2,2,0], both of rho-weight 0: every grid
    # point is regular, but rho(t) scales beta by t instead of fixing it
    ctx = context("2,1", grid=5)
    ctx.beta = Functional((0, 3, 0, 0, -1), "BETA")
    assert certificate(ctx, "plane") == fail("plane-regularity", "2,1", {
        "grid": 5,
        "failures": [],
        "torus_eigenvector_check": False,
    })


def test_lines_fail_on_a_confirmed_singular_parameter():
    assert certificate(context("2,2,1,1", "sp"), "lines") == fail(
        "singular-lines-clean", "2,2,1,1", {
            "lines": 10,
            "singular_hits_per_line": [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
            "certified": [True] * 10,
            "details": ["singular parameters confirmed at t in {1}"],
        }, algebra="sp")
