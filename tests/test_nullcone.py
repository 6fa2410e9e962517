"""Null-cone restrictions, components and the transversal subspace."""

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from poly_oracle import from_fractions, to_fractions, variable

from centinv import runner
from centinv.centralizer import XiIndex, build_gl_model
from centinv.invariants import principal_minor_sums
from centinv.nullcone import (
    _antidiag_monomial_key,
    antidiagonal_spaces,
    component_zero_locus_check,
    enumerate_components,
    restrict_to_V,
    top_block_support_check,
    transversality_certificate,
    vanishing,
)
from centinv.partitions import Partition, partitions_of, vectors_with_total
from centinv.poly import _WIDTH, SparsePoly
from centinv.runner import FAIL, PASS, RunConfig, run_partition


def test_antidiagonal_spaces_cover_everything():
    for parts in ("2,1", "3,2,2", "4,1"):
        p = Partition.parse(parts)
        spaces = antidiagonal_spaces(build_gl_model(p))
        assert len(spaces) == 2 * p.k - 1
        from centinv.centralizer import enumerate_xi
        allidx = [idx for basis in spaces for idx in basis]
        assert sorted(allidx) == sorted(enumerate_xi(p))
        for level, basis in enumerate(spaces, start=1):
            assert all(idx.i + idx.j == level + 1 for idx in basis)
            assert basis == sorted(basis)  # by i, then s


def test_restriction_for_two_blocks():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    restricted = restrict_to_V(sr, m)
    names = m.var_names
    x3 = variable(names, names[m.index[XiIndex(1, 2, 0)]])
    x4 = variable(names, names[m.index[XiIndex(2, 1, 1)]])
    assert restricted[2] == x3 * x4


def test_restriction_regular_case_is_identity():
    m = build_gl_model(Partition.parse("4"))
    sr = principal_minor_sums(m)
    restricted = restrict_to_V(sr, m)
    assert restricted == sr.initial


def test_restriction_of_top_term_lives_on_top_level():
    m = build_gl_model(Partition.parse("2,2"))
    sr = principal_minor_sums(m)
    restricted = restrict_to_V(sr, m)
    top_level = {idx for idx in m.xi if idx.i + idx.j == m.partition.k + 1}
    for factors, _, _ in restricted[3].factored_terms():
        for a, _ in factors:
            assert m.xi[a] in top_level


@pytest.mark.parametrize("parts", ["2,1", "3,2", "5", "2,2,1", "3,3,2"])
def test_top_block_support(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    detail = top_block_support_check(m, sr)
    assert not detail, detail
    p = m.partition
    restricted = restrict_to_V(sr, m)
    for q in range(p.d[-1] + 1):
        assert len(restricted[p.n - q - 1].terms) == comb(q + p.k - 1, p.k - 1)


def test_component_enumeration_counts():
    assert len(enumerate_components(Partition.parse("2,2"))) == 3
    assert len(enumerate_components(Partition.parse("2,1"))) == 2
    assert enumerate_components(Partition.parse("6")) == []
    for n in range(2, 9):
        for p in partitions_of(n):
            if p.k >= 2:
                assert len(enumerate_components(p)) == comb(p.d[-1] + p.k, p.k - 1)


def test_components_have_admissible_vanishing_sets():
    p = Partition.parse("3,2,2")
    from centinv.centralizer import enumerate_xi
    valid = set(enumerate_xi(p))
    for shifts in enumerate_components(p):
        assert sum(shifts) == p.d[-1] + 1
        killed = vanishing(p, shifts)
        assert len(killed) == p.d[-1] + 1
        assert all(idx in valid for idx in killed)
        assert all(idx.i + idx.j == p.k + 1 for idx in killed)


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2", "2,2,1", "4,3"])
def test_components_kill_restricted_invariants(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    assert component_zero_locus_check(m, sr)


def subspace_dim(stages):
    """The dimension of W: each stage adds the rows of its W_m."""
    return sum(len(st["subspace_rows"]) for st in stages)


@pytest.mark.parametrize("parts", ["2,1", "4", "2,2", "3,2,1", "2,2,2"])
def test_transversality_certificate(parts):
    p = Partition.parse(parts)
    m = build_gl_model(p)
    stages, failure = transversality_certificate(m, principal_minor_sums(m), seed=11)
    assert failure == ""
    assert subspace_dim(stages) == p.n
    for stage in stages:
        assert all(d != "0" for _, d in stage["component_dets"])
        assert stage["support_checked"] is (True if stage["block"] >= 2 else None)
    [nc] = run_partition(p, RunConfig(commands=["nullcone"], seed=11))[0]
    assert nc["status"] == PASS
    assert (nc["witnesses"]["codimension"], nc["witnesses"]["tangent_cone_dim"]) == \
        (p.n, p.n * p.n - p.n)


def test_transversality_vandermonde_fallback():
    # zero random attempts forces the deterministic construction: each
    # component minor of its rows (c + 1)^t is a square Vandermonde matrix on
    # distinct nodes, so every multi-block partition passes through it
    for n in range(1, 9):
        for p in partitions_of(n):
            m = build_gl_model(p)
            stages, failure = transversality_certificate(
                m, principal_minor_sums(m), seed=0, attempts=0)
            assert failure == "" and subspace_dim(stages) == p.n, p
            assert all(st["used_fallback"] == bool(st["component_dets"])
                       for st in stages), p
            assert any(st["used_fallback"] for st in stages) == (p.k >= 2), p


def test_nullcone_command_fails_without_a_transversality_certificate(monkeypatch):
    monkeypatch.setattr(runner, "transversality_certificate", lambda *a, **k: ([], "missing"))
    certs, _ = run_partition(Partition.parse("2,1"), RunConfig(commands=["nullcone"]))
    [cert] = certs
    w = cert["witnesses"]
    assert cert["status"] == FAIL
    assert (w["transversal_dim"], w["codimension"], w["tangent_cone_dim"]) == (0, 0, 0)
    assert w["support_check"] and w["components_kill_restrictions"]


def test_support_components_and_restrictions_are_consistent():
    # the monomials driving the component splitting are exactly the
    # support monomials of the restricted top invariants
    p = Partition.parse("3,2")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    assert not top_block_support_check(m, sr)
    # the passed check makes the shift patterns of total d_k index the
    # monomials of the restricted top invariant
    dk = p.d[-1]
    top_bars = set(vectors_with_total([range(dk + 1)] * p.k, dk))
    for shifts in enumerate_components(p):
        parents = set()
        for i in range(p.k):
            if shifts[i] > 0:
                parent = list(shifts)
                parent[i] -= 1
                parents.add(tuple(parent))
        assert parents & top_bars, shifts


# -- prefix stages on the partition's own slice -------------------------------


def _relabel(poly, sub_model, model):
    """A polynomial of the prefix model rewritten in the partition's coordinates."""
    lanes = [model.index[idx] for idx in sub_model.xi]
    terms = {sum(e << (_WIDTH * lanes[a]) for a, e in factors): c
             for factors, c, _ in poly.factored_terms()}
    return SparsePoly(model.var_names, terms, poly.den)


def _on_blocks(poly, model, m):
    """poly with every coordinate outside blocks 1..m set to zero."""
    return poly.without(model.index[idx] for idx in model.xi if max(idx.i, idx.j) > m)


@pytest.mark.parametrize("parts", [str(p) for n in range(3, 7) for p in partitions_of(n)
                                   if p.k >= 3])
def test_prefix_stage_reads_the_partitions_own_slice(parts):
    # the reference is a model and slice built for the prefix itself
    p = Partition.parse(parts)
    model = build_gl_model(p)
    sr = principal_minor_sums(model)
    for m in range(2, p.k):
        sub_model = build_gl_model(p.prefix(m))
        sub_sr = principal_minor_sums(sub_model)
        got = top_block_support_check(model, sr, m)
        assert got == top_block_support_check(sub_model, sub_sr)
        assert not got
        n_m = p.prefix(m).n
        for ell in range(1, p.n + 1):
            full = _on_blocks(sr.full[ell - 1], model, m)
            initial = _on_blocks(sr.initial[ell - 1], model, m)
            if ell <= n_m:
                assert full == _relabel(sub_sr.full[ell - 1], sub_model, model)
                assert initial == _relabel(sub_sr.initial[ell - 1], sub_model, model)
            else:
                assert full.is_zero() and initial.is_zero()


# -- failure branches on planted terms ------------------------------------------


def _planted(sr, ell, terms):
    """sr with initial term ell replaced by one holding the given
    {key: rational coefficient} terms."""
    initial = list(sr.initial)
    initial[ell - 1] = from_fractions(sr.initial[ell - 1].variables, terms)
    return replace(sr, initial=initial)


def _key(model, *indices):
    return sum(1 << (_WIDTH * model.index[idx]) for idx in indices)


def test_component_check_fails_on_a_term_avoiding_a_vanishing_set():
    p = Partition.parse("3,2")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    shifts = enumerate_components(p)[0]
    top = antidiagonal_spaces(m)[p.k - 1]
    idx = next(idx for idx in top if idx not in vanishing(p, shifts))
    top_term = sr.initial[p.n - 1]
    key = _key(m, idx, idx)
    assert key not in top_term.terms
    bad = _planted(sr, p.n, {**to_fractions(top_term), key: Fraction(1)})
    assert not component_zero_locus_check(m, bad)
    # a planted term touching every vanishing set is still killed
    touching = _key(m, *(vanishing(p, c)[0] for c in enumerate_components(p)))
    assert component_zero_locus_check(m, _planted(sr, p.n, {**to_fractions(top_term), touching: 1}))


def test_support_check_reports_an_extra_monomial():
    p = Partition.parse("3,2")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    idx = antidiagonal_spaces(m)[p.k - 1][0]
    terms = to_fractions(sr.initial[p.n - 1])
    terms[_key(m, idx, idx)] = Fraction(1)
    assert top_block_support_check(m, _planted(sr, p.n, terms)) == "support mismatch at q=0: 2 monomials, expected 1"


def test_support_check_reports_a_zero_coefficient():
    p = Partition.parse("3,2")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    # the constructor drops zero coefficients, so the planted term is the
    # zero polynomial and its support is empty
    terms = dict.fromkeys(sr.initial[p.n - 1].terms, Fraction(0))
    assert top_block_support_check(m, _planted(sr, p.n, terms)) == "support mismatch at q=0: 0 monomials, expected 1"


def test_every_antidiagonal_factor_is_a_coordinate():
    """The support check reads prod_i xi[m+1-i, i, d_i - s_i] for every m <= k
    and every shift pattern of total q <= d_m; each factor is a coordinate,
    as s_i <= d_m <= min(d_i, d_{m+1-i})."""
    for n in range(1, 9):
        for p in partitions_of(n):
            model = build_gl_model(p)
            for m in range(1, p.k + 1):
                for q in range(p.d[m - 1] + 1):
                    for shifts in vectors_with_total([range(q + 1)] * m, q):
                        factors = [XiIndex(m + 1 - i, i, p.d[i - 1] - s)
                                   for i, s in enumerate(shifts, start=1)]
                        assert all(f in model.index for f in factors), (str(p), m, shifts)
                        assert _antidiag_monomial_key(model, shifts) == sum(
                            1 << (_WIDTH * model.index[f]) for f in factors)


def test_transversality_reads_prefix_stages_from_the_given_slice():
    p = Partition.parse("3,2,1")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    n_2 = p.prefix(2).n
    idx = XiIndex(1, 2, p.d[1])
    assert idx.i + idx.j == 3  # level 2, kept by the stage-2 restriction
    terms = {**to_fractions(sr.initial[n_2 - 1]), _key(m, idx, idx): Fraction(1)}
    stages, failure = transversality_certificate(m, _planted(sr, n_2, terms), seed=11)
    assert failure == "support check failed at block 2"
    assert [st["block"] for st in stages] == [3]
    assert transversality_certificate(m, sr, seed=11)[1] == ""
