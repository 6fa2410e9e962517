"""Null-cone restrictions, components and the transversal subspace."""

from math import comb

import pytest

from centinv.centralizer import XiIndex, build_gl_model
from centinv.invariants import principal_minor_sums
from centinv.nullcone import (
    antidiagonal_spaces,
    component_zero_locus_check,
    enumerate_components,
    regular_sequence_report,
    restrict_to_V,
    top_block_support_check,
    transversality_certificate,
)
from centinv.partitions import Partition, partitions_of
from centinv.poly import SparsePoly


def test_antidiagonal_spaces_cover_everything():
    for parts in ("2,1", "3,2,2", "4,1"):
        p = Partition.parse(parts)
        spaces = antidiagonal_spaces(p)
        assert len(spaces) == 2 * p.k - 1
        from centinv.centralizer import enumerate_xi
        allidx = [idx for sp in spaces for idx in sp.basis]
        assert sorted(allidx) == sorted(enumerate_xi(p))
        for sp in spaces:
            assert all(idx.i + idx.j == sp.level + 1 for idx in sp.basis)


def test_restriction_for_two_blocks():
    m = build_gl_model(Partition.parse("2,1"))
    sr = principal_minor_sums(m)
    restricted = restrict_to_V(sr, m)
    names = m.var_names
    x3 = SparsePoly.variable(names, names[m.index[XiIndex(1, 2, 0)]])
    x4 = SparsePoly.variable(names, names[m.index[XiIndex(2, 1, 1)]])
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
    for factors, _ in restricted[3].factored_terms():
        for a, _ in factors:
            assert m.xi[a] in top_level


@pytest.mark.parametrize("parts", ["2,1", "3,2", "5", "2,2,1", "3,3,2"])
def test_top_block_support(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    res = top_block_support_check(m, sr)
    assert res.passed, res.detail
    dk = m.partition.d[-1]
    assert len(res.per_q) == dk + 1
    for q, row in enumerate(res.per_q):
        assert len(row["coefficients"]) == comb(q + m.partition.k - 1, m.partition.k - 1)


def test_component_enumeration_counts():
    assert enumerate_components(Partition.parse("2,2")).count == 3
    assert enumerate_components(Partition.parse("2,1")).count == 2
    assert enumerate_components(Partition.parse("6")).count == 0
    for n in range(2, 9):
        for p in partitions_of(n):
            fam = enumerate_components(p)
            if p.k >= 2:
                assert fam.count == comb(p.d[-1] + p.k, p.k - 1)


def test_components_have_admissible_vanishing_sets():
    p = Partition.parse("3,2,2")
    fam = enumerate_components(p)
    from centinv.centralizer import enumerate_xi
    valid = set(enumerate_xi(p))
    for comp in fam.components:
        assert sum(comp.shifts) == p.d[-1] + 1
        vanishing = comp.vanishing(p)
        assert len(vanishing) == p.d[-1] + 1
        assert all(idx in valid for idx in vanishing)
        assert all(idx.i + idx.j == p.k + 1 for idx in vanishing)


@pytest.mark.parametrize("parts", ["2,1", "2,2", "3,2", "2,2,1", "4,3"])
def test_components_kill_restricted_invariants(parts):
    m = build_gl_model(Partition.parse(parts))
    sr = principal_minor_sums(m)
    assert component_zero_locus_check(m, sr)


@pytest.mark.parametrize("parts", ["2,1", "4", "2,2", "3,2,1", "2,2,2"])
def test_transversality_certificate(parts):
    p = Partition.parse(parts)
    m = build_gl_model(p)
    cert = transversality_certificate(m, principal_minor_sums(m), seed=11)
    assert cert.passed
    assert cert.total_dim == p.n
    for stage in cert.stages:
        assert all(d != "0" for _, d in stage.component_dets)
        assert stage.support_checked is (True if stage.block >= 2 else None)
    rep = regular_sequence_report(p, cert)
    assert rep.passed
    assert rep.codimension == p.n
    assert rep.tangent_cone_dim == p.n * p.n - p.n


def test_transversality_vandermonde_fallback():
    # zero random attempts forces the deterministic construction
    m = build_gl_model(Partition.parse("2,2"))
    cert = transversality_certificate(m, principal_minor_sums(m), seed=0, attempts=0)
    assert cert.passed
    assert any(st.used_fallback for st in cert.stages if st.component_dets)


def test_regular_sequence_report_requires_certificate():
    p = Partition.parse("2,1")
    from centinv.nullcone import TransversalityCertificate

    missing = TransversalityCertificate(p, False, 0, [], "missing")
    rep = regular_sequence_report(p, missing)
    assert not rep.passed


def test_support_components_and_restrictions_are_consistent():
    # the monomials driving the component splitting are exactly the
    # support monomials of the restricted top invariants
    p = Partition.parse("3,2")
    m = build_gl_model(p)
    sr = principal_minor_sums(m)
    res = top_block_support_check(m, sr)
    level_sets = {q: set(row["coefficients"]) for q, row in enumerate(res.per_q)}
    fam = enumerate_components(p)
    for comp in fam.components:
        parents = set()
        for i in range(p.k):
            if comp.shifts[i] > 0:
                parent = list(comp.shifts)
                parent[i] -= 1
                parents.add(str(tuple(parent)))
        assert parents & level_sets[p.d[-1]], comp
