"""Centraliser models: bases, structure constants, gradings, symplectic form."""

import random
from fractions import Fraction

import pytest

from centinv.centralizer import (
    JordanRealization,
    XiIndex,
    build_gl_model,
    build_sp_model,
    closed_form_bracket,
    commutator,
    enumerate_xi,
)
from centinv.linalg import RatMatrix
from centinv.partitions import (
    ClassicalType,
    InvalidPartitionError,
    Partition,
    dim_centralizer_gl,
    dim_centralizer_so_sp,
    partitions_of,
)
from centinv.regularity import build_alpha, default_alpha_coefficients


def test_sl2_relations():
    for s in ("2,1", "3,2,2", "4,1", "5"):
        r = JordanRealization(Partition.parse(s))
        assert (commutator(r.e, r.f) - r.h).is_zero()
        assert (commutator(r.h, r.e) - r.e.scale(2)).is_zero()
        assert (commutator(r.h, r.f) + r.f.scale(2)).is_zero()


def test_h_acts_with_lowest_weight_on_generators():
    p = Partition.parse("3,2")
    r = JordanRealization(p)
    for i, di in enumerate(p.d, start=1):
        col = r.pos[(i, 0)]
        column = [r.h.rows[t][col] for t in range(p.n)]
        assert column[col] == -di
        assert all(not v for t, v in enumerate(column) if t != col)


def test_xi_basis_count_matches_dimension_formula():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert len(enumerate_xi(p)) == dim_centralizer_gl(p)


def test_xi_matrices_commute_with_e():
    for s in ("2,1", "3,2,2", "2,2,1,1"):
        p = Partition.parse(s)
        r = JordanRealization(p)
        for idx in enumerate_xi(p):
            assert commutator(r.e, r.xi_matrix(idx)).is_zero()


def test_gf_matrices_commute_with_f():
    for s in ("2,1", "3,2,2", "4,2"):
        p = Partition.parse(s)
        r = JordanRealization(p)
        for idx in enumerate_xi(p):
            assert commutator(r.f, r.gf_matrix(idx)).is_zero()


def test_example_basis_for_21():
    p = Partition.parse("2,1")
    assert enumerate_xi(p) == [
        XiIndex(1, 1, 0), XiIndex(1, 1, 1), XiIndex(1, 2, 0),
        XiIndex(2, 1, 1), XiIndex(2, 2, 0),
    ]


def test_regular_case_is_abelian():
    m = build_gl_model(Partition.parse("4"))
    assert m.dim == 4
    assert not m.structure


def test_weights():
    m = build_gl_model(Partition.parse("2,2"))
    assert m.dim == 8
    a = m.index[XiIndex(1, 2, 0)]
    assert m.h_weights[a] == 0
    m21 = build_gl_model(Partition.parse("2,1"))
    b = m21.index[XiIndex(2, 1, 1)]
    assert m21.h_weights[b] == 1
    assert m21.rho_weights[b] == -1
    for idx in m21.xi:
        if idx.i == idx.j:
            assert m21.rho_weights[m21.index[idx]] == 0
    k, dk = m21.partition.k, m21.partition.d[-1]
    assert m21.rho_weights[m21.index[XiIndex(1, k, dk)]] == k - 1


def test_trace_duality():
    for s in ("2,1", "3,1", "2,2,1"):
        m = build_gl_model(Partition.parse(s))
        n = m.partition.n
        for a in range(m.dim):
            for b in range(m.dim):
                t = sum(m.matrices[a].rows[i][j] * m.gf_dual[b].rows[j][i]
                        for i in range(n) for j in range(n))
                assert t == (1 if a == b else 0)


def test_trace_pairing_nondegenerate_up_to_10():
    from centinv.centralizer import _trace_product

    for n in range(1, 11):
        for p in partitions_of(n):
            real = JordanRealization(p)
            xi = enumerate_xi(p)
            mats = [real.xi_matrix(i) for i in xi]
            gfs = [real.gf_matrix(i) for i in xi]
            gram = RatMatrix([[_trace_product(a, b) for b in gfs] for a in mats])
            assert gram.rank() == len(xi), p


def exhaustive_pairs(p):
    m = build_gl_model(p)
    for a, ia in enumerate(m.xi):
        for b, ib in enumerate(m.xi):
            yield m, a, b, ia, ib


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_bracket_matches_matrix_commutators(n):
    for p in partitions_of(n):
        m = build_gl_model(p)
        for a, ia in enumerate(m.xi):
            for b, ib in enumerate(m.xi):
                closed = closed_form_bracket(p, ia, ib)
                from_matrix = {m.xi[c]: v for c, v in table_bracket(m, a, b).items()}
                assert {k: Fraction(v) for k, v in closed.items()} == from_matrix, (p, ia, ib)


def table_bracket(m, a: int, b: int) -> dict[int, Fraction]:
    """[xi_a, xi_b] as read from the cleared table the computations use."""
    rows, S = m.integer_rows()
    return {c: Fraction(v, S) for c, v in rows[a][b]}


def _bracket(m, vec_a: dict, b: int) -> dict:
    out: dict[int, Fraction] = {}
    for a, va in vec_a.items():
        for c, v in table_bracket(m, a, b).items():
            s = out.get(c, Fraction(0)) + va * v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
    return out


def _jacobi_defect(m, a: int, b: int, c: int) -> dict:
    total: dict[int, Fraction] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = table_bracket(m, y, z)
        outer = _bracket(m, {k: -v for k, v in inner.items()}, x)
        for k, v in outer.items():
            s = total.get(k, Fraction(0)) + v
            if s:
                total[k] = s
            else:
                total.pop(k, None)
    return total


@pytest.mark.parametrize("n", range(2, 7))
def test_jacobi_exhaustive(n):
    from itertools import combinations

    for p in partitions_of(n):
        m = build_gl_model(p)
        for a, b, c in combinations(range(m.dim), 3):
            assert not _jacobi_defect(m, a, b, c), (p, a, b, c)


def test_jacobi_sampled_larger():
    rng = random.Random(0)
    for s in ("4,3,1", "4,3,2", "4,3,2,1", "5,3,2"):
        m = build_gl_model(Partition.parse(s))
        for _ in range(125):
            a, b, c = (rng.randrange(m.dim) for _ in range(3))
            assert not _jacobi_defect(m, a, b, c)


def test_antisymmetry():
    m = build_gl_model(Partition.parse("3,2,1"))
    for a in range(m.dim):
        assert not table_bracket(m, a, a)
        for b in range(m.dim):
            left = table_bracket(m, a, b)
            right = {c: -v for c, v in table_bracket(m, b, a).items()}
            assert left == right
            if a < b:
                assert left == dict(m.structure.get((a, b), ()))


def test_bracket_example_with_shift_overflow():
    # [xi[2,1,1], xi[1,2,0]] keeps only the block-1 part: the block-2 term
    # would need shift 1 above its top admissible value
    p = Partition.parse("2,1")
    out = closed_form_bracket(p, XiIndex(2, 1, 1), XiIndex(1, 2, 0))
    assert out == {XiIndex(1, 1, 1): 1}
    rev = closed_form_bracket(p, XiIndex(1, 2, 0), XiIndex(2, 1, 1))
    assert rev == {XiIndex(1, 1, 1): -1}


def test_symplectic_model_invariants():
    for s in ("2", "2,1,1", "2,2", "3,3", "4,2", "2,2,1,1"):
        p = Partition.parse(s)
        sp = build_sp_model(p)
        n = p.n
        assert (sp.J + sp.J.transpose()).is_zero()
        assert (sp.J @ sp.J + RatMatrix.identity(n)).is_zero()
        e = sp.gl.realization.e
        assert (e.transpose() @ sp.J + sp.J @ e).is_zero()
        assert sp.dim == dim_centralizer_so_sp(p, ClassicalType.SP)
        # paired chains only pair with their partner
        real = sp.gl.realization
        for (i, s1), col in real.pos.items():
            for (j, s2), col2 in real.pos.items():
                if sp.J.rows[col][col2]:
                    assert j == sp.pairing[i]
        for mat in sp.fixed.matrices:
            assert (mat.transpose() @ sp.J + sp.J @ mat).is_zero()
        for row in sp.odd_part_basis:
            mat = sp.gl.matrix_from_coords(row)
            assert (sp.sigma(mat) + mat).is_zero()


def test_sp_examples():
    assert build_sp_model(Partition.parse("2")).dim == 1
    assert build_sp_model(Partition.parse("2,1,1")).dim == 6
    assert build_sp_model(Partition.parse("2,2")).dim == 4
    with pytest.raises(InvalidPartitionError):
        build_sp_model(Partition.parse("3,2,1"))


def test_alpha_with_opposite_pair_signs_kills_odd_part():
    for s in ("2,1,1", "2,2,1,1", "3,3,2", "2,1,1,1,1"):
        sp = build_sp_model(Partition.parse(s))
        alpha = build_alpha(sp.gl, default_alpha_coefficients(sp))
        for row in sp.odd_part_basis:
            assert sum(c * g for c, g in zip(row, alpha.coords)) == 0


def test_model_json_shape():
    m = build_gl_model(Partition.parse("2,1"))
    dump = m.to_json()
    assert dump["basis"][0] == "xi[1,1,0]"
    assert all(len(row) == 4 for row in dump["structure"])
    assert dump["partition"] == [2, 1]
