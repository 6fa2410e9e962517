"""Centraliser models: bases, structure constants, gradings, symplectic form."""

import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from dense_oracle import (
    DenseGlModel,
    DenseSpModel,
    add,
    closed_form_bracket,
    commutator,
    dense,
    identity,
    is_zero,
    matmul,
    scale,
    sparse_rows,
    structure_of,
    sub,
    subalgebra_structure,
    trace_product,
    transpose,
)

from centinv.centralizer import (
    JordanRealization,
    SubalgebraModel,
    XiIndex,
    build_gl_model,
    build_sp_model,
    check_symplectic_form,
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
        e, h, f = (dense(m, r.n) for m in (r.e, r.h, r.f))
        assert is_zero(sub(commutator(e, f), h))
        assert is_zero(sub(commutator(h, e), scale(e, 2)))
        assert is_zero(add(commutator(h, f), scale(f, 2)))


def test_h_acts_with_lowest_weight_on_generators():
    p = Partition.parse("3,2")
    r = JordanRealization(p)
    for i, di in enumerate(p.d, start=1):
        col = r.pos[(i, 0)]
        column = [r.h.get((t, col), 0) for t in range(p.n)]
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
            assert is_zero(commutator(dense(r.e, r.n), dense(r.xi_matrix(idx), r.n)))


def test_gf_matrices_commute_with_f():
    for s in ("2,1", "3,2,2", "4,2"):
        p = Partition.parse(s)
        r = JordanRealization(p)
        for idx in enumerate_xi(p):
            assert is_zero(commutator(dense(r.f, r.n), dense(r.gf_matrix(idx), r.n)))


def test_example_basis_for_21():
    p = Partition.parse("2,1")
    assert enumerate_xi(p) == [
        XiIndex(1, 1, 0), XiIndex(1, 1, 1), XiIndex(1, 2, 0),
        XiIndex(2, 1, 1), XiIndex(2, 2, 0),
    ]


def test_regular_case_is_abelian():
    m = build_gl_model(Partition.parse("4"))
    assert m.dim == 4
    assert not structure_of(m)


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
                t = sum(m.matrices[a].get((i, j), 0) * m.gf_dual[b].get((j, i), 0)
                        for i in range(n) for j in range(n))
                assert t == (1 if a == b else 0)


def test_trace_pairing_nondegenerate_up_to_10():
    for n in range(1, 11):
        for p in partitions_of(n):
            real = JordanRealization(p)
            xi = enumerate_xi(p)
            mats = [dense(real.xi_matrix(i), n) for i in xi]
            gfs = [dense(real.gf_matrix(i), n) for i in xi]
            gram = RatMatrix([[trace_product(a, b) for b in gfs] for a in mats])
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
    """[xi_a, xi_b] as read from the structure rows the computations use."""
    return {c: Fraction(v, m.S) for c, v in m.rows[a][b]}


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
    p = Partition.parse("3,2,1")
    m, oracle = build_gl_model(p), DenseGlModel(p)
    for a in range(m.dim):
        assert not table_bracket(m, a, a)
        for b in range(m.dim):
            left = table_bracket(m, a, b)
            right = {c: -v for c, v in table_bracket(m, b, a).items()}
            assert left == right
            if a < b:
                assert left == dict(oracle.structure.get((a, b), ()))


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
        J = dense(sp.J, n)
        assert is_zero(add(J, transpose(J)))
        assert is_zero(add(matmul(J, J), identity(n)))
        e = dense(sp.gl.realization.e, n)
        assert is_zero(add(matmul(transpose(e), J), matmul(J, e)))
        assert sp.dim == dim_centralizer_so_sp(p, ClassicalType.SP)
        # paired chains only pair with their partner
        real = sp.gl.realization
        for (i, s1), col in real.pos.items():
            for (j, s2), col2 in real.pos.items():
                if J[col][col2]:
                    assert j == sp.pairing[i]
        for mat in sp.fixed.matrices:
            mat = dense(mat, n)
            assert is_zero(add(matmul(transpose(mat), J), matmul(J, mat)))
        for row in sp.odd_part_basis:
            mat = sp.gl.matrix_from_coords(row)
            assert is_zero(add(dense(sp.sigma(mat), n), dense(mat, n)))


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
            assert sum(v * alpha.coords[c] for c, v in row.items()) == 0


def test_model_json_shape():
    m = build_gl_model(Partition.parse("2,1"))
    dump = m.to_json()
    assert dump["basis"][0] == "xi[1,1,0]"
    assert all(len(row) == 4 for row in dump["structure"])
    assert dump["partition"] == [2, 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_sparse_gl_build_matches_dense_oracle(n):
    for p in partitions_of(n):
        assert json.dumps(build_gl_model(p).to_json()) == json.dumps(DenseGlModel(p).to_json()), p


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_sparse_sp_build_matches_dense_oracle(n):
    for p in partitions_of(n, ClassicalType.SP):
        sp, oracle = build_sp_model(p), DenseSpModel(p)
        assert sp.sigma_fixed_basis == sparse_rows(oracle.sigma_fixed_basis), p
        assert sp.odd_part_basis == sparse_rows(oracle.odd_part_basis), p
        assert structure_of(sp.fixed) == oracle.fixed_structure, p
        assert [dense(m, n) for m in sp.gf_dual] == oracle.gf_dual, p
        assert [dense(m, n) for m in sp.fixed.matrices] == oracle.fixed_matrices, p


def test_scaled_subalgebra_matches_dense_oracle():
    scaled, oracle_structure = model_and_oracle_structure("sp 2,1,1 / 5")
    assert scaled.S > 1
    assert structure_of(scaled) == oracle_structure


TABLE_MODELS = ([f"gl {p}" for n in range(1, 6) for p in partitions_of(n)]
                + [f"sp {p}" for n in (2, 4, 6) for p in partitions_of(n, ClassicalType.SP)]
                + ["sp 2,1,1 / 5"])


def model_and_oracle_structure(name: str):
    """The model of a table test and its dense oracle's structure constants;
    "sp 2,1,1 / 5" is the fixed part on its basis scaled by 1/5 (S > 1)."""
    kind, parts = name.split(" ", 1)
    p = Partition.parse(parts.split(" /")[0])
    if kind == "gl":
        return build_gl_model(p), DenseGlModel(p).structure
    sp, oracle = build_sp_model(p), DenseSpModel(p)
    if parts.endswith(" / 5"):
        scaled = SubalgebraModel(sp.gl, [{c: x / 5 for c, x in row.items()}
                                         for row in sp.sigma_fixed_basis], rank=2)
        rows = [[x / 5 for x in row] for row in oracle.sigma_fixed_basis]
        return scaled, subalgebra_structure(oracle.gl, rows)[1]
    return sp.fixed, oracle.fixed_structure


@pytest.mark.parametrize("name", TABLE_MODELS)
def test_structure_rows_are_one_antisymmetric_table_over_s(name):
    m, oracle_structure = model_and_oracle_structure(name)
    r = m.dim
    assert len(m.rows) == r and all(len(row) == r for row in m.rows)
    numerators = []
    for a in range(r):
        assert m.rows[a][a] == ()
        for b in range(r):
            entries = m.rows[a][b]
            assert entries == tuple((c, -x) for c, x in m.rows[b][a])
            assert [c for c, _ in entries] == sorted({c for c, _ in entries})
            numerators += [x for _, x in entries]
    assert all(type(x) is int and x for x in numerators) and type(m.S) is int and m.S > 0
    assert gcd(m.S, *numerators) == 1
    if name.startswith("gl"):
        assert m.S == 1  # matrix units bracket to integer combinations
    if name.endswith(" / 5"):
        assert m.S > 1
    assert structure_of(m) == oracle_structure


def test_subalgebra_rejects_dependent_rows():
    sp = build_sp_model(Partition.parse("2,2"))
    rows = sp.sigma_fixed_basis
    with pytest.raises(ValueError):
        SubalgebraModel(sp.gl, rows + [{c: 2 * x for c, x in rows[0].items()}], rank=2)


def test_flipped_form_sign_raises():
    """Each check on J is an explicit ArithmeticError, kept under python -O:
    one flipped entry of J breaks skewness; flipping a pair (i, j), (j, i)
    of 3,3 keeps J skew with J^2 = -Id but e is no longer symplectic."""
    for s in ("2", "2,2", "3,3", "2,1,1", "4,2"):
        sp = build_sp_model(Partition.parse(s))
        check_symplectic_form(sp.J, sp.gl.realization)
        for (i, j), v in sp.J.items():
            with pytest.raises(ArithmeticError, match="not skew"):
                check_symplectic_form({**sp.J, (i, j): -v}, sp.gl.realization)
    sp = build_sp_model(Partition.parse("3,3"))
    real = sp.gl.realization
    for (i, j), v in sp.J.items():
        with pytest.raises(ArithmeticError, match="e is not symplectic"):
            check_symplectic_form({**sp.J, (i, j): -v, (j, i): v}, real)
    with pytest.raises(ArithmeticError, match="square"):
        check_symplectic_form({(0, 1): 2, (1, 0): -2}, JordanRealization(Partition.parse("2")))
    (c, _), hc = next(iter(real.h.items()))
    (fi, fj), fv = next(iter(real.f.items()))
    for name, broken in (("h", {**real.h, (c, c): -hc}), ("f", {**real.f, (fi, fj): -fv})):
        triple = {"n": real.n, "e": real.e, "h": real.h, "f": real.f, name: broken}
        with pytest.raises(ArithmeticError, match=f"{name} is not symplectic"):
            check_symplectic_form(sp.J, SimpleNamespace(**triple))
