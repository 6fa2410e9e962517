"""Sparse polynomial arithmetic: ring axioms and structure operations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from centinv.poly import _MASK, _MAX_EXP, _WIDTH, SparsePoly, VariableMismatchError, _key_degree

VARS = ("x1", "x2", "x3")


def random_poly(data, nterms=4, max_exp=3):
    entries = []
    for _ in range(data.draw(st.integers(0, nterms))):
        exps = {v: data.draw(st.integers(0, max_exp)) for v in VARS}
        coeff = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
        entries.append((exps, coeff))
    return SparsePoly.from_exponents(VARS, entries)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    P, Q, R = (random_poly(data) for _ in range(3))
    assert (P + Q) + R == P + (Q + R)
    assert P + Q == Q + P
    assert (P * Q) * R == P * (Q * R)
    assert P * Q == Q * P
    assert P * (Q + R) == P * Q + P * R
    assert P + SparsePoly.zero(VARS) == P
    assert P * SparsePoly.constant(VARS, 1) == P
    assert (P - P).is_zero()


def x(name):
    return SparsePoly.variable(VARS, name)


def test_initial_term():
    p = x("x1") * x("x1") * x("x2") * 3 + x("x1") * 5
    assert p.lowest_degree_component() == x("x1") * 5
    assert SparsePoly.zero(VARS).lowest_degree_component().is_zero()


def test_initial_term_degree_is_minimal_nonzero_component():
    p = x("x1") ** 2 * x("x2") + x("x3") ** 2 - x("x1") * x("x2")
    d = p.lowest_degree_component().total_degree()
    assert not p.homogeneous_component(d).is_zero()
    for lower in range(d):
        assert p.homogeneous_component(lower).is_zero()


def test_partial_derivative():
    p = x("x1") ** 2 * x("x2")
    assert p.partial_derivative("x1") == x("x1") * x("x2") * 2
    assert p.partial_derivative("x3").is_zero()


def test_without_sets_the_given_variables_to_zero():
    f = SparsePoly.from_exponents(VARS, [({"x1": 2}, 1), ({"x1": 1, "x2": 1}, -2),
                                         ({"x3": 3}, Fraction(1, 2)), ({}, 5)])
    assert f.without([1]) == SparsePoly.from_exponents(
        VARS, [({"x1": 2}, 1), ({"x3": 3}, Fraction(1, 2)), ({}, 5)])
    assert f.without([0, 2]) == SparsePoly.constant(VARS, 5)
    assert f.without([]) == f


def test_homogeneous_component():
    p = x("x1") ** 2 + x("x1") * x("x2") + x("x3")
    assert p.homogeneous_component(2) == x("x1") ** 2 + x("x1") * x("x2")
    assert p.homogeneous_component(1) == x("x3")
    assert p.homogeneous_component(5).is_zero()


def test_evaluate_and_missing_variable():
    p = x("x1") * x("x2") + x("x3")
    assert p.evaluate({"x1": 2, "x2": 3, "x3": Fraction(1, 2)}) == Fraction(13, 2)
    with pytest.raises(VariableMismatchError) as err:
        p.evaluate({"x1": 2, "x2": 3})
    assert "x3" in str(err.value)


def test_variable_mismatch_between_operands():
    other = SparsePoly.variable(("y1",), "y1")
    with pytest.raises(VariableMismatchError):
        x("x1") + other


def test_scaling_behaviour_of_initial_term():
    # in(P) evaluated along t*v carries the minimal-degree behaviour of P
    p = x("x1") * x("x2") + x("x1") ** 3
    init = p.lowest_degree_component()
    v = {"x1": Fraction(2), "x2": Fraction(3), "x3": Fraction(0)}
    t = Fraction(1, 5)
    scaled = {k: t * val for k, val in v.items()}
    d = init.total_degree()
    assert init.evaluate(scaled) == t ** d * init.evaluate(v)


def test_canonical_rendering():
    p = x("x1") ** 2 * x("x3") * Fraction(5, 3) + x("x2") * -2 + SparsePoly.constant(VARS, 1)
    assert str(p) == "5/3*x1^2*x3 - 2*x2 + 1"
    assert str(SparsePoly.zero(VARS)) == "0"
    assert str(-x("x1")) == "-x1"


def test_coefficient_extraction():
    p = x("x1") ** 2 * x("x2") + x("x1") * 4 + x("x3")
    assert p.max_exponent("x1") == 2
    assert p.coefficient_of("x1", 2) == x("x2")
    assert p.coefficient_of("x1", 1) == SparsePoly.constant(VARS, 4)
    assert p.coefficient_of("x1", 0) == x("x3")


def test_power():
    p = x("x1") + x("x2")
    assert p ** 0 == SparsePoly.constant(VARS, 1)
    assert p ** 3 == p * p * p


def _within_degree_bound(exps):
    """Cap each exponent so that the total stays below _MAX_EXP."""
    left = _MAX_EXP - 1
    out = []
    for e in exps:
        out.append(min(e, left))
        left -= out[-1]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, _MAX_EXP - 1), min_size=1, max_size=64)
       .map(_within_degree_bound))
@example([_MAX_EXP - 1])
@example([0] * 63 + [_MAX_EXP - 1])
@example([_MASK // 128] * 64)
def test_key_degree_is_the_lane_sum(exps):
    key = sum(e << (_WIDTH * i) for i, e in enumerate(exps))
    lanes = sum((key >> (_WIDTH * i)) & _MASK for i in range(len(exps)))
    assert _key_degree(key) == lanes == sum(exps)


def test_from_exponents_refuses_total_degree_at_the_bound():
    half = _MAX_EXP // 2
    with pytest.raises(ValueError):
        SparsePoly.from_exponents(VARS, [({"x1": half, "x2": half}, Fraction(1))])
    # each exponent is in range, and the lanes sum past 2^16 - 1
    big = _MAX_EXP - 1
    with pytest.raises(ValueError):
        SparsePoly.from_exponents(VARS, [({"x1": big, "x2": big, "x3": big}, Fraction(1))])
    P = SparsePoly.from_exponents(VARS, [({"x1": half, "x2": half - 1}, Fraction(1))])
    assert P.total_degree() == _MAX_EXP - 1
