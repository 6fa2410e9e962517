"""Sparse polynomial arithmetic: ring axioms, structure operations and the
numerator/denominator format against plain Fraction coefficient maps."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
import poly_oracle
from poly_oracle import (
    constant,
    from_exponents,
    from_fractions,
    homogeneous_component,
    power,
    to_fractions,
    variable,
    zero,
)

from centinv.poly import _MASK, _MAX_EXP, _WIDTH, SparsePoly, VariableMismatchError, _key_degree

VARS = ("x1", "x2", "x3")


def random_poly(data, nterms=4, max_exp=3):
    entries = []
    for _ in range(data.draw(st.integers(0, nterms))):
        exps = {v: data.draw(st.integers(0, max_exp)) for v in VARS}
        coeff = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
        entries.append((exps, coeff))
    return from_exponents(VARS, entries)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    P, Q, R = (random_poly(data) for _ in range(3))
    assert (P + Q) + R == P + (Q + R)
    assert P + Q == Q + P
    assert (P * Q) * R == P * (Q * R)
    assert P * Q == Q * P
    assert P * (Q + R) == P * Q + P * R
    assert P + zero(VARS) == P
    assert P * constant(VARS, 1) == P
    assert (P - P).is_zero()


def x(name):
    return variable(VARS, name)


def test_initial_term():
    p = x("x1") * x("x1") * x("x2") * 3 + x("x1") * 5
    assert p.lowest_degree_component() == x("x1") * 5
    assert zero(VARS).lowest_degree_component().is_zero()


def test_initial_term_degree_is_minimal_nonzero_component():
    p = power(x("x1"), 2) * x("x2") + power(x("x3"), 2) - x("x1") * x("x2")
    d = p.lowest_degree_component().total_degree()
    assert not homogeneous_component(p, d).is_zero()
    for lower in range(d):
        assert homogeneous_component(p, lower).is_zero()


def test_partial_derivative():
    p = power(x("x1"), 2) * x("x2")
    assert p.partial_derivative("x1") == x("x1") * x("x2") * 2
    assert p.partial_derivative("x3").is_zero()


def test_without_sets_the_given_variables_to_zero():
    f = from_exponents(VARS, [({"x1": 2}, 1), ({"x1": 1, "x2": 1}, -2),
                              ({"x3": 3}, Fraction(1, 2)), ({}, 5)])
    assert f.without([1]) == from_exponents(
        VARS, [({"x1": 2}, 1), ({"x3": 3}, Fraction(1, 2)), ({}, 5)])
    assert f.without([0, 2]) == constant(VARS, 5)
    assert f.without([]) == f


def test_homogeneous_component():
    p = power(x("x1"), 2) + x("x1") * x("x2") + x("x3")
    assert homogeneous_component(p, 2) == power(x("x1"), 2) + x("x1") * x("x2")
    assert homogeneous_component(p, 1) == x("x3")
    assert homogeneous_component(p, 5).is_zero()


def test_evaluate_and_missing_variable():
    p = x("x1") * x("x2") + x("x3")
    assert p.evaluate({"x1": 2, "x2": 3, "x3": Fraction(1, 2)}) == Fraction(13, 2)
    with pytest.raises(VariableMismatchError) as err:
        p.evaluate({"x1": 2, "x2": 3})
    assert "x3" in str(err.value)


def test_variable_mismatch_between_operands():
    other = variable(("y1",), "y1")
    with pytest.raises(VariableMismatchError):
        x("x1") + other


@pytest.mark.parametrize("call", [
    lambda p: p.max_exponent("y"),
    lambda p: p.coefficient_of("y", 1),
    lambda p: p.partial_derivative("y"),
], ids=["max_exponent", "coefficient_of", "partial_derivative"])
def test_unknown_variable_name_is_refused(call):
    with pytest.raises(VariableMismatchError, match="unknown variable 'y'"):
        call(x("x1"))


def test_scaling_behaviour_of_initial_term():
    # in(P) evaluated along t*v carries the minimal-degree behaviour of P
    p = x("x1") * x("x2") + power(x("x1"), 3)
    init = p.lowest_degree_component()
    v = {"x1": Fraction(2), "x2": Fraction(3), "x3": Fraction(0)}
    t = Fraction(1, 5)
    scaled = {k: t * val for k, val in v.items()}
    d = init.total_degree()
    assert init.evaluate(scaled) == t ** d * init.evaluate(v)


def test_canonical_rendering():
    p = power(x("x1"), 2) * x("x3") * Fraction(5, 3) + x("x2") * -2 + constant(VARS, 1)
    assert str(p) == "5/3*x1^2*x3 - 2*x2 + 1"
    assert str(zero(VARS)) == "0"
    assert str(-x("x1")) == "-x1"


def test_coefficient_extraction():
    p = power(x("x1"), 2) * x("x2") + x("x1") * 4 + x("x3")
    assert p.max_exponent("x1") == 2
    assert p.coefficient_of("x1", 2) == x("x2")
    assert p.coefficient_of("x1", 1) == constant(VARS, 4)
    assert p.coefficient_of("x1", 0) == x("x3")


def test_power():
    p = x("x1") + x("x2")
    assert power(p, 0) == constant(VARS, 1)
    assert power(p, 3) == p * p * p


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
        from_exponents(VARS, [({"x1": half, "x2": half}, Fraction(1))])
    # each exponent is in range, and the lanes sum past 2^16 - 1
    big = _MAX_EXP - 1
    with pytest.raises(ValueError):
        from_exponents(VARS, [({"x1": big, "x2": big, "x3": big}, Fraction(1))])
    P = from_exponents(VARS, [({"x1": half, "x2": half - 1}, Fraction(1))])
    assert P.total_degree() == _MAX_EXP - 1


# -- the numerator/denominator format ---------------------------------------


def test_zero_numerators_are_dropped():
    P = SparsePoly(("x",), {1: 0})
    assert P.is_zero()
    assert P == SparsePoly(("x",))
    assert str(P) == "0"
    assert P.total_degree() == -1


def test_constructor_refuses_a_bad_denominator_or_rational_numerators():
    for den in (0, -3):
        with pytest.raises(ValueError):
            SparsePoly(VARS, {1: 1}, den)
    with pytest.raises(TypeError):
        SparsePoly(VARS, {1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        SparsePoly(VARS, {1: Fraction(2)})


def _exps(key):
    return [(key >> (_WIDTH * i)) & _MASK for i in range(len(VARS))]


def render(terms):
    """Reference text of a {key: Fraction} map: zero-free, terms by
    descending (degree, exponents), unit coefficients left out."""
    text = ""
    for key in sorted((k for k, c in terms.items() if c),
                      key=lambda k: (sum(_exps(k)), _exps(k)), reverse=True):
        c = terms[key]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, _exps(key)) if e]
        body = "*".join(factors if factors and abs(c) == 1 else [str(abs(c))] + factors)
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def frac_add(A, B):
    out = dict(A)
    for k, c in B.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def frac_mul(A, B):
    out = {}
    for ka, ca in A.items():
        for kb, cb in B.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def frac_evaluate(A, point):
    total = Fraction(0)
    for k, c in A.items():
        for v, e in zip(VARS, _exps(k)):
            c *= point[v] ** e
        total += c
    return total


def assert_canonical(P, expected):
    """P holds the zero-free Fraction map ``expected`` in canonical form."""
    assert type(P.den) is int and P.den > 0
    assert all(type(c) is int and c for c in P.terms.values())
    assert gcd(P.den, *P.terms.values()) == 1
    assert to_fractions(P) == {k: c for k, c in expected.items() if c}


exponents = st.tuples(*(st.integers(0, 2) for _ in VARS)).map(
    lambda es: sum(e << (_WIDTH * i) for i, e in enumerate(es)))
rationals = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)))
fraction_maps = st.dictionaries(exponents, rationals, max_size=5)


@settings(max_examples=200, deadline=None)
@given(fraction_maps, fraction_maps, rationals,
       st.fixed_dictionaries({v: rationals for v in VARS}),
       st.sampled_from(VARS), st.integers(0, 2),
       st.lists(st.integers(0, len(VARS) - 1), max_size=2), st.integers(1, 6))
@example({1: Fraction(0)}, {}, Fraction(0), dict.fromkeys(VARS, Fraction(0)), "x1", 0, [], 1)
def test_format_agrees_with_fraction_arithmetic(A, B, c, point, name, pw, killed, m):
    P, Q = from_fractions(VARS, A), from_fractions(VARS, B)
    assert_canonical(P, A)
    assert str(P) == render(A)
    assert (P == Q) == (frac_add(A, {}) == frac_add(B, {}))
    assert_canonical(P + Q, frac_add(A, B))
    assert_canonical(P - Q, frac_add(A, {k: -v for k, v in B.items()}))
    assert_canonical(P * Q, frac_mul(A, B))
    assert str(P * Q) == render(frac_mul(A, B))
    assert_canonical(P.scalar_mul(c), {k: c * v for k, v in A.items()})
    assert P.evaluate(point) == frac_evaluate(A, point)
    shift = _WIDTH * VARS.index(name)
    assert_canonical(P.partial_derivative(name),
                     frac_add({k - (1 << shift): v * ((k >> shift) & _MASK)
                               for k, v in A.items() if (k >> shift) & _MASK}, {}))
    low = min((_key_degree(k) for k, v in A.items() if v), default=None)
    assert_canonical(P.lowest_degree_component(),
                     {k: v for k, v in A.items() if _key_degree(k) == low})
    kill = sum(_MASK << (_WIDTH * i) for i in set(killed))
    assert_canonical(P.without(killed), {k: v for k, v in A.items() if not k & kill})
    assert_canonical(P.coefficient_of(name, pw),
                     {k - (pw << shift): v for k, v in A.items() if (k >> shift) & _MASK == pw})
    # numerators and denominator scaled by one m > 0 are the same polynomial
    assert SparsePoly(VARS, {k: m * v for k, v in P.terms.items()}, m * P.den) == P


# -- degrees and decode read in C, against the term-by-term oracles ---------


def fresh(P):
    """A copy of P with no cached degree or decode."""
    return SparsePoly(P.variables, P.terms, P.den)


def test_a_homogeneous_polynomial_is_its_own_initial_term():
    P = x("x1") * x("x2") * 3 - power(x("x3"), 2)
    assert P.lowest_degree_component() is P
    assert P.total_degree() == 2
    Q = P + x("x2")
    low = Q.lowest_degree_component()
    assert low is not Q and low == x("x2")
    assert (low.total_degree(), Q.total_degree()) == (1, 2)


def test_constructor_owns_a_copy_of_the_terms():
    # gcd 1 and no zero numerator, then a zero and a gcd of 2 to divide out
    for terms in ({1: 3, 1 << _WIDTH: 4}, {1: 2, 1 << _WIDTH: 0, 2: 6}):
        given_terms = dict(terms)
        P = SparsePoly(VARS, given_terms, 4)
        assert P.terms is not given_terms
        given_terms[3] = 1
        assert 3 not in P.terms and 0 not in P.terms.values()
        assert P == from_fractions(VARS, {k: Fraction(c, 4) for k, c in terms.items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degrees_and_initial_term_match_the_oracle(data):
    P = random_poly(data, nterms=6)
    if data.draw(st.booleans()):
        P = homogeneous_component(P, data.draw(st.integers(0, 9)))
    for first in ("initial", "degree"):
        Q = fresh(P)
        if first == "degree":
            assert Q.total_degree() == poly_oracle.total_degree(P)
        low = Q.lowest_degree_component()
        assert low == poly_oracle.lowest_degree_component(P)
        assert (low is Q) == (not P.terms or low.terms == P.terms)
        assert low.total_degree() == poly_oracle.total_degree(low)
        assert Q.total_degree() == poly_oracle.total_degree(P)


# a planted key per case: exponents in lane 0 only, in the top lane only, and
# above 255 (a byte, not a lane, would split them), with lanes left empty between
DECODE_VARS = tuple(f"y{i}" for i in range(6))
PLANTED_KEYS = {
    3: ((0, 3),),
    7 << (_WIDTH * 5): ((5, 7),),
    300 | (256 << (_WIDTH * 2)) | (1 << (_WIDTH * 5)): ((0, 300), (2, 256), (5, 1)),
    (_MAX_EXP - 1) << (_WIDTH * 4): ((4, _MAX_EXP - 1),),
    0: (),
}


def test_decode_of_planted_keys():
    P = SparsePoly(DECODE_VARS, dict.fromkeys(PLANTED_KEYS, 5))
    got = P.factored_terms()
    assert got == poly_oracle.decode(P)
    assert got == [(factors, 5, sum(e for _, e in factors))
                   for factors in PLANTED_KEYS.values()]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decode_matches_the_oracle(data):
    P = random_poly(data, nterms=6, max_exp=600)
    assert P.factored_terms() == poly_oracle.decode(P)
