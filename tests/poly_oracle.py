"""Test-side constructors and operations for ``centinv.poly.SparsePoly``.

The package builds its polynomials from integer numerators over one
denominator and never calls these.  The tests use them to state
polynomials by name, by exponents or by plain ``{key: Fraction}``
coefficient maps, which is the reference format the integer form is
checked against.  Every result goes through the ``SparsePoly``
constructor, so the canonical form is the package's own.
"""

from fractions import Fraction
from math import lcm

from centinv.poly import _MASK, _MAX_EXP, _WIDTH, SparsePoly, VariableMismatchError, _index_map, _key_degree


def from_fractions(variables, terms) -> SparsePoly:
    """The polynomial with the given {key: rational coefficient} map."""
    terms = {k: Fraction(c) for k, c in terms.items()}
    den = lcm(*(c.denominator for c in terms.values()))
    return SparsePoly(variables, {k: c.numerator * (den // c.denominator)
                                  for k, c in terms.items()}, den)


def to_fractions(P: SparsePoly) -> dict:
    """The {key: rational coefficient} map of P, zero-free."""
    return {k: P.coefficient(k) for k in P.terms}


def zero(variables) -> SparsePoly:
    return SparsePoly(variables)


def constant(variables, value) -> SparsePoly:
    return from_fractions(variables, {0: value})


def variable(variables, name: str) -> SparsePoly:
    idx = _index_map(tuple(variables)).get(name)
    if idx is None:
        raise VariableMismatchError(f"unknown variable {name!r}")
    return SparsePoly(variables, {1 << (_WIDTH * idx): 1})


def from_exponents(variables, entries) -> SparsePoly:
    """Sum of coefficient * monomial over (exponents by name, coefficient)
    entries; an exponent or total degree from ``_MAX_EXP`` on is refused."""
    variables = tuple(variables)
    idx = _index_map(variables)
    terms: dict[int, Fraction] = {}
    for exps, coeff in entries:
        key = deg = 0
        for name, e in exps.items():
            if name not in idx:
                raise VariableMismatchError(f"unknown variable {name!r}")
            if not 0 <= e < _MAX_EXP:
                raise ValueError(f"exponent {e} out of range")
            key += e << (_WIDTH * idx[name])
            deg += e
        if deg >= _MAX_EXP:
            raise ValueError(f"total degree {deg} out of range")
        terms[key] = terms.get(key, 0) + Fraction(coeff)
    return from_fractions(variables, terms)


def power(P: SparsePoly, n: int) -> SparsePoly:
    """P ** n by repeated squaring."""
    if n < 0:
        raise ValueError("negative power")
    result, base = constant(P.variables, 1), P
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def homogeneous_component(P: SparsePoly, degree: int) -> SparsePoly:
    return SparsePoly(P.variables,
                      {k: c for k, c in P.terms.items() if _key_degree(k) == degree}, P.den)


def lowest_degree_component(P: SparsePoly) -> SparsePoly:
    """The initial term of P by one pass over its terms, keeping the terms
    of the least degree seen so far; 0 stays 0."""
    if not P.terms:
        return P
    low, terms = _MAX_EXP, {}
    for k, c in P.terms.items():
        d = _key_degree(k)
        if d < low:
            low, terms = d, {k: c}
        elif d == low:
            terms[k] = c
    return SparsePoly(P.variables, terms, P.den)


def total_degree(P: SparsePoly) -> int:
    """The largest term degree of P, -1 for 0, without the cached value."""
    return max((_key_degree(k) for k in P.terms), default=-1)


def kazhdan_check(P: SparsePoly, weights, expected: int) -> bool:
    """Every monomial m of P satisfies sum_a m_a (weights[a] + 2) = 2 * expected,
    term by term and lane by lane."""
    for key in P.terms:
        weighted = sum(((key >> (_WIDTH * a)) & _MASK) * (w + 2)
                       for a, w in enumerate(weights))
        if weighted != 2 * expected:
            return False
    return True


def decode(P: SparsePoly) -> list:
    """``factored_terms`` of P lane by lane with shifts: the nonzero
    (variable index, exponent) pairs of each key, its numerator and degree."""
    out = []
    for key, coeff in P.terms.items():
        factors = []
        kk, i = key, 0
        while kk:
            if kk & _MASK:
                factors.append((i, kk & _MASK))
            kk >>= _WIDTH
            i += 1
        out.append((tuple(factors), coeff, _key_degree(key)))
    return out
