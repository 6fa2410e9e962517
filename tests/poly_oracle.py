"""Test-side constructors and operations for ``centinv.poly.SparsePoly``.

The package builds its polynomials from integer numerators over one
denominator and never calls these.  The tests use them to state
polynomials by name, by exponents or by plain ``{key: Fraction}``
coefficient maps, which is the reference format the integer form is
checked against.  ``char_poly_terms`` and ``minor_sum_polys`` expand
det(t Id - M) in one subset pass over the columns, the reference for the
Laplace split of ``centinv.invariants.char_poly_terms``, and
``signed_sum_by_recursion`` enumerates the signed permutation sums that
``centinv.invariants.signed_sums`` reads off one such expansion.  Every result
goes through the ``SparsePoly`` constructor, so the canonical form is the
package's own.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from centinv.centralizer import XiIndex
from centinv.poly import (
    _MASK,
    _MAX_EXP,
    _WIDTH,
    SparsePoly,
    VariableMismatchError,
    _accumulate_product,
    _key_degree,
)


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
    return from_exponents(variables, [({name: 1}, 1)])


def from_exponents(variables, entries) -> SparsePoly:
    """Sum of coefficient * monomial over (exponents by name, coefficient)
    entries; an exponent or total degree from ``_MAX_EXP`` on is refused."""
    variables = tuple(variables)
    idx = {name: i for i, name in enumerate(variables)}
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


def char_poly_terms(entries, t_key) -> dict:
    """Term dict of det(t Id - M), t the lane of ``t_key``, by one subset
    expansion over the columns, rows taken sparse first."""
    n = len(entries)
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if entries[i][j]))
    A = []
    for i in order:
        row = []
        for j in order:
            ent = {k: -c for k, c in entries[i][j].items()}
            if i == j:
                ent[t_key] = ent.get(t_key, 0) + 1
                if not ent[t_key]:
                    del ent[t_key]
            row.append(ent)
        A.append(row)
    level = {0: {0: 1}}
    for j in range(1, n + 1):
        nxt = {}
        row = A[j - 1]
        for mask, poly in level.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                ent = row[c]
                if not ent:
                    continue
                pos = (mask & (bit - 1)).bit_count() + 1
                acc = nxt.setdefault(mask | bit, {})
                _accumulate_product(acc, poly, ent, (j + pos) & 1)
        level = {m: t for m, t in nxt.items() if t}
    return level.get((1 << n) - 1, {})


def char_poly_buckets(entries, t_key) -> list:
    """[term dict of e_l(M) for l = 0..n] from ``char_poly_terms``:
    e_l is (-1)^l times the coefficient of t^(n - l)."""
    n = len(entries)
    shift = t_key.bit_length() - 1
    out = [{} for _ in range(n + 1)]
    for k, c in char_poly_terms(entries, t_key).items():
        power = k >> shift
        out[n - power][k - (power << shift)] = (-1) ** (n - power) * c
    return out


def minor_sum_polys(entries, variables) -> list:
    """The n sums of principal minors of a matrix of {key: Fraction} entries,
    cleared by D, the lcm of the denominators, and expanded in one pass."""
    n = len(entries)
    D = lcm(*(c.denominator for row in entries for ent in row for c in ent.values()))
    cleared = [[{k: c.numerator * (D // c.denominator) for k, c in ent.items()}
                for ent in row] for row in entries]
    sums = char_poly_buckets(cleared, 1 << (_WIDTH * len(variables)))
    return [SparsePoly(variables, sums[ell], D ** ell) for ell in range(1, n + 1)]


def perm_sign(perm) -> int:
    """sgn of a permutation of range(m): -1 per cycle of even length."""
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen and clen % 2 == 0:
            sign = -sign
    return sign


def signed_sum_by_recursion(model, ell, m) -> SparsePoly:
    """The signed sum of sgn(sigma) * prod xi[i, sigma(i), s_i] over supports
    I of m blocks, permutations sigma of I and admissible shifts with total
    ell - m, built by a pruned recursion over the shifts."""
    d = model.partition.d
    acc = {}
    for I in combinations(range(1, model.partition.k + 1), m):
        for perm in permutations(range(m)):
            sign = perm_sign(perm)
            ranges = [(I[t], I[perm[t]], max(d[I[perm[t]] - 1] - d[I[t] - 1], 0),
                       d[I[perm[t]] - 1]) for t in range(m)]
            lo = [sum(r[2] for r in ranges[t:]) for t in range(m + 1)]
            hi = [sum(r[3] for r in ranges[t:]) for t in range(m + 1)]

            def rec(t, remaining, key):
                if t == m:
                    c = acc.get(key, Fraction(0)) + sign
                    if c:
                        acc[key] = c
                    else:
                        acc.pop(key, None)
                    return
                i, j, low, high = ranges[t]
                for s in range(low, high + 1):
                    if lo[t + 1] <= remaining - s <= hi[t + 1]:
                        a = model.index[XiIndex(i, j, s)]
                        rec(t + 1, remaining - s, key + (1 << (_WIDTH * a)))

            if lo[0] <= ell - m <= hi[0]:
                rec(0, ell - m, 0)
    return from_fractions(model.var_names, acc)
