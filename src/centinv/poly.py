"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from monomials to nonzero coefficients.  Monomials
are packed into a single integer, 16 bits of exponent per variable, so
that monomial multiplication is integer addition.  Total degrees stay
below ``_MAX_EXP``, which makes the degree of a key its residue modulo
2^16 - 1.  The zero polynomial has an empty term map.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_MAX_EXP = 1 << (_WIDTH - 1)

_INDEX_CACHE: dict[tuple[str, ...], dict[str, int]] = {}


class VariableMismatchError(ValueError):
    """Raised for unknown variables or incompatible variable sets."""


def _index_map(variables: tuple[str, ...]) -> dict[str, int]:
    m = _INDEX_CACHE.get(variables)
    if m is None:
        m = {name: i for i, name in enumerate(variables)}
        if len(m) != len(variables):
            raise VariableMismatchError("duplicate variable names")
        _INDEX_CACHE[variables] = m
    return m


def _key_degree(key: int) -> int:
    """Total degree of a packed monomial, the sum of its 16-bit lanes.

    Since 2^16 = 1 mod 2^16 - 1, that sum is ``key % _MASK``; it is exact
    while the total degree stays below ``_MAX_EXP`` (< 2^16 - 1), the bound
    that ``from_exponents``, ``__mul__`` and the slice expansion of
    ``invariants.principal_minor_sum_polys`` check.
    """
    return key % _MASK


def _accumulate_product(acc: dict, terms: dict, factor: dict, parity: int) -> None:
    """Add (-1)^parity * terms * factor into the term dict acc, in place."""
    sign = -1 if parity else 1
    get = acc.get
    for kb, cb in factor.items():
        cb = sign * cb
        for ka, ca in terms.items():
            k = ka + kb
            c = ca * cb
            s = get(k)
            if s is None:
                acc[k] = c
            else:
                s = s + c
                if s:
                    acc[k] = s
                else:
                    del acc[k]


class SparsePoly:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("variables", "terms", "_deg", "_factors", "_ints")

    def __init__(self, variables: Sequence[str], terms: Mapping[int, Fraction] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", dict(terms) if terms else {})
        object.__setattr__(self, "_deg", None)
        object.__setattr__(self, "_factors", None)
        object.__setattr__(self, "_ints", None)
        _index_map(self.variables)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "SparsePoly":
        c = Fraction(value)
        return cls(variables, {0: c} if c else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        idx = _index_map(tuple(variables)).get(name)
        if idx is None:
            raise VariableMismatchError(f"unknown variable {name!r}")
        return cls(variables, {1 << (_WIDTH * idx): Fraction(1)})

    @classmethod
    def from_exponents(cls, variables: Sequence[str],
                       entries: Iterable[tuple[Mapping[str, int], Fraction]]) -> "SparsePoly":
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
            c = terms.get(key, Fraction(0)) + Fraction(coeff)
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return cls(variables, terms)

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max monomial degree; the zero polynomial reports -1."""
        if self._deg is None:
            d = max((_key_degree(k) for k in self.terms), default=-1)
            object.__setattr__(self, "_deg", d)
        return self._deg

    def decode(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (_WIDTH * i)) & _MASK for i in range(len(self.variables)))

    def factored_terms(self) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
        """Terms with decoded (variable index, exponent) factors; cached."""
        if self._factors is None:
            out = []
            for key, coeff in self.terms.items():
                factors = []
                kk = key
                i = 0
                while kk:
                    e = kk & _MASK
                    if e:
                        factors.append((i, e))
                    kk >>= _WIDTH
                    i += 1
                out.append((tuple(factors), coeff))
            object.__setattr__(self, "_factors", out)
        return self._factors

    def integer_terms(self) -> list[tuple[tuple[tuple[int, int], ...], int, int]]:
        """``factored_terms`` as (factors, den * coefficient, degree), where
        den > 0 is the least common denominator of the coefficients; cached."""
        if self._ints is None:
            terms = self.factored_terms()
            den = lcm(*(c.denominator for _, c in terms))
            out = [(factors, int(c * den), sum(e for _, e in factors))
                   for factors, c in terms]
            object.__setattr__(self, "_ints", out)
        return self._ints

    def max_exponent(self, name: str) -> int:
        idx = _index_map(self.variables)[name]
        shift = _WIDTH * idx
        return max(((k >> shift) & _MASK for k in self.terms), default=0)

    # -- arithmetic -------------------------------------------------------

    def _check_same_vars(self, other: "SparsePoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError("operands have different variable sets")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly) and self.variables == other.variables
                and self.terms == other.terms)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            if s is None:
                terms[k] = c
            else:
                s = s + c
                if s:
                    terms[k] = s
                else:
                    del terms[k]
        return SparsePoly(self.variables, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.variables, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scalar_mul(self, value) -> "SparsePoly":
        c = Fraction(value)
        if not c:
            return SparsePoly(self.variables)
        return SparsePoly(self.variables, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scalar_mul(other)
        self._check_same_vars(other)
        if not self.terms or not other.terms:
            return SparsePoly(self.variables)
        if self.total_degree() + other.total_degree() >= _MAX_EXP:
            raise ValueError("product degree exceeds packed-exponent capacity")
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        terms: dict[int, Fraction] = {}
        _accumulate_product(terms, a, b, 0)
        return SparsePoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        result = SparsePoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and structure -------------------------------------------

    def partial_derivative(self, name: str) -> "SparsePoly":
        idx = _index_map(self.variables).get(name)
        if idx is None:
            raise VariableMismatchError(f"unknown variable {name!r}")
        shift = _WIDTH * idx
        terms: dict[int, Fraction] = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                terms[k - (1 << shift)] = c * e
        return SparsePoly(self.variables, terms)

    def without(self, positions: Iterable[int]) -> "SparsePoly":
        """The variables at the given positions set to zero: the terms
        touching none of them."""
        kill = 0
        for i in positions:
            kill |= _MASK << (_WIDTH * i)
        return SparsePoly(self.variables, {k: c for k, c in self.terms.items() if not k & kill})

    def homogeneous_component(self, degree: int) -> "SparsePoly":
        return SparsePoly(
            self.variables,
            {k: c for k, c in self.terms.items() if _key_degree(k) == degree},
        )

    def lowest_degree_component(self) -> "SparsePoly":
        """Initial term: homogeneous part of minimal degree; 0 stays 0."""
        if not self.terms:
            return self
        low, terms = _MASK, {}  # above every k % _MASK
        for k, c in self.terms.items():
            d = _key_degree(k)
            if d < low:
                low, terms = d, {k: c}
            elif d == low:
                terms[k] = c
        return SparsePoly(self.variables, terms)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        """Evaluate at a full point; missing variables are reported by name."""
        idx = _index_map(self.variables)
        values: dict[int, Fraction] = {}
        for name, value in point.items():
            if name not in idx:
                raise VariableMismatchError(f"unknown variable {name!r}")
            values[idx[name]] = Fraction(value)
        total = Fraction(0)
        for k, c in self.terms.items():
            term = c
            kk = k
            i = 0
            while kk:
                e = kk & _MASK
                if e:
                    if i not in values:
                        raise VariableMismatchError(
                            f"no value assigned to variable {self.variables[i]!r}")
                    term *= values[i] ** e
                kk >>= _WIDTH
                i += 1
            total += term
        return total

    def coefficient_of(self, name: str, power: int) -> "SparsePoly":
        """Coefficient of ``name ** power`` as a polynomial in the rest."""
        idx = _index_map(self.variables)[name]
        shift = _WIDTH * idx
        terms = {}
        for k, c in self.terms.items():
            if (k >> shift) & _MASK == power:
                terms[k - (power << shift)] = c
        return SparsePoly(self.variables, terms)

    # -- canonical rendering ------------------------------------------------

    def _sort_key(self, key: int):
        return (_key_degree(key), self.decode(key))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._sort_key, reverse=True):
            coeff = self.terms[key]
            factors = []
            for i, e in enumerate(self.decode(key)):
                if e == 1:
                    factors.append(self.variables[i])
                elif e > 1:
                    factors.append(f"{self.variables[i]}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"SparsePoly({self})"
