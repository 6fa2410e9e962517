"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial stores integer numerators over one common denominator
``den > 0``: ``terms`` maps monomials to nonzero numerators, and the
constructor keeps the pair canonical (no zero numerator, gcd(den,
numerators) = 1), so equal polynomials have equal ``terms`` and ``den``.
The integer kernels read the numerators (``factored_terms``); a rational
coefficient is ``coefficient(key)``.  Monomials are packed into a single
integer, 16 bits of exponent per variable, so that monomial
multiplication is integer addition; variable i of ``variables`` (no
name repeats) has bits 16i to 16i + 15.  Total degrees stay below
``_MAX_EXP``, which makes the degree of a key its residue modulo
2^16 - 1, read for all terms by one C-level ``map``.  The zero
polynomial has an empty term map and ``den`` 1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_MAX_EXP = 1 << (_WIDTH - 1)
# a big-endian key's bytes give its lanes top lane first
_BIG_ENDIAN = sys.byteorder == "big"


class VariableMismatchError(ValueError):
    """Raised for unknown variables or incompatible variable sets."""


def _key_degree(key: int) -> int:
    """Total degree of a packed monomial, the sum of its 16-bit lanes.

    Since 2^16 = 1 mod 2^16 - 1, that sum is ``key % _MASK``; it is exact
    while the total degree stays below ``_MAX_EXP`` (< 2^16 - 1), the bound
    that ``__mul__`` and the slice expansion of
    ``invariants.principal_minor_sum_polys`` check; over many keys it is
    ``map(_MASK.__rmod__, keys)``.
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
    """Immutable sparse polynomial over an ordered variable tuple: integer
    numerators ``terms`` over the denominator ``den``."""

    __slots__ = ("variables", "terms", "den", "_deg", "_factors")

    def __init__(self, variables: Sequence[str], terms: Mapping[int, int] | None = None,
                 den: int = 1):
        """Owns a copy of ``terms``, drops zero numerators and divides out
        gcd(den, numerators); a denominator below 1 is a ValueError, a
        non-integer numerator or denominator a TypeError."""
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        if terms:
            terms = {k: c for k, c in terms.items() if c} if 0 in terms.values() else dict(terms)
        else:
            terms = {}
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_deg", None)
        object.__setattr__(self, "_factors", None)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("SparsePoly is immutable")

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max monomial degree; the zero polynomial reports -1."""
        if self._deg is None:
            d = max(map(_MASK.__rmod__, self.terms), default=-1)
            object.__setattr__(self, "_deg", d)
        return self._deg

    def decode(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (_WIDTH * i)) & _MASK for i in range(len(self.variables)))

    def coefficient(self, key: int) -> Fraction:
        """The rational coefficient of a packed monomial (0 if absent)."""
        return Fraction(self.terms.get(key, 0), self.den)

    def factored_terms(self) -> list[tuple[tuple[tuple[int, int], ...], int, int]]:
        """Terms as (decoded (variable index, exponent) factors, numerator,
        degree), in ``terms`` order; cached.  A key's bytes are cast to
        its 16-bit lanes, and ``compress`` keeps the nonzero ones."""
        if self._factors is None:
            size, lanes = 2 * len(self.variables), range(len(self.variables))
            out = []
            for key, coeff in self.terms.items():
                exps = memoryview(key.to_bytes(size, sys.byteorder)).cast("H")
                if _BIG_ENDIAN:
                    exps = exps[::-1]
                out.append((tuple(zip(compress(lanes, exps), compress(exps, exps))),
                            coeff, key % _MASK))
            object.__setattr__(self, "_factors", out)
        return self._factors

    def _shift(self, name: str) -> int:
        """Bit offset of a variable's lane; unknown names are refused."""
        if name not in self.variables:
            raise VariableMismatchError(f"unknown variable {name!r}")
        return _WIDTH * self.variables.index(name)

    def max_exponent(self, name: str) -> int:
        shift = self._shift(name)
        return max(((k >> shift) & _MASK for k in self.terms), default=0)

    # -- arithmetic -------------------------------------------------------

    def _check_same_vars(self, other: "SparsePoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError("operands have different variable sets")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly) and self.variables == other.variables
                and self.den == other.den and self.terms == other.terms)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same_vars(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        terms = {k: a * c for k, c in self.terms.items()}
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + b * c
        return SparsePoly(self.variables, terms, den)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.variables, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scalar_mul(self, value) -> "SparsePoly":
        c = Fraction(value)
        return SparsePoly(self.variables, {k: c.numerator * v for k, v in self.terms.items()},
                          self.den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scalar_mul(other)
        self._check_same_vars(other)
        if self.total_degree() + other.total_degree() >= _MAX_EXP:
            raise ValueError("product degree exceeds packed-exponent capacity")
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        terms: dict[int, int] = {}
        _accumulate_product(terms, a, b, 0)
        return SparsePoly(self.variables, terms, self.den * other.den)

    # -- calculus and structure -------------------------------------------

    def partial_derivative(self, name: str) -> "SparsePoly":
        shift = self._shift(name)
        terms: dict[int, int] = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                terms[k - (1 << shift)] = c * e
        return SparsePoly(self.variables, terms, self.den)

    def without(self, positions: Iterable[int]) -> "SparsePoly":
        """The variables at the given positions set to zero: the terms
        touching none of them."""
        kill = 0
        for i in positions:
            kill |= _MASK << (_WIDTH * i)
        return SparsePoly(self.variables,
                          {k: c for k, c in self.terms.items() if not k & kill}, self.den)

    def lowest_degree_component(self) -> "SparsePoly":
        """Initial term: homogeneous part of minimal degree; 0 stays 0.  A
        homogeneous polynomial is its own.  Caches both total degrees."""
        if not self.terms:
            return self
        degrees = set(map(_MASK.__rmod__, self.terms))
        low = min(degrees)
        object.__setattr__(self, "_deg", max(degrees))
        if low == self._deg:
            return self
        part = SparsePoly(self.variables, dict(compress(
            self.terms.items(), map(low.__eq__, map(_MASK.__rmod__, self.terms)))), self.den)
        object.__setattr__(part, "_deg", low)
        return part

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        """Evaluate at a full point; missing variables are reported by name."""
        values = {self._shift(name) // _WIDTH: Fraction(value)
                  for name, value in point.items()}
        total = 0
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
        return Fraction(total, self.den)

    def coefficient_of(self, name: str, power: int) -> "SparsePoly":
        """Coefficient of ``name ** power`` as a polynomial in the rest."""
        shift = self._shift(name)
        terms = {}
        for k, c in self.terms.items():
            if (k >> shift) & _MASK == power:
                terms[k - (power << shift)] = c
        return SparsePoly(self.variables, terms, self.den)

    # -- canonical rendering ------------------------------------------------

    def _sort_key(self, key: int):
        return (_key_degree(key), self.decode(key))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._sort_key, reverse=True):
            coeff = self.coefficient(key)
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
