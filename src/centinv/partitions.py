"""Partition arithmetic and degree/dimension combinatorics for gl, sp, so.

A partition lists Jordan block sizes of a nilpotent matrix, weakly
decreasing.  All degree tables and centraliser dimensions in types A, B,
C, D reduce to sums read off the Young diagram.  The orthogonal
minor-degree diagnostic is a plain dict, the witnesses of its report row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence


class InvalidPartitionError(ValueError):
    """Partition fails a structural or type-multiplicity rule."""


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts summing to n; d_i = parts[i] - 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidPartitionError("empty partition")
        if any(int(p) != p or p < 1 for p in self.parts):
            raise InvalidPartitionError("parts must be positive integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InvalidPartitionError("parts must be weakly decreasing")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '5,3,2,2'; unsorted input is normalised, not rejected."""
        try:
            parts = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
        except ValueError as exc:
            raise InvalidPartitionError(f"cannot parse partition {text!r}") from exc
        if not parts:
            raise InvalidPartitionError(f"cannot parse partition {text!r}")
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @cached_property
    def d(self) -> tuple[int, ...]:
        # cached in the instance __dict__; eq and hash read only parts
        return tuple(p - 1 for p in self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def prefix(self, m: int) -> "Partition":
        """Sub-partition of the first m parts."""
        return Partition(self.parts[:m])


class ClassicalType(Enum):
    GL = "gl"
    SP = "sp"
    SO = "so"


def is_valid_for(p: Partition, t: ClassicalType) -> bool:
    if t is ClassicalType.GL:
        return True
    counts: dict[int, int] = {}
    for part in p.parts:
        counts[part] = counts.get(part, 0) + 1
    if t is ClassicalType.SP:
        return all(c % 2 == 0 for part, c in counts.items() if part % 2 == 1)
    return all(c % 2 == 0 for part, c in counts.items() if part % 2 == 0)


def check_valid_for(p: Partition, t: ClassicalType) -> None:
    if is_valid_for(p, t):
        return
    rule = ("every odd part needs even multiplicity" if t is ClassicalType.SP
            else "every even part needs even multiplicity")
    raise InvalidPartitionError(f"partition {p} invalid for {t.value}: {rule}")


def pairing_map(p: Partition, t: ClassicalType) -> dict[int, int]:
    """Block pairing i -> i' (1-indexed).

    Pairs the blocks whose restriction of the bilinear form vanishes:
    odd-size blocks for sp, even-size blocks for so.  Equal-size blocks
    are paired consecutively, so i' = i +/- 1 on every pair.  Unpaired
    blocks map to themselves.
    """
    check_valid_for(p, t)
    if t is ClassicalType.GL:
        raise ValueError("pairing is defined for sp and so only")
    pair_parity = 1 if t is ClassicalType.SP else 0
    out = {i: i for i in range(1, p.k + 1)}
    pending: dict[int, int] = {}
    for i, part in enumerate(p.parts, start=1):
        if part % 2 != pair_parity:
            continue
        if part in pending:
            j = pending.pop(part)
            out[i] = j
            out[j] = i
        else:
            pending[part] = i
    if pending:
        raise InvalidPartitionError(f"unpairable blocks of sizes {sorted(pending)}")
    return out


def dim_centralizer_gl(p: Partition) -> int:
    """dim of the centraliser in gl_n: sum (2i-1) * parts[i]."""
    return sum((2 * i - 1) * part for i, part in enumerate(p.parts, start=1))


def dim_centralizer_so_sp(p: Partition, t: ClassicalType) -> int:
    """Centraliser dimension inside so_n or sp_n (n = sum of parts)."""
    check_valid_for(p, t)
    full = dim_centralizer_gl(p)
    evens = sum(1 for di in p.d if di % 2 == 0)
    if t is ClassicalType.SP:
        total = full + evens
    elif t is ClassicalType.SO:
        total = full - evens
    else:
        return full
    assert total % 2 == 0
    return total // 2


def degrees_gl(p: Partition) -> tuple[int, ...]:
    """Degrees of the initial slice components, one per basic invariant:
    the ell-th is read off the Young diagram.

    deg = min { s : ell <= parts[1] + ... + parts[s] }; the degree sum
    equals (dim_centralizer_gl + n) / 2, which ``runner.cmd_degrees``
    checks as ``sum_identity``.
    """
    return tuple(s for s, part in enumerate(p.parts, start=1) for _ in range(part))


def degrees_sp(p: Partition) -> tuple[int, ...]:
    """Even-index subsequence of the gl table (partition of 2n, type C)."""
    check_valid_for(p, t=ClassicalType.SP)
    return degrees_gl(p)[1::2]


def so_good_system_diagnostic(p: Partition) -> dict:
    """Compare the minor-generator degree sum with (dim g_e + rank) / 2.

    A shortfall means the minors (with the pfaffian replacing the top
    minor when n is even) cannot form a good generating system; it does
    not rule out good systems built from modified generators.  Returns
    the witnesses of the so certificate, keyed as the report keys them.
    """
    check_valid_for(p, ClassicalType.SO)
    n = p.n
    rank = n // 2
    # the gl degrees at the even indices 2, 4, ..., 2 * (n // 2)
    even_sum = sum(degrees_gl(p)[1::2])
    adjusted = even_sum
    if n % 2 == 0:
        # the top minor restricts to the square of the pfaffian
        assert p.k % 2 == 0
        adjusted = even_sum - p.k + p.k // 2
    dim = dim_centralizer_so_sp(p, ClassicalType.SO)
    bound_num = dim + rank
    assert bound_num % 2 == 0
    bound = bound_num // 2
    if adjusted == bound:
        verdict = "GOOD_SYSTEM_FROM_MINORS"
    elif adjusted < bound:
        verdict = "NO_GOOD_SYSTEM_FROM_MINORS"
    else:
        verdict = "INCONSISTENT"
    d = p.d
    so1 = d[0] % 2 == 0 and all(
        d[i - 1] % 2 == 1 or d[i] % 2 == 0
        for i in range(2, p.k, 2)  # i+1 odd, checks d_i even => d_{i+1} even
    )
    so2 = (
        n % 2 == 0
        and d[0] % 2 == 1
        and p.k >= 2
        and d[1] == d[0]
        and all(di % 2 == 0 for di in d[2:])
    )
    return {
        "dim_centralizer": dim,
        "rank": rank,
        "even_degree_sum": even_sum,
        "pfaffian_adjusted_sum": adjusted,
        "bound": bound,
        "verdict": verdict,
        "lemma_flags": {"even_top_row": so1, "paired_top_rows": so2},
    }


def partitions_of(n: int, valid_for: ClassicalType = ClassicalType.GL) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order, optionally filtered."""

    def rec(remaining: int, maximum: int, acc: list[int]):
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        for part in range(min(remaining, maximum), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    for p in rec(n, n, []):
        if is_valid_for(p, valid_for):
            yield p


def vectors_with_total(ranges: Sequence[range], total: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors with entry t in ranges[t] and the given total, in
    lexicographic order."""
    return (v for v in product(*ranges) if sum(v) == total)
