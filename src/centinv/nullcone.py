"""Null-cone geometry for centralisers in gl_n.

On the antidiagonal subspaces V_m (spanned by xi[i,j,s] with i+j = m+1)
the top minor-sum restrictions collapse to signed products along the
antidiagonal; peeling blocks from the last one upward this produces the
component decomposition of the restricted zero locus and an explicit
n-dimensional subspace meeting the null-cone only at the origin, which
is exactly the codimension statement making the initial terms a regular
sequence; ``runner.cmd_nullcone`` gives that argument where it reads the
codimension n off a pass of ``transversality_certificate``, which returns
(stages, failure).  A component is its shift tuple, and ``vanishing``
lists the coordinates it kills.  Each stage of that peeling is the
JSON-ready dict the certificate reports, and reads
the partition's own slice: a prefix of the first m blocks is checked on
the restriction to levels 1..m, with no model or slice of its own.
Setting coordinates to zero is ``SparsePoly.without``, which drops every
term touching them.  ``top_block_support_check`` returns what differs,
"" on a pass.
"""

from __future__ import annotations

import random
from math import comb

# build_gl_model is not called here; it stays imported because the
# benchmark's self-test (perfbench/selftest.py) checks that tracing rebinds
# it in nullcone as well as in runner and centralizer
from .centralizer import CentralizerModel, XiIndex, build_gl_model  # noqa: F401
from .invariants import SliceRestriction
from .linalg import RatMatrix
from .partitions import Partition, vectors_with_total
from .poly import _WIDTH, SparsePoly


def antidiagonal_spaces(model: CentralizerModel) -> list[list[XiIndex]]:
    """Bases of levels 1..2k-1 (entry m - 1 is level m); level m holds the
    indices with i + j = m + 1, in the order of ``model.xi``."""
    spaces: list[list[XiIndex]] = [[] for _ in range(2 * model.partition.k - 1)]
    for idx in model.xi:
        spaces[idx.i + idx.j - 2].append(idx)
    return spaces


def restrict_to_V(sr: SliceRestriction, model: CentralizerModel,
                  m: int | None = None) -> list[SparsePoly]:
    """Initial terms with every coordinate of level above m (default k) set
    to zero."""
    m = model.partition.k if m is None else m
    killed = [model.index[idx] for idx in model.xi if idx.i + idx.j > m + 1]
    return [F.without(killed) for F in sr.initial]


# -- the top-block support --------------------------------------------------


def _antidiag_monomial_key(model: CentralizerModel, shifts: tuple[int, ...]) -> int:
    """Packed key of prod_i xi[m+1-i, i, d_i - s_i] for m = len(shifts).
    Each factor exists when s_i <= min(d_i, d_{m+1-i}), which holds for
    s_i <= d_m."""
    d = model.partition.d
    m = len(shifts)
    return sum(1 << (_WIDTH * model.index[XiIndex(m + 1 - i, i, d[i - 1] - s_i)])
               for i, s_i in enumerate(shifts, start=1))


def top_block_support_check(model: CentralizerModel, sr: SliceRestriction,
                            m: int | None = None) -> str:
    """Restrictions of the top d_m+1 initial terms of the first m blocks
    (default all k) live on level m exactly: "" when they do, else what
    differs.

    For 0 <= q <= d_m the restriction to levels 1..m of initial term
    n_m - q, n_m = p_1 + ... + p_m, must be a sum over all shift patterns
    of total q of the antidiagonal monomials (stored terms are nonzero).
    """
    p = model.partition
    m = p.k if m is None else m
    restricted = restrict_to_V(sr, model, m)
    n_m = sum(p.parts[:m])
    for q in range(p.d[m - 1] + 1):
        expected = {_antidiag_monomial_key(model, bars)
                    for bars in vectors_with_total([range(q + 1)] * m, q)}
        got = restricted[n_m - q - 1].terms.keys()
        if got != expected:
            return f"support mismatch at q={q}: {len(got)} monomials, expected {len(expected)}"
    return ""


# -- component decomposition -------------------------------------------------


def vanishing(p: Partition, shifts: tuple[int, ...]) -> list[XiIndex]:
    """The coordinates the component of the given shifts kills: the top
    s_i of block column i on the top antidiagonal."""
    d = p.d
    return [XiIndex(p.k + 1 - i, i, d[i - 1] - t)
            for i, s_i in enumerate(shifts, start=1) for t in range(s_i)]


def enumerate_components(p: Partition) -> list[tuple[int, ...]]:
    """Components of the restricted zero locus on the top antidiagonal, as
    their shift tuples.

    They are indexed by the shift patterns of total d_k + 1; a single
    block means the null-cone is just the origin and there are none.
    """
    if p.k < 2:
        return []
    dk = p.d[-1]
    comps = list(vectors_with_total([range(dk + 2)] * p.k, dk + 1))
    assert len(comps) == comb(dk + p.k, p.k - 1)
    return comps


def component_zero_locus_check(model: CentralizerModel, sr: SliceRestriction) -> bool:
    """Every component kills all of the restricted top initial terms: each
    of their terms touches a coordinate of the component's vanishing set."""
    p = model.partition
    if p.k < 2:
        return True
    restricted = restrict_to_V(sr, model)
    dk = p.d[-1]
    for shifts in enumerate_components(p):
        killed = [model.index[idx] for idx in vanishing(p, shifts)]
        for q in range(dk + 1):
            if not restricted[p.n - q - 1].without(killed).is_zero():
                return False
    return True


# -- transversal subspace ----------------------------------------------------


def transversality_certificate(model: CentralizerModel, sr: SliceRestriction,
                               seed: int, attempts: int = 100) -> tuple[list[dict], str]:
    """Find W = sum of W_m with W_m inside level m meeting no component:
    (stages, failure), the failure "" on a pass, where W has dimension
    sum (d_m + 1) = n.

    Peels the last block: at stage m a (d_m + 1)-dimensional subspace of
    level m must meet every component of the stage-m decomposition only
    at zero, an exact determinant test per component.  Random rational
    subspaces are tried first; the deterministic fallback takes rows of
    a Vandermonde matrix on distinct nodes, whose maximal minors are all
    nonzero.  Every stage m >= 2 also checks the top-block support of the
    prefix partition p_1, ..., p_m on the given slice, as
    ``top_block_support_check(model, sr, m)``.  The prefix's minor sums
    are the partition's own with every coordinate outside blocks 1..m set
    to zero.  On gl the trace dual of xi[i,j,s] is a multiple of the g_f
    element on the same two blocks, and that multiple depends only on
    d_i, d_j and s.  So on the first m blocks the slice matrix is
    block-diagonal: the prefix's slice matrix M_top, then the nilpotent
    Jordan blocks m+1..k, and e_l(M) = e_l(M_top).  Both initial terms
    have the degree min { s : l <= p_1 + ... + p_s } for l <= n_m, so the
    restricted initial terms are the prefix's, and levels 1..m only hold
    coordinates with i, j <= m.
    """
    p = model.partition
    rng = random.Random(seed)
    stages: list[dict] = []
    levels = antidiagonal_spaces(model)
    for m in range(p.k, 0, -1):
        sub = p.prefix(m)
        space = levels[m - 1]
        pos = {idx: t for t, idx in enumerate(space)}
        dm = p.d[m - 1]
        want = dm + 1
        comps = enumerate_components(sub)
        cols_per_comp = []
        for shifts in comps:
            cols = [pos[idx] for idx in vanishing(sub, shifts)]
            assert len(cols) == want
            cols_per_comp.append(cols)

        used_fallback = False
        tries = 0
        if comps:
            dets = None
            while dets is None and tries < attempts:
                tries += 1
                rows = [[rng.randint(-5, 5) for _ in space] for _ in range(want)]
                dets = _component_dets(rows, cols_per_comp)
            if dets is None:
                used_fallback = True
                rows = [[(c + 1) ** t for c in range(len(space))] for t in range(want)]
                dets = _component_dets(rows, cols_per_comp)
        else:
            # single block: the whole level is transversal
            rows = [[int(c == t) for c in range(len(space))] for t in range(want)]
            dets = []

        support_ok = None
        if m >= 2:
            support_ok = not top_block_support_check(model, sr, m)
            if not support_ok:
                return stages, f"support check failed at block {m}"

        stages.append({
            "block": m,
            "space_dim": len(space),
            "basis": [idx.label() for idx in space],
            "subspace_rows": [[str(x) for x in row] for row in rows],
            "component_dets": [[str(shifts), str(d)] for shifts, d in zip(comps, dets)],
            "attempts": tries,
            "used_fallback": used_fallback,
            "support_checked": support_ok,
        })
    return stages, ""


def _component_dets(rows: list[list[int]],
                    cols_per_comp: list[list[int]]) -> list | None:
    dets = []
    for cols in cols_per_comp:
        sub = RatMatrix([[row[c] for c in cols] for row in rows])
        d = sub.det()
        if not d:
            return None
        dets.append(d)
    return dets

