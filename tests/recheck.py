"""The verdict of a report row, derived again from its witnesses.

One function per claim maps a row's witness dict, with the rank ell of
the row's algebra, to the status the claim's rule gives.  Each rule is
written from the claim as the README states it and from the witness keys
a report holds, not from ``runner``, so a test that requires
``recheck(row) == row["status"]`` on every row catches a verdict that its
own witnesses do not justify.  An ERROR row is one with an
``error_kind``; its witnesses are the refusal or the exception.
"""

from __future__ import annotations

PASS, FAIL, ERROR = "PASS", "FAIL", "ERROR"


def rank_of(algebra: str, partition: str) -> int:
    """ell: n on gl_n, and half the size on sp_2n and so."""
    size = sum(int(part) for part in partition.split(","))
    return size if algebra == "gl" else size // 2


def degree_table(w: dict, rank: int) -> bool:
    """ell degrees with 2 * (their sum) = dim g_e + ell, which the slice's
    initial terms have too, Kazhdan-homogeneous, whenever it was read."""
    degrees = w["degrees"]
    ok = (len(degrees) == w["rank"] == rank and w["degree_sum"] == sum(degrees)
          and 2 * sum(degrees) == w["dim_centralizer"] + rank)
    if w["symbolic_checked"]:
        ok = ok and w["symbolic_degrees"] == degrees and w["kazhdan_homogeneous"] is True
    return ok


def poisson_centrality(w: dict, rank: int) -> bool:
    """No nonzero bracket, no moved value, and a Jacobian rank of ell."""
    return ("failure" not in w and not w.get("group_failures")
            and w["jacobian_generic_rank"] == w["expected_rank"] == rank)


def monomial_support(w: dict, rank: int) -> bool:
    """Every monomial of each of the ell initial terms is a permutation monomial."""
    return w["violations"] == [] and len(w["monomials_per_invariant"]) == rank


def signed_sum_proportionality(w: dict, rank: int) -> bool:
    """A ratio for each of the ell initial terms; a failure ends the list in None."""
    ratios = w["ratios"]
    return None not in ratios and len(ratios) == rank and "first_failure" not in w


def top_coefficient_crosscheck(w: dict, rank: int) -> bool:
    """A nonzero scalar for each of the ell minor sums; a mismatch stops
    the list at the terms matched before it."""
    scalars = w["scalars"]
    return (sorted(map(int, scalars)) == list(range(1, rank + 1))
            and all(s != "0" for s in scalars.values()))


def regular_functionals(w: dict, rank: int) -> bool:
    """alpha and, with two blocks or more, beta (beta' on sp) have stabiliser
    dimension ell, and every check of them (diagonal span, vanishing on the
    sigma-odd part, torus exponents) holds."""
    checks = [v for v in w.values() if isinstance(v, bool)]
    return (w["alpha_stabilizer_dim"] == w["expected"] == rank and all(checks)
            and w.get("beta_stabilizer_dim") in (None, rank))


def index_equals_rank(w: dict, rank: int) -> bool:
    """The least stabiliser dimension is ell, and the first point that
    reaches it is alpha, the first point read."""
    dims = w["stabilizer_dims"]
    least = min(dim for _, dim in dims)
    first = next(point for point, dim in dims if dim == least)
    return (least == w["index_estimate"] == w["expected"] == rank
            and first == dims[0][0] == w["certificate_point"]
            and first.startswith("ALPHA"))


def differential_criterion(w: dict, rank: int) -> bool:
    """At every point read, full Jacobian rank holds exactly where the
    stabiliser is minimal; at alpha both hold, at 0 neither (two blocks)."""
    return w["failures"] == [] and w["points_checked"] >= 2


def plane_regularity(w: dict, rank: int) -> bool:
    """One block: every point read has stabiliser dimension ell.  More:
    no grid point of span(alpha, beta) off 0 is singular, and the torus
    check, where it applies, holds."""
    if w.get("single_block"):
        return all(dim == rank for dim in w["stabilizer_dims"])
    return w["failures"] == [] and w["torus_eigenvector_check"] is not False


def singular_lines_clean(w: dict, rank: int) -> bool:
    """Every line certified, and none meets the singular locus."""
    return (len(w["certified"]) == len(w["singular_hits_per_line"]) == w["lines"]
            and all(w["certified"]) and not any(w["singular_hits_per_line"]))


def nullcone_regular_sequence(w: dict, rank: int) -> bool:
    """The top blocks' support and zero loci check, and an ell-dimensional
    subspace meets the null-cone only at 0: codimension ell, tangent cone
    of dimension ell^2 - ell."""
    return (w["support_check"] is True and w["support_detail"] == ""
            and w["components_kill_restrictions"] is True
            and w["transversal_dim"] == w["codimension"] == rank
            and w["tangent_cone_dim"] == rank * rank - rank)


def so_minor_degree_diagnostic(w: dict, rank: int) -> bool:
    """The minor degrees, the Pfaffian in place of the top minor when n is
    even, sum to at most the bound (dim g_e + ell) / 2."""
    return (w["rank"] == rank and 2 * w["bound"] == w["dim_centralizer"] + rank
            and w["pfaffian_adjusted_sum"] <= w["bound"])


CLAIMS = {
    "degree-table": degree_table,
    "poisson-centrality": poisson_centrality,
    "monomial-support": monomial_support,
    "signed-sum-proportionality": signed_sum_proportionality,
    "top-coefficient-crosscheck": top_coefficient_crosscheck,
    "regular-functionals": regular_functionals,
    "index-equals-rank": index_equals_rank,
    "differential-criterion": differential_criterion,
    "plane-regularity": plane_regularity,
    "singular-lines-clean": singular_lines_clean,
    "nullcone-regular-sequence": nullcone_regular_sequence,
    "so-minor-degree-diagnostic": so_minor_degree_diagnostic,
}


def recheck(row: dict) -> str:
    """The status a report row's own witnesses give."""
    if "error_kind" in row:
        return ERROR
    rule = CLAIMS[row["claim"]]
    ok = rule(row["witnesses"], rank_of(row["algebra"], row["partition"]))
    return PASS if ok else FAIL
