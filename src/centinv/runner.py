"""Command orchestration: one partition, many certificates.

``COMMANDS`` gives each command its check, its algebras and the budgets
it reads; dependencies (model, slice) are built lazily and shared, and
each point's ranks are computed once per partition.  Each
certificate is built as its report row, a JSON-ready dict with the
claim, an exact PASS/FAIL/ERROR status and the witnesses, so
``build_report`` reports the rows as they are.  Only here are budgets
applied: a command above a budget it reads yields a resource ERROR row
while the rest of the run continues.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple

from . import __version__
from .centralizer import build_gl_model, build_sp_model
from .invariants import (
    conjecture_explicit_check,
    initial_algebra_rank,
    jacobian_rows,
    kazhdan_homogeneous,
    monomial_support_check,
    principal_minor_sums,
    symplectic_minor_sums,
    top_coefficient_crosscheck,
    verify_centrality,
)
from .linalg import bareiss
from .nullcone import (
    component_zero_locus_check,
    enumerate_components,
    top_block_support_check,
    transversality_certificate,
)
from .partitions import (
    ClassicalType,
    Partition,
    check_valid_for,
    degrees_gl,
    degrees_sp,
    dim_centralizer_gl,
    dim_centralizer_so_sp,
    partitions_of,
    so_good_system_diagnostic,
)
from .regularity import (
    Functional,
    alpha_stabilizer_basis_check,
    build_alpha,
    build_beta,
    build_beta_prime_sum,
    choose_generators,
    default_alpha_coefficients,
    differential_criterion,
    index_report,
    plane_regularity_scan,
    random_functional,
    restrict_alpha_to_fixed,
    singular_locus_probe,
    stabilizer_dim,
    torus_eigenvector_check,
    vanishes_on_odd_part,
)

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class UsageError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """Symbolic stage refused: dimension above the configured budget."""

    def __init__(self, n: int, budget: int, what: str):
        super().__init__(f"{what} needs n={n} but the budget is {budget}")
        self.n = n
        self.budget = budget


@dataclass
class RunConfig:
    """Every option of a run with its default and, for a count, the
    ``least`` value that still gives evidence, something to sweep or a
    worker; a smaller value is a UsageError.  ``max_n`` may be None."""

    algebra: str = "gl"
    partitions: list[str] = field(default_factory=list)
    commands: list[str] = field(default_factory=list)
    all_commands: bool = False
    seed: int = 0
    budget_n: int = 8
    p0_budget: int = 4
    grid: int = field(default=7, metadata={"least": 2})
    lines: int = field(default=10, metadata={"least": 1})
    diffcrit_points: int = field(default=50, metadata={"least": 0})
    index_samples: int = field(default=10, metadata={"least": 1})
    max_n: int | None = field(default=None, metadata={"least": 1})
    jobs: int = field(default=1, metadata={"least": 1})

    def __post_init__(self):
        for f in fields(self):
            least, value = f.metadata.get("least"), getattr(self, f.name)
            if least is not None and value is not None and value < least:
                raise UsageError(f"{f.name} must be at least {least}")


class PartitionContext:
    """Lazily built shared state for one partition.

    The sampled commands read prefixes of one sample of functionals: index
    and diffcrit after alpha and beta or ZERO, the single-block plane 5
    points, the group probe 15 and the Jacobian rank 3.  The line probe and
    the null-cone search each start a fresh ``Random(cfg.seed)``, and the
    line probe draws its first line's two points as ``sample`` does, so
    line 1 of every ``lines`` certificate runs through ``sample(2)``
    (ROADMAP item 2 removes that draw).

    Each point is ranked once: ``stabilizer_dim`` and ``jacobian_rank``
    keep every value in a dict keyed by the point's integers ``nums``,
    made with the context and dropped with it, and every check that ranks
    a point reads them.  So alpha, beta, ZERO, the sample points that
    index, diffcrit, the single-block plane and centrality share, and the
    plane directions (1, 0) and (0, 1), which are alpha and beta, are each
    ranked once per partition, and a new context ranks again.  The model
    and the slice are fixed for the context's life, so a value never goes
    stale.
    """

    def __init__(self, p: Partition, cfg: RunConfig):
        self.partition = p
        self.cfg = cfg
        self._rng = random.Random(cfg.seed)
        self._sample: list[Functional] = []
        self.stabilizer_dims: dict[tuple[int, ...], int] = {}
        self.jacobian_ranks: dict[tuple[int, ...], int] = {}

    def sample(self, k: int) -> list[Functional]:
        """The first k functionals ``random_functional`` draws from
        ``Random(cfg.seed)``; only those no earlier request drew are drawn."""
        while len(self._sample) < k:
            self._sample.append(random_functional(self.model, self._rng))
        return self._sample[:k]

    def stabilizer_dim(self, gamma: Functional) -> int:
        """dim g_e - rank B(gamma), ranked at the first request for gamma.nums."""
        dim = self.stabilizer_dims.get(gamma.nums)
        if dim is None:
            dim = self.stabilizer_dims[gamma.nums] = stabilizer_dim(gamma, self.model)
        return dim

    def jacobian_rank(self, gamma: Functional) -> int:
        """Rank of the Jacobian of the initial terms at gamma, ranked at the
        first request for gamma.nums."""
        rank = self.jacobian_ranks.get(gamma.nums)
        if rank is None:
            rank = self.jacobian_ranks[gamma.nums] = bareiss(
                jacobian_rows(self.slice, gamma.nums))[0]
        return rank

    @property
    def algebra(self) -> str:
        return self.cfg.algebra

    @property
    def slice_within_budget(self) -> bool:
        """Whether ``budget_n`` covers n, so that the slice may be expanded."""
        return self.partition.n <= self.cfg.budget_n

    @cached_property
    def model(self):
        if self.cfg.algebra == "sp":
            return build_sp_model(self.partition)
        return build_gl_model(self.partition)

    @cached_property
    def slice(self):
        sp = self.cfg.algebra == "sp"
        if not self.slice_within_budget:
            raise BudgetExceededError(
                self.partition.n, self.cfg.budget_n,
                "symplectic slice expansion" if sp else "slice expansion")
        return symplectic_minor_sums(self.model) if sp else principal_minor_sums(self.model)

    @cached_property
    def alpha(self) -> Functional:
        if self.cfg.algebra == "sp":
            return restrict_alpha_to_fixed(self.model)
        return build_alpha(self.model, default_alpha_coefficients(self.model))

    @cached_property
    def beta_prime(self) -> tuple[Functional, list[dict], dict[str, bool]]:
        """The corrected subdiagonal functional of the sp model (k >= 2),
        its correction terms and its checks."""
        return build_beta_prime_sum(self.model)

    @cached_property
    def beta(self) -> Functional | None:
        if self.partition.k < 2:
            return None
        if self.cfg.algebra == "sp":
            return self.beta_prime[0]
        return build_beta(self.model)


def jsonable(value):
    """Recursively convert witnesses to JSON-safe values; rationals to 'p/q'."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _cert(ctx: PartitionContext, claim: str, ok: bool, witnesses: dict) -> dict:
    """The certificate as its report row; tolerance is always exact."""
    return {
        "claim": claim,
        "status": PASS if ok else FAIL,
        "partition": str(ctx.partition),
        "algebra": ctx.algebra,
        "tolerance": "exact",
        "witnesses": jsonable(witnesses),
    }


def _error(ctx: PartitionContext, claim: str, exc: Exception) -> dict:
    """ERROR certificate: a budget refusal is a resource error, any other
    exception an internal one."""
    if isinstance(exc, BudgetExceededError):
        kind, witnesses = "resource", {"reason": str(exc), "n": exc.n, "budget": exc.budget}
    else:
        kind, witnesses = "internal", {"reason": f"{type(exc).__name__}: {exc}"}
    return {**_cert(ctx, claim, False, witnesses), "status": ERROR, "error_kind": kind}


# -- individual commands -----------------------------------------------------


def cmd_degrees(ctx: PartitionContext) -> dict:
    p = ctx.partition
    if ctx.algebra == "sp":
        degrees = degrees_sp(p)
        dim = dim_centralizer_so_sp(p, ClassicalType.SP)
        rank = p.n // 2
    else:
        degrees = degrees_gl(p)
        dim = dim_centralizer_gl(p)
        rank = p.n
    witnesses = {
        "degrees": degrees,
        "degree_sum": sum(degrees),
        "dim_centralizer": dim,
        "rank": rank,
        "sum_identity": 2 * sum(degrees) == dim + rank,
    }
    ok = witnesses["sum_identity"]
    if ctx.slice_within_budget:
        symbolic = list(ctx.slice.degrees)
        witnesses["symbolic_degrees"] = symbolic
        witnesses["symbolic_checked"] = True
        witnesses["kazhdan_homogeneous"] = all(kazhdan_homogeneous(ctx.slice, ctx.model))
        ok = ok and tuple(symbolic) == degrees and witnesses["kazhdan_homogeneous"]
    else:
        witnesses["symbolic_checked"] = False
    return _cert(ctx, "degree-table", ok, witnesses)


def cmd_centrality(ctx: PartitionContext) -> dict:
    failing, checked, group_failures = verify_centrality(ctx.slice, ctx.model, ctx.sample(15))
    witnesses = {
        "group_points_checked": checked,
        "jacobian_generic_rank": initial_algebra_rank(ctx.jacobian_rank, ctx.sample(3)),
        "expected_rank": ctx.model.rank,
    }
    ok = (not failing and not group_failures
          and witnesses["jacobian_generic_rank"] == ctx.model.rank)
    if failing:
        witnesses["failure"] = dict(zip(("coordinate", "invariant", "bracket"), failing))
    if group_failures:
        witnesses["group_failures"] = group_failures
    return _cert(ctx, "poisson-centrality", ok, witnesses)


def cmd_support(ctx: PartitionContext) -> dict:
    violations = monomial_support_check(ctx.slice, ctx.model)
    witnesses = {"violations": violations,
                 "monomials_per_invariant": [len(F.terms) for F in ctx.slice.initial]}
    return _cert(ctx, "monomial-support", not violations, witnesses)


def cmd_conjecture(ctx: PartitionContext) -> dict:
    ratios = conjecture_explicit_check(ctx.slice, ctx.model)
    witnesses = {"ratios": ratios}
    failed = ratios[-1] is None
    if failed:
        witnesses["first_failure"] = len(ratios)
    return _cert(ctx, "signed-sum-proportionality", not failed, witnesses)


def cmd_p0(ctx: PartitionContext) -> dict:
    sr = ctx.slice  # the slice refusal comes first
    n, budget = ctx.partition.n, ctx.cfg.p0_budget
    if n > budget:
        raise BudgetExceededError(n, budget, "full adjoint expansion")
    passed, scalars, detail = top_coefficient_crosscheck(ctx.model, sr)
    witnesses = {"scalars": scalars}
    if detail:
        witnesses["detail"] = detail
    return _cert(ctx, "top-coefficient-crosscheck", passed, witnesses)


def cmd_stabilizers(ctx: PartitionContext) -> dict:
    model, rank = ctx.model, ctx.model.rank
    stab_alpha = ctx.stabilizer_dim(ctx.alpha)
    witnesses: dict = {"alpha_stabilizer_dim": stab_alpha, "expected": rank}
    if ctx.algebra == "gl":
        key = "alpha_stabilizer_is_diagonal_span"
        alpha_ok = alpha_stabilizer_basis_check(model, ctx.alpha, ctx.stabilizer_dim)[1]
    else:
        key = "alpha_vanishes_on_odd_part"
        ambient = build_alpha(model.gl, default_alpha_coefficients(model))  # alpha unrestricted
        alpha_ok = vanishes_on_odd_part(model, ambient)
    witnesses[key] = alpha_ok
    checks: dict[str, bool] = {}
    if ctx.beta is not None:
        if ctx.algebra == "sp":
            _, terms, checks = ctx.beta_prime
            witnesses.update(beta_prime_terms=terms, **checks)
        witnesses["beta_stabilizer_dim"] = ctx.stabilizer_dim(ctx.beta)
    elif ctx.algebra == "gl":
        witnesses["beta_stabilizer_dim"] = None
    # one block has no beta, and then nothing to check of it
    ok = (stab_alpha == rank and alpha_ok and all(checks.values())
          and witnesses.get("beta_stabilizer_dim") in (None, rank))
    return _cert(ctx, "regular-functionals", ok, witnesses)


def cmd_index(ctx: PartitionContext) -> dict:
    special = [ctx.alpha] + ([ctx.beta] if ctx.beta is not None else [])
    dims = index_report(ctx.stabilizer_dim, special + ctx.sample(ctx.cfg.index_samples))
    rank = ctx.model.rank
    index = min(dim for _, dim in dims)
    # the first point of minimal stabiliser certifies the index
    point = next((gamma for gamma, dim in dims if dim == rank), None)
    ok = index == rank and point is ctx.alpha
    witnesses = {
        "index_estimate": index,
        "expected": rank,
        "sampled_max_rank": ctx.model.dim - index,
        "vinberg_bound": rank,
        "certificate_point": point.provenance if point else None,
        "certificate_coords": [str(c) for c in point.nums] if point else None,
        "stabilizer_dims": [[gamma.provenance, dim] for gamma, dim in dims],
    }
    return _cert(ctx, "index-equals-rank", ok, witnesses)


def cmd_diffcrit(ctx: PartitionContext) -> dict:
    model = ctx.model
    gens = choose_generators(ctx.slice, model)
    zero = Functional((0,) * model.dim, "ZERO")
    points = [ctx.alpha, zero] + ctx.sample(ctx.cfg.diffcrit_points)
    failures = []
    for gamma in points:
        jacobian_rank, stab = differential_criterion(
            ctx.slice, model, gamma, ctx.jacobian_rank, ctx.stabilizer_dim)
        rank_full, stabilizer_minimal = jacobian_rank == model.rank, stab == model.rank
        if rank_full != stabilizer_minimal:
            failures.append({
                "point": gamma.provenance,
                "jacobian_rank": jacobian_rank,
                "stabilizer_dim": stab,
            })
        if gamma is ctx.alpha and not (rank_full and stabilizer_minimal):
            failures.append({"point": "ALPHA", "expected": "both sides true"})
        if gamma is zero and ctx.partition.k >= 2:
            if rank_full or stabilizer_minimal:
                failures.append({"point": "ZERO", "expected": "both sides false"})
    witnesses = {"points_checked": len(points), "generators": gens,
                 "failures": failures}
    return _cert(ctx, "differential-criterion", not failures, witnesses)


def cmd_plane(ctx: PartitionContext) -> dict:
    model = ctx.model
    if ctx.partition.k < 2:
        points = ctx.sample(5) + [Functional((0,) * model.dim, "ZERO")]
        dims = [ctx.stabilizer_dim(gamma) for gamma in points]
        ok = all(d == model.rank for d in dims)
        return _cert(ctx, "plane-regularity", ok,
                     {"single_block": True, "stabilizer_dims": dims})
    failures = plane_regularity_scan(model, ctx.alpha, ctx.beta, ctx.cfg.grid,
                                     ctx.stabilizer_dim)
    rho_ok = torus_eigenvector_check(model, ctx.alpha, ctx.beta)
    witnesses = {
        "grid": ctx.cfg.grid,
        "failures": failures,
        "torus_eigenvector_check": rho_ok,
    }
    ok = not failures and rho_ok is not False
    return _cert(ctx, "plane-regularity", ok, witnesses)


def cmd_lines(ctx: PartitionContext) -> dict:
    certified, hits, _, details = zip(
        *singular_locus_probe(ctx.model, lines=ctx.cfg.lines, seed=ctx.cfg.seed))
    witnesses = {
        "lines": ctx.cfg.lines,
        "singular_hits_per_line": hits,
        "certified": certified,
        "details": [detail for detail in details if detail],
    }
    # a certified line has an integer count
    clean = all(certified) and not any(hits)
    return _cert(ctx, "singular-lines-clean", clean, witnesses)


def cmd_nullcone(ctx: PartitionContext) -> dict:
    model = ctx.model
    support_detail = top_block_support_check(model, ctx.slice)
    comps = enumerate_components(ctx.partition)
    zero_ok = component_zero_locus_check(model, ctx.slice)
    stages, failure = transversality_certificate(model, ctx.slice, seed=ctx.cfg.seed)
    # a pass gives the null-cone codimension n, the number of initial terms,
    # so they form a regular sequence, and the tangent cone at the nilpotent
    # inside the full nilpotent variety has dimension
    # (n^2 - r) + (r - n) = n^2 - n, r = sum_i (2i - 1) p_i; a failure
    # reports both as 0
    n = 0 if failure else ctx.partition.n
    witnesses = {
        "support_check": not support_detail,
        "support_detail": support_detail,
        "component_count": len(comps),
        "components": comps,
        "components_kill_restrictions": zero_ok,
        "transversal_dim": n,
        "stages": stages,
        "conclusion": failure or (
            f"an {n}-dimensional subspace meets the null-cone only at 0, so the "
            f"null-cone has codimension {n} and the {n} initial terms form a "
            "regular sequence"),
        "codimension": n,
        "tangent_cone_dim": n * n - n,
    }
    return _cert(ctx, "nullcone-regular-sequence",
                 not support_detail and zero_ok and not failure, witnesses)


def cmd_so_diagnostic(ctx: PartitionContext) -> dict:
    diag = so_good_system_diagnostic(ctx.partition)
    return _cert(ctx, "so-minor-degree-diagnostic",
                 diag["verdict"] != "INCONSISTENT", diag)


class Command(NamedTuple):
    check: Callable[[PartitionContext], dict]
    algebras: tuple[str, ...]
    budgets: tuple[str, ...] = ()  # the RunConfig budgets it reads


# every command in the order it runs; budget_n bounds the slice expansion
# and p0_budget the full adjoint expansion
COMMANDS = {
    "degrees": Command(cmd_degrees, ("gl", "sp")),
    "centrality": Command(cmd_centrality, ("gl", "sp"), ("budget_n",)),
    "support": Command(cmd_support, ("gl",), ("budget_n",)),
    "conjecture": Command(cmd_conjecture, ("gl",), ("budget_n",)),
    "p0": Command(cmd_p0, ("gl",), ("budget_n", "p0_budget")),
    "stabilizers": Command(cmd_stabilizers, ("gl", "sp")),
    "index": Command(cmd_index, ("gl", "sp")),
    "diffcrit": Command(cmd_diffcrit, ("gl", "sp"), ("budget_n",)),
    "plane": Command(cmd_plane, ("gl", "sp")),
    "lines": Command(cmd_lines, ("gl", "sp")),
    "nullcone": Command(cmd_nullcone, ("gl",), ("budget_n",)),
    "so-diagnostic": Command(cmd_so_diagnostic, ("so",)),
}


def commands_for(cfg: RunConfig, p: Partition) -> list[str]:
    """Commands to run on p in table order; refuses p if invalid for the type."""
    check_valid_for(p, ClassicalType(cfg.algebra))
    base = [name for name, c in COMMANDS.items() if cfg.algebra in c.algebras]
    if cfg.all_commands:
        # a command runs only when every budget it reads covers n
        return [name for name in base
                if all(p.n <= getattr(cfg, b) for b in COMMANDS[name].budgets)]
    unknown = [c for c in cfg.commands if c not in base]
    if unknown:
        raise UsageError(f"command(s) {unknown} not available for type "
                         f"{cfg.algebra}; choose from {base}")
    return [c for c in base if c in cfg.commands]


def run_partition(p: Partition, cfg: RunConfig) -> tuple[list[dict], dict]:
    """The report rows of all requested certificates for one partition,
    plus timings."""
    ctx = PartitionContext(p, cfg)
    certs: list[dict] = []
    timings: dict[str, float] = {}
    for name in commands_for(cfg, p):
        start = time.perf_counter()
        try:
            certs.append(COMMANDS[name].check(ctx))
        except (BudgetExceededError, ArithmeticError, ValueError) as exc:
            # a budget refusal or a violated construction invariant is itself
            # a reportable outcome
            certs.append(_error(ctx, name, exc))
        timings[name] = time.perf_counter() - start
    return certs, timings


def build_report(cfg: RunConfig, partitions: list[Partition]) -> dict:
    """Run every partition and assemble the deterministic report."""
    if cfg.jobs > 1 and len(partitions) > 1:
        # spawn: forking a process that may already run threads is unsafe
        with ProcessPoolExecutor(max_workers=cfg.jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(run_partition, partitions, repeat(cfg)))
    else:
        results = [run_partition(p, cfg) for p in partitions]
    cert_rows = [c for certs, _ in results for c in certs]
    timing_rows = {str(p): timings for p, (_, timings) in zip(partitions, results)}
    statuses = [c["status"] for c in cert_rows]
    report = {
        "schema_version": 1,
        "tool": {"name": "centinv", "version": __version__},
        "config": asdict(cfg),
        "certificates": cert_rows,
        "summary": {
            "pass": statuses.count(PASS),
            "fail": statuses.count(FAIL),
            "error": statuses.count(ERROR),
        },
        "timings": timing_rows,
    }
    return report


def exit_code(report: dict) -> int:
    """4 on an internal ERROR, else 3 on a resource ERROR, else 1 on a
    FAIL, else 0."""
    if any(c.get("error_kind") == "internal" for c in report["certificates"]):
        return 4
    if report["summary"]["error"]:
        return 3
    if report["summary"]["fail"]:
        return 1
    return 0


def sweep_partitions(cfg: RunConfig) -> list[Partition]:
    if cfg.max_n is None:
        raise UsageError("sweep needs --max-n")
    sp = cfg.algebra == "sp"
    return [p for n in range(1, cfg.max_n + 1)
            for p in partitions_of(2 * n if sp else n, ClassicalType(cfg.algebra))]
