"""Command-line entry point.

Subcommands: verify (one partition, chosen checks), degrees (just the
degree table), so-diagnostic (orthogonal minor-degree diagnostic) and
sweep (all partitions up to a bound).  Exit codes: 0 all certificates
pass, 1 some check failed, 2 usage error or an --out path that cannot
be opened for writing (refused before the run), 3 some certificate is a
resource ERROR (a symbolic budget refused a requested command) and none
is an internal one, 4 some certificate is an internal ERROR (a command
raised an ArithmeticError or ValueError).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .partitions import InvalidPartitionError, Partition
from .runner import (
    RunConfig,
    UsageError,
    build_report,
    commands_for,
    exit_code,
    sweep_partitions,
)


def _add_common(sub: argparse.ArgumentParser, with_commands: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub.add_argument("--budget-n", type=int, default=8, dest="budget_n",
                     help="largest n expanded symbolically (default 8)")
    sub.add_argument("--p0-budget", type=int, default=4, dest="p0_budget",
                     help="largest n for the full adjoint expansion (default 4)")
    sub.add_argument("--grid", type=int, default=7, help="plane scan grid size")
    sub.add_argument("--lines", type=int, default=10, help="random lines per probe")
    sub.add_argument("--points", type=int, default=50, dest="diffcrit_points",
                     help="random points for the differential criterion")
    sub.add_argument("--samples", type=int, default=10, dest="index_samples",
                     help="random functionals for the index report")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", default=None, help="write the report to this path")
    if with_commands:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--all", action="store_true", dest="all_commands",
                           help="run every command applicable within the budgets")
        group.add_argument("--commands", default=None,
                           help="comma-separated command list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centinv",
        description="exact verification toolkit for centraliser invariants",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    verify = subs.add_parser("verify", help="run checks for one partition")
    verify.add_argument("--type", choices=("gl", "sp"), default="gl")
    verify.add_argument("--partition", required=True)
    _add_common(verify)

    degrees = subs.add_parser("degrees", help="degree table of the initial components")
    degrees.add_argument("--type", choices=("gl", "sp"), default="gl")
    degrees.add_argument("--partition", required=True)
    _add_common(degrees, with_commands=False)

    so = subs.add_parser("so-diagnostic",
                         help="orthogonal minor-degree diagnostic")
    so.add_argument("--partition", required=True)
    _add_common(so, with_commands=False)

    sweep = subs.add_parser("sweep", help="run checks over all partitions up to a bound")
    sweep.add_argument("--type", choices=("gl", "sp", "so"), default="gl")
    sweep.add_argument("--max-n", type=int, required=True, dest="max_n")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel workers across partitions")
    _add_common(sweep)

    return parser


# the least value of each count option: below it the sampling options give
# certificates no evidence, --max-n leaves nothing to sweep and --jobs no worker
_MINIMA = (("--grid", "grid", 2), ("--lines", "lines", 1), ("--points", "diffcrit_points", 0),
          ("--samples", "index_samples", 1), ("--max-n", "max_n", 1), ("--jobs", "jobs", 1))


def _config_from(args: argparse.Namespace, algebra: str, commands: list[str],
                 all_commands: bool, partitions: list[str],
                 max_n: int | None = None, jobs: int = 1) -> RunConfig:
    return RunConfig(
        algebra=algebra,
        partitions=partitions,
        commands=commands,
        all_commands=all_commands,
        seed=args.seed,
        budget_n=args.budget_n,
        p0_budget=args.p0_budget,
        grid=args.grid,
        lines=args.lines,
        diffcrit_points=args.diffcrit_points,
        index_samples=args.index_samples,
        max_n=max_n,
        jobs=jobs,
    )


def _render_text(report: dict) -> str:
    lines = [f"centinv {report['tool']['version']}  seed={report['config']['seed']}"]
    for cert in report["certificates"]:
        head = f"[{cert['status']}] {cert['claim']}  {cert['algebra']} {cert['partition']}"
        lines.append(head)
        w = cert["witnesses"]
        if cert["claim"] == "degree-table":
            lines.append(f"    degrees: ({', '.join(str(d) for d in w['degrees'])})"
                         f"  sum={w['degree_sum']}  dim={w['dim_centralizer']}")
        elif cert["claim"] == "so-minor-degree-diagnostic":
            lines.append(f"    dim={w['dim_centralizer']}  even-degree sum={w['even_degree_sum']}"
                         f"  adjusted={w['pfaffian_adjusted_sum']}  bound={w['bound']}")
            lines.append(f"    verdict: {w['verdict']}  lemma flags: {w['lemma_flags']}")
        elif cert["status"] != "PASS":
            lines.append(f"    witnesses: {json.dumps(w, sort_keys=True)}")
    s = report["summary"]
    lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, {s['error']} error")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _render_text(report)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, dest, least in _MINIMA:
            if getattr(args, dest, least) < least:
                raise UsageError(f"{flag} must be at least {least}")
        if args.subcommand == "verify":
            partitions = [Partition.parse(args.partition)]
            commands = args.commands.split(",") if args.commands else []
            cfg = _config_from(args, args.type, commands, args.all_commands,
                               [str(p) for p in partitions])
        elif args.subcommand == "degrees":
            partitions = [Partition.parse(args.partition)]
            cfg = _config_from(args, args.type, ["degrees"], False,
                               [str(p) for p in partitions])
        elif args.subcommand == "so-diagnostic":
            partitions = [Partition.parse(args.partition)]
            cfg = _config_from(args, "so", ["so-diagnostic"], False,
                               [str(p) for p in partitions])
        else:
            commands = args.commands.split(",") if args.commands else []
            cfg = _config_from(args, args.type, commands, args.all_commands,
                               [], max_n=args.max_n, jobs=args.jobs)
            partitions = sweep_partitions(cfg)
            cfg.partitions = [str(p) for p in partitions]
        for p in partitions:
            commands_for(cfg, p)  # validate the partition and commands up front
        # an unwritable --out is refused before the run; opening it to append
        # keeps an earlier report intact until this one is complete
        out = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout)
    except (InvalidPartitionError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with out as fh:
        report = build_report(cfg, partitions)
        if args.out:
            fh.truncate(0)
        fh.write(render(report, args.format))
    return exit_code(report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
