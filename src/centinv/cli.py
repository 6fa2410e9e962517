"""Command-line entry point.

Subcommands: verify (one partition, chosen checks), degrees (just the
degree table), so-diagnostic (orthogonal minor-degree diagnostic) and
sweep (all partitions up to a bound).  Exit codes: 0 all certificates
pass, 1 some check failed, 2 usage error or an --out path that cannot
be opened for writing (refused before the run), 3 some certificate is a
resource ERROR (a symbolic budget refused a requested command) and none
is an internal one, 4 some certificate is an internal ERROR (a command
raised an ArithmeticError or ValueError).

The parser passes on only the options given, so ``RunConfig`` states
every default and least value; a value below it, or an empty command
name in --commands ("" or "index,"), is a usage error.  The error names
a value below its least by the flag that set it, where ``RunConfig``
names the field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields

from .partitions import InvalidPartitionError, Partition
from .runner import (
    RunConfig,
    UsageError,
    build_report,
    commands_for,
    exit_code,
    sweep_partitions,
)

# the options a RunConfig takes straight from the parsed arguments
_FIELDS = {f.name for f in fields(RunConfig)}
# the flag that sets each RunConfig field with a least value
_FLAGS = {"grid": "--grid", "lines": "--lines", "diffcrit_points": "--points",
          "index_samples": "--samples", "max_n": "--max-n", "jobs": "--jobs"}


def _add_common(sub: argparse.ArgumentParser, with_commands: bool = True) -> None:
    sub.add_argument("--seed", type=int, help="seed for all sampling")
    sub.add_argument("--budget-n", type=int, dest="budget_n",
                     help=f"largest n expanded symbolically (default {RunConfig.budget_n})")
    sub.add_argument("--p0-budget", type=int, dest="p0_budget",
                     help="largest n for the full adjoint expansion "
                          f"(default {RunConfig.p0_budget})")
    sub.add_argument("--grid", type=int, help="plane scan grid size")
    sub.add_argument("--lines", type=int, help="random lines per probe")
    sub.add_argument("--points", type=int, dest="diffcrit_points",
                     help="random points for the differential criterion")
    sub.add_argument("--samples", type=int, dest="index_samples",
                     help="random functionals for the index report")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", default=None, help="write the report to this path")
    if with_commands:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--all", action="store_true", dest="all_commands",
                           help="run every command applicable within the budgets")
        # "" and "index," name an empty command, which commands_for refuses
        group.add_argument("--commands", type=lambda text: text.split(","),
                           help="comma-separated command list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centinv",
        description="exact verification toolkit for centraliser invariants",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # an option the user leaves out is not set, so RunConfig gives its default
    given = argparse.SUPPRESS

    verify = subs.add_parser("verify", help="run checks for one partition",
                             argument_default=given)
    verify.add_argument("--type", choices=("gl", "sp"), dest="algebra")
    verify.add_argument("--partition", required=True)
    _add_common(verify)

    degrees = subs.add_parser("degrees", help="degree table of the initial components",
                              argument_default=given)
    degrees.add_argument("--type", choices=("gl", "sp"), dest="algebra")
    degrees.add_argument("--partition", required=True)
    degrees.set_defaults(commands=["degrees"])
    _add_common(degrees, with_commands=False)

    so = subs.add_parser("so-diagnostic", help="orthogonal minor-degree diagnostic",
                         argument_default=given)
    so.add_argument("--partition", required=True)
    so.set_defaults(algebra="so", commands=["so-diagnostic"])
    _add_common(so, with_commands=False)

    sweep = subs.add_parser("sweep", help="run checks over all partitions up to a bound",
                            argument_default=given)
    sweep.add_argument("--type", choices=("gl", "sp", "so"), dest="algebra")
    sweep.add_argument("--max-n", type=int, required=True, dest="max_n")
    sweep.add_argument("--jobs", type=int, help="parallel workers across partitions")
    _add_common(sweep)

    return parser


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
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in _FIELDS})
        if args.subcommand == "sweep":
            partitions = sweep_partitions(cfg)
        else:
            partitions = [Partition.parse(args.partition)]
        cfg.partitions = [str(p) for p in partitions]
        for p in partitions:
            commands_for(cfg, p)  # validate the partition and commands up front
        # an unwritable --out is refused before the run; opening it to append
        # keeps an earlier report intact until this one is complete
        out = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout)
    except (InvalidPartitionError, UsageError, OSError) as exc:
        name, bound, least = str(exc).partition(" must be at least ")
        print(f"error: {_FLAGS.get(name, name)}{bound}{least}", file=sys.stderr)
        return 2

    with out as fh:
        report = build_report(cfg, partitions)
        if args.out:
            fh.truncate(0)
        fh.write(render(report, args.format))
    return exit_code(report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
