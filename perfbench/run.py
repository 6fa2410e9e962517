"""Benchmark for centinv: time to a full set of verdicts, end to end and per layer.

Run from the repository root; no installation is needed, ``src`` is put on
the import path the way the test suite does it::

    python3 perfbench/run.py --workload gl-sweep --seed 1 --seconds 25 --trace 0

Every workload is a sweep driven in this process through ``centinv.runner``
(``sweep_partitions``, ``build_report``, ``run_partition``) with ``jobs=1``.
The certificates are always computed with the certificate seed 7, the seed of
the golden reports and of acceptance criterion 11, because the reference
verdicts in ``perfbench/reference`` belong to it.  ``--seed`` chooses the
order in which the partitions are run; the report is put back into sweep
order before it is hashed, so every seed must reproduce the reference digest.

With ``--trace 0`` the run starts whole sweeps until ``--seconds`` have
passed (at least one; the last ends past it) and reports the end-to-end
metrics.  A shared host changes speed under other tenants' load, so while
set-ups and sweeps are timed the host-speed probe of
``perfbench/hostspeed.py`` samples a fixed kernel every 20 ms, and every
time reported is the measured time (less the probe's own) scaled to the
nominal probe time by the probe mean during it: each set-up and each
``run_partition`` call on its own, a sweep as the sum of its partitions plus
the rest scaled by the sweep's mean.  The measured sweep times are printed
beside the scaled ones.  partition_p50_s and partition_max_s are the median
and the maximum over partitions of each partition's median over the sweeps.
With ``--trace 1`` it runs the same untraced sweeps, then one more sweep
with every layer of ``perfbench/spans.py`` wrapped, the probe still
sampling; span times are measured and leave out the probe's time.  It prints
the per-layer table and the tracing overhead (traced minus untraced wall_s,
both scaled) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: ``attempted`` counts
the certificates of every sweep, ``failed`` those that are ERROR or differ
from the reference.  Their ratio is printed as ``failed_share`` next
to whether every report digest matched.

``--write-reference`` regenerates the reference verdicts and digest of a
workload from the current code; do that only when a verdict change is meant.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_PROBE_S, HostProbe, Window, scaled
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

CERT_SEED = 7
SETUP_REPEATS = 25


@dataclass(frozen=True)
class Workload:
    """A sweep over all partitions up to max_n with the given commands, or
    with every applicable command when none are given."""

    name: str
    algebra: str
    max_n: int
    commands: tuple[str, ...] = ()


# Why these three: gl-sweep is the tier-1 criterion-11 sweep and is dominated
# by the per-point kernels, with partition 1^6 as its tail; slice-expand runs
# only the symbolic slice expansion (principal_minor_sums, build_gl_model) up
# to 1^8, so a kernel change should leave it unchanged while slice caching or
# memory changes show there; sp-sweep runs the per-point kernels on the
# symplectic fixed-part model, so a gl-only change that slows the sp path
# shows there.
WORKLOADS = {
    w.name: w for w in (
        Workload("gl-sweep", "gl", 6),
        Workload("slice-expand", "gl", 8, ("degrees",)),
        Workload("sp-sweep", "sp", 3),
    )
}


# -- set-up ------------------------------------------------------------------


def _forget_centinv() -> None:
    for name in [m for m in sys.modules if m == "centinv" or m.startswith("centinv.")]:
        del sys.modules[name]


def setup(workload: Workload):
    """Import centinv afresh, build the config and enumerate the partitions.

    Returns ``(runner module, config, partitions)``.
    """
    _forget_centinv()
    runner = importlib.import_module("centinv.runner")
    cfg = runner.RunConfig(
        algebra=workload.algebra, commands=list(workload.commands),
        all_commands=not workload.commands, seed=CERT_SEED,
        max_n=workload.max_n, jobs=1)
    parts = runner.sweep_partitions(cfg)
    cfg.partitions = [str(p) for p in parts]
    return runner, cfg, parts


# -- correctness -------------------------------------------------------------


def canonical_digest(report: dict, sweep_order: list[str]) -> str:
    """SHA-256 of the report without timings, certificates in sweep order."""
    rank = {p: i for i, p in enumerate(sweep_order)}
    body = {k: v for k, v in report.items() if k != "timings"}
    body["certificates"] = sorted(report["certificates"], key=lambda c: rank[c["partition"]])
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def verdicts(report: dict) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for c in report["certificates"]:
        out.setdefault(c["partition"], {})[c["claim"]] = c["status"]
    return out


def check(report: dict, sweep_order: list[str], reference: dict) -> tuple[int, int, bool]:
    """``(attempted, failed, digest matches)`` of one report.

    A certificate fails when it is ERROR, when its status differs from the
    reference, or when it is missing from the report or the reference.
    """
    got, want = verdicts(report), reference["verdicts"]
    attempted = failed = 0
    for part in set(got) | set(want):
        g, w = got.get(part, {}), want.get(part, {})
        for claim in set(g) | set(w):
            attempted += 1
            status = g.get(claim)
            failed += status is None or status == "ERROR" or status != w.get(claim)
    return attempted, failed, canonical_digest(report, sweep_order) == reference["digest"]


def make_reference(workload: Workload) -> dict:
    runner, cfg, parts = setup(workload)
    report = runner.build_report(cfg, parts)
    return {
        "workload": workload.name,
        "cert_seed": CERT_SEED,
        "digest": canonical_digest(report, cfg.partitions),
        "verdicts": verdicts(report),
    }


def load_reference(workload: Workload) -> dict:
    with open(REFERENCE_DIR / f"{workload.name}.json") as fh:
        return json.load(fh)


# -- measurement -------------------------------------------------------------


@contextlib.contextmanager
def partition_timer(runner, probe: HostProbe):
    """Collect the window of every ``run_partition`` call made meanwhile."""
    original = runner.run_partition
    windows: list[Window] = []

    def timed(*args, **kwargs):
        start = probe.mark()
        try:
            return original(*args, **kwargs)
        finally:
            windows.append(probe.window(start, probe.mark()))

    runner.run_partition = timed
    try:
        yield windows
    finally:
        runner.run_partition = original


@dataclass
class Sweep:
    net_s: float              # measured, without the probe's own time
    wall_s: float             # net_s at the nominal host speed
    partition_s: list[float]  # at the nominal host speed
    attempted: int
    failed: int
    digest_ok: bool


def run_sweep(runner, cfg, order, sweep_order, reference, probe: HostProbe) -> Sweep:
    """One untraced sweep.  Each partition is scaled by the probe mean during
    it, the rest of the sweep (report assembly) by the mean over the sweep."""
    with partition_timer(runner, probe) as windows:
        start = probe.mark()
        report = runner.build_report(cfg, order)
        sweep = probe.window(start, probe.mark())
    partition_s = [w.scaled_s for w in windows]
    rest_s = sweep.net_s - sum(w.net_s for w in windows)
    return Sweep(sweep.net_s, sum(partition_s) + scaled(rest_s, sweep.probe_mean_s),
                 partition_s, *check(report, sweep_order, reference))


def traced_sweep(workload: Workload, reference: dict,
                 probe: HostProbe) -> tuple[Recorder, Sweep]:
    """One sweep, enumeration included, with every layer wrapped.  Spans
    leave out the probe's time; the sweep is scaled like an untraced one."""
    runner, cfg, _ = setup(workload)
    rec = Recorder(clock=probe.clock)
    rec.install()
    try:
        parts = runner.sweep_partitions(cfg)
        sweep = run_sweep(runner, cfg, parts, cfg.partitions, reference, probe)
    finally:
        rec.uninstall()
    return rec, sweep


def context() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    loc = {}
    for path in sorted((SRC / "centinv").glob("*.py")):
        with open(path) as fh:
            loc[path.stem] = sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(loc.values()),
        "src_lines_per_module": loc,
    }


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          reference: dict, out=print) -> dict:
    """Run one benchmark and return the result object of the last line."""
    setup(workload)  # warm-up: bytecode compilation is paid once per checkout
    with HostProbe() as probe:
        setups: list[Window] = []
        for _ in range(SETUP_REPEATS):
            start = probe.mark()
            runner, cfg, parts = setup(workload)
            setups.append(probe.window(start, probe.mark()))
        sweep_order = cfg.partitions
        order = list(parts)
        random.Random(seed).shuffle(order)

        sweeps: list[Sweep] = []
        started = perf_counter()
        while not sweeps or perf_counter() - started < seconds:
            sweeps.append(run_sweep(runner, cfg, order, sweep_order, reference, probe))
        if trace:
            rec, traced = traced_sweep(workload, reference, probe)
        probe_samples = len(probe.samples)
    walls = [s.wall_s for s in sweeps]
    nets = [s.net_s for s in sweeps]
    # every sweep runs the partitions in the same order
    partition_s = [statistics.median(times) for times in zip(*(s.partition_s for s in sweeps))]

    out("context " + json.dumps(context(), sort_keys=True))
    out(f"workload {workload.name}: {len(parts)} partitions, "
        f"{sweeps[0].attempted} certificates per sweep, "
        f"{len(sweeps)} sweep(s); partition_p50_s and partition_max_s over the "
        f"{len(partition_s)} partitions' medians of {len(sweeps)} call(s) each; "
        f"setup_s over {len(setups)} set-ups, run seed {seed}, certificate seed {CERT_SEED}")
    out(f"host probe: {probe_samples} samples; times are scaled to a probe time of "
        f"{NOMINAL_PROBE_S * 1e3:.3f} ms; measured sweep median {statistics.median(nets):.3f} s "
        f"(range {min(nets):.3f}-{max(nets):.3f}), scaled {statistics.median(walls):.3f} s "
        f"(range {min(walls):.3f}-{max(walls):.3f})")

    if trace:
        sweeps.append(traced)
        untraced = statistics.median(walls)
        metrics = rec.metrics()
        metrics["sweep.partitions"] = (len(parts), "count")
        metrics["sweep.certificates"] = (traced.attempted, "count")
        metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")
        out(f"{'layer':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}  work")
        for name, st in rec.stats.items():
            work = f"{st.work}" if st.work else ""
            out(f"{name:<40} {st.calls:>9} {st.total_s:>10.4f} {st.self_s:>10.4f}  {work}")
        out(f"tracing overhead: traced wall_s {traced.wall_s:.3f} s - untraced wall_s "
            f"{untraced:.3f} s (median of {len(walls)}) = {traced.wall_s - untraced:.3f} s; "
            f"measured {traced.net_s:.3f} s - {statistics.median(nets):.3f} s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(w.scaled_s for w in setups), "s"),
            "partition_p50_s": (statistics.median(partition_s), "s"),
            "partition_max_s": (max(partition_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    digest_ok = all(s.digest_ok for s in sweeps)
    out(f"failed_share {failed / attempted:.6f} ({failed}/{attempted}), "
        f"report digest {'matches' if digest_ok else 'DIFFERS from'} reference")
    return {
        "correct": digest_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="orders the partitions")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="sweeps are started until this time has passed (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the workload's reference verdicts and exit")
    args = ap.parse_args(argv)

    if not (SRC / "centinv" / "runner.py").is_file():
        print(f"error: no centinv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.write_reference:
        REFERENCE_DIR.mkdir(exist_ok=True)
        ref = make_reference(workload)
        with open(REFERENCE_DIR / f"{workload.name}.json", "w") as fh:
            json.dump(ref, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote reference for {workload.name}: digest {ref['digest']}")
        return 0

    result = bench(workload, args.seed, args.seconds, bool(args.trace),
                   load_reference(workload))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
