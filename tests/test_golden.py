"""Golden reports: fixed (config, seed) pairs must reproduce exactly."""

import json
from pathlib import Path

import pytest

from centinv.centralizer import build_gl_model, build_sp_model
from centinv.partitions import ClassicalType, Partition, partitions_of
from centinv.regularity import singular_locus_probe
from centinv.runner import RunConfig, build_report

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = [("gl", "2,1"), ("gl", "2,2"), ("gl", "3,1"), ("gl", "3,2,1"), ("sp", "2,1,1"),
         ("sp", "3,3,2"), ("so", "5,3,2,2"), ("so", "3,1,1")]


@pytest.mark.parametrize("algebra,parts", CASES)
def test_report_matches_golden(algebra, parts):
    cfg = RunConfig(algebra=algebra, partitions=[parts], commands=[],
                    all_commands=True, seed=7)
    report = build_report(cfg, [Partition.parse(parts)])
    report.pop("timings")
    name = f"{algebra}_{parts.replace(',', '_')}.json"
    golden = json.loads((GOLDEN_DIR / name).read_text())
    assert json.dumps(report, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_line_probes_match_golden():
    """Every LineProbe of gl n <= 7 and sp 2n <= 8 at seeds 0 and 7, with
    the number of compressions drawn, which the reports leave out; gl 1^7
    has the widest pencils here, rho = 42."""
    models = {f"gl {p}": build_gl_model(p) for n in range(1, 8) for p in partitions_of(n)}
    models.update({f"sp {p}": build_sp_model(p)
                   for n in range(1, 5) for p in partitions_of(2 * n, ClassicalType.SP)})
    got = {f"{name} seed {seed}": [[pr.certified, pr.singular_values, pr.minors_used, pr.detail]
                                   for pr in singular_locus_probe(model, lines=10, seed=seed)]
           for name, model in models.items() for seed in (0, 7)}
    assert got == json.loads((GOLDEN_DIR / "line_probes.json").read_text())
