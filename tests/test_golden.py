"""Golden reports: fixed (config, seed) pairs must reproduce exactly."""

import hashlib
import json
from pathlib import Path

import pytest

from centinv.centralizer import build_gl_model, build_sp_model
from centinv.partitions import ClassicalType, Partition, partitions_of
from centinv.regularity import singular_locus_probe
from centinv.runner import RunConfig, build_report, sweep_partitions

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
    """Every line probe of gl n <= 7 and sp 2n <= 8 at seeds 0 and 7, with
    the number of compressions drawn, which the reports leave out; gl 1^7
    has the widest pencils here, rho = 42."""
    models = {f"gl {p}": build_gl_model(p) for n in range(1, 8) for p in partitions_of(n)}
    models.update({f"sp {p}": build_sp_model(p)
                   for n in range(1, 5) for p in partitions_of(2 * n, ClassicalType.SP)})
    got = {f"{name} seed {seed}": [list(probe) for probe in
                                   singular_locus_probe(model, lines=10, seed=seed)]
           for name, model in models.items() for seed in (0, 7)}
    assert got == json.loads((GOLDEN_DIR / "line_probes.json").read_text())


# Sweeps at sizes that test how the sampled commands share their points:
# index reads past diffcrit's 3 points; the centrality group probe reads 15
# points while diffcrit reads 0 or 3; index reads 1 point while diffcrit
# reads 12.  Each digest is the SHA-256 of the timing-free report, dumped
# with sorted keys; they were written before the commands shared one sample.
SAMPLED_SWEEPS = [
    ({"algebra": "gl", "max_n": 5, "seed": 3, "diffcrit_points": 3, "index_samples": 20},
     191, "dc417d0bb4020a2b8ec0f8ccde89b0ec14fcd900c939b1c6776685ae0f29262f"),
    ({"algebra": "sp", "max_n": 3, "seed": 0, "diffcrit_points": 0, "index_samples": 2},
     98, "ca459e8eb3b5b382db4b8923c975dfae8588733a830822500846a1e0c81da376"),
    ({"algebra": "gl", "max_n": 6, "seed": 1, "diffcrit_points": 12, "index_samples": 1,
      "grid": 4, "lines": 3},
     301, "19316c59e45a71190454f92b529ca4c3ac00e668d5e86eab54eef96a5e868f9e"),
]


@pytest.mark.parametrize("options,passes,digest", SAMPLED_SWEEPS,
                         ids=[f"{o['algebra']} n<={o['max_n']} seed {o['seed']}"
                              for o, _, _ in SAMPLED_SWEEPS])
def test_sampled_sweep_matches_its_digest(options, passes, digest):
    cfg = RunConfig(all_commands=True, **options)
    parts = sweep_partitions(cfg)
    cfg.partitions = [str(p) for p in parts]
    report = build_report(cfg, parts)
    report.pop("timings")
    assert report["summary"] == {"pass": passes, "fail": 0, "error": 0}
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
