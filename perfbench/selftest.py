"""Fast self-test of the benchmark on a tiny sweep (gl, n <= 3).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import unittest

import run
from spans import LAYERS, Recorder

TINY = run.Workload("tiny", "gl", 3)


def _bound_objects() -> dict:
    """Every attribute of every centinv module, and of the classes traced."""
    objs = {}
    for name, mod in sys.modules.items():
        if name == "centinv" or name.startswith("centinv."):
            for attr, val in vars(mod).items():
                objs[(name, attr)] = val
    for module, qualname, _, _ in LAYERS:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(sys.modules[f"centinv.{module}"], cls_name)
            objs[(cls_name, attr)] = vars(cls)[attr]
    return objs


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        with open(run.ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)
        cls.reference = run.make_reference(TINY)

    def bench(self, trace: bool, reference=None) -> tuple[dict, list[str]]:
        lines: list[str] = []
        result = run.bench(TINY, seed=3, seconds=0, trace=trace,
                           reference=reference or self.reference, out=lines.append)
        return result, lines

    def test_end_to_end_metrics_emitted(self):
        result, lines = self.bench(trace=False)
        names = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
        self.assertIn("failed_share 0.000000", lines[-1])
        self.assertIn("digest matches", lines[-1])

    def test_host_probe_sampled_and_stopped(self):
        handler = signal.getsignal(signal.SIGALRM)
        result, lines = self.bench(trace=False)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        probe_line = next(line for line in lines if line.startswith("host probe:"))
        self.assertGreater(int(probe_line.split()[2]), 0)

    def test_per_layer_metrics_emitted_and_originals_restored(self):
        result, lines = self.bench(trace=True)
        names = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(result["metrics"]), names)
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["runner.run_partition.calls"]["value"], 0)
        self.assertTrue(any(line.startswith("tracing overhead") for line in lines))
        for obj in _bound_objects().values():
            self.assertFalse(hasattr(obj, "__wrapped__"), obj)

    def test_recorder_rebinds_every_importer_and_restores(self):
        run.setup(TINY)
        before = _bound_objects()
        rec = Recorder()
        rec.install()
        try:
            nullcone = sys.modules["centinv.nullcone"]
            runner = sys.modules["centinv.runner"]
            centralizer = sys.modules["centinv.centralizer"]
            for mod in (nullcone, runner, centralizer):
                self.assertIsNot(mod.build_gl_model, before[(mod.__name__, "build_gl_model")])
            self.assertIs(nullcone.build_gl_model, runner.build_gl_model)
        finally:
            rec.uninstall()
        after = _bound_objects()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)

    def test_flipped_reference_status_counts_as_failed(self):
        flipped = copy.deepcopy(self.reference)
        part = next(iter(flipped["verdicts"]))
        claim = next(iter(flipped["verdicts"][part]))
        flipped["verdicts"][part][claim] = "FAIL"
        result, lines = self.bench(trace=False, reference=flipped)
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])
        self.assertNotIn("failed_share 0.000000", lines[-1])

    def test_changed_digest_is_not_correct(self):
        changed = dict(self.reference, digest="0" * 64)
        result, lines = self.bench(trace=False, reference=changed)
        self.assertFalse(result["correct"])
        self.assertIn("DIFFERS", lines[-1])


if __name__ == "__main__":
    unittest.main()
