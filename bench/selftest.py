"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

They live here, not under tests/, so that the library's own suite is
unchanged by the benchmark.
"""

import dataclasses
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def _bindings() -> dict:
    """Every module- and class-level binding inside qflat, by location."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "qflat" and not name.startswith("qflat."):
            continue
        for key, value in list(vars(mod).items()):
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _calls(out: dict) -> dict:
    return {k: m["value"] for k, m in out["result"]["metrics"].items() if k.endswith(".calls")}


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_runs_at_tiny_size(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    out = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
                    res = out["result"]
                    self.assertTrue(res["correct"], out["problems"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = set(tracer.metric_units()) | {"trace.overhead_ratio"} if trace else set(run.E2E_UNITS)
                    self.assertEqual(set(res["metrics"]), want)

    def test_gate_fails_on_a_wrong_expected_verdict(self):
        wl, items = run.load("decide", 3, tiny=True)
        known = [it for it in items if it.expect is not None]
        self.assertTrue(known)
        outcomes = run.run_passes(wl, wl.RUNNERS["decide"], lambda _: known, run.Loop(), passes=1).first
        self.assertEqual(run.judge(wl, known, outcomes), [])
        flipped = [dataclasses.replace(it, expect="F1" if it.expect == "HOLDS" else "HOLDS") for it in known]
        self.assertEqual(len(run.judge(wl, flipped, outcomes)), len(flipped))

    def test_tracer_restores_every_binding(self):
        run.load("decide", 3, tiny=True)
        import qflat.cli  # noqa: F401  (so the CLI layer is wrapped as well)

        before = _bindings()
        with tracer.Tracer():
            during = _bindings()
        after = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        for where in [
            ("qflat.order", "tensor"),
            ("qflat.ideal", "tensor"),
            ("qflat.oracle", "tensor"),
            ("qflat", "tensor"),
            ("qflat.tnorms", "OrdinalSumTNorm", "conj"),
            ("qflat.pwfn", "PwFn", "refine"),
            ("qflat.cli", "main"),
        ]:
            self.assertIn(where, changed)
        wrapped_layers = {getattr(during[k], "__wrapped__", None) for k in changed}
        self.assertEqual(len(wrapped_layers), len(tracer.LAYERS))
        self.assertEqual(after.keys(), before.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])

    def test_layer_call_counts_repeat_for_a_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = _calls(run.run(workload, seed=5, seconds=0, trace=True, tiny=True))
                second = _calls(run.run(workload, seed=5, seconds=0, trace=True, tiny=True))
                self.assertEqual(first, second)
                self.assertGreater(sum(first.values()), 0)


if __name__ == "__main__":
    unittest.main()
