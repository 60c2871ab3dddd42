"""Self-tests for the benchmark.  Run from a checkout: python3 bench/selftest.py"""

from __future__ import annotations

import json
import shutil
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import run
import tracing
import workloads


class FakeClock:
    """Each call returns the next integer second."""

    def __init__(self):
        self.now = -1

    def __call__(self) -> float:
        self.now += 1
        return float(self.now)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        tracer = tracing.Tracer(clock=FakeClock())
        leaf = tracer.wrap("leaf", lambda: None)

        def body(depth):
            if depth:
                inner(depth - 1)
            leaf()
            leaf()

        inner = tracer.wrap("outer", body)
        inner(1)
        # outer(1) [0..11] > outer(0) [1..6] > leaf [2..3], leaf [4..5];
        # then leaf [7..8], leaf [9..10] directly under outer(1)
        self.assertEqual(
            tracer.spans,
            [
                ("outer", 0.0, 11.0, -1),
                ("outer", 1.0, 6.0, 0),
                ("leaf", 2.0, 3.0, 1),
                ("leaf", 4.0, 5.0, 1),
                ("leaf", 7.0, 8.0, 0),
                ("leaf", 9.0, 10.0, 0),
            ],
        )
        stats = tracing.summarize(tracer.spans)
        # busy counts the re-entered outer span once; self subtracts only
        # direct children: (11 - 5 - 1 - 1) + (5 - 1 - 1)
        self.assertEqual(stats["outer"], [2, 11.0, 7.0])
        self.assertEqual(stats["leaf"], [4, 4.0, 4.0])


class AbsentBoundaryTest(unittest.TestCase):
    def test_missing_function_is_reported_absent(self):
        def gaps_of(x):
            return x

        angles = SimpleNamespace(gaps_of=gaps_of)
        caller = SimpleNamespace(gaps_of=gaps_of)
        modules = {"angles": angles, "configuration": caller}
        absent = tracing.install(tracing.Tracer(), modules)

        self.assertNotIn("angles.gaps_of", absent)
        self.assertIn("angles.canonical_cycle", absent)
        self.assertIs(caller.gaps_of.__wrapped__, gaps_of)
        self.assertIsNone(tracing.cache_counts(modules)["formation.decide_cache"])

    def test_absent_metrics_are_left_out(self):
        caches = {prefix: [1, 1] for prefix, _, _ in tracing.CACHES}
        caches["formation.decide_cache"] = None
        block = {
            "results": [["n=3", 0.5, 10, 0, 400.0]], "layers": {"angles.gaps_of": [4, 0.2, 0.1]},
            "absent": ["formation.compute"], "caches": caches, "max_den_bits": 5,
            "pair_checks": 6, "trace_bytes": 0, "used": 0, "ref_rates": [400.0],
        }
        values, absent = run.layer_metrics([block], [(block, block)])
        self.assertEqual(values["angles.gaps_of.calls"], 4)
        self.assertEqual(values["configuration.classify_cache.hit_ratio"], 0.5)
        self.assertIn("formation.decide_cache", absent)
        for name in values:
            self.assertFalse(name.startswith(("formation.compute.", "formation.decide_cache")))


class SeedTest(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        for jobs in (workloads.det_jobs, workloads.rand_jobs,
                     workloads.explore_jobs, workloads.verify_jobs):
            self.assertEqual(jobs(7, 3), jobs(7, 3))
            self.assertNotEqual(jobs(7, 3), jobs(8, 3))
            self.assertNotEqual(jobs(7, 3), jobs(7, 4))

    def test_trace_digest_follows_the_seed(self):
        cf = workloads.load_package(run.ROOT)
        work = run.ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        digests = []
        with mock.patch.object(workloads, "VERIFY_SETS", 1):
            for _ in range(2):
                tmp = Path(tempfile.mkdtemp(dir=work))
                try:
                    digests.append(workloads.write_traces(cf, 7, tmp))
                finally:
                    shutil.rmtree(tmp)
        self.assertEqual(digests[0], digests[1])

    def test_sweep_digest_is_the_same_in_two_workers(self):
        task = {
            "task": "block", "root": str(run.ROOT), "workload": "rand-sweep",
            "seed": 7, "block": 0, "traced": False, "workdir": str(run.ROOT),
        }
        first, second = run.run_worker(task), run.run_worker({**task, "traced": True})
        self.assertEqual(first["digest"], second["digest"])
        self.assertEqual([r[0] for r in first["results"]], [r[0] for r in second["results"]])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["end_to_end"]}, set(run.END_TO_END)
        )
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["per_layer"]}, set(run.PER_LAYER.items())
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
