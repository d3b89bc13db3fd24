#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_perfbench.py [-v]

Run from the repository root. Builds the benchmark the way run.py does,
then checks, with short runs (--seconds 1):

  * the same seed gives identical deterministic metrics on every workload,
    untraced and traced;
  * personalize gives identical results at num_threads 0 and 3 (the
    repository's determinism contract);
  * a seed not used while the benchmark was written passes the output gate;
  * an environment override that contradicts a pinned knob fails the run
    without a result;
  * run.py fails without a result where only BENCHMARK.json and perfbench/
    exist (no library sources to build).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper lives next to this file)

WORKLOADS = ["serve_plain", "personalize", "city_burst"]
# Metrics that depend only on the seed, not on timing.
DETERMINISTIC = {
    "0": ["token_accuracy", "wire_bytes_per_msg", "sim_latency_p50_ms",
          "sim_latency_p99_ms"],
    "1": ["cache.hit_rate", "select.accuracy", "channel.residual_ber",
          "channel.airtime_bits_per_msg", "semantic.updates_per_kmsg",
          "fl.sync_bytes_per_update", "core.bytes_per_user",
          "core.materialized_models", "edge.events_per_msg"],
}
UNSEEN_SEED = 90417
KNOB_VARS = ("SEMCACHE_THREADS", "SEMCACHE_SHARDS", "SEMCACHE_SOFT",
             "SEMCACHE_FIXTURE_DIR")


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in KNOB_VARS}
    env.update(extra)
    return env


def bench(workload, seed, trace, threads=None, env=None):
    """Runs the built binary briefly; returns (exit code, stdout)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", trace]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, env=env or clean_env(), capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.splitlines()[-1])


def deterministic(stdout, trace):
    metrics = result(stdout)["metrics"]
    return {name: metrics[name]["value"] for name in DETERMINISTIC[trace]}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_same_seed_repeats(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    code_a, out_a = bench(workload, 7, trace)
                    code_b, out_b = bench(workload, 7, trace)
                    self.assertEqual((code_a, code_b), (0, 0), out_a + out_b)
                    self.assertEqual(deterministic(out_a, trace),
                                     deterministic(out_b, trace))

    def test_personalize_threads_agree(self):
        code_0, out_0 = bench("personalize", 8, "0", threads=0)
        code_3, out_3 = bench("personalize", 8, "0", threads=3)
        self.assertEqual((code_0, code_3), (0, 0), out_0 + out_3)
        self.assertIn("num_threads=0 pool_workers=0", out_0)
        self.assertIn("num_threads=3 pool_workers=3", out_3)
        self.assertEqual(deterministic(out_0, "0"), deterministic(out_3, "0"))

    def test_unseen_seed_passes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out = bench(workload, UNSEEN_SEED, "0")
                self.assertEqual(code, 0, out)
                res = result(out)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)

    def test_contradicting_override_fails(self):
        cases = [("city_burst", {"SEMCACHE_SOFT": "off"}),
                 ("serve_plain", {"SEMCACHE_THREADS": "4"}),
                 ("city_burst", {"SEMCACHE_SHARDS": "4"})]
        for workload, override in cases:
            with self.subTest(workload=workload, override=override):
                code, out = bench(workload, 7, "0", env=clean_env(**override))
                self.assertEqual(code, 3)
                self.assertEqual(out, "")

    def test_fails_without_sources(self):
        root = os.path.dirname(HERE)
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_plain", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
