"""Self-tests of the benchmark harness, at tiny input sizes.

    python3 perfbench/selftest.py

Each workload must print every metric named in BENCHMARK.json with its unit,
pass its correctness gates on the current library, and count a deliberately
falsified output as a failed op. The harness must refuse to run without the
package sources, and the cli-mix stdout digest must not depend on
PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, workload: str = "cli-mix", trace: int = 0, cwd: Path = ROOT,
          env: dict | None = None):
    """Run the harness at tiny size; returns (exit code, stdout lines)."""
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "5",
                                   "--seconds", "0.2", "--trace", str(trace),
                                   "--size", "tiny", *extra]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          env=env)
    return proc.returncode, proc.stdout.splitlines()


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    status, lines = bench(workload=w["name"], trace=trace)
                    self.assertEqual(status, 0, lines[-5:])
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_trace_predictions_at_tiny_size(self):
        _, lines = bench(workload="sweep-n4", trace=1)
        sweep = json.loads(lines[-1])["metrics"]
        self.assertEqual(sweep["ideal.canonical_form.calls"]["value"], 0)
        self.assertEqual(sweep["verify.sweep.codes_scanned"]["value"], 2 * 255)
        _, lines = bench(workload="cf-large", trace=1)
        cf = json.loads(lines[-1])["metrics"]
        for name, m in cf.items():
            if name.startswith("graphs.") and name.endswith(".calls"):
                self.assertEqual(m["value"], 0, name)


class CorruptionTest(unittest.TestCase):
    def test_falsified_output_is_a_failed_op(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                status, lines = bench("--corrupt", workload=w["name"])
                result = json.loads(lines[-1])
                self.assertEqual(status, 1)
                self.assertIs(result["correct"], False)
                self.assertGreaterEqual(result["failed"], 1)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_commands(self):
        sys.path.insert(0, str(HERE))
        from workloads import cli_commands
        self.assertEqual(cli_commands(11, "full"), cli_commands(11, "full"))
        self.assertNotEqual(cli_commands(11, "full"), cli_commands(12, "full"))
        for argv, _ in cli_commands(11, "full"):
            if argv[0] in ("cf", "graph", "map") and "--family" not in argv and "--cf" not in argv:
                self.assertTrue(any(a.startswith("n=") for a in argv), argv)

    def test_digest_ignores_hash_seed(self):
        digests = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            _, lines = bench(env=env)
            digests.update(line.split()[2] for line in lines if line.startswith("stdout sha256"))
        self.assertEqual(len(digests), 1, digests)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            status, lines = bench(cwd=bare)
        self.assertNotEqual(status, 0)
        self.assertFalse(any(line.startswith("{") for line in lines), lines)


if __name__ == "__main__":
    unittest.main()
