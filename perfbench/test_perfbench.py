"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'    (from the repository root)

Each workload runs at smoke size: the digest must repeat across runs, the
traced run must reach the untraced digest and repeat its counts exactly,
and every metric BENCHMARK.json names must come out finite.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(workload, trace, seed=1, cwd=ROOT):
    """Runs run.py at smoke size; returns (exit code, info line, result line)."""
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, result, kind):
        names = [m["name"] for m in BENCH[kind]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name in names:
            self.assertTrue(math.isfinite(result["metrics"][name]["value"]), name)

    def test_every_workload_repeats_its_digest_and_emits_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [smoke(workload, 0) for _ in range(2)]
                for code, info, result in runs:
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.check_metrics(result, "end_to_end")
                self.assertEqual(runs[0][1]["digests"], runs[1][1]["digests"])

                traced = [smoke(workload, 1) for _ in range(2)]
                for code, info, result in traced:
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(info["digests"], runs[0][1]["digests"][:1])
                    self.check_metrics(result, "per_layer")
                counts = [
                    {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                    for _, _, r in traced
                ]
                self.assertEqual(counts[0], counts[1], "callback and phase counts repeat exactly")

    def test_layer_times_add_up_to_the_traced_wall_time(self):
        for workload in ("metro-full", "metro-hostile"):
            with self.subTest(workload=workload):
                code, _, result = smoke(workload, 1)
                self.assertEqual(code, 0)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                parts = [v for k, v in m.items() if k.startswith("simnet.") and k.endswith(".self_ms")
                         and not k.startswith("simnet.shard.")]
                parts += [v for k, v in m.items() if k.startswith("peerhood.on_") and k.endswith(".ms")]
                parts.append(m["simnet.untraced_ms"])
                self.assertAlmostEqual(sum(parts), m["trace.wall_ms"], delta=1e-6 * m["trace.wall_ms"])
                self.assertGreater(m["peerhood.on_message.calls"], 0)

    def test_hostile_city_exercises_the_defences(self):
        _, _, result = smoke("metro-hostile", 1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("simnet.adversary.frames_injected", "simnet.adversary.cut_links_broken",
                     "peerhood.security.frames_authenticated", "peerhood.security.rejected"):
            self.assertGreater(m[name], 0, name)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, _, result = smoke(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ReferenceCheck(unittest.TestCase):
    REFS = {"full": {"metro-full": {"7": ["00000000000000aa", "00000000000000bb"]}}}

    def check(self, seed, digests):
        return run.reference_problem(self.REFS, "full", "metro-full", seed, digests)

    def test_matching_digests_pass(self):
        self.assertIsNone(self.check(7, ["00000000000000aa", "00000000000000bb"]))
        self.assertIsNone(self.check(7, ["00000000000000aa"]))

    def test_a_differing_city_fails(self):
        self.assertIn("differ", self.check(7, ["00000000000000aa", "00000000000000bc"]))
        self.assertIn("differ", self.check(7, ["00000000000000ab"]))

    def test_unrecorded_seed_is_only_checked_for_repeatability(self):
        self.assertIsNone(self.check(8, ["00000000000000ab"]))


if __name__ == "__main__":
    unittest.main()
