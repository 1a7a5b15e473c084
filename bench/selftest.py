"""Self-tests of the benchmark harness, on tiny configurations.

    python3 bench/selftest.py

They run every harness path in seconds and show that each gate can fail:
a corrupted golden digest, a command that exits 1, a report that says
`"passed": false`, a dropped stage span and a count that changed between
two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing

TINY = ["torus", "all", "--p", "3", "--depth", "1", "--dim", "2", "--bound", "4", "--seed", "0"]
SUITE = ["suite", "run", "--suite", "s4-torus-decomp", "--seed", "0"]
EXIT_1 = ["leta", "apply", "--f", "0"]  # refused with exit code 1


def read_spans(path: Path) -> list[tuple]:
    spans = []
    for line in path.read_text().splitlines():
        name, start, end, parent, command = line.split("\t")
        spans.append((name, float(start), float(end), int(parent), int(command)))
    return spans


class GoldenGateTest(unittest.TestCase):
    def test_matching_digest_passes_and_corrupted_digest_fails(self):
        first = run.run_pass([TINY], None, {})[0]
        self.assertIsNone(first.failure)
        key = " ".join(TINY)
        again = run.run_pass([TINY], {key: first.sha256}, {})[0]
        self.assertIsNone(again.failure)
        corrupted = run.run_pass([TINY], {key: "0" * 64}, {})[0]
        self.assertEqual(corrupted.failure, "sha256 differs from the golden digest")

    def test_missing_digest_fails(self):
        result = run.run_pass([SUITE], {}, {})[0]
        self.assertEqual(result.failure, "sha256 differs from the golden digest")

    def test_exit_1_fails(self):
        result = run.run_pass([EXIT_1], None, {})[0]
        self.assertEqual(result.failure, "exit code 1")

    def test_passed_false_and_changed_bytes_fail(self):
        report = run.CommandResult([], 0, b'{"passed": false}\n', 0.1, 0.1, 1.0)
        self.assertEqual(run.judge(report, None, None), '"passed": false')
        report = run.CommandResult([], 0, b'{"passed": true}\n', 0.1, 0.1, 1.0)
        self.assertIsNone(run.judge(report, None, b'{"passed": true}\n'))
        self.assertEqual(run.judge(report, None, b'{"passed": true} \n'), "report bytes differ between two runs")


class UntracedRunTest(unittest.TestCase):
    def test_two_passes_and_end_to_end_metrics(self):
        passes, setup = run.run_passes([TINY, SUITE], 0, None)
        self.assertEqual(len(passes), run.MIN_PASSES)
        self.assertEqual(len(setup), run.MIN_PASSES * run.SETUP_PER_PASS)
        self.assertTrue(all(r.failure is None for p in passes for r in p))
        metrics = run.end_to_end_metrics(passes, setup)
        self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
        self.assertTrue(all(value > 0 for value in metrics.values()))
        self.assertGreaterEqual(metrics["wall_s"], metrics["slowest_op_s"])

    def test_error_rate_counts_failed_commands(self):
        passes, _ = run.run_passes([TINY, EXIT_1], 0, None)
        failed = [r for p in passes for r in p if r.failure]
        self.assertEqual(len(failed), run.MIN_PASSES)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spans_path = run.OUT / "selftest-spans.tsv"
        cls.untraced = run.run_pass([TINY, SUITE], None, {})
        cls.traced = [run.run_traced([TINY, SUITE], cls.spans_path if i == 0 else None) for i in range(2)]

    @classmethod
    def tearDownClass(cls):
        cls.spans_path.unlink()

    def test_traced_run_is_true_to_untraced(self):
        self.assertEqual(run.traced_checks(self.untraced, self.traced), [])
        coverage = self.traced[0]["commands"][0]["stage_coverage"]
        self.assertGreaterEqual(coverage, run.COVERAGE_FLOOR)
        names = set(self.traced[0]["metrics"])
        self.assertIn("ainf.OCModelElement.inverse_rational.calls", names)
        self.assertIn("torus._fractional_outcome.hit_ratio", names)

    def test_spans_file_matches_the_run(self):
        spans = read_spans(self.spans_path)
        self.assertEqual(len(spans), self.traced[0]["span_count"])
        coverage = tracing.stage_coverage(spans)[0]
        self.assertAlmostEqual(coverage, self.traced[0]["commands"][0]["stage_coverage"])

    def test_dropped_span_breaks_coverage(self):
        spans = read_spans(self.spans_path)
        stage = max(
            (s for s in spans if s[0] in tracing.STAGES and s[4] == 0 and spans[s[3]][0] == tracing.COMMAND),
            key=lambda s: s[2] - s[1],
        )
        dropped = [s for s in spans if s is not stage]
        self.assertLess(tracing.stage_coverage(dropped)[0], run.COVERAGE_FLOOR)

    def test_changed_count_is_reported(self):
        changed = json.loads(json.dumps(self.traced[1]))
        changed["metrics"]["complexes.koszul.calls"]["value"] += 1
        problems = run.traced_checks(self.untraced, [self.traced[0], changed])
        self.assertEqual(len(problems), 1)
        self.assertIn("complexes.koszul.calls", problems[0])

    def test_changed_report_is_reported(self):
        changed = json.loads(json.dumps(self.traced[1]))
        changed["commands"][1]["sha256"] = "0" * 64
        problems = run.traced_checks(self.untraced, [self.traced[0], changed])
        self.assertEqual(len(problems), 1)
        self.assertIn("differs from the untraced one", problems[0])

    def test_self_time_excludes_children(self):
        spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("a", 5.0, 7.0, 0, 0)]
        self.assertEqual(tracing.self_times(spans), {"a": 7.0, "b": 3.0})
        self.assertEqual(tracing.inclusive_times(spans), {"a": 10.0, "b": 3.0})


class WithoutSourcesTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            root = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            shutil.copytree(run.BENCH, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "lattice-suites", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
