"""Self-tests of the benchmark. Run them from the root of a checkout:

    python3 bench/selftest.py

They cover generator determinism, a tiny-scale run of every workload with
and without tracing, the detection of corrupted outputs, and the refusal to
run without the program. Work files go to .bench_work/selftest/.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPO = Path.cwd()
SCRATCH = REPO / run.WORK_DIR / "selftest"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                root = fresh("gen")
                workloads.generate(name, 5, root / "a", "tiny")
                workloads.generate(name, 5, root / "b", "tiny")
                workloads.generate(name, 6, root / "c", "tiny")
                self.assertEqual(tree_digest(root / "a"), tree_digest(root / "b"))
                self.assertNotEqual(tree_digest(root / "a"), tree_digest(root / "c"))


class SmokeTest(unittest.TestCase):
    def test_every_workload_at_tiny_scale(self):
        expected = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "4", "--seconds", "0.5",
                                 "--trace", str(trace), "--scale", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected[trace])


class CorruptionTest(unittest.TestCase):
    def _reference(self, name: str) -> tuple[workloads.Workload, Path, Path]:
        root = fresh(name)
        workload = workloads.generate(name, 4, root / "input", "tiny")
        runner = run.Runner(REPO, root)
        out = root / "out"
        sample = runner.cli(workload.command(out))
        self.assertEqual(sample.problems(), [])
        self.assertEqual(checks.content_problems(workload, out, sample.stdout, REPO, 4), [])
        return workload, out, sample.stdout

    def test_changed_arp_is_caught(self):
        workload, out, _ = self._reference("deep")
        cells = json.loads((out / "cells.json").read_text(encoding="utf-8"))["cells"]
        cells[-1]["pivot_arp_target"]["value"] += 1e-9
        problems = checks.arp_problems(workload, cells, REPO, random.Random(0), len(cells))
        self.assertEqual(len(problems), 1)

    def test_changed_byte_is_caught(self):
        for name in ("rerender", "corpus-diff"):
            with self.subTest(workload=name):
                workload, out, stdout = self._reference(name)
                reference = checks.output_digests(workload, out, stdout)
                target = out / workload.expected[-1]
                data = bytearray(target.read_bytes())
                data[len(data) // 2] ^= 1
                target.write_bytes(bytes(data))
                self.assertNotEqual(checks.output_digests(workload, out, stdout), reference)
                self.assertNotEqual(checks.content_problems(workload, out, stdout, REPO, 4), [])

    def test_changed_table_value_is_caught(self):
        # A number formatted differently in table.csv, or a changed rounded
        # value in table.txt, at a seed without pinned digests.
        for name, old, new in (("table.csv", ",0.0,", ",0,"), ("table.txt", " 0.000 ", " 0.001 ")):
            with self.subTest(file=name):
                workload, out, stdout = self._reference("rerender")
                target = out / name
                text = target.read_text(encoding="utf-8")
                self.assertIn(old, text)
                target.write_text(text.replace(old, new, 1), encoding="utf-8")
                self.assertEqual(len(checks.content_problems(workload, out, stdout, REPO, 4)), 1)

    def test_golden_mismatch_is_caught(self):
        golden = REPO / "tests" / "golden" / "two_ee"
        copy = fresh("golden") / "two_ee"
        shutil.copytree(golden, copy)
        self.assertEqual(checks.golden_problems(copy, golden), [])
        table = copy / "table.txt"
        table.write_text(table.read_text(encoding="utf-8").replace("0.", "1.", 1), encoding="utf-8")
        self.assertEqual(len(checks.golden_problems(copy, golden)), 1)


class WithoutProgramTest(unittest.TestCase):
    def test_refuses_to_run(self):
        bare = fresh("bare")
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
