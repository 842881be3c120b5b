#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the root of a checkout:

    python3 -m unittest framebench/test_framebench.py

Each case makes short runs through run.py, so the first one also builds.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class FrameBenchTest(unittest.TestCase):
    def test_ledger_does_not_perturb(self):
        # Every traced repetition wraps each stage and the source; its
        # PipelineResult must digest equal to the unwrapped run_pipeline()
        # reference, and the spans must cover the frame.
        for workload in ("paper_call", "burst_wire"):
            done = run(workload, seed=7, trace=1)
            self.assertEqual(done.returncode, 0, done.stderr)
            res, lines = result(done)
            self.assertTrue(res["correct"], lines)
            self.assertEqual(res["failed"], 0)
            self.assertTrue(any(l.startswith("identity ") for l in lines))
            coverage = res["metrics"]["sim.ledger_coverage"]["value"]
            self.assertGreaterEqual(coverage, 0.97)
            self.assertLessEqual(coverage, 1.0)

    def test_exact_counts_repeat(self):
        # The same seed gives the same digest and deterministic metrics;
        # another seed gives other inputs.
        exact = ("psnr_db", "bytes_per_frame", "encode_mj_per_frame")
        first, lines_a = result(run("burst_wire", seed=3, trace=0))
        second, lines_b = result(run("burst_wire", seed=3, trace=0))
        other, lines_c = result(run("burst_wire", seed=4, trace=0))
        for name in exact:
            self.assertEqual(first["metrics"][name], second["metrics"][name])
        digest = [l for l in lines_a if l.startswith("digest ")]
        self.assertEqual(digest, [l for l in lines_b if l.startswith("digest ")])
        self.assertNotEqual(digest, [l for l in lines_c if l.startswith("digest ")])
        self.assertTrue(first["correct"] and second["correct"] and other["correct"])

    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark cannot
        # build: the run must fail and print no result.
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "framebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "framebench/run.py", "--workload", "paper_call",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
