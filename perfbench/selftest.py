"""Tests of the benchmark itself: python3 perfbench/selftest.py"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SMALL_JOBS = (
    workloads.Job("coh", ("cohomology", "R 4", "--degree", "3", "--coeff", "Z")),
    workloads.Job("sym", ("cohomology", "P 2 (1 2)", "--coeff", "Z2", "--rho", "(1 2)")),
    workloads.Job("aut", ("aut", "R 5")),
    workloads.Job("color", ("color", "{k3}", "{r3}")),
    workloads.Job("quiver", ("quiver", "{k3}", "P 2 (1 2)", "--endos", "all")),
    workloads.Job("phi", ("phi", "{k3}", "P 2 (1 2)", "--theta", "2")),
    workloads.Job("goodinv", ("goodinv", "T 5")),
    workloads.Job("capped", ("color", "{k3}", "{r3}"), cap=3),
)
SMALL = workloads.Workload(
    jobs=SMALL_JOBS, links={"k3": ((0, 1, 1), (1, 0, 1), (1, 1, 0))}, quandles={"r3": ("R 3", True)})


def scratch_dir() -> str:
    base = run.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=base)


class TracedOutputTest(unittest.TestCase):
    def test_traced_and_untraced_stdout_are_identical(self):
        workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, workdir)
        loaded = run.setup(SMALL, 7, workdir)
        cli, paths = loaded.cli, loaded.paths
        plain = [run.run_job(cli, job, workloads.job_argv(job, paths)) for job in SMALL_JOBS]
        tracer = spans.Tracer()
        links = sys.modules["quandles.links"]
        original = links.colorings
        undo = spans.install(tracer)
        try:
            self.assertIsNot(sys.modules["quandles.quiver"].colorings, original)
            traced = [run.run_job(cli, job, workloads.job_argv(job, paths), tracer)
                      for job in SMALL_JOBS]
        finally:
            spans.uninstall(undo)
        self.assertIs(sys.modules["quandles.quiver"].colorings, original)
        self.assertEqual([r.rc for r in plain][-1], 1)
        for a, b in zip(plain, traced):
            self.assertEqual((a.rc, a.out), (b.rc, b.out), a.job.id)
        run.check_result(plain[-1], "3 colorings", loaded.tables, loaded.quandles)
        recorded = tracer.take()
        names = {span[0] for span in recorded}
        for name in ("cli.main", "links.colorings", "quiver.quiver", "linalg.rank_q",
                     "linalg.smith_normal_form", "morphisms.FiniteGroupTable",
                     "invariants.SymmetricQuandle", "quandle.Quandle"):
            self.assertIn(name, names)
        totals = spans.layer_totals(recorded, {j.id: j.subcommand for j in SMALL_JOBS})
        self.assertEqual(totals["links.colorings_capped"], 1)
        self.assertGreater(totals["cohomology.selfcheck_s"], 0)
        wall = sum(r.seconds for r in traced)
        self.assertAlmostEqual(totals["trace.self_sum_s"], wall, delta=0.02 * wall)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_children_cover(self):
        tree = [
            ["cli.main", "j", None, 0.0, 10.0, None],
            ["morphisms.homs", "j", 0, 1.0, 4.0, None],
            ["quandle.Quandle", "j", 1, 2.0, 3.0, {"calls": 1}],
            ["quandle.Quandle", "j", 0, 5.0, 6.5, {"calls": 1}],
            ["cli.main", "k", None, 20.0, 21.0, None],
        ]
        self.assertEqual(spans.self_times(tree), [5.5, 2.0, 1.0, 1.5, 1.0])
        totals = spans.layer_totals(tree, {"j": "homs", "k": "iso"})
        self.assertEqual(totals["trace.self_sum_s"], 11.0)
        self.assertEqual(totals["cli.self_s"], 6.5)
        self.assertEqual(totals["morphisms.search_s"], 2.0)
        self.assertEqual(totals["quandle.validate_s"], 2.5)
        self.assertEqual(totals["quandle.validate_calls"], 2)
        self.assertEqual((totals["cli.homs_s"], totals["cli.iso_s"]), (10.0, 1.0))

    def test_overlapping_children_are_counted_once(self):
        tree = [["a", "j", None, 0.0, 10.0, None],
                ["b", "j", 0, 1.0, 5.0, None],
                ["c", "j", 0, 3.0, 12.0, None]]
        self.assertEqual(spans.self_times(tree)[0], 1.0)


def run_main(argv) -> tuple:
    """run.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run.main(argv)
    return rc, out.getvalue(), err.getvalue()


class ScalingTest(unittest.TestCase):
    def test_times_are_scaled_by_the_reference_loop_of_their_pass(self):
        slow = run.REF_S * 2  # the reference loop, and so every job, ran at half speed
        passes = [
            {"ref_s": run.REF_S, "setup_s": 0.1, "wall_s": 3.0,
             "timings": [run.Timing("a", 1.0, 0), run.Timing("b", 2.0, 0)]},
            {"ref_s": slow, "setup_s": 0.2, "wall_s": 6.0,
             "timings": [run.Timing("a", 2.0, 0), run.Timing("b", 4.0, 0)]},
            {"ref_s": slow, "setup_s": 0.3, "wall_s": 9.0,
             "timings": [run.Timing("a", 3.0, 0), run.Timing("b", 6.0, 0)]},
        ]
        scaled = run.scaled_medians(passes)
        self.assertAlmostEqual(scaled["setup_s"], 0.1)
        self.assertAlmostEqual(scaled["wall_s"], 3.0)
        self.assertEqual([round(t, 9) for t in scaled["jobs"]], [1.0, 2.0])


class AnswerCheckTest(unittest.TestCase):
    def test_tampered_answer_fails_the_run(self):
        answers = workloads.load_answers(run.ANSWERS)
        answers["phi_k6_p2"] = "65 + 301*t^8"
        workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, workdir)
        tampered = Path(workdir) / "answers.json"
        tampered.write_text(json.dumps(answers))
        with mock.patch.object(run, "ANSWERS", tampered):
            rc, out, err = run_main(["--workload", "enum_dense", "--seconds", "1"])
        self.assertEqual(rc, 1, err)
        self.assertIn("phi_k6_p2", err)
        self.assertFalse(json.loads(out.splitlines()[-1])["correct"])

    def test_a_failing_job_without_a_cap_fails_the_run(self):
        workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, workdir)
        loaded = run.setup(SMALL, 7, workdir)
        bad = workloads.Job("bad", ("cohomology", "R 4", "--coeff", "Z4"))
        result = run.run_job(loaded.cli, bad, list(bad.argv))
        self.assertEqual(result.rc, 1)
        with self.assertRaisesRegex(run.AnswerMismatch, "bad: exit 1"):
            run.check_result(result, "F4^0", loaded.tables, loaded.quandles)
        # Under a cap, only the search-cap error is an accepted failure.
        capped = workloads.Job("capped", bad.argv, cap=3)
        for rc, err in ((1, "error: bad coefficient ring\n"),
                        (-1, "Traceback (most recent call last):\nAssertionError\n")):
            with self.assertRaises(run.AnswerMismatch):
                run.check_result(run.JobResult(capped, 0.1, rc, "", err), "0", {}, None)
        run.check_result(run.JobResult(capped, 0.1, 1, "", "error: hom search exceeded 3 nodes\n"),
                         "0", {}, None)

    def test_a_map_that_is_not_an_isomorphism_is_rejected(self):
        r3 = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
        self.assertTrue(run.is_isomorphism("[2, 0, 1]", r3, r3))
        for text in ("[0, 0, 1]", "[1, 0, 2, 3]", "[0, 1", '["a", 1, 2]'):
            self.assertFalse(run.is_isomorphism(text, r3, r3), text)

    def test_every_job_has_a_stored_answer(self):
        answers = workloads.load_answers(run.ANSWERS)
        for workload in workloads.WORKLOADS.values():
            for job in workload.jobs:
                self.assertIn(job.id, answers)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_without_the_sources_it_fails_without_a_result(self):
        workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, workdir)
        shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
        shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "coh_modp", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
