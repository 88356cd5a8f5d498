#!/usr/bin/env python3
"""Benchmark of the `quandle` CLI on four workloads (see NOTES.md).

    python3 perfbench/run.py --workload coh_exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Each job is a real subcommand, called in-process through
``quandles.cli.main(argv)`` with stdout captured in memory. The load is one
process, one thread and a closed loop with one client: the job list runs as
passes, each job starting when the previous one returns, until ``--seconds``
is spent. Every pass starts with a fresh import and input set-up. Every answer
is checked against answers.json as soon as its job returns. A mismatch, or a
job that exits non-zero other than by hitting its own search cap, aborts the
run with exit code 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. Slices
of a fixed reference loop are timed between the jobs of every pass, for about
a tenth of the jobs' time, and every time in that pass is scaled by
REF_S / (the slices' mean time): seconds at the speed at which a slice takes
REF_S. The metrics are medians over the passes of these scaled times
(NOTES.md says why). With ``--trace 1`` half the time runs untraced and half
traced (spans.py), and the last line reports the per-layer metrics, which are
not scaled. A record with the run's metadata, the raw per-job times and
reference timings and, when traced, every span is written to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = HERE / "answers.json"
CAP_VAR = "QUANDLE_SEARCH_CAP"
CAP_ERROR = re.compile(r"error: \w+ search exceeded \d+ nodes")
# A reference slice's time on a quiet machine (a 2-vCPU x86-64 guest, Python
# 3.11): the speed that reported times are scaled to.
REF_S = 0.01
# A pass times one reference slice before its first job. Once its jobs have run
# REF_EVERY_S since the last slices, it times slices for REF_SHARE of that time.
REF_EVERY_S = 0.1
REF_SHARE = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_max_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = sorted({job.subcommand for w in workloads.WORKLOADS.values() for job in w.jobs})
PER_LAYER = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    "quandle.validate_s": "s", "quandle.validate_calls": "count",
    "permutations.s": "s",
    "morphisms.search_s": "s", "morphisms.solutions": "count",
    "morphisms.solutions_per_s": "1/s", "morphisms.group_table_s": "s",
    "morphisms.map_verify_s": "s",
    "invariants.goodinv_self_s": "s", "invariants.symmetric_validate_s": "s",
    "invariants.goodinv_found": "count", "invariants.polynomial_s": "s",
    "links.colorings_s": "s", "links.colorings_found": "count",
    "links.colorings_capped": "count", "links.synth_s": "s", "links.parse_s": "s",
    "links.arcs": "count",
    "cohomology.basis_s": "s", "cohomology.boundary_s": "s", "cohomology.slice_self_s": "s",
    "cohomology.selfcheck_s": "s", "cohomology.relations_s": "s",
    "cohomology.cocycle_check_s": "s", "cohomology.cells": "count", "cohomology.nnz": "count",
    "linalg.rank_q_s": "s", "linalg.rank_p_s": "s", "linalg.snf_s": "s",
    "linalg.nullspace_s": "s", "linalg.kernel_z_s": "s", "linalg.transpose_s": "s",
    "linalg.cells_in": "count", "linalg.nnz_in": "count", "linalg.density": "frac",
    "linalg.rank_sum": "count",
    "quiver.build_self_s": "s", "quiver.vertices": "count", "quiver.edges": "count",
    "quiver.phi_self_s": "s", "quiver.iso_s": "s", "quiver.dot_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac", "trace.spans": "count",
}


class AnswerMismatch(Exception):
    """A job's output disagrees with the stored answer, or the job failed.

    Only a job run under its own search cap may exit non-zero, and only with
    the search-cap error; any other error or traceback is a wrong answer.
    """


@dataclass
class JobResult:
    job: workloads.Job
    seconds: float
    rc: int
    out: str
    err: str


class Timing(NamedTuple):
    """What a pass keeps of a checked job: retained memory must not grow with passes."""

    id: str
    seconds: float
    rc: int


def run_job(cli, job, argv, tracer=None) -> JobResult:
    """Run one subcommand in-process; only the call to main is timed."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get(CAP_VAR)
    if job.cap is not None:
        os.environ[CAP_VAR] = str(job.cap)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.job = job.id
            start = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed job, not a wrong answer
                rc = -1
                traceback.print_exc()
            seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.job = None
        if job.cap is not None:
            if saved is None:
                del os.environ[CAP_VAR]
            else:
                os.environ[CAP_VAR] = saved
    return JobResult(job, seconds, rc, out.getvalue(), err.getvalue())


def check_result(result: JobResult, expected: str, tables: dict, quandles) -> None:
    """Compare a job's summary with its stored answer; a capped job may fail by its cap."""
    job = result.job
    if result.rc != 0:
        if job.cap is not None and result.rc == 1 and CAP_ERROR.fullmatch(result.err.strip()):
            return
        raise AnswerMismatch(f"{job.id}: exit {result.rc}: {result.err.strip()[-300:]!r}")
    lines = result.out.splitlines()
    head = lines[0] if lines else ""
    sub = job.subcommand
    if sub == "iso" and head.startswith("isomorphic via "):
        x, y = (tables[arg[1:-1]] for arg in job.argv[1:3])
        if not is_isomorphism(head[len("isomorphic via "):], x, y):
            raise AnswerMismatch(f"{job.id}: {head!r} does not give an isomorphism")
        head = "isomorphic"
    if head != expected:
        raise AnswerMismatch(f"{job.id}: got {head!r}, stored answer {expected!r}")
    if sub in ("color", "homs", "goodinv", "aut"):
        count = int(head.split()[-1] if sub == "aut" else head.split()[0])
        if count != len(lines) - 1:
            raise AnswerMismatch(f"{job.id}: {head!r} but {len(lines) - 1} items listed")
    elif sub == "poly" and job.argv[1].startswith("P "):
        _, n, cycles = job.argv[1].split(None, 2)
        sigma = quandles.parse_cycles(cycles, int(n))
        formula = str(quandles.p_polynomial_formula(int(n), sigma))
        if head != formula:
            raise AnswerMismatch(f"{job.id}: {head!r} but the closed form gives {formula!r}")


def is_isomorphism(text: str, x, y) -> bool:
    """Whether text is a JSON image list of a bijective homomorphism between tables x and y."""
    try:
        image = json.loads(text)
        m = len(x)
        return (len(y) == m and sorted(image) == list(range(m))
                and all(image[x[a][b]] == y[image[a]][image[b]]
                        for a in range(m) for b in range(m)))
    except (ValueError, TypeError):
        return False


class Loaded(NamedTuple):
    """A fresh import of `quandles` and the inputs written with it."""

    quandles: object
    cli: object
    paths: dict
    tables: dict


def setup(workload, seed, workdir) -> Loaded:
    """Import `quandles` afresh and write the workload's inputs."""
    for name in [n for n in sys.modules if n == "quandles" or n.startswith("quandles.")]:
        del sys.modules[name]
    quandles = importlib.import_module("quandles")
    cli = importlib.import_module("quandles.cli")
    return Loaded(quandles, cli, *workloads.make_inputs(quandles, workload, seed, workdir))


def run_passes(workload, seed, workdir, budget, check, loaded=None, tracer=None):
    """Run the job list in passes until the next pass would overrun budget seconds.

    Untraced, every pass starts with its own timed set-up, so that set-up is
    sampled across the run like the jobs are. Traced, the passes reuse `loaded`,
    whose modules carry the tracer's wrappers. Each pass starts with a full
    garbage collection, and reference slices are timed between its jobs, both
    outside the timed parts. Each job is checked as soon as it returns, and
    only its Timing is kept. Returns (passes, loaded).
    """
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start + max(p["pass_s"] for p in passes) <= budget:
        # The previous pass's modules and inputs are cyclic garbage; left to the
        # collector's own schedule, they would make peak RSS grow with passes.
        gc.collect()
        begin_pass = perf_counter()
        slices = [reference_s()]
        setup_s = 0.0
        if tracer is None:
            begin = perf_counter()
            loaded = setup(workload, seed, workdir)
            setup_s = perf_counter() - begin
        timings, output_bytes, since_slice = [], 0, setup_s
        for job in workload.jobs:
            result = run_job(loaded.cli, job, workloads.job_argv(job, loaded.paths), tracer)
            check(result, loaded)
            timings.append(Timing(job.id, result.seconds, result.rc))
            output_bytes += len(result.out.encode())
            since_slice += result.seconds
            if since_slice >= REF_EVERY_S:
                slices += reference_slices(REF_SHARE * since_slice)
                since_slice = 0.0
        passes.append({
            "ref_s": statistics.fmean(slices),
            "ref_slices": len(slices),
            "setup_s": setup_s,
            "timings": timings,
            "output_bytes": output_bytes,
            "wall_s": sum(t.seconds for t in timings),
            "spans": tracer.take() if tracer is not None else None,
            "pass_s": perf_counter() - begin_pass,
        })
    return passes, loaded


def scaled_medians(passes) -> dict:
    """Medians over the passes of set-up, pass and per-job times, each scaled by REF_S / ref_s."""
    def median(values):
        return statistics.median(v * REF_S / p["ref_s"] for v, p in zip(values, passes))
    jobs = zip(*([t.seconds for t in p["timings"]] for p in passes))
    return {"setup_s": median(p["setup_s"] for p in passes),
            "wall_s": median(p["wall_s"] for p in passes),
            "jobs": [median(times) for times in jobs]}


def git_revision():
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def reference_s() -> float:
    """One timed slice of a fixed loop of the jobs' kind of work: Fraction sums, tuple-keyed dicts.

    The machine's speed right now. On a shared host it shifts by up to 2x,
    within a pass and for minutes at a time, and the load average does not
    show it.
    """
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(4_000):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[i % 97, i % 89] = i
    return perf_counter() - start


def reference_slices(seconds: float) -> list:
    """Time reference slices, at least one, until they add up to the given seconds."""
    slices = [reference_s()]
    while sum(slices) < seconds:
        slices.append(reference_s())
    return slices


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "ref_s_scale": REF_S,
    }


def per_layer(setup_spans, traced, plain, subcommand_of) -> dict:
    """Per-layer metrics: set-up spans plus the median traced pass, key by key."""
    base = spans.layer_totals(setup_spans, subcommand_of)
    per_pass = [spans.layer_totals(p["spans"], subcommand_of) for p in traced]
    metrics = {name: base.get(name, 0) + statistics.median(t.get(name, 0) for t in per_pass)
               for name in PER_LAYER}
    metrics["cli.output_bytes"] = plain[0]["output_bytes"]
    search_s = metrics["morphisms.search_s"]
    metrics["morphisms.solutions_per_s"] = metrics["morphisms.solutions"] / search_s if search_s else 0.0
    cells = metrics["linalg.cells_in"]
    metrics["linalg.density"] = metrics["linalg.nnz_in"] / cells if cells else 0.0
    plain_wall, traced_wall = scaled_medians(plain)["wall_s"], scaled_medians(traced)["wall_s"]
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    metrics["trace.unattributed_frac"] = statistics.median(
        (p["wall_s"] - t["trace.self_sum_s"]) / p["wall_s"] for p, t in zip(traced, per_pass))
    return metrics


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    answers = workloads.load_answers(ANSWERS)
    meta = metadata(args)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    record = {"meta": meta}
    try:
        def check(result, loaded):
            nonlocal attempted, failed
            attempted += 1
            failed += result.rc != 0
            check_result(result, answers[result.job.id], loaded.tables, loaded.quandles)

        budget = args.seconds / 2 if args.trace else args.seconds
        plain, loaded = run_passes(workload, args.seed, str(workdir), budget, check)
        traced = setup_spans = None
        if args.trace:
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                tracer.job = "setup"
                workloads.make_inputs(loaded.quandles, workload, args.seed, str(workdir))
                tracer.job = None
                setup_spans = tracer.take()
                traced, _ = run_passes(workload, args.seed, str(workdir), budget, check,
                                       loaded, tracer)
            finally:
                spans.uninstall(undo)
    except AnswerMismatch as exc:
        print(f"error: wrong answer or failed job: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if args.trace:
        subcommand_of = {job.id: job.subcommand for job in workload.jobs}
        values = per_layer(setup_spans, traced, plain, subcommand_of)
        units = PER_LAYER
    else:
        scaled = scaled_medians(plain)
        values = {
            "setup_s": scaled["setup_s"],
            "wall_s": scaled["wall_s"],
            "job_max_s": max(scaled["jobs"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    meta.update(loadavg_end=os.getloadavg())
    ref_times = [p["ref_s"] for p in plain + (traced or [])]
    record.update(
        metrics=metrics, attempted=attempted, failed=failed,
        passes=[{"traced": p["spans"] is not None, "ref_s": p["ref_s"],
                 "ref_slices": p["ref_slices"],
                 "setup_s": p["setup_s"], "jobs": [list(t) for t in p["timings"]]}
                for p in plain + (traced or [])],
        setup_spans=setup_spans,
        spans=[p["spans"] for p in traced] if traced else None,
    )
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          + (f"+{len(traced)} traced" if traced else "") + f"  record .perfbench_out/{name}")
    for metric, entry in metrics.items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} frac ({failed}/{attempted} jobs)")
    print(f"  {'unscaled wall_s (median of passes)':34s}"
          f" {statistics.median(p['wall_s'] for p in plain):14.6g} s")
    print(f"  {'reference loop (min..max)':34s} {min(ref_times):.4g}..{max(ref_times):.4g} s"
          f" (scale {REF_S} s)")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), one after another."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        merged[f"{name}.failed_frac"] = {"value": result["failed"] / result["attempted"],
                                         "unit": "frac"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        source = Path(importlib.import_module("quandles.cli").__file__).resolve()
    except ImportError as exc:
        source = exc
    if not isinstance(source, Path) or not source.is_relative_to(ROOT / "src"):
        print(f"error: cannot import quandles from {ROOT / 'src'}: {source}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
