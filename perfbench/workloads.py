"""The benchmark's workloads: inputs, job lists and how each job's answer is read.

Every job is one `quandle` subcommand. Placeholders such as ``{k6}`` in a job's
arguments name an input file that set-up writes: a ``.lnk`` diagram made by
``synthesize_link`` from a linking graph, or a quandle JSON file. The seed
relabels the elements of every quandle input marked ``relabel``. A job reads a
relabelled input only when neither its checked answer nor its cost depends on
the labels (NOTES.md gives the measurements), so seeds change the inputs but
not the work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    cap: int | None = None  # QUANDLE_SEARCH_CAP for this job only

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    links: dict = field(default_factory=dict)     # input name -> linking weights
    quandles: dict = field(default_factory=dict)  # input name -> (expression, relabel)


def _all_ones(k: int) -> tuple:
    return tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k))


TWIST_511 = ((0, 5, 1), (5, 0, 1), (1, 1, 0))

# P(7, sigma) for one sigma of each cycle type of S_7 (conjugacy_class_representatives(7)).
S7_CLASSES = (
    "(1 2 3 4 5 6 7)", "(1 2 3 4 5 6)", "(1 2 3 4 5)(6 7)", "(1 2 3 4 5)",
    "(1 2 3 4)(5 6 7)", "(1 2 3 4)(5 6)", "(1 2 3 4)", "(1 2 3)(4 5 6)",
    "(1 2 3)(4 5)(6 7)", "(1 2 3)(4 5)", "(1 2 3)", "(1 2)(3 4)(5 6)",
    "(1 2)(3 4)", "(1 2)", "()",
)


def _coh(job_id, quandle, degree, coeff, rho=None) -> Job:
    argv = ["cohomology", quandle, "--degree", str(degree), "--coeff", coeff]
    if rho is not None:
        argv += ["--rho", rho]
    return Job(job_id, tuple(argv))


WORKLOADS = {
    "coh_exact": Workload(
        quandles={"r8": ("R 8", False), "r7": ("R 7", False), "r6": ("R 6", False),
                  "p4c": ("P 4 (1 2 3 4)", False), "p4tt": ("P 4 (1 2)(3 4)", True),
                  "r4": ("R 4", True)},
        jobs=(
            _coh("coh_r8_2_z", "{r8}", 2, "Z"),
            _coh("coh_r7_2_q", "{r7}", 2, "Q"),
            _coh("coh_r6_2_z", "{r6}", 2, "Z"),
            _coh("coh_p4c_3_q", "{p4c}", 3, "Q"),
            _coh("coh_p4tt_3_z", "{p4tt}", 3, "Z"),
            _coh("coh_r4_3_z", "{r4}", 3, "Z"),
            _coh("coh_t6_3_z", "T 6", 3, "Z"),
            _coh("sym_p6_2_z", "P 6 (1 2)(3 4)(5 6)", 2, "Z", rho="(1 2)"),
            _coh("sym_p6_2_q", "P 6 (1 2)(3 4)(5 6)", 2, "Q", rho="(1 2)"),
        ),
    ),
    "coh_modp": Workload(
        quandles={"r6": ("R 6", True), "p5c": ("P 5 (1 2 3 4 5)", True),
                  "r11": ("R 11", False), "r5": ("R 5", True)},
        jobs=(
            _coh("coh_r6_3_z3", "{r6}", 3, "Z3"),
            _coh("coh_t6_3_z5", "T 6", 3, "Z5"),
            _coh("coh_p5c_3_z3", "{p5c}", 3, "Z3"),
            _coh("coh_r11_2_z11", "{r11}", 2, "Z11"),
            _coh("coh_r5_3_z3", "{r5}", 3, "Z3"),
            _coh("sym_p6_2_z2", "P 6 (1 2)(3 4)(5 6)", 2, "Z2", rho="(1 2)"),
        ),
    ),
    "search_prune": Workload(
        links={"twist": TWIST_511, "k5": _all_ones(5), "k6": _all_ones(6)},
        quandles={"p4t": ("P 4 (1 2)", True), "p3c": ("P 3 (1 2 3)", True),
                  "r3": ("R 3", True), "r5": ("R 5", True),
                  "r31": ("R 31", False), "r31x": ("R 31", True)},
        jobs=(
            Job("color_twist_p4t", ("color", "{twist}", "{p4t}")),
            Job("color_k5_p3c", ("color", "{k5}", "{p3c}")),
            Job("color_k6_r3", ("color", "{k6}", "{r3}")),
            Job("color_k5_r5", ("color", "{k5}", "{r5}")),
            Job("color_k6_r5_capped", ("color", "{k6}", "{r5}"), cap=1_000_000),
            Job("iso_r31", ("iso", "{r31}", "{r31x}")),
            Job("aut_r15", ("aut", "R 15")),
            Job("goodinv_r11", ("goodinv", "R 11")),
        ),
    ),
    "enum_dense": Workload(
        links={"k4": _all_ones(4), "k5": _all_ones(5), "k6": _all_ones(6)},
        quandles={"p6t": ("P 6 (1 2)", True), "p4tt": ("P 4 (1 2)(3 4)", True)},
        jobs=(
            Job("homs_p6t", ("homs", "P 6 (1 2)", "{p6t}")),
            Job("goodinv_t10", ("goodinv", "T 10")),
            Job("quiver_k4_p4", ("quiver", "{k4}", "{p4tt}", "--endos", "all")),
            Job("phi_k5_p4", ("phi", "{k5}", "P 4 (1 2)(3 4)", "--theta", "4")),
            Job("phi_k6_p2", ("phi", "{k6}", "P 2 (1 2)", "--theta", "2")),
        ) + tuple(
            Job(f"{sub}_p7_{i:02d}", (sub, f"P 7 {sigma}"))
            for i, sigma in enumerate(S7_CLASSES) for sub in ("poly", "inn")
        ),
    ),
}


def make_inputs(quandles, workload: Workload, seed: int, workdir: str):
    """Write the workload's input files into workdir.

    quandles is the imported package, with its cli module. Returns (paths,
    tables): the file path of each input name, and the Cayley table of each
    quandle input as written.
    """
    rng = random.Random(seed)
    paths, tables = {}, {}
    for name, weights in workload.links.items():
        diagram = quandles.synthesize_link(quandles.LinkingGraph(weights))
        paths[name] = _write(workdir, f"{name}.lnk", diagram.to_text())
    for name, (expression, relabel) in workload.quandles.items():
        q = quandles.cli.load_quandle(expression)
        if relabel:
            order = list(range(q.m))
            rng.shuffle(order)
            q = quandles.relabel_quandle(q, order)
        paths[name] = _write(workdir, f"{name}.json", q.to_json())
        tables[name] = q.table
    return paths, tables


def _write(workdir: str, filename: str, text: str) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def job_argv(job: Job, paths: dict) -> list:
    """The job's arguments with each ``{name}`` replaced by that input's path."""
    return [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in job.argv]


def load_answers(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
