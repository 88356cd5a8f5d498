"""Spans around the calls into each `quandles` module, recorded from outside it.

`install` wraps every public function of the traced modules, plus the few
constructors and methods listed in METHODS, in every `quandles.*` namespace
that binds them (``links.colorings`` is also ``quiver.colorings``, and
``quiver.quiver`` is also ``cli.build_quiver``). Per-element calls
(``Quandle.op``/``bar``, ``QuandleMap.__call__``, ``quiver.theta_weight``,
``cli.format_cycles_0based``) are left alone. A span is
``[name, job id, parent index, start, end, counts]``; spans are kept in memory
and the runner writes them out when the run ends. `layer_totals` turns the
spans of one segment (set-up or one pass) into per-layer sums.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "quandle", "permutations", "morphisms", "invariants", "links",
           "cohomology", "linalg", "quiver")
METHODS = (("quandle", "Quandle", "__init__"),
           ("morphisms", "FiniteGroupTable", "__init__"),
           ("morphisms", "QuandleMap", "verify"),
           ("invariants", "SymmetricQuandle", "__init__"))
EXCLUDED = {"quandle.bar_op", "quiver.theta_weight", "cli.format_cycles_0based"}


def _matrix_counts(args, kwargs, result, error):
    a = args[0] if args else kwargs.get("a")
    cells = len(a) * len(a[0]) if a and a[0] else 0
    counts = {"cells_in": cells, "nnz_in": sum(len(row) - row.count(0) for row in a or ())}
    if isinstance(result, int):
        counts["rank"] = result
    return counts


COUNTERS = {
    "linalg.rank_q": _matrix_counts,
    "linalg.rank_p": _matrix_counts,
    "linalg.smith_normal_form": _matrix_counts,
    "linalg.nullspace": _matrix_counts,
    "linalg.integer_kernel_basis": _matrix_counts,
    "cohomology.boundary_matrix": lambda a, k, r, e: None if e else {
        "cells": len(r) * len(r[0]) if r else 0,
        "nnz": sum(len(row) - row.count(0) for row in r)},
    "morphisms.homs": lambda a, k, r, e: None if e else {"solutions": len(r)},
    "morphisms.is_isomorphic": lambda a, k, r, e: None if e else {"solutions": int(r is not None)},
    "morphisms.automorphism_group": lambda a, k, r, e: None if e else {"solutions": len(r[0])},
    "invariants.good_involutions": lambda a, k, r, e: None if e else {"found": len(r)},
    "links.colorings": lambda a, k, r, e: (
        {"capped": int(type(e).__name__ == "SearchCapError")} if e else {"found": len(r)}),
    "links.parse_diagram": lambda a, k, r, e: None if e else {"arcs": r.n_arcs},
    "quiver.quiver": lambda a, k, r, e: None if e else {
        "vertices": r.n_vertices, "edges": len(r.edges)},
}


def _rank_name(args, kwargs) -> str:
    p = args[1] if len(args) > 1 else kwargs.get("p")
    return "linalg.rank_q" if p is None else "linalg.rank_p"


class Tracer:
    """Collects spans while `job` is set; calls made with no job are not recorded."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._current = None

    def take(self) -> list:
        """The spans recorded since the last call, which are then forgotten."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        namer = _rank_name if name == "linalg.rank" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            parent = tracer._current
            span = [namer(args, kwargs) if namer else name, tracer.job, parent, 0.0, 0.0, None]
            tracer._current = len(tracer.spans)
            tracer.spans.append(span)
            result = error = None
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[4] = perf_counter()
                tracer._current = parent
                count = COUNTERS.get(span[0])
                if count is not None:
                    span[5] = count(args, kwargs, result, error)

        return traced


def install(tracer: Tracer) -> list:
    """Wrap the traced callables of the imported `quandles`; returns the undo list."""
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "quandles" or n.startswith("quandles.")]
    undo = []
    for short in MODULES:
        module = sys.modules[f"quandles.{short}"]
        for attr, obj in list(vars(module).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in EXCLUDED or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            wrapper = tracer.wrap(name, obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, obj))
    for short, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"quandles.{short}"], cls_name)
        original = cls.__dict__[method]
        name = f"{short}.{cls_name}" + ("" if method == "__init__" else f".{method}")
        setattr(cls, method, tracer.wrap(name, original))
        undo.append((cls, method, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append((span[3], span[4]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans, subcommand_of: dict) -> dict:
    """Per-layer sums over one segment's spans (all keys present, zero when unused).

    subcommand_of maps a job id to its subcommand, for the ``cli.<sub>_s`` sums.
    """
    own = self_times(spans)
    by_self = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    sub_s = defaultdict(float)
    selfcheck = 0.0
    for span, self_s in zip(spans, own):
        name = span[0]
        by_self[name] += self_s
        by_self[name.split(".", 1)[0] + ".*"] += self_s
        calls[name] += 1
        if span[5]:
            for key, value in span[5].items():
                counts[f"{name}:{key}"] += value
        if span[2] is None and name == "cli.main":
            sub_s[subcommand_of.get(span[1], "setup")] += span[4] - span[3]
        if (name in ("linalg.mat_mul", "linalg.is_zero_matrix") and span[2] is not None
                and spans[span[2]][0] == "cohomology.cochain_slice"):
            selfcheck += span[4] - span[3]

    def c(*keys):
        return sum(counts[k] for k in keys)

    totals = {
        "cli.self_s": by_self["cli.*"],
        "quandle.validate_s": by_self["quandle.Quandle"],
        "quandle.validate_calls": calls["quandle.Quandle"],
        "permutations.s": by_self["permutations.*"],
        "morphisms.search_s": sum(by_self[f"morphisms.{f}"] for f in (
            "homs", "endomorphisms", "is_isomorphic", "automorphism_group")),
        "morphisms.solutions": c("morphisms.homs:solutions", "morphisms.is_isomorphic:solutions",
                                 "morphisms.automorphism_group:solutions"),
        "morphisms.group_table_s": by_self["morphisms.FiniteGroupTable"],
        "morphisms.map_verify_s": by_self["morphisms.QuandleMap.verify"],
        "invariants.goodinv_self_s": by_self["invariants.good_involutions"],
        "invariants.symmetric_validate_s": by_self["invariants.SymmetricQuandle"],
        "invariants.goodinv_found": c("invariants.good_involutions:found"),
        "invariants.polynomial_s": by_self["invariants.quandle_polynomial"],
        "links.colorings_s": by_self["links.colorings"],
        "links.colorings_found": c("links.colorings:found"),
        "links.colorings_capped": c("links.colorings:capped"),
        "links.synth_s": by_self["links.synthesize_link"],
        "links.parse_s": by_self["links.parse_diagram"],
        "links.arcs": c("links.parse_diagram:arcs"),
        "cohomology.basis_s": by_self["cohomology.tuple_basis"],
        "cohomology.boundary_s": by_self["cohomology.boundary_matrix"],
        "cohomology.slice_self_s": by_self["cohomology.cochain_slice"],
        "cohomology.selfcheck_s": selfcheck,
        "cohomology.relations_s": by_self["cohomology.rho_relation_rows"],
        "cohomology.cocycle_check_s": by_self["cohomology.is_2cocycle"],
        "cohomology.cells": c("cohomology.boundary_matrix:cells"),
        "cohomology.nnz": c("cohomology.boundary_matrix:nnz"),
        "linalg.rank_q_s": by_self["linalg.rank_q"],
        "linalg.rank_p_s": by_self["linalg.rank_p"],
        "linalg.snf_s": by_self["linalg.smith_normal_form"],
        "linalg.nullspace_s": by_self["linalg.nullspace"],
        "linalg.kernel_z_s": by_self["linalg.integer_kernel_basis"],
        "linalg.transpose_s": by_self["linalg.transpose"],
        "linalg.cells_in": sum(v for k, v in counts.items() if k.endswith(":cells_in")),
        "linalg.nnz_in": sum(v for k, v in counts.items() if k.endswith(":nnz_in")),
        "linalg.rank_sum": c("linalg.rank_q:rank", "linalg.rank_p:rank"),
        "quiver.build_self_s": by_self["quiver.quiver"],
        "quiver.vertices": c("quiver.quiver:vertices"),
        "quiver.edges": c("quiver.quiver:edges"),
        "quiver.phi_self_s": by_self["quiver.cocycle_invariant"],
        "quiver.iso_s": by_self["quiver.quiver_isomorphic"],
        "quiver.dot_s": by_self["quiver.quiver_dot"],
        "trace.self_sum_s": sum(own),
        "trace.spans": len(spans),
    }
    for sub, seconds in sub_s.items():
        totals[f"cli.{sub}_s"] = seconds
    return totals
