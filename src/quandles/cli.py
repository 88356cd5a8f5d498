"""Command-line interface: one subcommand per library operation.

Quandle arguments accept either a JSON file ({"order": m, "table": [[...]]})
or a constructor expression: "T m", "R m", or "P n (cycles)". Exit codes:
0 success, 1 domain error, 2 usage error. ``--json`` switches every
subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from . import cohomology as coh
from . import invariants, links, morphisms
from .limits import DEFAULT_SEARCH_CAP, Budget
from .quiver import cocycle_invariant, quiver as build_quiver, quiver_dot
from .permutations import _format_image, _parse_image, parse_cycles
from .quandle import Quandle, dihedral, p_quandle, trivial


def _parse_file(path: str, parse):
    """parse(text of the file), with the path in front of any ValueError message."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_quandle(source: str) -> Quandle:
    """A quandle from a JSON file path or a T/R/P constructor expression."""
    if os.path.isfile(source):
        return _parse_file(source, Quandle.from_json)
    fields = source.split(None, 2)
    if not fields:
        raise ValueError("empty quandle argument")
    kind = fields[0].upper()
    if kind in ("T", "R") and len(fields) == 2 or kind == "P" and len(fields) >= 2:
        n = int(fields[1])
        cells = max(n + (kind == "P"), 0) ** 2
        if cells > DEFAULT_SEARCH_CAP:  # a table the default cap allows is never refused
            Budget("table", cells)
        if kind == "P":
            return p_quandle(n, parse_cycles(fields[2] if len(fields) > 2 else "()", n))
        return (trivial if kind == "T" else dihedral)(n)
    raise ValueError(f"not a file or constructor expression: {source!r}")


def load_diagram(path: str) -> links.LinkDiagram:
    return _parse_file(path, links.parse_diagram)


def _emit(args, payload, text) -> None:
    """Print text(), or payload() as JSON under --json: only what is printed is built."""
    out = json.dumps(payload(), sort_keys=True) if args.json else text()
    print(out, flush=True)  # so that a closed pipe raises inside main


_CHUNK = 4096  # answers of a listing read and made one string at a time
_cycle_line = functools.partial(_format_image, first=0)


def _numbers_line(k: int):
    """A line of k space-separated integers from a tuple of them."""
    return " ".join(["%d"] * k).__mod__


def _listing(args, answers, line, head: str, keys) -> None:
    """Print the answers, each a tuple, that the iterator yields, in its order.

    Under --json this is {keys[0]: count, keys[1]: the answers}, else head %
    count and then line(answer) for each answer. The answers are read _CHUNK
    at a time and each slice is made one string of lines or of JSON lists, so
    a long listing holds a few long strings and no object per answer. Nothing
    is printed before the iterator is drained, so a search stopped part-way
    leaves stdout empty.
    """
    chunks, count = [], 0
    while rows := list(islice(answers, _CHUNK)):
        count += len(rows)
        chunks.append(json.dumps(rows)[1:-1] if args.json else "\n".join(map(line, rows)))
    if args.json:  # the answers are spliced into the envelope's empty list
        before, after = json.dumps(dict(zip(keys, (count, []))), sort_keys=True).split("[]")
        print(before + "[", end="")
        print(*chunks, sep=", ", end="]" + after + "\n", flush=True)
    else:  # print writes each chunk in turn, so the listing is never one string
        print(head % count, *chunks, sep="\n", flush=True)


def _cmd_show(args) -> None:
    q = load_quandle(args.quandle)
    _emit(args, lambda: {"order": q.m, "table": [list(r) for r in q.table]}, q.show)


def _cmd_verify(args) -> None:
    q = load_quandle(args.quandle)
    _emit(args, lambda: {"ok": True, "order": q.m}, lambda: f"quandle: OK (order {q.m})")


def _cmd_iso(args) -> None:
    x, y = load_quandle(args.x), load_quandle(args.y)
    f = morphisms.is_isomorphic(x, y)
    _emit(args, lambda: {"isomorphic": f is not None, "map": list(f.image) if f else None},
          lambda: f"isomorphic via {list(f.image)}" if f else "not isomorphic")


def _cmd_aut(args) -> None:
    q = load_quandle(args.quandle)
    maps, _ = morphisms.automorphism_group(q)  # its table checks the group law
    _listing(args, (f.image for f in maps), _cycle_line, "|Aut| = %d", ("order", "maps"))


def _cmd_inn(args) -> None:
    q = load_quandle(args.quandle)
    group = morphisms.inner_group(q)
    _emit(args,
          lambda: {"order": group.order, "cyclic": group.is_cyclic(),
                   "element_orders": sorted(group.element_orders())},
          lambda: f"|Inn| = {group.order}, cyclic: {'yes' if group.is_cyclic() else 'no'}")


def _cmd_homs(args) -> None:
    x, y = load_quandle(args.x), load_quandle(args.y)
    _listing(args, morphisms._search(x, y), _numbers_line(x.m), "%d homomorphisms",
             ("count", "maps"))


def _cmd_homquandle(args) -> None:
    x, a = load_quandle(args.x), load_quandle(args.a)
    hom_q, labels = morphisms.hom_quandle(x, a)

    def payload():
        return {"order": hom_q.m, "table": [list(r) for r in hom_q.table],
                "labels": [list(t) for t in labels]}

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload(), sort_keys=True) + "\n")
        _emit(args, payload, lambda: f"Hom quandle of order {hom_q.m} written to {args.out}")
    else:
        _emit(args, payload, lambda: f"Hom quandle of order {hom_q.m}\n{hom_q.show()}")


def _cmd_poly(args) -> None:
    q = load_quandle(args.quandle)
    poly = invariants.quandle_polynomial(q)
    _emit(args, lambda: {"terms": sorted([s, t, c] for (s, t), c in poly.terms.items())},
          lambda: str(poly))


def _cmd_goodinv(args) -> None:
    q = load_quandle(args.quandle)
    # the cycles of an involution r are the pairs x < r(x), each "(x r(x))"
    opens, closes = ["(%d " % x for x in q.elements], ["%d)" % y for y in q.elements]
    _listing(args, invariants._good_involutions(q),
             lambda r: "".join([opens[x] + closes[y] for x, y in enumerate(r) if x < y]) or "()",
             "%d good involutions", ("count", "involutions"))


def _cmd_cohomology(args) -> None:
    q = load_quandle(args.quandle)
    coeff = coh.Coeff.parse(args.coeff)
    summary = (coh.cohomology_Q(q, args.degree, coeff) if args.rho is None else
               coh.symmetric_cohomology(q, _parse_image(args.rho, q.m, 0), args.degree, coeff))
    _emit(args,
          lambda: {"group": str(summary), "rank": summary.rank,
                   "torsion": list(summary.torsion), "coeff": str(coeff)},
          lambda: str(summary))


def _cmd_color(args) -> None:
    d, q = load_diagram(args.diagram), load_quandle(args.quandle)
    _listing(args, (c.colors for c in links.colorings(d, q)), _numbers_line(d.n_arcs),
             "%d colorings", ("count", "colorings"))


def _cmd_lk(args) -> None:
    d = load_diagram(args.diagram)
    graph = links.linking_graph(d)
    _emit(args, lambda: {"m": graph.m, "weights": [list(r) for r in graph.weights]},
          lambda: "\n".join(" ".join(map(str, row)) for row in graph.weights))


def _cmd_synth(args) -> None:
    graph = _parse_file(args.graph, links.LinkingGraph.from_json)
    d = links.synthesize_link(graph)

    def payload():
        return {"arcs": d.n_arcs, "crossings": len(d.crossings),
                "components": d.n_components, "text": d.to_text()}

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(d.to_text())
        _emit(args, payload,
              lambda: f"{d.n_components}-component diagram with "
                      f"{len(d.crossings)} crossings written to {args.out}")
    else:
        _emit(args, payload, lambda: d.to_text().rstrip("\n"))


def _load_endos(q: Quandle, source: str):
    if source == "all":
        return morphisms.endomorphisms(q)
    images = _parse_file(source, json.loads)
    if not isinstance(images, list):
        raise ValueError(f"{source}: expected a JSON list of images")
    for img in images:
        if not (isinstance(img, list) and len(img) == q.m and all(
                type(v) is int and 0 <= v < q.m for v in img)):
            raise ValueError(f"{source}: image {img} is not a list of {q.m} "
                             f"integers in 0..{q.m - 1}")
    return [morphisms.QuandleMap(q, q, tuple(img)) for img in images]


def _cmd_quiver(args) -> None:
    d, q = load_diagram(args.diagram), load_quandle(args.quandle)
    s = _load_endos(q, args.endos)
    qv = build_quiver(d, q, s)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(quiver_dot(qv))
    _emit(args,
          lambda: {"vertices": qv.n_vertices, "edges": len(qv.edges),
                   "labels": [list(l) for l in qv.labels],
                   "edge_list": [list(e) for e in qv.edges]},
          lambda: f"quiver with {qv.n_vertices} vertices and {len(qv.edges)} edges"
                  + (f", DOT written to {args.dot}" if args.dot else ""))


def _cmd_phi(args) -> None:
    d, q = load_diagram(args.diagram), load_quandle(args.quandle)
    if args.theta != q.m - 1:  # before any cochain of order N+1 is built
        raise ValueError("cochain size does not match the quandle")
    theta = coh.theta_cocycle(args.theta)
    value = cocycle_invariant(d, q, theta)
    _emit(args,
          lambda: {"coeffs": {str(k): v for k, v in sorted(value.coeffs.items())},
                   "at_one": value.evaluate_at_one()},
          lambda: str(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandle",
        description="Finite quandles, their invariants, and link colorings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for pos in positionals:
            p.add_argument(pos)
        p.set_defaults(fn=fn)
        return p

    add("show", _cmd_show, "print a Cayley table", "quandle")
    add("verify", _cmd_verify, "validate the quandle axioms", "quandle")
    add("iso", _cmd_iso, "decide isomorphism", "x", "y")
    add("aut", _cmd_aut, "automorphism group", "quandle")
    add("inn", _cmd_inn, "inner automorphism group", "quandle")
    add("homs", _cmd_homs, "enumerate homomorphisms", "x", "y")

    p = add("homquandle", _cmd_homquandle,
            "pointwise quandle on Hom(X, A), A abelian", "x", "a")
    p.add_argument("--out", default=None)

    add("poly", _cmd_poly, "two-variable quandle polynomial", "quandle")
    add("goodinv", _cmd_goodinv, "good involutions", "quandle")

    p = add("cohomology", _cmd_cohomology, "cohomology groups", "quandle")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--coeff", default="Z", help="Z, Q, or Zp (e.g. Z2)")
    p.add_argument("--rho", default=None,
                   help="good involution in cycle notation, e.g. \"(1 2)\"")

    add("color", _cmd_color, "enumerate colorings", "diagram", "quandle")
    add("lk", _cmd_lk, "pairwise linking numbers", "diagram")

    p = add("synth", _cmd_synth,
            "synthesize a link with a given linking graph", "graph")
    p.add_argument("--out", default=None)

    p = add("quiver", _cmd_quiver, "coloring quiver", "diagram", "quandle")
    p.add_argument("--endos", default="all", help="'all' or a JSON file of images")
    p.add_argument("--dot", default=None, help="write Graphviz output here")

    p = add("phi", _cmd_phi, "2-cocycle invariant", "diagram", "quandle")
    p.add_argument("--theta", type=int, required=True,
                   help="exponent cocycle of the order-(n+1) one-column quandle")
    return parser


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # argparse of 3.10, 3.11 and 3.12.1 turns `--opt=--` into []; 3.13 passes
        # "--" through as the value, so this can go once no supported one does
        if [] in vars(args).values():
            raise ValueError("an option's value cannot be '--'")
        args.fn(args)  # a handler prints its answer or raises
        return 0
    except BrokenPipeError:
        # the reader left (as `| head` does); devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
