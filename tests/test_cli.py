import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import quandles
from helpers import FIXTURES, ORACLE_QUANDLES, all_ones_graph, cycle_text
from quandles import (
    SearchCapError,
    automorphism_group,
    cli,
    conjugacy_class_representatives,
    format_cycles,
    good_involutions,
    homs,
    morphisms,
    synthesize_link,
)
from quandles.cli import load_quandle, main
from quandles.permutations import _format_image, _parse_image

HOPF = str(FIXTURES / "hopf_pos.lnk")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constructor_expressions():
    assert load_quandle("T 3").table == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert load_quandle("R 3").table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert load_quandle("P 2 (1 2)").table == ((0, 0, 0), (2, 1, 1), (1, 2, 2))
    assert load_quandle("P 3").m == 4  # identity permutation
    with pytest.raises(ValueError):
        load_quandle("X 3")


def test_quandle_file_round_trip(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(load_quandle("T 3").to_json())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.strip() == "quandle: OK (order 3)"


def test_poly_output(capsys):
    code, out, _ = run(capsys, "poly", "P 3 (1 2)")
    assert code == 0
    assert out.strip() == "s^4t^4 + 2s^3t^4 + s^4t^2"


def test_cohomology_output(capsys):
    code, out, _ = run(capsys, "cohomology", "P 3 (1 2 3)", "--degree", "2",
                       "--coeff", "Z")
    assert code == 0
    assert out.strip() == "Z^2"
    code, out, _ = run(capsys, "cohomology", "P 2 (1 2)", "--coeff", "Z2",
                       "--rho", "(1 2)")
    assert code == 0
    assert out.strip() == "F2^1"


def test_cohomology_json_names_the_coefficients(capsys):
    assert run(capsys, "cohomology", "R 4", "--degree", "3", "--json") == (0, json.dumps(
        {"coeff": "Z", "group": "Z^2 (+) Z/2 (+) Z/2", "rank": 2, "torsion": [2, 2]}) + "\n", "")
    assert run(capsys, "cohomology", "R 6", "--degree", "3", "--coeff", "Z3", "--json") == (
        0, '{"coeff": "Z3", "group": "F3^4", "rank": 4, "torsion": []}\n', "")


def test_cohomology_degree_four_with_or_without_a_trivial_column(capsys):
    assert run(capsys, "cohomology", "P 7 (1 2 3)", "--degree", "4") == (0, "Z^750\n", "")
    assert run(capsys, "cohomology", "R 4", "--degree", "4") == (
        0, "Z^2 (+) Z/2 (+) Z/2 (+) Z/2 (+) Z/2\n", "")


def test_cohomology_charges_the_square_of_its_degree(capsys, monkeypatch):
    # the listing builds tuples of up to n + 1 entries one entry at a time, so
    # n^2 nodes are charged first: 3162^2 = 9,998,244 fits the default cap
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    assert run(capsys, "cohomology", "T 2", "--degree", "3162") == (0, "Z^2\n", "")
    assert run(capsys, "cohomology", "T 2", "--degree", "3163") == (
        1, "", "error: cochain search exceeded 10000000 nodes\n")
    for n in (1, 0, -1):
        assert run(capsys, "cohomology", "R 4", f"--degree={n}") == (
            1, "", f"error: degree {n} is below 2\n")


def test_show_and_json_agree(capsys):
    code, out, _ = run(capsys, "show", "T 2")
    assert code == 0 and out == "0 0\n1 1\n"
    code, out, _ = run(capsys, "show", "T 2", "--json")
    assert code == 0
    assert json.loads(out) == {"order": 2, "table": [[0, 0], [1, 1]]}


def test_iso_aut_inn_homs(capsys):
    code, out, _ = run(capsys, "iso", "P 3 (1 2)", "P 3 (2 3)")
    assert code == 0 and out.startswith("isomorphic via")
    code, out, _ = run(capsys, "iso", "T 3", "R 3", "--json")
    assert json.loads(out)["isomorphic"] is False
    code, out, _ = run(capsys, "aut", "P 2 (1 2)", "--json")
    assert json.loads(out)["order"] == 2
    code, out, _ = run(capsys, "inn", "P 3 (1 2 3)")
    assert out.strip() == "|Inn| = 3, cyclic: yes"
    code, out, _ = run(capsys, "homs", "P 2 (1 2)", "P 2 (1 2)", "--json")
    assert json.loads(out)["count"] == 7


def test_goodinv_output(capsys):
    code, out, _ = run(capsys, "goodinv", "P 2 (1 2)")
    assert out.splitlines() == ["2 good involutions", "()", "(1 2)"]
    code, out, _ = run(capsys, "goodinv", "P 3 (1 2 3)", "--json")
    assert json.loads(out) == {"count": 0, "involutions": []}


def test_homquandle_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "hom.json"
    code, out, _ = run(capsys, "homquandle", "P 2 (1 2)", "P 2 (1 2)",
                       "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["order"] == 7 and len(data["labels"]) == 7
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0 and "order 7" in out


def test_color_and_lk(capsys):
    code, out, _ = run(capsys, "color", HOPF, "P 2 (1 2)", "--json")
    assert json.loads(out)["count"] == 5
    code, out, _ = run(capsys, "lk", HOPF)
    assert out == "0 1\n1 0\n"


def test_synth_roundtrip(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"m": 2, "weights": [[0, 3], [3, 0]]}))
    out_path = tmp_path / "d.lnk"
    code, out, _ = run(capsys, "synth", str(graph_path), "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "lk", str(out_path))
    assert out == "0 3\n3 0\n"


def test_synth_prints_the_diagram_without_out(tmp_path, capsys):
    graph_path = tmp_path / "hopf.json"
    graph_path.write_text(json.dumps({"m": 2, "weights": [[0, 1], [1, 0]]}))
    assert run(capsys, "synth", str(graph_path)) == (0, "X 0 1 0 +\nX 1 0 1 +\n", "")
    assert run(capsys, "synth", str(graph_path), "--json") == (0, json.dumps(
        {"arcs": 2, "components": 2, "crossings": 2, "text": "X 0 1 0 +\nX 1 0 1 +\n"}) + "\n", "")


def test_quiver_and_phi(tmp_path, capsys):
    dot_path = tmp_path / "q.dot"
    code, out, _ = run(capsys, "quiver", HOPF, "P 2 (1 2)", "--dot", str(dot_path))
    assert code == 0 and "5 vertices and 35 edges" in out
    assert dot_path.read_text() == (FIXTURES / "hopf_p3_end.dot").read_text()
    code, out, _ = run(capsys, "phi", HOPF, "P 2 (1 2)", "--theta", "2")
    assert out.strip() == "5"
    code, out, _ = run(capsys, "phi", str(FIXTURES / "torus24_pos.lnk"),
                       "P 2 (1 2)", "--theta", "2", "--json")
    assert json.loads(out) == {"coeffs": {"0": 5, "2": 4}, "at_one": 9}


def test_quiver_endos_from_file(tmp_path, capsys):
    endos_path = tmp_path / "endos.json"
    endos_path.write_text(json.dumps([[0, 1, 2]]))
    code, out, _ = run(capsys, "quiver", HOPF, "P 2 (1 2)",
                       "--endos", str(endos_path))
    assert code == 0 and "5 vertices and 5 edges" in out


def test_exit_codes(capsys, tmp_path):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2  # unknown subcommand is a usage error
    code, _, err = run(capsys, "verify", "Z 3")
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "table": [[0, 0], [0, 1]]}))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "column" in err
    code, _, err = run(capsys, "phi", HOPF, "T 3", "--theta", "3")
    assert code == 1  # cochain size does not match the quandle
    code, _, _ = run(capsys, "lk", str(tmp_path / "missing.lnk"))
    assert code == 1


def test_malformed_json_inputs_are_one_line_errors(capsys, tmp_path):
    cases = [
        ("verify", {"order": 2}),
        ("verify", {"order": 2, "table": [[0, 0], [True, 1]]}),
        ("synth", {"m": 2}),
    ]
    for command, data in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == "", data
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_file_errors_name_the_file(capsys, tmp_path):
    cases = [
        ("synth", "g.json", {"m": 2, "weights": [[0, "x"], ["x", 0]]}, "is not an integer"),
        ("synth", "g.json", {"m": 2, "weights": [[0, True], [True, 0]]}, "is not an integer"),
        ("synth", "g.json", {"m": 2}, '"weights"'),
        ("verify", "q.json", {"order": 2}, '"table"'),
        ("verify", "q.json", {"order": 2, "table": [[0, 0], [0, 1]]}, "column"),
    ]
    for command, name, data, what in cases:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == "", data
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert what in err, err
    path = tmp_path / "bad.lnk"
    path.write_text("X 0 1\n")
    code, _, err = run(capsys, "color", str(path), "T 2")
    assert code == 1 and err == f"error: {path}: line 1: cannot parse 'X 0 1'\n"


def test_goodinv_honours_the_search_cap(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "1000")
    code, out, err = run(capsys, "goodinv", "T 13")
    assert code == 1 and out == ""
    assert err == "error: involution search exceeded 1000 nodes\n"


def test_goodinv_charges_involutions_built_not_kept(capsys, monkeypatch):
    # P(3, (1 2)) builds 4 involutions and keeps 2: the cap counts all 4
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "4")
    assert run(capsys, "goodinv", "P 3 (1 2)") == (0, "2 good involutions\n()\n(1 2)\n", "")
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "3")
    assert run(capsys, "goodinv", "P 3 (1 2)") == (
        1, "", "error: involution search exceeded 3 nodes\n")
    monkeypatch.delenv("QUANDLE_SEARCH_CAP")
    code, out, _ = run(capsys, "goodinv", "P 9 (1 2)")
    assert code == 0 and out.startswith("464 good involutions\n")


def test_quiver_endos_are_checked(capsys, tmp_path):
    endos_path = tmp_path / "endos.json"
    for images in ([[0, 1]], [[0, 1, 2, 3]], [[0, 1, 3]], [[0, 1, True]], [[0, 1, -1]],
                   [0, 1, 2], {"a": 1}):
        endos_path.write_text(json.dumps(images))
        code, out, err = run(capsys, "quiver", HOPF, "T 3", "--endos", str(endos_path))
        assert code == 1 and out == "", images
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_search_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "3")
    code, _, err = run(capsys, "homs", "T 3", "T 3")
    assert code == 1 and "exceeded" in err
    monkeypatch.delenv("QUANDLE_SEARCH_CAP")
    code, _, _ = run(capsys, "homs", "T 3", "T 3")
    assert code == 0


def test_closed_stdout_pipe_exits_quietly():
    # T10 has 9496 involutions, about 180 kB of output: more than a pipe
    # buffer holds, so the command is still writing when the pipe closes
    src = str(Path(quandles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "quandles", "goodinv", "T 10"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline() == b"9496 good involutions\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_output_is_deterministic(capsys):
    first = run(capsys, "quiver", HOPF, "P 2 (1 2)", "--json")
    second = run(capsys, "quiver", HOPF, "P 2 (1 2)", "--json")
    assert first == second


def test_cycle_notation_helpers():
    assert _parse_image("(1 2)", 3, 0) == (0, 2, 1)
    assert _parse_image("(0 1)", 3, 0) == (1, 0, 2)
    assert _format_image((0, 2, 1), 0) == "(1 2)"
    assert _format_image((0, 1, 2), 0) == "()"
    assert _parse_image("()", 2, 0) == (0, 1)


def test_lk_json_round_trips_into_linking_graph(capsys):
    from quandles import LinkingGraph

    code, out, _ = run(capsys, "lk", HOPF, "--json")
    assert code == 0
    graph = LinkingGraph.from_json(out)
    assert graph.weights == ((0, 1), (1, 0))


@pytest.mark.parametrize("value", ("abc", "-1"))
def test_search_cap_env_must_be_a_non_negative_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", value)
    code, out, err = run(capsys, "aut", "R 3")
    assert code == 1 and out == ""
    assert err == f"error: QUANDLE_SEARCH_CAP must be a non-negative integer, not {value!r}\n"


def test_search_cap_env_zero_is_a_valid_cap(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "0")
    code, out, err = run(capsys, "aut", "R 3")
    assert code == 1 and out == ""
    assert err == "error: hom search exceeded 0 nodes\n"


@pytest.mark.parametrize("rho, message", [
    ("(1 2)(3 4)", "point 4 outside 0..3"),
    ("(1 2 1)", "point 1 repeated"),
    ("(1 2", "malformed cycle notation: '(1 2'"),
])
def test_rho_errors_name_the_point_as_typed(capsys, rho, message):
    code, out, err = run(capsys, "cohomology", "R 4", "--degree", "2", "--rho", rho)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_aut_refuses_a_group_table_over_the_cap(capsys, monkeypatch):
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", "T 8")  # 40320^2 cells
    assert code == 1 and out == ""
    assert err == "error: group search exceeded 10000000 nodes\n"
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("argv, cells, head", [
    (("aut", "T 5"), 120**2, "|Aut| = 120"),
    (("inn", "R 5"), 10**2, "|Inn| = 10, cyclic: no"),
])
def test_group_table_answers_at_a_cap_of_its_cells(capsys, monkeypatch, argv, cells, head):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cells))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == head
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cells - 1))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: group search exceeded {cells - 1} nodes\n"


@pytest.mark.parametrize("argv, what, cells, head", [
    # R4 splits at the first entry's orbit, {0, 2} or {1, 3}; each block has
    # 2 * 3^(k-1) non-degenerate k-tuples, 6, 18 and 54 for k = 2, 3, 4, so
    # its delta_in and delta_out hold 18 * (6 + 54) cells: half of the
    # whole slice's 36 * (12 + 108) = 4,320
    (("cohomology", "R 4", "--degree", "3"), "cochain", 2 * 18 * (6 + 54),
     "Z^2 (+) Z/2 (+) Z/2"),
    # the blocks of P3 (1 2 3) by the orbit of the first entry and the orbit
    # word of the inert entries: four with faces, of 9 + 225 + 90 + 576 = 900
    # of the whole slice's 4,320 cells; the 156 tuples listed first are
    # charged apart, and fewer
    (("cohomology", "P 3 (1 2 3)", "--degree", "3"), "cochain", 900, "Z^2"),
    # R8's two blocks, of 4 * 7^(k-1) k-tuples, hold 196 * (28 + 1372) cells
    # each; x -> x+1 swaps them, so one is built and both are charged
    (("cohomology", "R 8", "--degree", "3"), "cochain", 2 * 196 * (28 + 1372),
     "Z^2 (+) Z/2 (+) Z/2"),
    # P4 (1 2)(3 4) has 18 blocks in 9 classes, as (1 3)(2 4) swaps the two
    # orbits {1, 2} and {3, 4}: each class is built once and charged twice,
    # 976 cells in all after the 420 tuples listed first
    (("cohomology", "P 4 (1 2)(3 4)", "--degree", "3"), "cochain", 976, "Z^12"),
    # R5 is one block: c_3, c_4, c_5 = 5 * 4^(k-1) = 80, 320, 1280, so
    # delta_in and delta_out hold 320 * (80 + 1280) cells
    (("cohomology", "R 5", "--degree", "4"), "cochain", 320 * (80 + 1280), "Z/5"),
    # R3 with rho = id is one block: c_7, c_8, c_9 = 3 * 2^(k-1) = 192, 384,
    # 768, and 8 relation rows per basis 8-tuple
    (("cohomology", "R 3", "--degree", "8", "--rho", "()"), "cochain",
     384 * (192 + 768 + 8 * 384), "0"),
    # 7 homs, so 7^3 axiom checks of the Hom quandle; the hom search takes fewer
    (("homquandle", "P 2 (1 2)", "P 2 (1 2)"), "homquandle", 7**3,
     "Hom quandle of order 7"),
    # 3^4 colorings of four unknots over T3, times its 3^3 endomorphisms
    (("quiver", str(FIXTURES / "unlink4.lnk"), "T 3"), "quiver", 3**4 * 3**3,
     "quiver with 81 vertices and 2187 edges"),
], ids=["cohomology", "cohomology-blocks", "cohomology-R8-classes", "cohomology-P4-classes",
        "cohomology-R5-degree4", "cohomology-R3-degree8-rho",
        "homquandle", "quiver"])
def test_builds_answer_at_a_cap_of_their_cells(capsys, monkeypatch, argv, what, cells, head):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cells))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == head
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cells - 1))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {what} search exceeded {cells - 1} nodes\n"


@pytest.mark.parametrize("argv, message", [
    (("cohomology", "R 40", "--degree", "3"), "cochain search exceeded 10000000 nodes"),
    # one block of 1512 * (252 + 9072) = 14,097,888 cells
    (("cohomology", "R 7", "--degree", "4"), "cochain search exceeded 10000000 nodes"),
    # n^2 nodes, charged before any power of m is formed
    (("cohomology", "R 3", "--degree", "1000000000"), "cochain search exceeded 10000000 nodes"),
    (("cohomology", "T 2", "--degree", "100000"), "cochain search exceeded 10000000 nodes"),
    (("cohomology", "T 1", "--degree", "10000000"), "cochain search exceeded 10000000 nodes"),
    (("homquandle", "T 3", "T 10"), "homquandle search exceeded 10000000 nodes"),
    (("cohomology", "R 3", "--coeff", "Z" + "9" * 400),
     "primality search exceeded 10000000 nodes"),
    (("cohomology", "R 3", "--coeff", f"Z{2**61 - 1}"),
     "primality search exceeded 10000000 nodes"),
    (("phi", HOPF, "P 2 (1 2)", "--theta", "100000"),
     "cochain size does not match the quandle"),
    # a constructor's table charges its cells before it is built; int()
    # reads the Arabic-Indic digits, so the second is P 33333
    (("verify", "T 20000"), "table search exceeded 10000000 nodes"),
    (("verify", "P 3\u0663\u0663\u0663\u0663"), "table search exceeded 10000000 nodes"),
    # a linking weight w is 2|w| crossings, charged before any is made
    (("synth", str(FIXTURES / "linking_1e8.json")), "crossing search exceeded 10000000 nodes"),
    # 6^4 colorings of four unknots times the 6^6 endomorphisms of T6 are
    # 60,466,176 edges, charged before any is built
    (("quiver", str(FIXTURES / "unlink4.lnk"), "T 6", "--endos", "all"),
     "quiver search exceeded 10000000 nodes"),
], ids=["cohomology-R40-degree3", "cohomology-R7-degree4", "cohomology-R3-degree10^9",
        "cohomology-T2-degree10^5", "cohomology-T1-degree10^7", "homquandle-T3-T10",
        "modulus-400-nines", "modulus-2^61-1", "phi-theta-100000", "verify-T20000", "verify-P-arabic-digits",
        "synth-weight-10^8", "quiver-unlink4-T6"])
def test_oversized_builds_stop_at_once(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_homquandle_of_a_large_trivial_target_answers_at_once(capsys, monkeypatch):
    # the medial-law check on A costs k^2 * m steps for its k distinct
    # columns, and T120 has one; the Hom quandle's 120^3 checks fit the cap
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "homquandle", "T 1", "T 120")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "") and out.splitlines()[0] == "Hom quandle of order 120"


@pytest.mark.parametrize("option", ("--rho=--", "--degree=--", "--coeff=--"))
def test_an_option_valued_double_dash_is_an_error(capsys, option):
    # argparse of 3.10 to 3.12.1 makes the value [], which main rejects itself;
    # 3.13 passes "--" through, to argparse's own int check or to the parsers
    code, out, err = run(capsys, "cohomology", "R 4", option)
    assert code in (1, 2) and out == ""
    assert "error: " in err.splitlines()[-1]


GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_listing_output_is_byte_identical_to_the_golden_file(capsys, case):
    # stdout of homs, color, goodinv, aut and quiver, in text and --json mode,
    # as an earlier version of the CLI printed it
    argv = [str(FIXTURES / a[1:-1]) if a.startswith("{") else a for a in case["argv"]]
    assert run(capsys, *argv) == (0, case["stdout"], "")


def test_quiver_builds_dot_only_for_a_dot_file(capsys, monkeypatch):
    # test_quiver_and_phi checks the file that --dot writes
    def refuse(qv):
        raise AssertionError("quiver_dot called without --dot")

    monkeypatch.setattr(cli, "quiver_dot", refuse)
    for extra in ((), ("--json",)):
        code, out, _ = run(capsys, "quiver", HOPF, "P 2 (1 2)", *extra)
        assert code == 0 and out.startswith(("quiver with 5 vertices", '{"edge_list"'))


def test_one_process_answers_as_fresh_processes_do(capsys, monkeypatch):
    # main reuses one parser: after a usage error and a domain error in this
    # process, every call still prints what a fresh `python -m quandles` does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    src = str(Path(quandles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    calls = [("frobnicate",), ("verify", "Z 3"), ("goodinv", "T 3"),
             ("homs", "P 2 (1 2)", "P 2 (1 2)", "--json")]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 1, 0, 0]
    for argv, result in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "quandles", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize("argv, cap", ((("homs", "P 6 (1 2)", "P 6 (1 2)"), 1000),
                                       (("aut", "R 15"), 200)))
@pytest.mark.parametrize("extra", ((), ("--json",)))
def test_a_search_stopped_part_way_prints_nothing(capsys, monkeypatch, argv, cap, extra):
    # each search has found maps when the cap stops it; none of them is printed
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cap))
    q = load_quandle(argv[1])
    found = []
    with pytest.raises(SearchCapError):
        for image in morphisms._search(q, q, bijective=argv[0] == "aut"):
            found.append(image)
    assert found
    assert run(capsys, *argv, *extra) == (1, "", f"error: hom search exceeded {cap} nodes\n")


@pytest.mark.parametrize("argv,out", [
    (("inn", "T 3"), "|Inn| = 1, cyclic: yes\n"),
    (("inn", "T 3", "--json"), '{"cyclic": true, "element_orders": [1], "order": 1}\n'),
    (("aut", "T 1"), "|Aut| = 1\n()\n"),
    (("aut", "T 1", "--json"), '{"maps": [[0]], "order": 1}\n'),
    (("aut", "T 2"), "|Aut| = 2\n()\n(0 1)\n"),
    (("aut", "T 2", "--json"), '{"maps": [[0, 1], [1, 0]], "order": 2}\n'),
])
def test_groups_of_order_one_and_two(capsys, argv, out):
    # itemgetter with one index gives an int: a one-element table must not
    # compare it with a row, and an order-2 table composes one generator row
    assert run(capsys, *argv) == (0, out, "")


def test_groups_of_the_empty_quandle(capsys, tmp_path):
    # its one map is the empty map; Inn, generated by no column, is that map too
    path = tmp_path / "empty.json"
    path.write_text('{"order": 0, "table": []}')
    assert run(capsys, "aut", str(path)) == (0, "|Aut| = 1\n()\n", "")
    assert run(capsys, "inn", str(path)) == (0, "|Inn| = 1, cyclic: yes\n", "")


@pytest.mark.parametrize("args, out", [
    ((), "0"), (("--rho", "()"), "0"), (("--coeff", "Q"), "Q^0"), (("--coeff", "Z3"), "F3^0"),
    (("--coeff", "Z2", "--rho", "()", "--degree", "3"), "F2^0"),
])
def test_cohomology_of_the_empty_quandle(capsys, tmp_path, args, out):
    # no n-tuple, so every cochain group is 0; an answer, not a traceback
    path = tmp_path / "empty.json"
    path.write_text('{"order": 0, "table": []}')
    assert run(capsys, "cohomology", str(path), *args) == (0, out + "\n", "")


@pytest.mark.parametrize("source", ORACLE_QUANDLES)
def test_listings_print_what_the_public_functions_return(capsys, source):
    # the CLI formats the image tuples itself; its lines must be the
    # ones rendered from homs(), automorphism_group() and good_involutions()
    q = load_quandle(source)
    maps = [f.image for f in homs(q, q)]
    auts, group = automorphism_group(q)
    auts = [f.image for f in auts]
    rhos = [s.rho for s in good_involutions(q)]
    cases = {
        ("homs", source, source): (
            [f"{len(maps)} homomorphisms", *(" ".join(map(str, f)) for f in maps)],
            {"count": len(maps), "maps": [list(f) for f in maps]}),
        ("aut", source): ([f"|Aut| = {group.order}", *map(cycle_text, auts)],
                          {"order": group.order, "maps": [list(f) for f in auts]}),
        ("goodinv", source): ([f"{len(rhos)} good involutions", *map(cycle_text, rhos)],
                              {"count": len(rhos), "involutions": [list(r) for r in rhos]}),
    }
    for argv, (lines, payload) in cases.items():
        assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", ""), argv
        assert run(capsys, *argv, "--json") == (
            0, json.dumps(payload, sort_keys=True) + "\n", ""), argv


@pytest.mark.parametrize("source", ["T 6", "R 12", "R 14", "P 10 (1 2)", "P 9 (1 2)(3 4)"])
def test_goodinv_lines_are_the_cycle_notation_of_each_involution(capsys, source):
    # the lines are made from "(x " and "y)" pieces; two-digit points included
    rhos = [s.rho for s in good_involutions(load_quandle(source))]
    assert run(capsys, "goodinv", source) == (
        0, "\n".join([f"{len(rhos)} good involutions", *map(cycle_text, rhos)]) + "\n", "")


ONE_COLUMN_CLASSES = [(f"P {n} {format_cycles(sigma)}", sigma.cycle_type) for n in range(2, 10)
                      for sigma in conjugacy_class_representatives(n)
                      if sigma.image != tuple(range(1, n + 1))]
TOO_BIG_FOR_A_GROUP_TABLE = pytest.mark.xfail(
    strict=True, reason="aut builds the 10080^2-cell group table, over the default cap")


def test_the_one_column_census_has_87_classes_up_to_degree_nine():
    assert len(ONE_COLUMN_CLASSES) == 87


@pytest.mark.parametrize("source, cycle_type", [
    pytest.param(*c, marks=TOO_BIG_FOR_A_GROUP_TABLE) if c[0] == "P 9 (1 2)" else c
    for c in ONE_COLUMN_CLASSES], ids=[c[0] for c in ONE_COLUMN_CLASSES])
def test_aut_of_every_one_column_class_up_to_degree_nine(capsys, source, cycle_type):
    # |Aut P(n, sigma)| = |C(sigma)|, and C(sigma) is the product over the
    # cycle lengths k of Z_k wr S_(c_k), of order k^(c_k) * c_k! for c_k
    # cycles of length k
    order = math.prod(k**c * math.factorial(c) for k, c in Counter(cycle_type).items())
    code, out, _ = run(capsys, "aut", source)
    assert code == 0
    assert out.partition("\n")[0] == f"|Aut| = {order}" and out.count("\n") == order + 1


@pytest.mark.parametrize("chunk", (1, 2, 26, 27, 28))
def test_listing_text_does_not_depend_on_the_chunk_size(capsys, monkeypatch, chunk):
    # the 27 homs T3 -> T3: answers read one, two, ... at a time print the
    # same, as text and as --json
    expected = run(capsys, "homs", "T 3", "T 3")
    assert expected[1].startswith("27 homomorphisms\n0 0 0\n")
    expected_json = run(capsys, "homs", "T 3", "T 3", "--json")
    assert expected_json[1].startswith('{"count": 27, "maps": [[0, 0, 0], [0, 0, 1], ')
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert run(capsys, "homs", "T 3", "T 3") == expected
    assert run(capsys, "homs", "T 3", "T 3", "--json") == expected_json


def test_the_first_answer_never_pays_for_the_rest(capsys, monkeypatch):
    # iso reads one map off the hom search of R15; aut reads them all
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "30")
    assert run(capsys, "iso", "R 15", "R 15") == (
        0, f"isomorphic via {list(range(15))}\n", "")
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "200")
    assert run(capsys, "aut", "R 15") == (1, "", "error: hom search exceeded 200 nodes\n")


def test_quiver_walks_the_generators_once_per_quandle(tmp_path, capsys, monkeypatch):
    # the generators are kept on the Quandle that validation made them for, so
    # checking the 81 endomorphisms of P(4, (1 2)(3 4)) reads them, where a walk
    # of the table per map cost more than the cells it saved
    path = tmp_path / "k4.lnk"
    path.write_text(synthesize_link(all_ones_graph(4)).to_text())
    walks, made, walk, init = [], [], morphisms._generators, quandles.Quandle.__init__

    def counted_walk(*args):
        walks.append(args[0])
        return walk(*args)

    def counted_init(self, table):
        made.append(table)
        init(self, table)

    monkeypatch.setattr(quandles.quandle, "_generators", counted_walk, raising=False)
    monkeypatch.setattr(morphisms, "_generators", counted_walk)
    monkeypatch.setattr(quandles.Quandle, "__init__", counted_init)
    code, out, _ = run(capsys, "quiver", str(path), "P 4 (1 2)(3 4)", "--endos", "all")
    assert (code, out) == (0, "quiver with 353 vertices and 28593 edges\n")
    assert len(walks) == len(made) == 1
