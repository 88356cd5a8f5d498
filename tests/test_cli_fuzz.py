"""CLI fuzzing: mutated cycle strings, diagrams and JSON end in exit 0, or in
exit 1 with one short `error:` line, never in a traceback."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from quandles.cli import load_quandle, main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.filter_too_much])
ALPHABET = list("0123456789 ()-+,.xXO#\n{}[]\":") + ["", "true", "1e3", "٣"]
MAX_NUMBER = 99  # orders up to 100: the column check makes such a table cheap

# seed text, argv with "{}" for the mutated text (or for a file holding it, when
# the flag is set); "--rho=" and "--" keep a text that starts with "-" an argument
TARGETS = {
    "rho": ("(1 3)", ("cohomology", "R 4", "--degree", "2", "--rho={}"), False),
    "p_expr": ("P 3 (1 2 3)", ("show", "--", "{}"), False),
    "lnk": ((FIXTURES / "hopf_pos.lnk").read_text() + "O 2\n", ("lk", "{}"), True),
    "quandle_json": (load_quandle("R 3").to_json(), ("verify", "{}"), True),
    "graph_json": (json.dumps({"m": 3, "weights": [[0, 2, -1], [2, 0, 1], [-1, 1, 0]]}),
                   ("synth", "{}"), True),
}


@st.composite
def mutated(draw, seed: str) -> str:
    """seed with one to four spans replaced by a token (an empty token deletes)."""
    text = seed
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        token, cut = draw(st.sampled_from(ALPHABET)), draw(st.integers(0, 3))
        text = text[:pos] + token + text[pos + cut:]
    assume(all(int(n) <= MAX_NUMBER for n in re.findall(r"\d+", text)))
    return text


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mutated_inputs_end_cleanly(capsys, target):
    seed, argv, as_file = TARGETS[target]

    @FUZZ
    @given(mutated(seed))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            arg = text
            if as_file:
                arg = str(Path(tmp) / "input")
                Path(arg).write_text(text, encoding="utf-8")
            code = main([a.replace("{}", arg) for a in argv])
        captured = capsys.readouterr()
        assert code in (0, 1), text
        if code == 0:
            assert captured.err == "", text
        else:
            assert captured.out == "", text
            assert captured.err.startswith("error: "), text
            assert captured.err.count("\n") == 1, text
            assert len(captured.err) < 300 + len(arg), text

    check()
