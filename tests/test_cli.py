import contextlib
import io
import json
import random
import re
import shlex
import time
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperms import GridMatrix, alphabet
from gridperms.cli import cmd_encode, main

from .conftest import DEMO_MATRIX_TEXT as DEMO, run_python
from .oracles import all_matrices, brute_sign_assignments
from .strategies import permutations


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO + "\n")
    return str(path)


def write_matrix(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.rstrip("\n")


def test_matrix_file_may_start_with_a_byte_order_mark(capsys, tmp_path, demo_file):
    bom_file = tmp_path / "demo-bom.txt"
    bom_file.write_bytes(b"\xef\xbb\xbf" + Path(demo_file).read_bytes())
    for argv in (["signs"], ["member", "136854792"], ["count", "4"]):
        expected = run(capsys, argv[0], demo_file, *argv[1:])
        assert expected[0] == 0
        assert run(capsys, argv[0], str(bom_file), *argv[1:]) == expected


def test_member_output_feeds_grid_check(capsys, demo_file):
    code, out = run(capsys, "member", demo_file, "136854792")
    assert code == 0
    code, verdict = run(capsys, "grid-check", demo_file, "136854792", *out.split())
    assert (code, verdict) == (0, "VALID")


def test_encode_with_one_sign_flag(capsys, demo_file):
    both = run(capsys, "encode", demo_file, "1,1", "2,2",
               "--col-signs=-1,1,1", "--row-signs=-1,1")
    assert both == (0, "12 cols=1,2,3,3 rows=1,2,3")
    assert run(capsys, "encode", demo_file, "1,1", "2,2", "--col-signs=-1,1,1") == both
    assert run(capsys, "encode", demo_file, "1,1", "2,2", "--row-signs=-1,1") == both
    # a lone flag that fits no sign assignment is still refused
    assert main(["encode", demo_file, "1,1", "--col-signs=1,1,1"]) == 2
    assert main(["encode", demo_file, "1,1", "--row-signs=1,1,1"]) == 2
    capsys.readouterr()


def test_one_sign_flag_gives_the_output_of_both():
    # every sign assignment of every 2x2 matrix and of random ones up to 3x3,
    # through the encode handler
    rng = random.Random(18)
    pool = list(all_matrices(2, 2))
    for _ in range(400):
        t, u = rng.randint(1, 3), rng.randint(1, 3)
        pool.append(GridMatrix([[rng.choice((0, 1, -1)) for _ in range(u)] for _ in range(t)]))
    cases = 0
    for m in pool:
        word = [f"{k},{l}" for k, l in sorted(alphabet(m))] * 2

        def encode_with(col_signs=None, row_signs=None):
            return cmd_encode(m, Namespace(word=word, col_signs=col_signs,
                                           row_signs=row_signs))

        for col_signs, row_signs in brute_sign_assignments(m):
            cols, rows = ",".join(map(str, col_signs)), ",".join(map(str, row_signs))
            both = encode_with(cols, rows)
            assert encode_with(col_signs=cols) == both, (m, cols)
            assert encode_with(row_signs=rows) == both, (m, rows)
            cases += 2
    assert cases == 3036


def test_decode_then_encode_round_trip(capsys, demo_file):
    code, word = run(
        capsys,
        "decode",
        demo_file,
        "136854792",
        "cols=1,3,5,10",
        "rows=1,6,10",
        "--col-signs=-1,1,1",
        "--row-signs=-1,1",
    )
    assert code == 0
    code, out = run(
        capsys,
        "encode",
        demo_file,
        *word.split(),
        "--col-signs=-1,1,1",
        "--row-signs=-1,1",
    )
    assert code == 0
    assert out == "136854792 cols=1,3,5,10 rows=1,6,10"


def test_decode_default_signs_round_trip(capsys, demo_file):
    code, word = run(capsys, "decode", demo_file, "136854792", "cols=1,3,5,10", "rows=1,6,10")
    assert code == 0
    code, out = run(capsys, "encode", demo_file, *word.split())
    assert code == 0
    assert out == "136854792 cols=1,3,5,10 rows=1,6,10"


def test_decode_inconsistent_orders_without_asserts(tmp_path):
    path = write_matrix(tmp_path, "+ +\n+ +")
    proc = run_python("-O", "-m", "gridperms.cli", "decode", path, "4123",
                      "cols=1,3,5", "rows=1,3,5", timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "INCONSISTENT-ORDERS\n")


# 4x3 all-+ and the decreasing permutation of length 70: C(73, 3) column
# times C(72, 2) row divisions, about 159M pairs, far over the search budget,
# and even C(73, 3) column divisions of 70 steps each are 4.4M nodes.
OVERSIZED_MEMBER = ("+ + + +\n+ + + +\n+ + + +", " ".join(map(str, range(70, 0, -1))))


def test_member_refuses_oversized_search_at_once(capsys, tmp_path):
    text, perm = OVERSIZED_MEMBER
    path = write_matrix(tmp_path, text)
    start = time.perf_counter()
    assert main(["member", path, perm]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    start = time.perf_counter()
    code, out = run(capsys, "--json", "member", path, perm)
    assert time.perf_counter() - start < 2
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "LIMIT-EXCEEDED"
    assert payload["message"]


def test_member_refuses_oversized_search_without_asserts(tmp_path):
    text, perm = OVERSIZED_MEMBER
    path = write_matrix(tmp_path, text)
    start = time.perf_counter()
    proc = run_python("-O", "-m", "gridperms.cli", "--json", "member", path, perm, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "LIMIT-EXCEEDED"


@pytest.mark.parametrize("argv", [
    ["encode", "{path}", "1,1"],
    ["decode", "{path}", "1", "cols=1,2,2", "rows=1,2,2"],
])
def test_codec_reports_negative_cycle(capsys, tmp_path, argv):
    path = write_matrix(tmp_path, "+ +\n+ -")
    argv = [arg.format(path=path) for arg in argv]
    code, out = run(capsys, *argv)
    assert code == 1
    label, cycle = out.splitlines()
    assert label == "NOT-PARTIAL-MULTIPLICATION"
    code, out = run(capsys, "--json", *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NOT-PARTIAL-MULTIPLICATION"
    assert len(payload["cycle"]) == 4
    assert cycle == "cycle: " + " ".join(payload["cycle"])


GRIDDED = "136854792 cols=1,3,5,10 rows=1,6,10"
MISGRIDDED = "136854792 cols=1,2,5,10 rows=1,6,10"
CROSSED = "4123 cols=1,3,5 rows=1,3,5"  # INCONSISTENT-ORDERS under "+ +" over "+ +"
SIGN_FLAGS = "--col-signs=-1,1,1 --row-signs=-1,1"
# One subcommand call per row: the matrix written to m.txt, the command line,
# the exit code, and stdout as text or, under --json, as the payload.  Each
# kind of check lives in one place: the README's tour and CLI session hold the
# showcase (test_readme_cli_session below); these rows, the CLI answers that
# session does not show; ADMISSION_EDGES in test_enumeration, the admission
# edges; and properties against tests/oracles.py, the kernels.
CLI_CASES = {
    "signs_zero_matrix": (". .\n. .", "signs m.txt", 0, "col_signs=1,1 row_signs=1,1"),
    "member_not_a_member": ("+", "member m.txt 21", 1, "NOT-A-MEMBER"),
    "member_decreasing_cell": ("-", "member m.txt 321", 0, "cols=1,4 rows=1,4"),
    "grid_check_invalid": (DEMO, f"grid-check m.txt {MISGRIDDED}", 1, "INVALID"),
    "encode_empty_word": (DEMO, "encode m.txt", 0, "empty cols=1,1,1,1 rows=1,1,1"),
    "encode_letter_outside_alphabet": (DEMO, "encode m.txt 1,2", 2, ""),
    "encode_flag_first": (DEMO, "encode m.txt --col-signs=-1,1,1 1,1 2,2", 0,
                          "12 cols=1,2,3,3 rows=1,2,3"),
    "encode_flag_between": (DEMO, "encode m.txt 1,1 --col-signs=-1,1,1 2,2", 0,
                            "12 cols=1,2,3,3 rows=1,2,3"),
    "decode_inconsistent_orders": ("+ +\n+ +", f"decode m.txt {CROSSED}", 1, "INCONSISTENT-ORDERS"),
    "count_one_row": ("+ +", "count m.txt 3", 0, "1,2,5"),
    "count_one_cell": ("+", "count m.txt 5", 0, "1,1,1,1,1"),
    "graph_cell": (DEMO, "graph m.txt --cell", 0, "1,1 3,1\n2,2 3,2\n3,1 3,2"),
    "json_signs": (DEMO, "--json signs m.txt", 0, {"col_signs": [1, -1, -1], "row_signs": [1, -1]}),
    "json_member": (DEMO, "--json member m.txt 136854792", 0,
                    {"perm": "136854792", "cols": [1, 3, 5, 10], "rows": [1, 5, 10]}),
    "json_member_not_a_member": ("+", "--json member m.txt 21", 1, {"error": "NOT-A-MEMBER"}),
    "json_grid_check_valid": (DEMO, f"--json grid-check m.txt {GRIDDED}", 0, {"valid": True}),
    "json_grid_check_invalid": (DEMO, f"--json grid-check m.txt {MISGRIDDED}", 1, {"valid": False}),
    "json_encode": (DEMO, f"--json encode m.txt 3,1 3,1 2,2 3,2 1,1 2,2 3,2 3,1 1,1 {SIGN_FLAGS}",
                    0, {"perm": "136854792", "cols": [1, 3, 5, 10], "rows": [1, 6, 10]}),
    "json_decode": (DEMO, f"--json decode m.txt {GRIDDED} {SIGN_FLAGS}", 0,
                    {"word": "2,2 3,1 3,1 1,1 3,2 2,2 3,2 3,1 1,1"}),
    "json_decode_inconsistent_orders": ("+ +\n+ +", f"--json decode m.txt {CROSSED}", 1,
                                        {"error": "INCONSISTENT-ORDERS"}),
    "json_enum": (DEMO, "--json enum m.txt 2", 0, {"n": 2, "perms": ["12", "21"]}),
    "json_count": (DEMO, "--json count m.txt 2", 0, {"counts": [1, 2]}),
    "json_graph": (DEMO, "--json graph m.txt", 0, {
        "graph": "row-column", "vertices": ["x1", "x2", "x3", "y1", "y2"],
        "edges": [["x1", "y1", 1], ["x2", "y2", 1], ["x3", "y1", -1], ["x3", "y2", 1]]}),
    "json_graph_cell": (DEMO, "--json graph m.txt --cell", 0, {
        "graph": "cell", "vertices": ["1,1", "2,2", "3,1", "3,2"],
        "edges": [["1,1", "3,1"], ["2,2", "3,2"], ["3,1", "3,2"]]}),
}


@pytest.mark.parametrize("text, command, code, expected", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_answers(capsys, tmp_path, monkeypatch, text, command, code, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text(text + "\n")
    answer, out = run(capsys, *command.split())
    assert (answer, out if isinstance(expected, str) else json.loads(out)) == (code, expected)


def readme_cli_session():
    """The README's CLI session as (command line, output lines) pairs, with
    backslash continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    for line in block.splitlines():
        if steps and steps[-1][0].endswith("\\"):
            steps[-1][0] = steps[-1][0][:-1] + line
        elif line.startswith("$ "):
            steps.append([line[2:], []])
        elif line:
            steps[-1][1].append(line)
    return steps


NEGATIVE_ANSWERS = {"NOT-A-MEMBER", "NOT-PARTIAL-MULTIPLICATION", "INVALID", "INCONSISTENT-ORDERS"}


def test_readme_cli_session(capsys, tmp_path, monkeypatch):
    # each command exits 1 when it prints a negative answer and 0 otherwise
    def lines(output):
        return "".join(line + "\n" for line in output)

    monkeypatch.chdir(tmp_path)
    commands = []
    for command, output in readme_cli_session():
        argv = shlex.split(command)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text(lines(output))
        elif argv[0] == "printf":
            assert argv[1] == "--" and argv[3] == ">"
            (tmp_path / argv[4]).write_text(argv[2].replace("\\n", "\n"))
        else:
            assert argv[0] == "gridperms"
            commands.append((argv[1:], output))
    for argv, output in commands:
        code = int(output[0] in NEGATIVE_ANSWERS)
        assert (main(argv), capsys.readouterr().out) == (code, lines(output)), argv
    assert {argv[0] for argv, _ in commands} == {
        "signs", "member", "grid-check", "encode", "decode", "enum", "count", "graph"}


def test_usage_errors_exit_two(capsys, tmp_path, demo_file):
    assert main(["signs", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text("+ x\n")
    assert main(["signs", str(bad)]) == 2
    capsys.readouterr()

    assert main(["member", demo_file, "11"]) == 2
    capsys.readouterr()

    assert main(["enum", demo_file, "12"]) == 2
    capsys.readouterr()

    assert main(["grid-check", demo_file, "136854792", "cols=1,3", "rows=1,10"]) == 2
    capsys.readouterr()

    code, out = run(capsys, "--json", "enum", str(tmp_path / "missing.txt"), "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "BAD-INPUT"
    assert "missing.txt" in payload["message"]

    code, out = run(capsys, "--json", "encode", demo_file, "1,1", "--col-signs=1,x")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "BAD-INPUT"
    assert "cannot parse signs" in payload["message"]
    assert payload["message"] == "cannot parse signs from '1,x'"

    code, out = run(capsys, "--json", "encode", demo_file, "1,1", "--col-signs=+1,1,1")
    assert code == 2
    assert json.loads(out) == {"error": "BAD-INPUT",
                               "message": "cannot parse signs from '+1,1,1'"}

    code, out = run(capsys, "--json", "enum", demo_file, "12")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "LIMIT-EXCEEDED"
    assert payload["message"]


def test_count_reports_the_sweep_meter(capsys, monkeypatch, demo_file):
    # DEMO's walk takes 6,435 steps through length 6 and passes 10,000 at 7
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 10_000)
    code, out = run(capsys, "--json", "count", demo_file, "9")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "LIMIT-EXCEEDED"
    assert re.fullmatch(r"a length-9 sweep took \d+ steps at length 7", payload["message"])
    assert main(["count", demo_file, "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {payload['message']}\n"


def test_count_refuses_negative_length(capsys, demo_file):
    assert run(capsys, "count", demo_file, "-1") == (2, "")
    code, out = run(capsys, "--json", "count", demo_file, "-1")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "BAD-INPUT"
    assert payload["message"]


@pytest.mark.parametrize("command", ["count", "enum"])
@pytest.mark.parametrize("text", ["+3", " 3", "0_3", "٣", "1e3", "abc"])
def test_lengths_follow_the_integer_grammar(capsys, demo_file, command, text):
    # int() reads the first four as 3; the CLI reads lengths as the formats
    # read integers, an optional - and ASCII digits, through main's error path
    message = f"cannot parse length from {text!r}"
    assert main([command, demo_file, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert main(["--json", command, demo_file, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == json.dumps({"error": "BAD-INPUT", "message": message}) + "\n"
    assert captured.err == ""


MATRIX_TOKENS = [".", "+", "-", "0", "1", "-1"]
JUNK_TOKENS = ["x", "2", "++"]
ARGUMENTS = {
    "perm": permutations(max_n=7).map(str),
    "cols": st.sampled_from(["cols=1,2", "cols=1,1,2", "cols=1,2,3", "cols=1,3,4,5",
                             "cols=1,1", "cols=x"]),
    "rows": st.sampled_from(["rows=1,2", "rows=1,3", "rows=1,2,3,4", "rows=2,1"]),
    "word": st.sampled_from(["1,1", "2,1", "1,2 2,2", "3,3", "0,1", "1,"]),
    "flag": st.sampled_from(["--col-signs=1,-1", "--row-signs=-1", "--col-signs=1,1,1",
                             "--row-signs=1,1", "--col-signs=2", "--row-signs=x",
                             "--cell"]),
    "length": st.one_of(st.integers(-3, 5), st.sampled_from([10, 10**9])).map(str),
}
# the arguments each subcommand expects, so that many draws get past argparse
SHAPES = {
    "signs": [], "member": ["perm"], "grid-check": ["perm", "cols", "rows"],
    "encode": ["word", "word", "flag"], "decode": ["perm", "cols", "rows", "flag"],
    "enum": ["length"], "count": ["length"], "graph": ["flag"], "frobnicate": [],
}


@st.composite
def matrix_texts(draw):
    """Matrix file contents, mostly well formed; None for a missing file."""
    shape = draw(st.sampled_from(["missing", "junk", "ragged"] + ["rectangular"] * 5))
    if shape == "missing":
        return None
    tokens = st.sampled_from(MATRIX_TOKENS + JUNK_TOKENS * (shape == "junk"))
    width = draw(st.integers(1, 3))
    lines = draw(st.lists(st.lists(tokens, min_size=width, max_size=width),
                          min_size=shape != "junk", max_size=3))
    if shape == "ragged":
        lines.append(draw(st.lists(tokens, max_size=3)))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def cli_argvs(draw, path):
    command = draw(st.sampled_from(list(SHAPES)))
    kinds = SHAPES[command]
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(list(ARGUMENTS)), max_size=4))
    json_flag = ["--json"] if draw(st.booleans()) else []
    return [*json_flag, command, path, *(draw(ARGUMENTS[kind]) for kind in kinds)]


@settings(max_examples=200, deadline=None)
@given(text=matrix_texts(), data=st.data())
def test_main_only_returns_exit_codes(tmp_path_factory, text, data):
    path = tmp_path_factory.mktemp("cli") / "matrix.txt"
    if text is not None:
        path.write_text(text)
    argv = data.draw(cli_argvs(str(path)))
    # a lower budget keeps the metered sweeps at length 10 short; it still
    # admits some of them (one cell, say) and refuses others (DEMO)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr("gridperms.gridding.SEARCH_BUDGET", 10**5)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    assert code in (0, 1, 2, ("argparse", 2)), argv
