"""Command-line surface: outputs, exit codes, and diagnostics."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cimodels
from cimodels.cli import _COMMANDS, _build_parser, entry, main
from cimodels.formats import parse_model

from oracles import dag_count

DAG_TEXT = """\
vars: 0 1 2 3 4
1 -> 2
0 -> 2
0 -> 3
4 -> 3
"""

GRAPH_TEXT = """\
vars: a b c
a -- b
b -- c
"""

MODEL_TEXT = """\
vars: a b
I a | - | b
I b | - | a
"""

COMMANDS = ["graph", "dag", "model", "formula", "enum", "repro"]
SUBCOMMANDS = [
    "graph sep",
    "graph model",
    "dag dsep",
    "dag model",
    "model restrict",
    "model check",
    "formula eval",
    "formula entails",
    "enum dags",
    "repro counterexample",
]


@pytest.fixture
def dag_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(DAG_TEXT)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GRAPH_TEXT)
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


class TestDecisions:
    def test_dsep_affirmative(self, dag_file, capsys):
        code = main(["dag", "dsep", "--dag", dag_file, "--A", "1", "--C", "", "--B", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "SEPARATED"

    def test_dsep_negative(self, dag_file, capsys):
        code = main(["dag", "dsep", "--dag", dag_file, "--A", "2", "--C", "3", "--B", "4"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "NOT SEPARATED"

    def test_dsep_dash_for_empty(self, dag_file, capsys):
        code = main(["dag", "dsep", "--dag", dag_file, "--A", "2", "--C", "-", "--B", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "SEPARATED"

    def test_graph_sep(self, graph_file, capsys):
        assert main(["graph", "sep", "--graph", graph_file, "--A", "a", "--C", "b", "--B", "c"]) == 0
        assert main(["graph", "sep", "--graph", graph_file, "--A", "a", "--C", "", "--B", "c"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["SEPARATED", "NOT SEPARATED"]


class TestModelDumps:
    def test_graph_model_roundtrips(self, graph_file, capsys):
        assert main(["graph", "model", "--graph", graph_file]) == 0
        text = capsys.readouterr().out
        m = parse_model(text)
        assert m.universe.names == ("a", "b", "c")
        assert len(m) == 48

    def test_dag_model_to_file(self, dag_file, tmp_path, capsys):
        out = tmp_path / "model.txt"
        assert main(["dag", "model", "--dag", dag_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        m = parse_model(out.read_text())
        assert m.universe.names == ("0", "1", "2", "3", "4")

    def test_restrict_pipeline(self, dag_file, tmp_path, capsys):
        full = tmp_path / "full.txt"
        main(["dag", "model", "--dag", dag_file, "--out", str(full)])
        assert main(["model", "restrict", "--model", str(full), "--vars", "1,2,3,4"]) == 0
        m = parse_model(capsys.readouterr().out)
        assert m.universe.names == ("1", "2", "3", "4")

    def test_restrict_empty_vars_rejected(self, model_file, capsys):
        assert main(["model", "restrict", "--model", model_file, "--vars", "-"]) == 2
        assert "error" in capsys.readouterr().err


# One triple and not its swap: seven violations, in the order of the walk.
ASYMMETRIC_CHECK = """\
violation: symmetry: [a | - | b,c] without [b,c | - | a]
violation: decomposition: [a | - | b,c] without [a | - | c]
violation: weak_union: [a | - | b,c] without [a | b | c]
violation: decomposition: [a | - | b,c] without [a | - | b]
violation: weak_union: [a | - | b,c] without [a | c | b]
violation: decomposition: [a | - | b,c] without [a | - | -]
violation: weak_union: [a | - | b,c] without [a | b,c | -]
NOT SEMIGRAPHOID
"""


class TestModelCheck:
    def test_semigraphoid_negative(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        argv = ["model", "check", "--model", str(path), "--class", "semigraphoid"]
        path.write_text("vars: a b\nI a | - | b\n")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "violation: symmetry" in out
        assert out.strip().endswith("NOT SEMIGRAPHOID")
        path.write_text("vars: a b c\nI a | - | b,c\n")
        assert main(argv) == 1
        assert capsys.readouterr().out == ASYMMETRIC_CHECK

    def test_causal_and_graph_isomorph(self, tmp_path, capsys):
        from cimodels.core import Universe
        from cimodels.dag import Dag
        from cimodels.formats import format_model

        u = Universe(("1", "2", "3"))
        collider = tmp_path / "collider.txt"
        collider.write_text(format_model(Dag(u, frozenset({(0, 1), (2, 1)})).dsep_model()))
        assert main(["model", "check", "--model", str(collider), "--class", "causal"]) == 0
        assert main(["model", "check", "--model", str(collider), "--class", "graph-isomorph"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["CAUSAL", "NOT GRAPH-ISOMORPH"]

    def test_sparse_model_is_neither(self, model_file, capsys):
        # Lacks the vacuous triples every induced model carries.
        assert main(["model", "check", "--model", model_file, "--class", "causal"]) == 1
        assert main(["model", "check", "--model", model_file, "--class", "graph-isomorph"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["NOT CAUSAL", "NOT GRAPH-ISOMORPH"]


class TestFormula:
    def test_eval_text(self, model_file, capsys):
        code = main(
            ["formula", "eval", "--model", model_file, "--formula", "I(X1, X2, X3) -> I(X3, X2, X1)"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "SATISFIED"

    def test_eval_from_file(self, model_file, tmp_path, capsys):
        formula_path = tmp_path / "f.txt"
        formula_path.write_text("!I(X1, X2, X3)\n")
        code = main(["formula", "eval", "--model", model_file, "--formula", str(formula_path)])
        assert code == 1
        assert capsys.readouterr().out.strip() == "NOT SATISFIED"

    def test_eval_text_longer_than_a_file_name(self, model_file, capsys):
        # Too long to name a file (the usual limit is 255 bytes), so it must be
        # parsed as formula text rather than fail the file lookup.
        text = " & ".join(["I(X1, X2, X3) -> I(X3, X2, X1)"] * 14)
        assert len(text) > 400
        code = main(["formula", "eval", "--model", model_file, "--formula", text])
        assert code == 0
        assert capsys.readouterr().out.strip() == "SATISFIED"

    def test_eval_other_file_lookup_errors_still_reported(self, model_file, monkeypatch, capsys):
        def refuse(self):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(Path, "is_file", refuse)
        code = main(["formula", "eval", "--model", model_file, "--formula", "I(X1, X2, X3)"])
        assert code == 2
        assert "Permission denied" in capsys.readouterr().err

    def test_eval_syntax_error(self, model_file, capsys):
        assert main(["formula", "eval", "--model", model_file, "--formula", "I(X1,"]) == 2
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 2000 + "I(X1, X2, X3)" + ")" * 2000,
            "!" * 2000 + "I(X1, X2, X3)",
            "I(" + "~" * 2000 + "X1, X2, X3)",
        ],
        ids=["parentheses", "negations", "complements"],
    )
    def test_eval_nesting_past_the_gate(self, model_file, capsys, text):
        assert main(["formula", "eval", "--model", model_file, "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: formula nested deeper than")
        assert "Traceback" not in captured.err

    def test_eval_over_the_valuation_budget(self, tmp_path, capsys):
        # Five variables over five labels: (2**5)**5 valuations times four
        # nodes is 2**27 checks, past the budget MAX_VALUATION_CHECKS = 2**24.
        path = tmp_path / "five.txt"
        path.write_text("vars: a b c d e\nI a | - | b\n")
        text = "I(X1, X2, X3) -> I(X4, X5, X1)"
        assert main(["formula", "eval", "--model", str(path), "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 134217728 valuation-node checks exceed the budget of 16777216\n"
        )

    def test_entails(self, model_file, capsys):
        code = main(
            ["formula", "entails", "--family", "causal", "--given", model_file, "--query", "b | - | a"]
        )
        assert code == 0
        code = main(
            ["formula", "entails", "--family", "all-models", "--given", model_file, "--query", "a | b | -"]
        )
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["ENTAILED", "NOT ENTAILED"]

    def test_entails_gate(self, tmp_path, capsys):
        # An answer at the DAG gate; one label past it, exit 2 (message in TestLibraryGates).
        at, past = tmp_path / "five.txt", tmp_path / "six.txt"
        at.write_text("vars: a b c d e\nI a | - | b\n")
        past.write_text("vars: a b c d e f\nI a | - | b\n")
        argv = ["formula", "entails", "--family", "causal", "--query", "b | - | a", "--given"]
        assert main([*argv, str(at)]) == 0
        assert capsys.readouterr().out == "ENTAILED\n"
        assert main([*argv, str(past)]) == 2


class TestEnum:
    def test_count(self, capsys):
        assert main(["enum", "dags", "--n", "4", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "543"

    def test_abbreviated_option(self, capsys):
        assert main(["enum", "dags", "--n", "4", "--cou"]) == 0
        assert capsys.readouterr().out == "543\n"

    def test_listing(self, capsys):
        assert main(["enum", "dags", "--n", "2", "--count"]) == 0
        assert main(["enum", "dags", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3"
        assert lines[1:] == ["-", "0->1", "1->0"]

    def test_gate(self, capsys):
        assert main(["enum", "dags", "--n", "6", "--count"]) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_matches_listing(self, capsys, n):
        assert main(["enum", "dags", "--n", str(n), "--count"]) == 0
        count = int(capsys.readouterr().out)
        assert count == dag_count(n)
        assert main(["enum", "dags", "--n", str(n)]) == 0
        assert count == len(capsys.readouterr().out.splitlines())


def reference_parser():
    """Every command's parser under a top parser whose usage lines argparse
    writes itself: no hand-written ``usage`` and no ``prog`` for the commands."""
    parser = argparse.ArgumentParser(
        prog="cimodels",
        description="Separation and d-separation models, representability, and formula checks.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(top.add_parser(name, help=help_text))
    return parser


def parse_outcome(parse, argv):
    """The exit code, stdout and stderr of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} did not end the program")


# Each subcommand's required options, so that one more word is left over.
REQUIRED_OPTIONS = {
    "graph sep": "--graph x --A a --C c --B b",
    "graph model": "--graph x",
    "dag dsep": "--dag x --A a --C c --B b",
    "dag model": "--dag x",
    "model restrict": "--model x --vars v",
    "model check": "--model x --class causal",
    "formula eval": "--model x --formula f",
    "formula entails": "--family causal --given x --query q",
    "enum dags": "--n 4",
    "repro counterexample": "",
}

HELP_AND_USAGE_ARGVS = [
    *([*command.split(), "--help"] for command in ["", *COMMANDS, *SUBCOMMANDS]),
    # a command without its subcommand, a subcommand without its required
    # options (``repro counterexample`` has none)
    *(
        command.split()
        for command in [*COMMANDS, *SUBCOMMANDS]
        if command != "repro counterexample"
    ),
    ["model", "check", "--model", "x", "--class", "bogus"],
    ["formula", "entails", "--family", "bogus", "--given", "x", "--query", "y"],
    ["enum", "dogs"],
    ["enum", "dags", "--n", "x"],
    ["enum", "dags", "--cou"],
    ["enum", "dags", "--n", "4", "--cou", "extra"],
    ["enum", "dags", "--n", "4", "--count", "--bogus"],
    ["-h", "enum"],
    ["bogus"],
    [],
    # the top parser's "unrecognized arguments" error
    *(
        [*command.split(), *options.split(), "extra"]
        for command, options in REQUIRED_OPTIONS.items()
    ),
]

# Locale variables that gettext reads before LANG.
LOCALE_OVERRIDES = ("LANGUAGE", "LC_ALL", "LC_MESSAGES")

# Prints the help and usage cases whose outcome under the child's locale
# differs from the reference parser's.
LOCALE_TWIN_CODE = """
import json, sys
sys.path[:0] = sys.argv[1:]
from cimodels.cli import main
from test_cli import HELP_AND_USAGE_ARGVS, parse_outcome, reference_parser
differ = [
    argv
    for argv in HELP_AND_USAGE_ARGVS
    if parse_outcome(main, argv) != parse_outcome(reference_parser().parse_args, argv)
]
print(json.dumps(differ))
"""

# Counts the ``ArgumentParser``s built by each of two ``main`` calls in a fresh
# interpreter: the running total after each call.
PARSER_COUNT_CODE = """
import argparse, contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from cimodels.cli import main
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
totals = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for _ in range(2):
        try:
            main(sys.argv[2:])
        except SystemExit:
            pass
        totals.append(len(built))
print(*totals)
"""


class TestParserReuse:
    """``main`` builds each parser once per process, and only the one
    command's subtree when the first word names a command; each call still
    starts from the parser's defaults."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        ("argv", "built"),
        [
            (["enum", "dags", "--n", "4", "--count"], 3),  # top, enum, enum dags
            (["repro", "counterexample", "--help"], 3),
            (["model", "check", "--help"], 4),  # top, model, restrict, check
            (["enum", "dags"], 3),  # a usage error
            (["-h", "enum"], 17),
            ([], 17),
            (["enum", "dags", "--n", "4", "extra"], 3),  # usage errors
            (["model", "check", "--model", "x", "--class", "bogus"], 4),
        ],
    )
    def test_parsers_built(self, argv, built):
        src = str(Path(cimodels.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", PARSER_COUNT_CODE, src, *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.stdout.split() == [str(built)] * 2  # the second call builds none

    def test_successive_calls_share_no_state(self, capsys):
        assert main(["enum", "dags", "--n", "3", "--count"]) == 0
        assert main(["enum", "dags", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["25", "-", "0->1", "1->0"]

    def test_top_level_usage_line(self):
        _, out, _ = parse_outcome(main, ["--help"])
        assert out.splitlines()[0] == (
            "usage: cimodels [-h] {graph,dag,model,formula,enum,repro} ..."
        )

    @pytest.mark.parametrize("argv", HELP_AND_USAGE_ARGVS)
    def test_help_and_usage_errors_match_a_fresh_parser(self, argv):
        expected = parse_outcome(reference_parser().parse_args, argv)
        for _ in range(2):
            assert parse_outcome(main, argv) == expected

    def test_help_and_usage_errors_match_under_a_locale(self):
        # With a locale variable set, argparse's message lookups take another path.
        env = {k: v for k, v in os.environ.items() if k not in LOCALE_OVERRIDES}
        env["LANG"] = "C.UTF-8"
        paths = [str(Path(cimodels.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        done = subprocess.run(
            [sys.executable, "-I", "-c", LOCALE_TWIN_CODE, *paths],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert (done.stdout, done.stderr, done.returncode) == ("[]\n", "", 0)


class TestRepro:
    def test_text_report(self, capsys):
        assert main(["repro", "counterexample"]) == 0
        out = capsys.readouterr().out
        assert "dags scanned: 543" in out
        assert "causal witness: none" in out
        assert out.strip().endswith("REPRODUCTION OK")

    def test_json_report(self, capsys):
        assert main(["repro", "counterexample", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dags_scanned"] == 543
        assert data["causal_witness"] is False
        assert data["semigraphoid_ok"] is True
        assert data["succeeded"] is True
        assert {item["statement"] for item in data["statements"]} == {
            "I(1, -, 3)",
            "I(1, 4, 3)",
            "I(2, -, 4)",
            "I(2, 1, 4)",
            "dependent_always(1, 2)",
            "dependent_always(3, 4)",
            "dependent_always(2, 3)",
        }


# Commands that read the file named last.
FILE_READERS = [
    ["model", "check", "--class", "semigraphoid", "--model"],
    ["formula", "eval", "--formula", "I(X, Y, Z)", "--model"],
    ["graph", "model", "--graph"],
    ["dag", "model", "--dag"],
]


class FullStream(io.StringIO):
    """A stream on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestDiagnostics:
    def test_missing_file(self, capsys):
        assert main(["dag", "dsep", "--dag", "nope.txt", "--A", "1", "--C", "", "--B", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("vars: a b\na -> a\n")
        assert main(["dag", "dsep", "--dag", str(path), "--A", "a", "--C", "", "--B", "b"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "check", "--model", "x", "--class", "bogus"])
        assert exc.value.code == 2

    def test_unknown_label_in_query(self, dag_file, capsys):
        assert main(["dag", "dsep", "--dag", dag_file, "--A", "9", "--C", "", "--B", "3"]) == 2

    @pytest.mark.parametrize("argv", FILE_READERS)
    def test_undecodable_file_named(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"vars: a b\nI a | - | \xff\n")
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("argv", FILE_READERS)
    def test_undecodable_file_after_a_bom_named(self, tmp_path, capsys, argv):
        # The position is the bad byte's offset in the file, the BOM included.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xef\xbb\xbfvars: a b\nI a | - | \xff\n")
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"
        assert captured.err == f"error: {path}: {message}\n"

    def test_undecodable_formula_file_named(self, model_file, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_bytes(b"I(X, Y, \xff)")
        assert main(["formula", "eval", "--model", model_file, "--formula", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
        assert captured.err == f"error: {path}: {message}\n"

    def test_undecodable_formula_file_after_a_bom_named(self, model_file, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xef\xbb\xbfI(X, Y, \xff)")
        assert main(["formula", "eval", "--model", model_file, "--formula", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["model", "check", "--class", "semigraphoid", "--model"], MODEL_TEXT),
            (["dag", "model", "--dag"], DAG_TEXT),
            (["formula", "eval", "--model", "m.txt", "--formula"], "!I(X1, X2, X3)\n"),
        ],
        ids=["model", "dag", "formula"],
    )
    def test_byte_order_mark_dropped(self, model_file, tmp_path, capsys, argv, text):
        # As Windows editors write it: a leading UTF-8 BOM and CRLF line ends.
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        argv = [model_file if arg == "m.txt" else arg for arg in argv]
        runs = [(main([*argv, str(path)]), capsys.readouterr()) for path in (plain, bom)]
        assert runs[0][1].err == "" and runs[0][1].out
        assert runs[1] == runs[0]


    def test_double_dash_formula_value(self, model_file, capsys):
        # argparse from 3.13 reads the text '--'; earlier ones leave [] behind.
        assert main(["formula", "eval", "--model", model_file, "--formula=--"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err in (
            "error: an option's value cannot be '--'\n",
            "error: unexpected character '-' (at offset 1)\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "dags", "--n=--"],
            ["model", "check", "--model", "m.txt", "--class=--"],
            ["formula", "entails", "--family=--", "--given", "m.txt", "--query", "a | - | b"],
        ],
    )
    def test_double_dash_typed_value(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse from 3.13 rejects '--' itself
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        ("stdout", "err"),
        [
            # sys.stdout is None when fd 1 was closed as the interpreter started.
            (None, "error: stdout is closed\n"),
            (FullStream(), f"error: stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"),
        ],
        ids=["closed", "full"],
    )
    def test_stdout_fault_named(self, monkeypatch, stdout, err):
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["enum", "dags", "--n", "3", "--count"]) == 2
        assert stderr.getvalue() == err

    def test_failing_stderr_keeps_the_exit_code(self, monkeypatch):
        # A closed stderr is run in TestEntryPoints, in a child process.
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", FullStream())
        assert main(["enum", "dags", "--n", "3", "--count"]) == 2


class TestEntryPoints:
    def test_entry_exits_with_the_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cimodels", "enum", "dags", "--n", "3", "--count"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "25\n"

    def test_module_run(self):
        src = str(Path(cimodels.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "cimodels.cli", "enum", "dags", "--n", "6", "--count"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: refusing to enumerate DAGs on 6 > 5 nodes\n"

    @pytest.mark.parametrize(
        ("redirect", "err"),
        [(">&-", "error: stdout is closed\n"), (">&- 2>&-", "")],
        ids=["stdout", "stdout-and-stderr"],
    )
    def test_module_run_with_closed_stdout(self, redirect, err):
        src = str(Path(cimodels.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-m", "cimodels.cli", "enum", "dags", "--n", "3", "--count"]
        argv = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", err)

    def test_files_are_utf8_in_the_c_locale(self, tmp_path):
        # An ASCII locale with UTF-8 mode off: a default encoding would be
        # ASCII, and each use of one raises EncodingWarning as an error.
        src = str(Path(cimodels.__file__).resolve().parents[1])
        dag, model = tmp_path / "u.dag", tmp_path / "u.model"
        dag.write_bytes("vars: α b c\nα -> c\nb -> c\n".encode())
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from cimodels.cli import main; "
            "main(['dag', 'model', '--dag', sys.argv[2], '--out', sys.argv[3]]); "
            "raise SystemExit(main(['model', 'check', '--model', sys.argv[3], '--class', 'causal']))"
        )
        flags = ["-X", "utf8=0", "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        argv = [sys.executable, "-I", "-S", *flags, "-c", code, src, str(dag), str(model)]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "CAUSAL\n", "")
        assert model.read_text(encoding="utf-8").startswith("vars: α b c\n")

    @pytest.mark.parametrize(
        ("text", "argv", "err"),
        [
            (
                "vars: α b c\nα -> c\nb -> c\n",
                ["dag", "model", "--dag"],
                "error: stdout (ascii) cannot encode '\\u03b1'; --out writes UTF-8\n",
            ),
            (
                "vars: b c α\nI b | - | c\nI α | - | b\n",
                ["model", "check", "--class", "semigraphoid", "--model"],
                "error: stdout (ascii) cannot encode '\\u03b1'\n",
            ),
        ],
        ids=["dag-model", "semigraphoid-check"],
    )
    def test_stdout_that_cannot_encode_a_label_names_stdout(self, tmp_path, text, argv, err):
        # The output goes to stdout, whose encoding is ASCII here: exit 2,
        # nothing written, and the error names stdout, and --out where the
        # command has it. The first violation line is ASCII and the second
        # is not, so a line-by-line writer would cut the list in two.
        src = str(Path(cimodels.__file__).resolve().parents[1])
        path = tmp_path / "u.txt"
        path.write_bytes(text.encode())
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from cimodels.cli import main; "
            "raise SystemExit(main(sys.argv[2:]))"
        )
        flags = ["-X", "utf8=0", "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        argv = [sys.executable, "-I", "-S", *flags, "-c", code, src, *argv, str(path)]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == err


# Runs one command in a fresh interpreter that has ``src`` (argv[1]) first on
# its path and no site-packages, then names on stderr the watched modules it
# left loaded.
LOADED_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import cimodels, cimodels.cli
code = cimodels.cli.main(sys.argv[2:])
watched = ("cimodels.logic", "cimodels.represent", "cimodels.repro", "json", "dataclasses", "inspect")
print(code, *(name for name in watched if name in sys.modules), file=sys.stderr)
"""

# sha256 of the report ``repro counterexample --json`` printed when the CLI
# still imported every module at start-up.
REPRO_JSON_SHA256 = "c4ea1158faeeaa661982e6d6d07242f870859529962e002d03b8104dadf704dd"

# sha256 of what four commands printed: the first three when each wrote its
# output line by line, and ``enum dags --n 5`` when ``dag_of_mask`` decoded each
# arc bit with ``divmod``. The model is ``VIOLATIONS_MODEL_TEXT``.
PRINTED_SHA256 = {
    "repro counterexample": "3dceeef9bc44eef7269e24c47c3590418d4128ebb755f4c14362b6c713aa8a93",
    "enum dags --n 3": "e333d9d456663434da34a161e8d23a3e4b3d5969435633b71ddeb33ee6781316",
    "enum dags --n 5": "21e7f3463faef7750bb1c616c8995867d171bac740c43257a40a91c3f6e7caf2",
    "model check --class semigraphoid --model {model}": (
        "d35ffa6fa7a6481aed63f5681b7ad05457363d1bd056282a4d7ce147cc024275"
    ),
}

VIOLATIONS_MODEL_TEXT = """\
vars: a b c
I a | - | b
I c | - | a
"""


def run_isolated(argv):
    """Exit code, watched modules loaded, and stdout of one isolated command."""
    src = str(Path(cimodels.__file__).resolve().parents[1])
    argv = [sys.executable, "-I", "-S", "-c", LOADED_CODE, src, *argv]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    code, *loaded = done.stderr.split()
    return int(code), set(loaded), done.stdout


class TestImportsPerCommand:
    """Each command loads only the modules it runs, and prints what it printed
    with every module loaded (in this process)."""

    @pytest.mark.parametrize(
        ("argv", "loaded"),
        [
            (["enum", "dags", "--n", "4", "--count"], set()),
            (["dag", "model", "--dag", "{dag}"], set()),
            (["graph", "sep", "--graph", "{graph}", "--A", "a", "--C", "b", "--B", "c"], set()),
            (["model", "restrict", "--model", "{model}", "--vars", "a"], set()),
            (["model", "check", "--model", "{model}", "--class", "causal"], {"cimodels.represent"}),
            (["model", "check", "--model", "{model}", "--class", "semigraphoid"], {"cimodels.represent"}),
            (["formula", "eval", "--model", "{model}", "--formula", "I(a, empty, b)"], {"cimodels.logic"}),
            (
                ["formula", "entails", "--family", "causal", "--given", "{model}", "--query", "b | - | a"],
                {"cimodels.logic"},
            ),
            (["repro", "counterexample"], {"cimodels.represent", "cimodels.repro"}),
        ],
    )
    def test_command_loads_only_what_it_runs(
        self, argv, loaded, dag_file, graph_file, model_file, capsys
    ):
        files = {"{dag}": str(dag_file), "{graph}": str(graph_file), "{model}": str(model_file)}
        argv = [files.get(arg, arg) for arg in argv]
        code, modules, out = run_isolated(argv)
        assert modules == loaded
        assert (code, out) == (main(argv), capsys.readouterr().out)

    def test_repro_json_is_unchanged(self):
        code, modules, out = run_isolated(["repro", "counterexample", "--json"])
        assert (code, modules) == (0, {"cimodels.represent", "cimodels.repro", "json"})
        assert hashlib.sha256(out.encode()).hexdigest() == REPRO_JSON_SHA256

    @pytest.mark.parametrize(
        ("command", "exit_code"),
        [
            ("repro counterexample", 0),
            ("enum dags --n 3", 0),
            ("enum dags --n 5", 0),
            ("model check --class semigraphoid --model {model}", 1),
        ],
    )
    def test_printed_text_is_unchanged(self, command, exit_code, tmp_path, capsys):
        model = tmp_path / "v.txt"
        model.write_text(VIOLATIONS_MODEL_TEXT)
        argv = [str(model) if arg == "{model}" else arg for arg in command.split()]
        assert main(argv) == exit_code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PRINTED_SHA256[command]


def library_error(call, *args):
    with pytest.raises(ValueError) as raised:
        call(*args)
    return f"error: {raised.value}\n"


class TestLibraryGates:
    """Gates and empty inputs the library rejects: exit 2, its message, no output."""

    def expect(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_enum_dags_zero_nodes(self, capsys):
        from cimodels.core import Universe

        message = library_error(Universe, ())
        self.expect(capsys, ["enum", "dags", "--n", "0"], message)

    @pytest.mark.parametrize("n", ["-1", "-7"])
    @pytest.mark.parametrize("count", [["--count"], []])
    def test_enum_dags_negative_nodes(self, capsys, n, count):
        from cimodels.dag import acyclic_arc_masks

        message = library_error(acyclic_arc_masks, int(n))
        self.expect(capsys, ["enum", "dags", "--n", n, *count], message)

    @pytest.mark.parametrize("count", [["--count"], []])
    def test_enum_dags_past_the_gate(self, capsys, count):
        from cimodels.dag import MAX_DAG_ENUM_NODES, acyclic_arc_masks

        n = MAX_DAG_ENUM_NODES + 1
        message = library_error(acyclic_arc_masks, n)
        self.expect(capsys, ["enum", "dags", "--n", str(n), *count], message)

    def test_causal_check_on_six_labels(self, tmp_path, capsys):
        from cimodels.represent import scan_causal_witness

        path = tmp_path / "six.txt"
        path.write_text("vars: a b c d e f\n")
        message = library_error(scan_causal_witness, parse_model(path.read_text()))
        self.expect(capsys, ["model", "check", "--model", str(path), "--class", "causal"], message)

    @pytest.mark.parametrize("family", ["causal", "graph-isomorph"])
    def test_entailment_past_the_gate(self, tmp_path, capsys, family):
        # One label past the enumerator's gate: its message.
        from cimodels.dag import MAX_DAG_ENUM_NODES, acyclic_arc_masks
        from cimodels.ugraph import MAX_GRAPH_ENUM_NODES, enumerate_undirected_graphs

        n = 1 + (MAX_DAG_ENUM_NODES if family == "causal" else MAX_GRAPH_ENUM_NODES)
        path = tmp_path / "past.txt"
        path.write_text("vars: " + " ".join(f"v{i}" for i in range(n)) + "\n")
        if family == "causal":
            message = library_error(acyclic_arc_masks, n)
        else:
            universe = parse_model(path.read_text()).universe
            message = library_error(next, enumerate_undirected_graphs(universe))
        argv = ["formula", "entails", "--family", family, "--given", str(path)]
        argv += ["--query", "v0 | - | v1"]
        self.expect(capsys, argv, message)

    def test_restrict_to_no_labels(self, model_file, capsys):
        model = parse_model(Path(model_file).read_text())
        message = library_error(model.restrict, 0)
        self.expect(capsys, ["model", "restrict", "--model", model_file, "--vars", ""], message)
