"""Command-line surface: outputs, exit codes, and diagnostics."""

import errno
import json
from pathlib import Path

import pytest

from cimodels.cli import main
from cimodels.formats import parse_model

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


class TestModelCheck:
    def test_semigraphoid_negative(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("vars: a b\nI a | - | b\n")
        assert main(["model", "check", "--model", str(path), "--class", "semigraphoid"]) == 1
        out = capsys.readouterr().out
        assert "violation: symmetry" in out
        assert out.strip().endswith("NOT SEMIGRAPHOID")

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
        # Five variables over five labels: (2**5)**5 valuations times two
        # atoms is 2**26 checks, past the default budget of 2**24.
        path = tmp_path / "five.txt"
        path.write_text("vars: a b c d e\nI a | - | b\n")
        text = "I(X1, X2, X3) -> I(X4, X5, X1)"
        assert main(["formula", "eval", "--model", str(path), "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 67108864 valuation-atom checks exceed the budget of 16777216\n"
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

    def test_entails_gate(self, dag_file, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("vars: a b c d e f\n")
        assert main(["formula", "entails", "--family", "causal", "--given", str(big), "--query", "a | - | b"]) == 2


class TestEnum:
    def test_count(self, capsys):
        assert main(["enum", "dags", "--n", "4", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "543"

    def test_listing(self, capsys):
        assert main(["enum", "dags", "--n", "2", "--count"]) == 0
        assert main(["enum", "dags", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3"
        assert lines[1:] == ["-", "0->1", "1->0"]

    def test_gate(self, capsys):
        assert main(["enum", "dags", "--n", "6", "--count"]) == 2


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
