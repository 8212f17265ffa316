"""Command-line front end.

Exit codes: 0 for an affirmative decision or plain success, 1 for a negative
decision, 2 for usage or input errors.

Each handler returns its output and exit code, and ``main`` alone writes the
output: to a given ``--out`` file as UTF-8, else to stdout whole or not at
all, exiting 2 with an error that names stdout when it cannot take the text.

Each handler imports the library modules it runs, so a command loads only
those: ``enum`` and the ``graph``/``dag`` queries load neither the logic nor
the recognizers, ``model check`` no logic, ``formula`` no recognizer.
Likewise ``main`` builds the parser of the command it is given and no other,
and parses once; help before a command, an unknown command and no command get
the parser of all commands.
"""

from __future__ import annotations

import argparse
import errno
import sys
from functools import cache
from pathlib import Path

from . import formats
from .core import Universe, ValuationBudgetError
from .dag import acyclic_arc_masks, enumerate_dags


@cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser for one command, or for all of them when
    ``command`` is None; each built once per process: parsing reads it and
    leaves it as it was, and each call gets a fresh namespace. Either way the
    usage line names every command, so usage errors read the same."""
    parser = argparse.ArgumentParser(
        prog="cimodels",
        usage=f"%(prog)s [-h] {{{','.join(_COMMANDS)}}} ...",
        description="Separation and d-separation models, representability, and formula checks.",
    )
    # A command's prog would otherwise be derived from the usage line above.
    top = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(top.add_parser(name, help=help_text))
    return parser


def _add_graph(graph: argparse.ArgumentParser) -> None:
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    graph_sep = graph_sub.add_parser("sep", help="decide a separation query")
    graph_sep.add_argument("--graph", required=True, help="graph file")
    _add_set_args(graph_sep)
    graph_model = graph_sub.add_parser("model", help="dump the induced model")
    graph_model.add_argument("--graph", required=True, help="graph file")
    graph_model.add_argument("--out", help="write to this file instead of stdout")


def _add_dag(dag: argparse.ArgumentParser) -> None:
    dag_sub = dag.add_subparsers(dest="subcommand", required=True)
    dag_dsep = dag_sub.add_parser("dsep", help="decide a d-separation query")
    dag_dsep.add_argument("--dag", required=True, help="DAG file")
    _add_set_args(dag_dsep)
    dag_model = dag_sub.add_parser("model", help="dump the induced model")
    dag_model.add_argument("--dag", required=True, help="DAG file")
    dag_model.add_argument("--out", help="write to this file instead of stdout")


def _add_model(model: argparse.ArgumentParser) -> None:
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    restrict = model_sub.add_parser("restrict", help="keep triples inside a variable set")
    restrict.add_argument("--model", required=True, help="model file")
    restrict.add_argument("--vars", required=True, help="labels to keep, comma-separated")
    restrict.add_argument("--out", help="write to this file instead of stdout")
    check = model_sub.add_parser("check", help="class membership checks")
    check.add_argument("--model", required=True, help="model file")
    check.add_argument(
        "--class",
        dest="model_class",
        required=True,
        choices=["causal", "graph-isomorph", "semigraphoid"],
    )


def _add_formula(formula: argparse.ArgumentParser) -> None:
    formula_sub = formula.add_subparsers(dest="subcommand", required=True)
    feval = formula_sub.add_parser("eval", help="does the model satisfy the formula?")
    feval.add_argument("--model", required=True, help="model file")
    feval.add_argument(
        "--formula",
        required=True,
        help="formula text, or the path of a file holding it",
    )
    fentails = formula_sub.add_parser(
        "entails", help="does every family member with the given triples have the query?"
    )
    fentails.add_argument(
        "--family", required=True, choices=["causal", "graph-isomorph", "all-models"]
    )
    fentails.add_argument("--given", required=True, help="model file with the given triples")
    fentails.add_argument("--query", required=True, help="triple as '<set> | <set> | <set>'")


def _add_enum(enum: argparse.ArgumentParser) -> None:
    enum_sub = enum.add_subparsers(dest="subcommand", required=True)
    enum_dags = enum_sub.add_parser("dags", help="enumerate labeled DAGs")
    enum_dags.add_argument("--n", type=int, required=True, help="number of nodes")
    enum_dags.add_argument("--count", action="store_true", help="print only the count")


def _add_repro(repro: argparse.ArgumentParser) -> None:
    repro_sub = repro.add_subparsers(dest="subcommand", required=True)
    counterexample = repro_sub.add_parser(
        "counterexample", help="verify the non-representable restricted model"
    )
    counterexample.add_argument("--json", action="store_true", help="machine-readable report")


def _add_set_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--A", required=True, help="first set ('' or '-' for empty)")
    sub.add_argument("--C", required=True, help="conditioning set ('' or '-' for empty)")
    sub.add_argument("--B", required=True, help="second set ('' or '-' for empty)")


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        return
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError("stdout is closed")
    try:
        sys.stdout.write(text)  # encodes the whole text before writing any of it
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        hint = "; --out writes UTF-8" if hasattr(args, "out") else ""
        raise ValueError(f"stdout ({exc.encoding}) cannot encode {bad!r}{hint}") from None
    except OSError as exc:
        raise OSError(f"stdout: {exc}") from None


def _decide(label_true: str, label_false: str, outcome: bool) -> tuple[str, int]:
    return (f"{label_true}\n", 0) if outcome else (f"{label_false}\n", 1)


def _run_graph(args: argparse.Namespace) -> tuple[str, int]:
    graph = formats.load_graph(args.graph)
    if args.subcommand == "sep":
        a, c, b = (formats.parse_set(graph.universe, s) for s in (args.A, args.C, args.B))
        return _decide("SEPARATED", "NOT SEPARATED", graph.separates(a, c, b))
    return formats.format_model(graph.separation_model()), 0


def _run_dag(args: argparse.Namespace) -> tuple[str, int]:
    dag = formats.load_dag(args.dag)
    if args.subcommand == "dsep":
        a, c, b = (formats.parse_set(dag.universe, s) for s in (args.A, args.C, args.B))
        return _decide("SEPARATED", "NOT SEPARATED", dag.d_separates(a, c, b))
    return formats.format_model(dag.dsep_model()), 0


def _run_model(args: argparse.Namespace) -> tuple[str, int]:
    model = formats.load_model(args.model)
    if args.subcommand == "restrict":
        v_mask = formats.parse_set(model.universe, args.vars)
        return formats.format_model(model.restrict(v_mask)), 0
    from .represent import check_semigraphoid, is_causal, is_graph_isomorph

    if args.model_class == "causal":
        return _decide("CAUSAL", "NOT CAUSAL", is_causal(model).representable)
    if args.model_class == "graph-isomorph":
        return _decide(
            "GRAPH-ISOMORPH", "NOT GRAPH-ISOMORPH", is_graph_isomorph(model).representable
        )
    violations = check_semigraphoid(model)
    lines = []
    for v in violations:
        premises = ", ".join(formats.format_triple(model.universe, p) for p in v.premises)
        conclusion = formats.format_triple(model.universe, v.conclusion)
        lines.append(f"violation: {v.axiom}: [{premises}] without [{conclusion}]\n")
    label, code = _decide("SEMIGRAPHOID", "NOT SEMIGRAPHOID", not violations)
    return "".join(lines) + label, code


def _formula_text(arg: str) -> str:
    """The text of the file ``arg`` names, or ``arg`` itself if it names no file."""
    path = Path(arg)
    try:
        is_file = path.is_file()
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        is_file = False  # too long to be a file name, so it is formula text
    return formats.read_text(path) if is_file else arg


def _run_formula(args: argparse.Namespace) -> tuple[str, int]:
    from .logic import entails, model_satisfies, parse_formula

    if args.subcommand == "eval":
        model = formats.load_model(args.model)
        formula = parse_formula(_formula_text(args.formula))
        return _decide("SATISFIED", "NOT SATISFIED", model_satisfies(model, formula))
    given_model = formats.load_model(args.given)
    universe = given_model.universe
    query = formats.parse_triple(universe, args.query)
    outcome = entails(args.family, tuple(given_model.triples), query, universe)
    return _decide("ENTAILED", "NOT ENTAILED", outcome)


def _run_enum(args: argparse.Namespace) -> tuple[str, int]:
    table = acyclic_arc_masks(args.n)  # the DAG gate; it refuses a negative count too
    universe = Universe(tuple(str(i) for i in range(args.n)))
    if args.count:
        return f"{len(table)}\n", 0
    arcs = (" ".join(f"{u}->{v}" for u, v in sorted(d.arcs)) for d in enumerate_dags(universe))
    return "".join(f"{line or '-'}\n" for line in arcs), 0


def _run_repro(args: argparse.Namespace) -> tuple[str, int]:
    from .repro import verify_counterexample

    report = verify_counterexample()
    if args.json:
        import json

        lines = [json.dumps(report.to_dict(), indent=2)]
    else:
        checked = report.statements_checked
        lines = [f"{name}: {'holds' if holds else 'FAILS'}" for name, holds in checked]
        lines += [
            f"dags scanned: {report.dag_count_scanned}",
            f"causal witness: {'found' if report.causal_witness_found else 'none'}",
            f"semigraphoid violations: {'none' if report.semigraphoid_ok else 'present'}",
            "REPRODUCTION OK" if report.succeeded else "REPRODUCTION FAILED",
        ]
    return "".join(f"{line}\n" for line in lines), 0 if report.succeeded else 1


# Each command: its help line, the adder of its arguments, and its handler.
_COMMANDS = {
    "graph": ("undirected graph queries", _add_graph, _run_graph),
    "dag": ("DAG queries", _add_dag, _run_dag),
    "model": ("operations on model files", _add_model, _run_model),
    "formula": ("formula evaluation and entailment", _add_formula, _run_formula),
    "enum": ("exhaustive structure enumeration", _add_enum, _run_enum),
    "repro": ("rerun bundled derivations", _add_repro, _run_repro),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Help before a command, an unknown command or none at all need the whole tree.
    parser = _build_parser(argv[0]) if argv and argv[0] in _COMMANDS else _build_parser()
    args = parser.parse_args(argv)
    try:
        if [] in vars(args).values():  # argparse before 3.13 reads '--query=--' as []
            raise ValueError("an option's value cannot be '--'")
        _, _, run = _COMMANDS[args.command]
        text, code = run(args)
        _emit(text, args)
        return code
    except (ValueError, ValuationBudgetError, OSError) as exc:
        # FormatError and FormulaSyntaxError are ValueErrors.
        try:
            sys.stderr.write(f"error: {exc}\n")
        except (AttributeError, OSError):  # stderr closed (None) or failing
            pass
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
