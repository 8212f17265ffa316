"""The benchmark's three workloads: their operations, inputs, digests and checks.

An operation (``Op``) is one user action against the library. ``run`` makes
every library call through a tracer and returns ``(canonical text,
payload)``: the text is what the goldens digest, the payload what ``check``
and ``verify`` inspect after the timed region. ``check`` tests properties
that hold for any seed (a witness induces the model, printing then parsing
keeps a formula); ``verify`` recomputes the answer with ``reference``, which
is slower, so the worker runs it on a bounded sample. All inputs are built
here, before any timing, by ``reference``; the library only receives arc
lists, edge lists, model text and formula text. Every operation builds its
own library objects (models, DAGs, graphs) inside the timed region, so state
the library caches on an object is paid by each operation, as by a CLI user.

Each workload has
- a *stream*: many cheap operations in a fixed round-robin of kinds. Their
  structures (DAGs, graphs, models, formulas, queries) are drawn once from
  the constant ``BASE_SEED``; ``--seed`` then draws a relabeling of each
  operation's labels (``causal-scan``: a renaming, see there). The cost of
  these operations hangs on the structure drawn (the number of arcs,
  whether a model has a witness, how many variables a formula uses), so
  drawing structures from ``--seed`` would make every metric depend on the
  seed; a relabeling keeps all of that and changes the text, the scan
  positions and the answers' labels;
- a *panel*: a few expensive operations on constant inputs drawn from
  ``BASE_SEED``. Their cost hangs on the input (a 5-label causal scan takes
  0.1 to 7.4 s depending on where its witness lies). They take seconds
  each, too long to run the many times that a steady least time needs, so
  only the traced run and ``--record`` run them;
- *probes*: single library calls from the ROADMAP baseline table, run only
  by the traced run and by ``--probe``.

A measured run repeats the stream alone, in passes, and keeps the least time
of each operation's runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

from cimodels import (
    Dag,
    IndependencyModel,
    Triple,
    UndirectedGraph,
    Universe,
    Valuation,
    check_clause,
    check_semigraphoid,
    entails,
    enumerate_dags,
    enumerate_disjoint_triples,
    format_formula,
    format_model,
    formula_variables,
    is_graph_isomorph,
    is_valid_valuation,
    model_equals,
    model_satisfies,
    parse_clause,
    parse_formula,
    parse_model,
    scan_causal_witness,
    verify_counterexample,
)
from cimodels.cli import main as cli_main

import reference as R

BASE_SEED = 2008
DEFAULT_SEED = 1
DAG_COUNTS = {4: 543, 5: 29281}  # labeled DAGs on 4 and 5 nodes
REPRO_CONTRACT = ("statements", "dags_scanned", "causal_witness", "semigraphoid_ok", "succeeded")

# Stream operations per workload, multiples of each round-robin length. At
# least 100, so that 10 lie beyond the 90th latency percentile; not many
# more, so that each runs many times in a measured run. One pass over them
# takes 1.3 to 4 s on a 2-CPU x86-64 box with CPython 3.11.
CAUSAL_STREAM = 104
FORMULA_STREAM = 210
MODEL_BUILD_STREAM = 128

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    key: str
    kind: str
    run: Callable[[Any], tuple[str, Any]]
    check: Check | None = None
    verify: Check | None = None
    inputs: dict | None = None  # what the oracle cross-check needs to know


@dataclass
class Workload:
    stream: list[Op]
    panel: list[Op]
    probes: list[Op]

    def distinct(self) -> list[Op]:
        """Every operation once: the stream with the panel spread evenly in."""
        ops = list(self.stream)
        for k in reversed(range(len(self.panel))):
            ops.insert(round((k + 0.5) * len(self.stream) / len(self.panel)), self.panel[k])
        return ops


def _dag(t, n: int, arcs) -> Dag:
    return t.call("dag.Dag", Dag, Universe(R.labels(n)), frozenset(arcs))


def _graph(t, n: int, edges) -> UndirectedGraph:
    return t.call("ugraph.UndirectedGraph", UndirectedGraph, Universe(R.labels(n)), frozenset(edges))


def _tri(t: Triple | None):
    return None if t is None else (t.a, t.c, t.b)


def _drain(generate, *args) -> int:
    """Consume a generator inside the span that times it; return its length."""
    return sum(1 for _ in generate(*args))


def _cli(t, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t.call("cli.main", cli_main, argv)
    return code, out.getvalue() + err.getvalue()


def digest(text: str) -> str:
    """The 16-hex-digit SHA-256 prefix that goldens and checks compare."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli_op(key, kind, argv, check: Check, out_file: str | None = None, verify: Check | None = None) -> Op:
    """An in-process CLI command. Its output is stdout and stderr, then the
    ``--out`` file; the payload keeps the exit code, the output's hash and
    its start, so that memory does not grow with the number of operations."""

    def run(t):
        code, text = _cli(t, argv)
        if out_file is not None:
            with open(out_file) as fh:
                text += fh.read()
        return f"exit={code}\n{text}", (code, digest(text), text[:80])

    return Op(key, kind, run, check, verify)


def _expect_cli(code: int, text: Callable[[], str] | str) -> Check:
    def check(payload):
        want = text() if callable(text) else text
        got_code, got, start = payload
        return None if (got_code, got) == (code, digest(want)) else f"CLI gave exit {got_code} and {start!r}"

    return check


def _repro_json_op(key: str) -> Op:
    def run(t):
        code, text = _cli(t, ["repro", "counterexample", "--json"])
        data = json.loads(text)
        contract = {k: data[k] for k in REPRO_CONTRACT}
        return f"exit={code}\n{json.dumps(contract, sort_keys=True)}", (code, contract)

    def check(payload):
        code, c = payload
        ok = (
            code == 0
            and c["succeeded"]
            and c["dags_scanned"] == DAG_COUNTS[4]
            and not c["causal_witness"]
            and c["semigraphoid_ok"]
            and len(c["statements"]) == 7
            and all(s["holds"] for s in c["statements"])
        )
        return None if ok else f"repro report is wrong: {c}"

    return Op(key, "repro_json", run, check)


# causal-scan


def _model_check_op(key: str, kind: str, names, triples, graph_edges=None) -> Op:
    """``model check --class graph-isomorph|causal|semigraphoid`` on model text."""
    text = R.model_text(names, triples)
    n = len(names)

    def run(t):
        model = t.call("formats.parse_model", parse_model, text)
        gi = t.call("represent.is_graph_isomorph", is_graph_isomorph, model)
        witness, scanned = t.call("represent.scan_causal_witness", scan_causal_witness, model)
        violations = t.call("represent.check_semigraphoid", check_semigraphoid, model)
        if t.tracing:
            t.count("represent.scan_causal_witness.dags_scanned", scanned)
            t.count("represent.scan_causal_witness.witnesses", witness is not None)
            t.count("represent.check_semigraphoid.violations", len(violations))
            if gi.representable:
                t.count("core.triples_enumerated", 4**n)
        arcs = sorted(witness.arcs) if witness else None
        edges = sorted(gi.witness.edges) if gi.representable else None
        found = [(v.axiom, [_tri(p) for p in v.premises], _tri(v.conclusion)) for v in violations]
        canon = f"graph={edges} first={_tri(gi.first_discrepancy)} dag={arcs} scanned={scanned} violations={found}"
        return canon, (edges, arcs, scanned, len(violations))

    def check(payload):
        edges, arcs, scanned, violations = payload
        if violations:
            return f"{violations} semi-graphoid violations in a DAG or graph model"
        if arcs is None and scanned != DAG_COUNTS[n]:
            return f"no witness after {scanned} of {DAG_COUNTS[n]} DAGs"
        if arcs is None and kind in ("dag4", "dag5"):
            return "no DAG witness for a DAG's own model"
        if arcs is not None and not 1 <= scanned <= DAG_COUNTS[n]:
            return f"scan count {scanned} out of range"
        if edges is None and graph_edges is not None:
            return "a graph's own separation model is not graph-isomorph"
        return None

    def verify(payload):
        edges, arcs, _, _ = payload
        if arcs is not None and R.dsep_triples(n, arcs) != triples:
            return f"witness {arcs} does not induce the model"
        if edges is not None and R.separation_triples(n, edges) != triples:
            return f"graph witness {edges} does not induce the model"
        return None

    return Op(key, kind, run, check, verify, {"n": n, "triples": triples})


def causal_scan(seed: int, workdir: str) -> Workload:
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    stream = []
    # One operation in eight is the 4-cycle's separation model, which no DAG
    # induces: a full 543-DAG scan. So more than a tenth of the operations
    # are full scans, and the 90th latency percentile lies among them and
    # not in the thin tail of witness positions, where it would jump with
    # the scan order.
    kinds = ("restricted", "dag4", "restricted", "graph4", "restricted", "dag4", "restricted", "cycle4")
    for i in range(CAUSAL_STREAM):
        kind = kinds[i % len(kinds)]
        edges = None
        if kind == "restricted":
            # The paper's counterexample kind: a 5-node DAG's model on 4 labels.
            keep = 0b11111 & ~(1 << base.randrange(5))
            triples = R.dsep_triples(5, R.random_dag(base, 5, base.uniform(0.25, 0.6)), keep)
        elif kind == "dag4":
            triples = R.dsep_triples(4, R.random_dag(base, 4, base.uniform(0.25, 0.75)))
        else:
            edges = R.cycle_edges(4) if kind == "cycle4" else R.random_graph(base, 4, base.uniform(0.3, 0.7))
            triples = R.separation_triples(4, edges)
        # Unlike the other workloads, the seed renames the labels here and
        # keeps their order. The cost of a model check is mostly where the
        # scan first meets a witness, which a relabeling moves in uneven
        # steps: with relabeled models the median latency had an
        # interquartile range of 27 % of its median over ten seeds.
        stream.append(_model_check_op(f"s{i}", kind, R.random_names(rng, 4), triples, edges))

    prng = random.Random(BASE_SEED)
    five = R.labels(5)
    cycle = R.cycle_edges(5)

    def repro_ok(payload):  # the command exits 0 only when every claim is re-derived
        return None if payload[0] == 0 else f"repro counterexample exited {payload[0]}: {payload[2]!r}"

    panel = [
        _model_check_op("p0", "dag5", five, R.dsep_triples(5, R.random_dag(prng, 5, 0.4))),
        _cli_op("p1", "repro", ["repro", "counterexample"], repro_ok),
        _model_check_op("p2", "cycle5", five, R.separation_triples(5, cycle), cycle),
    ]

    universe5 = Universe(five)

    def enum_dags(t):
        count = t.call("dag.enumerate_dags", _drain, enumerate_dags, universe5)
        t.count("dag.enumerate_dags.dags", count)
        return str(count), count

    def verify_run(t):
        report = t.call("repro.verify_counterexample", verify_counterexample)
        return json.dumps(report.to_dict(), sort_keys=True), report.succeeded

    probes = [
        Op("q-enumerate_dags-5", "probe", enum_dags, lambda c: None if c == DAG_COUNTS[5] else f"{c} DAGs"),
        Op("q-verify_counterexample", "probe", verify_run, lambda ok: None if ok else "reproduction failed"),
        _repro_json_op("q-repro-json"),
    ]
    return Workload(stream, panel, probes)


def cycle_scan_probe() -> Op:
    """``scan_causal_witness`` alone on the 5-cycle's model: a full scan, no witness."""
    model = parse_model(R.model_text(R.labels(5), R.separation_triples(5, R.cycle_edges(5))))

    def run(t):
        witness, scanned = t.call("represent.scan_causal_witness", scan_causal_witness, model)
        return f"{witness} {scanned}", (witness, scanned)

    def check(payload):
        return None if payload == (None, DAG_COUNTS[5]) else f"5-cycle scan gave {payload}"

    return Op("q-scan_causal_witness-5-cycle", "probe", run, check)


# formula-eval


def _model_pool(rng: random.Random) -> list:
    """4-label models as triples.

    Two in three are DAG models, the rest random triple sets, closed under
    symmetry or not. Random formulas fail fast on random sets; with this
    share about a third of all operations exit early, so the median lies
    inside the cluster of full 2-variable enumerations rather than on the
    edge between the two clusters, where a change of a few percent in the
    mix would move it.
    """
    pool = []
    for i in range(36):
        if i % 6 < 4:
            triples = R.dsep_triples(4, R.random_dag(rng, 4, rng.uniform(0.2, 0.7)))
        else:
            triples = R.random_triples(rng, 4, rng.uniform(0.2, 0.5), symmetric=i % 6 == 4)
        pool.append(triples)
    return pool


def _valuation_counts(text: str, n: int) -> tuple[int, int]:
    """All and valid valuations of the formula's variables over ``n`` labels.

    Validity is decided per label, so the valid ones are ``P**n`` where ``P``
    counts the 1-label valuations the library's ``is_valid_valuation`` accepts.
    """
    tree = parse_formula(text)
    names = formula_variables(tree)
    one = Universe(("x",))
    empty = IndependencyModel(one, frozenset())
    valid = sum(
        is_valid_valuation(Valuation(one, dict(zip(names, masks))), tree, empty)
        for masks in product((0, 1), repeat=len(names))
    )
    return 2 ** (n * len(names)), valid**n


def _formula_op(key, kind, text, n, triples, model_text, expect=None, ast=None) -> Op:
    """``formula eval``: parse the model and the formula, print the formula,
    and decide it in the model."""
    total, valid = _valuation_counts(text, n)

    def run(t):
        model = t.call("formats.parse_model", parse_model, model_text)
        tree = t.call("logic.parse_formula", parse_formula, text)
        printed = t.call("logic.format_formula", format_formula, tree)
        holds = t.call("logic.model_satisfies", model_satisfies, model, tree)
        t.count("logic.valuations_total", total)
        t.count("logic.valuations_valid", valid)
        return f"{printed}\n{holds}", (tree, printed, holds)

    def check(payload):
        tree, printed, holds = payload
        if parse_formula(printed) != tree:
            return f"printing then parsing changed {text!r}"
        if expect is not None and holds != expect:
            return f"{text!r} gave {holds}, expected {expect}"
        return None

    def verify(payload):
        holds = payload[2]
        return None if R.satisfies(n, triples, ast) == holds else f"{text!r} gave {holds}, the reference disagrees"

    return Op(key, kind, run, check, verify if ast is not None else None)


def _clause_op(key, literals, n, triples, model_text) -> Op:
    text = R.clause_text(*literals)
    total, valid = _valuation_counts(text, n)

    def run(t):
        model = t.call("formats.parse_model", parse_model, model_text)
        clause = t.call("logic.parse_clause", parse_clause, text)
        holds = t.call("logic.check_clause", check_clause, model, clause)
        t.count("logic.valuations_total", total)
        t.count("logic.valuations_valid", valid)
        return str(holds), holds

    def verify(holds):
        if R.clause_holds(n, triples, *literals) == holds:
            return None
        return f"clause {text!r} gave {holds}, the reference disagrees"

    return Op(key, "clause", run, None, verify)


def formula_eval(seed: int, workdir: str) -> Workload:
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    pool = _model_pool(base)
    stream = []
    kinds = ("formula2", "clause", "formula3", "symmetry", "formula2", "clause", "formula2")
    for i in range(FORMULA_STREAM):
        kind = kinds[i % len(kinds)]
        # A relabeled model satisfies exactly the formulas the model does.
        triples = R.relabel_triples(base.choice(pool), R.permutation(rng, 4))
        model_text = R.model_text(R.labels(4), triples)
        names = ["X1", "X2", "X3"][: {"formula2": 2, "formula3": 3}.get(kind) or base.choice((2, 3))]
        key = f"s{i}"
        if kind == "symmetry":
            closed = all((b, c, a) in triples for a, c, b in triples)
            op = _formula_op(key, kind, R.AXIOM_FORMULAS["symmetry"], 4, triples, model_text, expect=closed)
        elif kind == "clause":
            op = _clause_op(key, R.random_clause(base, names), 4, triples, model_text)
        else:
            ast = R.random_formula(base, names, 2)
            op = _formula_op(key, kind, R.formula_text(ast), 4, triples, model_text, ast=ast)
        stream.append(op)

    # Every DAG model satisfies the four schemata.
    prng = random.Random(BASE_SEED)
    four = R.dsep_triples(4, R.random_dag(prng, 4, 0.5))
    five = R.dsep_triples(5, R.random_dag(prng, 5, 0.4))
    four_text, five_text = R.model_text(R.labels(4), four), R.model_text(R.labels(5), five)
    axiom = R.AXIOM_FORMULAS
    panel = [
        _formula_op("p0", "axiom4", axiom["symmetry"], 4, four, four_text, expect=True),
        _formula_op("p1", "axiom4", axiom["decomposition"], 4, four, four_text, expect=True),
        _formula_op("p2", "axiom5", axiom["symmetry"], 5, five, five_text, expect=True),
        _formula_op("p3", "axiom5", axiom["weak_union"], 5, five, five_text, expect=True),
        _formula_op("p4", "axiom4", axiom["weak_union"], 4, four, four_text, expect=True),
        _formula_op("p5", "axiom4", axiom["contraction"], 4, four, four_text, expect=True),
    ]

    model_file = os.path.join(workdir, "formula-eval-panel5.model")
    with open(model_file, "w") as fh:
        fh.write(five_text)

    # Probes time one library call alone, so their inputs are built untimed.
    four_model = parse_model(four_text)

    def satisfies_probe(name):
        tree = parse_formula(axiom[name])

        def run(t):
            holds = t.call("logic.model_satisfies", model_satisfies, four_model, tree)
            return str(holds), holds

        return Op(f"q-model_satisfies-{name}-4", "probe", run, lambda h: None if h else "axiom fails on a DAG model")

    eval_argv = ["formula", "eval", "--model", model_file, "--formula", axiom["weak_union"]]
    probes = [
        satisfies_probe("weak_union"),
        satisfies_probe("contraction"),
        _cli_op("q-cli-formula-eval-weak_union-5", "probe", eval_argv, _expect_cli(0, "SATISFIED\n")),
    ]
    return Workload(stream, panel, probes)


# model-build


def _build_op(key, n, structure, edges) -> Op:
    """Build the induced model, write it out, and read it back."""
    is_dag = structure == "dag"

    def run(t):
        if is_dag:
            model = t.call("dag.Dag.dsep_model", _dag(t, n, edges).dsep_model)
        else:
            model = t.call("ugraph.UndirectedGraph.separation_model", _graph(t, n, edges).separation_model)
        text = t.call("formats.format_model", format_model, model)
        back = t.call("formats.parse_model", parse_model, text)
        same = t.call("core.model_equals", model_equals, back, model)
        t.count("core.triples_enumerated", 4**n)
        t.count("formats.format_model.bytes", len(text))
        return f"{same}\n{text}", (same, digest(text))

    def check(payload):
        return None if payload[0] else "a format/parse round trip changed the model"

    def verify(payload):
        triples = R.dsep_triples(n, edges) if is_dag else R.separation_triples(n, edges)
        return None if payload[1] == digest(R.model_text(R.labels(n), triples)) else "built model differs from the reference"

    return Op(key, f"build_{structure}", run, check, verify, {"n": n, "pairs": edges})


def _restrict_op(key, n, edges, keep) -> Op:
    """Marginal-graph closure: restricting the model equals the marginal graph's model."""

    def run(t):
        graph = _graph(t, n, edges)
        full = t.call("ugraph.UndirectedGraph.separation_model", graph.separation_model)
        restricted = t.call("core.IndependencyModel.restrict", full.restrict, keep)
        marginal = t.call("ugraph.UndirectedGraph.marginal_graph", graph.marginal_graph, keep)
        marginal_model = t.call("ugraph.UndirectedGraph.separation_model", marginal.separation_model)
        same = t.call("core.model_equals", model_equals, restricted, marginal_model)
        t.count("core.triples_enumerated", 4**n + 4 ** bin(keep).count("1"))
        kept = sorted(_tri(x) for x in restricted.triples)
        return f"{same} {sorted(marginal.edges)} {kept}", same

    return Op(key, "restrict", run, lambda same: None if same else "marginal-graph closure fails")


def _graph_iso_op(key, n, edges) -> Op:
    want = sorted((u, v) if u < v else (v, u) for u, v in edges)

    def run(t):
        model = t.call("ugraph.UndirectedGraph.separation_model", _graph(t, n, edges).separation_model)
        result = t.call("represent.is_graph_isomorph", is_graph_isomorph, model)
        t.count("core.triples_enumerated", 4**n * (1 + result.representable))
        got = sorted(result.witness.edges) if result.representable else None
        return f"{got}", got

    return Op(key, "graph_iso", run, lambda got: None if got == want else f"witness {got}, graph {want}")


def _semigraphoid_op(key, n, arcs) -> Op:
    def run(t):
        model = t.call("dag.Dag.dsep_model", _dag(t, n, arcs).dsep_model)
        violations = t.call("represent.check_semigraphoid", check_semigraphoid, model)
        t.count("core.triples_enumerated", 4**n)
        t.count("represent.check_semigraphoid.violations", len(violations))
        return f"{len(model)} {len(violations)}", len(violations)

    check = lambda v: None if v == 0 else f"{v} violations in a DAG model"
    return Op(key, "semigraphoid", run, check, None, {"n": n, "pairs": arcs})


def _points_op(key, n, arcs, edges, queries) -> Op:
    def run(t):
        dag, graph = _dag(t, n, arcs), _graph(t, n, edges)
        d = [t.call("dag.Dag.d_separates", dag.d_separates, *q) for q in queries]
        m = [t.call("dag.Dag.d_separates_moral", dag.d_separates_moral, *q) for q in queries]
        s = [t.call("ugraph.UndirectedGraph.separates", graph.separates, *q) for q in queries]
        return " ".join("".join("01"[x] for x in row) for row in (d, m, s)), (d, m, s)

    def check(payload):
        return None if payload[0] == payload[1] else "d_separates and d_separates_moral disagree"

    def verify(payload):
        d, _, s = payload
        dsep = R.DSeparation(n, arcs)
        if d != [dsep.separated(*q) for q in queries]:
            return "d_separates disagrees with the reference"
        if s != [R.graph_separated(n, edges, *q) for q in queries]:
            return "separates disagrees with the reference"
        return None

    return Op(key, "points", run, check, verify)


def _family_members(family: str, n: int) -> list:
    """A separation test for every DAG (``causal``) or graph on ``n`` nodes."""
    if family == "causal":
        return [R.DSeparation(n, arcs).separated for arcs in R.all_dags(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graphs = [[pairs[k] for k in R.bits(mask)] for mask in range(1 << len(pairs))]
    return [lambda a, c, b, e=e: R.graph_separated(n, e, a, c, b) for e in graphs]


def _entails_op(key, family, n, given, query, members: dict) -> Op:
    def run(t):
        universe = Universe(R.labels(n))
        given_triples, query_triple = tuple(Triple(*g) for g in given), Triple(*query)
        holds = t.call("logic.entails", entails, family, given_triples, query_triple, universe)
        return str(holds), holds

    def verify(holds):
        if family not in members:
            members[family] = _family_members(family, n)
        expected = all(sep(*query) for sep in members[family] if all(sep(*g) for g in given))
        return None if holds == expected else f"entails gave {holds}, the reference gives {expected}"

    return Op(key, f"entails_{family}", run, None, verify)


def _model_cli_op(key, n, arcs, keep, workdir, restrict: bool) -> Op:
    """``dag model --out`` on a DAG file, or ``model restrict --out`` on a model file."""
    names = R.labels(n)
    path = os.path.join(workdir, f"model-build-{key}.in")
    out = os.path.join(workdir, f"model-build-{key}.out")
    kept = [names[j] for j in R.bits(keep)]
    with open(path, "w") as fh:
        fh.write(R.model_text(names, R.dsep_triples(n, arcs)) if restrict else R.dag_text(names, arcs))
    if restrict:
        argv = ["model", "restrict", "--model", path, "--vars", ",".join(kept), "--out", out]
    else:
        argv = ["dag", "model", "--dag", path, "--out", out]

    def ran(payload):
        code, _, start = payload
        return None if code == 0 else f"CLI exited {code}: {start!r}"

    verify = _expect_cli(0, lambda: R.model_text(kept, R.dsep_triples(n, arcs, keep)))
    return _cli_op(key, "cli_restrict" if restrict else "cli_dag_model", argv, ran, out, verify)


def model_build(seed: int, workdir: str) -> Workload:
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    kinds = ("build_dag", "points", "build_graph", "cli", "restrict", "entails", "graph_iso", "semigraphoid")
    members: dict = {}
    stream = []
    for i in range(MODEL_BUILD_STREAM):
        kind = kinds[i % len(kinds)]
        # Every block of 32 operations covers each kind at each size and density once.
        n = (5, 6)[i // len(kinds) % 2]
        p = (0.3, 0.6)[i // (2 * len(kinds)) % 2]
        key = f"s{i}"
        perm = R.permutation(rng, n)
        arcs = R.relabel_pairs(R.random_dag(base, n, p), perm)
        edges = R.relabel_pairs(R.random_graph(base, n, p), perm)
        if kind == "build_dag":
            op = _build_op(key, n, "dag", arcs)
        elif kind == "semigraphoid":
            op = _semigraphoid_op(key, n, arcs)
        elif kind == "build_graph":
            op = _build_op(key, n, "graph", edges)
        elif kind == "graph_iso":
            op = _graph_iso_op(key, n, edges)
        elif kind == "restrict":
            drop = (1 << base.randrange(n)) | (1 << base.randrange(n))
            op = _restrict_op(key, n, edges, R.relabel_mask((1 << n) - 1 & ~drop, perm))
        elif kind == "points":
            queries = [tuple(R.relabel_mask(m, perm) for m in R.random_query(base, n)) for _ in range(40)]
            op = _points_op(key, n, arcs, edges, queries)
        elif kind == "entails":
            family, m = ("causal", 4) if i // len(kinds) % 2 else ("graph-isomorph", 5)
            small = R.permutation(rng, m)
            given, query = [R.random_query(base, m) for _ in range(base.randrange(1, 3))], R.random_query(base, m)
            relabel = lambda q: tuple(R.relabel_mask(x, small) for x in q)
            op = _entails_op(key, family, m, [relabel(g) for g in given], relabel(query), members)
        else:
            restrict = i // len(kinds) % 2 == 1
            keep = R.relabel_mask((1 << n) - 1 & ~(1 << base.randrange(n)), perm) if restrict else (1 << n) - 1
            op = _model_cli_op(key, n, arcs, keep, workdir, restrict)
        stream.append(op)

    prng = random.Random(BASE_SEED)
    panel = [
        _build_op("p0", 8, "dag", R.random_dag(prng, 8, 0.3)),
        _semigraphoid_op("p1", 8, R.random_dag(prng, 8, 0.6)),
        _build_op("p2", 7, "graph", R.random_graph(prng, 7, 0.3)),
        _cli_op("p3", "enum_dags", ["enum", "dags", "--n", "5", "--count"], _expect_cli(0, "29281\n")),
        _graph_iso_op("p4", 8, R.random_graph(prng, 8, 0.6)),
        _restrict_op("p5", 8, R.random_graph(prng, 8, 0.3), 0b00111111),
        _build_op("p6", 7, "dag", R.random_dag(prng, 7, 0.6)),
        _repro_json_op("p7"),
        _build_op("p8", 8, "graph", R.random_graph(prng, 8, 0.6)),
    ]

    def triples_probe(n):
        universe = Universe(R.labels(n))

        def run(t):
            count = t.call("core.enumerate_disjoint_triples", _drain, enumerate_disjoint_triples, universe)
            t.count("core.triples_enumerated", count)
            return str(count), count

        return Op(f"q-enumerate_disjoint_triples-{n}", "probe", run, lambda c: None if c == 4**n else f"{c} triples")

    def dsep_probe(n):
        arcs = R.random_dag(random.Random(BASE_SEED + n), n, 0.4)

        def run(t):
            model = t.call("dag.Dag.dsep_model", _dag(t, n, arcs).dsep_model)
            t.count("core.triples_enumerated", 4**n)
            return str(sorted(_tri(x) for x in model.triples)), model

        def verify(model):
            return None if {_tri(x) for x in model.triples} == R.dsep_triples(n, arcs) else "dsep_model is wrong"

        return Op(f"q-dsep_model-{n}", "probe", run, None, verify)

    probes = [triples_probe(5), triples_probe(6), dsep_probe(5), dsep_probe(6)]
    return Workload(stream, panel, probes)


WORKLOADS = {"causal-scan": causal_scan, "formula-eval": formula_eval, "model-build": model_build}
