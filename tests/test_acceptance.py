"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. All checks are exact (boolean or counting); the timed criteria
assert their wall-clock bounds.
"""

import json
import random
import time
from itertools import product

from cimodels.cli import main
from cimodels.core import Triple, enumerate_disjoint_triples, model_equals
from cimodels.dag import enumerate_dags
from cimodels.logic import (
    Atom,
    Not,
    Var,
    check_clause,
    entails,
    format_formula,
    implies,
    model_satisfies,
    parse_formula,
)
from cimodels.represent import (
    SEMIGRAPHOID_AXIOM_FORMULAS,
    check_semigraphoid,
    is_causal,
    is_graph_isomorph,
)
from cimodels.repro import verify_counterexample
from cimodels.ugraph import enumerate_undirected_graphs

from oracles import (
    check_clause_bruteforce,
    dag_count,
    random_clause,
    random_formula,
    random_model,
    universe_of_size,
)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def test_criterion_1_counterexample_reproduction(capsys):
    start = time.perf_counter()
    report = verify_counterexample()
    elapsed = time.perf_counter() - start
    cli_code = main(["repro", "counterexample", "--json"])
    data = json.loads(capsys.readouterr().out)
    ok = (
        report.succeeded
        and len(report.statements_checked) == 7
        and all(holds for _, holds in report.statements_checked)
        and report.dag_count_scanned == 543
        and not report.causal_witness_found
        and report.semigraphoid_ok
        and cli_code == 0
        and data["dags_scanned"] == 543
        and elapsed < 5.0
    )
    with capsys.disabled():
        _report(1, ok, f"7 statements hold, 543 DAGs scanned, no witness, {elapsed:.2f}s")
    assert ok


def test_criterion_2_marginal_closure(capsys):
    start = time.perf_counter()
    failures = 0
    pairs_checked = 0
    for n in (1, 2, 3, 4):
        u = universe_of_size(n)
        for g in enumerate_undirected_graphs(u):
            full_model = g.separation_model()
            for v_mask in range(1, 1 << n):
                restricted = full_model.restrict(v_mask)
                marginal_model = g.marginal_graph(v_mask).separation_model()
                if not model_equals(restricted, marginal_model):
                    failures += 1
                if not is_graph_isomorph(restricted).representable:
                    failures += 1
                pairs_checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    with capsys.disabled():
        _report(2, ok, f"{pairs_checked} graph/restriction pairs, {failures} failures, {elapsed:.1f}s")
    assert ok


def _single_slot_atoms(names):
    return [Atom(Var(a), Var(b), Var(c)) for a, b, c in product(names, repeat=3)]


def test_criterion_3_heredity(capsys):
    rng = random.Random(2026)
    counterexamples = 0
    randomized = 0
    non_vacuous = 0

    for _ in range(220):
        n = rng.choice((2, 2, 3))
        u = universe_of_size(n)
        if rng.random() < 0.5:
            m = random_model(rng, u, p=rng.uniform(0.2, 0.6), symmetric=rng.random() < 0.5)
        else:
            dag = rng.choice(list(enumerate_dags(u)))
            m = dag.dsep_model()
        formula = random_formula(rng, ["X1", "X2"], depth=2, complement_free=True)
        v_mask = rng.randrange(1, 1 << n)
        randomized += 1
        if not model_satisfies(m, formula):
            continue
        non_vacuous += 1
        if not model_satisfies(m.restrict(v_mask), formula):
            counterexamples += 1

    exhaustive = 0
    names = ("X1", "X2", "X3")
    premise = Atom(Var("X1"), Var("X2"), Var("X3"))
    battery = [implies(premise, conclusion) for conclusion in _single_slot_atoms(names)]
    battery.extend(_single_slot_atoms(names))
    battery.extend(Not(a) for a in _single_slot_atoms(names))
    for n in (1, 2, 3):
        u = universe_of_size(n)
        for dag in enumerate_dags(u):
            m = dag.dsep_model()
            satisfied = [f for f in battery if model_satisfies(m, f)]
            for v_mask in range(1, 1 << n):
                restricted = m.restrict(v_mask)
                for f in satisfied:
                    exhaustive += 1
                    if not model_satisfies(restricted, f):
                        counterexamples += 1

    ok = counterexamples == 0 and randomized >= 200 and non_vacuous >= 30
    with capsys.disabled():
        _report(
            3,
            ok,
            f"{randomized} randomized ({non_vacuous} non-vacuous) + {exhaustive} exhaustive, "
            f"{counterexamples} counterexamples",
        )
    assert ok


def test_criterion_4_dsep_oracle_agreement(capsys):
    start = time.perf_counter()
    u = universe_of_size(4)
    triples = list(enumerate_disjoint_triples(u))
    queries = 0
    disagreements = 0
    for dag in enumerate_dags(u):
        for t in triples:
            queries += 1
            if dag.d_separates(t.a, t.c, t.b) != dag.d_separates_moral(t.a, t.c, t.b):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = queries == 139008 and disagreements == 0 and elapsed < 30.0
    with capsys.disabled():
        _report(4, ok, f"{queries} queries, {disagreements} disagreements, {elapsed:.1f}s")
    assert ok


def test_criterion_5_semigraphoid_soundness(capsys):
    violations = 0
    models_checked = 0
    for n in (1, 2, 3, 4):
        u = universe_of_size(n)
        for dag in enumerate_dags(u):
            if check_semigraphoid(dag.dsep_model()):
                violations += 1
            models_checked += 1
        for graph in enumerate_undirected_graphs(u):
            if check_semigraphoid(graph.separation_model()):
                violations += 1
            models_checked += 1

    # Cross-validation of the two implementations at n = 3.
    formulas = [parse_formula(text) for text in SEMIGRAPHOID_AXIOM_FORMULAS.values()]
    mismatch = 0
    u3 = universe_of_size(3)
    rng = random.Random(4)
    cross_models = [d.dsep_model() for d in enumerate_dags(u3)]
    cross_models += [random_model(rng, u3, p=0.3) for _ in range(10)]
    cross_models += [random_model(rng, u3, p=0.3, symmetric=True) for _ in range(5)]
    for m in cross_models:
        clean = not check_semigraphoid(m)
        by_formulas = all(model_satisfies(m, f) for f in formulas)
        if clean != by_formulas:
            mismatch += 1

    ok = violations == 0 and mismatch == 0
    with capsys.disabled():
        _report(
            5,
            ok,
            f"{models_checked} induced models clean, {len(cross_models)} cross-validated, "
            f"{mismatch} mismatches",
        )
    assert ok


def test_criterion_6_enumeration_counts(capsys):
    expected_dags = [dag_count(n) for n in range(1, 6)]
    got_dags = [
        sum(1 for _ in enumerate_dags(universe_of_size(n))) for n in range(1, 6)
    ]
    got_graphs = [
        sum(1 for _ in enumerate_undirected_graphs(universe_of_size(n)))
        for n in range(1, 7)
    ]
    expected_graphs = [1 << (n * (n - 1) // 2) for n in range(1, 7)]
    ok = (
        got_dags == expected_dags == [1, 3, 25, 543, 29281]
        and got_graphs == expected_graphs
    )
    with capsys.disabled():
        _report(6, ok, f"dags {got_dags}, graphs {got_graphs}")
    assert ok


def test_criterion_7_representability_roundtrips(capsys):
    failures = 0
    dag_models = 0
    graph_models = 0
    for n in (1, 2, 3, 4):
        u = universe_of_size(n)
        for dag in enumerate_dags(u):
            m = dag.dsep_model()
            result = is_causal(m)
            if not result.representable or not model_equals(result.witness.dsep_model(), m):
                failures += 1
            dag_models += 1
        for graph in enumerate_undirected_graphs(u):
            m = graph.separation_model()
            result = is_graph_isomorph(m)
            if not result.representable or not model_equals(
                result.witness.separation_model(), m
            ):
                failures += 1
            graph_models += 1
    ok = failures == 0
    with capsys.disabled():
        _report(7, ok, f"{dag_models} DAG + {graph_models} graph round-trips, {failures} failures")
    assert ok


def test_criterion_8_il_engine(capsys):
    rng = random.Random(88)
    names = ["X1", "X2", "X3"]

    roundtrip_failures = 0
    for _ in range(1000):
        f = random_formula(rng, names, depth=4)
        if parse_formula(format_formula(f)) != f:
            roundtrip_failures += 1

    clause_mismatches = 0
    for _ in range(500):
        n = rng.choice((2, 2, 3))
        m = random_model(rng, universe_of_size(n), p=rng.uniform(0.2, 0.5))
        clause = random_clause(rng, names)
        if check_clause(m, clause) != check_clause_bruteforce(m, clause):
            clause_mismatches += 1

    u3 = universe_of_size(3)
    given = Triple(0b001, 0, 0b010)
    entails_ok = entails("causal", [given], given.reverse(), u3) and not entails(
        "causal", [], given, u3
    )

    ok = roundtrip_failures == 0 and clause_mismatches == 0 and entails_ok
    with capsys.disabled():
        _report(
            8,
            ok,
            f"1000 AST round-trips ({roundtrip_failures} bad), 500 clause checks "
            f"({clause_mismatches} mismatched), entailment examples {'ok' if entails_ok else 'bad'}",
        )
    assert ok
