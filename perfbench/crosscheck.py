"""Cross-check the default-seed goldens against the test suite's oracles.

    PYTHONPATH=src:tests python3 perfbench/crosscheck.py

Runs every stream, panel and probe operation of every workload once at the
default seed, confirms each digest equals its golden, and re-derives with
``tests/oracles.py`` (path enumeration, brute-force DAG lists) what it can
decide: causal and graph witnesses, the absence of a causal witness on 4
labels, semi-graphoid violations, built models and the labeled DAG counts.
Models on more than six labels are skipped, because path enumeration there
takes minutes per model; ``reference`` verifies them when the goldens are
recorded. Not part of a benchmark run.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402  (tests/oracles.py, via PYTHONPATH)
import reference as R  # noqa: E402
from cimodels import Dag, IndependencyModel, Triple, UndirectedGraph, Universe  # noqa: E402
from spans import NullTracer  # noqa: E402
from worker import load_goldens  # noqa: E402
from workloads import DAG_COUNTS, DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

ORACLE_MAX_LABELS = 6


def oracle_dsep(n: int, arcs) -> frozenset:
    dag = Dag(Universe(R.labels(n)), frozenset(arcs))
    return frozenset(t for t in R.disjoint_triples(n) if oracles.d_separates_by_paths(dag, *t))


def oracle_sep(n: int, edges) -> frozenset:
    graph = UndirectedGraph(Universe(R.labels(n)), frozenset(edges))
    return frozenset(t for t in R.disjoint_triples(n) if oracles.separates_by_paths(graph, *t))


def oracle_violations(n: int, triples) -> set:
    model = IndependencyModel(Universe(R.labels(n)), frozenset(Triple(*t) for t in triples))
    return oracles.semigraphoid_violations_by_placements(model)


def oracle_some_dag_induces(n: int, triples) -> bool:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    everything = R.disjoint_triples(n)
    for mask in oracles.acyclic_arc_masks_bruteforce(n):
        dag = Dag(Universe(R.labels(n)), frozenset(pairs[k] for k in R.bits(mask)))
        if all(oracles.d_separates_by_paths(dag, *t) == (t in triples) for t in everything):
            return True
    return False


def cross_check(op, payload) -> str | None:
    """The oracle's objection to one operation's output, or None."""
    inputs = op.inputs or {}
    n = inputs.get("n", 0)
    if n > ORACLE_MAX_LABELS:
        return None
    if "triples" in inputs:  # a model check on model text
        triples = inputs["triples"]
        edges, arcs, _, _ = payload
        if oracle_violations(n, triples):
            return "the oracle finds semi-graphoid violations"
        if arcs is not None and oracle_dsep(n, arcs) != triples:
            return "the oracle says the causal witness does not induce the model"
        if arcs is None and n == 4 and oracle_some_dag_induces(n, triples):
            return "the oracle finds a causal witness the scan missed"
        if edges is not None and oracle_sep(n, edges) != triples:
            return "the oracle says the graph witness does not induce the model"
    elif op.kind in ("build_dag", "build_graph"):
        pairs = inputs["pairs"]
        expected = oracle_dsep(n, pairs) if op.kind == "build_dag" else oracle_sep(n, pairs)
        if payload[1] != digest(R.model_text(R.labels(n), expected)):
            return "the oracle builds another model"
    elif op.kind == "semigraphoid" and oracle_violations(n, oracle_dsep(n, inputs["pairs"])):
        return "the oracle finds violations in a DAG model"
    return None


def main() -> int:
    problems = []
    for n, count in DAG_COUNTS.items():
        if oracles.dag_count(n) != count:
            problems.append(f"the oracle counts {oracles.dag_count(n)} DAGs on {n} nodes, not {count}")
    tracer = NullTracer()
    with tempfile.TemporaryDirectory() as workdir:
        for name, build in WORKLOADS.items():
            expected = load_goldens(name, DEFAULT_SEED)
            workload = build(DEFAULT_SEED, workdir)
            ops = workload.stream + workload.panel + workload.probes
            for op in ops:
                canon, payload = op.run(tracer)
                if expected.get(op.key) != digest(canon):
                    problems.append(f"{name} {op.key}: digest differs from its golden")
                elif problem := cross_check(op, payload):
                    problems.append(f"{name} {op.key} ({op.kind}): {problem}")
            print(f"{name}: {len(ops)} operations run and cross-checked")
    for line in problems:
        print(line)
    print("CROSSCHECK " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
