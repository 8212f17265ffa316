"""Representability decisions and the semi-graphoid closure check."""

import random
import re
from itertools import combinations, starmap

import pytest

from cimodels import dag, represent
from cimodels.core import (
    MAX_TRIPLE_ENUM_NODES,
    IndependencyModel,
    Triple,
    Universe,
    disjoint_keys,
    enumerate_disjoint_triples,
    model_equals,
)
from cimodels.dag import MAX_DAG_ENUM_NODES, Dag, acyclic_arc_masks, enumerate_dags
from cimodels.logic import model_satisfies, parse_formula
from cimodels.represent import (
    _skeleton,
    check_semigraphoid,
    dependent_always,
    is_causal,
    is_graph_isomorph,
    scan_causal_witness,
)
from cimodels.repro import build_counterexample_dag
from cimodels.ugraph import UndirectedGraph, enumerate_undirected_graphs

from oracles import (
    SEMIGRAPHOID_AXIOM_FORMULAS,
    acyclic_arc_masks_bruteforce,
    check_semigraphoid_reference,
    dag_count,
    dependent_always_by_triples,
    has_v_structure,
    is_chordal,
    random_model,
    scan_causal_witness_reference,
    semigraphoid_closure,
    semigraphoid_violations_by_placements,
    universe_of_size,
    weak_transitivity_holds,
)


def restricted_counterexample():
    dag = build_counterexample_dag()
    return dag.dsep_model().restrict(dag.universe.mask_of(("1", "2", "3", "4")))


class TestDependentAlways:
    def test_counterexample_pairs(self):
        m = restricted_counterexample()
        u = m.universe
        for x, y in (("1", "2"), ("2", "3"), ("3", "4")):
            assert dependent_always(m, u.index(x), u.index(y))
        assert not dependent_always(m, u.index("1"), u.index("3"))

    def test_empty_model(self):
        m = IndependencyModel(universe_of_size(3), frozenset())
        for i, j in combinations(range(3), 2):
            assert dependent_always(m, i, j)

    def test_checks_both_orientations(self):
        u = Universe(("a", "b"))
        m = IndependencyModel(u, frozenset({Triple(0b10, 0, 0b01)}))
        assert not dependent_always(m, 0, 1)

    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            dependent_always(restricted_counterexample(), 1, 1)


class TestIsGraphIsomorph:
    def test_path_roundtrip(self):
        u = Universe(("a", "b", "c"))
        g = UndirectedGraph(u, frozenset({(0, 1), (1, 2)}))
        result = is_graph_isomorph(g.separation_model())
        assert result.representable
        assert result.witness.edges == g.edges
        assert result.first_discrepancy is None

    def test_collider_model_not_graph_isomorph(self):
        d = Dag(Universe(("1", "2", "3")), frozenset({(0, 1), (2, 1)}))
        m = d.dsep_model()
        assert Triple(0b001, 0, 0b100) in m
        assert Triple(0b001, 0b010, 0b100) not in m
        result = is_graph_isomorph(m)
        assert not result.representable
        assert result.witness is None
        assert result.first_discrepancy is not None

    def test_discrepancy_is_a_real_disagreement(self):
        d = Dag(Universe(("1", "2", "3")), frozenset({(0, 1), (2, 1)}))
        m = d.dsep_model()
        result = is_graph_isomorph(m)
        t = result.first_discrepancy
        # rebuild the candidate the decision used
        edges = frozenset(
            (i, j)
            for i, j in combinations(range(3), 2)
            if dependent_always(m, i, j)
        )
        candidate = UndirectedGraph(m.universe, edges)
        assert candidate.separates(t.a, t.c, t.b) != (t in m.triples)

    def test_asymmetric_model_rejected(self):
        u = Universe(("a", "b"))
        m = IndependencyModel(u, frozenset({Triple(0b01, 0, 0b10)}))
        result = is_graph_isomorph(m)
        assert not result.representable

    def test_roundtrip_all_graphs_small(self):
        for n in (1, 2, 3):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                m = g.separation_model()
                result = is_graph_isomorph(m)
                assert result.representable
                assert model_equals(result.witness.separation_model(), m)

    def test_closure_under_restriction_small(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                m = g.separation_model()
                for v_mask in range(1, 1 << n):
                    assert is_graph_isomorph(m.restrict(v_mask)).representable


class TestIsCausal:
    def test_chain_model_representable(self):
        u = Universe(("1", "2", "3"))
        chain = Dag(u, frozenset({(0, 1), (1, 2)}))
        m = chain.dsep_model()
        result = is_causal(m)
        assert result.representable
        assert model_equals(result.witness.dsep_model(), m)

    def test_full_model_witnessed_by_edgeless_dag(self):
        u = universe_of_size(3)
        full = Dag(u, frozenset()).dsep_model()
        result = is_causal(full)
        assert result.representable
        assert result.witness.arcs == frozenset()

    def test_counterexample_restriction_not_causal(self):
        m = restricted_counterexample()
        witness, scanned = scan_causal_witness(m)
        assert witness is None
        assert scanned == 543
        assert not is_causal(m).representable

    def test_roundtrip_all_dags_small(self):
        for n in (1, 2, 3):
            u = universe_of_size(n)
            for d in enumerate_dags(u):
                m = d.dsep_model()
                result = is_causal(m)
                assert result.representable
                assert model_equals(result.witness.dsep_model(), m)

    def test_gate(self):
        m = IndependencyModel(universe_of_size(6), frozenset())
        with pytest.raises(ValueError):
            is_causal(m)

    def test_answers_without_the_dag_table(self, monkeypatch):
        # Only scan_causal_witness's position needs the table of all DAGs.
        models = dag_models(1) + dag_models(2) + dag_models(3) + dag_models(4)
        models += graph_models((1, 2, 3, 4)) + [cycle_model(5)]
        expected = [scan_causal_witness(m)[0] for m in models]

        def refuse(n):
            raise AssertionError("the table of all DAGs was built")

        monkeypatch.setattr(represent, "acyclic_arc_masks", refuse)
        monkeypatch.setattr(dag, "acyclic_arc_masks", refuse)
        for m, witness in zip(models, expected):
            result = is_causal(m)
            assert (result.representable, result.witness) == (witness is not None, witness)


class TestGateBeforeWork:
    """One label past its enumerator's gate, a check raises that gate's
    ``ValueError`` before it reads any pair of the model."""

    @pytest.fixture(autouse=True)
    def no_pair_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pair was read before the gate")

        monkeypatch.setattr(represent, "_first_separator", refuse)

    @pytest.mark.parametrize(
        "check, gate, n",
        [
            (is_graph_isomorph, disjoint_keys, MAX_TRIPLE_ENUM_NODES + 1),
            (scan_causal_witness, acyclic_arc_masks, MAX_DAG_ENUM_NODES + 1),
            (is_causal, dag._forward_arc_masks, MAX_DAG_ENUM_NODES + 1),
        ],
        ids=["graph-check", "causal-scan", "causal-check"],
    )
    def test_gate_first(self, check, gate, n):
        with pytest.raises(ValueError) as raised:
            gate(n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
            check(IndependencyModel(universe_of_size(n), frozenset()))


def first_dag_per_model(n):
    """Each distinct DAG model on ``n`` labels -> (arcs, 1-based position) of
    the first DAG inducing it, in ascending arc-mask order."""
    u = universe_of_size(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    first = {}
    for pos, mask in enumerate(acyclic_arc_masks_bruteforce(n), 1):
        arcs = frozenset(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1)
        first.setdefault(Dag(u, arcs).dsep_model().triples, (arcs, pos))
    return first


class TestSkeletonPrunedScan:
    """The pruned scan returns what a scan over every DAG in order returns."""

    @staticmethod
    def scan(m):
        witness, scanned = scan_causal_witness(m)
        return (witness.arcs if witness else None), scanned

    def test_every_dag_model_small(self):
        for n in (1, 2, 3, 4):
            u = universe_of_size(n)
            for triples, expected in first_dag_per_model(n).items():
                assert self.scan(IndependencyModel(u, triples)) == expected

    def test_restricted_five_node_models_and_random_models(self):
        first = first_dag_per_model(4)
        rng = random.Random(41)
        u5 = universe_of_size(5)
        for _ in range(40):
            order = rng.sample(range(5), 5)
            p = rng.uniform(0.25, 0.7)
            arcs = frozenset(
                (order[i], order[j])
                for i in range(5)
                for j in range(i + 1, 5)
                if rng.random() < p
            )
            m = Dag(u5, arcs).dsep_model().restrict(0b11111 & ~(1 << rng.randrange(5)))
            assert self.scan(m) == first.get(m.triples, (None, dag_count(4)))
        u4 = universe_of_size(4)
        for _ in range(30):
            m = random_model(rng, u4, p=rng.uniform(0.2, 0.8), symmetric=True)
            assert m.triples not in first
            assert self.scan(m) == (None, dag_count(4))

    def test_five_cycle_rules_out_every_dag(self):
        cycle = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
        m = UndirectedGraph(universe_of_size(5), cycle).separation_model()
        assert scan_causal_witness(m) == (None, 29281)

    def test_skeleton_is_the_always_dependent_pairs(self):
        rng = random.Random(43)
        for n in (2, 3, 4, 5):
            u = universe_of_size(n)
            for _ in range(10):
                m = random_model(rng, u, p=rng.uniform(0.05, 0.5))
                pairs = list(combinations(range(n), 2))
                expected = [(i, j) for i, j in pairs if dependent_always_by_triples(m, i, j)]
                graph, separators = _skeleton(m)
                assert sorted(graph.edges) == expected
                assert [pair for pair, sep in separators.items() if sep is None] == expected
                assert [(i, j) for i, j in pairs if dependent_always(m, i, j)] == expected


def dag_models(n):
    """Each distinct DAG model on ``n`` labels, once."""
    models = (d.dsep_model() for d in enumerate_dags(universe_of_size(n)))
    return list({m.keys: m for m in models}.values())


def graph_models(ns):
    graphs = (g for n in ns for g in enumerate_undirected_graphs(universe_of_size(n)))
    return [g.separation_model() for g in graphs]


def one_triple_toggles(rng):
    triples = list(enumerate_disjoint_triples(universe_of_size(4)))
    return [
        IndependencyModel(m.universe, m.triples ^ {t})
        for m in dag_models(4)
        for t in rng.sample(triples, 2)
    ]


def six_node_dag_models_on_five_labels(rng):
    u6, models = universe_of_size(6), []
    for _ in range(40):
        order, p = rng.sample(range(6), 6), rng.uniform(0.2, 0.7)
        arcs = [(order[i], order[j]) for i, j in combinations(range(6), 2) if rng.random() < p]
        dropped = 1 << rng.randrange(6)
        models.append(Dag(u6, frozenset(arcs)).dsep_model().restrict(0b111111 & ~dropped))
    return models


def dense_dag_models_on_five_labels(rng):
    """Seeded DAG models on 5 labels with arc probability up to 0.9, and the
    complete DAG's: dense skeletons up to K5, whose 120 orientations all pass."""
    u5, models = universe_of_size(5), []
    for _ in range(40):
        order, p = rng.sample(range(5), 5), rng.uniform(0.3, 0.9)
        arcs = [(order[i], order[j]) for i, j in combinations(range(5), 2) if rng.random() < p]
        models.append(Dag(u5, frozenset(arcs)).dsep_model())
    return models + [Dag(u5, frozenset(combinations(range(5), 2))).dsep_model()]


def cycle_model(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return UndirectedGraph(universe_of_size(n), frozenset(edges)).separation_model()


SCAN_MODEL_GROUPS = {
    "dag-models-up-to-4": lambda rng: [m for n in (1, 2, 3, 4) for m in dag_models(n)],
    "graph-models-up-to-4": lambda rng: graph_models((1, 2, 3, 4)),
    "one-triple-toggles-of-4-node-dag-models": one_triple_toggles,
    "six-node-dag-models-on-five-labels": six_node_dag_models_on_five_labels,
    "graph-models-on-5": lambda rng: graph_models((5,)),
    "dense-dag-models-on-5": dense_dag_models_on_five_labels,
}


class TestColliderRuleScan:
    """The scan compares at most one orientation, and returns what comparing
    every orientation of the skeleton returns."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """The DAGs whose ``dsep_model`` is built, in call order."""
        dags, dsep_model = [], Dag.dsep_model

        def counted(dag):
            dags.append(dag)
            return dsep_model(dag)

        monkeypatch.setattr(Dag, "dsep_model", counted)
        return dags

    @pytest.mark.parametrize("group", list(SCAN_MODEL_GROUPS))
    def test_matches_reference_with_at_most_one_compare(self, group, compared):
        for m in SCAN_MODEL_GROUPS[group](random.Random(18)):
            expected, expected_count = scan_causal_witness_reference(m)
            compared.clear()
            witness, count = scan_causal_witness(m)
            assert witness == expected and count == expected_count
            assert len(compared) <= 1

    @pytest.mark.parametrize("group", list(SCAN_MODEL_GROUPS))
    def test_is_causal_returns_the_scan_witness(self, group, compared):
        for m in SCAN_MODEL_GROUPS[group](random.Random(18)):
            compared.clear()
            witness = is_causal(m).witness
            assert len(compared) <= 1
            assert witness == scan_causal_witness(m)[0]

    @pytest.mark.parametrize(
        "build, count",
        [
            (restricted_counterexample, 543),
            (lambda: cycle_model(4), 543),
            (lambda: cycle_model(5), 29281),
        ],
        ids=["paper-R", "4-cycle", "5-cycle"],
    )
    def test_no_orientation_passes_the_rule(self, build, count, compared):
        model = build()
        compared.clear()
        assert scan_causal_witness(model) == (None, count)
        assert compared == []


class TestCheckSemigraphoid:
    def test_induced_models_clean_small(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for d in enumerate_dags(u):
                assert check_semigraphoid(d.dsep_model()) == []
            for g in enumerate_undirected_graphs(u):
                assert check_semigraphoid(g.separation_model()) == []

    def test_symmetry_violation_reported(self):
        u = Universe(("a", "b"))
        m = IndependencyModel(u, frozenset({Triple(0b01, 0, 0b10)}))
        violations = check_semigraphoid(m)
        assert any(v.axiom == "symmetry" for v in violations)

    def test_contraction_violation(self):
        # holds (a,{b},c) and (a,-,b) but not (a,-,{b,c})
        u = Universe(("a", "b", "c"))
        m = IndependencyModel(
            u,
            frozenset(
                {
                    Triple(0b001, 0b010, 0b100),
                    Triple(0b100, 0b010, 0b001),
                    Triple(0b001, 0, 0b010),
                    Triple(0b010, 0, 0b001),
                }
            ),
        )
        violations = check_semigraphoid(m)
        assert any(
            v.axiom == "contraction" and v.conclusion == Triple(0b001, 0, 0b110)
            for v in violations
        )

    def test_violation_lists_are_deterministic(self):
        rng = random.Random(2)
        for _ in range(5):
            m = random_model(rng, universe_of_size(3), p=0.4)
            assert check_semigraphoid(m) == check_semigraphoid(m)

    def test_matches_full_placement_oracle(self):
        # The model-driven instantiation finds the same violated instances
        # as looping every placement of four disjoint sets.
        rng = random.Random(97)
        for n in (2, 3):
            u = universe_of_size(n)
            for _ in range(15):
                m = random_model(rng, u, p=rng.uniform(0.2, 0.6))
                got = {(v.axiom, v.conclusion) for v in check_semigraphoid(m)}
                assert got == semigraphoid_violations_by_placements(m)

    def test_exact_list_matches_reference(self):
        # Axiom, premises, conclusion and order, against the Triple-based loop.
        rng = random.Random(41)
        models = []
        for n in (1, 2, 3, 4):
            u = universe_of_size(n)
            models.append(IndependencyModel(u, frozenset()))
            for symmetric in (False, True):
                models += [
                    random_model(rng, u, p=rng.uniform(0.1, 0.7), symmetric=symmetric)
                    for _ in range(12)
                ]
        for n in (1, 2, 3):
            u = universe_of_size(n)
            models += [d.dsep_model() for d in enumerate_dags(u)]
            models += [g.separation_model() for g in enumerate_undirected_graphs(u)]
        violated = 0
        for m in models:
            expected = check_semigraphoid_reference(m)
            assert check_semigraphoid(m) == expected
            violated += bool(expected)
        assert violated >= 80

    def test_heredity_of_cleanliness(self):
        u = universe_of_size(3)
        for d in enumerate_dags(u):
            m = d.dsep_model()
            assert check_semigraphoid(m) == []
            for v_mask in range(1, 1 << 3):
                assert check_semigraphoid(m.restrict(v_mask)) == []

    def test_cross_validation_against_formulas(self):
        formulas = {
            name: parse_formula(text)
            for name, text in SEMIGRAPHOID_AXIOM_FORMULAS.items()
        }
        rng = random.Random(17)
        u = universe_of_size(2)
        models = [random_model(rng, u, p=0.35) for _ in range(40)]
        models += [random_model(rng, u, p=0.35, symmetric=True) for _ in range(10)]
        models.append(IndependencyModel(u, frozenset()))
        for m in models:
            clean = not check_semigraphoid(m)
            by_formulas = all(model_satisfies(m, f) for f in formulas.values())
            assert clean == by_formulas


SCHEMATA = tuple(SEMIGRAPHOID_AXIOM_FORMULAS)


def closure_seeds():
    """Seeded random seeds on 2-4 labels: one to three triples with both
    sides nonempty, and in every second seed every triple with an empty
    side, as an induced model holds them."""
    rng, seeds = random.Random(19), []
    for n in (2, 3, 4):
        u = universe_of_size(n)
        triples = list(enumerate_disjoint_triples(u))
        inner = [t for t in triples if t.a and t.b]
        empty_side = {t for t in triples if not (t.a and t.b)}
        for i in range(8):
            seed = set(rng.sample(inner, min(rng.randint(1, 3), len(inner))))
            seeds.append(IndependencyModel(u, seed | empty_side if i % 2 else seed))
    return seeds


def closures():
    return [semigraphoid_closure(m, SCHEMATA) for m in closure_seeds()]


def closures_less_one_triple():
    """Each closure less one of its triples, for six triples of each: four
    with both sides nonempty (all of them where fewer) and two of any kind."""
    rng, models = random.Random(20), []
    for m in closures():
        ordered = sorted(m.triples, key=lambda t: (t.a, t.c, t.b))
        inner = [t for t in ordered if t.a and t.b]
        picks = rng.sample(inner, min(4, len(inner))) + rng.sample(ordered, 2)
        models += [IndependencyModel(m.universe, m.triples - {t}) for t in picks]
    return models


# Of the 24 seeds' closures under the other three schemata: (how many are
# closed, how many violate the left-out schema alone). The two add up to 24.
THREE_SCHEMATA_COUNTS = {
    "symmetry": (3, 21),
    "decomposition": (7, 17),
    "weak_union": (7, 17),
    "contraction": (9, 15),
}


class TestNearClosure:
    """Models at or near closure, where the one-step decision and the walk
    can differ only if the decision is wrong."""

    def test_closures_match_reference(self):
        models = closures()
        for m in models:
            assert check_semigraphoid(m) == check_semigraphoid_reference(m) == []
        assert len(models) == 24

    def test_closures_less_one_triple_match_reference(self):
        models, violated = closures_less_one_triple(), 0
        for m in models:
            expected = check_semigraphoid_reference(m)
            assert check_semigraphoid(m) == expected
            violated += bool(expected)
        assert violated == len(models) == 124

    @pytest.mark.parametrize("left_out", SCHEMATA)
    def test_closures_under_three_schemata(self, left_out):
        kept = [schema for schema in SCHEMATA if schema != left_out]
        closed = violated_left_out_only = 0
        for seed in closure_seeds():
            m = semigraphoid_closure(seed, kept)
            expected = check_semigraphoid_reference(m)
            assert check_semigraphoid(m) == expected
            closed += not expected
            violated_left_out_only += bool(expected) and {v.axiom for v in expected} == {left_out}
        assert (closed, violated_left_out_only) == THREE_SCHEMATA_COUNTS[left_out]


class TestSemigraphoidWalk:
    """The ordered walk runs only on a model with a violation."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The models ``_semigraphoid_violations`` is called on, in call order."""
        models, walk = [], represent._semigraphoid_violations

        def counted(model):
            models.append(model)
            return walk(model)

        monkeypatch.setattr(represent, "_semigraphoid_violations", counted)
        return models

    def test_induced_models_are_never_walked(self, walked):
        models = [m for n in (1, 2, 3, 4) for m in dag_models(n)]
        models += graph_models((1, 2, 3, 4)) + [restricted_counterexample()]
        assert [check_semigraphoid(m) for m in models] == [[]] * len(models)
        assert walked == []

    def test_a_violated_model_is_walked_once(self, walked):
        m = IndependencyModel(Universe(("a", "b")), frozenset({Triple(0b01, 0, 0b10)}))
        assert check_semigraphoid(m) == check_semigraphoid_reference(m) != []
        assert walked == [m]


class TestResultInvariant:
    def test_witness_iff_representable(self):
        rng = random.Random(23)
        u = universe_of_size(3)
        for _ in range(15):
            m = random_model(rng, u, p=0.3, symmetric=True)
            for result in (is_graph_isomorph(m), is_causal(m)):
                assert result.representable == (result.witness is not None)


class TestChordalEquivalence:
    """A model is a DAG's and a graph's exactly when it is a chordal graph's
    (Pearl 1988, ch. 3; Frydenberg 1990), checked both ways against oracles
    that read only the structure."""

    def test_graph_model_is_causal_iff_the_graph_is_chordal(self):
        chordal_counts = []
        for n in range(1, 6):
            graphs = list(enumerate_undirected_graphs(universe_of_size(n)))
            assert len(graphs) == 2 ** (n * (n - 1) // 2)
            for g in graphs:
                assert is_causal(g.separation_model()).representable == is_chordal(g), g.edges
            chordal_counts.append(sum(map(is_chordal, graphs)))
        assert chordal_counts == [1, 2, 8, 61, 822]  # OEIS A058862

    def test_dag_model_is_graph_isomorph_iff_no_v_structure(self):
        for n in range(1, 5):
            dags = list(enumerate_dags(universe_of_size(n)))
            assert len(dags) == dag_count(n)
            for d in dags:
                representable = is_graph_isomorph(d.dsep_model()).representable
                assert representable == (not has_v_structure(d)), d.arcs


class TestLeastSize:
    def test_every_three_label_restriction_of_a_four_node_dag_model_is_causal(self):
        """Hiding one node of a 4-node DAG leaves a 3-node DAG's model, so 4
        labels, the counterexample's size, is the least at which a
        restriction can fail to be causal."""
        u4, u3 = universe_of_size(4), universe_of_size(3)
        restricted = {}
        for d in enumerate_dags(u4):
            model = d.dsep_model()
            for hidden in range(4):
                sub = model.restrict(0b1111 ^ 1 << hidden)
                restricted.setdefault(sub.keys, sub)
        assert len(restricted) == 11
        assert all(is_causal(sub).representable for sub in restricted.values())
        assert restricted.keys() == {d.dsep_model().keys for d in enumerate_dags(u3)}


# Two schemata every DAG model keeps beyond the semi-graphoid ones (Pearl
# 1988, ch. 3); the third, weak transitivity, is checked by an oracle.
GRAPHOID_SCHEMA_FORMULAS = {
    "intersection": "I(X1, X2 + X3, X4) & I(X1, X2 + X4, X3) -> I(X1, X2, X3 + X4)",
    "composition": "I(X1, X2, X3) & I(X1, X2, X4) -> I(X1, X2, X3 + X4)",
}


def graphoid_profile(model):
    """Whether ``model`` keeps intersection, composition and weak transitivity."""
    kept = [model_satisfies(model, parse_formula(t)) for t in GRAPHOID_SCHEMA_FORMULAS.values()]
    return [*kept, weak_transitivity_holds(model)]


class TestGraphoidProfile:
    """The counterexample keeps every schema the repo checks, as every DAG
    model does, and is still not causal: the gap lies past these axioms."""

    def test_the_counterexample_keeps_all_three_and_is_not_causal(self):
        m = restricted_counterexample()
        assert len(m) == 164
        assert graphoid_profile(m) == [True, True, True]
        assert not is_causal(m).representable

    def test_every_four_node_dag_model_keeps_all_three(self):
        models = dag_models(4)
        assert len(models) == 185
        for m in models:
            assert graphoid_profile(m) == [True, True, True], sorted(m.keys)

    @pytest.mark.parametrize(
        "triples, profile",
        [
            ([(0b001, 0b100, 0b010), (0b001, 0b010, 0b100)], [False, True, True]),
            ([(0b001, 0, 0b010), (0b001, 0, 0b100)], [True, False, True]),
            ([(0b001, 0, 0b010), (0b001, 0b100, 0b010)], [True, True, False]),
        ],
        ids=["intersection", "composition", "weak-transitivity"],
    )
    def test_each_schema_fails_on_a_small_model(self, triples, profile):
        m = IndependencyModel(Universe(("a", "b", "c")), frozenset(starmap(Triple, triples)))
        assert graphoid_profile(m) == profile
