"""The induced-model kernel: ``separated_keys`` checked against the
path-enumeration oracles and the per-pair reference loop, its ``reach`` call
count, its submask helper, and the triple-enumeration gate. The kernel yields
packed keys; the tests decode them with ``unpack_keys``.
"""

import random
from functools import partial

import pytest

from cimodels.cli import main
from cimodels.core import (
    MAX_TRIPLE_ENUM_NODES,
    IndependencyModel,
    Triple,
    _submask_table,
    disjoint_keys,
    enumerate_disjoint_triples,
    separated_keys,
    submasks,
    unpack_keys,
)
from cimodels.dag import Dag, enumerate_dags
from cimodels.represent import is_graph_isomorph, scan_causal_witness
from cimodels.ugraph import UndirectedGraph, enumerate_undirected_graphs, reachable_mask

from oracles import (
    d_separates_by_paths,
    dependent_always_by_triples,
    random_dag,
    separated_keys_reference,
    separates_by_paths,
    universe_of_size,
)


def random_graph(rng, n):
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return UndirectedGraph(universe_of_size(n), frozenset(edges))


def separated_triples(universe, reach):
    """The kernel's keys, decoded."""
    return [Triple(*s) for s in unpack_keys(universe.n, separated_keys(universe, reach))]


def oracle_model(structure, decides):
    return frozenset(
        t
        for t in enumerate_disjoint_triples(structure.universe)
        if decides(structure, t.a, t.c, t.b)
    )


class TestSubmasks:
    @pytest.mark.parametrize("mask", [0, 0b1, 0b1011, 0b110100])
    def test_every_subset_once_from_mask_down_to_zero(self, mask):
        expected = [s for s in range(mask, -1, -1) if not s & ~mask]
        assert list(submasks(mask)) == expected

    def test_rejects_a_negative_mask(self):
        with pytest.raises(ValueError, match="negative mask -3"):
            next(submasks(-3))


class TestSubmaskTable:
    @pytest.mark.parametrize("n", range(7))
    def test_rows_are_the_submasks(self, n):
        table = _submask_table(n)
        assert len(table) == 1 << n
        assert all(row == tuple(submasks(m)) for m, row in enumerate(table))
        assert _submask_table(n) is table

    def test_one_int_object_per_mask_at_the_gate(self):
        # 3**10 entries, but past 255 a fresh int per entry would triple the table.
        table = _submask_table(MAX_TRIPLE_ENUM_NODES)
        assert sum(map(len, table)) == 3**MAX_TRIPLE_ENUM_NODES
        assert len({id(x) for row in table for x in row}) == 1 << MAX_TRIPLE_ENUM_NODES

    def test_not_built_past_the_gate(self):
        u = universe_of_size(MAX_TRIPLE_ENUM_NODES + 1)
        before = _submask_table.cache_info()
        with pytest.raises(ValueError, match="refusing to enumerate"):
            next(separated_keys(u, never_called))
        assert _submask_table.cache_info() == before


class TestKernelAgainstOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_separation_model_every_graph(self, n):
        for g in enumerate_undirected_graphs(universe_of_size(n)):
            assert g.separation_model().triples == oracle_model(g, separates_by_paths)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dsep_model_every_dag(self, n):
        for d in enumerate_dags(universe_of_size(n)):
            assert d.dsep_model().triples == oracle_model(d, d_separates_by_paths)

    def test_seeded_five_node_structures(self):
        rng = random.Random(2024)
        for _ in range(30):
            d = random_dag(rng, 5)
            assert d.dsep_model().triples == oracle_model(d, d_separates_by_paths)
            g = random_graph(rng, 5)
            assert g.separation_model().triples == oracle_model(g, separates_by_paths)

    def test_no_triple_yielded_twice(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            for _ in range(10):
                d = random_dag(rng, n)
                dag_triples = list(separated_triples(d.universe, d._active_reach))
                assert len(dag_triples) == len(set(dag_triples))
                g = random_graph(rng, n)
                reach = lambda a, c: reachable_mask(g.neighbor_masks, a, c)
                graph_triples = list(separated_triples(g.universe, reach))
                assert len(graph_triples) == len(set(graph_triples))

    def test_edgeless_graph_keeps_every_triple(self):
        u = universe_of_size(5)
        kept = list(separated_triples(u, lambda a, c: a))
        assert len(kept) == 4**5
        assert set(kept) == set(enumerate_disjoint_triples(u))


def structure_reaches(n):
    """``(name, universe, reach)`` for seeded random DAGs and graphs on ``n``
    nodes, the edgeless and complete ones, and the bare ``lambda a, c: a``."""
    u = universe_of_size(n)
    rng = random.Random(100 + n)
    complete = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    dags = [random_dag(rng, n) for _ in range(3)] + [Dag(u, frozenset()), Dag(u, complete)]
    graphs = [random_graph(rng, n) for _ in range(3)]
    graphs += [UndirectedGraph(u, frozenset()), UndirectedGraph(u, complete)]
    for d in dags:
        yield f"dag {sorted(d.arcs)}", u, d._active_reach
    for g in graphs:
        yield f"graph {sorted(g.edges)}", u, partial(reachable_mask, g.neighbor_masks)
    yield "reach a", u, lambda a, c: a


def counted(reach):
    """``reach`` wrapped to record the ``a`` of every call."""
    seen = []

    def wrapper(a, c):
        seen.append(a)
        return reach(a, c)

    return wrapper, seen


class TestKernelOrderAndWork:
    """Building a set's reach from its members' keeps the per-pair key order
    and calls ``reach`` only on singletons."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_keys_in_the_same_order_as_one_call_per_pair(self, n):
        for name, u, reach in structure_reaches(n):
            assert list(separated_keys(u, reach)) == separated_keys_reference(u, reach), name

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_call_per_singleton_and_conditioning_set(self, n):
        for name, u, reach in structure_reaches(n):
            wrapper, seen = counted(reach)
            for _ in separated_keys(u, wrapper):
                pass
            assert len(seen) == n * 2 ** (n - 1), name
            assert all(a & (a - 1) == 0 and a for a in seen), name

    @pytest.mark.parametrize("n, calls", [(5, 80), (10, 5120)])
    def test_calls_on_the_edgeless_graph(self, n, calls):
        u = universe_of_size(n)
        edgeless = UndirectedGraph(u, frozenset())
        wrapper, seen = counted(partial(reachable_mask, edgeless.neighbor_masks))
        assert sum(1 for _ in separated_keys(u, wrapper)) == 4**n
        assert len(seen) == calls


class TestComparisons:
    """The two callers that compare an induced model with a given one."""

    def test_first_discrepancy_is_the_first_in_enumeration_order(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            u = universe_of_size(n)
            models = [g.separation_model() for g in enumerate_undirected_graphs(u)]
            models += [d.dsep_model() for d in enumerate_dags(u)]
            for m in list(models):
                # Drop or add one random triple, the vacuous ones included.
                t = rng.choice(list(enumerate_disjoint_triples(u)))
                models.append(IndependencyModel(u, m.triples ^ {t}))
            for m in models:
                edges = frozenset(
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if dependent_always_by_triples(m, i, j)
                )
                candidate = UndirectedGraph(u, edges)
                expected = next(
                    (
                        t
                        for t in enumerate_disjoint_triples(u)
                        if separates_by_paths(candidate, t.a, t.c, t.b) != (t in m.triples)
                    ),
                    None,
                )
                result = is_graph_isomorph(m)
                assert result.first_discrepancy == expected
                assert result.representable == (expected is None)

    def test_scan_rejects_a_dag_model_with_one_triple_more(self):
        # The candidate then separates nothing the model lacks; only the
        # triple count tells the two models apart.
        u = universe_of_size(3)
        dags = list(enumerate_dags(u))
        first_position = {}
        for k, d in enumerate(dags, start=1):
            first_position.setdefault(d.dsep_model().triples, (d, k))
        for d in dags:
            model = d.dsep_model()
            for t in enumerate_disjoint_triples(u):
                if t in model:
                    continue
                grown = IndependencyModel(u, model.triples | {t})
                witness, count = first_position.get(grown.triples, (None, len(dags)))
                found, found_count = scan_causal_witness(grown)
                assert found_count == count
                assert (found and found.arcs) == (witness and witness.arcs)


class TestDisjointnessMessage:
    def test_one_message_for_every_decider(self):
        u = universe_of_size(3)
        dag = Dag(u, frozenset({(0, 1)}))
        graph = UndirectedGraph(u, frozenset({(0, 1)}))
        with pytest.raises(ValueError) as expected:
            Triple(0b011, 0b010, 0b100)
        for decide in (graph.separates, dag.d_separates, dag.d_separates_moral):
            with pytest.raises(ValueError) as raised:
                decide(0b011, 0b010, 0b100)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "a, c, b",
        [(0b1000, 0, 0b001), (0b001, 0b10000, 0), (0, 0b100, 1 << 9), (-1, 0, 0), (0, 0, -4), (-2, 0, 1)],
    )
    def test_one_message_for_masks_outside_the_universe(self, a, c, b):
        u = universe_of_size(3)
        dag = Dag(u, frozenset({(0, 1), (2, 1)}))
        graph = UndirectedGraph(u, frozenset({(0, 1)}))
        with pytest.raises(ValueError) as expected:
            u.check_mask(a | c | b)
        for decide in (graph.separates, dag.d_separates, dag.d_separates_moral):
            with pytest.raises(ValueError) as raised:
                decide(a, c, b)
            assert str(raised.value) == str(expected.value)


def never_called(a, c):
    raise AssertionError("enumerated past the gate")


class TestTripleGate:
    def test_gate_admits_the_perfbench_sizes(self):
        assert MAX_TRIPLE_ENUM_NODES >= 8

    def test_enumerates_at_the_gate(self):
        # Lazy: only the first (a, c) pair is looked at, with one reach call.
        u = universe_of_size(MAX_TRIPLE_ENUM_NODES)
        wrapper, seen = counted(lambda a, c: a)
        keys = separated_keys(u, wrapper)
        assert isinstance(Triple(*next(unpack_keys(u.n, keys))), Triple)
        assert seen == [1]
        assert next(disjoint_keys(u.n)) == 0
        assert next(enumerate_disjoint_triples(u)) == Triple(0, 0, 0)

    def test_raises_past_the_gate_without_enumerating(self):
        u = universe_of_size(MAX_TRIPLE_ENUM_NODES + 1)
        with pytest.raises(ValueError, match="refusing to enumerate") as raised:
            next(separated_keys(u, never_called))
        # Both return lazy iterators, and raise when called, before any key is made.
        for call in (lambda: disjoint_keys(u.n), lambda: enumerate_disjoint_triples(u)):
            with pytest.raises(ValueError) as same:
                call()
            assert str(same.value) == str(raised.value)
        with pytest.raises(ValueError, match="refusing to enumerate"):
            UndirectedGraph(u, frozenset()).separation_model()
        with pytest.raises(ValueError, match="refusing to enumerate"):
            Dag(u, frozenset()).dsep_model()
        with pytest.raises(ValueError, match="refusing to enumerate"):
            is_graph_isomorph(IndependencyModel(u, frozenset()))

    def test_cli_graph_model_past_the_gate(self, tmp_path, capsys):
        n = MAX_TRIPLE_ENUM_NODES + 1
        path = tmp_path / "edgeless.txt"
        path.write_text("vars: " + " ".join(f"v{i}" for i in range(n)) + "\n")
        assert main(["graph", "model", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: refusing to enumerate")
