"""DAG construction, both d-separation deciders, and DAG enumeration."""

import pickle
import random
import re
from itertools import combinations

import pytest

from cimodels.core import IndependencyModel, Triple, Universe, enumerate_disjoint_triples
from cimodels.dag import (
    MAX_DAG_ENUM_NODES,
    Dag,
    _forward_arc_masks,
    acyclic_arc_masks,
    arc_bit,
    dag_of_mask,
    enumerate_dags,
)
from cimodels.represent import _skeleton, is_causal
from cimodels.ugraph import UndirectedGraph, reachable_mask

from oracles import (
    acyclic_arc_masks_bruteforce,
    d_separates_by_paths,
    dag_count,
    descendants_by_relation,
    nodes_left_by_peeling,
    random_dag,
    universe_of_size,
)


def collider():
    # 1 -> 2 <- 3 on labels 1..3
    return Dag(Universe(("1", "2", "3")), frozenset({(0, 1), (2, 1)}))


def chain():
    # 1 -> 2 -> 3
    return Dag(Universe(("1", "2", "3")), frozenset({(0, 1), (1, 2)}))


def counterexample_dag():
    return Dag(universe_of_size(5), frozenset({(1, 2), (0, 2), (0, 3), (4, 3)}))


class TestDagInvariants:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(universe_of_size(3), frozenset({(0, 1), (1, 2), (2, 0)}))
        with pytest.raises(ValueError):
            Dag(universe_of_size(2), frozenset({(0, 1), (1, 0)}))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cycle_error_lists_what_peeling_sinks_leaves(self, n):
        # Every arc set on n nodes: a cycle is reported, with the nodes on a
        # cycle or leading to one, exactly when peeling sinks leaves nodes.
        u = universe_of_size(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
        for mask in range(1 << len(pairs)):
            arcs = frozenset(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
            left = nodes_left_by_peeling(n, arcs)
            if not left:
                assert Dag(u, arcs).arcs == arcs
                continue
            with pytest.raises(ValueError) as err:
                Dag(u, arcs)
            assert str(err.value) == f"arcs contain a directed cycle among nodes {sorted(left)}"

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dag(universe_of_size(2), frozenset({(0, 0)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dag(universe_of_size(2), frozenset({(0, 5)}))

    def test_masks(self):
        d = collider()
        assert d.child_masks == (0b010, 0, 0b010)
        assert d.parent_masks == (0, 0b101, 0)

    def test_child_masks_is_no_field(self):
        # Set at construction only; equality, hashing, repr and pickling see
        # the universe and the arcs alone, before and after the lazy tables.
        d = collider()
        same = Dag(d.universe, {(2, 1), (0, 1)})
        assert d == same and hash(d) == hash(same) and hash(d) == hash((d.universe, d.arcs))
        assert repr(d) == f"Dag(universe={d.universe!r}, arcs={d.arcs!r})"
        assert d.parent_masks == (0, 0b101, 0)  # fills the lazy walk table
        assert d == same and hash(d) == hash(same) and repr(d) == repr(same)
        for dag in (d, same):
            loaded = pickle.loads(pickle.dumps(dag))
            assert loaded == dag and hash(loaded) == hash(dag) and repr(loaded) == repr(dag)
            assert loaded.child_masks == (0b010, 0, 0b010)
            assert not loaded.d_separates(0b001, 0b010, 0b100)
        assert Dag(d.universe, {(1, 0)}).child_masks == (0, 0b001, 0)
        # A graph's neighbour masks are set the same way.
        g = UndirectedGraph(d.universe, {(1, 0), (1, 2)})
        flipped = UndirectedGraph(d.universe, {(0, 1), (2, 1)})
        assert g == flipped and hash(g) == hash(flipped) and repr(g) == repr(flipped)
        assert hash(g) == hash((g.universe, frozenset({(0, 1), (1, 2)})))
        assert repr(g) == f"UndirectedGraph(universe={g.universe!r}, edges={g.edges!r})"
        loaded = pickle.loads(pickle.dumps(g))
        assert loaded == g and loaded.neighbor_masks == (0b010, 0b101, 0b010)
        assert UndirectedGraph(g.universe, {(2, 0)}).neighbor_masks == (0b100, 0, 0b001)


def descendants(d, w):
    return reachable_mask(d.child_masks, d.child_masks[w], 0)


def ancestors(d, w):
    return reachable_mask(d.parent_masks, d.parent_masks[w], 0)


class TestClosures:
    """The closures ``d_separates_moral`` builds its ancestral graph from:
    ``reachable_mask`` over ``child_masks`` and ``parent_masks``."""

    def test_chain_descendants(self):
        d = chain()
        assert descendants(d, 0) == 0b110
        assert descendants(d, 2) == 0
        assert ancestors(d, 2) == 0b011
        assert ancestors(d, 0) == 0

    def test_counterexample_descendants(self):
        d = counterexample_dag()
        assert descendants(d, 0) == 0b01100  # nodes 2 and 3

    def test_against_relation_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_dag(rng, 5)
            below = [descendants_by_relation(d, w) for w in range(5)]
            for w in range(5):
                assert descendants(d, w) == below[w]
                assert ancestors(d, w) == sum(1 << x for x in range(5) if below[x] >> w & 1)

    @pytest.mark.parametrize(
        "a, c, b", [(1 << 7, 0, 0), (0, -1, 0), (0, 0, 1 << 5), (-2, 0, 0)]
    )
    def test_mask_outside_the_universe_rejected(self, a, c, b):
        # Not an IndexError from the parent-mask table, whichever set holds the bits.
        message = f"mask {a | c | b:#x} has bits outside the 3-label universe"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            collider().d_separates_moral(a, c, b)


class TestDSeparates:
    def test_collider(self):
        d = collider()
        assert d.d_separates(0b001, 0, 0b100)
        assert not d.d_separates(0b001, 0b010, 0b100)

    def test_chain(self):
        d = chain()
        assert d.d_separates(0b001, 0b010, 0b100)
        assert not d.d_separates(0b001, 0, 0b100)

    def test_collider_descendant_opens(self):
        # 0 -> 2 <- 1, 2 -> 3: conditioning on the descendant 3 activates
        d = Dag(universe_of_size(4), frozenset({(0, 2), (1, 2), (2, 3)}))
        assert d.d_separates(0b0001, 0, 0b0010)
        assert not d.d_separates(0b0001, 0b1000, 0b0010)
        assert not d.d_separates(0b0001, 0b0100, 0b0010)

    def test_collider_opened_by_a_grandchild(self):
        # 0 -> 2 <- 1, 2 -> 3 -> 4: the collider's only conditioned
        # descendant is two arcs down, which no 4-node DAG can show.
        d = Dag(universe_of_size(5), frozenset({(0, 2), (1, 2), (2, 3), (3, 4)}))
        assert d.d_separates(0b00001, 0, 0b00010)
        assert not d.d_separates(0b00001, 0b10000, 0b00010)
        assert Triple(0b00001, 0b10000, 0b00010) not in d.dsep_model()
        assert not d_separates_by_paths(d, 0b00001, 0b10000, 0b00010)
        assert d.d_separates(0b00100, 0b01000, 0b10000)  # a conditioned non-collider blocks

    def test_counterexample_queries(self):
        d = counterexample_dag()
        one, two, three, four = 0b00010, 0b00100, 0b01000, 0b10000
        assert d.d_separates(one, 0, three)
        assert d.d_separates(two, one, four)
        assert not d.d_separates(two, three, four)

    def test_vacuous_and_errors(self):
        d = chain()
        assert d.d_separates(0, 0b010, 0b100)
        assert d.d_separates(0b001, 0, 0)
        with pytest.raises(ValueError):
            d.d_separates(0b011, 0b010, 0b100)

    def test_against_path_oracle(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for d in enumerate_dags(u):
                for t in enumerate_disjoint_triples(u):
                    assert d.d_separates(t.a, t.c, t.b) == d_separates_by_paths(
                        d, t.a, t.c, t.b
                    )

    def test_counterexample_against_path_oracle(self):
        d = counterexample_dag()
        rng = random.Random(5)
        for t in enumerate_disjoint_triples(d.universe):
            if rng.random() < 0.25:
                assert d.d_separates(t.a, t.c, t.b) == d_separates_by_paths(d, t.a, t.c, t.b)

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_sweep_against_both_oracles(self, n):
        # Every disjoint triple of DAGs at densities from sparse to dense,
        # through the query and the induced model, against the moral oracle;
        # a sample against the path oracle.
        rng = random.Random(1200 + n)
        triples = list(enumerate_disjoint_triples(universe_of_size(n)))
        for p in (0.2, 0.4, 0.6, 0.8):
            for _ in range(3):
                d = random_dag(rng, n, p)
                model = d.dsep_model()
                for t in triples:
                    held = d.d_separates(t.a, t.c, t.b)
                    assert held == (t in model) == d.d_separates_moral(t.a, t.c, t.b), t
                    if rng.random() < 0.02:
                        assert held == d_separates_by_paths(d, t.a, t.c, t.b), t

    def test_moral_oracle_agrees_small(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for d in enumerate_dags(u):
                for t in enumerate_disjoint_triples(u):
                    assert d.d_separates(t.a, t.c, t.b) == d.d_separates_moral(
                        t.a, t.c, t.b
                    )

    def test_symmetry_exhaustive(self):
        u = universe_of_size(3)
        for d in enumerate_dags(u):
            for t in enumerate_disjoint_triples(u):
                assert d.d_separates(t.a, t.c, t.b) == d.d_separates(t.b, t.c, t.a)

    def test_split_second_set_exhaustive(self):
        # Separation from a union holds iff it holds from both parts.
        u = universe_of_size(3)
        placements = list(enumerate_disjoint_triples(u))
        for d in enumerate_dags(u):
            for t in placements:
                free = u.full_mask & ~t.span
                for extra in range(1 << u.n):
                    if extra & ~free:
                        continue
                    whole = d.d_separates(t.a, t.c, t.b | extra)
                    assert whole == (
                        d.d_separates(t.a, t.c, t.b) and d.d_separates(t.a, t.c, extra)
                    )

    def test_split_second_set_exhaustive_n4_via_models(self):
        # Same property at n = 4, via one induced model per DAG instead of
        # repeated queries.
        u = universe_of_size(4)
        placements = list(enumerate_disjoint_triples(u))
        for d in enumerate_dags(u):
            triples = d.dsep_model().triples
            for t in placements:
                free = u.full_mask & ~t.span
                extra = free
                while True:
                    whole = Triple(t.a, t.c, t.b | extra) in triples
                    split = Triple(t.a, t.c, t.b) in triples and Triple(t.a, t.c, extra) in triples
                    assert whole == split
                    if extra == 0:
                        break
                    extra = (extra - 1) & free


class TestDsepModel:
    def test_edgeless(self):
        u = universe_of_size(2)
        assert len(Dag(u, frozenset()).dsep_model()) == 16

    def test_total_order_only_vacuous(self):
        u = universe_of_size(3)
        d = Dag(u, frozenset({(0, 1), (0, 2), (1, 2)}))
        m = d.dsep_model()
        assert all(t.a == 0 or t.b == 0 for t in m.triples)
        assert len(m) == 46

    def test_collider_contents(self):
        m = collider().dsep_model()
        assert Triple(0b001, 0, 0b100) in m
        assert Triple(0b001, 0b010, 0b100) not in m


def skeleton_edges(model):
    return sorted(_skeleton(model)[0].edges)


class TestSkeleton:
    """Two nodes of a DAG are joined by an arc exactly when no conditioning
    set d-separates them, so the model's skeleton is the DAG's."""

    def test_examples(self):
        assert skeleton_edges(collider().dsep_model()) == [(0, 1), (1, 2)]
        skeleton = skeleton_edges(counterexample_dag().dsep_model())
        assert skeleton == [(0, 2), (0, 3), (1, 2), (3, 4)]
        assert (2, 3) not in skeleton

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjacency_iff_never_separable(self, n):
        u = universe_of_size(n)
        for d in enumerate_dags(u):
            never_separated = []
            for alpha, beta in combinations(range(n), 2):
                others = u.full_mask & ~(1 << alpha) & ~(1 << beta)
                c = others
                while not d.d_separates(1 << alpha, c, 1 << beta):
                    if c == 0:
                        never_separated.append((alpha, beta))
                        break
                    c = (c - 1) & others
            arcs = sorted((min(arc), max(arc)) for arc in d.arcs)
            assert skeleton_edges(d.dsep_model()) == arcs == never_separated


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_recurrence(self, n):
        assert sum(1 for _ in enumerate_dags(universe_of_size(n))) == dag_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mask_order_matches_bruteforce(self, n):
        table = acyclic_arc_masks(n)
        assert table == tuple(acyclic_arc_masks_bruteforce(n))
        pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
        assert [d.arcs for d in enumerate_dags(universe_of_size(n))] == [
            frozenset(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1)
            for mask in table
        ]

    def test_first_dag_is_edgeless(self):
        first = next(enumerate_dags(universe_of_size(3)))
        assert first.arcs == frozenset()

    def test_deterministic(self):
        u = universe_of_size(3)
        a = [d.arcs for d in enumerate_dags(u)]
        b = [d.arcs for d in enumerate_dags(u)]
        assert a == b

    def test_gate(self):
        with pytest.raises(ValueError):
            next(enumerate_dags(universe_of_size(MAX_DAG_ENUM_NODES + 1)))

    def test_mask_table_cached_per_node_count_and_gated(self):
        assert acyclic_arc_masks(3) is acyclic_arc_masks(3)
        assert len(acyclic_arc_masks(5)) == dag_count(5)
        with pytest.raises(ValueError):
            acyclic_arc_masks(MAX_DAG_ENUM_NODES + 1)

    def test_five_node_table_is_every_dag(self):
        # Ascending, acyclic and as long as the DAG count: exactly all DAGs,
        # without testing all 2^20 arc masks.
        table = acyclic_arc_masks(5)
        assert all(x < y for x, y in zip(table, table[1:]))
        pairs = [(i, j) for i in range(5) for j in range(5) if j != i]
        for mask in table:
            arcs = [p for k, p in enumerate(pairs) if (mask >> k) & 1]
            assert not nodes_left_by_peeling(5, arcs)
        assert len(table) == dag_count(5)

    @pytest.mark.parametrize("n", [MAX_DAG_ENUM_NODES + 1, 16, -1, -2])
    def test_gate_raises_before_any_node_order(self, n):
        # At 16 nodes a gate checked after the 16! orders would never return;
        # below 0, range(n) is empty and would give the one empty order.
        builds = [lambda: _forward_arc_masks(n), lambda: acyclic_arc_masks(n)]
        if n > 0:
            message = f"refusing to enumerate DAGs on {n} > {MAX_DAG_ENUM_NODES} nodes"
            builds.append(lambda: is_causal(IndependencyModel(universe_of_size(n), frozenset())))
        else:
            message = f"no DAGs on a negative number of nodes, got {n}"
        for build in builds:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_arc_bit_follows_pair_layout(self):
        for n in range(1, 7):
            pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
            assert [arc_bit(n, u, v) for u, v in pairs] == list(range(len(pairs)))
            universe = universe_of_size(n)
            for k, pair in enumerate(pairs):
                assert dag_of_mask(universe, 1 << k).arcs == frozenset({pair})

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dag_of_mask_sets_one_arc_per_bit(self, n):
        # Encoding the decoded arcs gives back every acyclic mask.
        universe = universe_of_size(n)
        for mask in acyclic_arc_masks(n):
            arcs = dag_of_mask(universe, mask).arcs
            assert len(arcs) == mask.bit_count()
            assert sum(1 << arc_bit(n, u, v) for u, v in arcs) == mask

    @pytest.mark.parametrize("mask", [1 << 2, 1 << 5, -1])
    def test_dag_of_mask_rejects_a_mask_outside_the_arc_range(self, mask):
        with pytest.raises(ValueError, match=f"arc mask {mask} outside the 2-label"):
            dag_of_mask(universe_of_size(2), mask)
