"""Graph separation, induced models, and the marginal-graph construction."""

import random
from itertools import combinations

import pytest

from cimodels.core import (
    Triple,
    Universe,
    bits_of,
    enumerate_disjoint_triples,
    model_equals,
)
from cimodels.ugraph import (
    MAX_GRAPH_ENUM_NODES,
    UndirectedGraph,
    enumerate_undirected_graphs,
    reachable_mask,
)

from oracles import (
    graph_adjacency,
    marginal_edges_by_paths,
    reachable_by_search,
    separates_by_paths,
    universe_of_size,
)


def path_graph(labels):
    u = Universe(tuple(labels))
    return UndirectedGraph(u, frozenset((i, i + 1) for i in range(u.n - 1)))


def complete_graph(n):
    u = universe_of_size(n)
    return UndirectedGraph(u, frozenset(combinations(range(n), 2)))


def random_graph(rng, n, p=0.5):
    u = universe_of_size(n)
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return UndirectedGraph(u, edges)


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph(universe_of_size(2), frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph(universe_of_size(2), frozenset({(0, 2)}))

    def test_edges_normalized(self):
        g = UndirectedGraph(universe_of_size(3), frozenset({(2, 0), (0, 2)}))
        assert g.edges == frozenset({(0, 2)})
        assert g.neighbor_masks == (0b100, 0, 0b001)


class TestReachableMask:
    """The closure equals a set-based search, removed start nodes included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_graph_start_and_removed_mask(self, n):
        masks = range(1 << n)
        for g in enumerate_undirected_graphs(universe_of_size(n)):
            adj = graph_adjacency(g)
            for start in masks:
                for removed in masks:
                    expected = reachable_by_search(adj, start, removed)
                    assert reachable_mask(g.neighbor_masks, start, removed) == expected

    def test_random_eight_node_graphs(self):
        rng = random.Random(15)
        for _ in range(20):
            g = random_graph(rng, 8, p=0.3)
            adj = graph_adjacency(g)
            for _ in range(50):
                start, removed = rng.randrange(256), rng.randrange(256)
                expected = reachable_by_search(adj, start, removed)
                assert reachable_mask(g.neighbor_masks, start, removed) == expected


class TestSeparates:
    def test_path_graph_examples(self):
        g = path_graph("abc")
        assert g.separates(0b001, 0b010, 0b100)  # middle node blocks
        assert not g.separates(0b001, 0, 0b100)

    def test_five_node_example(self):
        u = universe_of_size(5)
        g = UndirectedGraph(u, frozenset({(0, 1), (0, 2), (3, 4)}))
        assert g.separates(0b00010, 0b00001, 0b00100)
        assert g.separates(0b00010, 0, 0b01000)  # different components

    def test_vacuous_on_empty_side(self):
        g = path_graph("abc")
        assert g.separates(0, 0, 0b100)
        assert g.separates(0b001, 0b010, 0)

    def test_overlapping_arguments_rejected(self):
        g = path_graph("abc")
        with pytest.raises(ValueError):
            g.separates(0b001, 0b001, 0b100)
        with pytest.raises(ValueError):
            g.separates(0b011, 0b010, 0b100)

    def test_against_path_enumeration_oracle(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                for t in enumerate_disjoint_triples(u):
                    assert g.separates(t.a, t.c, t.b) == separates_by_paths(g, t.a, t.c, t.b)

    def test_symmetry_exhaustive(self):
        u = universe_of_size(3)
        for g in enumerate_undirected_graphs(u):
            for t in enumerate_disjoint_triples(u):
                assert g.separates(t.a, t.c, t.b) == g.separates(t.b, t.c, t.a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjacency_iff_never_separable(self, n):
        # The constructive representability check rests on this.
        u = universe_of_size(n)
        for g in enumerate_undirected_graphs(u):
            for alpha, beta in combinations(range(n), 2):
                others = u.full_mask & ~(1 << alpha) & ~(1 << beta)
                never_separated = True
                c = others
                while True:
                    if g.separates(1 << alpha, c, 1 << beta):
                        never_separated = False
                        break
                    if c == 0:
                        break
                    c = (c - 1) & others
                assert bool(g.neighbor_masks[alpha] >> beta & 1) == never_separated


class TestSeparationModel:
    def test_edgeless_has_everything(self):
        u = universe_of_size(2)
        g = UndirectedGraph(u, frozenset())
        assert len(g.separation_model()) == 16

    def test_complete_graph_only_vacuous(self):
        m = complete_graph(3).separation_model()
        assert all(t.a == 0 or t.b == 0 for t in m.triples)
        # each variable goes to one of {cond, second, none} when the first
        # set is empty, and symmetrically; inclusion-exclusion gives 46
        assert len(m) == 46

    def test_path_graph_contents(self):
        g = path_graph("abc")
        m = g.separation_model()
        assert Triple(0b001, 0b010, 0b100) in m
        assert Triple(0b100, 0b010, 0b001) in m
        assert Triple(0b001, 0, 0b100) not in m

    def test_strong_union_exhaustive(self):
        for n in (2, 3, 4):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                m = g.separation_model()
                for t in m.triples:
                    free = u.full_mask & ~t.span
                    extra = free
                    while True:
                        assert Triple(t.a, t.c | extra, t.b) in m
                        if extra == 0:
                            break
                        extra = (extra - 1) & free


class TestMarginalGraph:
    def test_fork_through_dropped_node(self):
        u = universe_of_size(3)
        g = UndirectedGraph(u, frozenset({(0, 1), (0, 2)}))
        marg = g.marginal_graph(0b110)
        assert marg.universe.names == ("1", "2")
        assert marg.edges == frozenset({(0, 1)})

    def test_identity_on_full_universe(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 4)
            marg = g.marginal_graph(g.universe.full_mask)
            assert marg.edges == g.edges

    def test_isolated_node_stays_isolated(self):
        u = universe_of_size(4)
        g = UndirectedGraph(u, frozenset({(1, 0), (0, 2)}))
        marg = g.marginal_graph(0b1110)
        assert marg.universe.names == ("1", "2", "3")
        assert marg.edges == frozenset({(0, 1)})

    def test_empty_restriction_rejected(self):
        g = path_graph("ab")
        with pytest.raises(ValueError):
            g.marginal_graph(0)

    def test_pairwise_separation_equivalence(self):
        # Single-pair separation agrees between the original and the
        # collapsed graph, for conditioning sets inside the kept nodes.
        for n in (2, 3, 4):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                for v_mask in range(1, 1 << n):
                    kept = list(bits_of(v_mask))
                    if len(kept) < 2:
                        continue
                    marg = g.marginal_graph(v_mask)
                    sub = marg.universe
                    for alpha, beta in combinations(kept, 2):
                        others = v_mask & ~(1 << alpha) & ~(1 << beta)
                        c = others
                        while True:
                            got = marg.separates(
                                1 << sub.index(u.names[alpha]),
                                sub.mask_of(u.labels_of(c)),
                                1 << sub.index(u.names[beta]),
                            )
                            want = g.separates(1 << alpha, c, 1 << beta)
                            assert got == want
                            if c == 0:
                                break
                            c = (c - 1) & others

    def test_restriction_matches_marginal_model(self):
        for n in (2, 3):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                sm = g.separation_model()
                for v_mask in range(1, 1 << n):
                    lhs = sm.restrict(v_mask)
                    rhs = g.marginal_graph(v_mask).separation_model()
                    assert model_equals(lhs, rhs)

    def test_restriction_matches_marginal_model_randomized_larger(self):
        rng = random.Random(41)
        for n, samples in ((5, 6), (6, 4), (7, 2)):
            for _ in range(samples):
                g = random_graph(rng, n)
                v_mask = rng.randrange(1, 1 << n)
                lhs = g.separation_model().restrict(v_mask)
                rhs = g.marginal_graph(v_mask).separation_model()
                assert model_equals(lhs, rhs)

    def test_edges_match_path_enumeration_oracle(self):
        # Every graph on <= 4 nodes with every nonempty mask, then seeded ones.
        cases = [
            (g, v_mask)
            for n in (1, 2, 3, 4)
            for g in enumerate_undirected_graphs(universe_of_size(n))
            for v_mask in range(1, 1 << n)
        ]
        rng = random.Random(47)
        for n in (3, 4, 5, 6):
            for _ in range(12):
                g = random_graph(rng, n, p=rng.uniform(0.2, 0.7))
                cases.append((g, rng.randrange(1, 1 << n)))
        for g, v_mask in cases:
            marg = g.marginal_graph(v_mask)
            old_index = list(bits_of(v_mask))
            got = {(old_index[i], old_index[j]) for i, j in marg.edges}
            assert got == marginal_edges_by_paths(g, v_mask)


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, expected):
        assert sum(1 for _ in enumerate_undirected_graphs(universe_of_size(n))) == expected

    def test_order_lexicographic_by_edge_mask(self):
        graphs = list(enumerate_undirected_graphs(universe_of_size(3)))
        assert graphs[0].edges == frozenset()
        assert graphs[1].edges == frozenset({(0, 1)})
        assert graphs[2].edges == frozenset({(0, 2)})
        assert graphs[3].edges == frozenset({(0, 1), (0, 2)})

    def test_gate(self):
        with pytest.raises(ValueError):
            next(enumerate_undirected_graphs(universe_of_size(MAX_GRAPH_ENUM_NODES + 1)))
