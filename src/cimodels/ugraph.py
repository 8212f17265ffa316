"""Undirected graphs, graph separation, and induced separation models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence

from .core import IndependencyModel, Universe, bits_of, separated, separated_keys

MAX_GRAPH_ENUM_NODES = 6


def reachable_mask(neighbors: Sequence[int], start: int, removed: int) -> int:
    """Nodes reachable from ``start`` when the nodes in ``removed`` are deleted.

    ``start`` nodes that are themselves removed do not seed the search.
    """
    seen = start & ~removed
    frontier = seen
    while frontier:
        nxt = 0
        for i in bits_of(frontier):
            nxt |= neighbors[i]
        frontier = nxt & ~seen & ~removed
        seen |= frontier
    return seen


def _check_pairs(universe: Universe, pairs: Iterable[tuple[int, int]], kind: str) -> None:
    """Raise on the first pair, in the order given, that is a loop or leaves ``universe``."""
    n = universe.n
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{kind} ({u}, {v}) outside the {n}-label universe")


def _out_masks(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Per node ``u`` of ``n``, the mask of the nodes ``v`` with ``(u, v)`` in ``pairs``."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
    return tuple(masks)


@dataclass(frozen=True)
class UndirectedGraph:
    """An undirected graph over a universe; edges are unordered index pairs."""

    universe: Universe
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        edges = tuple(self.edges)  # may be a one-shot iterator
        _check_pairs(self.universe, edges, "edge")
        ordered = frozenset({(u, v) if u < v else (v, u) for u, v in edges})
        object.__setattr__(self, "edges", ordered)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        return _out_masks(self.universe.n, self.edges | {(v, u) for u, v in self.edges})

    def has_edge(self, u: int, v: int) -> bool:
        self.universe.check_nodes(u, v)
        return (self.neighbor_masks[u] >> v) & 1 == 1

    def separates(self, a: int, c: int, b: int) -> bool:
        """True iff every path from a node of ``a`` to a node of ``b`` meets ``c``.

        Equivalently, deleting the nodes of ``c`` disconnects ``a`` from ``b``.
        Vacuously true when ``a`` or ``b`` is empty. The three masks must be
        pairwise disjoint; overlapping arguments raise instead of being
        normalized away.
        """
        return separated(self.universe, partial(reachable_mask, self.neighbor_masks), a, c, b)

    def separation_model(self) -> IndependencyModel:
        """The model of all disjoint triples this graph separates."""
        reach = partial(reachable_mask, self.neighbor_masks)
        return IndependencyModel._from_keys(self.universe, separated_keys(self.universe, reach))

    def marginal_graph(self, v_mask: int) -> "UndirectedGraph":
        """Collapse this graph onto the nodes of ``v_mask``.

        Two kept nodes are joined iff the original graph has a path between
        them whose internal nodes all lie outside ``v_mask``. The result lives
        on the sub-universe of ``v_mask`` with recompacted indices, so its
        separation model is directly comparable with a restricted model.
        """
        self.universe.check_mask(v_mask)
        if v_mask == 0:
            raise ValueError("cannot marginalize onto the empty set of variables")
        nbrs = self.neighbor_masks
        outside = self.universe.full_mask & ~v_mask
        kept_nodes = list(bits_of(v_mask))
        new_index = {old: new for new, old in enumerate(kept_nodes)}
        edges = set()
        for old_u in kept_nodes:
            # Ends adjacent to old_u directly, or via a walk through outside nodes.
            through = reachable_mask(nbrs, nbrs[old_u] & outside, v_mask)
            endpoints = nbrs[old_u]
            for o in bits_of(through):
                endpoints |= nbrs[o]
            for old_v in bits_of(endpoints & v_mask):
                if old_v != old_u:
                    edges.add((new_index[old_u], new_index[old_v]))
        return UndirectedGraph(self.universe.subuniverse(v_mask), frozenset(edges))


def _pair_bit_layout(n: int) -> list[tuple[int, int]]:
    """Unordered pairs (i, j), i < j, in lexicographic order; pair k is bit k."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def enumerate_undirected_graphs(universe: Universe) -> Iterator[UndirectedGraph]:
    """Yield all labeled undirected graphs on the universe.

    Order is lexicographic by edge bitmask, where bit ``k`` is the ``k``-th
    pair of the i<j lexicographic pair list. Gated at
    ``MAX_GRAPH_ENUM_NODES`` nodes.
    """
    n = universe.n
    if n > MAX_GRAPH_ENUM_NODES:
        raise ValueError(
            f"refusing to enumerate graphs on {n} > {MAX_GRAPH_ENUM_NODES} nodes"
        )
    pairs = _pair_bit_layout(n)
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[k] for k in bits_of(mask))
        yield UndirectedGraph(universe, edges)

