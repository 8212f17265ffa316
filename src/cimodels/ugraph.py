"""Undirected graphs, graph separation, and induced separation models."""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .core import IndependencyModel, Record, Universe, _set, bits_of, separated, separated_keys

MAX_GRAPH_ENUM_NODES = 6


def reachable_mask(neighbors: Sequence[int], start: int, removed: int) -> int:
    """Nodes reachable from ``start`` when the nodes in ``removed`` are deleted.

    ``start`` nodes that are themselves removed do not seed the search.
    """
    seen = todo = start & ~removed
    if todo < 0:
        next(bits_of(todo))  # raises: a negative mask has no finite set of bits
    while todo:
        low = todo & -todo
        new = neighbors[low.bit_length() - 1] & ~seen & ~removed
        seen |= new
        todo = (todo | new) ^ low
    return seen


def _out_masks(universe: Universe, pairs: Iterable[tuple[int, int]], kind: str) -> tuple[int, ...]:
    """Per node ``u``, the mask of the nodes ``v`` with ``(u, v)`` in ``pairs``.

    Raises on the first pair, in the order given, that is a loop or leaves
    ``universe``; ``kind`` names the pairs in the message.
    """
    n = universe.n
    masks = [0] * n
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{kind} ({u}, {v}) outside the {n}-label universe")
        masks[u] |= 1 << v
    return tuple(masks)


class UndirectedGraph(Record):
    """An undirected graph over a universe; edges are unordered index pairs.

    Construction also sets the attribute ``neighbor_masks`` (each node's
    neighbours as a mask), which ``==``, ``hash`` and ``repr`` ignore.
    """

    universe: Universe
    edges: frozenset[tuple[int, int]]

    def __init__(self, universe: Universe, edges: Iterable[tuple[int, int]]) -> None:
        edges = tuple(edges)  # may be a one-shot iterator
        both = chain(edges, ((v, u) for u, v in edges))  # the given pairs are checked first
        _set(self, "universe", universe)
        _set(self, "neighbor_masks", _out_masks(universe, both, "edge"))
        _set(self, "edges", frozenset({(u, v) if u < v else (v, u) for u, v in edges}))

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

        Two kept nodes are joined iff the other kept nodes do not separate
        them: some path between them has all its internal nodes outside
        ``v_mask``. One closure per kept pair decides it. The result lives on
        the sub-universe of ``v_mask`` with recompacted indices, so its
        separation model is directly comparable with a restricted model.
        """
        if v_mask == 0:
            raise ValueError("cannot marginalize onto the empty set of variables")
        sub = self.universe.subuniverse(v_mask)  # checks the mask before bits_of reads it
        nbrs, kept = self.neighbor_masks, list(bits_of(v_mask))
        edges = frozenset(
            (i, j)
            for (i, u), (j, v) in combinations(enumerate(kept), 2)
            if reachable_mask(nbrs, 1 << u, v_mask & ~(1 << u | 1 << v)) & 1 << v
        )
        return UndirectedGraph(sub, edges)


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
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[k] for k in bits_of(mask))
        yield UndirectedGraph(universe, edges)

