"""Directed acyclic graphs, d-separation, and induced models.

Two independent d-separation deciders: one reachability closure over a fixed
table of ``3n`` walk states (``Dag._active_reach``), and the oracle
``Dag.d_separates_moral``, plain separation in the moralized ancestral graph;
the tests check each against the other. Arcs are acyclic iff some node order
runs them all forward: ``_forward_arc_masks`` holds each order's arcs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .core import (
    IndependencyModel,
    Record,
    Universe,
    _set,
    bits_of,
    check_disjoint,
    separated,
    separated_keys,
    submasks,
)
from .ugraph import _out_masks, reachable_mask

MAX_DAG_ENUM_NODES = 5


class Dag(Record):
    """A directed acyclic graph over a universe; arcs are ordered index pairs.

    Acyclicity is checked at construction; a cyclic arc set raises
    ``ValueError``. It also sets the attribute ``child_masks`` (each node's
    children as a mask), which ``==``, ``hash`` and ``repr`` ignore.
    """

    universe: Universe
    arcs: frozenset[tuple[int, int]]

    def __init__(self, universe: Universe, arcs: Iterable[tuple[int, int]]) -> None:
        n, arcs = universe.n, frozenset(arcs)
        kids = _out_masks(universe, arcs, "arc")
        _set(self, "universe", universe)
        _set(self, "arcs", arcs)
        _set(self, "child_masks", kids)
        # Peel sinks until a pass peels none: a peeled node stays peelable, so
        # each pass rechecks every node. What is left is the nodes on a cycle
        # and every node that reaches one.
        left = (1 << n) - 1
        while left:
            last = left
            for i, k in enumerate(kids):
                if not k & left:
                    left &= ~(1 << i)
            if left == last:
                break
        if left:
            raise ValueError(f"arcs contain a directed cycle among nodes {list(bits_of(left))}")

    @cached_property
    def parent_masks(self) -> tuple[int, ...]:
        return self._walk_steps[2 * self.universe.n :]  # the bounce states step to the parents

    def d_separates(self, a: int, c: int, b: int) -> bool:
        """Decide whether ``c`` d-separates ``a`` from ``b``.

        A path between the two sets is blocked at an internal node ``w`` when
        either (i) the path's arcs converge at ``w`` and neither ``w`` nor any
        descendant of ``w`` is in ``c``, or (ii) the arcs do not converge at
        ``w`` and ``w`` is in ``c``. Separation holds iff every path is
        blocked somewhere; it holds vacuously when ``a`` or ``b`` is empty.

        Decided by one reachability closure over ``3n`` walk states (see
        ``_active_reach``), which finds an active walk iff an active path
        exists. The three masks must be pairwise disjoint.
        """
        return separated(self.universe, self._active_reach, a, c, b)

    @cached_property
    def _walk_steps(self) -> tuple[int, ...]:
        """Per state of ``_active_reach``'s walk, the states it steps to."""
        n = self.universe.n
        steps = [k << n | k << 2 * n for k in self.child_masks] * 2 + [0] * n
        for u, v in self.arcs:
            steps[v] |= 1 << u
            steps[2 * n + v] |= 1 << u
        return tuple(steps)

    def _active_reach(self, a: int, c: int) -> int:
        """Nodes reachable from ``a`` along a trail that ``c`` leaves active.

        One ``reachable_mask`` closure over ``3n`` states: ``i`` is node ``i``
        entered from a child or a trail start, and steps to its parents and
        children; ``n + i`` is ``i`` entered from a parent, and steps to its
        children; ``2n + i`` is ``i`` entered from a parent when in ``c``, and
        bounces back to its parents. ``c`` removes the first two states of its
        nodes and the bounce of the others. So a walk passes a collider only
        in ``c`` and a non-collider only outside it, and a collider with a
        descendant in ``c`` is passed by walking down to it and back. Like any
        closure, the result is the union over ``a``'s members. It may hold
        nodes of ``c``: the kernel's free set and ``separated``'s ``b`` miss them.
        """
        n, full = self.universe.n, self.universe.full_mask
        removed = c | c << n | (full & ~c) << 2 * n
        seen = reachable_mask(self._walk_steps, a, removed)
        return (seen | seen >> n | seen >> 2 * n) & full

    def d_separates_moral(self, a: int, c: int, b: int) -> bool:
        """Oracle decider: separation in the moralized ancestral graph.

        Restrict to the ancestral closure of ``a | b | c``, join each node's
        parents pairwise, drop arc directions, and test plain graph
        separation there; nodes outside the closure are left isolated.
        """
        check_disjoint(a, c, b)  # before the mask check, as in the other deciders
        self.universe.check_mask(a | c | b)
        parents, moral = self.parent_masks, [0] * self.universe.n
        for v in bits_of(reachable_mask(parents, a | c | b, 0)):
            clique = parents[v] | 1 << v  # v and its parents, all inside the closure
            for u in bits_of(clique):
                moral[u] |= clique  # a node's own bit does not change a closure
        return not (a and b and reachable_mask(moral, a, c) & b)

    def dsep_model(self) -> IndependencyModel:
        """The model of all disjoint triples this DAG d-separates."""
        keys = separated_keys(self.universe, self._active_reach)
        return IndependencyModel._from_keys(self.universe, keys)


def arc_bit(n: int, u: int, v: int) -> int:
    """Bit index of the arc ``u -> v`` in the arc bitmasks of ``n``-node DAGs."""
    return u * (n - 1) + v - (v > u)


@lru_cache(maxsize=None)
def _forward_arc_masks(n: int) -> tuple[int, ...]:
    """Per ordering of the ``n`` nodes, the mask of the arcs it runs forward.

    The DAGs on ``n`` nodes are the submasks of these ``n!`` masks. This is
    the one DAG-enumeration gate, and it raises before any order is made.
    """
    if n < 0:
        raise ValueError(f"no DAGs on a negative number of nodes, got {n}")
    if n > MAX_DAG_ENUM_NODES:
        raise ValueError(f"refusing to enumerate DAGs on {n} > {MAX_DAG_ENUM_NODES} nodes")
    return tuple(
        sum(1 << arc_bit(n, u, v) for u, v in combinations(order, 2))
        for order in permutations(range(n))
    )


@lru_cache(maxsize=None)
def acyclic_arc_masks(n: int) -> tuple[int, ...]:
    """Arc masks of all DAGs on ``n`` nodes, ascending; built once per ``n``.

    Every submask of a ``_forward_arc_masks`` entry, once. Index ``k`` holds
    the ``(k + 1)``-th DAG of ``enumerate_dags`` on any ``n``-label universe,
    so a bisect finds an acyclic mask's place in that order.
    """
    return tuple(sorted({s for f in _forward_arc_masks(n) for s in submasks(f)}))


@lru_cache(maxsize=None)
def _arc_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The arc ``(u, v)`` at each bit index: the inverse of ``arc_bit``."""
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def dag_of_mask(universe: Universe, mask: int) -> Dag:
    """The DAG whose arcs are the set bits of ``mask``."""
    n = universe.n
    if not 0 <= mask < 1 << n * (n - 1):
        raise ValueError(f"arc mask {mask} outside the {n}-label arc range")
    return Dag(universe, frozenset(map(_arc_pairs(n).__getitem__, bits_of(mask))))


def enumerate_dags(universe: Universe) -> Iterator[Dag]:
    """Yield every labeled DAG on the universe once, in ``acyclic_arc_masks`` order."""
    for mask in acyclic_arc_masks(universe.n):
        yield dag_of_mask(universe, mask)
