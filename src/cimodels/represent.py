"""Deciding whether a model is induced by an undirected graph or by a DAG,
plus the semi-graphoid closure check.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .core import (
    IndependencyModel,
    Record,
    Triple,
    bits_of,
    disjoint_keys,
    model_equals,
    pack_key,
    semigraphoid_closed,
    submasks,
    unpack_keys,
)
from .dag import Dag, _forward_arc_masks, acyclic_arc_masks, arc_bit, dag_of_mask
from .ugraph import UndirectedGraph

class RepresentabilityResult(Record):
    """Outcome of a representability decision.

    ``witness`` is present iff ``representable``. ``first_discrepancy`` is
    only reported by the constructive graph check: the first enumerated
    triple on which the candidate graph and the model disagree.
    """

    representable: bool
    witness: UndirectedGraph | Dag | None
    first_discrepancy: Triple | None


class AxiomViolation(Record):
    """One failed schema instance: premises held but the conclusion did not."""

    axiom: str
    premises: tuple[Triple, ...]
    conclusion: Triple


def _first_separator(model: IndependencyModel, alpha: int, beta: int) -> int | None:
    """The first conditioning set under which the model holds the two
    singletons independent, or ``None`` when there is none.

    Sets run over the subsets of the other labels in ``submasks`` order, and
    both orientations are consulted, since stored models need not be
    symmetric: a set counts when the model has ``({alpha}, c, {beta})`` or
    ``({beta}, c, {alpha})``.
    """
    n, keys, a, b = model.universe.n, model.keys, 1 << alpha, 1 << beta
    return next(
        (
            c
            for c in submasks(model.universe.full_mask & ~(a | b))
            if pack_key(n, a, c, b) in keys or pack_key(n, b, c, a) in keys
        ),
        None,
    )


def dependent_always(model: IndependencyModel, alpha: int, beta: int) -> bool:
    """True iff no conditioning set renders the two singletons independent,
    in either orientation (see ``_first_separator``)."""
    if alpha == beta:
        raise ValueError("the two nodes must be distinct")
    model.universe.check_nodes(alpha, beta)
    return _first_separator(model, alpha, beta) is None


def _skeleton(
    model: IndependencyModel,
) -> tuple[UndirectedGraph, dict[tuple[int, int], int | None]]:
    """The graph joining the pairs with no separating set, together with each
    pair ``(x, y)``, ``x < y``, mapped to its ``_first_separator``."""
    n = model.universe.n
    separators = {(x, y): _first_separator(model, x, y) for x, y in combinations(range(n), 2)}
    edges = [pair for pair, sep in separators.items() if sep is None]
    return UndirectedGraph(model.universe, edges), separators


def is_graph_isomorph(model: IndependencyModel) -> RepresentabilityResult:
    """Decide whether some undirected graph's separation model equals ``model``.

    Constructive: the only possible witness joins exactly the pairs that are
    dependent under every conditioning set, so build that graph and compare
    its separation model with the input. On a mismatch, the first enumerated
    triple on which the two disagree is reported.
    """
    n = model.universe.n
    order = disjoint_keys(n)  # the triple gate, before the skeleton is read
    candidate, _ = _skeleton(model)
    differ = candidate.separation_model().keys ^ model.keys
    if not differ:
        return RepresentabilityResult(True, candidate, None)
    first = next(k for k in order if k in differ)
    return RepresentabilityResult(False, None, Triple(*next(unpack_keys(n, [first]))))


def _causal_witness(model: IndependencyModel) -> tuple[int, Dag] | tuple[None, None]:
    """``(arc mask, DAG)`` of the first DAG in enumeration order inducing ``model``.

    At most one DAG is compared. A DAG's model leaves two nodes dependent
    under every conditioning set exactly when they are adjacent, so every DAG
    inducing ``model`` has the skeleton of the pairs with no separating set.
    For each unshielded triple ``x - z - y`` of that skeleton, a DAG's model
    holds ``x`` and ``y`` apart under no set holding ``z`` when ``z`` is a
    collider ``x -> z <- y``, and under no set leaving ``z`` out otherwise.
    So the first separating set of ``x`` and ``y`` gives the rule: ``z`` is a
    collider exactly when that set leaves it out. If ``model`` is causal,
    every DAG inducing it passes the rule; and every orientation that passes
    has the skeleton and the v-structures of such a DAG, so it induces the
    same model (Verma & Pearl 1990). Hence the first passing orientation, in
    ascending arc-mask order, is the first witness, else ``(None, None)``. Each
    orientation is a topological order's forward arcs cut down to the skeleton.
    """
    n = model.universe.n
    forward = _forward_arc_masks(n)  # the DAG gate, before any pair is read
    skeleton, separators = _skeleton(model)
    adjacent = skeleton.neighbor_masks
    rules = [  # (the arcs x -> z and y -> z, whether z is a collider)
        (1 << arc_bit(n, x, z) | 1 << arc_bit(n, y, z), not sep >> z & 1)
        for (x, y), sep in separators.items()
        if sep is not None
        for z in bits_of(adjacent[x] & adjacent[y])
    ]
    both = sum(1 << arc_bit(n, u, v) | 1 << arc_bit(n, v, u) for u, v in skeleton.edges)
    for mask in sorted({f & both for f in forward}):
        if all((mask & arcs == arcs) == collider for arcs, collider in rules):
            dag = dag_of_mask(model.universe, mask)
            return (mask, dag) if model_equals(dag.dsep_model(), model) else (None, None)
    return None, None


def scan_causal_witness(model: IndependencyModel) -> tuple[Dag | None, int]:
    """The witness of ``is_causal`` (or ``None``) together with its 1-based
    position in ``enumerate_dags`` order; with no witness the count is the
    number of all DAGs on the universe, every one of which is ruled out.

    Only the position and the count need the ``acyclic_arc_masks`` table.
    """
    table = acyclic_arc_masks(model.universe.n)  # the DAG gate, before any pair is read
    mask, witness = _causal_witness(model)
    if witness is None:
        return None, len(table)
    return witness, bisect_left(table, mask) + 1


def is_causal(model: IndependencyModel) -> RepresentabilityResult:
    """Decide whether some DAG's d-separation model equals ``model``.

    The witness is the first one in DAG enumeration order (see
    ``_causal_witness``), so it is deterministic but only unique up to
    equivalence of induced models. It is found without the table of all DAGs.
    """
    witness = _causal_witness(model)[1]
    return RepresentabilityResult(witness is not None, witness, None)


def check_semigraphoid(model: IndependencyModel) -> list[AxiomViolation]:
    """All violated instances of the four closure schemata.

    ``core.semigraphoid_closed`` first decides from one-step instances
    whether any instance is violated, in ``O(|keys| * n)``; a closed model
    returns ``[]`` there, as every induced model does. Only a model with a
    violation is walked by ``_semigraphoid_violations``, which lists them.
    """
    if semigraphoid_closed(model.universe.n, model.keys):
        return []
    return _semigraphoid_violations(model)


def _semigraphoid_violations(model: IndependencyModel) -> list[AxiomViolation]:
    """Every violated instance of the four closure schemata, walked in order.

    Instances are generated from the model's own triples (an instance whose
    premises are absent can never be violated), in a deterministic order: each
    schema in turn, premises in ascending ``(a, c, b)`` order. The decoded
    triples are held as nested maps ``a -> c -> b`` and every conclusion is
    looked up by its sets; ``Triple``s are built only for reported violations.
    """
    ordered = list(unpack_keys(model.universe.n, sorted(model.keys)))
    held: dict[int, dict[int, dict[int, None]]] = {}  # b maps are dicts: b's stay ascending
    for a, c, b in ordered:
        held.setdefault(a, {}).setdefault(c, {})[b] = None
    found: list[AxiomViolation] = []

    for a, c, b in ordered:
        if a not in held.get(b, {}).get(c, ()):
            found.append(AxiomViolation("symmetry", (Triple(a, c, b),), Triple(b, c, a)))

    for a, c, b in ordered:
        by_c = held[a]
        # Split the second set into a kept part and a dropped part.
        for sub in submasks(b):
            if sub not in by_c[c]:
                kept = Triple(a, c, sub)
                found.append(AxiomViolation("decomposition", (Triple(a, c, b),), kept))
            if sub not in by_c.get(c | b ^ sub, ()):
                moved = Triple(a, c | b ^ sub, sub)
                found.append(AxiomViolation("weak_union", (Triple(a, c, b),), moved))

    for a, c, b in ordered:
        by_c = held[a]
        # (a, c, b) is the second premise; look for a first one (a, c | b, d).
        for d in by_c.get(c | b, ()):
            if b | d not in by_c[c]:
                premises = (Triple(a, c | b, d), Triple(a, c, b))
                found.append(AxiomViolation("contraction", premises, Triple(a, c, b | d)))
    return found
