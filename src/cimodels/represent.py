"""Deciding whether a model is induced by an undirected graph or by a DAG,
plus the semi-graphoid closure check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    IndependencyModel,
    Triple,
    enumerate_disjoint_triples,
    packed_keys,
    separated_triples,
    submasks,
)
from .dag import MAX_DAG_ENUM_NODES, Dag, acyclic_arc_masks, arc_bit, dag_of_mask
from .ugraph import UndirectedGraph

# The four closure schemata checked by check_semigraphoid, as formula text
# for the independency logic. Literature-standard forms; check_semigraphoid
# hard-codes the same instantiations, and the test suite cross-validates the
# two implementations against each other.
SEMIGRAPHOID_AXIOM_FORMULAS: dict[str, str] = {
    "symmetry": "I(X1, X2, X3) -> I(X3, X2, X1)",
    "decomposition": "I(X1, X2, X3 + X4) -> I(X1, X2, X3)",
    "weak_union": "I(X1, X2, X3 + X4) -> I(X1, X2 + X4, X3)",
    "contraction": "I(X1, X2 + X3, X4) & I(X1, X2, X3) -> I(X1, X2, X3 + X4)",
}


@dataclass(frozen=True)
class RepresentabilityResult:
    """Outcome of a representability decision.

    ``witness`` is present iff ``representable``. ``first_discrepancy`` is
    only reported by the constructive graph check: the first enumerated
    triple on which the candidate graph and the model disagree.
    """

    representable: bool
    witness: UndirectedGraph | Dag | None
    first_discrepancy: Triple | None


@dataclass(frozen=True)
class AxiomViolation:
    """One failed schema instance: premises held but the conclusion did not."""

    axiom: str
    premises: tuple[Triple, ...]
    conclusion: Triple


def dependent_always(model: IndependencyModel, alpha: int, beta: int) -> bool:
    """True iff no conditioning set renders the two singletons independent.

    Both orientations are consulted, since stored models need not be
    symmetric.
    """
    if alpha == beta:
        raise ValueError("the two nodes must be distinct")
    model.universe.check_mask((1 << alpha) | (1 << beta))
    am, bm = 1 << alpha, 1 << beta
    for t in model.triples:
        if (t.a == am and t.b == bm) or (t.a == bm and t.b == am):
            return False
    return True


def _skeleton_edges(model: IndependencyModel) -> list[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i < j``, for which ``dependent_always`` holds.

    One pass over the model's triples instead of one per pair. A triple
    whose two disjoint, nonempty sets together form a pair has a singleton on
    each side, so it separates that pair.
    """
    separable = {t.a | t.b for t in model.triples if t.a and t.b}
    n = model.universe.n
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (1 << i) | (1 << j) not in separable
    ]


def is_graph_isomorph(model: IndependencyModel) -> RepresentabilityResult:
    """Decide whether some undirected graph's separation model equals ``model``.

    Constructive: the only possible witness joins exactly the pairs that are
    dependent under every conditioning set, so build that graph and compare
    its separation model with the input. On a mismatch, the first enumerated
    triple on which the two disagree is reported.
    """
    candidate = UndirectedGraph(model.universe, frozenset(_skeleton_edges(model)))
    differ = candidate.separation_model().triples ^ model.triples
    if not differ:
        return RepresentabilityResult(True, candidate, None)
    first = next(t for t in enumerate_disjoint_triples(model.universe) if t in differ)
    return RepresentabilityResult(False, None, first)


def _dag_induces(dag: Dag, model: IndependencyModel) -> bool:
    """True iff ``dag``'s d-separation model is ``model``.

    Stops at the first separated triple ``model`` lacks; with none missing,
    the two are equal exactly when they have as many triples.
    """
    triples = model.triples
    count = 0
    for t in separated_triples(model.universe, dag._active_reach):
        if t not in triples:
            return False
        count += 1
    return count == len(triples)


def scan_causal_witness(model: IndependencyModel) -> tuple[Dag | None, int]:
    """Find the first DAG in enumeration order whose d-separation model is ``model``.

    Returns the witness (or ``None``) together with its 1-based position in
    ``enumerate_dags`` order; with no witness the count is the number of all
    DAGs on the universe, every one of which is ruled out.

    Only the orientations of one skeleton are compared: a DAG's model leaves
    two nodes dependent under every conditioning set exactly when they are
    adjacent, so every DAG inducing ``model`` joins exactly the pairs that
    ``dependent_always`` reports. The orientations are tried in ascending
    arc-mask order, which is enumeration order, so the first match is the
    first witness of a scan over all DAGs. A bisect into the per-``n`` table
    of acyclic arc masks skips the cyclic orientations and gives the
    position.
    """
    u = model.universe
    n = u.n
    if n > MAX_DAG_ENUM_NODES:
        raise ValueError(
            f"causal check needs DAG enumeration, gated at {MAX_DAG_ENUM_NODES} nodes"
        )
    table = acyclic_arc_masks(n)
    orientations = [0]
    for i, j in _skeleton_edges(model):
        forward, backward = 1 << arc_bit(n, i, j), 1 << arc_bit(n, j, i)
        orientations = [m | arc for m in orientations for arc in (forward, backward)]
    for mask in sorted(orientations):
        pos = bisect_left(table, mask)
        if pos < len(table) and table[pos] == mask:
            dag = dag_of_mask(u, mask)
            if _dag_induces(dag, model):
                return dag, pos + 1
    return None, len(table)


def is_causal(model: IndependencyModel) -> RepresentabilityResult:
    """Decide whether some DAG's d-separation model equals ``model``.

    The witness is the first one in DAG enumeration order (see
    ``scan_causal_witness``), so it is deterministic but only unique up to
    equivalence of induced models.
    """
    witness, _ = scan_causal_witness(model)
    return RepresentabilityResult(witness is not None, witness, None)


def check_semigraphoid(model: IndependencyModel) -> list[AxiomViolation]:
    """All violated instances of the four closure schemata.

    Instances are generated from the model's own triples (an instance whose
    premises are absent can never be violated), in a deterministic order.
    Conclusions are looked up by packed key (``core.packed_keys``), built
    once per call; a ``Triple`` is built only for a conclusion reported
    missing.
    """
    n = model.universe.n
    keys = packed_keys(model)
    ordered = sorted(model.triples, key=lambda t: (t.a, t.c, t.b))
    violations: list[AxiomViolation] = []

    for t in ordered:
        if t.b | t.c << n | t.a << 2 * n not in keys:
            violations.append(AxiomViolation("symmetry", (t,), t.reverse()))

    for t in ordered:
        a, c, b = t.a, t.c, t.b
        first_two = a | c << n
        # Split the second set into a kept part and a dropped part.
        for sub in submasks(b):
            last = sub << 2 * n
            if first_two | last not in keys:
                violations.append(AxiomViolation("decomposition", (t,), Triple(a, c, sub)))
            moved = c | (b & ~sub)
            if a | moved << n | last not in keys:
                violations.append(AxiomViolation("weak_union", (t,), Triple(a, moved, sub)))

    by_first_two: dict[int, list[Triple]] = {}
    for t in ordered:
        by_first_two.setdefault(t.a | t.c << n, []).append(t)
    for t in ordered:
        # t supplies the second premise (a, c, b); look for (a, c|b, d).
        for other in by_first_two.get(t.a | (t.c | t.b) << n, ()):
            merged = t.b | other.b
            if t.a | t.c << n | merged << 2 * n not in keys:
                violations.append(
                    AxiomViolation("contraction", (other, t), Triple(t.a, t.c, merged))
                )
    return violations
