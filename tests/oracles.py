"""Independent reference implementations and input generators for the tests.

Everything here deliberately avoids the library's algorithms: counting uses a
closed recurrence, connectivity questions enumerate simple paths, closures
iterate the raw arc relation, and formulas are decided by trying every
assignment of sets to their variables. Slow but obviously right.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations, permutations, product
from math import comb

from cimodels.core import (
    IndependencyModel,
    Triple,
    Universe,
    enumerate_disjoint_triples,
    separated_keys,
)
from cimodels.dag import Dag, acyclic_arc_masks
from cimodels.logic import (
    EMPTY,
    And,
    Atom,
    Clause,
    Complement,
    Empty,
    Intersection,
    Not,
    Or,
    Term,
    Union_,
    Var,
)
from cimodels.represent import AxiomViolation
from cimodels.ugraph import UndirectedGraph


def swapped(t: Triple) -> Triple:
    """The same statement with the two related sets swapped."""
    return Triple(t.b, t.c, t.a)


def dag_count(n: int) -> int:
    """Labeled DAG count via the inclusion-exclusion recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            term = comb(m, k) * (1 << (k * (m - k))) * counts[m - k]
            total += term if k % 2 == 1 else -term
        counts.append(total)
    return counts[n]


def simple_paths(adjacency: dict[int, set[int]], src: int, dst: int) -> list[list[int]]:
    """All simple paths from src to dst in an undirected adjacency dict."""
    paths: list[list[int]] = []

    def extend(path: list[int]) -> None:
        last = path[-1]
        if last == dst:
            paths.append(list(path))
            return
        for nxt in sorted(adjacency[last]):
            if nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    extend([src])
    return paths


def graph_adjacency(graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(graph.universe.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_chordal(graph) -> bool:
    """Whether every cycle of four or more nodes in ``graph`` has a chord.

    Deletes simplicial nodes (whose remaining neighbours are pairwise
    adjacent) one at a time: a graph is chordal exactly when this deletes
    every node (Fulkerson & Gross 1965).
    """
    adj = graph_adjacency(graph)
    remaining = set(adj)
    while remaining:
        simplicial = [
            v
            for v in remaining
            if all(y in adj[x] for x, y in combinations(adj[v] & remaining, 2))
        ]
        if not simplicial:
            return False
        remaining.remove(simplicial[0])
    return True


def has_v_structure(dag) -> bool:
    """Whether ``dag`` has arcs ``x -> z <- y`` with ``x`` and ``y`` non-adjacent."""
    arcs = set(dag.arcs)
    parents = {z: [u for u, v in arcs if v == z] for z in range(dag.universe.n)}
    return any(
        (x, y) not in arcs and (y, x) not in arcs
        for z in parents
        for x, y in combinations(parents[z], 2)
    )


def weak_transitivity_holds(model) -> bool:
    """Whether ``model`` keeps singleton weak transitivity (Pearl 1988, ch. 3):
    for distinct labels ``x``, ``y``, ``w`` and a set ``c`` holding none of
    them, ``(x, c, y)`` and ``(x, c + w, y)`` bring ``(x, c, w)`` or
    ``(w, c, y)``. Reads the model's triples as plain ``(a, c, b)`` tuples."""
    held = {(t.a, t.c, t.b) for t in model.triples}
    n = model.universe.n
    for x, y, w in permutations(range(n), 3):
        sx, sy, sw = 1 << x, 1 << y, 1 << w
        for c in range(1 << n):
            if c & (sx | sy | sw) or (sx, c, sy) not in held or (sx, c | sw, sy) not in held:
                continue
            if (sx, c, sw) not in held and (sw, c, sy) not in held:
                return False
    return True


def reachable_by_search(adjacency: dict[int, set[int]], start: int, removed: int) -> int:
    """Nodes reached from ``start`` by a set-based search that skips ``removed``.

    Removed start nodes are not reached; the answer is a mask, like the closure's.
    """
    gone = {i for i in adjacency if (removed >> i) & 1}
    reached = {i for i in adjacency if (start >> i) & 1} - gone
    stack = list(reached)
    while stack:
        for nxt in adjacency[stack.pop()] - gone - reached:
            reached.add(nxt)
            stack.append(nxt)
    return sum(1 << i for i in reached)


def separates_by_paths(graph, a: int, c: int, b: int) -> bool:
    """Path-enumeration separation: every path from a to b must meet c."""
    if a == 0 or b == 0:
        return True
    adj = graph_adjacency(graph)
    a_nodes = [i for i in range(graph.universe.n) if (a >> i) & 1]
    b_nodes = [i for i in range(graph.universe.n) if (b >> i) & 1]
    for x in a_nodes:
        for y in b_nodes:
            for path in simple_paths(adj, x, y):
                if not any((c >> w) & 1 for w in path):
                    return False
    return True


def descendants_by_relation(dag, w: int) -> int:
    """Strict descendants by iterating the arc relation to a fixed point."""
    n = dag.universe.n
    reach = {w}
    changed = True
    while changed:
        changed = False
        for u, v in dag.arcs:
            if u in reach and v not in reach:
                reach.add(v)
                changed = True
    reach.discard(w)
    mask = 0
    for v in reach:
        mask |= 1 << v
    return mask


def d_separates_by_paths(dag, a: int, c: int, b: int) -> bool:
    """Blocking check applied literally to every skeleton path."""
    if a == 0 or b == 0:
        return True
    n = dag.universe.n
    arcs = set(dag.arcs)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in arcs:
        adj[u].add(v)
        adj[v].add(u)
    desc = {w: descendants_by_relation(dag, w) for w in range(n)}
    a_nodes = [i for i in range(n) if (a >> i) & 1]
    b_nodes = [i for i in range(n) if (b >> i) & 1]
    for x in a_nodes:
        for y in b_nodes:
            for path in simple_paths(adj, x, y):
                blocked = False
                for idx in range(1, len(path) - 1):
                    prev, w, nxt = path[idx - 1], path[idx], path[idx + 1]
                    converging = (prev, w) in arcs and (nxt, w) in arcs
                    if converging:
                        in_c = ((c >> w) & 1) or (desc[w] & c)
                        if not in_c:
                            blocked = True
                            break
                    elif (c >> w) & 1:
                        blocked = True
                        break
                if not blocked:
                    return False
    return True


def marginal_edges_by_paths(graph, v_mask: int) -> set[tuple[int, int]]:
    """Edges of the collapsed graph, straight from the defining condition:
    a kept pair is joined iff some simple path connects it with every
    internal node outside the kept set. Returned in original node indices.
    """
    adj = graph_adjacency(graph)
    n = graph.universe.n
    kept = [i for i in range(n) if (v_mask >> i) & 1]
    edges = set()
    for idx, alpha in enumerate(kept):
        for beta in kept[idx + 1 :]:
            for path in simple_paths(adj, alpha, beta):
                if all(not (v_mask >> w) & 1 for w in path[1:-1]):
                    edges.add((alpha, beta))
                    break
    return edges


# The four closure schemata checked by check_semigraphoid, as formula text
# for the independency logic. Literature-standard forms; check_semigraphoid
# hard-codes the same instantiations, and the tests cross-validate the two
# against each other.
SEMIGRAPHOID_AXIOM_FORMULAS: dict[str, str] = {
    "symmetry": "I(X1, X2, X3) -> I(X3, X2, X1)",
    "decomposition": "I(X1, X2, X3 + X4) -> I(X1, X2, X3)",
    "weak_union": "I(X1, X2, X3 + X4) -> I(X1, X2 + X4, X3)",
    "contraction": "I(X1, X2 + X3, X4) & I(X1, X2, X3) -> I(X1, X2, X3 + X4)",
}


def semigraphoid_violations_by_placements(model) -> set[tuple[str, Triple]]:
    """Violated schema instances found by looping every placement of four
    disjoint sets, as (schema name, missing conclusion) pairs.
    """
    n = model.universe.n
    triples = model.triples
    found: set[tuple[str, Triple]] = set()
    for t in triples:
        if swapped(t) not in triples:
            found.add(("symmetry", swapped(t)))
    for code in range(5**n):
        a = c = b = d = 0
        rest = code
        for i in range(n):
            digit = rest % 5
            rest //= 5
            if digit == 1:
                a |= 1 << i
            elif digit == 2:
                c |= 1 << i
            elif digit == 3:
                b |= 1 << i
            elif digit == 4:
                d |= 1 << i
        if Triple(a, c, b | d) in triples:
            if Triple(a, c, b) not in triples:
                found.add(("decomposition", Triple(a, c, b)))
            if Triple(a, c | d, b) not in triples:
                found.add(("weak_union", Triple(a, c | d, b)))
        if Triple(a, c | b, d) in triples and Triple(a, c, b) in triples:
            if Triple(a, c, b | d) not in triples:
                found.add(("contraction", Triple(a, c, b | d)))
    return found


def semigraphoid_closure(model, schemata) -> IndependencyModel:
    """The least model holding ``model`` that violates no instance of the
    named schemata: the missing conclusions that
    ``semigraphoid_violations_by_placements`` reports for them are added
    until a pass reports none.
    """
    triples = set(model.triples)
    while True:
        closure = IndependencyModel(model.universe, frozenset(triples))
        found = semigraphoid_violations_by_placements(closure)
        missing = {t for schema, t in found if schema in schemata}
        if not missing:
            return closure
        triples |= missing


def check_semigraphoid_reference(model) -> list[AxiomViolation]:
    """The Triple-based semi-graphoid check, in the library's exact order.

    Every conclusion is built as a ``Triple`` and looked up in the model's
    triple set; the split of the second set walks its subsets from the whole
    set down to the empty one. The library tests packed ints instead, and
    must return the identical list: same axioms, premises, conclusions and
    order.
    """
    triples = model.triples
    ordered = sorted(triples, key=lambda t: (t.a, t.c, t.b))
    violations: list[AxiomViolation] = []

    for t in ordered:
        if swapped(t) not in triples:
            violations.append(AxiomViolation("symmetry", (t,), swapped(t)))

    for t in ordered:
        sub = t.b
        while True:
            kept = Triple(t.a, t.c, sub)
            if kept not in triples:
                violations.append(AxiomViolation("decomposition", (t,), kept))
            moved = Triple(t.a, t.c | (t.b & ~sub), sub)
            if moved not in triples:
                violations.append(AxiomViolation("weak_union", (t,), moved))
            if not sub:
                break
            sub = (sub - 1) & t.b

    by_first_two: dict[tuple[int, int], list[Triple]] = {}
    for t in ordered:
        by_first_two.setdefault((t.a, t.c), []).append(t)
    for t in ordered:
        for other in by_first_two.get((t.a, t.c | t.b), ()):
            merged = Triple(t.a, t.c, t.b | other.b)
            if merged not in triples:
                violations.append(AxiomViolation("contraction", (other, t), merged))
    return violations


def dependent_always_by_triples(model, alpha: int, beta: int) -> bool:
    """True iff no triple of the model relates the two singletons, in either
    orientation: one pass over the decoded ``Triple`` values."""
    pair = {1 << alpha, 1 << beta}
    return not any({t.a, t.b} == pair for t in model.triples)


def scan_causal_witness_reference(model) -> tuple[Dag | None, int]:
    """``(witness, count)`` as ``represent.scan_causal_witness`` defines them,
    by comparing every acyclic orientation of the model's skeleton with the
    model, in ascending arc-mask order: ``acyclic_orientations_by_product``
    builds all ``2^|E|`` orientations and places them in ``acyclic_arc_masks``.

    The skeleton joins the pairs of singletons that no triple of the model
    relates, in either orientation. A DAG matches when the keys its
    ``dsep_model`` is built from are exactly the model's; the stream of them
    is dropped at the first key the model lacks. With no witness the count
    is ``dag_count(n)``.
    """
    n, keys, full = model.universe.n, model.keys, model.universe.full_mask
    related = {(key >> 2 * n, key & full) for key in keys}  # the (a, b) of each triple
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if (1 << i, 1 << j) not in related and (1 << j, 1 << i) not in related
    ]
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    for pos, mask in acyclic_orientations_by_product(n, edges, acyclic_arc_masks(n)):
        dag = Dag(model.universe, frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1))
        held = 0
        for key in separated_keys(model.universe, dag._active_reach):
            if key not in keys:
                break
            held += 1
        else:
            if held == len(keys):
                return dag, pos
    return None, dag_count(n)


def all_triples(n: int) -> list[Triple]:
    """Every disjoint triple on ``n`` labels, by placing each label in one
    of the three sets or in none."""
    triples = []
    for places in product(range(4), repeat=n):
        sets = [0, 0, 0, 0]
        for i, place in enumerate(places):
            sets[place] |= 1 << i
        triples.append(Triple(sets[1], sets[2], sets[3]))
    return triples


class ReferenceModel:
    """A model kept as a plain set of ``Triple`` values, every query answered
    on that set: the representation the library's packed keys replace."""

    def __init__(self, universe: Universe, triples) -> None:
        self.universe = universe
        self.triples = frozenset(triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def is_symmetric(self) -> bool:
        return all(swapped(t) in self.triples for t in self.triples)

    def restrict(self, v_mask: int) -> "ReferenceModel":
        kept = [i for i in range(self.universe.n) if (v_mask >> i) & 1]

        def compact(mask: int) -> int:
            return sum(1 << j for j, i in enumerate(kept) if (mask >> i) & 1)

        return ReferenceModel(
            Universe(tuple(self.universe.names[i] for i in kept)),
            (
                Triple(compact(t.a), compact(t.c), compact(t.b))
                for t in self.triples
                if not (t.a | t.c | t.b) & ~v_mask
            ),
        )


def acyclic_arc_masks_bruteforce(n: int) -> list[int]:
    """All DAG arc bitmasks in ascending order, by testing every mask."""
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    result = []
    for mask in range(1 << len(pairs)):
        arcs = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        if not nodes_left_by_peeling(n, arcs):
            result.append(mask)
    return result


def acyclic_orientations_by_product(n: int, edges, table) -> list[tuple[int, int]]:
    """``(1-based position in table, arc mask)`` of each acyclic orientation of
    ``edges``, ascending: all ``2^|E|`` orientations are built, and a bisect
    into ``table``, the ascending arc masks of all DAGs, drops the cyclic ones."""
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    orientations = [0]
    for i, j in edges:
        forward, backward = 1 << pairs.index((i, j)), 1 << pairs.index((j, i))
        orientations = [m | arc for m in orientations for arc in (forward, backward)]
    found = []
    for mask in sorted(orientations):
        pos = bisect_left(table, mask)
        if pos < len(table) and table[pos] == mask:
            found.append((pos + 1, mask))
    return found


def nodes_left_by_peeling(n: int, arcs) -> set[int]:
    """The nodes left after removing sinks until none remain: empty exactly
    when the arcs are acyclic, else the nodes on or leading to a cycle."""
    children: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in arcs:
        children[u].add(v)
    remaining = set(range(n))
    while remaining:
        sinks = {i for i in remaining if not children[i] & remaining}
        if not sinks:
            break
        remaining -= sinks
    return remaining


def separated_keys_reference(universe: Universe, reach) -> list[int]:
    """The kernel's keys in its order, calling ``reach`` once per ``(a, c)``
    pair with ``a`` nonempty: ``a`` ascending with the empty ``a`` last, then
    ``c`` and ``b`` over descending subsets."""
    n, full = universe.n, universe.full_mask

    def descending_subsets(mask: int) -> list[int]:
        return [s for s in range(mask, -1, -1) if not s & ~mask]

    keys = []
    for a in [*range(1, full + 1), 0]:
        rest = full & ~a
        for c in descending_subsets(rest):
            free = rest & ~c
            if a:
                free &= ~reach(a, c)
            keys += [a << 2 * n | c << n | b for b in descending_subsets(free)]
    return keys


def entails_by_paths(family: str, given, query: Triple, universe: Universe) -> bool:
    """Entailment in the ``causal`` or ``graph-isomorph`` family: try every
    DAG or graph on the universe, deciding each triple by path enumeration."""
    n = universe.n
    if family == "causal":
        pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
        masks = acyclic_arc_masks_bruteforce(n)
        build, decide = Dag, d_separates_by_paths
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        masks = range(1 << len(pairs))
        build, decide = UndirectedGraph, separates_by_paths
    for mask in masks:
        member = build(universe, frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1))
        if all(decide(member, t.a, t.c, t.b) for t in given) and not decide(
            member, query.a, query.c, query.b
        ):
            return False
    return True


def _term_value(term: Term, assignment: dict[str, int], full: int) -> int:
    if isinstance(term, Var):
        return assignment[term.name]
    if isinstance(term, Empty):
        return 0
    if isinstance(term, Complement):
        return full & ~_term_value(term.operand, assignment, full)
    left = _term_value(term.left, assignment, full)
    right = _term_value(term.right, assignment, full)
    return left | right if isinstance(term, Union_) else left & right


def _term_names(term: Term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Empty):
        return set()
    if isinstance(term, Complement):
        return _term_names(term.operand)
    return _term_names(term.left) | _term_names(term.right)


def _formula_atoms(formula) -> list[Atom]:
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, Not):
        return _formula_atoms(formula.operand)
    return _formula_atoms(formula.left) + _formula_atoms(formula.right)


def _formula_truth(formula, truth: dict[Atom, bool]) -> bool:
    if isinstance(formula, Atom):
        return truth[formula]
    if isinstance(formula, Not):
        return not _formula_truth(formula.operand, truth)
    if isinstance(formula, And):
        return _formula_truth(formula.left, truth) and _formula_truth(formula.right, truth)
    return _formula_truth(formula.left, truth) or _formula_truth(formula.right, truth)


def _valid_atom_truths(model: IndependencyModel, atoms: list[Atom]):
    """For every valuation of the atoms' variables, in turn, with every atom's
    three term values pairwise disjoint: which atoms' triples are in the model.
    Tries all ``(2**n)**vars`` assignments and skips the invalid ones.
    """
    atoms = list(dict.fromkeys(atoms))
    names = sorted(set().union(*(_term_names(t) for a in atoms for t in (a.t1, a.t2, a.t3))))
    full = model.universe.full_mask
    for masks in product(range(full + 1), repeat=len(names)):
        assignment = dict(zip(names, masks))
        truth = {}
        for atom in atoms:
            s1, s2, s3 = (_term_value(t, assignment, full) for t in (atom.t1, atom.t2, atom.t3))
            if s1 & s2 or s1 & s3 or s2 & s3:
                break
            truth[atom] = Triple(s1, s2, s3) in model.triples
        else:
            yield truth


def model_satisfies_bruteforce(model: IndependencyModel, formula) -> bool:
    """Every valid valuation satisfies the formula; vacuously true without one."""
    return all(
        _formula_truth(formula, truth)
        for truth in _valid_atom_truths(model, _formula_atoms(formula))
    )


def check_clause_bruteforce(model: IndependencyModel, clause: Clause) -> bool:
    """Rule reading, read off directly: under every valid valuation where all
    negated atoms hold, some positive atom holds."""
    return all(
        not all(truth[a] for a in clause.negatives) or any(truth[a] for a in clause.positives)
        for truth in _valid_atom_truths(model, [*clause.negatives, *clause.positives])
    )


def read_model_text(text: str) -> frozenset[int] | int:
    """A model file read from its written rules, one line at a time: the keys
    ``a * 4**n + c * 2**n + b`` of its triples, or the number of its first bad
    triple line. The ``vars:`` header must be valid.

    Lines are ``str.splitlines`` lines stripped of white space; blank ones and
    ones starting with ``#`` are skipped, and the first line left is the
    header. Every later line is ``I `` and three sets between two bars; a set
    is ``-``, nothing, or labels joined by commas, all with white space
    allowed around them. The sets must be pairwise disjoint, and no triple may
    come twice.
    """
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1)]
    lines = [(i, line) for i, line in lines if line and not line.startswith("#")]
    names = lines[0][1][len("vars:"):].split()
    n, seen = len(names), set()
    for number, line in lines[1:]:
        if line[:2] != "I ":
            return number
        sets = []
        for part in line[2:].split("|"):
            labels = [] if part.strip() in ("", "-") else part.split(",")
            if any(label.strip() not in names for label in labels):
                return number
            sets.append(sum({2 ** names.index(label.strip()) for label in labels}))
        if len(sets) != 3 or sum(sets) != sets[0] | sets[1] | sets[2]:
            return number
        key = sets[0] * 4**n + sets[1] * 2**n + sets[2]
        if key in seen:
            return number
        seen.add(key)
    return frozenset(seen)


def universe_of_size(n: int) -> Universe:
    return Universe(tuple(str(i) for i in range(n)))


def random_model(
    rng: random.Random, universe: Universe, p: float = 0.3, symmetric: bool = False
) -> IndependencyModel:
    triples = {t for t in enumerate_disjoint_triples(universe) if rng.random() < p}
    if symmetric:
        triples |= {swapped(t) for t in triples}
    return IndependencyModel(universe, frozenset(triples))


def random_dag(rng: random.Random, n: int, p: float = 0.4) -> Dag:
    """Each pair of a shuffled node order gets its forward arc with chance ``p``."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[j]) for i, j in combinations(range(n), 2) if rng.random() < p}
    return Dag(universe_of_size(n), frozenset(arcs))


def random_term(
    rng: random.Random, names: list[str], depth: int, complement_free: bool = False
) -> Term:
    if depth <= 0 or rng.random() < 0.5:
        return EMPTY if not names or rng.random() < 0.15 else Var(rng.choice(names))
    kind = rng.randrange(2 if complement_free else 3)
    if not complement_free and kind == 2:
        return Complement(random_term(rng, names, depth - 1))
    left = random_term(rng, names, depth - 1, complement_free)
    right = random_term(rng, names, depth - 1, complement_free)
    return Union_(left, right) if kind == 1 else Intersection(left, right)


def random_atom(
    rng: random.Random, names: list[str], depth: int = 2, complement_free: bool = False
) -> Atom:
    return Atom(
        random_term(rng, names, depth, complement_free),
        random_term(rng, names, depth, complement_free),
        random_term(rng, names, depth, complement_free),
    )


def random_formula(
    rng: random.Random, names: list[str], depth: int, complement_free: bool = False
):
    if depth <= 0 or rng.random() < 0.35:
        return random_atom(rng, names, depth=2, complement_free=complement_free)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1, complement_free))
    left = random_formula(rng, names, depth - 1, complement_free)
    right = random_formula(rng, names, depth - 1, complement_free)
    return And(left, right) if kind == 1 else Or(left, right)


def random_clause(
    rng: random.Random, names: list[str], max_negatives: int = 2, max_positives: int = 2
) -> Clause:
    k = rng.randrange(max_negatives + 1)
    l = rng.randrange(max_positives + 1)
    if k == 0 and l == 0:
        l = 1
    return Clause(
        tuple(random_atom(rng, names, depth=1) for _ in range(k)),
        tuple(random_atom(rng, names, depth=1) for _ in range(l)),
    )
