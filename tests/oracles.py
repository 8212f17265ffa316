"""Independent reference implementations and input generators for the tests.

Everything here deliberately avoids the library's algorithms: counting uses a
closed recurrence, connectivity questions enumerate simple paths, closures
iterate the raw arc relation, and formulas are decided by trying every
assignment of sets to their variables. Slow but obviously right.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb

from cimodels.core import IndependencyModel, Triple, Universe, enumerate_disjoint_triples
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


def semigraphoid_violations_by_placements(model) -> set[tuple[str, Triple]]:
    """Violated schema instances found by looping every placement of four
    disjoint sets, as (schema name, missing conclusion) pairs.
    """
    n = model.universe.n
    triples = model.triples
    found: set[tuple[str, Triple]] = set()
    for t in triples:
        if t.reverse() not in triples:
            found.add(("symmetry", t.reverse()))
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


def acyclic_arc_masks_bruteforce(n: int) -> list[int]:
    """All DAG arc bitmasks in ascending order, by testing every mask."""
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    result = []
    for mask in range(1 << len(pairs)):
        arcs = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        children: dict[int, set[int]] = {i: set() for i in range(n)}
        for u, v in arcs:
            children[u].add(v)
        remaining = set(range(n))
        while remaining:
            sinks = {i for i in remaining if not children[i] & remaining}
            if not sinks:
                break
            remaining -= sinks
        if not remaining:
            result.append(mask)
    return result


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


def universe_of_size(n: int) -> Universe:
    return Universe(tuple(str(i) for i in range(n)))


def random_model(
    rng: random.Random, universe: Universe, p: float = 0.3, symmetric: bool = False
) -> IndependencyModel:
    triples = {t for t in enumerate_disjoint_triples(universe) if rng.random() < p}
    if symmetric:
        triples |= {t.reverse() for t in triples}
    return IndependencyModel(universe, frozenset(triples))


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
