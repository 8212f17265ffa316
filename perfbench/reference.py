"""The benchmark's own input generators and reference computations.

Everything here is written without importing cimodels, so a change to the
library can neither change the inputs it is measured on nor the answers it is
checked against. d-separation is decided by plain separation in the
moralised ancestral graph, not by the library's active-trail search that
builds its models; graph separation by a plain search from the first set.

Sets are int bitmasks over label positions, as in the library's text
formats; a triple is ``(a, c, b)`` with ``c`` the conditioning set.
"""

from __future__ import annotations

import random

# Formula syntax as the library documents it (see its logic module): the
# four semi-graphoid schemata, copied as text so the library cannot edit them.
AXIOM_FORMULAS = {
    "symmetry": "I(X1, X2, X3) -> I(X3, X2, X1)",
    "decomposition": "I(X1, X2, X3 + X4) -> I(X1, X2, X3)",
    "weak_union": "I(X1, X2, X3 + X4) -> I(X1, X2 + X4, X3)",
    "contraction": "I(X1, X2 + X3, X4) & I(X1, X2, X3) -> I(X1, X2, X3 + X4)",
}


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def disjoint_triples(n: int) -> list[tuple[int, int, int]]:
    """All ``4**n`` ordered triples of pairwise-disjoint subsets of ``n`` labels."""
    out = [(0, 0, 0)]
    for i in range(n):
        bit = 1 << i
        out = [
            t
            for a, c, b in out
            for t in ((a, c, b), (a | bit, c, b), (a, c | bit, b), (a, c, b | bit))
        ]
    return out


def _reach(neighbours: list[int], start: int, removed: int) -> int:
    seen = start & ~removed
    todo = bits(seen)
    while todo:
        i = todo.pop()
        new = neighbours[i] & ~seen & ~removed
        seen |= new
        todo.extend(bits(new))
    return seen


def separation_triples(n: int, edges) -> frozenset:
    """Triples ``(a, c, b)`` such that removing ``c`` cuts every a-b path."""
    neighbours = [0] * n
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return frozenset(
        (a, c, b)
        for a, c, b in disjoint_triples(n)
        if not a or not b or not _reach(neighbours, a, c) & b
    )


class DSeparation:
    """d-separation in one DAG, decided in the moral graph of the ancestral set."""

    def __init__(self, n: int, arcs) -> None:
        self.n = n
        self.parents = [0] * n
        for u, v in arcs:
            self.parents[v] |= 1 << u
        self._moral: dict[int, list[int]] = {}

    def _ancestral(self, mask: int) -> int:
        while True:
            grown = mask
            for v in bits(mask):
                grown |= self.parents[v]
            if grown == mask:
                return mask
            mask = grown

    def _moral_graph(self, anc: int) -> list[int]:
        graph = self._moral.get(anc)
        if graph is None:
            graph = [0] * self.n
            for v in bits(anc):
                ps = self.parents[v]
                for p in bits(ps):
                    graph[p] |= (1 << v) | (ps & ~(1 << p))
                    graph[v] |= 1 << p
            self._moral[anc] = graph
        return graph

    def separated(self, a: int, c: int, b: int) -> bool:
        if not a or not b:
            return True
        graph = self._moral_graph(self._ancestral(a | c | b))
        return not _reach(graph, a, c) & b


def dsep_triples(n: int, arcs, keep: int | None = None) -> frozenset:
    """The d-separation model of a DAG, restricted to the labels in ``keep``.

    Triples are re-indexed against the kept labels in increasing order, the
    way a restricted model file lists them.
    """
    dsep = DSeparation(n, arcs)
    kept = bits((1 << n) - 1 if keep is None else keep)

    def expand(mask: int) -> int:
        return sum(1 << kept[j] for j in bits(mask))

    return frozenset(
        (a, c, b)
        for a, c, b in disjoint_triples(len(kept))
        if dsep.separated(expand(a), expand(c), expand(b))
    )


def graph_separated(n: int, edges, a: int, c: int, b: int) -> bool:
    neighbours = [0] * n
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return not a or not b or not _reach(neighbours, a, c) & b


def all_dags(n: int) -> list[list[tuple[int, int]]]:
    """Arc lists of every labeled DAG on ``n`` nodes, by testing every arc set."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        arcs = [pairs[k] for k in bits(mask)]
        children = [0] * n
        for u, v in arcs:
            children[u] |= 1 << v
        left = (1 << n) - 1
        while left:
            sinks = [i for i in bits(left) if not children[i] & left]
            if not sinks:
                break
            for i in sinks:
                left &= ~(1 << i)
        if not left:
            out.append(arcs)
    return out


def random_query(rng: random.Random, n: int) -> tuple[int, int, int]:
    """A disjoint triple with both related sets nonempty."""
    while True:
        a = c = b = 0
        for i in range(n):
            slot = rng.randrange(4)
            a |= (slot == 1) << i
            c |= (slot == 2) << i
            b |= (slot == 3) << i
        if a and b:
            return a, c, b


# Text in the library's documented file formats.


def _set_text(names, mask: int) -> str:
    return ",".join(names[i] for i in bits(mask)) or "-"


def model_text(names, triples) -> str:
    lines = [f"vars: {' '.join(names)}"]
    lines += [
        f"I {_set_text(names, a)} | {_set_text(names, c)} | {_set_text(names, b)}"
        for a, c, b in sorted(triples)
    ]
    return "\n".join(lines) + "\n"


def dag_text(names, arcs) -> str:
    return "\n".join([f"vars: {' '.join(names)}"] + [f"{names[u]} -> {names[v]}" for u, v in arcs]) + "\n"


# Random structures. Arc and edge lists come out in a seeded order.


def random_names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct label names, for text that keeps its labels' order."""
    return [f"x{j}" for j in rng.sample(range(100), n)]


def permutation(rng: random.Random, n: int) -> list[int]:
    """A random relabeling: label ``i`` becomes label ``perm[i]``."""
    return rng.sample(range(n), n)


def relabel_mask(mask: int, perm) -> int:
    return sum(1 << perm[i] for i in bits(mask))


def relabel_triples(triples, perm) -> frozenset:
    return frozenset(tuple(relabel_mask(m, perm) for m in t) for t in triples)


def relabel_pairs(pairs, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in pairs]


def random_dag(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    rng.shuffle(arcs)
    return arcs


def random_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return edges


def random_triples(rng: random.Random, n: int, p: float, symmetric: bool) -> frozenset:
    chosen = {t for t in disjoint_triples(n) if rng.random() < p}
    if symmetric:
        chosen |= {(b, c, a) for a, c, b in chosen}
    return frozenset(chosen)


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


# Formulas as nested tuples. Terms: ("var", name), ("empty",), ("~", t),
# ("+", t, u), ("*", t, u). Formulas: ("I", t1, t2, t3), ("!", f),
# ("&", f, g), ("|", f, g), ("->", f, g).


def random_term(rng: random.Random, names, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return ("empty",) if rng.random() < 0.08 else ("var", rng.choice(names))
    if roll < 0.7:
        return ("~", random_term(rng, names, depth - 1))
    op = "+" if roll < 0.87 else "*"
    return (op, random_term(rng, names, depth - 1), random_term(rng, names, depth - 1))


def random_atom(rng: random.Random, names, depth: int = 1):
    return ("I",) + tuple(random_term(rng, names, depth) for _ in range(3))


def random_formula(rng: random.Random, names, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return random_atom(rng, names)
    if roll < 0.4:
        return ("!", random_formula(rng, names, depth - 1))
    op = "&" if roll < 0.6 else "|" if roll < 0.8 else "->"
    return (op, random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


def random_clause(rng: random.Random, names):
    """A rule ``negatives -> positives``; at least one literal in all."""
    negatives = [random_atom(rng, names) for _ in range(rng.randrange(3))]
    positives = [random_atom(rng, names) for _ in range(rng.randrange(0 if negatives else 1, 3))]
    return negatives, positives


def term_text(term) -> str:
    kind = term[0]
    if kind == "var":
        return term[1]
    if kind == "empty":
        return "empty"
    if kind == "~":
        return "~" + term_text(term[1])
    return f"({term_text(term[1])} {kind} {term_text(term[2])})"


def formula_text(formula) -> str:
    kind = formula[0]
    if kind == "I":
        return f"I({', '.join(term_text(t) for t in formula[1:])})"
    if kind == "!":
        return "!" + formula_text(formula[1])
    return f"({formula_text(formula[1])} {kind} {formula_text(formula[2])})"


def clause_text(negatives, positives) -> str:
    """Clause text of the shape the library's ``parse_clause`` accepts."""
    pos = " | ".join(formula_text(a) for a in positives)
    if not negatives:
        return pos
    neg = " & ".join(formula_text(a) for a in negatives)
    return f"{neg} -> {pos}" if positives else " | ".join("!" + formula_text(a) for a in negatives)


def variables(node) -> set:
    if node[0] == "var":
        return {node[1]}
    return set().union(*(variables(x) for x in node[1:] if isinstance(x, tuple)))


def _term_value(term, env, full: int) -> int:
    kind = term[0]
    if kind == "var":
        return env[term[1]]
    if kind == "empty":
        return 0
    if kind == "~":
        return full & ~_term_value(term[1], env, full)
    left, right = _term_value(term[1], env, full), _term_value(term[2], env, full)
    return left | right if kind == "+" else left & right


def _atoms(node, out: list) -> list:
    if node[0] == "I":
        out.append(node)
    else:
        for child in node[1:]:
            _atoms(child, out)
    return out


def _truth(node, value) -> bool:
    kind = node[0]
    if kind == "I":
        return value[node]
    if kind == "!":
        return not _truth(node[1], value)
    left = _truth(node[1], value)
    if kind == "&":
        return left and _truth(node[2], value)
    if kind == "|":
        return left or _truth(node[2], value)
    return not left or _truth(node[2], value)


def _valid_valuations(n: int, atoms, triples):
    """Yield the atom truth table of every valuation whose atoms are all disjoint."""
    names = sorted(set().union(*(variables(a) for a in atoms)))
    full = (1 << n) - 1
    envs = [{}]
    for name in names:
        envs = [dict(env, **{name: mask}) for env in envs for mask in range(1 << n)]
    for env in envs:
        value = {}
        for atom in atoms:
            a, c, b = (_term_value(t, env, full) for t in atom[1:])
            if a & c or a & b or c & b:
                break
            value[atom] = (a, c, b) in triples
        else:
            yield value


def satisfies(n: int, triples, formula) -> bool:
    """Every valid valuation of the formula's variables makes it true."""
    return all(_truth(formula, v) for v in _valid_valuations(n, _atoms(formula, []), triples))


def clause_holds(n: int, triples, negatives, positives) -> bool:
    """Rule reading: all negated atoms in the model force some positive one."""
    atoms = list(dict.fromkeys(negatives + positives))
    return not any(
        all(v[a] for a in negatives) and not any(v[a] for a in positives)
        for v in _valid_valuations(n, atoms, triples)
    )
