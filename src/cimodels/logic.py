"""Parser and evaluator for the independency logic.

Concrete syntax (whitespace-insensitive)::

    formula := disj ( "->" formula )?
    disj    := conj ( "|" conj )*
    conj    := neg ( "&" neg )*
    neg     := "!" neg | "I" "(" term "," term "," term ")" | "(" formula ")"
    term    := iterm ( "+" iterm )*
    iterm   := cterm ( "*" cterm )*
    cterm   := "~" cterm | "empty" | IDENT | "(" term ")"
    IDENT   := letter (letter | digit)*

``->`` is right-associative sugar: ``A -> B`` parses to ``!A | B`` and the
printer emits that shape back in arrow form. ``~`` is complement relative to
the model's universe, ``+`` union, ``*`` intersection, ``empty`` the empty
set. A formula holds in a model when every valid valuation satisfies it; a
valuation is valid when each atom's three term values are pairwise disjoint.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Literal, Mapping, Sequence

from .core import (
    IndependencyModel,
    Record,
    Triple,
    Universe,
    ValuationBudgetError,
    _set,
    bits_of,
    key_places,
)
from .dag import Dag, enumerate_dags
from .ugraph import UndirectedGraph, enumerate_undirected_graphs

# Most valuation-node checks model_satisfies and check_clause take on: the
# count of every valuation of the formula's variables, valid or not, times
# its nodes. The one gate of the valuation engine; no call overrides it.
MAX_VALUATION_CHECKS = 1 << 24

# Deepest nesting parse_formula accepts, and (by _check_depth) the deepest
# formula or term built in code that the printer and evaluators accept. The
# parser spends up to six stack frames per parenthesized level; the printer
# and the valuation engine one or two per level; so a formula at the gate
# stays well inside Python's default recursion limit of 1000 frames.
MAX_FORMULA_DEPTH = 100

ModelFamily = Literal["causal", "graph-isomorph", "all-models"]


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the failing 1-based offset."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (at offset {index + 1})")
        self.position = index + 1


# Terms


class Var(Record):
    name: str


class Empty(Record):
    pass


class Complement(Record):
    operand: "Term"


class Union_(Record):
    left: "Term"
    right: "Term"


class Intersection(Record):
    left: "Term"
    right: "Term"


Term = Var | Empty | Complement | Union_ | Intersection

EMPTY = Empty()


# Formulas


class Atom(Record):
    t1: Term
    t2: Term
    t3: Term


class Not(Record):
    operand: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


Formula = Atom | Not | And | Or


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """The arrow connective: stored as ``!antecedent | consequent``."""
    return Or(Not(antecedent), consequent)


class Clause(Record):
    """A disjunction of literals, split into its negated and plain atoms.

    Read as a rule: if all ``negatives`` hold then some positive holds.
    """

    negatives: tuple[Atom, ...]
    positives: tuple[Atom, ...]

    def __init__(self, negatives: Iterable[Atom], positives: Iterable[Atom]) -> None:
        _set(self, "negatives", tuple(negatives))
        _set(self, "positives", tuple(positives))
        if not self.negatives and not self.positives:
            raise ValueError("a clause needs at least one literal")


def is_horn(clause: Clause) -> bool:
    """True iff the clause has at most one positive literal."""
    return len(clause.positives) <= 1


# Tokenizer / parser

_SINGLE_CHARS = set("()|&!+*~,")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _SINGLE_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Every method returns the parsed node with its nesting depth: the number of
    operators and parenthesized groups on the longest path from the node down
    to a variable or ``empty`` (the brackets of ``I(...)`` do not count). Going past
    ``MAX_FORMULA_DEPTH`` is a syntax error, checked both when a nested
    construct opens (so the parser's own recursion stays bounded) and when a
    node is built (so long operator chains are bounded too).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # nested constructs entered and not yet closed

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.advance()

    def deeper(self, depth: int, at: int) -> int:
        """The depth of a construct at offset ``at`` directly above ``depth``."""
        if depth >= MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", at
            )
        return depth + 1

    def inside(self, parse: Callable[[], tuple], at: int) -> tuple:
        """Run ``parse`` inside the construct opened at offset ``at``."""
        self.open = self.deeper(self.open, at)
        result = parse()
        self.open -= 1
        return result

    def chain(self, op: str, node: Callable, operand: Callable[[], tuple]) -> tuple:
        """A left-associative run of ``operand``s joined by ``op``."""
        left, depth = operand()
        while self.peek()[0] == op:
            at = self.advance()[2]
            right, right_depth = operand()
            left, depth = node(left, right), self.deeper(max(depth, right_depth), at)
        return left, depth

    def formula(self) -> tuple[Formula, int]:
        left, depth = self.chain("|", Or, self.conj)
        if self.peek()[0] != "->":
            return left, depth
        at = self.advance()[2]
        right, right_depth = self.inside(self.formula, at)
        return implies(left, right), self.deeper(max(depth, right_depth), at)

    def conj(self) -> tuple[Formula, int]:
        return self.chain("&", And, self.neg)

    def neg(self) -> tuple[Formula, int]:
        kind, text, pos = self.peek()
        if kind == "!":
            self.advance()
            operand, depth = self.inside(self.neg, pos)
            return Not(operand), self.deeper(depth, pos)
        if kind == "ident" and text == "I":
            self.advance()
            self.expect("(")
            t1, d1 = self.term()
            self.expect(",")
            t2, d2 = self.term()
            self.expect(",")
            t3, d3 = self.term()
            self.expect(")")
            return Atom(t1, t2, t3), max(d1, d2, d3)
        if kind == "(":
            self.advance()
            inner, depth = self.inside(self.formula, pos)
            self.expect(")")
            return inner, self.deeper(depth, pos)
        raise FormulaSyntaxError(
            f"expected a formula, found {text or 'end of input'!r}", pos
        )

    def term(self) -> tuple[Term, int]:
        return self.chain("+", Union_, self.iterm)

    def iterm(self) -> tuple[Term, int]:
        return self.chain("*", Intersection, self.cterm)

    def cterm(self) -> tuple[Term, int]:
        kind, text, pos = self.peek()
        if kind == "~":
            self.advance()
            operand, depth = self.inside(self.cterm, pos)
            return Complement(operand), self.deeper(depth, pos)
        if kind == "ident":
            self.advance()
            return (EMPTY if text == "empty" else Var(text)), 0
        if kind == "(":
            self.advance()
            inner, depth = self.inside(self.term, pos)
            self.expect(")")
            return inner, self.deeper(depth, pos)
        raise FormulaSyntaxError(f"expected a term, found {text or 'end of input'!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text; nesting past ``MAX_FORMULA_DEPTH`` is a syntax error."""
    parser = _Parser(text)
    result, _ = parser.formula()
    kind, found, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {found!r}", pos)
    return result


def parse_clause(text: str) -> Clause:
    """Parse formula text that has clause shape; reject anything else."""
    formula = parse_formula(text)
    clause = clause_of_formula(formula)
    if clause is None:
        raise ValueError(f"formula is not a clause: {text!r}")
    return clause


# Printing. Binding strength, loosest first: -> | & ! and atoms; for terms
# + then * then ~. A child is parenthesized when it binds looser than its
# context requires, so printed text reparses to the identical tree.

_P_IMPLIES, _P_OR, _P_AND, _P_NOT, _P_LEAF = 1, 2, 3, 4, 5
_T_UNION, _T_INTER, _T_COMPL, _T_LEAF = 1, 2, 3, 4


def format_formula(formula: Formula | Term) -> str:
    """Render a formula or a term; parsing the result reproduces the identical tree.

    Raises ``ValueError`` when the text would nest deeper than
    ``MAX_FORMULA_DEPTH``, the parser's gate, counting the parentheses the
    printer adds, or name a variable that is no identifier (see ``_check_depth``).
    """
    _check_depth(formula, printed=True)
    return _fmt(formula, 0)


format_term = format_formula


def _layout(node: Formula | Term) -> tuple[int, str, tuple[tuple[Formula | Term, int], ...]]:
    """How an operator node is written: its binding strength, its operator,
    and each child with the binding strength it needs to go unparenthesized.
    """
    if isinstance(node, Complement):
        return _T_COMPL, "~", ((node.operand, _T_COMPL),)
    if isinstance(node, Union_):
        return _T_UNION, " + ", ((node.left, _T_UNION), (node.right, _T_UNION + 1))
    if isinstance(node, Intersection):
        return _T_INTER, " * ", ((node.left, _T_INTER), (node.right, _T_INTER + 1))
    if isinstance(node, Not):
        return _P_NOT, "!", ((node.operand, _P_NOT),)
    if isinstance(node, Or) and isinstance(node.left, Not):
        return _P_IMPLIES, " -> ", ((node.left.operand, _P_IMPLIES + 1), (node.right, _P_IMPLIES))
    if isinstance(node, Or):
        return _P_OR, " | ", ((node.left, _P_OR), (node.right, _P_OR + 1))
    return _P_AND, " & ", ((node.left, _P_AND), (node.right, _P_AND + 1))


def _fmt(node: Formula | Term, min_prec: int) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Empty):
        return "empty"
    if isinstance(node, Atom):
        return f"I({_fmt(node.t1, 0)}, {_fmt(node.t2, 0)}, {_fmt(node.t3, 0)})"
    prec, op, children = _layout(node)
    if len(children) == 1:
        body = op + _fmt(*children[0])
    else:
        left, right = children
        body = _fmt(*left) + op + _fmt(*right)
    return f"({body})" if prec < min_prec else body


def _check_depth(node: Formula | Term, *, printed: bool = False) -> set[str]:
    """Raise ``ValueError`` when a formula or term nests deeper than
    ``MAX_FORMULA_DEPTH``; return the names of its variables.

    The parser's rule: count the operators on the longest path down to a
    variable or ``empty``; the brackets of ``I(...)`` do not count, and the
    arrow, stored as ``Or(Not(a), b)``, counts once. Every parsed formula
    passes, so the evaluators use this rule. With ``printed``, each pair of
    parentheses the printer adds counts once more, as the parser counts it,
    so text the printer writes always parses. A parsed formula can still
    fail this stricter rule at the edge: text ``!a | b | c`` prints as
    ``(a -> b) | c``, one level deeper on ``b``'s path. Also with ``printed``,
    each variable name must be an identifier the tokenizer reads whole (a
    letter, then letters and digits) and not ``empty``. Iterative, so any
    depth is checked before any recursive walk.
    """
    names: set[str] = set()
    stack = [(node, 0, 0)]
    while stack:
        node, depth, min_prec = stack.pop()
        if isinstance(node, Var):
            name = node.name
            names.add(name)
            if printed and not (
                isinstance(name, str) and name[:1].isalpha() and name.isalnum() and name != "empty"
            ):
                raise ValueError(f"variable name {name!r} does not print as an identifier")
        if isinstance(node, (Var, Empty)):
            continue
        if isinstance(node, Atom):
            stack += ((node.t1, depth, 0), (node.t2, depth, 0), (node.t3, depth, 0))
            continue
        prec, _, children = _layout(node)
        depth += 1 + (printed and prec < min_prec)
        if depth > MAX_FORMULA_DEPTH:
            kind = "formula" if isinstance(node, (Not, And, Or)) else "term"
            raise ValueError(f"{kind} nested deeper than {MAX_FORMULA_DEPTH} levels")
        for child, child_prec in children:
            stack.append((child, depth, child_prec))
    return names


# Structure queries


def atoms_of(formula: Formula) -> tuple[Atom, ...]:
    """Distinct atoms in first-occurrence order.

    Raises ``ValueError`` when an atom's term nests deeper than
    ``MAX_FORMULA_DEPTH``, before hashing the atom recurses down the term.
    """
    return _atoms_and_size(formula)[0]


def _atoms_and_size(formula: Formula) -> tuple[tuple[Atom, ...], int]:
    """``atoms_of`` and the formula's node count: each connective and each
    atom occurrence once, so one per closure ``_compile_truth`` builds."""
    # An explicit stack: a recursive inner function would be a reference
    # cycle, keeping each formula alive until the cycle collector runs.
    seen: dict[Atom, None] = {}
    stack = [formula]
    size = 0
    while stack:
        f = stack.pop()
        size += 1
        if isinstance(f, Atom):
            _check_depth(f)
            seen.setdefault(f, None)
        elif isinstance(f, Not):
            stack.append(f.operand)
        else:
            stack += (f.right, f.left)
    return tuple(seen), size


def formula_variables(formula: Formula) -> tuple[str, ...]:
    """Sorted names of the variables occurring in the formula (see ``_sorted_names``)."""
    return _sorted_names(set().union(*map(_check_depth, atoms_of(formula))))


def _sorted_names(names: set[str]) -> tuple[str, ...]:
    """Names by type name, then by name: ``Var(3)`` beside ``Var("X")`` sorts too."""
    return tuple(sorted(names, key=lambda name: (type(name).__qualname__, name)))


# Valuations and satisfaction


class Valuation(Record):
    """Variable sets assigned to term variables over a universe; ``assignment`` is read-only."""

    universe: Universe
    assignment: Mapping[str, int]

    def __init__(self, universe: Universe, assignment: Mapping[str, int]) -> None:
        _set(self, "universe", universe)
        _set(self, "assignment", MappingProxyType(dict(assignment)))
        for name, mask in self.assignment.items():
            self.universe.check_mask(mask)

    def __reduce__(self) -> tuple:
        return type(self), (self.universe, dict(self.assignment))  # a mappingproxy won't pickle


def _value(term: Term, values: Mapping[str, int], full: int) -> int:
    """Value of a term whose variables take ``values``, all subsets of ``full``."""
    if isinstance(term, Var):
        try:
            return values[term.name]
        except KeyError:
            raise ValueError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Empty):
        return 0
    if isinstance(term, Complement):
        return full & ~_value(term.operand, values, full)
    left = _value(term.left, values, full)
    right = _value(term.right, values, full)
    return left | right if isinstance(term, Union_) else left & right


def is_valid_valuation(
    valuation: Valuation, formula: Formula, model: IndependencyModel
) -> bool:
    """True iff every atom's three term values are pairwise disjoint."""
    if valuation.universe.names != model.universe.names:
        raise ValueError("valuation universe does not match the model universe")
    values, full = valuation.assignment, valuation.universe.full_mask
    for atom in atoms_of(formula):
        s1, s2, s3 = (_value(t, values, full) for t in (atom.t1, atom.t2, atom.t3))
        if s1 & s2 or s1 & s3 or s2 & s3:
            return False
    return True


def _compile_truth(
    formula: Formula, index: Mapping[Atom, int]
) -> Callable[[Sequence[bool]], bool]:
    """The formula as a function of its atoms' truths, atom ``a`` at ``index[a]``."""
    if isinstance(formula, Atom):
        return itemgetter(index[formula])
    if isinstance(formula, Not):
        inner = _compile_truth(formula.operand, index)
        return lambda truths: not inner(truths)
    left = _compile_truth(formula.left, index)
    right = _compile_truth(formula.right, index)
    if isinstance(formula, And):
        return lambda truths: left(truths) and right(truths)
    return lambda truths: left(truths) or right(truths)


# The valuation engine. Every term is a Boolean combination of variables, so
# whether one element lies in a term's value depends only on which of the
# formula's variables contain it: the element's *pattern*, a bitmask over the
# sorted variable names. A valuation is one pattern per element, and it is
# valid iff no element's pattern puts it in two terms of one atom, so the valid
# valuations are exactly P^n for the set P of allowed patterns. Under a pattern
# each atom places the element in t1, t2, t3 or none of them: a digit 1, 2, 3
# or 0, the a/c/b code of ``enumerate_disjoint_triples``. Under a valuation
# the packed key of an atom's triple is the sum of what each element adds to
# it under its pattern's digit, ``core.key_places``.


def _allowed_digits(atoms: tuple[Atom, ...], names: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Each allowed pattern's per-atom digits; patterns with equal digits are
    interchangeable, so each digit tuple is listed once. A term's value here
    is the set of patterns under which it contains the element, as an int."""
    patterns = 1 << len(names)
    full = (1 << patterns) - 1
    var_sets = {
        name: sum(1 << p for p in range(patterns) if p >> j & 1) for j, name in enumerate(names)
    }
    term_sets = [
        [_value(t, var_sets, full) for t in (atom.t1, atom.t2, atom.t3)] for atom in atoms
    ]
    clash = 0
    for s1, s2, s3 in term_sets:
        clash |= s1 & s2 | s1 & s3 | s2 & s3
    return list(
        dict.fromkeys(
            tuple(
                (s1 >> p & 1) + 2 * (s2 >> p & 1) + 3 * (s3 >> p & 1)
                for s1, s2, s3 in term_sets
            )
            for p in bits_of(full & ~clash)
        )
    )


def model_satisfies(model: IndependencyModel, formula: Formula) -> bool:
    """True iff every valid valuation of the formula satisfies it.

    Quantifies over the variables that occur in the formula (others cannot
    affect satisfaction). Vacuously true when no valid valuation exists.
    Raises ``ValuationBudgetError`` instead of silently truncating when the
    enumeration would cost more than ``MAX_VALUATION_CHECKS``: the cost counts
    every valuation, valid or not, times the formula's nodes (connectives and
    atom occurrences), although only the valid ones are enumerated.
    Raises ``ValueError`` past ``MAX_FORMULA_DEPTH``, before any recursion.
    """
    names = _sorted_names(_check_depth(formula))
    atoms, size = _atoms_and_size(formula)
    cost = (1 << model.universe.n) ** len(names) * size
    if cost > MAX_VALUATION_CHECKS:
        raise ValuationBudgetError(
            f"{cost} valuation-node checks exceed the budget of {MAX_VALUATION_CHECKS}"
        )
    digits = _allowed_digits(atoms, names)
    # columns[i]: each allowed pattern's per-atom key contributions at element i.
    places = key_places(model.universe.n)
    columns = [[tuple(place[d] for d in pattern) for pattern in digits] for place in places]
    in_model = model.keys.__contains__
    truth = _compile_truth(formula, {atom: j for j, atom in enumerate(atoms)})
    for valuation in product(*columns):
        if not truth(tuple(map(in_model, map(sum, zip(*valuation))))):
            return False
    return True


def check_clause(model: IndependencyModel, clause: Clause) -> bool:
    """Rule reading of a clause: whenever the triples of all its ``negatives``
    are in the model under a valid valuation, some positive atom's triple is too.
    """
    return model_satisfies(model, formula_of_clause(clause))


# Clause <-> formula translation


def _leaves(formula: Formula, kind: type) -> list[Formula]:
    """The operands of the ``kind`` chain at the top of ``formula``, left to
    right; an explicit stack, so any depth is read."""
    leaves: list[Formula] = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, kind):
            stack += (f.right, f.left)
        else:
            leaves.append(f)
    return leaves


def clause_of_formula(formula: Formula) -> Clause | None:
    """Read a formula as a clause, or ``None`` when it has no clause shape.

    Accepted leaves of the disjunction spine: an atom, the negation of an
    atom, and a negated conjunction of atoms (the desugared rule antecedent).
    """
    negatives: list[Atom] = []
    positives: list[Atom] = []
    for leaf in _leaves(formula, Or):
        if isinstance(leaf, Atom):
            positives.append(leaf)
        elif isinstance(leaf, Not):
            inner = _leaves(leaf.operand, And)
            if not all(isinstance(x, Atom) for x in inner):
                return None
            negatives.extend(inner)  # type: ignore[arg-type]
        else:
            return None
    return Clause(tuple(negatives), tuple(positives))


def formula_of_clause(clause: Clause) -> Formula:
    """The rule form of a clause; pure clauses fall back to literal disjunctions."""
    if clause.negatives and clause.positives:
        return implies(reduce(And, clause.negatives), reduce(Or, clause.positives))
    if clause.positives:
        return reduce(Or, clause.positives)
    return reduce(Or, [Not(a) for a in clause.negatives])


# Entailment over enumerated model families


def entails(
    family: ModelFamily,
    given: Iterable[Triple],
    query: Triple,
    universe: Universe,
) -> bool:
    """True iff every family member over ``universe`` containing all of
    ``given`` also contains ``query``.

    ``causal`` and ``graph-isomorph`` walk every DAG or graph on the universe,
    so they raise the gate of ``enumerate_dags`` or
    ``enumerate_undirected_graphs``, before any member is built. ``all-models``
    needs no enumeration: the given triples already form the smallest such
    model, so entailment holds exactly when the query is among them.
    """
    given = tuple(given)  # may be a one-shot iterator
    for t in (*given, query):
        universe.check_mask(t.span)
    if family == "all-models":
        return query in set(given)
    if family == "causal":
        members, holds = enumerate_dags(universe), Dag.d_separates
    elif family == "graph-isomorph":
        members, holds = enumerate_undirected_graphs(universe), UndirectedGraph.separates
    else:
        raise ValueError(f"unknown model family {family!r}")
    for member in members:
        if all(holds(member, t.a, t.c, t.b) for t in given) and not holds(
            member, query.a, query.c, query.b
        ):
            return False
    return True
