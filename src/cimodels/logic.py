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

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Literal, Mapping, Sequence

from .core import IndependencyModel, Triple, Universe, bits_of
from .dag import enumerate_dags
from .ugraph import enumerate_undirected_graphs

DEFAULT_VALUATION_BUDGET = 1 << 24

# Deepest nesting parse_formula accepts. The parser spends up to six stack
# frames per parenthesized level; the printer, atoms_of and the valuation
# engine one or two per level; so a formula at the gate stays well inside
# Python's default recursion limit of 1000 frames.
MAX_FORMULA_DEPTH = 100

ENTAILMENT_FAMILY_GATES = {"causal": 4, "graph-isomorph": 5}

ModelFamily = Literal["causal", "graph-isomorph", "all-models"]


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the failing 1-based offset."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (at offset {index + 1})")
        self.position = index + 1


class ValuationBudgetError(RuntimeError):
    """Raised when exhaustive valuation enumeration would exceed the budget."""


# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Complement:
    operand: "Term"


@dataclass(frozen=True)
class Union_:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Intersection:
    left: "Term"
    right: "Term"


Term = Var | Empty | Complement | Union_ | Intersection

EMPTY = Empty()


# Formulas


@dataclass(frozen=True)
class Atom:
    t1: Term
    t2: Term
    t3: Term


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Atom | Not | And | Or


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """The arrow connective: stored as ``!antecedent | consequent``."""
    return Or(Not(antecedent), consequent)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals, split into its negated and plain atoms.

    Read as a rule: if all ``negatives`` hold then some positive holds.
    """

    negatives: tuple[Atom, ...]
    positives: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "negatives", tuple(self.negatives))
        object.__setattr__(self, "positives", tuple(self.positives))
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


def format_term(term: Term) -> str:
    return _fmt_term(term, 0)


def _fmt_term(term: Term, min_prec: int) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Empty):
        return "empty"
    if isinstance(term, Complement):
        return _wrap("~" + _fmt_term(term.operand, _T_COMPL), _T_COMPL, min_prec)
    if isinstance(term, Union_):
        body = f"{_fmt_term(term.left, _T_UNION)} + {_fmt_term(term.right, _T_UNION + 1)}"
        return _wrap(body, _T_UNION, min_prec)
    body = f"{_fmt_term(term.left, _T_INTER)} * {_fmt_term(term.right, _T_INTER + 1)}"
    return _wrap(body, _T_INTER, min_prec)


def format_formula(formula: Formula) -> str:
    """Render a formula; parsing the result reproduces the identical tree."""
    return _fmt_formula(formula, 0)


def _fmt_formula(formula: Formula, min_prec: int) -> str:
    if isinstance(formula, Atom):
        parts = ", ".join(format_term(t) for t in (formula.t1, formula.t2, formula.t3))
        return f"I({parts})"
    if isinstance(formula, Or) and isinstance(formula.left, Not):
        body = (
            f"{_fmt_formula(formula.left.operand, _P_IMPLIES + 1)}"
            f" -> {_fmt_formula(formula.right, _P_IMPLIES)}"
        )
        return _wrap(body, _P_IMPLIES, min_prec)
    if isinstance(formula, Or):
        body = f"{_fmt_formula(formula.left, _P_OR)} | {_fmt_formula(formula.right, _P_OR + 1)}"
        return _wrap(body, _P_OR, min_prec)
    if isinstance(formula, And):
        body = f"{_fmt_formula(formula.left, _P_AND)} & {_fmt_formula(formula.right, _P_AND + 1)}"
        return _wrap(body, _P_AND, min_prec)
    return _wrap("!" + _fmt_formula(formula.operand, _P_NOT), _P_NOT, min_prec)


def _wrap(body: str, prec: int, min_prec: int) -> str:
    return f"({body})" if prec < min_prec else body


# Structure queries


def atoms_of(formula: Formula) -> tuple[Atom, ...]:
    """Distinct atoms in first-occurrence order."""
    # An explicit stack: a recursive inner function would be a reference
    # cycle, keeping each formula alive until the cycle collector runs.
    seen: dict[Atom, None] = {}
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            seen.setdefault(f, None)
        elif isinstance(f, Not):
            stack.append(f.operand)
        else:
            stack += (f.right, f.left)
    return tuple(seen)


def term_variables(term: Term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Empty):
        return set()
    if isinstance(term, Complement):
        return term_variables(term.operand)
    return term_variables(term.left) | term_variables(term.right)


def formula_variables(formula: Formula) -> tuple[str, ...]:
    """Sorted names of the variables occurring in the formula."""
    names: set[str] = set()
    for atom in atoms_of(formula):
        for t in (atom.t1, atom.t2, atom.t3):
            names |= term_variables(t)
    return tuple(sorted(names))


# Valuations and satisfaction


@dataclass(frozen=True)
class Valuation:
    """An assignment of variable sets to term variables over a universe."""

    universe: Universe
    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        for name, mask in self.assignment.items():
            self.universe.check_mask(mask)


def eval_term(term: Term, valuation: Valuation) -> int:
    """Value of a term under a valuation; complement is relative to the universe."""
    if isinstance(term, Var):
        try:
            return valuation.assignment[term.name]
        except KeyError:
            raise ValueError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Empty):
        return 0
    if isinstance(term, Complement):
        return valuation.universe.full_mask & ~eval_term(term.operand, valuation)
    if isinstance(term, Union_):
        return eval_term(term.left, valuation) | eval_term(term.right, valuation)
    return eval_term(term.left, valuation) & eval_term(term.right, valuation)


def _atom_sets(atom: Atom, valuation: Valuation) -> tuple[int, int, int]:
    return (
        eval_term(atom.t1, valuation),
        eval_term(atom.t2, valuation),
        eval_term(atom.t3, valuation),
    )


def _disjoint(s1: int, s2: int, s3: int) -> bool:
    return not (s1 & s2 or s1 & s3 or s2 & s3)


def is_valid_valuation(
    valuation: Valuation, formula: Formula, model: IndependencyModel
) -> bool:
    """True iff every atom's three term values are pairwise disjoint."""
    if valuation.universe.names != model.universe.names:
        raise ValueError("valuation universe does not match the model universe")
    return all(_disjoint(*_atom_sets(atom, valuation)) for atom in atoms_of(formula))


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


def satisfies(valuation: Valuation, formula: Formula, model: IndependencyModel) -> bool:
    """Truth of the formula under one valid valuation.

    An atom holds when its evaluated triple is in the model; connectives are
    classical. Calling this with an invalid valuation is an error.
    """
    if not is_valid_valuation(valuation, formula, model):
        raise ValueError("valuation is not valid for the formula")
    atoms = atoms_of(formula)
    truths = [Triple(*_atom_sets(atom, valuation)) in model.triples for atom in atoms]
    return _compile_truth(formula, {atom: j for j, atom in enumerate(atoms)})(truths)


def _check_budget(universe: Universe, var_count: int, atom_count: int, budget: int) -> None:
    cost = (1 << universe.n) ** var_count * max(1, atom_count)
    if cost > budget:
        raise ValuationBudgetError(
            f"{cost} valuation-atom checks exceed the budget of {budget}"
        )


# The valuation engine. Every term is a Boolean combination of variables, so
# whether one element lies in a term's value depends only on which of the
# formula's variables contain it: the element's *pattern*, a bitmask over the
# sorted variable names. A valuation is one pattern per element, and it is
# valid iff no element's pattern puts it in two terms of one atom, so the valid
# valuations are exactly P^n for the set P of allowed patterns. Under a pattern
# each atom places the element in t1, t2, t3 or none of them: a digit 1, 2, 3
# or 0, the a/c/b code of ``enumerate_disjoint_triples``. An atom's triple
# (a, c, b) is keyed as ``a | c << n | b << 2n``, so under a valuation its key
# is the sum of what the element patterns contribute, one bit per element.


def _pattern_set(term: Term, index: Mapping[str, int], var_sets: list[int]) -> int:
    """The patterns under which ``term`` contains the element, as the bits of
    an int; ``var_sets[j]`` is that set for variable ``j`` and ``var_sets[-1]``
    holds every pattern."""
    if isinstance(term, Var):
        return var_sets[index[term.name]]
    if isinstance(term, Empty):
        return 0
    if isinstance(term, Complement):
        return var_sets[-1] ^ _pattern_set(term.operand, index, var_sets)
    left = _pattern_set(term.left, index, var_sets)
    right = _pattern_set(term.right, index, var_sets)
    return left | right if isinstance(term, Union_) else left & right


def _allowed_digits(atoms: tuple[Atom, ...], names: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Each allowed pattern's per-atom digits; patterns with equal digits are
    interchangeable, so each digit tuple is listed once."""
    patterns = 1 << len(names)
    var_sets = [
        sum(1 << p for p in range(patterns) if p >> j & 1) for j in range(len(names))
    ]
    var_sets.append((1 << patterns) - 1)
    index = {name: j for j, name in enumerate(names)}
    term_sets = [
        [_pattern_set(t, index, var_sets) for t in (atom.t1, atom.t2, atom.t3)]
        for atom in atoms
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
            for p in bits_of(var_sets[-1] & ~clash)
        )
    )


def model_satisfies(
    model: IndependencyModel,
    formula: Formula,
    *,
    budget: int = DEFAULT_VALUATION_BUDGET,
) -> bool:
    """True iff every valid valuation of the formula satisfies it.

    Quantifies over the variables that occur in the formula (others cannot
    affect satisfaction). Vacuously true when no valid valuation exists.
    Raises ``ValuationBudgetError`` instead of silently truncating when the
    enumeration would be too large: the cost counts every valuation, valid or
    not, times the atoms, although only the valid ones are enumerated.
    """
    names = formula_variables(formula)
    atoms = atoms_of(formula)
    _check_budget(model.universe, len(names), len(atoms), budget)
    n = model.universe.n
    digits = _allowed_digits(atoms, names)
    # columns[i]: each allowed pattern's per-atom key contributions at element i.
    columns = []
    for i in range(n):
        place = (0, 1 << i, 1 << n + i, 1 << 2 * n + i)
        columns.append([tuple(place[d] for d in pattern) for pattern in digits])
    in_model = frozenset(t.a | t.c << n | t.b << 2 * n for t in model.triples).__contains__
    truth = _compile_truth(formula, {atom: j for j, atom in enumerate(atoms)})
    for valuation in product(*columns):
        if not truth(tuple(map(in_model, map(sum, zip(*valuation))))):
            return False
    return True


def check_clause(
    model: IndependencyModel,
    clause: Clause,
    *,
    budget: int = DEFAULT_VALUATION_BUDGET,
) -> bool:
    """Rule reading of a clause: whenever all negated atoms' triples are in
    the model under a valid valuation, some positive atom's triple is too.
    """
    return model_satisfies(model, formula_of_clause(clause), budget=budget)


# Clause <-> formula translation


def _or_leaves(formula: Formula) -> list[Formula]:
    if isinstance(formula, Or):
        return _or_leaves(formula.left) + _or_leaves(formula.right)
    return [formula]


def _and_leaves(formula: Formula) -> list[Formula]:
    if isinstance(formula, And):
        return _and_leaves(formula.left) + _and_leaves(formula.right)
    return [formula]


def clause_of_formula(formula: Formula) -> Clause | None:
    """Read a formula as a clause, or ``None`` when it has no clause shape.

    Accepted leaves of the disjunction spine: an atom, a negated atom, and a
    negated conjunction of atoms (the desugared rule antecedent).
    """
    negatives: list[Atom] = []
    positives: list[Atom] = []
    for leaf in _or_leaves(formula):
        if isinstance(leaf, Atom):
            positives.append(leaf)
        elif isinstance(leaf, Not):
            inner = _and_leaves(leaf.operand)
            if not all(isinstance(x, Atom) for x in inner):
                return None
            negatives.extend(inner)  # type: ignore[arg-type]
        else:
            return None
    return Clause(tuple(negatives), tuple(positives))


def _fold_and(formulas: list[Formula]) -> Formula:
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def _fold_or(formulas: list[Formula]) -> Formula:
    out = formulas[0]
    for f in formulas[1:]:
        out = Or(out, f)
    return out


def formula_of_clause(clause: Clause) -> Formula:
    """The rule form of a clause; pure clauses fall back to literal disjunctions."""
    if clause.negatives and clause.positives:
        return implies(
            _fold_and(list(clause.negatives)), _fold_or(list(clause.positives))
        )
    if clause.positives:
        return _fold_or(list(clause.positives))
    return _fold_or([Not(a) for a in clause.negatives])


# Entailment over enumerated model families


def entails(
    family: ModelFamily,
    given: list[Triple] | tuple[Triple, ...],
    query: Triple,
    universe: Universe,
) -> bool:
    """True iff every family member over ``universe`` containing all of
    ``given`` also contains ``query``.

    ``causal`` and ``graph-isomorph`` enumerate their witnesses exhaustively
    (gated by universe size). ``all-models`` needs no enumeration: the given
    triples already form the smallest such model, so entailment holds exactly
    when the query is among them.
    """
    for t in (*given, query):
        universe.check_mask(t.span)
    if family == "all-models":
        return query in set(given)
    gate = ENTAILMENT_FAMILY_GATES.get(family)
    if gate is None:
        raise ValueError(f"unknown model family {family!r}")
    if universe.n > gate:
        raise ValueError(f"family {family!r} entailment is gated at {gate} variables")
    if family == "causal":
        for dag in enumerate_dags(universe):
            if all(dag.d_separates(t.a, t.c, t.b) for t in given) and not dag.d_separates(
                query.a, query.c, query.b
            ):
                return False
        return True
    for graph in enumerate_undirected_graphs(universe):
        if all(graph.separates(t.a, t.c, t.b) for t in given) and not graph.separates(
            query.a, query.c, query.b
        ):
            return False
    return True
